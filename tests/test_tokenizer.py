import hashlib
import unicodedata

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_every_truncation_and_bit_flip, damaged, load_variant

from lexseq import tokenizer
from lexseq.errors import DataError
from lexseq.tokenizer import (
    OOV_ID,
    PAD_ID,
    build_vocabulary,
    encode,
    load_vocabulary,
    save_vocabulary,
    tokenize,
)


class TestTokenize:
    def test_plain_words(self):
        assert tokenize("Recurso  Extraordinário") == ["recurso", "extraordinário"]

    def test_law_citation_bridging(self):
        assert tokenize("Lei 8.112/90, art. 5") == ["lei", "8.112/90", "art", "5"]

    def test_empty(self):
        assert tokenize("") == []

    def test_bridge_needs_digits_on_both_sides(self):
        assert tokenize("a.b 1.x 2-3 x-1") == ["a", "b", "1", "x", "2-3", "x", "1"]

    def test_lowercase_configurable(self):
        assert tokenize("Recurso", lowercase=False) == ["Recurso"]

    def test_nfc_idempotence(self):
        decomposed = "Achárdo"  # combining acute
        assert tokenize(decomposed) == tokenize(unicodedata.normalize("NFC", decomposed))

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_total_and_deterministic(self, text):
        first = tokenize(text)
        assert first == tokenize(text)
        assert first == tokenize(unicodedata.normalize("NFC", text))
        assert all(tok for tok in first)


class TestBuildVocabulary:
    def test_cap_keeps_most_frequent(self):
        vocab = build_vocabulary(iter("aaabbc"), cap=2)
        assert vocab.entries == (("a", 3), ("b", 2))
        assert vocab.id_of("a") == 2
        assert vocab.id_of("b") == 3
        assert vocab.id_of("c") == OOV_ID

    def test_tie_broken_by_first_occurrence(self):
        vocab = build_vocabulary(iter(["b", "a", "b", "a"]), cap=1)
        assert vocab.entries == (("b", 2),)

    def test_cap_not_binding(self):
        vocab = build_vocabulary(iter("edcba"), cap=100)
        assert len(vocab) == 5
        assert [vocab.id_of(t) for t in "edcba"] == [2, 3, 4, 5, 6]

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary(iter([]), cap=10)

    @given(st.lists(st.sampled_from("abcdefgh"), max_size=200, min_size=1),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_cap_and_frequency_order(self, stream, cap):
        vocab = build_vocabulary(iter(stream), cap=cap)
        assert len(vocab) <= cap
        freqs = [f for _, f in vocab.entries]
        assert freqs == sorted(freqs, reverse=True)


    @given(st.lists(st.sampled_from([f"t{i}" for i in range(40)]), min_size=1,
                    max_size=300),
           st.integers(min_value=1, max_value=45))
    @settings(max_examples=200, deadline=None)
    def test_same_entries_as_the_first_seen_ranking(self, stream, cap):
        # the dict-and-first_seen counting that Counter.most_common replaced
        counts: dict[str, int] = {}
        first_seen: dict[str, int] = {}
        for pos, token in enumerate(stream):
            if token in counts:
                counts[token] += 1
            else:
                counts[token] = 1
                first_seen[token] = pos
        ranked = sorted(counts, key=lambda t: (-counts[t], first_seen[t]))[:cap]
        vocab = build_vocabulary(iter(stream), cap=cap)
        assert vocab.entries == tuple((t, counts[t]) for t in ranked)


class TestEncode:
    def test_oov_and_padding(self):
        vocab = build_vocabulary(iter(["a", "a", "b"]), cap=10)
        seq = encode(["a", "b", "zzz"], vocab, 5)
        assert seq.ids.tolist() == [2, 3, 1, 0, 0]
        assert seq.length == 3

    def test_truncation(self):
        vocab = build_vocabulary(iter(["a"]), cap=10)
        seq = encode(["a"] * 1200, vocab, 1000)
        assert seq.length == 1000
        assert np.all(seq.ids == 2)

    def test_empty_tokens(self):
        vocab = build_vocabulary(iter(["a"]), cap=10)
        seq = encode([], vocab, 4)
        assert seq.length == 0
        assert np.all(seq.ids == PAD_ID)

    def test_in_vocab_roundtrip(self):
        vocab = build_vocabulary(iter(["um", "dois", "um"]), cap=10)
        for token in ("um", "dois"):
            seq = encode([token], vocab, 2)
            assert seq.ids[0] >= 2
            assert vocab.entries[int(seq.ids[0]) - 2][0] == token

    @given(st.lists(st.sampled_from("abcdefxyz"), max_size=30),
           st.integers(min_value=1, max_value=25))
    @settings(max_examples=100, deadline=None)
    def test_same_ids_as_the_per_token_loop(self, tokens, max_len):
        vocab = build_vocabulary(iter("aabbbcdef"), cap=4)
        expected = np.zeros(max_len, dtype=np.int64)
        for i in range(min(len(tokens), max_len)):
            expected[i] = vocab.id_of(tokens[i])
        seq = encode(tokens, vocab, max_len)
        assert seq.ids.dtype == expected.dtype
        npt.assert_array_equal(seq.ids, expected)
        assert seq.length == min(len(tokens), max_len)

    def test_no_pad_before_nonpad(self):
        vocab = build_vocabulary(iter("abc"), cap=10)
        seq = encode(list("cab"), vocab, 8)
        ids = seq.ids.tolist()
        seen_pad = False
        for v in ids:
            if v == PAD_ID:
                seen_pad = True
            else:
                assert not seen_pad


class TestVocabularyFile:
    def test_roundtrip(self, tmp_path):
        vocab = build_vocabulary(iter(["a", "a", "a", "b", "b"]), cap=2)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.digest() == vocab.digest()

    def test_noncontiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#vocab v1 size=2 cap=5\na\t2\t3\nb\t4\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="non-contiguous"):
            load_vocabulary(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#vocab v1 size=3 cap=5\na\t2\t3\nb\t3\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="size=3"):
            load_vocabulary(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#vocab v9 size=0 cap=5\n", encoding="utf-8")
        with pytest.raises(DataError, match="version"):
            load_vocabulary(path)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#vocab v1 size=2 cap=5\na\t2\t3\na\t3\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_vocabulary(path)

    def test_digest_tracks_content(self, tmp_path):
        v1 = build_vocabulary(iter(["a", "b", "a"]), cap=5)
        v2 = build_vocabulary(iter(["a", "b", "b"]), cap=5)
        assert v1.digest() != v2.digest()

    def test_digest_is_rendered_once_per_vocabulary(self, monkeypatch):
        vocab = build_vocabulary(iter(["a", "b", "a"]), cap=5)
        expected = hashlib.sha256(tokenizer._render(vocab).encode("utf-8")).hexdigest()
        rendered = []
        real_render = tokenizer._render
        monkeypatch.setattr(tokenizer, "_render",
                            lambda v: rendered.append(v) or real_render(v))
        assert vocab.digest() == expected
        assert vocab.digest() == expected
        assert rendered == [vocab]
        # the kept digest is not part of equality or the hash
        twin = build_vocabulary(iter(["a", "b", "a"]), cap=5)
        assert twin == vocab and hash(twin) == hash(vocab)


@pytest.fixture(scope="module")
def vocabulary_file(tmp_path_factory):
    """A valid vocabulary file with accents and a bridged citation token,
    and a scratch path for damaged variants."""
    vocab = build_vocabulary(iter(["acórdão", "8.112/90", "re", "re", "lei", "lei",
                                   "lei", "x"]), cap=10)
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    save_vocabulary(vocab, path)
    return path.read_bytes(), path.with_name("variant.txt")


class TestVocabularyFileFuzz:
    """A damaged vocabulary file either loads or raises DataError."""

    def test_every_truncation_and_bit_flip(self, vocabulary_file):
        blob, path = vocabulary_file
        check_every_truncation_and_bit_flip(load_vocabulary, path, blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, vocabulary_file, data):
        blob, path = vocabulary_file
        load_variant(load_vocabulary, path, damaged(blob, data))
