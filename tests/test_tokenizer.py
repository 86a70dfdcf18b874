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
    encode_text,
    iter_tokens,
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


def reference_tokens(text: str, lowercase: bool = True) -> list[str]:
    """The tokenizer's definition, one character at a time: the
    reference for the regex."""
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    tokens: list[str] = []
    current: list[str] = []
    n = len(text)
    for i, ch in enumerate(text):
        if ch.isalnum():
            current.append(ch)
        elif (ch in {".", "/", "-"} and 0 < i < n - 1
              and text[i - 1].isdecimal() and text[i + 1].isdecimal()):
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tokens


# Each code point alone, flanked by digits and letters, and on either
# side of a digit bridge.
CONTEXTS = ("{}", "1{}2", "a{}1", "1.{}", "{}.1", "1{}.2", "1.{}2")


def context_batches(code_points):
    """Strings of about 4,096 space-separated contexts of the code points."""
    per_batch = 4096 // len(CONTEXTS)
    for start in range(0, len(code_points), per_batch):
        yield " ".join(ctx.format(chr(c)) for c in code_points[start:start + per_batch]
                       for ctx in CONTEXTS)


class TestTokenizeEqualsTheCharacterLoop:
    """Every code point in every context tokenizes as the reference loop
    does, with and without lowercasing."""

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_every_assigned_code_point(self, lowercase):
        assigned = [c for c in range(0x110000)
                    if unicodedata.category(chr(c)) not in ("Cn", "Co", "Cs")]
        for batch in context_batches(assigned):
            assert tokenize(batch, lowercase) == reference_tokens(batch, lowercase)

    def test_numeric_symbols_are_tokens(self):
        # category No and Nl: alphanumeric, and only Nd bridges
        assert tokenize("Lei ½ x² Ⅲ 1.²") == ["lei", "½", "x²", "ⅲ", "1", "²"]
        assert tokenize("10.² 1½ ½ ¾") == ["10", "²", "1½", "½", "¾"]
        assert tokenize("nº 5º 3ª lei¹ ① 𝟏.𝟐 8.112/90") == [
            "nº", "5º", "3ª", "lei¹", "①", "𝟏.𝟐", "8.112/90"]

    @given(st.text(alphabet=st.one_of(
        st.sampled_from("0123456789./-²³½Ⅲ\u0301\u0303\u0327İΣσςaceo ٣３"),
        st.characters()), max_size=60), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_mixed_text(self, text, lowercase):
        assert tokenize(text, lowercase) == reference_tokens(text, lowercase)


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

    def test_encode_text_tokenizes_with_the_vocabulary_casing(self):
        lower = build_vocabulary(iter_tokens(["Recurso lei"]), cap=5)
        kept = build_vocabulary(iter_tokens(["Recurso lei"], lowercase=False), cap=5,
                                lowercase=False)
        assert [t for t, _ in kept.entries] == ["Recurso", "lei"]
        assert encode_text("Recurso LEI", lower, 4).ids.tolist() == [2, 3, 0, 0]
        assert encode_text("Recurso LEI", kept, 4).ids.tolist() == [2, OOV_ID, 0, 0]

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

    def test_lowercase_rendering_is_pinned(self):
        # the bytes and digest of every lowercase vocabulary predate the casing key
        vocab = tokenizer.Vocabulary((("recurso", 3), ("lei", 1)), cap=5)
        assert tokenizer._render(vocab) == (
            "#vocab v1 size=2 cap=5\nrecurso\t2\t3\nlei\t3\t1\n")
        assert vocab.digest() == (
            "6f96c5d7684dcabc14ace10adf7dd0def4441e613421edcac1c38ceb4a4cac4a")

    def test_file_without_casing_key_is_lowercase(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("#vocab v1 size=1 cap=5\nrecurso\t2\t3\n", encoding="utf-8")
        assert load_vocabulary(path).lowercase is True

    def test_case_preserving_roundtrip(self, tmp_path):
        vocab = build_vocabulary(iter(["Recurso", "Recurso", "lei"]), cap=5,
                                 lowercase=False)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        text = path.read_text(encoding="utf-8")
        assert text == (
            "#vocab v1 size=2 cap=5 lowercase=false\nRecurso\t2\t2\nlei\t3\t1\n")
        loaded = load_vocabulary(path)
        assert loaded == vocab and loaded.lowercase is False
        assert loaded.digest() == vocab.digest()
        twin = tokenizer.Vocabulary(entries=vocab.entries, cap=vocab.cap)
        assert twin != vocab
        assert twin.digest() != vocab.digest()

    @pytest.mark.parametrize("key", [
        "lowercase=true", "lowercase=False", "lowercase=0", "lowercase=",
        "lowercase=false,", "Lowercase=false", "lowercase", "lowercase = false",
        "lowercase=false lowercase=1", "case=false"])
    def test_bad_casing_key_rejected(self, tmp_path, key):
        path = tmp_path / "vocab.txt"
        header = f"#vocab v1 size=1 cap=5 {key}"
        path.write_text(f"{header}\na\t2\t1\n", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_vocabulary(path)
        assert str(excinfo.value) == f"{path}: malformed vocabulary header: {header!r}"

    @pytest.mark.parametrize("header", ["#vocab v1 size=0 cap=5",
                                        "#vocab v1 size=0 cap=5 lowercase=false"],
                             ids=["lowercase", "case-preserving"])
    def test_file_without_tokens_rejected(self, tmp_path, header):
        path = tmp_path / "vocab.txt"
        path.write_text(header + "\n", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_vocabulary(path)
        assert str(excinfo.value) == f"{path}: vocabulary has no tokens"

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


# str.isspace accepts each of these, the separators too.
WHITESPACE = [" ", "\t", "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
              "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000"]
# Of those, the ones that split neither lines nor fields of a vocabulary file.
WHITESPACE_IN_A_FIELD = [" ", "\x1f", "\xa0", "\u1680", "\u2000", "\u3000"]


class TestVocabularyRules:
    """Each table rule rejects with its own message: built directly, as a
    ValueError; loaded, as a DataError that names the file."""

    @pytest.mark.parametrize("entries, cap, message", [
        ((("a", 2), ("b", 1)), 1, "vocabulary exceeds its cap"),
        ((("a", 2), ("", 1)), 5, "empty token in vocabulary"),
        ((("a", 2), ("b", 1), ("a", 1)), 5, "duplicate token 'a' in vocabulary"),
        ((("a", 1), ("b", 2)), 5, "vocabulary frequencies must be non-increasing"),
        # the first entry that breaks a rule is named, whatever follows
        ((("a", 1), ("b", 2), ("", 1)), 5,
         "vocabulary frequencies must be non-increasing"),
        ((("a", 3), ("a b", 2), ("a b", 1)), 5, "token 'a b' contains whitespace"),
        ((("a", 3), ("a", 2), ("", 1)), 5, "duplicate token 'a' in vocabulary"),
    ], ids=["cap", "empty", "duplicate", "rising", "rising-first", "space-first",
            "duplicate-first"])
    def test_rejection(self, entries, cap, message):
        with pytest.raises(ValueError) as excinfo:
            tokenizer.Vocabulary(entries=entries, cap=cap)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    def test_whitespace_anywhere_in_a_token(self, space):
        for token in (f"a{space}b", space, f"{space}a", f"a{space}"):
            with pytest.raises(ValueError) as excinfo:
                tokenizer.Vocabulary(entries=(("x", 2), (token, 1)), cap=5)
            assert str(excinfo.value) == f"token {token!r} contains whitespace"

    def test_a_valid_table_indexes_every_token(self):
        vocab = tokenizer.Vocabulary(entries=(("b", 3), ("a", 3), ("c", 1)), cap=3)
        assert [vocab.id_of(t) for t in "abcd"] == [3, 2, 4, OOV_ID]
        assert tokenizer.Vocabulary(entries=(), cap=1).id_count == 2

    @pytest.mark.parametrize("body, message", [
        ("#vocab v1 size=2 cap=1\na\t2\t2\nb\t3\t1\n", ": vocabulary exceeds its cap"),
        ("#vocab v1 size=2 cap=5\na\t2\t2\n\t3\t1\n", ": empty token in vocabulary"),
        ("#vocab v1 size=2 cap=5\na\t2\t2\na\t3\t1\n", ":3: duplicate token 'a'"),
        ("#vocab v1 size=2 cap=5\na\t2\t1\nb\t3\t2\n",
         ": vocabulary frequencies must be non-increasing"),
    ], ids=["cap", "empty", "duplicate", "rising"])
    def test_loaded_rejection_names_the_file(self, tmp_path, body, message):
        path = tmp_path / "vocab.txt"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_vocabulary(path)
        assert str(excinfo.value) == f"{path}{message}"

    @pytest.mark.parametrize("space", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    def test_loaded_whitespace_names_the_file(self, tmp_path, space):
        path = tmp_path / "vocab.txt"
        path.write_text(f"#vocab v1 size=2 cap=5\na\t2\t2\nb{space}c\t3\t1\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_vocabulary(path)
        if space in WHITESPACE_IN_A_FIELD:
            expected = f"{path}: token {'b' + space + 'c'!r} contains whitespace"
        else:  # a line or field separator breaks the row first
            expected = f"{path}:3: expected token<TAB>id<TAB>frequency"
        assert str(excinfo.value) == expected


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

    def test_every_truncation_and_bit_flip_of_a_case_preserving_file(self, tmp_path):
        vocab = build_vocabulary(iter(["Acórdão", "8.112/90", "RE", "RE", "lei"]),
                                 cap=10, lowercase=False)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        check_every_truncation_and_bit_flip(
            load_vocabulary, path.with_name("variant.txt"), path.read_bytes())

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, vocabulary_file, data):
        blob, path = vocabulary_file
        load_variant(load_vocabulary, path, damaged(blob, data))
