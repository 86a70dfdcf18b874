import hashlib
import os
import unicodedata
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_every_truncation_and_bit_flip, damaged, flip_bit, load_variant,
                      traced_peak)

from lexseq import tokenizer
from lexseq.errors import DataError, utf8_lines
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

    # str.split() whitespace (with \x1c-\x1f, \x85 and \u2028, which are
    # not " "), the non-space \u200b, and characters that lowercasing or NFC
    # change next to a part's edge: İ lowercases to i + \u0307
    @given(st.text(alphabet=st.one_of(
        st.sampled_from("abÉç "),
        st.sampled_from("\t\n\xa0\u3000\x1c\x1f\x85\u2028\u200bİ\u0307\u0301²½٣_./-"),
        st.sampled_from("0123456789")), max_size=60), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_part_boundaries(self, text, lowercase):
        expected = reference_tokens(text, lowercase)
        assert tokenize(text, lowercase) == expected
        normal = unicodedata.normalize("NFC", text)
        assert tokenizer._TOKEN.findall(normal.lower() if lowercase else normal) == expected


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

    def test_memory_is_about_the_counter(self):
        # 200,000 distinct tokens under a cap of 100,000: no pair object per
        # distinct token, no token -> id dict, and the Counter is freed
        # before the columns are copied, so the build peaks in the Counter
        # (1.000 of its peak; 1.089 with the dict built at once, and
        # sorting (token, count) pairs peaks at 2.1 Counters)
        stream = [f"t{i}" for i in range(200_000)] + [f"t{i}" for i in range(0, 200_000, 3)]
        counter = traced_peak(lambda: Counter(iter(stream)))
        assert traced_peak(lambda: build_vocabulary(iter(stream), cap=100_000)) \
            < 1.02 * counter


class TestEncode:
    def test_oov_and_no_padding(self):
        vocab = build_vocabulary(iter(["a", "a", "b"]), cap=10)
        seq = encode(["a", "b", "zzz"], vocab, 5)
        assert seq.ids.tolist() == [2, 3, 1]
        assert seq.length == 3

    def test_truncation(self):
        vocab = build_vocabulary(iter(["a"]), cap=10)
        seq = encode(["a"] * 1200, vocab, 1000)
        assert seq.length == seq.ids.size == 1000
        assert np.all(seq.ids == 2)

    def test_empty_tokens(self):
        vocab = build_vocabulary(iter(["a"]), cap=10)
        seq = encode([], vocab, 4)
        assert seq.length == seq.ids.size == 0

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
        expected = np.zeros(min(len(tokens), max_len), dtype=np.int64)
        for i in range(expected.size):
            expected[i] = vocab.id_of(tokens[i])
        seq = encode(tokens, vocab, max_len)
        assert seq.ids.dtype == expected.dtype
        npt.assert_array_equal(seq.ids, expected)
        # ids of the document's own length, not of the window
        assert seq.length == seq.ids.size == min(len(tokens), max_len)

    def test_a_short_document_allocates_no_window(self):
        # a window of 10**6 tokens would be 8 MB of ids
        vocab = build_vocabulary(iter(["a", "b"]), cap=10)
        assert traced_peak(lambda: encode(["a", "b", "c"], vocab, 10**6)) < 64 * 1024

    def test_encode_text_tokenizes_with_the_vocabulary_casing(self):
        lower = build_vocabulary(iter_tokens(["Recurso lei"]), cap=5)
        kept = build_vocabulary(iter_tokens(["Recurso lei"], lowercase=False), cap=5,
                                lowercase=False)
        assert [t for t, _ in kept.entries] == ["Recurso", "lei"]
        assert encode_text("Recurso LEI", lower, 4).ids.tolist() == [2, 3]
        assert encode_text("Recurso LEI", kept, 4).ids.tolist() == [2, OOV_ID]

    @pytest.mark.parametrize("ids", [
        np.array([2.7, 3.2]), np.array([True, True]), np.array([[2, 3]]), [2, 3],
    ], ids=["float", "bool", "2-d", "list"])
    def test_ids_must_be_a_1d_integer_array(self, ids):
        with pytest.raises(ValueError, match="1-D integer array"):
            tokenizer.EncodedSequence(ids=ids, length=2)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint16])
    def test_integer_ids_of_any_width_are_accepted(self, dtype):
        seq = tokenizer.EncodedSequence(ids=np.array([2, 3, 0], dtype=dtype), length=2)
        assert seq.ids.dtype == dtype

    def test_no_pad_before_nonpad(self):
        vocab = build_vocabulary(iter("abc"), cap=10)
        seq = encode(list("cab"), vocab, 8)
        assert PAD_ID not in seq.ids.tolist()  # encode pads nothing


def rendering(vocab) -> str:
    """The canonical file of ``vocab`` as text."""
    return b"".join(tokenizer._render_chunks(vocab)).decode("utf-8")


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
        assert rendering(vocab) == (
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
        expected = hashlib.sha256(rendering(vocab).encode("utf-8")).hexdigest()
        rendered = []
        real_render = tokenizer._render_chunks
        monkeypatch.setattr(tokenizer, "_render_chunks",
                            lambda v: rendered.append(v) or real_render(v))
        assert vocab.digest() == expected
        assert vocab.digest() == expected
        assert rendered == [vocab]
        # the kept digest is not part of equality or the hash
        twin = build_vocabulary(iter(["a", "b", "a"]), cap=5)
        assert twin == vocab and hash(twin) == hash(vocab)

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_digest_is_the_hash_of_the_saved_bytes(self, tmp_path, lowercase):
        # more rows than one chunk, some of them not ASCII
        rows = 2 * tokenizer.RENDER_ROWS + 5
        tokens = [f"T{k}ção" if k % 3 else f"t{k}" for k in range(rows)]
        vocab = tokenizer.Vocabulary(zip(tokens, range(rows, 0, -1)),
                                     cap=rows + 1, lowercase=lowercase)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        assert vocab.digest() == hashlib.sha256(path.read_bytes()).hexdigest()
        assert path.read_text(encoding="utf-8") == rendering(vocab)

    def test_digest_holds_no_whole_file(self):
        # a 100,000-entry table's file is about 1.5 MiB; rendered as one
        # string and its bytes, the peak is 9.7 MiB
        tokens = [f"t{k}" for k in range(100_000)]
        vocab = tokenizer.Vocabulary(zip(tokens, range(100_000, 0, -1)), cap=100_000)
        assert traced_peak(vocab.digest) < 2 ** 20


# str.isspace accepts each of these, the separators too.
WHITESPACE = [" ", "\t", "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
              "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000"]
# Of those, the ones that split neither lines nor fields of a vocabulary file.
WHITESPACE_IN_A_FIELD = [" ", "\x1f", "\xa0", "\u1680", "\u2000", "\u3000"]


RULE_CASES = pytest.mark.parametrize("entries, cap, message", [
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


class TestVocabularyRules:
    """Each table rule rejects with its own message: built directly, as a
    ValueError; loaded, as a DataError that names the file."""

    @RULE_CASES
    def test_rejection(self, entries, cap, message):
        with pytest.raises(ValueError) as excinfo:
            tokenizer.Vocabulary(entries=entries, cap=cap)
        assert str(excinfo.value) == message

    def test_entries_build_the_columns(self):
        entries = (("b", 3), ("a", 3), ("c", 1))
        vocab = tokenizer.Vocabulary(iter(entries), cap=3, lowercase=False)
        assert vocab.tokens == ("b", "a", "c") and vocab.freqs == (3, 3, 1)
        assert vocab.entries == entries
        assert vocab == tokenizer.Vocabulary(entries=entries, cap=3, lowercase=False)

    @pytest.mark.parametrize("kwargs", [
        {}, {"tokens": ["a"], "freqs": [1]},
        {"entries": (("a", 1),), "tokens": ["a"], "freqs": [1]}],
        ids=["neither", "columns", "entries-and-columns"])
    def test_entries_are_the_one_way_of_construction(self, kwargs):
        with pytest.raises(TypeError):
            tokenizer.Vocabulary(cap=5, **kwargs)

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
        ("#vocab v1 size=2 cap=5\na\t2\t2\n\t3\t1\n", ":3: empty token in vocabulary"),
        ("#vocab v1 size=2 cap=5\na\t2\t2\na\t3\t1\n", ":3: duplicate token 'a'"),
        ("#vocab v1 size=2 cap=5\na\t2\t1\nb\t3\t2\n",
         ":3: vocabulary frequencies must be non-increasing"),
        ("#vocab v1 size=3 cap=5\na\t2\t3\nb\t3\t2\nc\t4\t9\n",
         ":4: vocabulary frequencies must be non-increasing"),
    ], ids=["cap", "empty", "duplicate", "rising", "rising-on-line-4"])
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
            expected = f"{path}:3: token {'b' + space + 'c'!r} contains whitespace"
        else:  # a line or field separator breaks the row first
            expected = f"{path}:3: expected token<TAB>id<TAB>frequency"
        assert str(excinfo.value) == expected


def ranked_entries(stream: list, cap: int) -> tuple:
    """The first ``cap`` (token, count) pairs of ``stream`` by descending
    count, ties by first occurrence: the table ``build_vocabulary`` makes."""
    counts = Counter(stream)
    ranked = sorted(counts, key=lambda t: (-counts[t], stream.index(t)))[:cap]
    return tuple((t, counts[t]) for t in ranked)


def outcome(build):
    """The table ``build()`` returns, or its exception's type and message."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestBuiltTableEqualsTheCheckedOne:
    """``build_vocabulary`` skips the checks its ``Counter`` makes true and
    the token -> id dict until a lookup; its table is the one the checked
    constructor builds on the same counts, and a stream the constructor
    refuses raises the constructor's exception."""

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=60),
           st.integers(-7, 3), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_same_table_and_ids(self, stream, below, lowercase):
        distinct = len(set(stream))
        cap = max(1, distinct + below)  # below, at and above the distinct count
        built = build_vocabulary(iter(stream), cap=cap, lowercase=lowercase)
        checked = tokenizer.Vocabulary(entries=ranked_entries(stream, cap), cap=cap,
                                       lowercase=lowercase)
        assert built.tokens == checked.tokens and built.freqs == checked.freqs
        assert built == checked and hash(built) == hash(checked)
        assert repr(built) == repr(checked)
        assert built.digest() == checked.digest()
        for token in [*checked.tokens, "absent"]:
            assert built.id_of(token) == checked.id_of(token)

    @pytest.mark.parametrize("stream", [
        ["a", "", "b"], ["a", 0, "a"], [None], ["a", 5], ["a", b"b"], [5, ""],
        [0.0, "a b"],
        *([f"a{space}b", "c"] for space in WHITESPACE),
        *([space] for space in WHITESPACE),
    ], ids=repr)
    def test_a_faulty_stream_raises_what_the_constructor_raises(self, stream):
        entries = ranked_entries(stream, cap=10)
        expected = outcome(lambda: tokenizer.Vocabulary(entries=entries, cap=10))
        assert isinstance(expected, tuple)
        assert outcome(lambda: build_vocabulary(iter(stream), cap=10)) == expected

    def test_faulty_streams_name_the_fault(self):
        # a broken entry raises a ValueError that also holds the entry's index
        fault = tokenizer._EntryFault
        for stream, expected in [
                (["a", "", "b"], (fault, "empty token in vocabulary")),
                (["a", 0, "a"], (fault, "empty token in vocabulary")),
                (["a", 5], (TypeError, "sequence item 1: expected str instance, int found")),
                *((["a", f"b{space}c"], (fault, f"token {'b' + space + 'c'!r} "
                                         "contains whitespace")) for space in WHITESPACE)]:
            assert outcome(lambda: build_vocabulary(iter(stream), cap=10)) == expected
            if expected[0] is fault:
                with pytest.raises(fault) as excinfo:
                    build_vocabulary(iter(stream), cap=10)
                assert excinfo.value.entry == 1

    def test_the_whitespace_check_is_str_isspace(self):
        # over every code point: none of the others splits a token, and
        # each of the spaces does, alone or inside one
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert set(WHITESPACE) <= set(spaces)
        others = "".join(chr(c) for c in range(0x110000) if not chr(c).isspace())
        assert tokenizer._plain([others, "a"])
        for space in spaces:
            assert not tokenizer._plain(["a", space]) and not tokenizer._plain([f"a{space}b"])

    def test_the_index_is_made_on_the_first_lookup(self):
        stream = "the court held that the court may hear the appeal".split()
        built = build_vocabulary(iter(stream), cap=5)
        checked = tokenizer.Vocabulary(entries=ranked_entries(stream, 5), cap=5)
        assert built._index is None and checked._index is not None
        doc = ["the", "appeal", "court", "held", "nowhere", "the"]
        ids = encode(doc, built, max_len=8).ids
        assert ids.tolist() == [checked.id_of(t) for t in doc]
        assert built._index == checked._index
        index = built._index
        assert built.id_of("court") == 3 and built._index is index  # made once

    def test_a_loaded_table_is_indexed(self, tmp_path):
        path = tmp_path / "vocab.txt"
        save_vocabulary(build_vocabulary(iter("abcab"), cap=5), path)
        loaded = load_vocabulary(path)
        assert loaded._index == {"a": 2, "b": 3, "c": 4}


@pytest.fixture(scope="module")
def vocabulary_file(tmp_path_factory):
    """A valid vocabulary file with accents and a bridged citation token,
    and a scratch path for damaged variants."""
    vocab = build_vocabulary(iter(["acórdão", "8.112/90", "re", "re", "lei", "lei",
                                   "lei", "x"]), cap=10)
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    save_vocabulary(vocab, path)
    return path.read_bytes(), path.with_name("variant.txt")


@pytest.fixture(scope="module")
def case_preserving_file(tmp_path_factory):
    """A valid case-preserving vocabulary file, and a scratch path."""
    vocab = build_vocabulary(iter(["Acórdão", "8.112/90", "RE", "RE", "lei"]),
                             cap=10, lowercase=False)
    path = tmp_path_factory.mktemp("vocab") / "vocab.txt"
    save_vocabulary(vocab, path)
    return path.read_bytes(), path.with_name("variant.txt")


class TestVocabularyFileFuzz:
    """A damaged vocabulary file either loads or raises DataError."""

    def test_every_truncation_and_bit_flip(self, vocabulary_file):
        blob, path = vocabulary_file
        check_every_truncation_and_bit_flip(load_vocabulary, path, blob)

    def test_every_truncation_and_bit_flip_of_a_case_preserving_file(
            self, case_preserving_file):
        blob, path = case_preserving_file
        check_every_truncation_and_bit_flip(load_vocabulary, path, blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, vocabulary_file, data):
        blob, path = vocabulary_file
        load_variant(load_vocabulary, path, damaged(blob, data))


def reference_load_vocabulary(path) -> tokenizer.Vocabulary:
    """The per-line loader that the column parse replaced: the reference
    for what ``load_vocabulary`` accepts and for each message it raises."""
    lines = "".join(utf8_lines(path)).splitlines()
    if not lines or not lines[0].startswith("#vocab "):
        raise DataError(f"{path}: not a vocabulary file")
    header = lines[0]
    if not header.startswith("#vocab v1 "):
        raise DataError(f"{path}: unsupported vocabulary version: {header!r}")
    fields = dict(part.partition("=")[::2] for part in header[len("#vocab v1"):].split())
    try:
        size = int(fields.pop("size"))
        cap = int(fields.pop("cap"))
    except (KeyError, ValueError):
        raise DataError(f"{path}: malformed vocabulary header: {header!r}") from None
    if fields not in ({}, {"lowercase": "false"}):
        raise DataError(f"{path}: malformed vocabulary header: {header!r}")

    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected token<TAB>id<TAB>frequency")
        token, id_str, freq_str = parts
        try:
            token_id = int(id_str)
            freq = int(freq_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer id or frequency") from None
        if token in seen:
            raise DataError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        expected = len(entries) + 2
        if token_id != expected:
            raise DataError(
                f"{path}:{lineno}: non-contiguous id {token_id} (expected {expected})"
            )
        entries.append((token, freq))
    if len(entries) != size:
        raise DataError(
            f"{path}: header declares size={size} but file has {len(entries)} rows"
        )
    if not entries:
        raise DataError(f"{path}: vocabulary has no tokens")
    try:
        return tokenizer.Vocabulary(entries=tuple(entries), cap=cap,
                                    lowercase="lowercase" not in fields)
    except ValueError as exc:  # a broken entry names its line; the cap, the file
        entry = getattr(exc, "entry", None)
        line = "" if entry is None else f":{entry + 2}"
        raise DataError(f"{path}{line}: {exc}") from None


def load_outcome(loader, path, blob: bytes):
    """Write ``blob`` to ``path`` and load it: the table and its digest,
    or the DataError's message."""
    path.write_bytes(blob)
    try:
        vocab = loader(path)
    except DataError as exc:
        return str(exc)
    return vocab, vocab.digest()


def variants(blob: bytes):
    """Every prefix of ``blob`` and every single-bit flip of it."""
    yield from (blob[:end] for end in range(len(blob)))
    yield from (flip_bit(blob, bit) for bit in range(8 * len(blob)))


class TestColumnParseEqualsTheLineLoop:
    """``load_vocabulary`` accepts what the per-line loader accepted, with
    the same table and digest, and refuses the rest with its message."""

    @pytest.mark.parametrize("fixture", ["vocabulary_file", "case_preserving_file"])
    def test_every_truncation_and_bit_flip(self, request, fixture):
        blob, path = request.getfixturevalue(fixture)
        for variant in variants(blob):
            assert (load_outcome(load_vocabulary, path, variant)
                    == load_outcome(reference_load_vocabulary, path, variant)), variant

    @pytest.mark.parametrize("body", [
        "a\t2\t5\tb\n3\t4\n",  # its six cells read as two good rows
        "a\t2\t5\nb\t3\t4\na\t4\t1\n",
        "a\t2\t5\nb\t4\t4\n",
        "a\t2\t5\nb\t3\tx\n",
        "a\t2\t5\nb\t3\t4\t\n",
        "a\t2\t5\n\n",
    ], ids=["three-tabs-then-one", "repeated-token", "skipped-id",
            "non-integer-frequency", "trailing-tab", "blank-line"])
    def test_row_faults(self, tmp_path, body):
        blob = f"#vocab v1 size=2 cap=5\n{body}".encode("utf-8")
        path = tmp_path / "vocab.txt"
        expected = load_outcome(reference_load_vocabulary, path, blob)
        assert isinstance(expected, str)
        assert load_outcome(load_vocabulary, path, blob) == expected


# Tokens that are valid in a table: no whitespace (which includes every
# line and field separator) and no lone surrogate, which UTF-8 cannot hold.
TOKENS = st.text(st.characters(exclude_categories=("Cs",)), min_size=1,
                 max_size=6).filter(lambda t: not any(c.isspace() for c in t))


@st.composite
def tables(draw) -> tokenizer.Vocabulary:
    tokens = draw(st.lists(TOKENS, min_size=1, max_size=8, unique=True))
    freqs = sorted(draw(st.lists(st.integers(-20, 10**12), min_size=len(tokens),
                                 max_size=len(tokens))), reverse=True)
    return tokenizer.Vocabulary(zip(tokens, freqs),
                                cap=len(tokens) + draw(st.integers(0, 3)),
                                lowercase=draw(st.booleans()))


def _zero_padded(number: str) -> str:
    return number[:number.startswith("-")] + "00" + number.lstrip("-")


def _in_rows(row_edit):
    """A variant that edits each row's (token, id, frequency) strings."""
    def edit(text: str) -> str:
        header, *rows = text.split("\n")[:-1]
        rows = ["\t".join(row_edit(*row.split("\t"))) for row in rows]
        return "\n".join([header, *rows]) + "\n"
    return edit


# The forms the loader accepts besides the canonical one.
FILE_VARIANTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "plus-id": _in_rows(lambda token, id_, freq: (token, "+" + id_, freq)),
    "zero-padded-frequency": _in_rows(lambda token, id_, freq:
                                      (token, id_, _zero_padded(freq))),
    "no-final-newline": lambda text: text[:-1],
    "header-spacing": lambda text: text.replace(" size=", "  size=", 1),
}


class TestLoadedDigest:
    """A loaded table's digest is the SHA-256 of its canonical rendering,
    whatever form of the file it was read from."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("digest") / "vocab.txt"

    @settings(max_examples=150, deadline=None)
    @given(tables(), st.sampled_from([None, *FILE_VARIANTS]))
    def test_digest_of_the_rendering(self, path, vocab, variant):
        text = rendering(vocab)
        if variant is not None:
            text = FILE_VARIANTS[variant](text)
            assert text != rendering(vocab)
        path.write_bytes(text.encode("utf-8"))
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.digest() == hashlib.sha256(
            rendering(vocab).encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("lowercase", [True, False])
    def test_a_canonical_file_is_not_rendered(self, tmp_path, monkeypatch, lowercase):
        tokens = [f"t{k}" for k in range(1000)]
        vocab = tokenizer.Vocabulary(zip(tokens, range(1000, 0, -1)),
                                     cap=2000, lowercase=lowercase)
        path = tmp_path / "vocab.txt"
        save_vocabulary(vocab, path)
        expected = vocab.digest()

        def no_render(vocab):
            raise AssertionError("rendered a table read from a canonical file")

        monkeypatch.setattr(tokenizer, "_render_chunks", no_render)
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.digest() == expected == hashlib.sha256(path.read_bytes()).hexdigest()


class TestSaveVocabulary:
    @pytest.mark.parametrize("failure", ["unencodable-token", "fsync"])
    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "vocab.txt"
        save_vocabulary(build_vocabulary(iter("aab"), cap=5), path)
        before = path.read_bytes()
        if failure == "fsync":
            def failing_fsync(fd):
                raise OSError("disk full")

            monkeypatch.setattr(os, "fsync", failing_fsync)
            vocab, error = build_vocabulary(iter("xyz"), cap=5), OSError
        else:  # UTF-8 cannot hold a lone surrogate
            vocab, error = tokenizer.Vocabulary((("a\ud800", 1),), cap=5), UnicodeEncodeError
        with pytest.raises(error):
            save_vocabulary(vocab, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt"]
