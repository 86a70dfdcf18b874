import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (check_every_truncation_and_bit_flip, damaged, load_variant,
                      save_dataset)

from lexseq.corpus import (
    DEFAULT_LABELS,
    Document,
    LabelSet,
    load_dataset,
    stratified_split,
)
from lexseq.errors import DataError


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


class TestLabelSet:
    def test_default_order(self):
        labels = LabelSet(DEFAULT_LABELS)
        assert labels.labels == DEFAULT_LABELS
        assert labels.size == 6
        assert labels.index_of("Despacho") == 2

    def test_rejects_duplicates_and_tiny_sets(self):
        with pytest.raises(ValueError):
            LabelSet(("a", "a"))
        with pytest.raises(ValueError):
            LabelSet(("only",))

    def test_unknown_label_is_named(self):
        with pytest.raises(DataError, match="Embargos"):
            LabelSet(DEFAULT_LABELS).index_of("Embargos")

    def test_from_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("x\ny\nz\n", encoding="utf-8")
        assert LabelSet.from_file(path).labels == ("x", "y", "z")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_from_file_with_any_line_end(self, tmp_path, end):
        path = tmp_path / "labels.txt"
        path.write_bytes(end.join(["x", " y ", "", "z"]).encode("utf-8"))
        assert LabelSet.from_file(path).labels == ("x", "y", "z")

    def test_labels_must_be_strings(self):
        with pytest.raises(ValueError, match="non-empty strings"):
            LabelSet((1, 2))

    @pytest.mark.parametrize("text, rule", [
        ("", "at least 2"), ("\n \n", "at least 2"), ("solo\n", "at least 2"),
        ("a\nb\na\n", "duplicate"),
    ], ids=["empty", "blank", "one-label", "duplicate"])
    def test_file_breaking_a_label_rule_is_a_data_error_naming_it(self, tmp_path,
                                                                 text, rule):
        path = tmp_path / "labels.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=rf"labels file {path}: .*{rule}"):
            LabelSet.from_file(path)

    @pytest.mark.parametrize("loader", [LabelSet.from_file,
                                        lambda path: load_dataset(path, None)],
                             ids=["labels", "dataset"])
    def test_unreadable_input_is_a_data_error_naming_it(self, tmp_path, loader):
        with pytest.raises(DataError, match=f"does not exist: {tmp_path / 'x'}$"):
            loader(tmp_path / "x")
        with pytest.raises(DataError, match=f"cannot read input path {tmp_path}: "):
            loader(tmp_path)


class TestLoadDataset:
    def test_three_wellformed_lines(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [
            {"id": "a", "text": "um", "label": "ARE"},
            {"id": "b", "text": "dois", "label": "Sentença"},
            {"id": "c", "text": "três"},
        ])
        docs = load_dataset(path, LabelSet(DEFAULT_LABELS))
        assert [d.id for d in docs] == ["a", "b", "c"]
        assert [d.label for d in docs] == [0, 5, None]

    def test_unknown_label_names_the_label(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "text": "t", "label": "Embargos"}])
        with pytest.raises(DataError, match="Embargos"):
            load_dataset(path, LabelSet(DEFAULT_LABELS))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path, LabelSet(DEFAULT_LABELS)) == []

    @pytest.mark.parametrize("body, message", [
        ('{"id": "a", "text": "t"}\n\n', ":2: blank line in dataset"),
        ('{"id": "a", "text": "t"}\n  \t\n', ":2: blank line in dataset"),
        ('{"id": "a", "text": "t"}\n{oops\n',
         ":2: malformed JSON: Expecting property name enclosed in double quotes"),
        ('{"id": "a", "text": "t"}\n[1] x\n', ":2: malformed JSON: Extra data"),
    ], ids=["empty", "spaces", "bad-key", "extra-data"])
    def test_line_faults_are_named_word_for_word(self, tmp_path, body, message):
        path = tmp_path / "lines.jsonl"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_dataset(path, None)
        assert str(excinfo.value) == f"{path}{message}"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text": "t"}\n{oops\n', encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_dataset(path, LabelSet(DEFAULT_LABELS))

    @pytest.mark.parametrize("line", [
        '{"id": "a", "text": "t", "n": ' + "1" * 5000 + "}",
        "[" * 100_000,
    ], ids=["int-of-5000-digits", "nested-100000-deep"])
    def test_json_the_parser_refuses_is_malformed(self, tmp_path, line):
        path = tmp_path / "data.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1: malformed JSON"):
            load_dataset(path, None)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
        with pytest.raises(DataError, match="duplicate id"):
            load_dataset(path, None)

    def test_labels_none_ignores_label_strings(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"id": "a", "text": "x", "label": "whatever"}])
        docs = load_dataset(path, None)
        assert docs[0].label is None

    def test_roundtrip_through_save(self, tmp_path):
        labels = LabelSet(DEFAULT_LABELS)
        docs = [Document("a", "um texto", 3), Document("b", "outro", None)]
        path = tmp_path / "out.jsonl"
        save_dataset(docs, labels, path)
        assert load_dataset(path, labels) == docs


@pytest.fixture(scope="module")
def dataset_file(tmp_path_factory):
    """A valid labeled dataset, and a scratch path for damaged variants."""
    path = tmp_path_factory.mktemp("dataset") / "data.jsonl"
    write_jsonl(path, [
        {"id": "a1", "text": "Recurso extraordinário 8.112/90", "label": "RE"},
        {"id": "b2", "text": "Acórdão da turma", "label": "Acórdão"},
        {"id": "c3", "text": "sem rótulo"},
    ])
    return path.read_bytes(), path.with_name("variant.jsonl")


class TestDatasetFuzz:
    """A damaged dataset either loads or raises DataError, with and without
    a label set."""

    @pytest.mark.parametrize("labels", [LabelSet(DEFAULT_LABELS), None], ids=["labels", "none"])
    def test_every_truncation_and_bit_flip(self, dataset_file, labels):
        blob, path = dataset_file
        check_every_truncation_and_bit_flip(lambda p: load_dataset(p, labels), path, blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, dataset_file, data):
        blob, path = dataset_file
        load_variant(lambda p: load_dataset(p, LabelSet(DEFAULT_LABELS)), path,
                     damaged(blob, data))


def docs_one_class(n, cls=0):
    return [Document(id=f"d{i:04d}", text="t", label=cls) for i in range(n)]


class TestStratifiedSplit:
    def test_exact_division(self):
        split = stratified_split(docs_one_class(10), (0.7, 0.2, 0.1), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (7, 2, 1)

    def test_floor_floor_remainder(self):
        # 82 docs: floors 57.4 -> 57 and 16.4 -> 16, remainder 9 to test
        split = stratified_split(docs_one_class(82), (0.7, 0.2, 0.1), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (57, 16, 9)

    def test_same_seed_identical(self):
        docs = docs_one_class(40) + docs_one_class(25, cls=1)
        docs = [Document(d.id + str(d.label), d.text, d.label) for d in docs]
        a = stratified_split(docs, (0.7, 0.2, 0.1), seed=9)
        b = stratified_split(docs, (0.7, 0.2, 0.1), seed=9)
        assert a == b

    def test_membership_independent_of_input_order(self):
        docs = [Document(f"d{i}", "t", i % 3) for i in range(60)]
        a = stratified_split(docs, (0.7, 0.2, 0.1), seed=4)
        b = stratified_split(list(reversed(docs)), (0.7, 0.2, 0.1), seed=4)
        assert {d.id for d in a.train} == {d.id for d in b.train}
        assert {d.id for d in a.test} == {d.id for d in b.test}

    def test_unlabeled_document_rejected(self):
        docs = docs_one_class(5) + [Document("u", "t", None)]
        with pytest.raises(DataError, match="unlabeled"):
            stratified_split(docs, (0.7, 0.2, 0.1), seed=0)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            stratified_split([], (0.7, 0.2, 0.1), seed=0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(docs_one_class(5), (0.5, 0.2, 0.1), seed=0)

    @pytest.mark.parametrize("ratios, message", [
        ((math.nan, 0.5, 0.5), "ratios must be three non-negative fractions"),
        ((0.5, 0.5, math.nan), "ratios must be three non-negative fractions"),
        ((math.inf, -math.inf, 1.0), "ratios must be three non-negative fractions"),
        ((math.inf, 0.5, 0.5), "ratios must sum to 1, got inf"),
    ], ids=["nan-first", "nan-last", "minus-inf", "inf"])
    def test_nan_and_inf_ratios_get_the_ratio_message(self, ratios, message):
        with pytest.raises(ValueError) as excinfo:
            stratified_split(docs_one_class(10), ratios, seed=0)
        assert str(excinfo.value) == message

    @given(
        class_sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2 ** 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, class_sizes, seed):
        docs = []
        for cls, n in enumerate(class_sizes):
            docs.extend(Document(f"c{cls}-{i}", "t", cls) for i in range(n))
        split = stratified_split(docs, (0.7, 0.2, 0.1), seed=seed)
        ids = [d.id for part in (split.train, split.validation, split.test) for d in part]
        assert len(ids) == len(set(ids)) == len(docs)
        assert set(ids) == {d.id for d in docs}
        # per-class counts follow the rounding rule
        for cls, n in enumerate(class_sizes):
            n_train = sum(1 for d in split.train if d.label == cls)
            n_val = sum(1 for d in split.validation if d.label == cls)
            n_test = sum(1 for d in split.test if d.label == cls)
            assert n_train == math.floor(n * 0.7)
            assert n_val == math.floor(n * 0.2)
            assert n_test == n - n_train - n_val

    def test_seed_changes_membership_not_sizes(self):
        docs = [Document(f"d{i}", "t", i % 2) for i in range(37)]
        a = stratified_split(docs, (0.7, 0.2, 0.1), seed=1)
        b = stratified_split(docs, (0.7, 0.2, 0.1), seed=2)
        assert len(a.train) == len(b.train)
        assert len(a.validation) == len(b.validation)
        assert len(a.test) == len(b.test)
        assert {d.id for d in a.train} != {d.id for d in b.train}

