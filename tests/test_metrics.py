import csv
import hashlib
import io
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexseq.corpus import DEFAULT_LABELS
from lexseq.metrics import EvaluationReport, aggregate, evaluation_report, f1_score

# Reference per-class results this engine must reproduce arithmetically:
# rows ARE, Acórdão, Despacho, Outro, RE, Sentença.
REFERENCE_PRECISION = [0.82, 0.71, 0.74, 0.91, 0.77, 0.92]
REFERENCE_RECALL = [0.84, 0.89, 0.82, 0.82, 0.70, 0.95]
REFERENCE_F1 = [0.83, 0.79, 0.78, 0.87, 0.73, 0.93]
REFERENCE_SUPPORTS = [92, 82, 55, 280, 63, 110]


def names(classes):
    return tuple(f"c{i}" for i in range(classes))


class TestConfusion:
    def test_diagonal(self):
        m = evaluation_report([(0, 0), (1, 1)], names(2))
        npt.assert_array_equal(m.counts, [[1, 0], [0, 1]])

    def test_single_off_diagonal(self):
        m = evaluation_report([(0, 1)], names(2))
        npt.assert_array_equal(m.counts, [[0, 1], [0, 0]])

    def test_empty(self):
        m = evaluation_report([], names(3))
        npt.assert_array_equal(m.counts, np.zeros((3, 3)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            evaluation_report([(0, 5)], names(2))


class TestPerClassMetrics:
    def test_reference_row_f1(self):
        # precision 0.82, recall 0.84 -> F1 ~ 0.83
        assert abs(f1_score(0.82, 0.84) - 0.83) < 0.005

    def test_hand_matrix(self):
        m = np.array([[2, 1], [0, 3]], dtype=np.int64)
        precision, recall, f1 = EvaluationReport(m, names(2)).per_class()
        npt.assert_allclose(precision, [1.0, 0.75])
        npt.assert_allclose(recall, [2 / 3, 1.0])
        npt.assert_allclose(f1, [0.8, 6 / 7])

    def test_absent_class_zero_by_convention(self):
        m = np.array([[3, 0, 0], [1, 2, 0], [0, 0, 0]], dtype=np.int64)
        precision, recall, f1 = EvaluationReport(m, names(3)).per_class()
        assert precision[2] == recall[2] == f1[2] == 0.0


class TestAggregate:
    def test_weighted_reproduces_reference_average_row(self):
        per_class = (
            np.array(REFERENCE_PRECISION),
            np.array(REFERENCE_RECALL),
            np.array(REFERENCE_F1),
        )
        p, r, f1 = aggregate(per_class, np.array(REFERENCE_SUPPORTS), "weighted")
        assert abs(p - 0.85) < 0.005
        assert abs(r - 0.84) < 0.005
        assert abs(f1 - 0.84) < 0.005

    def test_macro_differs_from_weighted_on_reference_values(self):
        per_class = (
            np.array(REFERENCE_PRECISION),
            np.array(REFERENCE_RECALL),
            np.array(REFERENCE_F1),
        )
        p, _, _ = aggregate(per_class, np.array(REFERENCE_SUPPORTS), "macro")
        assert abs(p - 0.8117) < 0.001  # unweighted mean, not the reference 0.85
        assert abs(p - 0.85) > 0.03

    def test_identical_rows_agree_in_both_modes(self):
        per_class = (np.full(4, 0.6), np.full(4, 0.6), np.full(4, 0.6))
        supports = np.array([1, 5, 9, 2])
        assert aggregate(per_class, supports, "macro") == (0.6, 0.6, 0.6)
        macro = aggregate(per_class, supports, "weighted")
        npt.assert_allclose(macro, (0.6, 0.6, 0.6))

    def test_weighted_needs_positive_support(self):
        per_class = (np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            aggregate(per_class, np.zeros(2, dtype=np.int64), "weighted")


@st.composite
def random_pairs(draw):
    classes = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=0, max_value=60))
    pairs = [
        (draw(st.integers(0, classes - 1)), draw(st.integers(0, classes - 1)))
        for _ in range(n)
    ]
    return classes, pairs


class TestProperties:
    @given(random_pairs())
    @settings(max_examples=150, deadline=None)
    def test_matrix_metrics_equal_brute_force_from_pairs(self, case):
        classes, pairs = case
        m = evaluation_report(pairs, names(classes))
        precision, recall, f1 = m.per_class()
        for c in range(classes):
            tp = sum(1 for t, p in pairs if t == c and p == c)
            fp = sum(1 for t, p in pairs if t != c and p == c)
            fn = sum(1 for t, p in pairs if t == c and p != c)
            exp_p = tp / (tp + fp) if tp + fp else 0.0
            exp_r = tp / (tp + fn) if tp + fn else 0.0
            assert precision[c] == pytest.approx(exp_p)
            assert recall[c] == pytest.approx(exp_r)
            exp_f1 = 2 * exp_p * exp_r / (exp_p + exp_r) if exp_p + exp_r else 0.0
            assert f1[c] == pytest.approx(exp_f1)

    @given(random_pairs())
    @settings(max_examples=100, deadline=None)
    def test_micro_accuracy_is_trace_over_total(self, case):
        classes, pairs = case
        m = evaluation_report(pairs, names(classes))
        if pairs:
            expected = sum(1 for t, p in pairs if t == p) / len(pairs)
            assert m.accuracy == pytest.approx(expected)
        else:
            assert m.accuracy == 0.0

    @given(random_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_class_permutation_equivariance(self, case, rnd):
        classes, pairs = case
        perm = list(range(classes))
        rnd.shuffle(perm)
        permuted = [(perm[t], perm[p]) for t, p in pairs]
        report = evaluation_report(pairs, names(classes))
        report_moved = evaluation_report(permuted, names(classes))
        base, moved = report.per_class(), report_moved.per_class()
        for col_base, col_moved in zip(base, moved):
            for c in range(classes):
                assert col_moved[perm[c]] == pytest.approx(col_base[c])
        supports = report.counts.sum(axis=1)
        supports_moved = report_moved.counts.sum(axis=1)
        if supports.sum() > 0:
            npt.assert_allclose(
                aggregate(base, supports, "weighted"),
                aggregate(moved, supports_moved, "weighted"),
            )
        npt.assert_allclose(
            aggregate(base, supports, "macro"),
            aggregate(moved, supports_moved, "macro"),
        )

    @given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_f1_between_precision_and_recall(self, p, r):
        f1 = f1_score(p, r)
        assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12

    def test_diagonal_matrix_perfect_metrics(self):
        m = np.diag([5, 0, 3]).astype(np.int64)
        precision, recall, f1 = EvaluationReport(m, names(3)).per_class()
        for c, support in enumerate([5, 0, 3]):
            if support > 0:
                assert precision[c] == recall[c] == f1[c] == 1.0


class TestEvaluationReport:
    @pytest.mark.parametrize("counts, labels", [
        (np.zeros((3, 3), dtype=np.int64), ("a", "b")),  # a label short
        (np.zeros((2, 3), dtype=np.int64), ("a", "b")),
        (np.zeros(2, dtype=np.int64), ("a", "b")),
        (np.array([[1, -1], [0, 2]], dtype=np.int64), ("a", "b")),
    ])
    def test_counts_must_be_square_non_negative_one_row_per_label(self, counts, labels):
        with pytest.raises(ValueError, match="confusion matrix"):
            EvaluationReport(counts, labels)

    @pytest.mark.parametrize("pairs, labels, equal", [
        ([(0, 0)], ("a", "b"), True),
        ([(0, 1)], ("a", "b"), False),
        ([(0, 0)], ("a", "c"), False),
    ], ids=["equal", "counts", "labels"])
    def test_equality_compares_labels_and_counts(self, pairs, labels, equal):
        report = evaluation_report([(0, 0)], ("a", "b"))
        other = evaluation_report(pairs, labels)
        assert (report == other) is equal
        assert (report != other) is not equal

    def test_report_structure(self):
        report = evaluation_report([(0, 0), (1, 0), (1, 1)], ("x", "y"))
        payload = report.to_dict()
        assert payload["total"] == 3
        assert payload["accuracy"] == pytest.approx(2 / 3)
        assert payload["matrix"] == [[1, 0], [1, 1]]
        assert [row["support"] for row in payload["per_class"]] == [1, 2]
        assert set(payload["weighted"]) == {"precision", "recall", "f1"}

    def test_matrix_csv_layout(self):
        report = evaluation_report([(0, 1), (1, 1)], ("a", "b"))
        lines = report.matrix_csv().strip().split("\n")
        assert lines[0] == ",a,b"
        assert lines[1] == "a,0,1"
        assert lines[2] == "b,0,1"

    def test_matrix_csv_quotes_labels(self):
        labels = ("Agravo, interno", 'Voto "vencido"', "RE")
        report = evaluation_report([(0, 1), (1, 1), (2, 0)], labels)
        rows = list(csv.reader(io.StringIO(report.matrix_csv())))
        assert rows == [["", *labels],
                        [labels[0], "0", "1", "0"],
                        [labels[1], "0", "1", "0"],
                        [labels[2], "1", "0", "0"]]
        assert report.matrix_csv().splitlines()[0] == ',"Agravo, interno","Voto ""vencido""",RE'


class TestReportBytes:
    """The exact report files: a refactor of the report must not move a byte."""

    CASES = {
        # class 2 is never predicted, class 3 never occurs
        "absent": (
            [(0, 0), (0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (1, 3), (0, 3)],
            ("ARE", "RE", "Outro", "Sentença"),
            "84f754004143bca5091890083b748d0c56d6c339a40a51b4211db9ea1aaeb6a7",
            ",ARE,RE,Outro,Sentença\nARE,2,1,0,1\nRE,1,1,0,1\n"
            "Outro,1,1,0,0\nSentença,0,0,0,0\n",
        ),
        "empty": (
            [],
            ("a", "b", "c"),
            "1554e3d8fe7d7fd95bc431d3217390770d034d384bb412859caa60be25feeffc",
            ",a,b,c\na,0,0,0\nb,0,0,0\nc,0,0,0\n",
        ),
        "reference": (
            [(t, (t * t + k) % 6) for t in range(6) for k in range(t + 2)],
            DEFAULT_LABELS,
            "341daa0f2c4997b1d1da5cf808b7aaca4fb9d19ae6c3bad101e23ae1e2ab4c99",
            ",ARE,Acórdão,Despacho,Outro,RE,Sentença\nARE,1,1,0,0,0,0\n"
            "Acórdão,0,1,1,1,0,0\nDespacho,1,1,0,0,1,1\nOutro,1,1,0,1,1,1\n"
            "RE,1,1,1,1,1,1\nSentença,1,2,1,1,1,1\n",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_json_and_csv_bytes(self, case, tmp_path):
        pairs, labels, json_sha256, csv = self.CASES[case]
        report = evaluation_report(pairs, labels)
        report.save_json(tmp_path / "report.json")
        report.save_matrix_csv(tmp_path / "matrix.csv")
        data = (tmp_path / "report.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == json_sha256, data.decode()
        payload = json.loads(data)
        assert report.accuracy == payload["accuracy"]
        assert report.weighted == tuple(payload["weighted"][k]
                                        for k in ("precision", "recall", "f1"))
        assert report.matrix_csv() == csv
        assert (tmp_path / "matrix.csv").read_bytes() == csv.encode()
