import copy
import math
import os
import pickle
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_gradient_check_error,
    dense_norm,
    dense_scale,
    dense_zero,
    gradient_check_error,
    overflow_head,
    random_tiny_model,
    swapped_directions,
    traced_peak,
)

from lexseq import nn
from lexseq.errors import DataError, NumericError
from lexseq.rng import SplitMix64
from lexseq.tokenizer import EncodedSequence
from lexseq.trainer import GROUP_DOCS, map_forward


def tiny_dims(**kw):
    base = dict(vocab_rows=12, embed_dim=4, hidden=3, classes=3, max_len=8)
    base.update(kw)
    return nn.ModelDims(**base)


def row_mask(dims, rows):
    """A mask of the embedding rows ``rows``, as ``Gradients.rows`` holds."""
    mask = np.zeros(dims.vocab_rows, bool)
    mask[rows] = True
    return mask


def zeroed_model(dims, activation="relu"):
    model = nn.init_parameters(dims, seed=0, activation=activation)
    for arr in model.params.arrays():
        arr[...] = 0
    return model


class TestLstmStep:
    """One recurrence step: forward on a length-1 sequence."""

    def test_zero_parameters_force_zero_state(self):
        model = zeroed_model(tiny_dims())
        seq = EncodedSequence(ids=np.array([5, 0, 0, 0, 0, 0, 0, 0]), length=1)
        _, trace = nn.forward([seq], model)
        npt.assert_array_equal(trace.h, 0)
        npt.assert_array_equal(trace.c, 0)

    def test_scalar_hand_case(self):
        # hidden=1, embed=1, all weights zero, candidate bias 1:
        # i = f = o = 0.5, g = relu(1) = 1 -> c = 0.5 * 1 = 0.5;
        # h = 0.5 * relu(0.5) = 0.25 in both directions
        dims = nn.ModelDims(vocab_rows=3, embed_dim=1, hidden=1, classes=2, max_len=1)
        model = zeroed_model(dims)
        model.params.views["forward_dir.b"][2] = model.params.views["backward_dir.b"][2] = 1.0
        seq = EncodedSequence(ids=np.array([2]), length=1)
        _, trace = nn.forward([seq], model)
        npt.assert_allclose(trace.c[trace.lead], [[0.5], [0.5]])
        npt.assert_allclose(trace.h[trace.lead], [[0.25], [0.25]])
        npt.assert_allclose(trace.merged, [[0.5]])

    def test_gradient_matches_finite_differences(self):
        # covered in depth by full-model checks; spot-check the step via them
        model, seq, target = random_tiny_model(3)
        assert gradient_check_error(model, seq, target) < 1e-6


def _sigmoid_reference(z):
    # the boolean-mask two-branch form that nn._sigmoid replaced
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_two_branch_reference(self, dtype):
        rng = np.random.default_rng(4)
        big = np.finfo(dtype).max
        z = np.concatenate([
            rng.normal(0.0, 8.0, 1_000_000).astype(dtype),
            np.array([0.0, -0.0, 88.7, -88.7, 1e4, -1e4, big, -big], dtype),
        ])
        with np.errstate(over="ignore"):
            expected = _sigmoid_reference(z)
        got = nn._sigmoid(z)
        assert got.dtype == dtype
        npt.assert_array_equal(got.view(f"u{z.itemsize}"),
                               expected.view(f"u{z.itemsize}"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_two_exp_form(self, dtype):
        # the two-exp form that the one-exp nn._sigmoid replaced
        def two_exp(z):
            return np.exp(np.minimum(z, 0)) / (1.0 + np.exp(-np.abs(z)))

        rng = np.random.default_rng(5)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 88.7, -88.7,
                            103.9, -103.9, 745.0, -745.0], dtype)
        special = np.append(special, -special[4])  # a NaN with its sign bit set
        z = np.concatenate([rng.normal(0.0, scale, 100_000).astype(dtype)
                            for scale in (1.0, 30.0, 1000.0)] + [special])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = two_exp(z)
            got = nn._sigmoid(z)
        assert got.dtype == dtype
        npt.assert_array_equal(got.view(f"u{z.itemsize}"),
                               expected.view(f"u{z.itemsize}"))
        assert np.isnan(got[-len(special):][np.isnan(special)]).all()


class TestForward:
    def test_zero_model_uniform_probs(self):
        model = zeroed_model(tiny_dims(classes=6))
        seq = EncodedSequence(ids=np.array([2, 3, 4, 0, 0, 0, 0, 0]), length=3)
        probs, trace = nn.forward([seq], model)
        npt.assert_allclose(probs[0], np.full(6, 1 / 6), rtol=1e-6)
        npt.assert_array_equal(trace.merged, 0)

    def test_padding_invariance_bit_identical(self):
        model = nn.init_parameters(tiny_dims(), seed=5)
        ids_short = np.array([3, 5, 7, 0, 0, 0, 0, 0])
        ids_long = np.concatenate([ids_short, np.zeros(6, dtype=ids_short.dtype)])
        p1, _ = nn.forward([EncodedSequence(ids=ids_short, length=3)], model)
        p2, _ = nn.forward([EncodedSequence(ids=ids_long, length=3)], model)
        npt.assert_array_equal(p1, p2)

    def test_reversal_with_parameter_swap(self):
        for seed in range(10):
            model = nn.init_parameters(tiny_dims(), seed=seed)
            swapped = swapped_directions(model)
            rng = SplitMix64(seed)
            ids = np.zeros(8, dtype=np.int64)
            length = 1 + rng.next_below(8)
            for i in range(length):
                ids[i] = 1 + rng.next_below(11)
            rev = np.zeros(8, dtype=np.int64)
            rev[:length] = ids[:length][::-1]
            _, t1 = nn.forward([EncodedSequence(ids=ids, length=length)], model)
            _, t2 = nn.forward([EncodedSequence(ids=rev, length=length)], swapped)
            assert np.abs(t1.merged - t2.merged).max() < 1e-6

    def test_empty_sequence_rejected(self):
        model = zeroed_model(tiny_dims())
        seq = EncodedSequence(ids=np.zeros(8, dtype=np.int64), length=0)
        with pytest.raises(DataError, match="empty"):
            nn.forward([seq], model)

    def test_out_of_range_id_rejected(self):
        model = zeroed_model(tiny_dims(vocab_rows=12))
        seq = EncodedSequence(ids=np.array([99, 0, 0, 0, 0, 0, 0, 0]), length=1)
        with pytest.raises(DataError):
            nn.forward([seq], model)

    def test_forward_is_pure(self):
        model = nn.init_parameters(tiny_dims(), seed=2)
        seq = EncodedSequence(ids=np.array([4, 5, 6, 7, 0, 0, 0, 0]), length=4)
        p1, _ = nn.forward([seq], model)
        p2, _ = nn.forward([seq], model)
        npt.assert_array_equal(p1, p2)

    def test_softmax_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            logits = rng.uniform(-6, 6, size=6).astype(np.float32)
            probs = nn.softmax(logits)
            assert abs(float(probs.sum()) - 1.0) < 1e-5
            assert np.all(probs > 0) and np.all(probs < 1)
        # far-apart logits still sum to 1 and never go negative
        extreme = nn.softmax(np.array([80.0, -80.0, 0.0], dtype=np.float32))
        assert abs(float(extreme.sum()) - 1.0) < 1e-5
        assert np.all(extreme >= 0)


class TestLoss:
    def test_uniform_probs_give_log6(self):
        probs = np.full(6, 1 / 6)
        assert math.isclose(nn.loss(probs, 2), math.log(6), rel_tol=1e-9)

    def test_perfect_prediction_zero_loss(self):
        probs = np.zeros(6)
        probs[4] = 1.0
        assert nn.loss(probs, 4) == 0.0

    def test_floor_at_1e12(self):
        probs = np.zeros(4)
        probs[0] = 1.0
        assert math.isclose(nn.loss(probs, 1), -math.log(1e-12), rel_tol=1e-9)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            nn.loss(np.full(6, 1 / 6), 6)

    def test_non_simplex_rejected(self):
        with pytest.raises(ValueError):
            nn.loss(np.full(6, 0.5), 0)

    @pytest.mark.parametrize("probs", [[np.nan] * 3, [np.nan, 0.5, 0.5], [1.0, 0.0, np.nan]])
    def test_nan_rejected(self, probs):
        with pytest.raises(ValueError, match="probs are not on the simplex"):
            nn.loss(np.array(probs, np.float32), 0)


class TestBackward:
    def test_logit_gradient_identity(self):
        model = zeroed_model(tiny_dims(classes=2))
        seq = EncodedSequence(ids=np.array([2, 0, 0, 0, 0, 0, 0, 0]), length=1)
        probs, trace = nn.forward([seq], model)
        npt.assert_allclose(probs[0], [0.5, 0.5])
        grads = nn.backward(trace, [0])
        # dlogits = probs - onehot lands directly in the head bias gradient
        npt.assert_allclose(grads.views["head.b"], [-0.5, 0.5])

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_gradients_match_finite_differences(self, activation):
        dims = tiny_dims(max_len=6)
        for seed in range(5):
            model = nn.init_parameters(dims, seed=seed, activation=activation,
                                       dtype=np.float64)
            rng = SplitMix64(seed + 777)
            ids = np.array([1 + rng.next_below(11) for _ in range(6)])
            seq = EncodedSequence(ids=ids, length=6)
            assert gradient_check_error(model, seq, rng.next_below(3)) < 1e-6

    def test_32bit_gradients_track_64bit(self):
        # float32 FD cannot resolve 1e-3 directly (roundoff vs kink
        # crossings), so the 32-bit check compares against the 64-bit
        # gradients, themselves FD-verified above.
        for seed in (17, 23, 31):
            model64, seq, target = random_tiny_model(seed, dtype=np.float64)
            model32, _, _ = random_tiny_model(seed, dtype=np.float32)
            _, t64 = nn.forward([seq], model64)
            _, t32 = nn.forward([seq], model32)
            g64 = nn.backward(t64, [target])
            g32 = nn.backward(t32, [target])
            scale = max(np.abs(a).max() for a in g64.arrays())
            worst = max(
                np.abs(a.astype(np.float64) - b).max()
                for a, b in zip(g32.arrays(), g64.arrays())
            )
            assert worst / scale < 1e-3

    def test_long_sequence_gradients_hold_no_subnormal(self):
        # over 1000 steps the backward signal vanishes; the flush keeps
        # float32 BPTT off subnormals and leaves the gradients matching
        # a float64 backward of the same parameters, alone and in a
        # ragged batch whose BPTT exits early
        dims = nn.ModelDims(vocab_rows=1002, embed_dim=8, hidden=16,
                            classes=3, max_len=1000)
        model32 = nn.init_parameters(dims, seed=0)
        model64 = nn.init_parameters(dims, seed=0, dtype=np.float64)
        ids = np.random.default_rng(0).permutation(1000) + 2
        short = ids.copy()
        short[950:] = 0
        seq = EncodedSequence(ids=ids, length=1000)
        for seqs in ([seq], [EncodedSequence(ids=short, length=950), seq]):
            targets = [1, 2][:len(seqs)]
            _, t32 = nn.forward(seqs, model32)
            _, t64 = nn.forward(seqs, model64)
            g32 = nn.backward(t32, targets)
            g64 = nn.backward(t64, targets)
            tiny = np.finfo(np.float32).tiny
            for a in g32.arrays():
                assert not np.any((a != 0) & (np.abs(a) < tiny))
            scale = max(np.abs(a).max() for a in g64.arrays())
            worst = max(
                np.abs(a.astype(np.float64) - b).max()
                for a, b in zip(g32.arrays(), g64.arrays())
            )
            assert worst / scale < 1e-5  # float32 eps is 1.2e-7

    def test_pad_tail_contributes_nothing(self):
        model = nn.init_parameters(tiny_dims(), seed=8)
        ids = np.array([3, 4, 5, 0, 0, 0, 0, 0])
        _, t_short = nn.forward([EncodedSequence(ids=ids, length=3)], model)
        g_short = nn.backward(t_short, [1])
        longer = np.concatenate([ids, np.zeros(4, dtype=ids.dtype)])
        _, t_long = nn.forward([EncodedSequence(ids=longer, length=3)], model)
        g_long = nn.backward(t_long, [1])
        for a, b in zip(g_short.arrays(), g_long.arrays()):
            npt.assert_array_equal(a, b)

    def test_unused_embedding_rows_get_zero_gradient(self):
        model = nn.init_parameters(tiny_dims(), seed=9)
        seq = EncodedSequence(ids=np.array([3, 4, 0, 0, 0, 0, 0, 0]), length=2)
        _, trace = nn.forward([seq], model)
        grads = nn.backward(trace, [0])
        used = {3, 4}
        assert np.flatnonzero(grads.rows).tolist() == sorted(used)
        for row in range(model.dims.vocab_rows):
            if row not in used:
                npt.assert_array_equal(grads.views["embedding"][row], 0)

    def test_backward_sets_the_rows_of_a_buffer_built_by_hand(self):
        model = nn.init_parameters(tiny_dims(), seed=9)
        _, trace = nn.forward([EncodedSequence(ids=np.array([6, 2, 6]), length=3)], model)
        grads = nn.backward(trace, [1], out=nn.Gradients(model.dims))
        assert np.flatnonzero(grads.rows).tolist() == [2, 6]
        assert grads.rows.tolist() == grads.nonzero_rows().tolist()

    def test_accumulation_into_caller_buffer(self):
        model = nn.init_parameters(tiny_dims(), seed=3)
        seq = EncodedSequence(ids=np.array([2, 3, 0, 0, 0, 0, 0, 0]), length=2)
        _, trace = nn.forward([seq], model)
        single = nn.backward(trace, [1])
        buf = nn.Gradients.zeros_like(model)
        for _ in range(2):  # backward spends its trace: one forward each
            _, trace2 = nn.forward([seq], model)
            nn.backward(trace2, [1], out=buf)
        for one, two in zip(single.arrays(), buf.arrays()):
            npt.assert_allclose(two, one * 2, rtol=1e-5)

    def test_a_spent_trace_is_refused(self):
        model = nn.init_parameters(tiny_dims(), seed=3)
        _, trace = nn.forward(_ragged_batch(tiny_dims(), [5, 2], seed=1), model)
        grads = nn.backward(trace, [1, 0])
        before = grads.flat.copy()
        assert trace.spent
        with pytest.raises(ValueError, match="already run on this trace"):
            nn.backward(trace, [1, 0], out=grads)
        npt.assert_array_equal(grads.flat, before)

    def test_reference_group_memory(self):
        # one training group of 16 documents of 1000 tokens at reference
        # dims: the trace (154 MB), the gradient buffer (42 MB) and step
        # temporaries (193 MiB); a dz array the size of the gates would
        # take the peak to 290 MiB
        dims = nn.ModelDims(vocab_rows=100_002, embed_dim=100, hidden=200, classes=6,
                            max_len=1000)
        model = nn.init_parameters(dims, seed=1)
        seqs = _ragged_batch(dims, [1000] * 16, seed=2)
        targets = [k % dims.classes for k in range(16)]
        peak = traced_peak(lambda: nn.backward(nn.forward(seqs, model)[1], targets))
        assert peak < 210 * 2 ** 20


class TestParameterCount:
    def test_reference_configuration(self):
        dims = nn.ModelDims(vocab_rows=100_002, embed_dim=100, hidden=200,
                            classes=6, max_len=1000)
        model = zeroed_model(dims)
        assert nn.param_size(model.dims) == 10_483_006

    def test_minimal_configuration(self):
        dims = nn.ModelDims(vocab_rows=3, embed_dim=1, hidden=1, classes=2, max_len=1)
        model = zeroed_model(dims)
        # 3 embedding + (4*(1+1)+4) per direction... one direction = 12
        assert nn.param_size(model.dims) == 3 + 2 * 12 + (2 + 2)

    def test_closed_form(self):
        for dims in (tiny_dims(), tiny_dims(vocab_rows=50, hidden=7)):
            model = zeroed_model(dims)
            v, e, h, c = dims.vocab_rows, dims.embed_dim, dims.hidden, dims.classes
            assert nn.param_size(model.dims) == v * e + 2 * (4 * h * (e + h) + 4 * h) + c * h + c

    def test_degenerate_dims_unconstructible(self):
        with pytest.raises(ValueError):
            nn.ModelDims(vocab_rows=12, embed_dim=0, hidden=3, classes=3, max_len=8)
        with pytest.raises(ValueError):
            nn.ModelDims(vocab_rows=12, embed_dim=4, hidden=0, classes=3, max_len=8)


class TestInitParameters:
    def test_seed_determinism(self):
        a = nn.init_parameters(tiny_dims(), seed=77)
        b = nn.init_parameters(tiny_dims(), seed=77)
        for x, y in zip(a.params.arrays(), b.params.arrays()):
            npt.assert_array_equal(x, y)

    def test_forget_gate_bias_block(self):
        model = nn.init_parameters(tiny_dims(hidden=5), seed=1)
        for direction in nn.DIRECTIONS:
            b = model.params.views[f"{direction}.b"]
            npt.assert_array_equal(b[5:10], 1.0)
            npt.assert_array_equal(b[:5], 0.0)
            npt.assert_array_equal(b[10:], 0.0)

    def test_values_within_glorot_bounds(self):
        model = nn.init_parameters(tiny_dims(), seed=13)
        for name, arr in model.params.views.items():
            if name.endswith(".b"):
                continue
            rows, cols = arr.shape
            bound = math.sqrt(6.0 / (rows + cols))
            assert np.abs(arr).max() <= bound

    def test_different_seeds_differ(self):
        a = nn.init_parameters(tiny_dims(), seed=1)
        b = nn.init_parameters(tiny_dims(), seed=2)
        assert not np.array_equal(a.params.views["embedding"], b.params.views["embedding"])

    @pytest.mark.parametrize("labels, message", [
        (("a", "a", "b"), "duplicate labels in label set"),
        (("a", "", "b"), "labels must be non-empty strings"),
        (("a", 2, "b"), "labels must be non-empty strings"),
    ], ids=["duplicate", "empty", "non-string"])
    def test_labels_load_checkpoint_refuses_are_refused_here(self, labels, message):
        # so save_checkpoint never writes a checkpoint that cannot be loaded
        with pytest.raises(ValueError) as excinfo:
            nn.init_parameters(tiny_dims(), seed=0, labels=labels)
        assert str(excinfo.value) == message
        params = nn.init_parameters(tiny_dims(), seed=0).params
        with pytest.raises(ValueError) as excinfo:
            nn.BiLstmClassifier(params, labels)
        assert str(excinfo.value) == message


def _ragged_batch(dims, lengths, seed):
    rng = np.random.default_rng(seed)
    seqs = []
    for length in lengths:
        ids = np.zeros(dims.max_len, dtype=np.int64)
        ids[:length] = rng.integers(1, dims.vocab_rows, length)
        seqs.append(EncodedSequence(ids=ids, length=length))
    return seqs


def _bits(arr):
    return arr.view(f"u{arr.itemsize}")


class TestLockstep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_probabilities_do_not_depend_on_the_batch(self, dtype, activation):
        dims = tiny_dims(hidden=5)
        model = nn.init_parameters(dims, seed=6, activation=activation, dtype=dtype)
        lengths = [3, 8, 1, 5, 8, 2, 7, 1, 4, 6, 8, 3]
        seqs = _ragged_batch(dims, lengths, seed=1)
        alone = [nn.forward([seq], model)[0][0] for seq in seqs]
        rng = np.random.default_rng(2)
        orders = [list(range(len(seqs))), list(range(len(seqs)))[::-1],
                  list(rng.permutation(len(seqs))), [2, 7], [4, 10, 1], [9]]
        for order in orders:
            probs, _ = nn.forward([seqs[k] for k in order], model)
            for row, k in zip(probs, order):
                npt.assert_array_equal(_bits(row), _bits(alone[k]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_split_products_do_not_change_a_document(self, dtype, activation):
        # at hidden 200 a step's h @ U.T runs in pieces of at most 6 rows,
        # and a one-product head would give rows in blocks of four other bits
        dims = nn.ModelDims(vocab_rows=50, embed_dim=8, hidden=200, classes=6,
                            max_len=12)
        bound = nn.BLAS_SMALL_MNK // (4 * dims.hidden * dims.hidden)
        assert bound == 6 and len(nn._row_pieces(GROUP_DOCS, bound)) == 3
        model = nn.init_parameters(dims, seed=8, activation=activation, dtype=dtype)
        lengths = [12, 1, 7, 3, 12, 9, 5, 2, 11, 8, 4, 6, 10, 1, 12, 7]
        assert len(lengths) == GROUP_DOCS
        seqs = _ragged_batch(dims, lengths, seed=9)
        alone = [nn.forward([seq], model)[0][0] for seq in seqs]
        for order in (list(range(len(seqs))), list(range(len(seqs)))[::-1]):
            probs, _ = nn.forward([seqs[k] for k in order], model)
            for row, k in zip(probs, order):
                npt.assert_array_equal(_bits(row), _bits(alone[k]))
        for row, expected in zip(map_forward(model, seqs), alone):
            npt.assert_array_equal(_bits(row), _bits(expected))

    def test_batch_gradient_is_sum_of_document_gradients(self):
        dims = tiny_dims(hidden=5)
        model = nn.init_parameters(dims, seed=7, activation="tanh", dtype=np.float64)
        seqs = _ragged_batch(dims, [8, 1, 4, 8, 2, 6], seed=3)
        targets = [0, 2, 1, 1, 0, 2]
        _, trace = nn.forward(seqs, model)
        batch = nn.backward(trace, targets)
        summed = nn.Gradients.zeros_like(model)
        for seq, target in zip(seqs, targets):
            _, one = nn.forward([seq], model)
            nn.backward(one, [target], out=summed)
        for a, b in zip(batch.arrays(), summed.arrays()):
            npt.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.abs(b).max())

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_ragged_batch_matches_finite_differences(self, activation):
        dims = tiny_dims(max_len=6)
        model = nn.init_parameters(dims, seed=11, activation=activation,
                                   dtype=np.float64)
        seqs = _ragged_batch(dims, [4, 1, 6, 3], seed=5)
        assert batch_gradient_check_error(model, seqs, [2, 0, 1, 1]) < 1e-6

    def test_rejected_sequence_is_named(self):
        model = nn.init_parameters(tiny_dims(vocab_rows=12), seed=0)
        good = EncodedSequence(ids=np.array([3, 4, 0, 0, 0, 0, 0, 0]), length=2)
        bad = EncodedSequence(ids=np.array([3, 40, 0, 0, 0, 0, 0, 0]), length=2)
        with pytest.raises(DataError, match="document 'b': token id 40 outside"):
            nn.forward([good, bad], model, doc_ids=["a", "b"])
        with pytest.raises(DataError, match="sequence 1: token id 40 outside"):
            nn.forward([good, bad], model)

    def test_non_finite_state_names_the_document(self):
        model = nn.init_parameters(tiny_dims(), seed=0)
        model.params.views["embedding"][7] = np.inf
        seqs = _ragged_batch(tiny_dims(), [3, 5], seed=0)
        seqs.append(EncodedSequence(ids=np.array([2, 7, 0, 0, 0, 0, 0, 0]), length=2))
        with pytest.raises(NumericError, match="document 'c': non-finite LSTM state"):
            nn.forward(seqs, model, doc_ids=["a", "b", "c"])

    def test_direction_weights_stay_fortran_ordered(self):
        model = nn.init_parameters(tiny_dims(), seed=0)
        for m in (model, copy.deepcopy(model)):
            for direction in nn.DIRECTIONS:
                assert m.params.views[f"{direction}.W"].T.flags.c_contiguous
                assert m.params.views[f"{direction}.U"].T.flags.c_contiguous


def _kinks(trace, activation):
    """Which side of its kink each ReLU of the graph is on."""
    hidden = trace.model.dims.hidden
    if activation == "relu":  # the candidate's and the cell output's ReLU
        return np.concatenate([(trace.gates[..., 2 * hidden:3 * hidden] > 0).ravel(),
                               (trace.c > 0).ravel()])
    if activation == "relu_after_merge":
        return trace.merged_pre > 0
    return np.zeros(0, bool)


class TestReferenceScaleGradients:
    """BPTT against float64 directional derivatives at the reference hidden
    and embedding sizes, where a step's h @ U.T runs in row pieces and BPTT
    leaves early. One random direction per tensor, so that a small tensor
    such as head.b is not masked by the embedding's share."""

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_directional_derivatives_match_backward(self, activation, monkeypatch):
        dims = nn.ModelDims(vocab_rows=2000, embed_dim=100, hidden=200, classes=6,
                            max_len=400)
        hidden = dims.hidden
        model = nn.init_parameters(dims, seed=3, activation=activation,
                                   dtype=np.float64)
        # forget gates near 0.12: BPTT's state reaches zero in about 50 steps,
        # before the step at which the shortest document starts
        for direction in nn.DIRECTIONS:
            model.params.views[f"{direction}.b"][hidden:2 * hidden] = -2.0
        lengths = [250, 163, 141, 127, 118, 104, 96, 88, 79, 71]
        bound = nn.BLAS_SMALL_MNK // (4 * hidden * hidden)
        assert len(nn._row_pieces(len(lengths), bound)) == 2
        seqs = _ragged_batch(dims, lengths, seed=4)
        targets = [k % dims.classes for k in range(len(seqs))]
        calls = []  # backward calls _phi_derivative twice per step
        phi_derivative = nn._phi_derivative
        monkeypatch.setattr(nn, "_phi_derivative",
                            lambda *args: calls.append(1) or phi_derivative(*args))
        _, trace = nn.forward(seqs, model)
        grads = nn.backward(trace, targets)
        monkeypatch.undo()
        assert len(calls) // 2 < max(lengths)  # BPTT left early

        def loss_and_kinks(view, step):
            saved = view.copy()
            view += step
            try:
                probs, moved = nn.forward(seqs, model)
            finally:
                view[...] = saved
            return (sum(nn.loss(row, t) for row, t in zip(probs, targets)),
                    _kinks(moved, activation))

        rng = np.random.default_rng(5)
        for name, view in model.params.views.items():
            direction = rng.standard_normal(view.shape)
            expected = float(np.sum(grads.views[name] * direction))
            # a central difference across a ReLU kink is off by the slope's
            # jump, whatever eps; take the largest eps that crosses none
            for eps in (1e-6, 1e-7, 1e-8, 1e-9):
                (up, up_kinks), (down, down_kinks) = (
                    loss_and_kinks(view, sign * eps * direction) for sign in (1, -1))
                if np.array_equal(up_kinks, down_kinks):
                    break
            else:
                pytest.fail(f"{name}: a ReLU kink lies within 1e-9 of the point")
            derivative = (up - down) / (2 * eps)
            # the loss's float64 rounding is about 1e-14
            assert abs(derivative - expected) <= 1e-6 * abs(expected) + 1e-14 / eps, (
                f"{name}: backward {expected!r}, central difference {derivative!r} "
                f"at eps {eps}")


class TestTraceFree:
    """forward(keep_trace=False), the pass map_forward runs: one running
    state row per document and the input projection in chunks."""

    @pytest.mark.parametrize("rows", [nn.PROJECTION_ROWS, 2],
                             ids=["default-chunks", "batch-sized-chunks"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_probabilities_equal_the_traced_bits(self, activation, dtype, rows,
                                                 monkeypatch):
        # at hidden 200 a step of more than 6 rows runs in pieces; a chunk
        # holds at least the batch's rows, so 2 cuts a chunk every step or two
        monkeypatch.setattr(nn, "PROJECTION_ROWS", rows)
        dims = nn.ModelDims(vocab_rows=50, embed_dim=100, hidden=200, classes=6,
                            max_len=12)
        model = nn.init_parameters(dims, seed=8, activation=activation, dtype=dtype)
        for lengths in ([1], [5, 1, 3], [12] * 9,
                        [12, 1, 7, 3, 12, 9, 5, 2, 11, 8, 4, 6, 10, 1, 12, 7]):
            seqs = _ragged_batch(dims, lengths, seed=len(lengths))
            traced, _ = nn.forward(seqs, model)
            untraced, trace = nn.forward(seqs, model, keep_trace=False)
            assert trace is None
            npt.assert_array_equal(_bits(untraced), _bits(traced))

    def test_memory_is_a_few_projection_chunks(self):
        dims = nn.ModelDims(vocab_rows=2002, embed_dim=100, hidden=200, classes=6,
                            max_len=1000)
        model = nn.init_parameters(dims, seed=1)
        seqs = _ragged_batch(dims, [1000] * 16, seed=2)
        chunk = nn.PROJECTION_ROWS * 2 * 4 * dims.hidden * 4  # float32 gates
        tracemalloc.start()
        try:
            nn.forward(seqs, model, keep_trace=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * chunk  # the traced pass holds 165 MiB

    def test_many_short_documents_stay_within_a_few_chunks(self):
        # the untraced pass's step temporaries grow with the rows per step,
        # so map_forward's groups bound its memory however many documents
        dims = nn.ModelDims(vocab_rows=2002, embed_dim=100, hidden=200, classes=6,
                            max_len=60)
        model = nn.init_parameters(dims, seed=1)
        lengths = np.random.default_rng(3).integers(10, 61, 400).tolist()
        seqs = _ragged_batch(dims, lengths, seed=4)
        chunk = nn.PROJECTION_ROWS * 2 * 4 * dims.hidden * 4  # float32 gates
        tracemalloc.start()
        try:
            map_forward(model, seqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * chunk  # one group of all 400 rows peaks at 13 MiB

    def test_non_finite_state_names_the_document_and_step(self):
        model = nn.init_parameters(tiny_dims(), seed=0)
        model.params.views["embedding"][7] = np.inf
        seqs = _ragged_batch(tiny_dims(), [3, 5], seed=0)
        seqs.append(EncodedSequence(ids=np.array([2, 7, 2, 0, 0, 0, 0, 0]), length=3))
        doc_ids = ["a", "b", "c"]
        with pytest.raises(NumericError) as traced:
            nn.forward(seqs, model, doc_ids)
        with pytest.raises(NumericError) as untraced:
            map_forward(model, seqs, doc_ids)
        assert str(untraced.value) == str(traced.value) == (
            "document 'c': non-finite LSTM state at timestep 1")


class TestFiniteOutput:
    """forward's one finite check, on the final c and h rows and then the
    probabilities it returns, in both modes."""

    def overflowing_batch(self):
        model = overflow_head(nn.init_parameters(tiny_dims(), seed=0), tokens=7)
        seqs = [EncodedSequence(ids=np.array(ids + [0] * (8 - len(ids))), length=len(ids))
                for ids in ([2, 3, 4, 5], [3, 4, 5, 6, 2], [2, 7])]
        return model, seqs, ["a", "b", "c"]

    def test_head_overflow_on_finite_states_names_the_document(self):
        model, seqs, doc_ids = self.overflowing_batch()
        head = model.params.views["head.W"].copy()
        model.params.views["head.W"][...] = 1.0
        _, trace = nn.forward(seqs, model)
        assert np.isfinite(trace.c).all() and np.isfinite(trace.h).all()
        model.params.views["head.W"][...] = head
        with pytest.raises(NumericError) as traced:
            nn.forward(seqs, model, doc_ids)
        with pytest.raises(NumericError) as untraced:
            nn.forward(seqs, model, doc_ids, keep_trace=False)
        with pytest.raises(NumericError) as mapped:
            map_forward(model, seqs, doc_ids)
        assert str(traced.value) == str(untraced.value) == str(mapped.value) == (
            "document 'c': non-finite class probabilities")

    @pytest.mark.parametrize("keep_trace", [True, False], ids=["traced", "untraced"])
    def test_non_finite_h_over_a_finite_c_is_a_state_error(self, keep_trace):
        # NaN output-gate rows give o, and so h, NaN at step 0 while c = f * 0
        # + i * g stays finite; a check of c alone would pass this document
        model = nn.init_parameters(tiny_dims(), seed=0)
        hidden = model.dims.hidden
        model.params.views["forward_dir.W"][3 * hidden:] = np.nan
        seq = EncodedSequence(ids=np.array([2, 0, 0, 0, 0, 0, 0, 0]), length=1)
        with pytest.raises(NumericError) as excinfo:
            nn.forward([seq], model, ["a"], keep_trace=keep_trace)
        assert str(excinfo.value) == "document 'a': non-finite LSTM state at timestep 0"

    def test_a_finite_call_checks_only_what_it_returns(self, monkeypatch):
        # the scan of every packed row (here 3 lead rows and 49 tokens, 520
        # values in each of c and h) runs only once the check has failed
        dims = tiny_dims(hidden=5, max_len=30)
        model = nn.init_parameters(dims, seed=0)
        seqs = _ragged_batch(dims, [30, 12, 7], seed=0)
        sizes, isfinite = [], np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda x: sizes.append(np.size(x)) or isfinite(x))
        nn.forward(seqs, model)
        assert sizes and max(sizes) <= (len(seqs) + 1) * 2 * dims.hidden


class TestSplitProjection:
    """forward's input projection, one product when traced and chunks of
    PROJECTION_ROWS rows when not, with the bits of one product."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    def test_chunks_keep_every_bit(self, activation, dtype, monkeypatch):
        dims = nn.ModelDims(vocab_rows=50, embed_dim=100, hidden=200, classes=6,
                            max_len=400)
        model = nn.init_parameters(dims, seed=8, activation=activation, dtype=dtype)
        # 590 packed rows: one traced projection, and two untraced chunks of
        # PROJECTION_ROWS rows before a shorter last one, or one chunk
        seqs = _ragged_batch(dims, [400, 150, 31, 5], seed=3)
        outputs = []
        for chunk in (nn.PROJECTION_ROWS, 1024):
            monkeypatch.setattr(nn, "PROJECTION_ROWS", chunk)
            probs, trace = nn.forward(seqs, model)
            untraced, _ = nn.forward(seqs, model, keep_trace=False)
            assert _bits(untraced).tobytes() == _bits(probs).tobytes()
            outputs.append([_bits(a).tobytes()
                            for a in (probs, trace.gates, trace.c, trace.h, untraced)])
        assert outputs[0] == outputs[1]

    @staticmethod
    def raises_one_error(seqs, model, keep_trace):
        """The NumericError forward raises, after checking that numpy
        warned of nothing on either thread."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError) as excinfo:
                nn.forward(seqs, model, ["a", "b"][:len(seqs)], keep_trace=keep_trace)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return str(excinfo.value)

    @pytest.mark.parametrize("keep_trace", [True, False], ids=["traced", "untraced"])
    def test_head_overflow_above_the_split_is_one_numeric_error(self, keep_trace):
        dims = tiny_dims(max_len=300)
        model = overflow_head(nn.init_parameters(dims, seed=0))
        seqs = _ragged_batch(dims, [300, 40], seed=1)
        assert self.raises_one_error(seqs, model, keep_trace) == (
            "document 'a': non-finite class probabilities")

    @pytest.mark.parametrize("keep_trace", [True, False], ids=["traced", "untraced"])
    def test_an_overflow_in_a_late_projection_row_is_one_numeric_error(self,
                                                                       keep_trace):
        # token 7 overflows the forward direction's projection at step 250,
        # packed row 252 of 302
        dims = tiny_dims(max_len=300)
        model = zeroed_model(dims)
        model.params.views["forward_dir.W"][2 * dims.hidden:3 * dims.hidden, 0] = 10.0
        model.params.views["embedding"][7, 0] = 3e38
        ids = np.full(300, 2)
        ids[250] = 7
        seq = EncodedSequence(ids=ids, length=300)
        assert self.raises_one_error([seq], model, keep_trace) == (
            "document 'a': non-finite LSTM state at timestep 250")


class TestParamBuffer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_views_tile_the_flat_buffer_in_table_order(self, dtype):
        dims = tiny_dims(hidden=5)
        buf = nn.ParamBuffer(dims, dtype)
        assert buf.flat.dtype == dtype and buf.flat.ctypes.data % 64 == 0
        buf.flat[...] = np.arange(buf.flat.size)
        start = 0
        for (name, shape), (view_name, view) in zip(nn.param_shapes(dims),
                                                    buf.views.items()):
            assert name == view_name and view.shape == shape
            assert np.shares_memory(view, buf.flat) and view.ctypes.data % 64 == 0
            # a Fortran-ordered view holds its transpose in C order
            fortran = name.endswith(("_dir.W", "_dir.U"))
            assert view.flags.f_contiguous if fortran else view.flags.c_contiguous
            flat = (view.T if fortran else view).ravel()
            npt.assert_array_equal(flat, np.arange(start, start + view.size))
            assert buf.name_at(start) == name == buf.name_at(start + view.size - 1)
            start = -(-(start + view.size) // 16) * 16  # the next 64-byte boundary
        assert start == buf.flat.size
        assert sum(view.size for view in buf.arrays()) == nn.param_size(dims)

    @pytest.mark.parametrize("copier", [
        copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model)),
    ], ids=["deepcopy", "pickle"])
    def test_copies_alias_their_own_buffer(self, copier):
        model = nn.init_parameters(tiny_dims(), seed=2)
        before = model.params.flat.copy()
        twin = copier(model)
        assert twin.params.flat is not model.params.flat
        views = twin.params.views
        for arr in views.values():
            assert np.shares_memory(arr, twin.params.flat)
            assert not np.shares_memory(arr, model.params.flat)
        for direction in nn.DIRECTIONS:
            assert views[f"{direction}.W"].flags.f_contiguous
            assert views[f"{direction}.U"].flags.f_contiguous
        npt.assert_array_equal(twin.params.flat, before)
        twin.params.flat += 1
        views["forward_dir.U"][1, 2] = 7
        npt.assert_array_equal(model.params.flat, before)
        assert views["embedding"][0, 0] == before[0] + 1
        assert (twin.labels, twin.activation) == (model.labels, model.activation)

    @pytest.mark.parametrize("copier", [
        copy.deepcopy, copy.copy, lambda grads: pickle.loads(pickle.dumps(grads)),
        lambda grads: nn.Gradients(grads.dims, grads.flat.dtype, grads.flat),
    ], ids=["deepcopy", "copy", "pickle", "values"])
    def test_a_gradient_built_from_values_masks_its_nonzero_rows(self, copier):
        # -0.0 and NaN are nonzero bits; a row the mask held that is zero
        # again, and values after the embedding, add no row
        grads = nn.Gradients.zeros_like(nn.init_parameters(tiny_dims(), seed=2))
        embedding = grads.views["embedding"]
        embedding[2, 1], embedding[5, 0], embedding[9, 3] = 0.5, -0.0, np.nan
        grads.views["head.b"][...] = 1.0
        grads.rows[[2, 4, 5, 9]] = True
        twin = copier(grads)
        assert np.flatnonzero(twin.rows).tolist() == [2, 5, 9]
        assert twin.flat.tobytes() == grads.flat.tobytes()
        twin.zero_()
        assert not twin.flat.view(np.uint32).any()  # -0.0 and NaN zeroed too

    def test_gradient_passes_cover_every_tensor(self):
        model = nn.init_parameters(tiny_dims(), seed=2)
        grads = nn.Gradients.zeros_like(model)
        assert grads.rows.shape == (model.dims.vocab_rows,) and not grads.rows.any()
        for arr in grads.arrays():  # the gaps between tensors stay zero
            arr[...] = 2.0
        grads.rows[:] = True  # every row planted
        grads.scale_(0.25)
        for arr in grads.arrays():
            npt.assert_array_equal(arr, 0.5)
        assert grads.global_norm() == pytest.approx(0.5 * math.sqrt(nn.param_size(model.dims)))
        grads.zero_()
        assert not any(arr.any() for arr in grads.arrays()) and not grads.rows.any()

    @pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 7])
    def test_global_norm_does_not_read_the_gaps(self, block, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        grads = nn.Gradients.zeros_like(nn.init_parameters(tiny_dims(hidden=5), seed=2))
        for view in grads.arrays():
            view[...] = np.arange(view.size).reshape(view.shape) % 5 - 2.0
        grads.rows[:] = True  # every row planted
        gap = np.ones(grads.flat.size, bool)
        for start, view in zip(grads.starts, grads.arrays()):
            gap[start:start + view.size] = False
        assert gap.any()
        norm = grads.global_norm()
        grads.flat[gap] = 1e3
        assert grads.global_norm() == norm

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 97])
    def test_global_norm_matches_the_per_tensor_sum(self, dtype, block, monkeypatch):
        # more than two blocks, the last one short; 97 also cuts small tensors
        dims = tiny_dims(vocab_rows=nn.ADAM_BLOCK // 4 + 1001, embed_dim=8, hidden=5)
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        model = nn.init_parameters(dims, seed=3, dtype=dtype)
        assert model.params.flat.size > 2 * block and model.params.flat.size % block
        grads = nn.Gradients.zeros_like(model)
        rng = np.random.default_rng(6)
        for view in grads.arrays():
            view[...] = rng.standard_normal(view.shape) * 10.0 ** rng.integers(-9, 4, view.shape)
        grads.rows[:] = True  # every row planted
        # the per-tensor float64 expression that the blocked norm replaced
        expected = math.sqrt(sum(float(np.sum(arr.astype(np.float64) ** 2))
                                 for arr in grads.arrays()))
        assert grads.global_norm() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 97])
    def test_zero_and_scale_keep_their_bits(self, dtype, block, monkeypatch):
        dims = tiny_dims(vocab_rows=nn.ADAM_BLOCK // 4 + 1001, embed_dim=8, hidden=5)
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        grads = nn.Gradients(dims, dtype)
        assert grads.flat.size > 2 * block and grads.flat.size % block
        rng = np.random.default_rng(7)
        for view in grads.arrays():  # the gaps between tensors stay zero
            view[...] = rng.standard_normal(view.shape)
        values = grads.flat.copy()
        for k in (0.25, 1 / 3, 1e-30):
            grads.flat[...] = values
            grads.rows[:] = True  # every row planted
            grads.scale_(k)
            assert grads.flat.tobytes() == (values * dtype(k)).tobytes()
        grads.zero_()
        assert not grads.flat.any() and not grads.rows.any()


class TestRowRanges:
    """The parts of a pass over the embedding rows of a buffer's mask (see
    nn._walk): the rows in chunks, which the pass gathers, and every tensor
    after the embedding, with the bits of the whole-buffer expressions."""

    dims = tiny_dims(vocab_rows=400, embed_dim=8, hidden=5)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 399), max_size=400, unique=True),
           st.sampled_from([5, 7, 97, 4096]))
    def test_ranges_cover_the_rows_and_every_later_tensor(self, rows, block):
        # any rows, up to all of them; blocks of 5 and 7 are narrower than
        # a row
        buf = nn.ParamBuffer(self.dims)
        rows = np.array(sorted(rows), np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nn, "ADAM_BLOCK", block)
            parts = nn._walk(buf, row_mask(self.dims, rows))
        chunks = [part for part in parts if not isinstance(part, slice)]
        # the rows in order, in full chunks of block // embed_dim rows but
        # the last, and at least one row a chunk
        per = max(1, block // self.dims.embed_dim)
        assert all(len(chunk) == per for chunk in chunks[:-1])
        assert 0 < len(chunks[-1] if chunks else [1]) <= per
        assert sum((chunk.tolist() for chunk in chunks), []) == rows.tolist()
        # then consecutive slices of at most a block, gaps included, from
        # the end of the embedding to the end of the buffer
        size = buf.flat.size
        assert parts[len(chunks):] == [slice(lo, min(lo + block, size))
                                       for lo in range(buf.starts[1], size, block)]

    def test_no_rows_walk_only_the_tensors_after_the_embedding(self, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", 10**6)
        buf = nn.Gradients.zeros_like(nn.init_parameters(self.dims, seed=0))
        assert nn._walk(buf, buf.rows) == [
            slice(self.dims.vocab_rows * 8, buf.flat.size)]

    def test_a_few_rows_gather_before_one_block_of_the_rest(self):
        # one chunk of rows, then the tensors after the embedding in one block
        buf = nn.ParamBuffer(tiny_dims(vocab_rows=20_000, embed_dim=8))
        parts = nn._walk(buf, row_mask(buf.dims, [5, 6, 900]))
        assert parts[0].tolist() == [5, 6, 900]
        assert parts[1:] == [slice(buf.starts[1], buf.flat.size)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block, count", [(nn.ADAM_BLOCK, 4096), (97, 1), (97, 64),
                                              (97, "all")])
    def test_row_passes_keep_the_bits_of_the_whole_buffer(self, dtype, block, count,
                                                          monkeypatch):
        # count scattered rows and the first and last ones: half a chunk of
        # 8,192 rows, or one and several chunks of 12 rows that straddle
        # blocks of 97 elements, or every row
        dims = tiny_dims(vocab_rows=nn.ADAM_BLOCK // 4 + 1001, embed_dim=8, hidden=5)
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        rng = np.random.default_rng(8)
        rows = np.arange(dims.vocab_rows) if count == "all" else np.unique(np.r_[
            0, dims.vocab_rows - 1, rng.choice(dims.vocab_rows, count, replace=False)])
        dense = nn.Gradients(dims, dtype)
        for name, view in dense.views.items():
            view[...] = rng.standard_normal(view.shape) * 10.0 ** rng.integers(-9, 4, view.shape)
        mask = row_mask(dims, rows)
        dense.views["embedding"][~mask] = 0  # the rows a batch did not touch
        grads = nn.Gradients(dims, dtype)
        grads.flat[...] = dense.flat
        grads.rows[rows] = True
        assert grads.global_norm() == dense_norm(dense)
        assert dense_norm(dense) == pytest.approx(math.sqrt(sum(  # the per-tensor sum
            float(np.sum(arr.astype(np.float64) ** 2)) for arr in dense.arrays())), rel=1e-12)
        grads.scale_(1 / 3)
        dense_scale(dense, 1 / 3)
        assert grads.flat.tobytes() == dense.flat.tobytes()
        grads.zero_()
        dense_zero(dense)
        assert grads.flat.tobytes() == dense.flat.tobytes() and not grads.rows.any()

    def test_row_passes_leave_every_other_row_alone(self):
        grads = nn.Gradients(self.dims)
        grads.flat[...] = 2.0
        grads.rows = row_mask(self.dims, [1, 7, 8, 300])
        grads.scale_(0.5)
        grads.rows = row_mask(self.dims, [7])
        grads.zero_()
        expected = np.full(self.dims.vocab_rows, 2.0)
        expected[[1, 8, 300]] = 1.0
        expected[7] = 0.0
        npt.assert_array_equal(grads.views["embedding"][:, 0], expected)
        end = self.dims.vocab_rows * self.dims.embed_dim
        assert not grads.flat[end:].any()  # every later tensor, gaps too

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                        reason="no /proc/self/smaps on this platform")
    def test_zeros_like_buffers_are_on_base_pages_and_traced(self):
        # an embedding of 5.1 MB, and 6 MB of tensors after it
        dims = tiny_dims(vocab_rows=20_000, embed_dim=64, hidden=400)
        model = nn.init_parameters(dims, seed=1)
        assert 4 * nn.param_size(dims) >= nn.HUGE_PAGE_ARRAY
        buffers = []
        assert traced_peak(lambda: buffers.append(nn.Gradients.zeros_like(model))) >= (
            4 * nn.param_size(dims))
        base, tail = buffers[0].flat.ctypes.data, 4 * buffers[0].starts[1]
        flags = _vm_flags(base + tail // 2)
        assert "nh" in flags and "hg" not in flags, flags
        # the tensors after the embedding, from its last huge-page boundary
        # on, keep numpy's advice
        boundary = (base + tail) // nn.HUGE_PAGE * nn.HUGE_PAGE
        for address in (base + tail, boundary + nn.HUGE_PAGE, base + 4 * nn.param_size(dims) - 1):
            assert "nh" not in _vm_flags(address)
        # the parameters keep numpy's own advice
        assert "nh" not in _vm_flags(model.params.flat.ctypes.data + 4 * nn.param_size(dims) // 2)


def _vm_flags(address: int) -> list[str]:
    """The VmFlags of the mapping of this process that holds ``address``."""
    flags, inside = None, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()[0]
            if "-" in head and not head.endswith(":"):
                lo, hi = (int(part, 16) for part in head.split("-"))
                inside = lo <= address < hi
            elif inside and head == "VmFlags:":
                flags = line.split()[1:]
    assert flags is not None, "no mapping holds the address"
    return flags


class TestGathered:
    """nn._gathered, which hands a pass each part of its buffers: a slice
    as views, a chunk of embedding rows gathered into scratch and written
    back to the buffers it names."""

    dims = tiny_dims(vocab_rows=400, embed_dim=8, hidden=5)

    def buffers(self, dtype=np.float32):
        """Three buffers, each with its own values."""
        bufs = []
        for k in range(3):
            buf = nn.ParamBuffer(self.dims, dtype)
            buf.flat[...] = np.arange(buf.flat.size) + 1000.0 * k
            bufs.append(buf)
        return bufs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_slice_is_a_view_of_each_buffer(self, dtype):
        bufs = self.buffers(dtype)
        parts = [slice(5, 40), slice(bufs[0].starts[1], bufs[0].flat.size)]
        seen = []
        for part, arrays in nn._gathered(parts, bufs, (0,)):
            seen.append(part)
            for buf, arr in zip(bufs, arrays):
                assert arr.dtype == dtype and np.shares_memory(arr, buf.flat)
                npt.assert_array_equal(arr, buf.flat[part])
            arrays[1][0] = -1.0  # a view: every buffer takes the write at once
            assert bufs[1].flat[part.start] == -1.0
        assert seen == parts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_chunk_holds_its_rows_of_each_buffer(self, dtype):
        bufs = self.buffers(dtype)
        parts = [np.array([3, 9, 200]), np.array([399])]
        for part, arrays in nn._gathered(parts, bufs, ()):
            for buf, arr in zip(bufs, arrays):
                assert arr.dtype == dtype and not np.shares_memory(arr, buf.flat)
                npt.assert_array_equal(arr, buf.views["embedding"][part].ravel())

    @pytest.mark.parametrize("writes", [(), (0,), (1, 2), (0, 1, 2)])
    def test_only_the_named_buffers_take_their_rows_back(self, writes):
        bufs = self.buffers()
        before = [buf.flat.copy() for buf in bufs]
        rows = [3, 9, 200, 399]
        parts = [np.array(rows[:3]), np.array(rows[3:]),
                 slice(bufs[0].starts[1], bufs[0].starts[1] + 16)]
        for part, arrays in nn._gathered(parts, bufs, writes):
            if not isinstance(part, slice):
                for arr in arrays:
                    arr += 0.5
        for k, (buf, old) in enumerate(zip(bufs, before)):
            expected = old.copy()
            if k in writes:
                expected[:buf.starts[1]].reshape(self.dims.vocab_rows, 8)[rows] += 0.5
            assert buf.flat.tobytes() == expected.tobytes()

    def test_a_chunk_goes_back_once_the_caller_moves_on(self):
        buf = self.buffers()[0]
        walk = nn._gathered([np.array([1, 2]), np.array([7])], (buf,), (0,))
        part, (rows,) = next(walk)
        rows[:] = -1.0
        assert (buf.views["embedding"][[1, 2]] >= 0).all()  # not yet
        part, (rows,) = next(walk)
        assert (buf.views["embedding"][[1, 2]] == -1.0).all()
        rows[:] = -2.0
        assert next(walk, None) is None  # the last chunk goes back at the end
        assert (buf.views["embedding"][7] == -2.0).all()

    def test_every_chunk_reuses_the_first_chunks_scratch(self):
        bufs = self.buffers()[:2]
        parts = [np.array([0, 4, 5, 6, 10]), np.array([11, 12])]
        arrays = [arrays for _, arrays in nn._gathered(parts, bufs, ())]
        assert [arr.size for arr in arrays[0]] == [5 * 8] * 2
        assert [arr.size for arr in arrays[1]] == [2 * 8] * 2
        for first, second in zip(*arrays):
            assert np.shares_memory(first, second)
        assert not np.shares_memory(arrays[0][0], arrays[0][1])

    def test_a_row_outside_the_embedding_is_refused_on_the_way_back(self):
        buf = self.buffers()[0]
        before = buf.flat.copy()
        with pytest.raises(IndexError):
            for _ in nn._gathered([np.array([2, 400])], (buf,), (0,)):
                pass
        assert buf.flat.tobytes() == before.tobytes()


class TestRowPieces:
    @given(st.integers(1, 64), st.integers(1, 30))
    def test_pieces_cover_the_rows_within_the_bound(self, m, bound):
        pieces = nn._row_pieces(m, bound)
        assert pieces[0][0] == 0 and pieces[-1][1] == m
        for (lo, hi), (next_lo, next_hi) in zip(pieces, pieces[1:]):
            assert lo < next_lo <= hi < next_hi  # in order, no gap
        sizes = [hi - lo for lo, hi in pieces]
        if m >= 2:
            assert min(sizes) >= 2
        assert max(sizes) - min(sizes) <= 1  # balanced
        if bound >= 2:
            assert max(sizes) <= bound
        if m <= bound or bound < 2:
            assert pieces == ((0, m),)


class TestBlasRowInvariance:
    """Lockstep batching relies on the BLAS computing each row of
    ``H @ U.T`` with the same bits for every row count of 2 or more."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_match_two_row_products(self, dtype):
        rng = np.random.default_rng(0)
        hidden = 200
        U = np.asfortranarray(rng.standard_normal((4 * hidden, hidden)).astype(dtype))
        H = rng.standard_normal((GROUP_DOCS + 1, hidden)).astype(dtype)
        two_row = np.stack([(H[r:r + 2] @ U.T)[0] for r in range(GROUP_DOCS)])
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):
            blas = "unknown"
        for rows in range(2, GROUP_DOCS + 1):
            got = H[:rows] @ U.T
            assert np.array_equal(_bits(got), _bits(two_row[:rows])), (
                f"BLAS {blas}: rows of a {rows}-row product differ from the "
                f"same rows in 2-row products; lockstep batches would change "
                f"a document's bits"
            )
