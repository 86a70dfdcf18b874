import copy
import hashlib
import json
import math
import pickle
import random
import re
import threading
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SYNTH_LABELS, dense_adam, dense_norm, dense_scale, dense_zero,
                      flip_bit, load_variant, make_synthetic_corpus, overflow_head,
                      traced_peak)

from lexseq import nn, trainer
from lexseq.corpus import Document, LabelSet, SplitDataset, stratified_split
from lexseq.errors import DataError, NumericError
from lexseq.tokenizer import EncodedSequence, build_vocabulary, iter_tokens
from lexseq.trainer import (
    AdamState,
    TrainConfig,
    adam_update,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)


def small_dims(vocab, classes=6, embed=12, hidden=8):
    return nn.ModelDims(vocab_rows=vocab.id_count, embed_dim=embed, hidden=hidden,
                        classes=classes, max_len=40)


def build_setup(n_docs=120, corpus_seed=3, split_seed=2, shuffle_labels=False):
    docs = make_synthetic_corpus(n_docs=n_docs, seed=corpus_seed)
    if shuffle_labels:
        rng = random.Random(13)
        labels = [d.label for d in docs]
        rng.shuffle(labels)
        docs = [Document(d.id, d.text, lab) for d, lab in zip(docs, labels)]
    split = stratified_split(docs, (0.7, 0.2, 0.1), seed=split_seed)
    vocab = build_vocabulary(iter_tokens(d.text for d in split.train), cap=100_000)
    return split, vocab


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", -1e-3), ("clip_norm", math.nan), ("clip_norm", math.inf),
        ("clip_norm", 0.0),
    ])
    def test_values_that_break_adam_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            TrainConfig(**{field: value})

    def test_bad_batch_and_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


# train()'s buffer passes over the rows of the masks, and the dense
# references whose bits they give
ROW_PASSES = types.SimpleNamespace(zero=nn.Gradients.zero_, scale=nn.Gradients.scale_,
                                   norm=nn.Gradients.global_norm, adam=adam_update)
DENSE_PASSES = types.SimpleNamespace(zero=dense_zero, scale=dense_scale, norm=dense_norm,
                                     adam=dense_adam)


class TestAdamUpdate:
    def tiny_model(self):
        dims = nn.ModelDims(vocab_rows=3, embed_dim=1, hidden=1, classes=2, max_len=2)
        model = nn.init_parameters(dims, seed=0, dtype=np.float64)
        return model

    def test_zero_gradient_leaves_parameters(self):
        model = self.tiny_model()
        before = [arr.copy() for arr in model.params.arrays()]
        grads = nn.Gradients.zeros_like(model)
        adam_update(model, grads, AdamState.zeros_like(model), TrainConfig())
        for arr, orig in zip(model.params.arrays(), before):
            npt.assert_array_equal(arr, orig)

    def test_first_step_bias_correction(self):
        # scalar parameter 1.0, gradient 0.5, fresh state:
        # m_hat = 0.5, v_hat = 0.25 -> step = lr * 0.5 / (0.5 + eps) ~ lr
        model = self.tiny_model()
        head_b = model.params.views["head.b"]
        head_b[0] = 1.0
        grads = nn.Gradients.zeros_like(model)
        grads.views["head.b"][0] = 0.5
        config = TrainConfig(learning_rate=0.001)
        adam_update(model, grads, AdamState.zeros_like(model), config)
        expected = 1.0 - 0.001 * 0.5 / (0.5 + trainer.EPSILON)
        assert head_b[0] == pytest.approx(expected, rel=1e-9)
        assert head_b[0] == pytest.approx(0.999, abs=1e-6)

    def test_lr_zero_is_rejected_by_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_tiny_lr_barely_moves(self):
        model = self.tiny_model()
        before = model.params.views["head.b"].copy()
        grads = nn.Gradients.zeros_like(model)
        grads.views["head.b"][:] = 3.0
        adam_update(model, grads, AdamState.zeros_like(model),
                    TrainConfig(learning_rate=1e-12))
        npt.assert_allclose(model.params.views["head.b"], before, atol=1e-11)

    def test_non_finite_gradient_names_tensor(self):
        model = self.tiny_model()
        grads = nn.Gradients.zeros_like(model)
        grads.views["forward_dir.U"][0, 0] = np.nan
        with pytest.raises(NumericError, match="forward_dir.U"):
            adam_update(model, grads, AdamState.zeros_like(model), TrainConfig())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [nn.ADAM_BLOCK, 97])
    def test_bit_identical_to_the_dense_reference(self, dtype, block, monkeypatch):
        # more than two blocks, the last one short; 97 also cuts small tensors
        dims = nn.ModelDims(vocab_rows=nn.ADAM_BLOCK // 4 + 1001, embed_dim=8,
                            hidden=5, classes=3, max_len=8)
        monkeypatch.setattr(nn, "ADAM_BLOCK", block)
        models = [nn.init_parameters(dims, seed=3, dtype=dtype) for _ in range(2)]
        states = [AdamState.zeros_like(model) for model in models]
        size = models[0].params.flat.size
        assert size > 2 * block and size % block
        config = TrainConfig(learning_rate=0.01)
        rng = np.random.default_rng(5)
        for _ in range(4):
            grads = nn.Gradients.zeros_like(models[0])
            for view in grads.arrays():
                g = rng.standard_normal(view.shape) * 10.0 ** rng.integers(-9, 4, view.shape)
                g[rng.random(view.shape) < 0.3] = 0  # like rows a batch never saw
                view[...] = g
            grads.rows[:] = True  # every row planted
            dense_adam(models[1], grads, states[1], config)
            adam_update(models[0], grads, states[0], config)
        assert states[0].t == states[1].t == 4
        got, ref = (model.params.arrays() + state.m.arrays() + state.v.arrays()
                    for model, state in zip(models, states))
        for (name, _), a, b in zip(nn.param_shapes(dims) * 3, got, ref):
            assert a.tobytes() == b.tobytes(), name

    def test_non_finite_gradient_in_a_later_block_names_its_tensor(self, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", 5)
        model = self.tiny_model()
        grads = nn.Gradients.zeros_like(model)
        grads.views["head.W"][1, 0] = np.inf
        with pytest.raises(NumericError, match="tensor head.W"):
            adam_update(model, grads, AdamState.zeros_like(model), TrainConfig())

    @pytest.mark.parametrize("bad", [["forward_dir.U"], ["head.W"],
                                     ["head.W", "forward_dir.U"]],
                             ids=["early-block", "late-block", "both-blocks"])
    def test_a_non_finite_gradient_changes_nothing(self, bad, monkeypatch):
        # 144 elements in blocks of 5: forward_dir.U starts at element 32 and
        # head.W at 112; with both bad, the first in flat order is named
        monkeypatch.setattr(nn, "ADAM_BLOCK", 5)
        model = self.tiny_model()
        grads = nn.Gradients.zeros_like(model)
        state = AdamState.zeros_like(model)
        grads.flat[...] = np.linspace(-1, 1, grads.flat.size)
        grads.rows[:] = True  # every row planted
        adam_update(model, grads, state, TrainConfig())  # m, v and t not zero
        for name in bad:
            grads.views[name][-1] = np.nan
        before = [a.copy() for a in (model.params.flat, state.m.flat, state.v.flat)]
        with pytest.raises(NumericError, match=f"tensor {bad[-1]}$"):
            adam_update(model, grads, state, TrainConfig())
        assert state.t == 1
        for a, b in zip((model.params.flat, state.m.flat, state.v.flat), before):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("owner", ["grads", "state"])
    @pytest.mark.parametrize("length", [12, 9])
    def test_a_mask_of_another_length_changes_nothing(self, owner, length):
        dims = nn.ModelDims(vocab_rows=10, embed_dim=4, hidden=3, classes=2, max_len=4)
        model = nn.init_parameters(dims, seed=0)
        grads = nn.Gradients.zeros_like(model)
        state = AdamState.zeros_like(model)
        grads.flat[...] = np.linspace(-1, 1, grads.flat.size)
        grads.rows[:] = True
        adam_update(model, grads, state, TrainConfig())  # m, v, t and rows not zero
        grads.rows[3] = False
        bad = np.ones(length, bool)
        if owner == "grads":
            grads.rows = bad
        else:
            state.rows = bad
        before = [a.tobytes() for a in (model.params.flat, state.m.flat, state.v.flat,
                                        state.rows, grads.rows)]
        with pytest.raises(ValueError, match=r"boolean array of shape \(10,\)"):
            adam_update(model, grads, state, TrainConfig())
        assert state.t == 1
        assert [a.tobytes() for a in (model.params.flat, state.m.flat, state.v.flat,
                                      state.rows, grads.rows)] == before

    @staticmethod
    def row_steps(dims, batches, clip_norm, passes):
        """Run ``passes`` (ROW_PASSES or DENSE_PASSES) as train() runs the
        buffer passes, on gradients written into each batch's embedding rows,
        which the gradient's mask takes, and every other tensor. The bytes
        of the parameters, m and v after every step, the norms and the
        state."""
        model = nn.init_parameters(dims, seed=4)
        grads, state = nn.Gradients.zeros_like(model), AdamState.zeros_like(model)
        values = np.random.default_rng(10)
        snapshots, norms = [], []
        for rows in batches:
            if state.t:
                passes.zero(grads)
            grads.views["embedding"][rows] += values.standard_normal((rows.size, dims.embed_dim))
            for view in grads.arrays()[1:]:
                view += values.standard_normal(view.shape)
            grads.rows[rows] = True
            passes.scale(grads, 0.25)
            if clip_norm is not None:
                norms.append(passes.norm(grads))
                if norms[-1] > clip_norm:
                    passes.scale(grads, clip_norm / norms[-1])
            passes.adam(model, grads, state, TrainConfig(learning_rate=0.01))
            snapshots.append(b"".join(buf.flat.tobytes()
                                      for buf in (model.params, state.m, state.v)))
        return snapshots, norms, state

    @pytest.mark.parametrize("clip_norm", [None, 6.8, 1e-3],
                             ids=["unclipped", "sometimes-clipped", "clipped"])
    def test_a_row_touched_once_decays_at_every_later_step(self, clip_norm, monkeypatch):
        # row 5 has a gradient at the first step only; Adam still decays its
        # m and v at every later step (lazy Adam would not)
        monkeypatch.setattr(nn, "ADAM_BLOCK", 97)
        dims = nn.ModelDims(vocab_rows=500, embed_dim=8, hidden=5, classes=3, max_len=8)
        rng = np.random.default_rng(9)
        batches = [np.unique(np.r_[5, rng.integers(6, 500, 20)])] + [
            np.unique(rng.integers(6, 500, 20)) for _ in range(8)]
        dense, dense_norms, _ = self.row_steps(dims, batches, clip_norm, DENSE_PASSES)
        rows, row_norms, state = self.row_steps(dims, batches, clip_norm, ROW_PASSES)
        assert rows == dense and row_norms == dense_norms  # every bit, every step
        if clip_norm == 6.8:  # the norm crossed the bound both ways
            assert min(dense_norms) < clip_norm < max(dense_norms)
        # the state's mask is every row a batch touched
        touched = np.unique(np.concatenate(batches)).tolist()
        assert np.flatnonzero(state.rows).tolist() == touched
        m = state.m.views["embedding"]
        first = np.frombuffer(rows[0], np.float32)[state.m.flat.size:][5 * 8:6 * 8]
        npt.assert_allclose(m[5], first * trainer.BETA1 ** 8, rtol=1e-5)
        assert np.abs(first).min() > 0

    def test_a_non_finite_gradient_in_a_touched_row_changes_nothing(self, monkeypatch):
        # a NaN in a gathered row, in a tensor after the embedding, and in
        # both: the first in flat order is named, and nothing changes, the
        # state's mask included, though the gradient's mask holds a new row
        monkeypatch.setattr(nn, "ADAM_BLOCK", 97)
        dims = nn.ModelDims(vocab_rows=500, embed_dim=8, hidden=5, classes=3, max_len=8)
        rows = np.array([3, 40, 41, 250, 499])
        for bad in (["embedding"], ["backward_dir.U"], ["backward_dir.U", "embedding"]):
            model = nn.init_parameters(dims, seed=4)
            grads, state = nn.Gradients.zeros_like(model), AdamState.zeros_like(model)
            grads.views["embedding"][rows] = 0.5
            grads.views["head.b"][...] = 0.25
            grads.rows[rows] = True
            adam_update(model, grads, state, TrainConfig())  # m, v, t not zero
            grads.views["embedding"][7] = 0.5
            grads.rows[7] = True
            for name in bad:
                view = grads.views[name]
                view[250 if name == "embedding" else -1, 6 % view.shape[1]] = np.nan
            before = [a.copy() for a in (model.params.flat, state.m.flat, state.v.flat)]
            with pytest.raises(NumericError, match=f"tensor {bad[-1]}$"):
                adam_update(model, grads, state, TrainConfig())
            assert state.t == 1
            for a, b in zip((model.params.flat, state.m.flat, state.v.flat), before):
                assert a.tobytes() == b.tobytes()
            assert np.flatnonzero(state.rows).tolist() == rows.tolist()

    def test_a_row_step_allocates_only_chunk_sized_scratch(self):
        # 3,000, 5,000 and 7,000 rows of 100 elements, in 5 to 11 chunks of
        # 655 rows: the step's two scratch arrays and the four it gathers
        # into, however many rows, with the check's scratch freed before
        # them; besides, the call reads the row ids out of the masks (8
        # bytes a row), and merges the masks in place
        dims = nn.ModelDims(vocab_rows=20_000, embed_dim=100, hidden=4, classes=3,
                            max_len=8)
        model = nn.init_parameters(dims, seed=4)
        rng = np.random.default_rng(3)
        peaks = []
        for count in (3000, 3000, 5000, 7000):  # the first call warms up
            rows = np.sort(rng.choice(dims.vocab_rows, count, replace=False))
            grads, state = nn.Gradients.zeros_like(model), AdamState.zeros_like(model)
            grads.views["embedding"][rows] = 0.5
            grads.rows[rows] = True
            peaks.append(traced_peak(
                lambda: adam_update(model, grads, state, TrainConfig())))
        chunk = 4 * nn.ADAM_BLOCK
        assert peaks[1] > 6 * (chunk // 2)  # the scratch is there
        assert max(peaks[1:]) <= 6 * chunk + 8 * 7000 + 64 * 1024
        assert max(peaks[2:]) <= peaks[1] + 64 * 1024

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
                             ids=["deepcopy", "pickle"])
    def test_a_copied_gradient_steps_the_bytes_of_the_original(self, copier):
        # the copy's mask is its nonzero rows, not the rows backward set
        dims = nn.ModelDims(vocab_rows=400, embed_dim=8, hidden=5, classes=3, max_len=8)
        model = nn.init_parameters(dims, seed=4)
        _, trace = nn.forward([EncodedSequence(np.array([3, 40, 41, 399, 3]), 5)], model)
        grads = nn.backward(trace, [2])
        twin = copier(grads)
        assert twin.rows.tolist() == grads.rows.tolist() and twin.rows is not grads.rows
        steps = []
        for gradient in (grads, twin):
            params, state = copy.deepcopy(model), AdamState.zeros_like(model)
            for _ in range(2):
                adam_update(params, gradient, state, TrainConfig(learning_rate=0.01))
            steps.append([buf.flat.tobytes() for buf in (params.params, state.m, state.v)])
        assert steps[0] == steps[1]

    def test_step_counter_increments(self):
        model = self.tiny_model()
        state = AdamState.zeros_like(model)
        grads = nn.Gradients.zeros_like(model)
        for expected in (1, 2, 3):
            adam_update(model, grads, state, TrainConfig())
            assert state.t == expected


class TestTrain:
    def test_learns_keyword_corpus(self):
        split, vocab = build_setup(n_docs=180)
        model = nn.init_parameters(small_dims(vocab, embed=16, hidden=16), seed=4,
                                   labels=SYNTH_LABELS, vocab_digest=vocab.digest())
        config = TrainConfig(epochs=20, batch_size=8, learning_rate=0.005, seed=4)
        model, history = train(model, split, vocab, config)
        assert max(e.train_accuracy for e in history.epochs) >= 0.95
        assert len(history.epochs) == 20

    def test_deterministic_given_seed(self):
        split, vocab = build_setup(n_docs=60)
        config = TrainConfig(epochs=2, batch_size=8, seed=7)
        runs = []
        for _ in range(2):
            model = nn.init_parameters(small_dims(vocab), seed=7, labels=SYNTH_LABELS)
            model, history = train(model, split, vocab, config)
            runs.append((model, history))

        assert runs[0][1].to_list() == runs[1][1].to_list()
        for x, y in zip(runs[0][0].params.arrays(), runs[1][0].params.arrays()):
            npt.assert_array_equal(x, y)

    def test_equal_trainings_write_equal_history_bytes(self, tmp_path):
        # results only: no wall-clock field
        split, vocab = build_setup(n_docs=60)
        config = TrainConfig(epochs=2, batch_size=8, seed=7)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            model = nn.init_parameters(small_dims(vocab), seed=7, labels=SYNTH_LABELS)
            train(model, split, vocab, config)[1].save_json(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        records = json.loads(paths[0].read_text(encoding="utf-8"))
        assert [set(record) for record in records] == [
            {"epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"}] * 2

    def test_step_counter_matches_batches(self):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
        n = len(split.train)
        config = TrainConfig(epochs=3, batch_size=16, seed=1)
        # count optimizer steps through the epoch histories
        calls = []
        orig = adam_update

        model, history = train(model, split, vocab, config)
        assert len(history.epochs) == 3
        # ceil(n / batch) * epochs updates -> verify via a fresh run with callback
        expected_steps = math.ceil(n / 16) * 3
        model2 = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
        import lexseq.trainer as trainer_mod
        seen = {"t": 0}

        def spy(params, grads, state, cfg):
            result = orig(params, grads, state, cfg)
            seen["t"] = state.t
            return result

        trainer_mod_adam = trainer_mod.adam_update
        trainer_mod.adam_update = spy
        try:
            train(model2, split, vocab, config)
        finally:
            trainer_mod.adam_update = trainer_mod_adam
        assert seen["t"] == expected_steps

    def test_random_labels_keep_first_epoch_loss_near_log6(self):
        split, vocab = build_setup(n_docs=240, shuffle_labels=True)
        model = nn.init_parameters(small_dims(vocab), seed=2, labels=SYNTH_LABELS)
        config = TrainConfig(epochs=1, batch_size=64, seed=2)
        _, history = train(model, split, vocab, config)
        assert history.epochs[0].train_loss == pytest.approx(math.log(6), rel=0.10)

    def test_document_without_tokens_is_named(self):
        split, vocab = build_setup(n_docs=60)
        blank = Document("blank-7", " ... ", split.train[0].label)
        with_blank = SplitDataset(train=split.train, validation=(blank,) + split.validation,
                                  test=split.test)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match="'blank-7'.*empty"):
            train(model, with_blank, vocab, TrainConfig(epochs=1))

    def test_token_outside_the_table_names_the_document(self):
        split, vocab = build_setup(n_docs=60)
        dims = nn.ModelDims(vocab_rows=4, embed_dim=4, hidden=3, classes=6, max_len=40)
        model = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match=r"document 'doc-.*': token id \d+ outside"):
            train(model, split, vocab, TrainConfig(epochs=1))

    def test_lockstep_groups_keep_the_training_deterministic(self):
        # a mini-batch larger than a lockstep group gives the same bytes twice
        split, vocab = build_setup(n_docs=120)
        assert len(split.train) > trainer.GROUP_DOCS
        blobs = []
        for _ in range(2):
            model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
            train(model, split, vocab, TrainConfig(epochs=2, batch_size=64, seed=1))
            blobs.append(b"".join(arr.tobytes() for arr in model.params.arrays()))
        assert blobs[0] == blobs[1]

    def test_training_and_inference_run_on_the_calling_thread(self, monkeypatch):
        # every pass over blocks of 97, so Adam, zero_, scale_ and global_norm
        # each cross several blocks, and projections of 4 rows per chunk
        monkeypatch.setattr(nn, "ADAM_BLOCK", 97)
        monkeypatch.setattr(nn, "PROJECTION_ROWS", 4)
        # perfbench/tracing.py wraps these and keeps one span stack, so no
        # other thread may call them
        callers = set()

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                callers.add(threading.get_ident())
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in [(trainer, "forward"), (trainer, "backward"),
                            (trainer, "adam_update"), (trainer, "map_forward"),
                            (nn.Gradients, "zero_"), (nn.Gradients, "scale_"),
                            (nn.Gradients, "global_norm")]:
            spy(owner, name)
        split, vocab = build_setup(n_docs=60)
        threads = threading.enumerate()
        model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
        train(model, split, vocab, TrainConfig(epochs=2, batch_size=8, seed=1, clip_norm=1e-3))
        assert threading.enumerate() == threads
        seqs = [trainer.encode_document(doc, vocab, model.dims.max_len) for doc in split.test]
        trainer.map_forward(model, seqs)
        assert threading.enumerate() == threads
        assert callers == {threading.get_ident()}

    def test_no_zero_runs_before_the_first_backward_of_a_call(self, monkeypatch):
        # zeros_like has just zeroed the buffer; each later batch clears only
        # the rows of the batch before it, which its mask holds
        events = []
        zero_, backward = nn.Gradients.zero_, trainer.backward
        monkeypatch.setattr(nn.Gradients, "zero_",
                            lambda grads: events.append(grads.rows.copy()) or zero_(grads))
        monkeypatch.setattr(trainer, "backward",
                            lambda *args, **kw: events.append("backward") or backward(*args, **kw))
        split, vocab = build_setup(n_docs=60)
        batches = math.ceil(len(split.train) / 8)
        for _ in range(2):  # every call starts on a fresh buffer
            events.clear()
            model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
            train(model, split, vocab, TrainConfig(epochs=2, batch_size=8, seed=1))
            assert events[0] == "backward"
            zeros = [mask for mask in events if not isinstance(mask, str)]
            assert len(zeros) == 2 * batches - 1
            assert all(mask.any() for mask in zeros)

    @staticmethod
    def adam_gradients(monkeypatch, clip_norm):
        """The gradient buffer each Adam step of a one-epoch run receives."""
        seen = []

        def spy(model, grads, state, cfg):
            seen.append(grads.flat.copy())
            return adam_update(model, grads, state, cfg)

        monkeypatch.setattr(trainer, "adam_update", spy)
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
        train(model, split, vocab,
              TrainConfig(epochs=1, batch_size=8, seed=1, clip_norm=clip_norm))
        return seen

    def test_clip_norm_scales_a_larger_norm_to_the_bound(self, monkeypatch):
        free = self.adam_gradients(monkeypatch, None)
        assert min(np.linalg.norm(g.astype(np.float64)) for g in free) > 1e-3
        clipped = self.adam_gradients(monkeypatch, 1e-3)
        assert len(clipped) == len(free)
        for g in clipped:
            assert np.linalg.norm(g.astype(np.float64)) == pytest.approx(1e-3, rel=1e-6)

    def test_clip_norm_leaves_a_smaller_norm_bit_identical(self, monkeypatch):
        free = self.adam_gradients(monkeypatch, None)
        assert max(np.linalg.norm(g.astype(np.float64)) for g in free) < 1e3
        for a, b in zip(self.adam_gradients(monkeypatch, 1e3), free, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_empty_train_partition_rejected(self):
        split, vocab = build_setup(n_docs=60)
        empty = SplitDataset(train=(), validation=split.validation, test=split.test)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match="empty"):
            train(model, empty, vocab, TrainConfig(epochs=1))

    def test_best_validation_checkpoint_written(self, tmp_path):
        split, vocab = build_setup(n_docs=120)
        ckpt = tmp_path / "model.ckpt"
        model = nn.init_parameters(small_dims(vocab), seed=3, labels=SYNTH_LABELS,
                                   vocab_digest=vocab.digest())
        config = TrainConfig(epochs=4, batch_size=16, seed=3,
                             checkpoint_path=str(ckpt))
        final_model, history = train(model, split, vocab, config)
        assert ckpt.exists()
        best, _ = load_checkpoint(ckpt, vocab=vocab)
        best_epoch = max(history.epochs, key=lambda e: e.val_accuracy)
        # the stored model reproduces the best validation accuracy
        val_docs = list(split.validation)
        report = evaluate(best, val_docs, vocab)
        assert report.accuracy == pytest.approx(best_epoch.val_accuracy)

    def test_a_stopped_run_leaves_its_best_epoch_so_far(self, tmp_path):
        split, vocab = build_setup(n_docs=60)
        epochs = 5

        def run(model, path, on_epoch):
            config = TrainConfig(epochs=epochs, batch_size=8, seed=1, learning_rate=0.01,
                                 checkpoint_path=str(path))
            return train(model, split, vocab, config, on_epoch=on_epoch)[1]

        def fresh_model():
            return nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS,
                                      vocab_digest=vocab.digest())

        model, epoch_bytes = fresh_model(), {}

        def keep(record):  # the model after each epoch, as a checkpoint
            save_checkpoint(model, tmp_path / "epoch.ckpt")
            epoch_bytes[record.epoch] = (tmp_path / "epoch.ckpt").read_bytes()

        history = run(model, tmp_path / "full.ckpt", keep)
        accuracy = [e.val_accuracy for e in history.epochs]
        # the run has a drop and a tie, so the last epoch is not always the best
        assert len(set(accuracy)) < epochs and accuracy != sorted(accuracy)

        class Stop(Exception):
            pass

        for k in range(1, epochs + 1):
            def stop(record):
                if record.epoch == k:
                    raise Stop

            with pytest.raises(Stop):
                run(fresh_model(), tmp_path / f"stopped{k}.ckpt", stop)
            # max() keeps the first of equal accuracies: ties keep the earlier epoch
            best = max(range(1, k + 1), key=lambda e: accuracy[e - 1])
            assert (tmp_path / f"stopped{k}.ckpt").read_bytes() == epoch_bytes[best]
        assert (tmp_path / "full.ckpt").read_bytes() == epoch_bytes[best]

    def test_without_validation_the_model_is_written_once_at_the_end(
            self, tmp_path, monkeypatch):
        split, vocab = build_setup(n_docs=60)
        no_validation = SplitDataset(train=split.train, validation=(), test=split.test)
        saved = []
        real_save = trainer.save_checkpoint
        monkeypatch.setattr(trainer, "save_checkpoint",
                            lambda *args, **kw: saved.append(args[1]) or real_save(*args, **kw))
        path = tmp_path / "model.ckpt"
        model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
        config = TrainConfig(epochs=3, batch_size=8, seed=1, checkpoint_path=str(path))
        final, history = train(model, no_validation, vocab, config)
        assert saved == [str(path)]
        assert all(e.val_accuracy is None for e in history.epochs)
        real_save(final, tmp_path / "final.ckpt")
        assert path.read_bytes() == (tmp_path / "final.ckpt").read_bytes()


class TestRowPasses:
    """train() runs zero_, scale_, global_norm and Adam over the embedding
    rows of the gradient's and the state's masks; every byte must be that
    of the dense references over the whole buffers (see conftest)."""

    @staticmethod
    def long_setup():
        # 60-token documents over 1000 words: every row of a group runs at
        # every step, so BPTT can leave early, and a batch of 3 touches about
        # a sixth of the embedding rows
        rng = random.Random(11)
        words = [f"w{i}" for i in range(1000)]
        docs = tuple(Document(f"d{i}", " ".join(rng.choices(words, k=60)), i % 3)
                     for i in range(21))
        split = SplitDataset(docs[:15], docs[15:], ())
        return split, build_vocabulary(iter_tokens(d.text for d in docs))

    @staticmethod
    def spy_walks(monkeypatch):
        """A list that gets, for each pass nn._walk runs, "gathered" if it
        gathered rows, or "tail" if it walked only the tensors after the
        embedding; rows come first, and every walk has a tail."""
        walk, walks = nn._walk, []

        def spy(bufs, mask, writes=()):
            parts = walk(bufs, mask, writes)
            first = next(parts)
            walks.append("tail" if isinstance(first[0], slice) else "gathered")
            yield first
            yield from parts

        monkeypatch.setattr(nn, "_walk", spy)
        return walks

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    @pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["unclipped", "clipped"])
    def test_row_passes_train_the_bytes_of_the_whole_buffers(self, activation, clip_norm,
                                                             monkeypatch):
        monkeypatch.setattr(nn, "ADAM_BLOCK", 97)  # chunks of 12 rows
        split, vocab = self.long_setup()
        dims = nn.ModelDims(vocab_rows=vocab.id_count, embed_dim=8, hidden=8, classes=3,
                            max_len=64)
        steps, calls, adam_rows, states = [], [], [], []
        backward, phi_derivative = trainer.backward, nn._phi_derivative

        def backward_spy(trace, targets, out):
            steps.append(len(trace.steps))
            return backward(trace, targets, out=out)

        monkeypatch.setattr(trainer, "backward", backward_spy)
        monkeypatch.setattr(nn, "_phi_derivative",  # twice per BPTT step
                            lambda *args: calls.append(1) or phi_derivative(*args))
        walks = self.spy_walks(monkeypatch)
        results = []
        for dense in (False, True):
            if dense:  # the whole-buffer expressions, which walk nothing
                for name, reference in (("zero_", dense_zero), ("scale_", dense_scale),
                                        ("global_norm", dense_norm)):
                    monkeypatch.setattr(nn.Gradients, name, reference)
                monkeypatch.setattr(trainer, "adam_update", dense_adam)
            step = trainer.adam_update

            def adam_spy(model, grads, state, cfg, step=step):
                states.append(state)
                rows = np.flatnonzero(grads.rows)
                result = step(model, grads, state, cfg)
                adam_rows.append((rows, np.flatnonzero(state.rows)))
                return result

            monkeypatch.setattr(trainer, "adam_update", adam_spy)
            model = nn.init_parameters(dims, seed=3, labels=("a", "b", "c"),
                                       activation=activation)
            for direction in nn.DIRECTIONS:  # forget gates near 0.12
                model.params.views[f"{direction}.b"][8:16] = -2.0
            train(model, split, vocab,
                  TrainConfig(epochs=3, batch_size=3, seed=2, clip_norm=clip_norm))
            assert ("gathered" in walks) != dense
            walks.clear()
            results.append(b"".join(buf.flat.tobytes() for buf in
                                    (model.params, states[-1].m, states[-1].v)))
            assert states[-1].t == 15
        assert results[0] == results[1]
        assert len(calls) // 2 < sum(steps)  # BPTT left early
        rows, moment_rows = adam_rows[0]
        assert moment_rows.size == rows.size < vocab.id_count / 3
        # rows touched before but not by this batch, which still decay
        assert any(np.setdiff1d(moment_rows, rows).size for rows, moment_rows in adam_rows[1:15])

    @staticmethod
    def pass_steps(model, batches, clip_norm, passes):
        """Run ``passes`` (ROW_PASSES or DENSE_PASSES) as train() runs the
        buffer passes, on each batch's gradient: backward over documents of
        the batch's row ids (row 0, PAD, is no token), or a gradient after
        the embedding only for a batch of no rows, plus a planted value in
        each of its rows, which the gradient's mask takes. The bytes of the
        parameters, m and v after every step, and the norms."""
        dims = model.dims
        grads, state = nn.Gradients.zeros_like(model), AdamState.zeros_like(model)
        planted = np.random.default_rng(10)
        snapshots, norms = [], []
        for rows in batches:
            if state.t:
                passes.zero(grads)
            tokens = rows[rows > 0]
            if tokens.size:
                docs = np.array_split(tokens, -(-tokens.size // dims.max_len))
                _, trace = nn.forward([EncodedSequence(doc, doc.size) for doc in docs], model)
                nn.backward(trace, [k % dims.classes for k in range(len(docs))], out=grads)
            else:
                for view in grads.arrays()[1:]:
                    view += 0.5
            grads.views["embedding"][rows] += planted.standard_normal((rows.size, dims.embed_dim))
            grads.rows[rows] = True
            passes.scale(grads, 1 / 3)
            if clip_norm is not None:
                norms.append(passes.norm(grads))
                if norms[-1] > clip_norm:
                    passes.scale(grads, clip_norm / norms[-1])
            passes.adam(model, grads, state, TrainConfig(learning_rate=0.01))
            snapshots.append(b"".join(buf.flat.tobytes()
                                      for buf in (model.params, state.m, state.v)))
        return snapshots, norms

    VOCAB_ROWS = 12_000  # 144,000 embedding elements of 12 a row: 3 blocks
    SAMPLE = np.random.default_rng(12).permutation(np.arange(4, 12_000))
    CASES = {
        "edges": [[0, 1, VOCAB_ROWS - 1], [1, 2, 3]],
        # rows 5461 and 10922 straddle the ends of blocks 0 and 1
        "straddling": [[5460, 5461, 5462], [10922]],
        # 50 rows in chunks of 3 (ADAM_BLOCK 40), then 50 others
        "chunks": [SAMPLE[:50], SAMPLE[50:100]],
        # a batch of no rows after one of three
        "empty": [[7, 8, 9], []],
        # every row, then one: every later step walks every row of the state
        "every": [np.arange(VOCAB_ROWS), [3]],
    }

    @pytest.mark.parametrize("activation", nn.ACTIVATIONS)
    @pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_gathered_passes_keep_the_bytes_of_the_whole_buffers(
            self, case, clip_norm, activation, monkeypatch):
        if case == "chunks":
            monkeypatch.setattr(nn, "ADAM_BLOCK", 40)
        batches = [np.unique(np.asarray(rows, np.int64)) for rows in self.CASES[case]]
        dims = nn.ModelDims(vocab_rows=self.VOCAB_ROWS, embed_dim=12, hidden=4,
                            classes=3, max_len=64)
        walks = self.spy_walks(monkeypatch)
        results = []
        for passes in (DENSE_PASSES, ROW_PASSES):
            model = nn.init_parameters(dims, seed=5, activation=activation)
            results.append(self.pass_steps(model, batches, clip_norm, passes))
        assert "gathered" in walks
        assert ("tail" in walks) == (case == "empty")
        assert results[0] == results[1]  # every bit, every step


    OPS = st.one_of(st.tuples(st.just("backward"), st.integers(0, 2**32 - 1)),
                    st.tuples(st.sampled_from(["zero", "adam"]), st.none()),
                    st.tuples(st.just("scale"), st.sampled_from([0.5, 1e-3])),
                    st.tuples(st.just("nan"), st.integers(0, 299)))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(nn.ACTIVATIONS), st.lists(OPS, min_size=1, max_size=10))
    def test_the_masks_hold_every_nonzero_row(self, activation, ops):
        """Through backward calls into one buffer, with BPTT leaving early,
        and runs of zero_, scale_ and adam_update, every embedding row with
        a nonzero gradient is in the gradient's mask and every row with a
        nonzero m or v in the state's; a non-finite gradient leaves the
        state's mask as it was."""
        dims = nn.ModelDims(vocab_rows=300, embed_dim=3, hidden=4, classes=3, max_len=80)
        model = nn.init_parameters(dims, seed=1, activation=activation)
        for direction in nn.DIRECTIONS:  # forget gates near 0.12: BPTT leaves
            model.params.views[f"{direction}.b"][4:8] = -2.0  # 5 to 26 steps early
        grads, state = nn.Gradients.zeros_like(model), AdamState.zeros_like(model)
        for op, arg in ops:
            if op == "backward":  # one to three documents of 50 to 80 tokens
                rng = np.random.default_rng(arg)
                lengths = rng.integers(50, 81, rng.integers(1, 4))
                seqs = [EncodedSequence(ids, ids.size)
                        for ids in (rng.integers(1, 300, n) for n in lengths)]
                _, trace = nn.forward(seqs, model)
                nn.backward(trace, [k % 3 for k in range(len(seqs))], out=grads)
            elif op == "zero":
                grads.zero_()
            elif op == "scale":
                grads.scale_(arg)
            elif op == "adam":
                adam_update(model, grads, state, TrainConfig(learning_rate=0.01))
            else:  # a NaN in row arg of a copy of the gradient, its mask set
                bad = nn.Gradients(dims, model.dtype, grads.flat)
                bad.rows |= grads.rows
                bad.rows[arg] = True
                bad.views["embedding"][arg, 0] = np.nan
                before = state.rows.copy()
                with pytest.raises(NumericError, match="tensor embedding$"):
                    adam_update(model, bad, state, TrainConfig())
                assert (state.rows == before).all()
            for buf, mask in ((grads, grads.rows), (state.m, state.rows), (state.v, state.rows)):
                assert not (buf.views["embedding"].any(axis=1) & ~mask).any(), op


class TestCheckpoint:
    def roundtrip_model(self, tmp_path, state=None):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=9, labels=SYNTH_LABELS,
                                   vocab_digest=vocab.digest())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, state=state)
        return model, path, vocab, split

    def test_roundtrip_forward_identical(self, tmp_path):
        model, path, vocab, split = self.roundtrip_model(tmp_path)
        loaded, state = load_checkpoint(path, vocab=vocab)
        assert state is None
        for a, b in zip(model.params.arrays(), loaded.params.arrays()):
            npt.assert_array_equal(a, b)
        from lexseq.tokenizer import encode_text
        for doc in list(split.train)[:100]:
            seq = encode_text(doc.text, vocab, model.dims.max_len)
            p1, _ = nn.forward([seq], model)
            p2, _ = nn.forward([seq], loaded)
            npt.assert_array_equal(p1, p2)

    def test_adam_state_roundtrip(self, tmp_path):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=9, labels=SYNTH_LABELS)
        state = AdamState.zeros_like(model)
        for arr in state.m.arrays() + state.v.arrays():
            arr += 0.25
        state.rows[:] = True  # every row planted
        state.t = 17
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, state=state)
        _, loaded_state = load_checkpoint(path)
        assert loaded_state is not None and loaded_state.t == 17
        assert loaded_state.rows.all()
        for a, b in zip(state.m.arrays() + state.v.arrays(),
                        loaded_state.m.arrays() + loaded_state.v.arrays()):
            npt.assert_array_equal(a, b)

    def test_a_loaded_state_masks_its_nonzero_rows_and_steps_the_bytes_of_the_live_one(
            self, tmp_path, monkeypatch):
        # a few hundred of 3,000 embedding rows touched, in chunks of 12
        # rows: the loaded state's mask, the rows where m or v is nonzero,
        # is the live state's, the rows a batch touched
        monkeypatch.setattr(nn, "ADAM_BLOCK", 97)
        dims = nn.ModelDims(vocab_rows=3000, embed_dim=8, hidden=5, classes=3, max_len=40)
        model = nn.init_parameters(dims, seed=6)
        state = AdamState.zeros_like(model)
        rng = np.random.default_rng(6)

        def gradient():
            seqs = [EncodedSequence(ids, ids.size) for ids in
                    (rng.integers(1, 3000, 40) for _ in range(3))]
            _, trace = nn.forward(seqs, model)
            return nn.backward(trace, [0, 1, 2])

        for _ in range(3):
            adam_update(model, gradient(), state, TrainConfig(learning_rate=0.01))
        assert 0 < state.rows.sum() < dims.vocab_rows / 4
        save_checkpoint(model, tmp_path / "model.ckpt", state)
        loaded, loaded_state = load_checkpoint(tmp_path / "model.ckpt")
        assert loaded_state.rows is not state.rows
        assert loaded_state.rows.tolist() == state.rows.tolist()
        grads = gradient()
        steps = []
        for params, adam in ((model, state), (loaded, loaded_state)):
            adam_update(params, grads, adam, TrainConfig(learning_rate=0.01))
            steps.append([buf.flat.tobytes() for buf in (params.params, adam.m, adam.v)])
        assert steps[0] == steps[1]
        assert loaded_state.rows.tolist() == state.rows.tolist()

    def test_a_loaded_state_masks_the_rows_where_m_or_v_is_nonzero(self, tmp_path):
        dims = nn.ModelDims(vocab_rows=20, embed_dim=3, hidden=2, classes=2, max_len=8)
        model = nn.init_parameters(dims, seed=1)
        state = AdamState.zeros_like(model)
        state.m.views["embedding"][3, 2] = -1e-30  # m alone
        state.v.views["embedding"][7, 0] = 1e-45  # v alone, subnormal
        state.m.views["embedding"][11] = state.v.views["embedding"][11] = 0.5
        state.m.views["head.b"][...] = 0.5  # no embedding row
        save_checkpoint(model, tmp_path / "model.ckpt", state)
        _, loaded = load_checkpoint(tmp_path / "model.ckpt")
        assert np.flatnonzero(loaded.rows).tolist() == [3, 7, 11]

    @pytest.mark.parametrize("what", ["model", "Adam state"])
    def test_a_model_or_state_not_in_float32_is_refused_before_anything_is_written(
            self, tmp_path, what):
        # a float64 model written as float32 would load as another model
        dims = nn.ModelDims(vocab_rows=12, embed_dim=4, hidden=3, classes=3, max_len=8)
        model, wide = (nn.init_parameters(dims, seed=3, dtype=dtype)
                       for dtype in (np.float32, np.float64))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        model, state = (wide, None) if what == "model" else (model, AdamState.zeros_like(wide))
        with pytest.raises(ValueError, match=f"cannot save a float64 {what}:"):
            save_checkpoint(model, path, state)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_truncated_payload(self, tmp_path):
        _, path, vocab, _ = self.roundtrip_model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(DataError, match="truncated payload"):
            load_checkpoint(path)

    def test_vocabulary_digest_mismatch(self, tmp_path):
        _, path, vocab, _ = self.roundtrip_model(tmp_path)
        other = build_vocabulary(iter(["um", "dois", "um"]), cap=10)
        with pytest.raises(DataError, match="digest mismatch"):
            load_checkpoint(path, vocab=other)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        model, path, vocab, _ = self.roundtrip_model(tmp_path)
        second = tmp_path / "again.ckpt"
        save_checkpoint(model, second)
        assert path.read_bytes() == second.read_bytes()

    def test_bytes_do_not_depend_on_the_weight_layout(self, tmp_path):
        # W and U are held Fortran-ordered and stored C-ordered
        _, path, vocab, _ = self.roundtrip_model(tmp_path)
        loaded, _ = load_checkpoint(path, vocab=vocab)
        for direction in nn.DIRECTIONS:
            assert loaded.params.views[f"{direction}.W"].flags.f_contiguous
            assert loaded.params.views[f"{direction}.U"].flags.f_contiguous

    def test_on_disk_format_is_pinned(self, tmp_path):
        # sha256 of what the per-tensor layout wrote before the flat buffer
        dims = nn.ModelDims(vocab_rows=12, embed_dim=4, hidden=3, classes=3, max_len=8)
        model = nn.init_parameters(dims, seed=3)
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c3633d92a6c29b18feef7ed27ae4293aca4380410851bbf4355882f9a1c32998")
        grads = nn.Gradients.zeros_like(model)
        for g, arr in zip(grads.arrays(), nn.init_parameters(dims, seed=4).params.arrays()):
            g[...] = arr
        grads.rows[:] = True  # every row planted
        state = AdamState.zeros_like(model)
        for _ in range(3):
            adam_update(model, grads, state, TrainConfig())
        save_checkpoint(model, path, state=state)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "5099552c639f823d8bf92fe5a7113c0fa76c4647b1b86198a8b1bf038d1d0737")
        loaded, loaded_state = load_checkpoint(path)
        save_checkpoint(loaded, tmp_path / "again.ckpt", state=loaded_state)
        assert (tmp_path / "again.ckpt").read_bytes() == blob

    @staticmethod
    def rewrite_header(path, edit):
        blob = path.read_bytes()
        start = len(trainer.CHECKPOINT_MAGIC)
        newline = blob.index(b"\n", start)
        header = edit(json.loads(blob[start:newline]))
        path.write_bytes(blob[:start] + json.dumps(header).encode() + blob[newline:])

    @pytest.mark.parametrize("edit", [
        lambda h: {**h, "dims": {**h["dims"], "vocab_rows": 2}},
        lambda h: {**h, "labels": h["labels"][:-1]},
        lambda h: {**h, "activation": "sigmoid"},
        lambda h: [h],
        lambda h: {**h, "labels": h["labels"][:1] + h["labels"][:-1]},
        lambda h: {**h, "labels": list(range(len(h["labels"])))},
        lambda h: {**h, "labels": "abcdef"},
        lambda h: {**h, "labels": [""] + h["labels"][1:]},
    ], ids=["vocab-rows-2", "label-count", "unknown-activation", "json-list",
            "duplicate-labels", "integer-labels", "string-labels", "empty-label"])
    def test_malformed_header_is_data_error_naming_the_file(self, tmp_path, edit):
        _, path, _, _ = self.roundtrip_model(tmp_path)
        self.rewrite_header(path, edit)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_directory_is_a_data_error_naming_it(self, tmp_path):
        with pytest.raises(DataError, match=f"cannot read input path {tmp_path}: "):
            load_checkpoint(tmp_path)

    def test_header_too_deep_for_the_parser_is_malformed(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        path.write_bytes(trainer.CHECKPOINT_MAGIC + b"[" * 100_000 + b"\n")
        with pytest.raises(DataError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_failed_save_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        model, path, _, _ = self.roundtrip_model(tmp_path)
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(trainer.os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    """A small checkpoint with Adam state, and a scratch path for variants."""
    dims = nn.ModelDims(vocab_rows=5, embed_dim=2, hidden=2, classes=2, max_len=4)
    model = nn.init_parameters(dims, seed=1)
    state = AdamState.zeros_like(model)
    grads = nn.Gradients.zeros_like(model)
    for view in grads.arrays():
        view[...] = np.linspace(-1.0, 1.0, view.size).reshape(view.shape)
    grads.rows[:] = True  # every row planted
    adam_update(model, grads, state, TrainConfig())
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(model, path, state=state)
    blob = path.read_bytes()
    return blob, blob.index(b"\n"), path


class TestCheckpointFuzz:
    """A damaged checkpoint either loads or raises DataError."""

    def test_every_truncation_is_a_data_error(self, fuzz_checkpoint):
        blob, _, path = fuzz_checkpoint
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(DataError):
                load_checkpoint(path)

    def test_every_header_bit_flip_loads_or_is_a_data_error(self, fuzz_checkpoint):
        blob, newline, path = fuzz_checkpoint
        for bit in range(8 * (newline + 1)):
            load_variant(load_checkpoint, path, flip_bit(blob, bit))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_payload_bit_flip_loads_and_round_trips(self, fuzz_checkpoint, data):
        blob, newline, path = fuzz_checkpoint
        flipped = flip_bit(blob, data.draw(st.integers(8 * (newline + 1), 8 * len(blob) - 1)))
        loaded = load_variant(load_checkpoint, path, flipped)
        assert loaded is not None
        model, state = loaded
        save_checkpoint(model, path, state=state)
        assert path.read_bytes() == flipped

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, fuzz_checkpoint, data):
        blob, _, path = fuzz_checkpoint
        flipped = flip_bit(blob, data.draw(st.integers(0, 8 * len(blob) - 1)))
        load_variant(load_checkpoint, path, flipped[:data.draw(st.integers(0, len(blob)))])


    def test_cut_at_every_tensor_boundary_is_a_truncated_payload(
            self, fuzz_checkpoint, monkeypatch):
        blob, newline, path = fuzz_checkpoint
        path.write_bytes(blob)
        model, state = load_checkpoint(path)
        sizes = [a.nbytes for a in model.params.arrays() + state.m.arrays()
                 + state.v.arrays()]
        starts = newline + 1 + np.cumsum([0] + sizes[:-1])
        cuts = sorted({int(s) + d for s in starts for d in (-1, 0, 1)})
        for cut in cuts:
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="truncated payload"):
                load_checkpoint(path)
        # the same cuts in a file that shrinks after its size was checked
        monkeypatch.setattr(trainer.os, "fstat",
                            lambda fd: types.SimpleNamespace(st_size=len(blob)))
        for cut in cuts:
            path.write_bytes(blob[:cut])
            with pytest.raises(DataError, match="truncated payload"):
                load_checkpoint(path)

    def test_big_endian_host_swaps_every_tensor(self, fuzz_checkpoint, monkeypatch):
        blob, _, path = fuzz_checkpoint
        path.write_bytes(blob)
        model, state = load_checkpoint(path)
        monkeypatch.setattr(trainer.sys, "byteorder", "big")
        swapped, swapped_state = load_checkpoint(path)
        for ours, theirs in [(model.params, swapped.params), (state.m, swapped_state.m),
                             (state.v, swapped_state.v)]:
            assert theirs.flat.tobytes() == ours.flat.byteswap().tobytes()


class TestMemoryBound:
    """Peak memory is the parameter buffers plus O(ADAM_BLOCK): no code path
    makes a transient copy of the model."""

    dims = nn.ModelDims(vocab_rows=100_002, embed_dim=32, hidden=8, classes=6, max_len=40)
    param_bytes = 4 * nn.param_size(dims)

    def test_init_parameters(self):
        peak = traced_peak(lambda: nn.init_parameters(self.dims, seed=1))
        assert peak <= 1.25 * self.param_bytes

    @pytest.mark.parametrize("adam", [False, True], ids=["params", "with-adam-state"])
    def test_load_checkpoint(self, tmp_path, adam):
        model = nn.init_parameters(self.dims, seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, state=AdamState.zeros_like(model) if adam else None)
        del model
        assert traced_peak(lambda: load_checkpoint(path)) <= 1.1 * path.stat().st_size

    def test_one_epoch_of_train(self, tmp_path):
        split, vocab = build_setup(n_docs=120)
        model = nn.init_parameters(self.dims, seed=1, labels=SYNTH_LABELS)
        config = TrainConfig(epochs=1, batch_size=16, seed=3,
                             checkpoint_path=str(tmp_path / "model.ckpt"))
        # m, v and the gradients are three copies of the parameters; the
        # trace of a group of these 10-16-token documents at hidden 8 and
        # Adam's block scratch are a few percent of one copy, so a fourth
        # copy cannot fit under the bound
        peak = traced_peak(lambda: train(model, split, vocab, config))
        assert peak < 3.5 * self.param_bytes

    def test_no_trace_outlives_its_backward(self, monkeypatch):
        # one training group of 400-token documents at hidden 64, whose trace
        # is about 20 times the parameters, and validation documents as long
        rng = random.Random(7)
        words = [f"w{i}" for i in range(1998)]

        def documents(first):
            return tuple(Document(f"d{first + i}", " ".join(rng.choices(words, k=400)),
                                  i % 2) for i in range(8))

        split = SplitDataset(documents(0), documents(100), ())
        vocab = build_vocabulary(iter_tokens(d.text for d in split.train + split.validation))
        dims = nn.ModelDims(vocab_rows=vocab.id_count, embed_dim=32, hidden=64,
                            classes=2, max_len=400)
        model = nn.init_parameters(dims, seed=1, labels=("a", "b"))
        _, trace = nn.forward([trainer.encode_document(doc, vocab, dims.max_len)
                               for doc in split.train], model)
        trace_bytes = sum(a.nbytes for a in (trace.tokens, trace.gates, trace.c, trace.h))
        del trace
        buffers = 3 * 4 * nn.param_size(dims)  # the gradients, m and v
        assert trace_bytes > 15 * buffers / 3

        before_adam = []
        adam_update = trainer.adam_update

        def reset_peak_at_the_first_step(*args):
            if not before_adam:
                before_adam.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return adam_update(*args)

        monkeypatch.setattr(trainer, "adam_update", reset_peak_at_the_first_step)
        config = TrainConfig(epochs=1, batch_size=8, seed=3)
        from_adam_on = traced_peak(lambda: train(model, split, vocab, config))
        # BPTT writes dz over the trace's gates, so it holds one trace and
        # step-sized buffers (1.1 traces); a dz array of its own would add
        # two thirds of a trace
        assert before_adam[0] < buffers + 1.25 * trace_bytes, (
            (before_adam[0] - buffers) / trace_bytes)
        # Adam's step and validation, whose forward keeps no trace, run
        # after the training trace is released
        assert from_adam_on < buffers + 0.5 * trace_bytes


class TestHeadOverflow:
    """A model whose logits overflow on finite states: forward's check
    stops every path that reads probabilities."""

    MESSAGE = r"^document 'doc-\d-\d{3}': non-finite class probabilities$"

    def overflowing_setup(self):
        split, vocab = build_setup(n_docs=60)
        model = overflow_head(nn.init_parameters(small_dims(vocab, hidden=3), seed=0,
                                                 labels=SYNTH_LABELS))
        return split, vocab, model

    def test_map_forward_and_evaluate_raise(self):
        split, vocab, model = self.overflowing_setup()
        seqs = [trainer.encode_document(doc, vocab, model.dims.max_len)
                for doc in split.test]
        with pytest.raises(NumericError, match=self.MESSAGE):
            trainer.map_forward(model, seqs, [doc.id for doc in split.test])
        with pytest.raises(NumericError, match=self.MESSAGE):
            evaluate(model, list(split.test), vocab)

    def test_train_raises_and_writes_no_checkpoint(self, tmp_path):
        split, vocab, model = self.overflowing_setup()
        ckpt = tmp_path / "model.ckpt"
        config = TrainConfig(epochs=1, batch_size=8, seed=0, checkpoint_path=str(ckpt))
        with pytest.raises(NumericError, match=self.MESSAGE):
            train(model, split, vocab, config)
        assert not ckpt.exists()


class TestEvaluate:
    def test_uniform_model_predicts_class_zero(self):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        for arr in model.params.arrays():
            arr[...] = 0
        docs = list(split.test)
        report = evaluate(model, docs, vocab)
        predicted_col = report.counts.sum(axis=0)
        assert predicted_col[0] == len(docs)
        assert predicted_col[1:].sum() == 0

    def test_perfect_model_diagonal(self):
        # train to convergence on a small corpus; a perfect model must
        # produce accuracy 1.0 and an exactly diagonal matrix
        split, vocab = build_setup(n_docs=120)
        model = nn.init_parameters(small_dims(vocab, embed=24, hidden=24), seed=4,
                                   labels=SYNTH_LABELS)
        config = TrainConfig(epochs=20, batch_size=8, learning_rate=0.005, seed=4)
        model, history = train(model, split, vocab, config)
        train_docs = list(split.train)
        report = evaluate(model, train_docs, vocab)
        assert report.accuracy == 1.0
        off_diagonal = report.counts.sum() - np.trace(report.counts)
        assert off_diagonal == 0

    def test_empty_input_rejected(self):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError):
            evaluate(model, [], vocab)

    def test_document_without_tokens_is_named(self):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        docs = list(split.test) + [Document("blank-3", "", split.test[0].label)]
        with pytest.raises(DataError, match="'blank-3'.*empty"):
            evaluate(model, docs, vocab)

    def test_unlabeled_doc_rejected(self):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match="unlabeled"):
            evaluate(model, [Document("u", "texto", None)], vocab)

    def test_batch_composition_does_not_change_results(self):
        split, vocab = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=5, labels=SYNTH_LABELS)
        docs = list(split.train)
        bulk = evaluate(model, docs, vocab)
        reversed_docs = evaluate(model, docs[::-1], vocab)
        summed = sum(evaluate(model, [doc], vocab).counts for doc in docs)
        npt.assert_array_equal(bulk.counts, reversed_docs.counts)
        npt.assert_array_equal(bulk.counts, summed)
        seqs = [trainer.encode_document(doc, vocab, model.dims.max_len) for doc in docs]
        together = trainer.map_forward(model, seqs)
        for seq, probs in zip(seqs, together):
            alone = trainer.map_forward(model, [seq])[0]
            npt.assert_array_equal(probs.view(np.uint32), alone.view(np.uint32))

    def test_token_outside_the_table_names_the_document(self):
        split, vocab = build_setup(n_docs=60)
        dims = nn.ModelDims(vocab_rows=4, embed_dim=4, hidden=3, classes=6, max_len=40)
        model = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match=r"document 'doc-.*': token id \d+ outside"):
            evaluate(model, list(split.test), vocab)

