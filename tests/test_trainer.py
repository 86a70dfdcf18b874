import hashlib
import json
import math
import random
import re
import tracemalloc
import types

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SYNTH_LABELS, flip_bit, load_variant, make_synthetic_corpus,
                      overflow_head, traced_peak)

from lexseq import nn, trainer
from lexseq.corpus import Document, LabelSet, SplitDataset, stratified_split
from lexseq.errors import DataError, NumericError
from lexseq.tokenizer import build_vocabulary, iter_tokens
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


def _adam_reference(params, grads, ms, vs, t, config):
    """The per-tensor Adam step that the blocked adam_update replaced."""
    bc1 = 1.0 - trainer.BETA1 ** t
    bc2 = 1.0 - trainer.BETA2 ** t
    for param, grad, m, v in zip(params, grads, ms, vs):
        step = np.empty_like(grad)
        denom = np.empty_like(grad)
        m *= trainer.BETA1
        m += np.multiply(1.0 - trainer.BETA1, grad, out=step)
        v *= trainer.BETA2
        np.multiply(grad, grad, out=denom)
        v += np.multiply(1.0 - trainer.BETA2, denom, out=denom)
        np.divide(m, bc1, out=step)
        np.multiply(config.learning_rate, step, out=step)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += trainer.EPSILON
        step /= denom
        param -= step


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
    @pytest.mark.parametrize("block", [trainer.ADAM_BLOCK, 97])
    def test_bit_identical_to_per_tensor_reference(self, dtype, block, monkeypatch):
        # more than two blocks, the last one short; 97 also cuts small tensors
        dims = nn.ModelDims(vocab_rows=trainer.ADAM_BLOCK // 4 + 1001, embed_dim=8,
                            hidden=5, classes=3, max_len=8)
        monkeypatch.setattr(trainer, "ADAM_BLOCK", block)
        model = nn.init_parameters(dims, seed=3, dtype=dtype)
        size = model.params.flat.size
        assert size > 2 * block and size % block
        ref = [arr.copy() for arr in model.params.arrays()]
        ref_m = [np.zeros_like(arr) for arr in ref]
        ref_v = [np.zeros_like(arr) for arr in ref]
        state = AdamState.zeros_like(model)
        grads = nn.Gradients.zeros_like(model)
        config = TrainConfig(learning_rate=0.01)
        rng = np.random.default_rng(5)
        for t in range(1, 5):
            for view in grads.arrays():
                g = rng.standard_normal(view.shape) * 10.0 ** rng.integers(-9, 4, view.shape)
                g[rng.random(view.shape) < 0.3] = 0  # like rows a batch never saw
                view[...] = g
            adam_update(model, grads, state, config)
            _adam_reference(ref, [a.copy() for a in grads.arrays()], ref_m, ref_v, t, config)
        got = model.params.arrays() + state.m.arrays() + state.v.arrays()
        for (name, _), a, b in zip(nn.param_shapes(dims) * 3, got, ref + ref_m + ref_v):
            assert a.tobytes() == b.tobytes(), name

    def test_non_finite_gradient_in_a_later_block_names_its_tensor(self, monkeypatch):
        monkeypatch.setattr(trainer, "ADAM_BLOCK", 5)
        model = self.tiny_model()
        grads = nn.Gradients.zeros_like(model)
        grads.views["head.W"][1, 0] = np.inf
        with pytest.raises(NumericError, match="tensor head.W"):
            adam_update(model, grads, AdamState.zeros_like(model), TrainConfig())

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

        def stable(history):  # wall-clock seconds legitimately vary
            return [
                {k: v for k, v in record.items() if k != "seconds"}
                for record in history.to_list()
            ]

        assert stable(runs[0][1]) == stable(runs[1][1])
        for x, y in zip(runs[0][0].params.arrays(), runs[1][0].params.arrays()):
            npt.assert_array_equal(x, y)

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
        state.t = 17
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, state=state)
        _, loaded_state = load_checkpoint(path)
        assert loaded_state is not None and loaded_state.t == 17
        for a, b in zip(state.m.arrays() + state.v.arrays(),
                        loaded_state.m.arrays() + loaded_state.v.arrays()):
            npt.assert_array_equal(a, b)

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

