import hashlib
import json
import math
import random
import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SYNTH_LABELS, make_synthetic_corpus

from lexseq import nn, trainer
from lexseq.corpus import Document, LabelSet, SplitDataset, stratified_split
from lexseq.errors import DataError, NumericError
from lexseq.tokenizer import TokenizerConfig, build_vocabulary, iter_tokens
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
    tok_cfg = TokenizerConfig(max_sequence_length=40)
    vocab = build_vocabulary(
        iter_tokens((d.text for d in split.train), tok_cfg), cap=100_000
    )
    return split, vocab, tok_cfg


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_bad_batch_and_lr_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


def _adam_reference(params, grads, ms, vs, t, config):
    """The per-tensor Adam step that the blocked adam_update replaced."""
    bc1 = 1.0 - config.beta1 ** t
    bc2 = 1.0 - config.beta2 ** t
    for param, grad, m, v in zip(params, grads, ms, vs):
        step = np.empty_like(grad)
        denom = np.empty_like(grad)
        m *= config.beta1
        m += np.multiply(1.0 - config.beta1, grad, out=step)
        v *= config.beta2
        np.multiply(grad, grad, out=denom)
        v += np.multiply(1.0 - config.beta2, denom, out=denom)
        np.divide(m, bc1, out=step)
        np.multiply(config.learning_rate, step, out=step)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += config.epsilon
        step /= denom
        param -= step


class TestAdamUpdate:
    def tiny_model(self):
        dims = nn.ModelDims(vocab_rows=3, embed_dim=1, hidden=1, classes=2, max_len=2)
        model = nn.init_parameters(dims, seed=0, dtype=np.float64)
        return model

    def test_zero_gradient_leaves_parameters(self):
        model = self.tiny_model()
        before = [arr.copy() for _, arr in nn.iter_parameters(model)]
        grads = nn.Gradients.zeros_like(model)
        adam_update(model, grads, AdamState.zeros_like(model), TrainConfig())
        for (name, arr), orig in zip(nn.iter_parameters(model), before):
            npt.assert_array_equal(arr, orig)

    def test_first_step_bias_correction(self):
        # scalar parameter 1.0, gradient 0.5, fresh state:
        # m_hat = 0.5, v_hat = 0.25 -> step = lr * 0.5 / (0.5 + eps) ~ lr
        model = self.tiny_model()
        model.head.b[0] = 1.0
        grads = nn.Gradients.zeros_like(model)
        grads.views["head.b"][0] = 0.5
        config = TrainConfig(learning_rate=0.001)
        adam_update(model, grads, AdamState.zeros_like(model), config)
        expected = 1.0 - 0.001 * 0.5 / (0.5 + config.epsilon)
        assert model.head.b[0] == pytest.approx(expected, rel=1e-9)
        assert model.head.b[0] == pytest.approx(0.999, abs=1e-6)

    def test_lr_zero_is_rejected_by_config(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    def test_tiny_lr_barely_moves(self):
        model = self.tiny_model()
        before = model.head.b.copy()
        grads = nn.Gradients.zeros_like(model)
        grads.views["head.b"][:] = 3.0
        adam_update(model, grads, AdamState.zeros_like(model),
                    TrainConfig(learning_rate=1e-12))
        npt.assert_allclose(model.head.b, before, atol=1e-11)

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
        ref = [arr.copy() for _, arr in nn.iter_parameters(model)]
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
        split, vocab, tok_cfg = build_setup(n_docs=180)
        model = nn.init_parameters(small_dims(vocab, embed=16, hidden=16), seed=4,
                                   labels=SYNTH_LABELS, vocab_digest=vocab.digest())
        config = TrainConfig(epochs=20, batch_size=8, learning_rate=0.005, seed=4)
        model, history = train(model, split, vocab, config, tok_config=tok_cfg)
        assert max(e.train_accuracy for e in history.epochs) >= 0.95
        assert len(history.epochs) == 20

    def test_deterministic_given_seed(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        config = TrainConfig(epochs=2, batch_size=8, seed=7)
        runs = []
        for _ in range(2):
            model = nn.init_parameters(small_dims(vocab), seed=7, labels=SYNTH_LABELS)
            model, history = train(model, split, vocab, config, tok_config=tok_cfg)
            runs.append((model, history))

        def stable(history):  # wall-clock seconds legitimately vary
            return [
                {k: v for k, v in record.items() if k != "seconds"}
                for record in history.to_list()
            ]

        assert stable(runs[0][1]) == stable(runs[1][1])
        for (_, x), (_, y) in zip(nn.iter_parameters(runs[0][0]),
                                  nn.iter_parameters(runs[1][0])):
            npt.assert_array_equal(x, y)

    def test_step_counter_matches_batches(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
        n = len(split.train)
        config = TrainConfig(epochs=3, batch_size=16, seed=1)
        # count optimizer steps through the epoch histories
        calls = []
        orig = adam_update

        model, history = train(model, split, vocab, config, tok_config=tok_cfg)
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
            train(model2, split, vocab, config, tok_config=tok_cfg)
        finally:
            trainer_mod.adam_update = trainer_mod_adam
        assert seen["t"] == expected_steps

    def test_random_labels_keep_first_epoch_loss_near_log6(self):
        split, vocab, tok_cfg = build_setup(n_docs=240, shuffle_labels=True)
        model = nn.init_parameters(small_dims(vocab), seed=2, labels=SYNTH_LABELS)
        config = TrainConfig(epochs=1, batch_size=64, seed=2)
        _, history = train(model, split, vocab, config, tok_config=tok_cfg)
        assert history.epochs[0].train_loss == pytest.approx(math.log(6), rel=0.10)

    def test_document_without_tokens_is_named(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        blank = Document("blank-7", " ... ", split.train[0].label)
        with_blank = SplitDataset(train=split.train, validation=(blank,) + split.validation,
                                  test=split.test, seed=0, ratios=(0.7, 0.2, 0.1))
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match="'blank-7'.*empty"):
            train(model, with_blank, vocab, TrainConfig(epochs=1), tok_config=tok_cfg)

    def test_token_outside_the_table_names_the_document(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        dims = nn.ModelDims(vocab_rows=4, embed_dim=4, hidden=3, classes=6, max_len=40)
        model = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match=r"document 'doc-.*': token id \d+ outside"):
            train(model, split, vocab, TrainConfig(epochs=1), tok_config=tok_cfg)

    def test_lockstep_groups_keep_the_training_deterministic(self):
        # a mini-batch larger than a lockstep group gives the same bytes twice
        split, vocab, tok_cfg = build_setup(n_docs=120)
        assert len(split.train) > trainer.GROUP_DOCS
        blobs = []
        for _ in range(2):
            model = nn.init_parameters(small_dims(vocab), seed=1, labels=SYNTH_LABELS)
            train(model, split, vocab, TrainConfig(epochs=2, batch_size=64, seed=1),
                  tok_config=tok_cfg)
            blobs.append(b"".join(arr.tobytes() for _, arr in nn.iter_parameters(model)))
        assert blobs[0] == blobs[1]

    def test_empty_train_partition_rejected(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        empty = SplitDataset(train=(), validation=split.validation,
                             test=split.test, seed=0, ratios=(0.7, 0.2, 0.1))
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match="empty"):
            train(model, empty, vocab, TrainConfig(epochs=1), tok_config=tok_cfg)

    def test_best_validation_checkpoint_written(self, tmp_path):
        split, vocab, tok_cfg = build_setup(n_docs=120)
        ckpt = tmp_path / "model.ckpt"
        model = nn.init_parameters(small_dims(vocab), seed=3, labels=SYNTH_LABELS,
                                   vocab_digest=vocab.digest())
        config = TrainConfig(epochs=4, batch_size=16, seed=3,
                             checkpoint_path=str(ckpt))
        final_model, history = train(model, split, vocab, config, tok_config=tok_cfg)
        assert ckpt.exists()
        best, _ = load_checkpoint(ckpt, vocab=vocab)
        best_epoch = max(history.epochs, key=lambda e: e.val_accuracy)
        # the stored model reproduces the best validation accuracy
        val_docs = list(split.validation)
        report = evaluate(best, val_docs, vocab, tok_cfg)
        assert report.accuracy == pytest.approx(best_epoch.val_accuracy)


class TestCheckpoint:
    def roundtrip_model(self, tmp_path, state=None):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=9, labels=SYNTH_LABELS,
                                   vocab_digest=vocab.digest())
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, state=state)
        return model, path, vocab, tok_cfg, split

    def test_roundtrip_forward_identical(self, tmp_path):
        model, path, vocab, tok_cfg, split = self.roundtrip_model(tmp_path)
        loaded, state = load_checkpoint(path, vocab=vocab)
        assert state is None
        for (_, a), (_, b) in zip(nn.iter_parameters(model), nn.iter_parameters(loaded)):
            npt.assert_array_equal(a, b)
        from lexseq.tokenizer import encode_text
        for doc in list(split.train)[:100]:
            seq = encode_text(doc.text, vocab, tok_cfg)
            p1, _ = nn.forward([seq], model)
            p2, _ = nn.forward([seq], loaded)
            npt.assert_array_equal(p1, p2)

    def test_adam_state_roundtrip(self, tmp_path):
        split, vocab, tok_cfg = build_setup(n_docs=60)
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
        _, path, vocab, _, _ = self.roundtrip_model(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(DataError, match="truncated payload"):
            load_checkpoint(path)

    def test_vocabulary_digest_mismatch(self, tmp_path):
        _, path, vocab, _, _ = self.roundtrip_model(tmp_path)
        other = build_vocabulary(iter(["um", "dois", "um"]), cap=10)
        with pytest.raises(DataError, match="digest mismatch"):
            load_checkpoint(path, vocab=other)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_save_is_byte_deterministic(self, tmp_path):
        model, path, vocab, _, _ = self.roundtrip_model(tmp_path)
        second = tmp_path / "again.ckpt"
        save_checkpoint(model, second)
        assert path.read_bytes() == second.read_bytes()

    def test_bytes_do_not_depend_on_the_weight_layout(self, tmp_path):
        model, path, vocab, _, _ = self.roundtrip_model(tmp_path)
        assert model.forward_dir.U.flags.f_contiguous
        c_ordered = model.clone()
        for direction in (c_ordered.forward_dir, c_ordered.backward_dir):
            direction.W = np.ascontiguousarray(direction.W)
            direction.U = np.ascontiguousarray(direction.U)
        save_checkpoint(c_ordered, tmp_path / "c.ckpt")
        assert (tmp_path / "c.ckpt").read_bytes() == path.read_bytes()
        loaded, _ = load_checkpoint(path, vocab=vocab)
        for direction in (loaded.forward_dir, loaded.backward_dir):
            assert direction.W.flags.f_contiguous and direction.U.flags.f_contiguous

    def test_on_disk_format_is_pinned(self, tmp_path):
        # sha256 of what the per-tensor layout wrote before the flat buffer
        dims = nn.ModelDims(vocab_rows=12, embed_dim=4, hidden=3, classes=3, max_len=8)
        model = nn.init_parameters(dims, seed=3)
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c3633d92a6c29b18feef7ed27ae4293aca4380410851bbf4355882f9a1c32998")
        grads = nn.Gradients.zeros_like(model)
        for g, (_, arr) in zip(grads.arrays(),
                               nn.iter_parameters(nn.init_parameters(dims, seed=4))):
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
    ], ids=["vocab-rows-2", "label-count", "unknown-activation", "json-list"])
    def test_malformed_header_is_data_error_naming_the_file(self, tmp_path, edit):
        _, path, _, _, _ = self.roundtrip_model(tmp_path)
        self.rewrite_header(path, edit)
        with pytest.raises(DataError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_failed_save_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        model, path, _, _, _ = self.roundtrip_model(tmp_path)
        before = path.read_bytes()

        def failing_parameters(m):
            yield "embedding", m.embedding
            raise OSError("disk full")

        monkeypatch.setattr(trainer, "iter_parameters", failing_parameters)
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


def _load_variant(path, blob):
    """Load ``blob`` from ``path``: a checkpoint pair or a DataError, nothing else."""
    path.write_bytes(blob)
    try:
        return load_checkpoint(path)
    except DataError:
        return None


def _flip(blob, bit):
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


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
            _load_variant(path, _flip(blob, bit))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_payload_bit_flip_loads_and_round_trips(self, fuzz_checkpoint, data):
        blob, newline, path = fuzz_checkpoint
        flipped = _flip(blob, data.draw(st.integers(8 * (newline + 1), 8 * len(blob) - 1)))
        loaded = _load_variant(path, flipped)
        assert loaded is not None
        model, state = loaded
        save_checkpoint(model, path, state=state)
        assert path.read_bytes() == flipped

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, fuzz_checkpoint, data):
        blob, _, path = fuzz_checkpoint
        flipped = _flip(blob, data.draw(st.integers(0, 8 * len(blob) - 1)))
        _load_variant(path, flipped[:data.draw(st.integers(0, len(blob)))])


class TestEvaluate:
    def test_uniform_model_predicts_class_zero(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        for _, arr in nn.iter_parameters(model):
            arr[...] = 0
        docs = list(split.test)
        report = evaluate(model, docs, vocab, tok_cfg)
        predicted_col = report.matrix.counts.sum(axis=0)
        assert predicted_col[0] == len(docs)
        assert predicted_col[1:].sum() == 0

    def test_perfect_model_diagonal(self):
        # train to convergence on a small corpus; a perfect model must
        # produce accuracy 1.0 and an exactly diagonal matrix
        split, vocab, tok_cfg = build_setup(n_docs=120)
        model = nn.init_parameters(small_dims(vocab, embed=24, hidden=24), seed=4,
                                   labels=SYNTH_LABELS)
        config = TrainConfig(epochs=20, batch_size=8, learning_rate=0.005, seed=4)
        model, history = train(model, split, vocab, config, tok_config=tok_cfg)
        train_docs = list(split.train)
        report = evaluate(model, train_docs, vocab, tok_cfg)
        assert report.accuracy == 1.0
        off_diagonal = report.matrix.total - np.trace(report.matrix.counts)
        assert off_diagonal == 0

    def test_empty_input_rejected(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError):
            evaluate(model, [], vocab, tok_cfg)

    def test_document_without_tokens_is_named(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        docs = list(split.test) + [Document("blank-3", "", split.test[0].label)]
        with pytest.raises(DataError, match="'blank-3'.*empty"):
            evaluate(model, docs, vocab, tok_cfg)

    def test_unlabeled_doc_rejected(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match="unlabeled"):
            evaluate(model, [Document("u", "texto", None)], vocab, tok_cfg)

    def test_batch_composition_does_not_change_results(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        model = nn.init_parameters(small_dims(vocab), seed=5, labels=SYNTH_LABELS)
        docs = list(split.train)
        bulk = evaluate(model, docs, vocab, tok_cfg)
        reversed_docs = evaluate(model, docs[::-1], vocab, tok_cfg)
        summed = sum(evaluate(model, [doc], vocab, tok_cfg).matrix.counts
                     for doc in docs)
        npt.assert_array_equal(bulk.matrix.counts, reversed_docs.matrix.counts)
        npt.assert_array_equal(bulk.matrix.counts, summed)
        seqs = [trainer.encode_document(doc, vocab, tok_cfg) for doc in docs]
        together = trainer.map_forward(model, seqs)
        for seq, probs in zip(seqs, together):
            alone = trainer.map_forward(model, [seq])[0]
            npt.assert_array_equal(probs.view(np.uint32), alone.view(np.uint32))

    def test_token_outside_the_table_names_the_document(self):
        split, vocab, tok_cfg = build_setup(n_docs=60)
        dims = nn.ModelDims(vocab_rows=4, embed_dim=4, hidden=3, classes=6, max_len=40)
        model = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS)
        with pytest.raises(DataError, match=r"document 'doc-.*': token id \d+ outside"):
            evaluate(model, list(split.test), vocab, tok_cfg)

