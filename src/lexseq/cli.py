"""Command-line surface: extract, build-vocab, train, evaluate, predict.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime/numeric
error. Diagnostics go to stderr; machine-readable output goes to files
or stdout.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus, extraction, tokenizer, trainer
from .errors import DataError, NumericError, OcrError, write_atomically
from .nn import ACTIVATIONS, ModelDims, init_parameters


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions")
    try:
        r = tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric ratio in {text!r}") from None
    try:
        corpus.check_ratios(r)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected three non-negative fractions summing to 1, got {text!r}") from None
    return r


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value
    return parse


def _float_where(accept, expected: str):
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _non_empty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty string")
    return text


_finite_positive = _float_where(lambda v: 0 < v < math.inf, "a finite number > 0")
_fraction = _float_where(lambda v: 0 <= v <= 1, "a number in [0, 1]")


def _default(function, name: str):
    """The default of ``function``'s parameter ``name``. Options read their
    defaults from the library setting they set, here or as a dataclass's
    class attribute, and do not restate them."""
    return inspect.signature(function).parameters[name].default


def _build_parser() -> _Parser:
    parser = _Parser(prog="lexseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract one document's text")
    p.add_argument("manifest", help="page manifest (JSON Lines: page, text, image)")
    p.add_argument("--ocr-cmd", required=True,
                   help="OCR command template with an {input} placeholder")
    p.add_argument("-o", "--output", required=True, help="output dataset JSONL")
    p.add_argument("--id", dest="doc_id", type=_non_empty, default=None,
                   help="document id (default: manifest file stem)")
    p.add_argument("--token-target", type=_int_at_least(1),
                   default=_default(extraction.extract_text, "token_target"))
    gate = extraction.QualityGateConfig
    p.add_argument("--min-wordlike-ratio", type=_fraction, default=gate.min_wordlike_ratio)
    p.add_argument("--min-chars", type=_int_at_least(0), default=gate.min_chars)

    p = sub.add_parser("build-vocab", help="build a capped vocabulary")
    p.add_argument("data", help="training dataset JSONL")
    p.add_argument("--cap", type=_int_at_least(1),
                   default=_default(tokenizer.build_vocabulary, "cap"))
    p.add_argument("-o", "--output", required=True, help="vocabulary file")
    p.add_argument("--labels", default=None,
                   help="labels file; restricts counting to the train partition "
                        "of DATA that train selects with the same --seed and --ratios")
    # None: given without --labels is a usage error; with it, train's defaults
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--ratios", type=_ratios, default=None)
    p.add_argument("--no-lowercase", action="store_true",
                   help="keep case; recorded in the vocabulary file")

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("data", help="full labeled dataset JSONL (split internally)")
    p.add_argument("--labels", required=True)
    p.add_argument("--vocab", required=True)
    config, dims = trainer.TrainConfig, ModelDims
    p.add_argument("--epochs", type=_int_at_least(1), default=config.epochs)
    p.add_argument("--batch", type=_int_at_least(1), default=config.batch_size)
    p.add_argument("--lr", type=_finite_positive, default=config.learning_rate)
    p.add_argument("--seed", type=_int_at_least(0), default=config.seed)
    p.add_argument("-o", "--output", required=True, help="checkpoint path")
    p.add_argument("--ratios", type=_ratios, default=corpus.DEFAULT_RATIOS)
    p.add_argument("--embed", type=_int_at_least(1), default=dims.embed_dim)
    p.add_argument("--hidden", type=_int_at_least(1), default=dims.hidden)
    p.add_argument("--max-len", type=_int_at_least(1), default=dims.max_len)
    p.add_argument("--activation", choices=ACTIVATIONS,
                   default=_default(init_parameters, "activation"))
    p.add_argument("--clip-norm", type=_finite_positive, default=None)
    p.add_argument("--history", default=None, help="write per-epoch JSON records")

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on labeled data")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--vocab", required=True)
    p.add_argument("-o", "--output", required=True, help="report JSON path")
    p.add_argument("--matrix-csv", default=None, help="also export the confusion matrix")

    p = sub.add_parser("predict", help="emit per-document predictions to stdout")
    p.add_argument("checkpoint")
    p.add_argument("data")
    p.add_argument("--vocab", required=True)
    return parser


def _require_output_dirs(outputs: list[str | None],
                         inputs: list[str | None]) -> None:
    """Checked before any work, so that a long run can neither end
    unwritten nor write over one of its own files. Inputs are otherwise
    checked by their loaders, when each is opened."""
    claimed = {Path(path).resolve(): f"input {path}" for path in filter(None, inputs)}
    for path in filter(None, outputs):
        if Path(path).is_dir():
            raise DataError(f"output path is a directory: {path}")
        if not Path(path).parent.is_dir():
            raise DataError(f"output directory does not exist: {path}")
        resolved = Path(path).resolve()
        if resolved in claimed:
            raise DataError(f"output path {path} is the same file as {claimed[resolved]}")
        claimed[resolved] = f"output {path}"


def _cmd_extract(args) -> int:
    try:
        backend = extraction.ocr_command_backend(args.ocr_cmd)
    except ValueError as exc:
        raise _UsageError(f"--ocr-cmd: {exc}") from None
    gate = extraction.QualityGateConfig(args.min_wordlike_ratio, args.min_chars)
    _require_output_dirs([args.output], [args.manifest])
    pages = extraction.load_page_manifest(args.manifest)
    result = extraction.extract_text(pages, backend, gate, token_target=args.token_target)
    doc_id = Path(args.manifest).stem if args.doc_id is None else args.doc_id
    record = json.dumps({"id": doc_id, "text": result.text}, ensure_ascii=False)
    write_atomically(args.output, (record + "\n").encode())
    used = ", ".join(f"{n}:{src}" for n, src in result.pages_used)
    print(
        f"{doc_id}: {result.token_count} tokens from pages [{used}] "
        f"complete={str(result.complete).lower()}",
        file=sys.stderr,
    )
    return 0


def _cmd_build_vocab(args) -> int:
    for option, value in (("--seed", args.seed), ("--ratios", args.ratios)):
        if value is not None and args.labels is None:
            raise _UsageError(f"{option} needs --labels: it selects the train partition")
    _require_output_dirs([args.output], [args.data, args.labels])
    if args.labels is not None:
        labels = corpus.LabelSet.from_file(args.labels)
        docs = corpus.load_dataset(args.data, labels)
        seed = trainer.TrainConfig.seed if args.seed is None else args.seed
        split = corpus.stratified_split(docs, args.ratios or corpus.DEFAULT_RATIOS, seed)
        texts = (doc.text for doc in split.train)
        scope = f"train partition ({len(split.train)} of {len(docs)} docs)"
    else:
        docs = corpus.load_dataset(args.data, None)
        texts = (doc.text for doc in docs)
        scope = f"all {len(docs)} docs"
    lowercase = not args.no_lowercase
    vocab = tokenizer.build_vocabulary(tokenizer.iter_tokens(texts, lowercase),
                                       cap=args.cap, lowercase=lowercase)
    tokenizer.save_vocabulary(vocab, args.output)
    print(f"vocabulary: {len(vocab)} entries (cap {args.cap}) from {scope}",
          file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    _require_output_dirs([args.output, args.history],
                         [args.data, args.labels, args.vocab])
    labels = corpus.LabelSet.from_file(args.labels)
    docs = corpus.load_dataset(args.data, labels)
    split = corpus.stratified_split(docs, args.ratios, args.seed)
    vocab = tokenizer.load_vocabulary(args.vocab)
    # The parser has checked every value, and the loaders every file.
    dims = ModelDims(vocab_rows=vocab.id_count, embed_dim=args.embed,
                     hidden=args.hidden, classes=labels.size, max_len=args.max_len)
    config = trainer.TrainConfig(epochs=args.epochs, batch_size=args.batch,
                                 learning_rate=args.lr, seed=args.seed,
                                 checkpoint_path=args.output, clip_norm=args.clip_norm)
    model = init_parameters(dims, args.seed, labels=labels.labels,
                            vocab_digest=vocab.digest(), activation=args.activation)
    print(
        f"training on {len(split.train)} docs "
        f"(val {len(split.validation)}, test {len(split.test)}), "
        f"{dims.vocab_rows} vocab rows",
        file=sys.stderr,
    )

    # the history holds results only; each line times the epoch since the last
    started = time.perf_counter()

    def log_epoch(record: trainer.EpochRecord) -> None:
        nonlocal started
        now = time.perf_counter()
        val = (f" val_loss={record.val_loss:.4f} val_acc={record.val_accuracy:.4f}"
               if record.val_loss is not None else "")
        print(
            f"epoch {record.epoch}: loss={record.train_loss:.4f} "
            f"acc={record.train_accuracy:.4f}{val} ({now - started:.1f}s)",
            file=sys.stderr,
        )
        started = now

    _, history = trainer.train(model, split, vocab, config, on_epoch=log_epoch)
    if args.history:
        history.save_json(args.history)
    return 0


def _load_model_and_vocab(args):
    vocab = tokenizer.load_vocabulary(args.vocab)
    model, _ = trainer.load_checkpoint(args.checkpoint, vocab=vocab)
    return model, vocab


def _cmd_evaluate(args) -> int:
    _require_output_dirs([args.output, args.matrix_csv],
                         [args.checkpoint, args.data, args.vocab])
    model, vocab = _load_model_and_vocab(args)
    labels = corpus.LabelSet(model.labels)
    docs = corpus.load_dataset(args.data, labels)
    report = trainer.evaluate(model, docs, vocab)
    report.save_json(args.output)
    if args.matrix_csv:
        report.save_matrix_csv(args.matrix_csv)
    print(
        f"{len(docs)} docs: accuracy={report.accuracy:.4f} "
        f"weighted_f1={report.weighted[2]:.4f}",
        file=sys.stderr,
    )
    return 0


def _cmd_predict(args) -> int:
    model, vocab = _load_model_and_vocab(args)
    docs = corpus.load_dataset(args.data, None)
    sequences = [trainer.encode_document(doc, vocab, model.dims.max_len)
                 for doc in docs]
    probs_list = trainer.map_forward(model, sequences, [doc.id for doc in docs])
    try:
        for doc, probs in zip(docs, probs_list):
            record = {
                "id": doc.id,
                "label": model.labels[int(np.argmax(probs))],
                "probabilities": [float(p) for p in probs],
            }
            sys.stdout.write(json.dumps(record, ensure_ascii=False) + "\n")
    except BrokenPipeError:
        raise  # main() exits 141
    except OSError as exc:
        raise _stdout_error(exc) from None
    return 0


def _stdout_error(exc: OSError) -> DataError:
    return DataError(f"cannot write standard output: {exc.strerror or exc}")


_COMMANDS = {
    "extract": _cmd_extract,
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"lexseq: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"lexseq: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, OcrError) as exc:
        print(f"lexseq: runtime error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except BrokenPipeError:  # downstream pipe closed early (e.g. | head)
        code = 141
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = code or 141
    except OSError as exc:
        if code == 0:  # a failed command has reported its own error
            print(f"lexseq: data error: {_stdout_error(exc)}", file=sys.stderr)
            code = 2
    else:
        sys.exit(code)
    # what stays buffered would fail again in the shutdown-time flush
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
