"""lexseq: a from-scratch Bi-LSTM toolkit for classifying legal briefs.

Pipeline: quality-gated page-text extraction, capped-vocabulary
tokenization, a bidirectional LSTM with sum merge trained by exact
backpropagation through time, and a metrics engine with macro and
support-weighted aggregation.
"""

from .corpus import (
    DEFAULT_LABELS,
    DEFAULT_RATIOS,
    Document,
    LabelSet,
    SplitDataset,
    load_dataset,
    stratified_split,
)
from .errors import DataError, LexseqError, NumericError, OcrError
from .extraction import (
    ExtractionResult,
    PageRecord,
    QualityGateConfig,
    assess_quality,
    extract_text,
    load_page_manifest,
    ocr_command_backend,
)
from .metrics import EvaluationReport, aggregate, evaluation_report, f1_score
from .nn import (
    ACTIVATIONS,
    BiLstmClassifier,
    ForwardTrace,
    Gradients,
    ModelDims,
    backward,
    forward,
    init_parameters,
    loss,
    softmax,
)
from .tokenizer import (
    OOV_ID,
    PAD_ID,
    EncodedSequence,
    Vocabulary,
    build_vocabulary,
    encode,
    encode_text,
    iter_tokens,
    load_vocabulary,
    save_vocabulary,
    tokenize,
)
from .trainer import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainHistory,
    adam_update,
    evaluate,
    load_checkpoint,
    map_forward,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"
