"""Convolutional joint language model toolkit.

Guided convolutional source encoders feeding an n-gram target-word predictor,
with SGD training, binary model serialization, and n-best rescoring.
"""

from .corpus import (
    AlignedSentencePair,
    ExtractionStats,
    TrainingSample,
    compute_affiliations,
    extract_corpus_samples,
    extract_samples,
    pad_source,
    parse_alignment_line,
    parse_heads_line,
    read_parallel_corpus,
)
from .encoder import EncoderConfig
from .errors import (
    CjlmError,
    ConfigError,
    CorpusError,
    ModelFormatError,
    ParseError,
    TrainingDivergedError,
    UnalignableSentenceError,
)
from .jointlm import (
    JointModelParams,
    SampleBatch,
    param_spec,
    perplexity,
)
from .nbest import NBestEntry, parse_nbest_line, score_nbest
from .serialization import ModelArtifact, load_model, save_model
from .training import (
    GradientStore,
    TrainConfig,
    backward,
    gradient_check,
    minibatch_loss,
    sgd_step,
    train,
    train_model,
)
from .vocab import Vocabulary, build_vocabulary, map_tokens

__version__ = "0.1.0"

__all__ = [
    "AlignedSentencePair",
    "CjlmError",
    "ConfigError",
    "CorpusError",
    "EncoderConfig",
    "ExtractionStats",
    "GradientStore",
    "JointModelParams",
    "ModelArtifact",
    "ModelFormatError",
    "NBestEntry",
    "ParseError",
    "SampleBatch",
    "TrainConfig",
    "TrainingDivergedError",
    "TrainingSample",
    "UnalignableSentenceError",
    "Vocabulary",
    "backward",
    "build_vocabulary",
    "compute_affiliations",
    "extract_corpus_samples",
    "extract_samples",
    "gradient_check",
    "load_model",
    "map_tokens",
    "minibatch_loss",
    "pad_source",
    "param_spec",
    "parse_alignment_line",
    "parse_heads_line",
    "parse_nbest_line",
    "perplexity",
    "read_parallel_corpus",
    "save_model",
    "score_nbest",
    "sgd_step",
    "train",
    "train_model",
]
