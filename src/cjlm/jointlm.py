"""Joint n-gram language model over encoded source representations.

The predictor scores a target word from two inputs: the encoder representation
of the (guided) source sentence and the k preceding target words. History
words pass through a shared embedding table, are concatenated with the
representation, and feed a stack of sigmoid layers followed by a full softmax
over the target vocabulary.

The same target embedding table supplies the attention-arch guide signal, so
the history participates twice there: once inside the encoder and once in the
predictor input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import encoder as enc
from .corpus import TrainingSample
from .encoder import (
    CONV_WINDOW,
    INIT_SCALE,
    LOCAL_PAIR,
    PARAM_DTYPE,
    EncoderConfig,
    sigmoid_stack,
    sigmoid_stack_backward,
)
from .errors import ConfigError
from .vocab import PAD_ID

DEFAULT_HIDDEN_DIMS = (200,)
# Rows per block of the softmax normalizer, in training and in scoring.
SOFTMAX_BLOCK = 32
# Most rows the encoder takes at once when scoring.
SCORE_ROWS = 512

# Init kinds: uniform in [-init_scale, init_scale], zeros, or uniform with the
# PAD row zeroed (embedding tables).
UNIFORM, ZEROS, EMBEDDING = "uniform", "zeros", "embedding"


class TensorSpec(NamedTuple):
    name: str
    shape: tuple[int, ...]
    init: str


def param_spec(
    cfg: EncoderConfig,
    src_vocab_size: int,
    tgt_vocab_size: int,
    hidden_dims: Sequence[int],
) -> list[TensorSpec]:
    """Every learnable tensor of the joint model: name, shape and init kind.

    This is the one declaration of the tensor layout. Its order is the model
    file order and the order of the seeded initialization draws, so changing
    it changes model files.
    """
    if not hidden_dims or any(d < 1 for d in hidden_dims):
        raise ConfigError("hidden_dims must be a non-empty tuple of positive ints")

    def layer(name, out_dim, in_dim):
        return [TensorSpec(f"{name}_w", (out_dim, in_dim), UNIFORM),
                TensorSpec(f"{name}_b", (out_dim,), ZEROS)]

    spec = [TensorSpec("src_embeddings", (src_vocab_size, cfg.emb_dim), EMBEDDING)]
    spec += layer("conv1", cfg.filters1, cfg.conv1_width)
    spec += layer("conv3", cfg.filters3, CONV_WINDOW * cfg.filters1)
    spec += layer("proj", cfg.repr_dim, cfg.filters3)
    if cfg.fusion == "gating":
        spec += [TensorSpec("gate_local_w", (2 * LOCAL_PAIR * cfg.input_dim,), UNIFORM),
                 TensorSpec("gate_local_b", (1,), ZEROS),
                 TensorSpec("gate_global_w", (cfg.filters3,), UNIFORM)]
    if cfg.arch == "attention":
        in_dim = cfg.history * cfg.tgt_emb_dim
        for i in range(cfg.attn_depth):
            spec += layer(f"attn_{i}", cfg.attn_dim, in_dim)
            in_dim = cfg.attn_dim
    spec.append(TensorSpec("tgt_embeddings", (tgt_vocab_size, cfg.tgt_emb_dim),
                           EMBEDDING))
    in_dim = cfg.repr_dim + cfg.history * cfg.tgt_emb_dim
    for i, dim in enumerate(hidden_dims):
        spec += layer(f"hidden_{i}", dim, in_dim)
        in_dim = dim
    spec += layer("softmax", tgt_vocab_size, in_dim)
    return spec


def _layer_stack(tensors: dict[str, np.ndarray], stack: str):
    pairs = []
    while f"{stack}_{len(pairs)}_w" in tensors:
        i = len(pairs)
        pairs.append((tensors[f"{stack}_{i}_w"], tensors[f"{stack}_{i}_b"]))
    return tuple(pairs)


@dataclass(kw_only=True)
class JointModelParams:
    """Every learnable tensor of the joint model, fields in ``param_spec`` order.

    Gate tensors exist only under gating fusion and attention layers only for
    the attention arch. ``attn_layers`` and ``hidden_layers`` hold (weight,
    bias) pairs: the guide-signal stack and the sigmoid stack between the
    predictor input and the softmax. ``tgt_embeddings`` feeds both the
    predictor input and the attention guide signal. PAD embedding rows are
    fixed at zero and never trained. ``tensors()`` lists every tensor by its
    ``param_spec`` name and in its order; ``from_tensors`` is the inverse.
    """

    src_embeddings: np.ndarray
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv3_w: np.ndarray
    conv3_b: np.ndarray
    proj_w: np.ndarray
    proj_b: np.ndarray
    gate_local_w: np.ndarray | None = None
    gate_local_b: np.ndarray | None = None
    gate_global_w: np.ndarray | None = None
    attn_layers: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    tgt_embeddings: np.ndarray
    hidden_layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    softmax_w: np.ndarray
    softmax_b: np.ndarray

    @classmethod
    def initialize(
        cls,
        cfg: EncoderConfig,
        src_vocab_size: int,
        tgt_vocab_size: int,
        hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
        rng: np.random.Generator | None = None,
        init_scale: float = INIT_SCALE,
    ) -> "JointModelParams":
        if rng is None:
            rng = np.random.default_rng(0)
        if src_vocab_size < 5 or tgt_vocab_size < 5:
            raise ConfigError("vocabulary must contain the reserved tokens")
        hidden_dims = tuple(int(d) for d in hidden_dims)

        def draw(spec: TensorSpec) -> np.ndarray:
            if spec.init == ZEROS:
                return np.zeros(spec.shape, dtype=PARAM_DTYPE)
            t = rng.uniform(-init_scale, init_scale, spec.shape).astype(PARAM_DTYPE)
            if spec.init == EMBEDDING:
                t[PAD_ID] = 0.0
            return t

        spec = param_spec(cfg, src_vocab_size, tgt_vocab_size, hidden_dims)
        return cls.from_tensors({s.name: draw(s) for s in spec})

    @classmethod
    def from_tensors(cls, tensors: dict[str, np.ndarray]) -> "JointModelParams":
        """Build the parameters from tensors named as in ``param_spec``.

        A ``<stack>_layers`` field gathers ``<stack>_<i>_w``/``_b`` pairs.
        """
        kwargs = {}
        for f in fields(cls):
            if f.name.endswith("_layers"):
                kwargs[f.name] = _layer_stack(tensors, f.name[: -len("_layers")])
            elif f.name in tensors:
                kwargs[f.name] = tensors[f.name]
        return cls(**kwargs)

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w, _ in self.hidden_layers)

    @property
    def target_vocab_size(self) -> int:
        return self.softmax_w.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        """Every tensor by its ``param_spec`` name, in field order; a None
        field (a tensor the config leaves out) contributes nothing."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_layers"):
                stack = f.name[: -len("_layers")]
                for i, (w, b) in enumerate(value):
                    out[f"{stack}_{i}_w"], out[f"{stack}_{i}_b"] = w, b
            elif value is not None:
                out[f.name] = value
        return out

    def astype(self, dtype) -> "JointModelParams":
        return self.from_tensors(
            {name: t.astype(dtype) for name, t in self.tensors().items()})


def compute_params(p: JointModelParams) -> JointModelParams:
    """``p`` in its compute dtype, the promotion of its dtype with float64.

    Float32 storage gets one float64 copy; float64 or longdouble parameters
    are returned as they are, the same object.
    """
    dtype = np.promote_types(p.softmax_w.dtype, np.float64)
    return p if p.softmax_w.dtype == dtype else p.astype(dtype)


@dataclass
class SampleBatch:
    """Training samples packed into dense arrays for the batched kernels."""

    ids: np.ndarray
    aff_mask: np.ndarray
    head_mask: np.ndarray
    hist: np.ndarray
    targets: np.ndarray

    @classmethod
    def from_samples(
        cls, samples: Sequence[TrainingSample], cfg: EncoderConfig
    ) -> "SampleBatch":
        if not samples:
            raise ConfigError("cannot build a batch from zero samples")
        n = len(samples)
        ids = np.empty((n, cfg.maxlen), dtype=np.int64)
        aff = np.zeros((n, cfg.maxlen), dtype=bool)
        head = np.zeros((n, cfg.maxlen), dtype=bool)
        hist = np.empty((n, cfg.history), dtype=np.int64)
        targets = np.empty(n, dtype=np.int64)
        for i, s in enumerate(samples):
            if len(s.source_ids) != cfg.maxlen:
                raise ConfigError(
                    f"sample {i} has {len(s.source_ids)} source ids, "
                    f"expected {cfg.maxlen}"
                )
            if len(s.history) != cfg.history:
                raise ConfigError(
                    f"sample {i} has history length {len(s.history)}, "
                    f"expected {cfg.history}"
                )
            bad = {p for p in (*s.affiliated, *s.head_positions)
                   if not 0 <= p < cfg.maxlen}
            if bad:
                raise ConfigError(
                    f"sample {i} has guide positions {sorted(bad)} "
                    f"outside [0, {cfg.maxlen})"
                )
            ids[i] = s.source_ids
            if s.affiliated:
                aff[i, list(s.affiliated)] = True
            if s.head_positions:
                head[i, list(s.head_positions)] = True
            hist[i] = s.history
            targets[i] = s.target
        return cls(ids=ids, aff_mask=aff, head_mask=head, hist=hist, targets=targets)

    def __len__(self) -> int:
        return self.ids.shape[0]


@dataclass
class PredictorCache:
    """Forward intermediates of the predictor stack for one batch."""

    phi: np.ndarray
    x0: np.ndarray
    hidden_acts: list[np.ndarray]


def _hidden_stack(phi, hist, p):
    """Predictor input rows and the activations of every hidden layer."""
    hist_flat = p.tgt_embeddings[hist].reshape(phi.shape[0], -1)
    x0 = np.concatenate([phi, hist_flat], axis=1)
    return x0, sigmoid_stack(x0, p.hidden_layers)


def _log_normalizer(block: np.ndarray) -> np.ndarray:
    """Each row's logsumexp; overwrites ``block`` with ``exp(block - rowmax)``."""
    m = block.max(axis=1)
    block -= m[:, None]
    np.exp(block, out=block)
    return m + np.log(block.sum(axis=1))


def predict_forward_batch(
    phi: np.ndarray,
    hist: np.ndarray,
    p: JointModelParams,
) -> tuple[np.ndarray, PredictorCache]:
    """Log-probabilities over the target vocabulary for each batch row.

    Runs in the dtype of ``p``. The logits turn into the log-probabilities in
    place, so the result is the one rows-by-vocabulary buffer; each row's
    logsumexp normalizer comes from a copy of its ``SOFTMAX_BLOCK``-row
    block. Rows sum to one in probability space by construction.
    """
    x0, acts = _hidden_stack(phi, hist, p)
    logits = np.matmul(acts[-1], p.softmax_w.T)
    logits += p.softmax_b
    block = np.empty_like(logits[:SOFTMAX_BLOCK])
    for lo in range(0, len(logits), SOFTMAX_BLOCK):
        rows = logits[lo : lo + SOFTMAX_BLOCK]
        np.copyto(block[: len(rows)], rows)
        rows -= _log_normalizer(block[: len(rows)])[:, None]
    return logits, PredictorCache(phi=phi, x0=x0, hidden_acts=acts)


def predict_backward_batch(
    cache: PredictorCache,
    dlogits: np.ndarray,
    p: JointModelParams,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Predictor gradients for a given logits gradient.

    Returns the gradient dict for the predictor tensors, the gradient with
    respect to the encoder representation, and the gradient with respect to
    the flattened history embeddings. The embedding-table scatter happens in
    the caller, which also owns the attention-path history gradient.
    """
    grads = {}
    grads["softmax_w"] = dlogits.T @ cache.hidden_acts[-1]
    grads["softmax_b"] = dlogits.sum(axis=0)
    da = sigmoid_stack_backward(dlogits @ p.softmax_w, cache.x0, cache.hidden_acts,
                                p.hidden_layers, "hidden", grads)
    repr_dim = cache.phi.shape[1]
    return grads, da[:, :repr_dim], da[:, repr_dim:]


def forward_batch(
    batch: SampleBatch,
    cfg: EncoderConfig,
    p: JointModelParams,
) -> tuple[np.ndarray, "enc.BatchCache", PredictorCache]:
    """Full model forward: encoder then predictor, in ``compute_params(p)``."""
    pc = compute_params(p)
    phi, enc_cache = enc.forward_batch(
        batch.ids, batch.aff_mask, batch.head_mask, batch.hist, cfg, pc)
    log_probs, pred_cache = predict_forward_batch(phi, batch.hist, pc)
    return log_probs, enc_cache, pred_cache


def _encoder_key(batch: SampleBatch, cfg: EncoderConfig) -> np.ndarray:
    """The packed columns the encoder reads, one row per sample."""
    cols = [batch.ids]
    if cfg.tag_bits:
        cols.append(batch.aff_mask)
    if cfg.arch == "tag_dep":
        cols.append(batch.head_mask)
    if cfg.arch == "attention":
        cols.append(batch.hist)
    return np.concatenate(cols, axis=1)


def log_probs_batch(
    samples: Sequence[TrainingSample],
    cfg: EncoderConfig,
    p: JointModelParams,
) -> np.ndarray:
    """Log-probability of each sample's target word, in the compute dtype.

    Runs in ``compute_params(p)``: float32 parameters are cast once per call,
    and the result is float64, or longdouble for longdouble parameters. The
    encoder runs once per distinct encoder input, ``SCORE_ROWS`` rows at a
    time. Each block of ``SOFTMAX_BLOCK`` distinct (encoder input, history)
    rows then runs the hidden stack, the logits and the normalizer, so the
    samples-by-vocabulary log-probability matrix is never built.
    """
    pc = compute_params(p)
    dtype = pc.softmax_w.dtype
    out = np.empty(len(samples), dtype=dtype)
    if not samples:
        return out
    batch = SampleBatch.from_samples(samples, cfg)
    enc_first, enc_slot, _, _ = enc.group_rows(_encoder_key(batch, cfg))
    phi = np.empty((len(enc_first), cfg.repr_dim), dtype=dtype)
    for start in range(0, len(enc_first), SCORE_ROWS):
        rows = enc_first[start : start + SCORE_ROWS]
        phi[start : start + len(rows)], _ = enc.forward_batch(
            batch.ids[rows], batch.aff_mask[rows], batch.head_mask[rows],
            batch.hist[rows], cfg, pc)

    first, slot, order, starts = enc.group_rows(
        np.concatenate([enc_slot[:, None], batch.hist], axis=1))
    block = np.empty((SOFTMAX_BLOCK, pc.target_vocab_size), dtype=dtype)
    for lo in range(0, len(first), SOFTMAX_BLOCK):
        rows = first[lo : lo + SOFTMAX_BLOCK]
        _, acts = _hidden_stack(phi[enc_slot[rows]], batch.hist[rows], pc)
        logits = np.matmul(acts[-1], pc.softmax_w.T, out=block[: len(rows)])
        logits += pc.softmax_b
        members = order[starts[lo] : starts[lo + len(rows)]]
        at = slot[members] - lo
        out[members] = logits[at, batch.targets[members]]
        out[members] -= _log_normalizer(logits)[at]
    return out


def perplexity(
    samples: Iterable[TrainingSample],
    cfg: EncoderConfig,
    p: JointModelParams,
) -> float:
    """Per-word perplexity exp(-mean log p) over a sample collection."""
    lp = log_probs_batch(list(samples), cfg, p)
    if lp.size == 0:
        raise ConfigError("perplexity of an empty sample set is undefined")
    return float(np.exp(-lp.mean()))
