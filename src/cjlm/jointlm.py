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
    EncoderParams,
    named_tensors,
    sigmoid,
)
from .errors import ConfigError
from .vocab import PAD_ID

DEFAULT_HIDDEN_DIMS = (200,)
# Rows per softmax block when only target log-probabilities are wanted.
SOFTMAX_BLOCK = 32

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


@dataclass
class JointModelParams:
    """Encoder tensors plus the predictor stack.

    ``hidden_layers`` holds (weight, bias) pairs for the sigmoid stack between
    the concatenated input and the softmax; ``tgt_embeddings`` is shared with
    the attention guide signal. ``tensors()`` lists every tensor by its
    ``param_spec`` name and in its order; ``from_tensors`` is the inverse.
    """

    encoder: EncoderParams
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
        if not hidden_dims or any(d < 1 for d in hidden_dims):
            raise ConfigError("hidden_dims must be a non-empty tuple of positive ints")

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
        """Build the parameters from tensors named as in ``param_spec``."""
        encoder_fields = [f.name for f in fields(EncoderParams)
                          if f.name != "attn_layers"]
        encoder = EncoderParams(
            **{name: tensors.get(name) for name in encoder_fields},
            attn_layers=_layer_stack(tensors, "attn"),
        )
        return cls(
            encoder=encoder,
            tgt_embeddings=tensors["tgt_embeddings"],
            hidden_layers=_layer_stack(tensors, "hidden"),
            softmax_w=tensors["softmax_w"],
            softmax_b=tensors["softmax_b"],
        )

    @property
    def hidden_dims(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w, _ in self.hidden_layers)

    @property
    def target_vocab_size(self) -> int:
        return self.softmax_w.shape[0]

    def tensors(self) -> dict[str, np.ndarray]:
        return named_tensors(self)

    def astype(self, dtype) -> "JointModelParams":
        return self.from_tensors(
            {name: t.astype(dtype) for name, t in self.tensors().items()})


def cast_params(p: JointModelParams, dtype) -> JointModelParams:
    """``p`` in ``dtype``: ``p`` itself when it already is, else one cast."""
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
    hist: np.ndarray
    hist_flat: np.ndarray
    x0: np.ndarray
    hidden_acts: list[np.ndarray]
    log_probs: np.ndarray


def _hidden_stack(phi, hist, p):
    """Predictor input rows and the activations of every hidden layer."""
    hist_flat = p.tgt_embeddings[hist].reshape(phi.shape[0], -1)
    x0 = np.concatenate([phi, hist_flat], axis=1)
    acts = []
    a = x0
    for w, b in p.hidden_layers:
        a = sigmoid(a @ w.T + b)
        acts.append(a)
    return hist_flat, x0, acts


def predict_forward_batch(
    phi: np.ndarray,
    hist: np.ndarray,
    p: JointModelParams,
    dtype=np.float64,
) -> tuple[np.ndarray, PredictorCache]:
    """Log-probabilities over the target vocabulary for each batch row.

    ``p`` must already be cast to ``dtype``. Rows of the result sum to one in
    probability space by construction: the softmax is computed in log space
    with a logsumexp normalizer.
    """
    hist_flat, x0, acts = _hidden_stack(phi, hist, p)
    logits = (acts[-1] if acts else x0) @ p.softmax_w.T + p.softmax_b
    m = logits.max(axis=1, keepdims=True)
    log_norm = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    log_probs = logits - log_norm
    cache = PredictorCache(
        phi=phi, hist=hist, hist_flat=hist_flat, x0=x0,
        hidden_acts=acts, log_probs=log_probs,
    )
    return log_probs, cache


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
    a_last = cache.hidden_acts[-1] if cache.hidden_acts else cache.x0
    grads["softmax_w"] = dlogits.T @ a_last
    grads["softmax_b"] = dlogits.sum(axis=0)
    da = dlogits @ p.softmax_w
    for i in range(len(p.hidden_layers) - 1, -1, -1):
        w, _ = p.hidden_layers[i]
        act = cache.hidden_acts[i]
        prev = cache.x0 if i == 0 else cache.hidden_acts[i - 1]
        dpre = da * act * (1.0 - act)
        grads[f"hidden_{i}_w"] = dpre.T @ prev
        grads[f"hidden_{i}_b"] = dpre.sum(axis=0)
        da = dpre @ w
    repr_dim = cache.phi.shape[1]
    return grads, da[:, :repr_dim], da[:, repr_dim:]


def forward_batch(
    batch: SampleBatch,
    cfg: EncoderConfig,
    p: JointModelParams,
    dtype=np.float64,
) -> tuple[np.ndarray, "enc.BatchCache", PredictorCache]:
    """Full model forward: encoder then predictor, sharing one cast of ``p``.

    ``p`` is used as it is when it is already in ``dtype``.
    """
    pc = cast_params(p, dtype)
    hist = batch.hist if cfg.arch == "attention" else None
    phi, enc_cache = enc.forward_batch(
        batch.ids, batch.aff_mask, batch.head_mask, hist,
        cfg, pc.encoder, pc.tgt_embeddings, dtype=dtype,
    )
    log_probs, pred_cache = predict_forward_batch(phi, batch.hist, pc, dtype=dtype)
    return log_probs, enc_cache, pred_cache


def _distinct_rows(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of ``key``, and each row's slot."""
    _, first, slot = np.unique(key, axis=0, return_index=True,
                               return_inverse=True)
    return first, slot.reshape(-1)


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
    minibatch: int = 512,
    dtype=np.float64,
) -> np.ndarray:
    """Log-probability of each sample's target word.

    ``p`` is cast to ``dtype`` once per call. The encoder runs once per
    distinct encoder input and the hidden stack once per distinct (encoder
    input, history) pair; ``minibatch`` bounds the rows either takes at once.
    The softmax runs over blocks of ``SOFTMAX_BLOCK`` distinct rows, so the
    samples-by-vocabulary log-probability matrix is never built.
    """
    out = np.empty(len(samples), dtype=np.float64)
    if not samples:
        return out
    pc = cast_params(p, dtype)
    batch = SampleBatch.from_samples(samples, cfg)
    enc_first, enc_slot = _distinct_rows(_encoder_key(batch, cfg))
    phi = np.empty((len(enc_first), cfg.repr_dim), dtype=dtype)
    for start in range(0, len(enc_first), minibatch):
        rows = enc_first[start : start + minibatch]
        phi[start : start + len(rows)], _ = enc.forward_batch(
            batch.ids[rows], batch.aff_mask[rows], batch.head_mask[rows],
            batch.hist[rows] if cfg.arch == "attention" else None,
            cfg, pc.encoder, pc.tgt_embeddings, dtype=dtype,
        )

    pred_first, pred_slot = _distinct_rows(
        np.concatenate([enc_slot[:, None], batch.hist], axis=1))
    # Samples sorted by predictor row: those of rows [i, j) are
    # by_row[bounds[i]:bounds[j]].
    by_row = np.argsort(pred_slot, kind="stable")
    bounds = np.searchsorted(pred_slot[by_row], np.arange(len(pred_first) + 1))
    target_logit = np.empty(len(samples), dtype=dtype)
    log_norm = np.empty(len(pred_first), dtype=dtype)
    block = np.empty((SOFTMAX_BLOCK, pc.target_vocab_size), dtype=dtype)
    for start in range(0, len(pred_first), minibatch):
        rows = pred_first[start : start + minibatch]
        _, x0, acts = _hidden_stack(phi[enc_slot[rows]], batch.hist[rows], pc)
        top = acts[-1] if acts else x0
        for lo in range(0, len(rows), SOFTMAX_BLOCK):
            hi = min(lo + SOFTMAX_BLOCK, len(rows))
            logits = np.matmul(top[lo:hi], pc.softmax_w.T, out=block[: hi - lo])
            logits += pc.softmax_b
            members = by_row[bounds[start + lo] : bounds[start + hi]]
            target_logit[members] = logits[pred_slot[members] - (start + lo),
                                           batch.targets[members]]
            m = logits.max(axis=1, keepdims=True)
            logits -= m
            np.exp(logits, out=logits)
            log_norm[start + lo : start + hi] = (
                m + np.log(logits.sum(axis=1, keepdims=True)))[:, 0]
    out[:] = target_logit - log_norm[pred_slot]
    return out


def perplexity(
    samples: Iterable[TrainingSample],
    cfg: EncoderConfig,
    p: JointModelParams,
    minibatch: int = 512,
) -> float:
    """Per-word perplexity exp(-mean log p) over a sample collection."""
    lp = log_probs_batch(list(samples), cfg, p, minibatch=minibatch)
    if lp.size == 0:
        raise ConfigError("perplexity of an empty sample set is undefined")
    return float(np.exp(-lp.mean()))
