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
from itertools import chain
from typing import Iterable, NamedTuple, NoReturn, Sequence

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
# Most distinct (encoder input, history) rows per scoring block; each block
# runs the encoder on its own distinct encoder inputs.
SCORE_ROWS = 512
# Vocabulary columns per scoring GEMM: a SCORE_ROWS x SOFTMAX_TILE scratch
# keeps big row blocks (fast GEMMs) in a small working set.
SOFTMAX_TILE = 2048

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
        """Packs the samples column by column. Each distinct source tuple
        becomes one row, gathered per sample. A bad sample raises
        ``ConfigError``: the first bad sample, at its first failing check."""
        if not samples:
            raise ConfigError("cannot build a batch from zero samples")
        n = len(samples)
        index: dict[tuple[int, ...], int] = {}
        src_of = np.fromiter((index.setdefault(s.source_ids, len(index))
                              for s in samples), np.intp, n)
        src_len = np.fromiter(map(len, index), np.intp, len(index))
        hist_len = np.fromiter((len(s.history) for s in samples), np.intp, n)
        aff_rows, aff_pos = _positions(s.affiliated for s in samples)
        head_rows, head_pos = _positions(s.head_positions for s in samples)
        off_guide = np.zeros(n, dtype=bool)
        for rows, pos in ((aff_rows, aff_pos), (head_rows, head_pos)):
            off_guide[rows[(pos < 0) | (pos >= cfg.maxlen)]] = True
        bad = (src_len[src_of] != cfg.maxlen) | (hist_len != cfg.history) | off_guide
        if bad.any():
            _reject(int(np.argmax(bad)), samples, cfg)
        table = np.fromiter(chain.from_iterable(index), np.int64,
                            len(index) * cfg.maxlen).reshape(len(index), cfg.maxlen)
        hist = np.fromiter(chain.from_iterable(s.history for s in samples), np.int64,
                           n * cfg.history).reshape(n, cfg.history)
        aff = np.zeros((n, cfg.maxlen), dtype=bool)
        aff[aff_rows, aff_pos] = True
        head = np.zeros((n, cfg.maxlen), dtype=bool)
        head[head_rows, head_pos] = True
        return cls(ids=table[src_of], aff_mask=aff, head_mask=head, hist=hist,
                   targets=np.fromiter((s.target for s in samples), np.int64, n))

    def __len__(self) -> int:
        return self.ids.shape[0]


def _positions(sets: Iterable[frozenset[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Each position of each sample's set, flattened, and its sample."""
    sets = list(sets)
    counts = np.fromiter(map(len, sets), np.intp, len(sets))
    pos = np.fromiter(chain.from_iterable(sets), np.int64, int(counts.sum()))
    return np.repeat(np.arange(len(sets)), counts), pos


def _reject(i: int, samples: Sequence[TrainingSample], cfg: EncoderConfig) -> NoReturn:
    """Raises the ``ConfigError`` of sample i's first failing check."""
    s = samples[i]
    if len(s.source_ids) != cfg.maxlen:
        raise ConfigError(
            f"sample {i} has {len(s.source_ids)} source ids, expected {cfg.maxlen}")
    if len(s.history) != cfg.history:
        raise ConfigError(
            f"sample {i} has history length {len(s.history)}, expected {cfg.history}")
    bad = {p for p in (*s.affiliated, *s.head_positions) if not 0 <= p < cfg.maxlen}
    raise ConfigError(
        f"sample {i} has guide positions {sorted(bad)} outside [0, {cfg.maxlen})")


def check_ids(batch: SampleBatch, p: JointModelParams) -> None:
    """Raises ``ConfigError`` naming the first sample of ``batch`` with an id
    outside its vocabulary: a source id outside ``p``'s source embeddings, or
    a history or target id outside its target vocabulary."""
    columns = (("source", batch.ids, p.src_embeddings.shape[0]),
               ("history", batch.hist, p.tgt_embeddings.shape[0]),
               ("target", batch.targets[:, None], p.target_vocab_size))
    bad = [(ids < 0) | (ids >= size) for _, ids, size in columns]
    rows = np.logical_or.reduce([b.any(axis=1) for b in bad])
    if not rows.any():
        return
    i = int(np.argmax(rows))
    for (what, ids, size), b in zip(columns, bad):
        if b[i].any():
            raise ConfigError(
                f"sample {i} has {what} id {ids[i][b[i]][0]} outside [0, {size})")


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


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Bounds of the ``ceil(n / SCORE_ROWS)`` scoring blocks over ``n``
    distinct predictor rows: consecutive, covering ``range(n)``, with sizes
    that differ by at most one."""
    count = -(-n // SCORE_ROWS)
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def predict_forward_batch(
    phi: np.ndarray,
    hist: np.ndarray,
    p: JointModelParams,
) -> tuple[np.ndarray, PredictorCache]:
    """Probabilities over the target vocabulary for each batch row.

    Runs in the dtype of ``p``. The logits turn into the probabilities in
    place through ``encoder.softmax``, so the result is the one
    rows-by-vocabulary buffer.
    """
    x0, acts = _hidden_stack(phi, hist, p)
    logits = np.matmul(acts[-1], p.softmax_w.T)
    logits += p.softmax_b
    return enc.softmax(logits, axis=1), PredictorCache(phi=phi, x0=x0, hidden_acts=acts)


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
    # The transpose of acts.T @ dlogits: the same product in the faster layout.
    grads["softmax_w"] = (cache.hidden_acts[-1].T @ dlogits).T
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
    """Full model forward in ``compute_params(p)``: each row's probabilities
    over the target vocabulary, then the encoder and predictor caches."""
    pc = compute_params(p)
    phi, enc_cache = enc.forward_batch(
        batch.ids, batch.aff_mask, batch.head_mask, batch.hist, cfg, pc)
    probs, pred_cache = predict_forward_batch(phi, batch.hist, pc)
    return probs, enc_cache, pred_cache


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
    distinct (encoder input, history) rows, in their sorted order, split into
    even blocks of at most ``SCORE_ROWS``. Each block runs the encoder once
    on its distinct encoder inputs, keeping only their representations, then
    the hidden stack, then sweeps ``softmax_w`` in ``SOFTMAX_TILE``-word
    tiles: one GEMM into one block-by-tile scratch, its samples' target
    logits read from the tile that holds them, and the tile folded into each
    row's sum of exponentials. An encoder input whose rows straddle two
    blocks runs in both. So no encoder cache outlives its block, and neither
    the samples-by-vocabulary matrix nor a block-by-vocabulary one is built.

    The fold takes two passes over a tile. The bias and each row's shift
    enter the GEMM as two more columns, ``[h, 1, -shift] @ [w, b, 1].T``.
    The shift is the row's max over the first tile; a later tile is only
    checked against the limit below, exponentiated and summed. A row whose
    tile rises more than that limit above its shift, where the row's sum
    could overflow, raises its shift to the tile's max and rescales its sum,
    that row alone.

    An id outside its vocabulary raises ``ConfigError`` (``check_ids``).
    """
    pc = compute_params(p)
    dtype = pc.softmax_w.dtype
    out = np.empty(len(samples), dtype=dtype)
    if not samples:
        return out
    batch = SampleBatch.from_samples(samples, cfg)
    check_ids(batch, pc)
    enc_first, enc_slot, _, _ = enc.group_rows(_encoder_key(batch, cfg))
    first, slot, order, starts = enc.group_rows(
        np.concatenate([enc_slot[:, None], batch.hist], axis=1))
    vocab, hidden = pc.softmax_w.shape
    # Below this, a row's vocab terms sum to under the dtype's largest value,
    # with one nat to spare for the rounding of the sum.
    limit = np.log(np.finfo(dtype).max) - np.log(vocab) - 1.0
    # The [w, b, 1] rows of one tile.
    tile_w = np.empty((min(SOFTMAX_TILE, vocab), hidden + 2), dtype=dtype)
    tile_w[:, hidden + 1] = 1.0
    for lo, hi in _row_blocks(len(first)):
        rows = first[lo:hi]
        # Sorted by encoder slot first, so the block's inputs are one run.
        enc_lo = enc_slot[rows[0]]
        src = enc_first[enc_lo : enc_slot[rows[-1]] + 1]
        phi = enc.forward_batch(batch.ids[src], batch.aff_mask[src],
                                batch.head_mask[src], batch.hist[src], cfg, pc)[0]
        _, acts = _hidden_stack(phi[enc_slot[rows] - enc_lo], batch.hist[rows], pc)
        x = np.empty((hi - lo, hidden + 2), dtype=dtype)
        x[:, :hidden] = acts[-1]
        x[:, hidden] = 1.0
        x[:, hidden + 1] = 0.0
        shift = np.zeros(hi - lo, dtype=dtype)
        s = np.zeros_like(shift)
        members = order[starts[lo] : starts[hi]]
        at = slot[members] - lo
        tile_of, column = np.divmod(batch.targets[members], SOFTMAX_TILE)
        # The shift each target logit was read against.
        read_shift = np.empty(len(members), dtype=dtype)
        scratch = np.empty((hi - lo) * len(tile_w), dtype=dtype)
        for t, v in enumerate(range(0, vocab, SOFTMAX_TILE)):
            w = tile_w[: min(SOFTMAX_TILE, vocab - v)]
            w[:, :hidden] = pc.softmax_w[v : v + len(w)]
            w[:, hidden] = pc.softmax_b[v : v + len(w)]
            # Contiguous even for the ragged last tile, so numpy need not buffer.
            logits = scratch[: (hi - lo) * len(w)].reshape(hi - lo, len(w))
            np.matmul(x, w.T, out=logits)
            here = tile_of == t
            out[members[here]] = logits[at[here], column[here]]
            read_shift[here] = shift[at[here]]
            # The first tile sets every row's shift; a later one moves only
            # the rows that it lifts past the limit.
            top = logits.max(axis=1)
            hot = slice(None) if t == 0 else np.flatnonzero(top > limit)
            step = top[hot]
            logits[hot] -= step[:, None]
            if t:
                s[hot] *= np.exp(-step)
            shift[hot] += step
            x[hot, hidden + 1] = -shift[hot]
            np.exp(logits, out=logits)
            s += logits.sum(axis=1)
        # Read against shift r, a target scores (logit - r) - ((shift - r) + log s).
        out[members] -= (shift[at] - read_shift) + np.log(s)[at]
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
