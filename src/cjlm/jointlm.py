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

from dataclasses import dataclass, field, fields
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
# The tensors read only by gathering rows, which compute_params leaves in
# their storage dtype.
EMBEDDING_TABLES = ("src_embeddings", "tgt_embeddings")


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
    # Set by ``astype``: the (V, H + 2) output layer ``[w | b | 1]`` whose
    # views are ``softmax_w`` and ``softmax_b``. It lays out two tensors and
    # is not one itself.
    output_layer: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False)

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
            if f.name == "output_layer":
                continue
            if f.name.endswith("_layers"):
                stack = f.name[: -len("_layers")]
                for i, (w, b) in enumerate(value):
                    out[f"{stack}_{i}_w"], out[f"{stack}_{i}_b"] = w, b
            elif value is not None:
                out[f.name] = value
        return out

    def astype(self, dtype, *, share_tables: bool = False) -> "JointModelParams":
        """A copy in ``dtype`` whose ``softmax_w`` and ``softmax_b`` are
        written straight into its ``output_layer`` ``[w | b | 1]``.

        With ``share_tables`` the copy holds this object's own embedding
        tables, in their own dtype, and copies every other tensor: the
        compute parameters of ``compute_params``, whose readers widen the
        rows they gather (``encoder.embed``).
        """
        tensors = self.tensors()
        vocab, hidden = self.softmax_w.shape
        layer = np.empty((vocab, hidden + 2), dtype=dtype)
        layer[:, :hidden] = tensors.pop("softmax_w")
        layer[:, hidden] = tensors.pop("softmax_b")
        layer[:, hidden + 1] = 1.0
        shared = EMBEDDING_TABLES if share_tables else ()
        out = self.from_tensors({name: t if name in shared else t.astype(dtype)
                                 for name, t in tensors.items()}
                                | {"softmax_w": layer[:, :hidden],
                                   "softmax_b": layer[:, hidden]})
        out.output_layer = layer
        return out


def compute_params(p: JointModelParams) -> JointModelParams:
    """``p`` in its compute dtype, the promotion of its dtype with float64,
    with its output layer laid out by ``astype``.

    Parameters already in that dtype whose ``softmax_w`` and ``softmax_b``
    view their ``output_layer`` are returned as they are, the same object.
    Anything else, float32 storage for one, gets one cast that shares the
    embedding tables: they stay ``p``'s own arrays in their storage dtype,
    each batch widens the few rows it gathers, and widening float32 is
    exact, so every product is the one a full cast would give.
    """
    dtype = np.promote_types(p.softmax_w.dtype, np.float64)
    layer = p.output_layer
    laid_out = (layer is not None and p.softmax_w.base is layer
                and p.softmax_b.base is layer)
    if laid_out and layer.dtype == dtype:
        return p
    return p.astype(dtype, share_tables=True)


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
    hist_flat = enc.embed(p.tgt_embeddings, hist, phi.dtype).reshape(phi.shape[0], -1)
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
    # Added from a contiguous copy: broadcast down the rows, the strided view
    # in the output layer reads a cache line per word, about 3x slower at
    # paper size.
    logits += np.ascontiguousarray(p.softmax_b)
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
    grads["softmax_w"] = np.matmul(cache.hidden_acts[-1].T, dlogits).T
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
    the hidden stack, then sweeps the ``[w | b | 1]`` output layer in
    ``SOFTMAX_TILE``-word tiles: one GEMM into one block-by-tile scratch, its
    samples' target logits read from the tile that holds them, and the tile
    folded into each row's sum of exponentials. An encoder input whose rows
    straddle two blocks runs in both. So no encoder cache outlives its block,
    no weight row is copied, and neither the samples-by-vocabulary matrix
    nor a block-by-vocabulary one is built.

    The bias and each row's shift enter the GEMM as the layer's last two
    columns, ``[h, 1, -shift] @ [w, b, 1].T``. The first tile sets the shift
    to each row's max over it. A later tile is exponentiated and summed, two
    passes, and a row whose tile sum passes the ceiling below (or overflows)
    could overflow its running sum: that row alone recomputes its tile,
    raises its shift to the tile's max and rescales its sum.

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
    layer = pc.output_layer
    vocab, hidden = pc.softmax_w.shape
    # At most vocab tiles that each sum to at most this add up to under the
    # dtype's largest value, with one nat to spare for rounding.
    ceiling = np.exp(np.log(np.finfo(dtype).max) - np.log(vocab) - 1.0)
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
        scratch = np.empty((hi - lo) * min(SOFTMAX_TILE, vocab), dtype=dtype)
        for t, v in enumerate(range(0, vocab, SOFTMAX_TILE)):
            w = layer[v : v + SOFTMAX_TILE]
            # Contiguous even for the ragged last tile, so numpy need not buffer.
            logits = scratch[: (hi - lo) * len(w)].reshape(hi - lo, len(w))
            np.matmul(x, w.T, out=logits)
            here = tile_of == t
            out[members[here]] = logits[at[here], column[here]]
            read_shift[here] = shift[at[here]]
            if t == 0:
                top = logits.max(axis=1)
                logits -= top[:, None]
                shift += top
                x[:, hidden + 1] = -shift
            with np.errstate(over="ignore"):
                np.exp(logits, out=logits)
                tile_sum = logits.sum(axis=1)
            # Past the ceiling, inf or nan. A finite first tile never is: its
            # terms are at most 1.
            hot = np.flatnonzero(~(tile_sum <= ceiling))
            if hot.size:
                redo = x[hot] @ w.T
                top = redo.max(axis=1)
                redo -= top[:, None]
                s[hot] *= np.exp(-top)
                shift[hot] += top
                x[hot, hidden + 1] = -shift[hot]
                np.exp(redo, out=redo)
                tile_sum[hot] = redo.sum(axis=1)
            s += tile_sum
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
