"""Convolutional source-sentence encoders.

The encoder is a fixed six-stage pipeline over a left-padded source sentence:
word embeddings, a width-3 sigmoid convolution, a local fusion step pairing
adjacent convolution windows, a second width-3 convolution, a global fusion
step over all remaining locations, and a final sigmoid projection to the
representation consumed by the next-word predictor.

Four architectures share the pipeline and differ only in the guide signal:

* ``generic``    no guide; the representation depends on the source alone.
* ``tag``        an extra 0/1 embedding column marks the source words tied to
                 the predicted target word by the word alignment.
* ``tag_dep``    a second 0/1 column additionally marks the dependency heads
                 of those marked words.
* ``attention``  a signal computed from the target history is prepended to the
                 input of every first-layer convolution window.

Fusion is either content-conditioned gating (a logistic gate over window pairs
locally, a softmax-weighted sum globally) or the max-pooling ablation (pairwise
max locally, mean of the per-feature top-k globally). Both produce identically
shaped inputs for the projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .vocab import PAD_ID

if TYPE_CHECKING:
    from .jointlm import JointModelParams

ARCHS = ("generic", "tag", "tag_dep", "attention")
FUSIONS = ("gating", "pooling")
CONV_WINDOW = 3  # both convolution layers use width-3 windows
LOCAL_PAIR = 2  # local fusion pairs windows two at a time

INIT_SCALE = 0.08
PARAM_DTYPE = np.float32
# Row blocks of the encoder's 2-D products. With two threads, OpenBLAS grows
# the resident set by about 45 MB on one product of ~20k rows; blocks of this
# size keep that growth to about 5 MB at the same speed.
GEMM_ROWS = 2048
# Byte budget of one chunk of the encoder's per-sample element-wise passes.
# A pass over a whole batch's pre-activations runs at memory speed; over
# chunks of this size it stays in cache.
CHUNK_BYTES = 512 * 1024


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, elementwise: with e = exp(-|x|),
    1 / (1 + e) for x >= 0 and e / (1 + e) below, computed as
    exp(min(x, 0)) / (1 + e) into ``out``, which may be ``x`` itself."""
    x = np.asarray(x)
    # The result is allocated before the temporary: a freed temporary below a
    # kept result is a heap hole that the allocator does not hand back.
    if out is None:
        out = np.empty(x.shape, np.result_type(x, 1.0))
    e = np.abs(x, out=np.empty_like(out))
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    np.minimum(x, 0.0, out=out)
    np.exp(out, out=out)
    out /= e
    return out


def require_ints(config) -> None:
    """Raise ConfigError unless every ``int`` field of ``config`` holds a Python
    or NumPy int: a float such as 10.0 passes every range check and fails
    later as an array size, and a bool is no dimension."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int) and (isinstance(value, bool) or
                                       not isinstance(value, (int, np.integer))):
            raise ConfigError(f"{f.name} must be an integer, not {type(value).__name__}")


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction, computed in place in ``x`` and returned;
    the bare formula overflows in low precision."""
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture and dimensions of one encoder instance.

    Defaults follow the reference setup: 100-dim embeddings, 100 filters per
    convolution layer, a 100-dim representation, 40-word padded sources, and a
    3-word target history.
    """

    arch: str = "generic"
    emb_dim: int = 100
    tgt_emb_dim: int = 100
    attn_dim: int = 100
    filters1: int = 100
    filters3: int = 100
    repr_dim: int = 100
    maxlen: int = 40
    history: int = 3
    fusion: str = "gating"
    pool_k: int = 2
    attn_depth: int = 1

    def __post_init__(self):
        require_ints(self)
        if self.arch not in ARCHS:
            raise ConfigError(f"unknown arch {self.arch!r}; expected one of {ARCHS}")
        if self.fusion not in FUSIONS:
            raise ConfigError(
                f"unknown fusion {self.fusion!r}; expected one of {FUSIONS}"
            )
        for name in ("emb_dim", "tgt_emb_dim", "filters1", "filters3", "repr_dim",
                     "history", "attn_depth"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.arch == "attention" and self.attn_dim < 1:
            raise ConfigError("attn_dim must be positive for the attention arch")
        if self.conv_locs1 < 2 or self.conv_locs1 % LOCAL_PAIR != 0:
            raise ConfigError(
                f"maxlen {self.maxlen} gives {self.conv_locs1} first-layer windows; "
                f"local fusion needs a positive even count"
            )
        if self.conv_locs3 < 1:
            raise ConfigError(
                f"maxlen {self.maxlen} leaves no locations after the second convolution"
            )
        if self.fusion == "pooling" and not 1 <= self.pool_k <= self.conv_locs3:
            raise ConfigError(
                f"pool_k {self.pool_k} out of range; must be in [1, {self.conv_locs3}]"
            )

    # Layer geometry. Both convolutions are narrow: each drops two locations.
    @property
    def conv_locs1(self) -> int:
        return self.maxlen - (CONV_WINDOW - 1)

    @property
    def fused_locs(self) -> int:
        return self.conv_locs1 // LOCAL_PAIR

    @property
    def conv_locs3(self) -> int:
        return self.fused_locs - (CONV_WINDOW - 1)

    @property
    def tag_bits(self) -> int:
        return {"generic": 0, "tag": 1, "tag_dep": 2, "attention": 0}[self.arch]

    @property
    def input_dim(self) -> int:
        """Width of one input row: embedding plus any tag columns."""
        return self.emb_dim + self.tag_bits

    @property
    def prefix_dim(self) -> int:
        return self.attn_dim if self.arch == "attention" else 0

    @property
    def conv1_width(self) -> int:
        return self.prefix_dim + CONV_WINDOW * self.input_dim


def sigmoid_stack(x: np.ndarray, layers) -> list[np.ndarray]:
    """Activations of a stack of dense sigmoid layers, given (weight, bias)
    pairs: the attention signal and the predictor hidden stack."""
    acts = []
    for w, b in layers:
        x = sigmoid(x @ w.T + b)
        acts.append(x)
    return acts


def sigmoid_layer_backward(da: np.ndarray, x: np.ndarray, act: np.ndarray,
                           name: str, grads: dict[str, np.ndarray]) -> np.ndarray:
    """Backward of ``act = sigmoid(x @ w.T + b)`` over any leading axes for
    the gradient ``da`` of ``act``. Stores ``<name>_w``/``_b`` in ``grads``
    and returns the pre-activation gradient; the input gradient is its ``@ w``.
    """
    dpre = da * act * (1.0 - act)
    linear_backward(dpre, x, name, grads)
    return dpre


def linear_backward(dpre: np.ndarray, x: np.ndarray, name: str,
                    grads: dict[str, np.ndarray]) -> None:
    """Stores in ``grads`` the ``<name>_w``/``_b`` gradients of
    ``x @ w.T + b`` over any leading axes for its gradient ``dpre``: the
    weight gradient is one 2-D GEMM over the flattened rows."""
    rows = _flat(dpre)
    grads[f"{name}_w"] = rows.T @ _flat(x)
    grads[f"{name}_b"] = rows.sum(axis=0)


def sigmoid_stack_backward(da: np.ndarray, x: np.ndarray, acts: list[np.ndarray],
                           layers, stack: str,
                           grads: dict[str, np.ndarray]) -> np.ndarray:
    """Backward of ``sigmoid_stack`` for the gradient ``da`` of its last
    activation. Stores ``<stack>_<i>_w``/``_b`` in ``grads`` and returns the
    gradient with respect to the input ``x``."""
    for i in range(len(layers) - 1, -1, -1):
        prev = x if i == 0 else acts[i - 1]
        dpre = sigmoid_layer_backward(da, prev, acts[i], f"{stack}_{i}", grads)
        da = dpre @ layers[i][0]
    return da


@dataclass
class BatchCache:
    """Everything the batched backward pass needs from the forward pass: the
    layer values and the gathered rows, never a window copy of them. Each
    backward stage rebuilds the windows it reads (``_windows``) from these.

    The first layer is linear in the embedding rows, so its word-column terms
    are computed once per distinct source row: ``src`` holds those rows,
    sample i reads ``src[src_of[i]]``, ``src_order`` and ``src_starts`` list
    each source's samples (``group_rows``), and ``src_rows``, their embedding
    rows, are per source. The 0/1 tag columns, ``tags``, are per sample.

    Pooling keeps no full sigmoid layer: ``take`` marks the pair member each
    fused value came from, ``top_idx`` each feature's top-k locations and
    ``z3_top`` the sigmoid values there; ``z1`` and ``z3`` stay None.
    """

    src: np.ndarray
    src_of: np.ndarray
    src_order: np.ndarray
    src_starts: np.ndarray
    src_rows: np.ndarray
    tags: np.ndarray | None = None
    hist_flat: np.ndarray | None = None
    signal_acts: list[np.ndarray] = field(default_factory=list)
    z1: np.ndarray = None
    alpha: np.ndarray = None
    take: np.ndarray = None
    z2: np.ndarray = None
    z3: np.ndarray = None
    omega: np.ndarray = None
    top_idx: np.ndarray = None
    z3_top: np.ndarray = None
    z4: np.ndarray = None
    phi: np.ndarray = None


def _windows(x: np.ndarray, n: int, span: int = CONV_WINDOW,
             step: int = 1) -> np.ndarray:
    """``n`` batched window rows; window i joins rows ``i * step + t``, t < span.
    Over a sample's rows laid end to end, window i is the ``span * width``
    values from row ``i * step`` on: one strided view, copied once."""
    width = x.shape[2]
    rows = x.reshape(len(x), x.shape[1] * width)
    views = np.lib.stride_tricks.sliding_window_view(rows, span * width, axis=1)
    return views[:, : step * width * (n - 1) + 1 : step * width].copy()


def _windows_backward(dwin: np.ndarray, dx: np.ndarray, step: int = 1) -> np.ndarray:
    """Adjoint of ``_windows``: adds the window gradient into ``dx``, block t
    in order of t, and returns ``dx``."""
    n, width = dwin.shape[1], dx.shape[2]
    stop = step * (n - 1) + 1
    for t in range(dwin.shape[2] // width):
        dx[:, t : t + stop : step] += dwin[:, :, t * width : (t + 1) * width]
    return dx


def _split_columns(w: np.ndarray, cfg: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Views of the word and the tag columns, (rows, span, ``emb_dim``) and
    (rows, span, ``tag_bits``), of a 2-D weight over windows of layer-0 rows,
    whose ``input_dim``-wide blocks hold the embedding and then the tags."""
    blocks = w.reshape(len(w), -1, cfg.input_dim)
    return blocks[..., : cfg.emb_dim], blocks[..., cfg.emb_dim :]


def _flat(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1, x.shape[-1])


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a 2-D ``w`` over any leading axes of ``x``, as 2-D
    products of at most ``GEMM_ROWS`` rows into one output. A stacked ``@``
    runs one small product per leading index instead."""
    rows = _flat(x)
    out = np.empty((*x.shape[:-1], w.shape[1]), np.result_type(x, w))
    out_rows = _flat(out)
    for lo in range(0, len(rows), GEMM_ROWS):
        np.matmul(rows[lo : lo + GEMM_ROWS], w, out=out_rows[lo : lo + GEMM_ROWS])
    return out


def _chunks(n: int, row_bytes: int) -> list[tuple[int, int]]:
    """Bounds of consecutive chunks covering ``range(n)``, each as many rows
    of ``row_bytes`` as fit in ``CHUNK_BYTES``, and at least one."""
    step = max(1, CHUNK_BYTES // row_bytes)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def group_rows(key: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group the equal rows of a 2-D non-negative int ``key``.

    Returns ``first``, each group's first row; ``of``, each row's group; and
    ``order`` and ``starts``: the rows of group g, in row order, are
    ``order[starts[g]:starts[g + 1]]``. Groups follow the rows' lexicographic
    order, found by one 1-D sort of each row's big-endian bytes.
    """
    rows = np.ascontiguousarray(key, dtype=">i8").view(f"V{8 * key.shape[1]}")[:, 0]
    _, first, of = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(of, kind="stable")
    return first, of, order, np.searchsorted(of[order], np.arange(len(first) + 1))


def _group_sum(x: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Rows of ``x`` summed per ``group_rows`` group, each in row order: each
    group's first row, then its k-th row added to every group that has one."""
    sizes = np.diff(starts)
    out = x[order[starts[:-1]]]
    for k in range(1, sizes.max()):
        g = np.flatnonzero(sizes > k)
        out[g] += x[order[starts[g] + k]]
    return out


def _guided_linear(cache: BatchCache, w: np.ndarray, cfg: EncoderConfig, n: int,
                   span: int = CONV_WINDOW, step: int = 1,
                   bias: np.ndarray | float = 0.0
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    """The two terms ``(word, tag)`` of the per-sample ``_windows(layer0, n,
    span, step) @ w.T`` for a 2-D weight over windows of layer-0 rows (a
    source embedding, then the sample's tag columns). The word term runs once
    per distinct source, on windows of ``src_rows`` dropped after the product;
    sample i reads its row ``src_of[i]``. The tag term is per sample, None
    without tag columns. ``bias`` joins the word term. Sample i's product is
    its word row plus its tag row, in that order, which fixes the rounding."""
    w_word, w_tag = _split_columns(w, cfg)
    word = _matmul(_windows(cache.src_rows, n, span, step), w_word.reshape(len(w), -1).T)
    word += bias
    tag = None
    if cfg.tag_bits:
        tag = _matmul(_windows(cache.tags, n, span, step), w_tag.reshape(len(w), -1).T)
    return word, tag


def _guided_linear_backward(cache: BatchCache, dout: np.ndarray, w: np.ndarray,
                            cfg: EncoderConfig, dsrc_rows: np.ndarray,
                            step: int = 1) -> np.ndarray:
    """Adjoint of ``_guided_linear`` for its product's gradient ``dout``: adds
    the embedding-row gradient into ``dsrc_rows`` and returns ``w``'s
    gradient, the word columns from the per-source sums of ``dout``, the tag
    columns from ``dout`` itself, each over windows rebuilt to span ``w``'s
    column blocks. The word windows are freed before the adjoint product of
    their shape is allocated."""
    dout_src = _group_sum(dout, cache.src_order, cache.src_starts)
    dw = np.empty_like(w)
    dw_word, dw_tag = _split_columns(dw, cfg)
    windows = _windows(cache.src_rows, dout.shape[1], dw_word.shape[1], step)
    dw_word[...] = (_flat(dout_src).T @ _flat(windows)).reshape(dw_word.shape)
    del windows
    if cfg.tag_bits:
        tag_windows = _windows(cache.tags, dout.shape[1], dw_tag.shape[1], step)
        dw_tag[...] = (_flat(dout).T @ _flat(tag_windows)).reshape(dw_tag.shape)
    w_word, _ = _split_columns(w, cfg)
    _windows_backward(_matmul(dout_src, w_word.reshape(len(w), -1)), dsrc_rows, step)
    return dw


def embed(table: np.ndarray, ids: np.ndarray, dtype) -> np.ndarray:
    """The rows ``table[ids]`` in ``dtype``, the compute dtype. The compute
    parameters keep the embedding tables in their storage dtype
    (``jointlm.compute_params``), so only the gathered rows are widened."""
    return table[ids].astype(dtype, copy=False)


def embedding_grad(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Gradient of an embedding ``table`` whose rows ``table[ids]`` received
    the gradients ``rows`` (shaped ``ids.shape + (dim,)``), in the dtype of
    ``rows``. The PAD row is a constant of the model and gets none."""
    grad = np.zeros(table.shape, rows.dtype)
    content = ids != PAD_ID
    np.add.at(grad, ids[content], rows[content])
    return grad


def forward_batch(
    ids: np.ndarray,
    aff_mask: np.ndarray,
    head_mask: np.ndarray,
    hist: np.ndarray | None,
    cfg: EncoderConfig,
    p: JointModelParams,
) -> tuple[np.ndarray, BatchCache]:
    """Vectorized encoder forward over a batch of prepared samples.

    ``p`` is the ``jointlm.JointModelParams``; the computation runs in the
    dtype of its weights, to which the embedding rows it gathers are widened
    (``embed``). Masks are boolean (batch, maxlen); ``hist`` is int (batch,
    history), read only by the attention arch, which embeds it with
    ``p.tgt_embeddings``.

    The guides enter the first layer linearly, so the word-column terms of
    conv1 and of the local gate run once per distinct row of ``ids``; each
    sample adds its own tag-column and attention-signal terms. The per-sample
    element-wise passes run over chunks of samples of about ``CHUNK_BYTES``
    each, so conv1's full pre-activation never exists; every value is
    bit-identical to a pass over the whole batch.
    """
    batch = ids.shape[0]
    first, src_of, src_order, src_starts = group_rows(ids)
    src = ids[first]
    dtype = p.conv1_w.dtype
    src_rows = embed(p.src_embeddings, src, dtype)
    src_rows[src == PAD_ID] = 0.0
    cache = BatchCache(src=src, src_of=src_of, src_order=src_order,
                       src_starts=src_starts, src_rows=src_rows)
    if cfg.tag_bits:
        # A PAD row is all zero, guide columns included.
        guides = np.stack((aff_mask, head_mask)[: cfg.tag_bits], axis=2)
        cache.tags = (guides & (ids != PAD_ID)[..., None]).astype(dtype)

    word1, tag1 = _guided_linear(
        cache, p.conv1_w[:, cfg.prefix_dim :], cfg, cfg.conv_locs1, bias=p.conv1_b)
    signal1 = None
    if cfg.arch == "attention":
        cache.hist_flat = embed(p.tgt_embeddings, hist, dtype).reshape(batch, -1)
        cache.signal_acts = sigmoid_stack(cache.hist_flat, p.attn_layers)
        signal1 = cache.signal_acts[-1] @ p.conv1_w[:, : cfg.prefix_dim].T

    gating = cfg.fusion == "gating"
    if gating:
        u_word, u_tag = _guided_linear(
            cache, p.gate_local_w[None], cfg, cfg.fused_locs, 2 * LOCAL_PAIR, LOCAL_PAIR)
        u = u_word[cache.src_of]
        if u_tag is not None:
            u += u_tag
        cache.alpha = sigmoid(u[..., 0] + p.gate_local_b)
        cache.z1 = np.empty((batch, cfg.conv_locs1, cfg.filters1), dtype)
    else:
        cache.take = np.empty((batch, cfg.fused_locs, cfg.filters1), bool)
    cache.z2 = np.empty((batch, cfg.fused_locs, cfg.filters1), dtype)

    # conv1's pre-activations exist a chunk at a time: the word row, plus the
    # tag row, plus the signal, then the element-wise layers into the cache.
    # Pooling picks among sigmoid values and the sigmoid is monotone, so it
    # picks on the pre-activations and runs the sigmoid on the picks alone.
    chunks = _chunks(batch, dtype.itemsize * cfg.conv_locs1 * cfg.filters1)
    buf = np.empty((chunks[0][1], *word1.shape[1:]), dtype)
    for lo, hi in chunks:
        pre1 = np.take(word1, cache.src_of[lo:hi], axis=0, out=buf[: hi - lo],
                       mode="clip")
        if tag1 is not None:
            pre1 += tag1[lo:hi]
        if signal1 is not None:
            pre1 += signal1[lo:hi, None, :]
        z2 = cache.z2[lo:hi]
        if gating:
            z1, alpha = sigmoid(pre1, out=cache.z1[lo:hi]), cache.alpha[lo:hi, :, None]
            np.multiply(alpha, z1[:, 0::2], out=z2)
            z2 += (1.0 - alpha) * z1[:, 1::2]
        else:
            take = np.greater_equal(pre1[:, 0::2], pre1[:, 1::2],
                                    out=cache.take[lo:hi])
            sigmoid(np.where(take, pre1[:, 0::2], pre1[:, 1::2]), out=z2)
    del word1, tag1, buf

    pre3 = _matmul(_windows(cache.z2, cfg.conv_locs3), p.conv3_w.T)
    if not gating:
        cache.top_idx = np.empty((batch, cfg.pool_k, cfg.filters3), np.intp)
        cache.z3_top = np.empty(cache.top_idx.shape, dtype)
    for lo, hi in _chunks(batch, dtype.itemsize * cfg.conv_locs3 * cfg.filters3):
        pre = pre3[lo:hi]
        pre += p.conv3_b
        if gating:
            sigmoid(pre, out=pre)
        else:
            top = np.argsort(np.negative(pre), axis=1, kind="stable")[:, : cfg.pool_k]
            cache.top_idx[lo:hi] = top
            sigmoid(np.take_along_axis(pre, top, axis=1), out=cache.z3_top[lo:hi])

    if gating:
        z3 = cache.z3 = pre3  # the sigmoid layer, computed in place
        scores = _matmul(z3, p.gate_global_w[:, None])[..., 0]
        omega = cache.omega = softmax(scores, axis=1)
        z4 = np.einsum("bl,blf->bf", omega, z3)
    else:
        z4 = cache.z3_top.mean(axis=1)
    cache.z4 = z4

    phi = sigmoid(z4 @ p.proj_w.T + p.proj_b)
    cache.phi = phi
    return phi, cache


def backward_batch(
    cache: BatchCache,
    dphi: np.ndarray,
    cfg: EncoderConfig,
    p: JointModelParams,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Exact gradients of the encoder for a given representation gradient.

    Returns the gradient dict keyed like ``JointModelParams.tensors`` plus the
    gradient with respect to the flattened history embeddings (attention arch
    only; None otherwise). PAD rows contribute nothing to the embedding
    gradient because their zero rows are constants.
    """
    grads = {}
    dz4 = sigmoid_layer_backward(dphi, cache.z4, cache.phi, "proj", grads) @ p.proj_w

    if cfg.fusion == "gating":
        z3, omega = cache.z3, cache.omega
        dz3 = omega[..., None] * dz4[:, None, :]
        domega = np.einsum("bf,blf->bl", dz4, z3)
        inner = np.einsum("bl,bl->b", omega, domega)
        dscores = omega * (domega - inner[:, None])
        grads["gate_global_w"] = np.einsum("bl,blf->f", dscores, z3)
        dz3 += dscores[..., None] * p.gate_global_w
        dpre3 = dz3 * z3 * (1.0 - z3)
    else:
        # Only the top-k locations have a gradient. They are distinct, so
        # assignment is the scatter-add.
        z3_top = cache.z3_top
        dtop = (dz4 / cfg.pool_k)[:, None, :] * z3_top * (1.0 - z3_top)
        dpre3 = np.zeros((len(dtop), cfg.conv_locs3, cfg.filters3), dtop.dtype)
        np.put_along_axis(dpre3, cache.top_idx, dtop, axis=1)
    linear_backward(dpre3, _windows(cache.z2, cfg.conv_locs3), "conv3", grads)
    dz2 = _windows_backward(_matmul(dpre3, p.conv3_w), np.zeros_like(cache.z2))

    dsrc_rows = np.zeros_like(cache.src_rows)
    if cfg.fusion == "gating":
        z1, alpha = cache.z1, cache.alpha
        dz1 = np.empty_like(z1)
        dz1[:, 0::2] = alpha[..., None] * dz2
        dz1[:, 1::2] = (1.0 - alpha)[..., None] * dz2
        dalpha = np.einsum("blf,blf->bl", dz2, z1[:, 0::2] - z1[:, 1::2])
        du = dalpha * alpha * (1.0 - alpha)
        grads["gate_local_w"] = _guided_linear_backward(
            cache, du[..., None], p.gate_local_w[None], cfg, dsrc_rows,
            LOCAL_PAIR)[0]
        grads["gate_local_b"] = np.asarray([du.sum()], dtype=du.dtype)
        dpre1 = dz1 * z1 * (1.0 - z1)
    else:
        # Only the taken member of each pair has a gradient.
        take, z2 = cache.take, cache.z2
        dpool = dz2 * z2 * (1.0 - z2)
        dpre1 = np.empty((len(z2), cfg.conv_locs1, z2.shape[2]), dpool.dtype)
        dpre1[:, 0::2] = np.where(take, dpool, 0.0)
        dpre1[:, 1::2] = np.where(take, 0.0, dpool)
    dw1 = _guided_linear_backward(cache, dpre1, p.conv1_w[:, cfg.prefix_dim :],
                                  cfg, dsrc_rows)
    if cfg.arch == "attention":
        # The signal enters every window of a sample alike.
        dpre_signal = dpre1.sum(axis=1)
        dw1 = np.concatenate([dpre_signal.T @ cache.signal_acts[-1], dw1], axis=1)
    grads["conv1_w"] = dw1
    grads["conv1_b"] = _flat(dpre1).sum(axis=0)

    dhist_flat = None
    if cfg.arch == "attention":
        dhist_flat = sigmoid_stack_backward(
            dpre_signal @ p.conv1_w[:, : cfg.prefix_dim], cache.hist_flat,
            cache.signal_acts, p.attn_layers, "attn", grads)

    grads["src_embeddings"] = embedding_grad(p.src_embeddings, cache.src, dsrc_rows)
    return grads, dhist_flat
