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

from dataclasses import dataclass, field
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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max-subtraction; the bare formula overflows in low precision."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


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


def sigmoid_stack_backward(
    da: np.ndarray,
    x: np.ndarray,
    acts: list[np.ndarray],
    layers,
    stack: str,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backward of ``sigmoid_stack`` for the gradient ``da`` of its last
    activation. Stores ``<stack>_<i>_w``/``_b`` in ``grads`` and returns the
    gradient with respect to the input ``x``."""
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        act = acts[i]
        prev = x if i == 0 else acts[i - 1]
        dpre = da * act * (1.0 - act)
        grads[f"{stack}_{i}_w"] = dpre.T @ prev
        grads[f"{stack}_{i}_b"] = dpre.sum(axis=0)
        da = dpre @ w
    return da


@dataclass
class BatchCache:
    """Everything the batched backward pass needs from the forward pass."""

    ids: np.ndarray
    content_mask: np.ndarray
    layer0: np.ndarray
    windows1: np.ndarray
    hist_flat: np.ndarray | None = None
    signal_acts: list[np.ndarray] = field(default_factory=list)
    z1: np.ndarray = None
    alpha: np.ndarray = None
    gate_in: np.ndarray = None
    take: np.ndarray = None
    z2: np.ndarray = None
    windows3: np.ndarray = None
    z3: np.ndarray = None
    omega: np.ndarray = None
    top_idx: np.ndarray = None
    z4: np.ndarray = None
    phi: np.ndarray = None


def _windows(x: np.ndarray, out_locs: int) -> np.ndarray:
    """Stack 3 consecutive location rows into one window row, batched."""
    return np.concatenate([x[:, t : t + out_locs] for t in range(CONV_WINDOW)], axis=2)


def forward_batch(
    ids: np.ndarray,
    aff_mask: np.ndarray,
    head_mask: np.ndarray,
    hist: np.ndarray | None,
    cfg: EncoderConfig,
    p: JointModelParams,
) -> tuple[np.ndarray, BatchCache]:
    """Vectorized encoder forward over a batch of prepared samples.

    ``p`` is the ``jointlm.JointModelParams``; the computation runs in its
    dtype. Masks are boolean (batch, maxlen); ``hist`` is int (batch,
    history), read only by the attention arch, which embeds it with
    ``p.tgt_embeddings``.
    """
    batch = ids.shape[0]
    content = ids != PAD_ID
    rows = p.src_embeddings[ids]
    rows[~content] = 0.0
    if cfg.tag_bits:
        # A PAD row is all zero, guide columns included.
        cols = [rows, (aff_mask & content)[..., None].astype(rows.dtype)]
        if cfg.arch == "tag_dep":
            cols.append((head_mask & content)[..., None].astype(rows.dtype))
        rows = np.concatenate(cols, axis=2)
    layer0 = rows

    n1 = cfg.conv_locs1
    w1 = _windows(layer0, n1)
    cache = BatchCache(ids=ids, content_mask=content, layer0=layer0, windows1=w1)

    pre1 = w1 @ p.conv1_w[:, cfg.prefix_dim :].T + p.conv1_b
    if cfg.arch == "attention":
        cache.hist_flat = p.tgt_embeddings[hist].reshape(batch, -1)
        cache.signal_acts = sigmoid_stack(cache.hist_flat, p.attn_layers)
        signal = cache.signal_acts[-1]
        pre1 = pre1 + (signal @ p.conv1_w[:, : cfg.prefix_dim].T)[:, None, :]
    z1 = sigmoid(pre1)
    cache.z1 = z1

    n2 = cfg.fused_locs
    z1e, z1o = z1[:, 0::2], z1[:, 1::2]
    if cfg.fusion == "gating":
        span = 2 * LOCAL_PAIR
        gate_in = np.concatenate(
            [layer0[:, t : t + 2 * n2 - 1 : 2] for t in range(span)], axis=2
        )
        alpha = sigmoid(gate_in @ p.gate_local_w + p.gate_local_b)
        z2 = alpha[..., None] * z1e + (1.0 - alpha)[..., None] * z1o
        cache.alpha, cache.gate_in = alpha, gate_in
    else:
        take = z1e >= z1o
        z2 = np.where(take, z1e, z1o)
        cache.take = take
    cache.z2 = z2

    n3 = cfg.conv_locs3
    w3 = _windows(z2, n3)
    z3 = sigmoid(w3 @ p.conv3_w.T + p.conv3_b)
    cache.windows3, cache.z3 = w3, z3

    if cfg.fusion == "gating":
        scores = z3 @ p.gate_global_w
        omega = softmax(scores, axis=1)
        z4 = np.einsum("bl,blf->bf", omega, z3)
        cache.omega = omega
    else:
        top_idx = np.argsort(-z3, axis=1, kind="stable")[:, : cfg.pool_k]
        z4 = np.take_along_axis(z3, top_idx, axis=1).mean(axis=1)
        cache.top_idx = top_idx
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
    phi = cache.phi
    dpre_phi = dphi * phi * (1.0 - phi)
    grads["proj_w"] = dpre_phi.T @ cache.z4
    grads["proj_b"] = dpre_phi.sum(axis=0)
    dz4 = dpre_phi @ p.proj_w

    z3 = cache.z3
    if cfg.fusion == "gating":
        omega = cache.omega
        dz3 = omega[..., None] * dz4[:, None, :]
        domega = np.einsum("bf,blf->bl", dz4, z3)
        inner = np.einsum("bl,bl->b", omega, domega)
        dscores = omega * (domega - inner[:, None])
        grads["gate_global_w"] = np.einsum("bl,blf->f", dscores, z3)
        dz3 += dscores[..., None] * p.gate_global_w
    else:
        dz3 = np.zeros_like(z3)
        batch, pool_k, f3 = cache.top_idx.shape[0], cfg.pool_k, cfg.filters3
        bidx = np.arange(batch)[:, None, None]
        fidx = np.arange(f3)[None, None, :]
        np.add.at(dz3, (bidx, cache.top_idx, fidx), (dz4 / pool_k)[:, None, :])

    dpre3 = dz3 * z3 * (1.0 - z3)
    grads["conv3_w"] = np.einsum("blf,blw->fw", dpre3, cache.windows3)
    grads["conv3_b"] = dpre3.sum(axis=(0, 1))
    dw3 = dpre3 @ p.conv3_w
    f1 = cfg.filters1
    dz2 = np.zeros_like(cache.z2)
    n3 = cfg.conv_locs3
    for t in range(CONV_WINDOW):
        dz2[:, t : t + n3] += dw3[:, :, t * f1 : (t + 1) * f1]

    z1 = cache.z1
    z1e, z1o = z1[:, 0::2], z1[:, 1::2]
    dlayer0 = np.zeros_like(cache.layer0)
    n2 = cfg.fused_locs
    if cfg.fusion == "gating":
        alpha = cache.alpha
        dz1 = np.empty_like(z1)
        dz1[:, 0::2] = alpha[..., None] * dz2
        dz1[:, 1::2] = (1.0 - alpha)[..., None] * dz2
        dalpha = np.einsum("blf,blf->bl", dz2, z1e - z1o)
        du = dalpha * alpha * (1.0 - alpha)
        grads["gate_local_w"] = np.einsum("bl,blw->w", du, cache.gate_in)
        grads["gate_local_b"] = np.asarray([du.sum()], dtype=du.dtype)
        dgate_in = du[..., None] * p.gate_local_w
        d0 = cfg.input_dim
        for t in range(2 * LOCAL_PAIR):
            dlayer0[:, t : t + 2 * n2 - 1 : 2] += dgate_in[:, :, t * d0 : (t + 1) * d0]
    else:
        take = cache.take
        dz1 = np.empty_like(z1)
        dz1[:, 0::2] = np.where(take, dz2, 0.0)
        dz1[:, 1::2] = np.where(take, 0.0, dz2)

    dpre1 = dz1 * z1 * (1.0 - z1)
    word_w = p.conv1_w[:, cfg.prefix_dim :]
    grads_conv1_word = np.einsum("blf,blw->fw", dpre1, cache.windows1)
    grads["conv1_b"] = dpre1.sum(axis=(0, 1))
    dw1 = dpre1 @ word_w
    d0 = cfg.input_dim
    n1 = cfg.conv_locs1
    for t in range(CONV_WINDOW):
        dlayer0[:, t : t + n1] += dw1[:, :, t * d0 : (t + 1) * d0]

    dhist_flat = None
    if cfg.arch == "attention":
        signal = cache.signal_acts[-1]
        dsignal = np.einsum("blf,fp->bp", dpre1, p.conv1_w[:, : cfg.prefix_dim])
        grads_conv1_prefix = np.einsum("blf,bp->fp", dpre1, signal)
        grads["conv1_w"] = np.concatenate([grads_conv1_prefix, grads_conv1_word], axis=1)
        dhist_flat = sigmoid_stack_backward(
            dsignal, cache.hist_flat, cache.signal_acts, p.attn_layers, "attn", grads)
    else:
        grads["conv1_w"] = grads_conv1_word

    demb_rows = dlayer0[..., : cfg.emb_dim]
    demb = np.zeros_like(p.src_embeddings)
    mask = cache.content_mask
    np.add.at(demb, cache.ids[mask], demb_rows[mask])
    grads["src_embeddings"] = demb
    return grads, dhist_flat
