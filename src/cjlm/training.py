"""Minibatch SGD training with exact backpropagation.

The loss is the mean negative log-likelihood of the gold target words. The
backward pass composes the predictor and encoder gradients analytically; no
autodiff framework is involved, so ``gradient_check`` verifies every parameter
group against central finite differences computed in extended precision.

Parameters are stored in float32, but every forward/backward runs in the
promotion of the parameter dtype with float64 (``jointlm.compute_params``):
float64 for training, longdouble for the finite-difference oracle, which
passes longdouble parameters. Updates round to float32, which keeps runs
bit-reproducible for a fixed seed. ``train``'s steps read and update one
float64 mirror of a float32 copy of the parameters, and the parameters
themselves change only at epoch ends.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import encoder as enc
from . import jointlm as jm
from .corpus import TrainingSample
from .encoder import INIT_SCALE, PARAM_DTYPE, EncoderConfig
from .errors import ConfigError, TrainingDivergedError
from .jointlm import DEFAULT_HIDDEN_DIMS, JointModelParams, SampleBatch
from .vocab import PAD_ID


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; the minibatch default follows the reference setup.

    ``init_scale`` widens the uniform weight initialization. The conservative
    default, ``encoder.INIT_SCALE``, barely trains the deep encoder path on
    small corpora (the gradient signal reaching the first convolution is
    orders of magnitude weaker than at the softmax), so quick studies want
    something near 0.5.
    """

    learning_rate: float = 0.1
    minibatch: int = 500
    epochs: int = 10
    seed: int = 1
    lr_halving: bool = False
    grad_clip: float | None = None
    init_scale: float = INIT_SCALE

    def __post_init__(self):
        enc.require_field_types(self)
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be positive and finite")
        if self.minibatch < 1:
            raise ConfigError("minibatch must be at least 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError("grad_clip must be positive when set")
        if not 0 < self.init_scale <= float(np.finfo(PARAM_DTYPE).max):
            raise ConfigError("init_scale must be positive and finite in float32")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class GradientStore:
    """One gradient tensor per learnable tensor, keyed like ``tensors()``."""

    tensors: dict[str, np.ndarray]

    def global_norm(self) -> float:
        return math.sqrt(
            sum(float(np.sum(np.square(g, dtype=np.float64))) for g in
                self.tensors.values())
        )

    def check_finite(self) -> None:
        for name, g in self.tensors.items():
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient in tensor {name!r}")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_nll: float
    held_out_ppl: float | None
    learning_rate: float
    wall_time_s: float

    def format_line(self) -> str:
        parts = [f"epoch={self.epoch}", f"train_nll={self.train_nll:.6f}"]
        if self.held_out_ppl is not None:
            parts.append(f"held_out_ppl={self.held_out_ppl:.6f}")
        parts.append(f"lr={self.learning_rate:.6g}")
        parts.append(f"wall_time_s={self.wall_time_s:.3f}")
        return " ".join(parts)

    def provenance(self) -> dict:
        """Metrics for the model artifact. Wall time stays out: artifacts from
        identical flags and seed must be byte-identical."""
        return {
            "epoch": self.epoch,
            "train_nll": self.train_nll,
            "held_out_ppl": self.held_out_ppl,
            "learning_rate": self.learning_rate,
        }


def minibatch_loss(
    samples: Sequence[TrainingSample],
    cfg: EncoderConfig,
    params: JointModelParams,
) -> float:
    """Mean NLL of the gold targets over the samples."""
    return float(-jm.log_probs_batch(samples, cfg, params).mean())


def backward(
    batch: SampleBatch,
    cfg: EncoderConfig,
    params: JointModelParams,
) -> tuple[GradientStore, float]:
    """Exact gradients of the batch's mean NLL for every learnable tensor.

    The target embedding gradient gathers the predictor-input path and, for
    the attention arch, the guide-signal path. PAD embedding rows stay at
    zero gradient: they are constants of the model. An id outside its
    vocabulary raises ``ConfigError`` (``jointlm.check_ids``).
    """
    jm.check_ids(batch, params)
    # One cast serves the forward and backward pass; parameters already in
    # the compute dtype and laid out, like ``train``'s mirror, need none.
    pc = jm.compute_params(params)
    dlogits, enc_cache, pred_cache = jm.forward_batch(batch, cfg, pc)
    n = len(batch)
    rows = np.arange(n)
    with np.errstate(divide="ignore"):  # p = 0 is an infinite loss: divergence
        nll = float(-np.log(dlogits[rows, batch.targets]).mean())

    # The softmax gradient, the probabilities less one at each target, is
    # built in their buffer, which is not alive during the encoder backward.
    dlogits[rows, batch.targets] -= 1.0
    dlogits /= n
    pred_grads, dphi, dhist_pred = jm.predict_backward_batch(pred_cache, dlogits, pc)
    del dlogits, pred_cache
    enc_grads, dhist_attn = enc.backward_batch(enc_cache, dphi, cfg, pc)
    dhist = dhist_pred if dhist_attn is None else dhist_pred + dhist_attn
    dtgt = enc.embedding_grad(pc.tgt_embeddings, batch.hist,
                              dhist.reshape(*batch.hist.shape, -1))

    grads = GradientStore({**enc_grads, **pred_grads, "tgt_embeddings": dtgt})
    grads.check_finite()
    return grads, nll


def sgd_step(
    params: JointModelParams,
    grads: GradientStore,
    learning_rate: float,
    grad_clip: float | None = None,
) -> JointModelParams:
    """In-place update p <- p - lr.g, with optional global-norm clipping.

    It runs in float64, in row blocks of about ``encoder.CHUNK_BYTES`` so a
    gradient in either memory order is read in cache, and rounds every update
    to ``PARAM_DTYPE`` whatever ``params``' dtype: a zero rate is a no-op, a
    float64 mirror stays a cast of float32 values, and an overflow leaves an
    infinity without a warning (``train`` reports it).
    """
    step = learning_rate
    if grad_clip is not None and (norm := grads.global_norm()) > grad_clip:
        step *= grad_clip / norm
    for name, p in params.tensors().items():
        g = grads.tensors[name]
        if g.shape != p.shape:
            raise ConfigError(
                f"gradient {name} has shape {g.shape}, parameter has {p.shape}"
            )
        for lo, hi in enc._chunks(len(p), 8 * p[0].size):
            with np.errstate(over="ignore"):
                p[lo:hi] = (p[lo:hi] - step * np.asarray(g[lo:hi], dtype=np.float64)
                            ).astype(PARAM_DTYPE)
    return params


def shuffle_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic permutation of [0, n): a pure function of (seed, epoch)."""
    return np.random.default_rng([seed, epoch]).permutation(n)


def train(
    samples: Sequence[TrainingSample],
    cfg: EncoderConfig,
    train_cfg: TrainConfig,
    params: JointModelParams,
    held_out: Sequence[TrainingSample] | None = None,
    on_epoch: Callable[[EpochMetrics], None] | None = None,
) -> tuple[JointModelParams, list[EpochMetrics]]:
    """Shuffled minibatch SGD over the sample set, mutating ``params``.

    ``params`` change only at epoch ends, when every mirror tensor is
    written into them once all are finite. TrainingDivergedError, raised when
    the loss, any gradient or, at an epoch's end, any parameter is
    non-finite, carries ``params`` as its checkpoint and the metrics so far:
    ``params`` then hold the last completed epoch, or the values ``train``
    was called with.

    Every step and the held-out perplexity read one mirror in the compute
    dtype: a copy of ``params`` in their own dtype, cast once with its output
    layer laid out, so it shares no array with ``params``. A step's gradients
    are freed before the next step starts. The one cast and the freeing are
    for glibc's allocator. It keeps the heap a step frees, so a fresh cast
    each step, with the previous step's gradients still alive, grew the heap
    step by step. Freeing the gradients lets it hand back the heap top that
    the encoder backward needs. ``CHANGES.md`` has the measurements.
    """
    samples = list(samples)
    if not samples:
        raise ConfigError("training requires at least one sample")
    metrics: list[EpochMetrics] = []
    lr = train_cfg.learning_rate
    best = math.inf
    mirror = jm.compute_params(params.astype(params.softmax_w.dtype))

    def diverged(message: str) -> TrainingDivergedError:
        return TrainingDivergedError(f"{message} (epoch {epoch})",
                                     checkpoint=params, metrics=list(metrics))

    for epoch in range(1, train_cfg.epochs + 1):
        started = time.perf_counter()
        order = shuffle_order(train_cfg.seed, epoch, len(samples))
        total = 0.0
        for start in range(0, len(order), train_cfg.minibatch):
            idx = order[start : start + train_cfg.minibatch]
            batch = SampleBatch.from_samples([samples[i] for i in idx], cfg)
            try:
                grads, nll = backward(batch, cfg, mirror)
            except TrainingDivergedError as e:
                raise diverged(e.args[0]) from e
            if not math.isfinite(nll):
                raise diverged("non-finite loss")
            assert not grads.tensors["src_embeddings"][PAD_ID].any()
            assert not grads.tensors["tgt_embeddings"][PAD_ID].any()
            sgd_step(mirror, grads, lr, train_cfg.grad_clip)
            del grads  # before the next batch allocates anything
            total += nll * len(idx)
        # The last step, and embedding rows no later batch reads, can
        # overflow float32 after every check above.
        for name, t in mirror.tensors().items():
            if not np.isfinite(t).all():
                raise diverged(f"non-finite parameter in tensor {name!r}")
        for p, m in zip(params.tensors().values(), mirror.tensors().values()):
            p[...] = m  # exact: every mirror value is a float32 value
        train_nll = total / len(samples)
        ppl = jm.perplexity(held_out, cfg, mirror) if held_out else None
        signal = ppl if ppl is not None else train_nll
        if train_cfg.lr_halving and signal >= best:
            lr /= 2.0
        best = min(best, signal)
        entry = EpochMetrics(
            epoch=epoch, train_nll=train_nll, held_out_ppl=ppl,
            learning_rate=lr, wall_time_s=time.perf_counter() - started,
        )
        metrics.append(entry)
        if on_epoch is not None:
            on_epoch(entry)
    return params, metrics


def train_model(
    samples: Sequence[TrainingSample],
    cfg: EncoderConfig,
    train_cfg: TrainConfig,
    src_vocab_size: int,
    tgt_vocab_size: int,
    hidden_dims: Sequence[int] = DEFAULT_HIDDEN_DIMS,
    held_out: Sequence[TrainingSample] | None = None,
    on_epoch: Callable[[EpochMetrics], None] | None = None,
) -> tuple[JointModelParams, list[EpochMetrics]]:
    """Initialize from the config seed and train; the seeded-run entry point."""
    rng = np.random.default_rng(train_cfg.seed)
    params = JointModelParams.initialize(
        cfg, src_vocab_size, tgt_vocab_size, hidden_dims, rng,
        init_scale=train_cfg.init_scale,
    )
    return train(samples, cfg, train_cfg, params, held_out=held_out,
                 on_epoch=on_epoch)


# ---------------------------------------------------------------------------
# Finite-difference verification
# ---------------------------------------------------------------------------

# The checked model: 20 types per side, one hidden layer, a batch of 4.
_CHECK_VOCAB_SIZE = 20
_CHECK_HIDDEN_DIMS = (12,)
_CHECK_BATCH_SIZE = 4


def _check_batch(cfg: EncoderConfig, rng: np.random.Generator) -> list[TrainingSample]:
    # Content ids only (>= 4) so the reserved rows stay out of the random
    # histories; a PAD in a history would make the fixed PAD row behave like a
    # trainable input and break the zero-gradient contract under perturbation.
    samples = []
    positions = np.arange(cfg.maxlen)
    for _ in range(_CHECK_BATCH_SIZE):
        length = int(rng.integers(cfg.maxlen // 2, cfg.maxlen + 1))
        offset = cfg.maxlen - length
        ids = [PAD_ID] * offset + [
            int(t) for t in rng.integers(4, _CHECK_VOCAB_SIZE, size=length)
        ]
        live = positions[offset:]
        aff = frozenset(
            int(i) for i in rng.choice(live, size=int(rng.integers(1, 3)),
                                       replace=False)
        )
        heads = frozenset()
        if cfg.arch == "tag_dep":
            heads = frozenset(
                int(i) for i in rng.choice(live, size=int(rng.integers(1, 3)),
                                           replace=False)
            )
        history = tuple(
            int(t) for t in rng.integers(4, _CHECK_VOCAB_SIZE, size=cfg.history)
        )
        target = int(rng.integers(4, _CHECK_VOCAB_SIZE))
        samples.append(TrainingSample(tuple(ids), aff, heads, history, target))
    return samples


def gradient_check(
    cfg: EncoderConfig,
    seed: int = 0,
    epsilon: float = 1e-4,
    max_coords_per_group: int = 64,
) -> dict[str, float]:
    """Max relative error of the analytic gradient per parameter group.

    The analytic side comes from the same ``backward`` the trainer uses; the
    central differences, in longdouble with the pinned step, read the loss
    through ``jointlm.log_probs_batch``, a separate forward route. A broken
    gradient anywhere shows up as a group error orders of magnitude above the
    1e-4 acceptance bound. A non-finite error, from a NaN or infinite loss
    or gradient, reads as infinity.
    """
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    if not epsilon > 0:
        raise ConfigError("epsilon must be positive")
    if max_coords_per_group < 1:
        raise ConfigError("max_coords_per_group must be at least 1")
    rng = np.random.default_rng(seed)
    params = JointModelParams.initialize(
        cfg, _CHECK_VOCAB_SIZE, _CHECK_VOCAB_SIZE, _CHECK_HIDDEN_DIMS, rng
    ).astype(np.longdouble)
    samples = _check_batch(cfg, rng)
    grads, _ = backward(SampleBatch.from_samples(samples, cfg), cfg, params)
    eps = np.longdouble(epsilon)
    report: dict[str, float] = {}
    for name, tensor in params.tensors().items():
        analytic = np.asarray(grads.tensors[name], dtype=np.longdouble).reshape(-1)
        if tensor.size <= max_coords_per_group:
            coords = np.arange(tensor.size)
        else:
            coords = rng.choice(tensor.size, size=max_coords_per_group, replace=False)
        worst = 0.0
        for i in coords:
            # Indexes the tensor itself: a flattened strided view (``softmax_w``
            # in its output layer) would be a copy the model never reads.
            at = np.unravel_index(i, tensor.shape)
            original = tensor[at]
            tensor[at] = original + eps
            up = -jm.log_probs_batch(samples, cfg, params).mean()
            tensor[at] = original - eps
            down = -jm.log_probs_batch(samples, cfg, params).mean()
            tensor[at] = original
            fd = (up - down) / (2 * eps)
            a = analytic[i]
            rel = float(abs(a - fd) / max(abs(a), abs(fd), np.longdouble(1e-8)))
            # max() would drop a NaN, and a NaN loss would pass.
            worst = max(worst, rel if math.isfinite(rel) else math.inf)
        report[name] = worst
    return report
