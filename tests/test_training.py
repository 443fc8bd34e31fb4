"""SGD training loop, gradient exactness, and divergence handling."""

import math
import weakref

import numpy as np
import pytest

import cjlm.training as tr
from cjlm.corpus import TrainingSample
from cjlm.encoder import ARCHS, EncoderConfig
from cjlm.errors import ConfigError, TrainingDivergedError
from cjlm.jointlm import EMBEDDING_TABLES, JointModelParams, SampleBatch, compute_params
from cjlm.training import (
    EpochMetrics,
    GradientStore,
    TrainConfig,
    backward,
    gradient_check,
    minibatch_loss,
    sgd_step,
    shuffle_order,
    train,
    train_model,
)
from cjlm.vocab import PAD_ID


def check_cfg(arch="tag", fusion="gating", **kw):
    base = dict(arch=arch, emb_dim=8, tgt_emb_dim=8, attn_dim=8, filters1=6,
                filters3=6, repr_dim=8, maxlen=10, history=3, fusion=fusion)
    base.update(kw)
    return EncoderConfig(**base)


def tiny_samples(cfg, n, seed, vocab=14):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ids = tuple(int(x) for x in rng.integers(4, vocab, size=cfg.maxlen))
        p = int(rng.integers(cfg.maxlen))
        out.append(TrainingSample(ids, frozenset([p]), frozenset(),
                                  (2, 2, 2), ids[p]))
    return out


# --- configuration ---------------------------------------------------------

def test_train_config_validation():
    for rate in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="learning_rate must be positive"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ConfigError, match="minibatch must be at least 1"):
        TrainConfig(minibatch=0)
    with pytest.raises(ConfigError, match="epochs must be non-negative"):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigError, match="grad_clip must be positive"):
        TrainConfig(grad_clip=0.0)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        TrainConfig(seed=-1)
    # The weights are drawn in float64 and stored in float32, where 1e39
    # would overflow.
    for scale in (-0.1, math.inf, 1e308, 1e39):
        with pytest.raises(ConfigError, match="init_scale must be positive"):
            TrainConfig(init_scale=scale)


def test_epoch_metrics_line_and_provenance():
    m = EpochMetrics(epoch=2, train_nll=1.2345678, held_out_ppl=7.5,
                     learning_rate=0.25, wall_time_s=0.1204)
    assert m.format_line() == \
        "epoch=2 train_nll=1.234568 held_out_ppl=7.500000 lr=0.25 wall_time_s=0.120"
    bare = EpochMetrics(epoch=1, train_nll=2.0, held_out_ppl=None,
                        learning_rate=0.5, wall_time_s=1.0)
    assert "held_out_ppl" not in bare.format_line()
    prov = m.provenance()
    assert prov == {"epoch": 2, "train_nll": 1.2345678, "held_out_ppl": 7.5,
                    "learning_rate": 0.25}
    assert "wall_time_s" not in prov


def test_gradient_store_norm_and_finiteness():
    store = GradientStore({"a": np.array([3.0]), "b": np.array([4.0])})
    assert store.global_norm() == pytest.approx(5.0)
    bad = GradientStore({"ok": np.zeros(2), "broken": np.array([np.nan])})
    with pytest.raises(TrainingDivergedError, match="'broken'"):
        bad.check_finite()


# --- single update mechanics -----------------------------------------------

def make_joint(cfg, seed=0, scale=0.5):
    return JointModelParams.initialize(
        cfg, 14, 14, (6,), np.random.default_rng(seed), init_scale=scale)


def test_sgd_step_hand_value():
    cfg = check_cfg()
    params = make_joint(cfg)
    before = params.softmax_b.copy()
    grads = GradientStore({n: np.zeros_like(t, dtype=np.float64)
                           for n, t in params.tensors().items()})
    grads.tensors["softmax_b"][:] = 2.0
    sgd_step(params, grads, learning_rate=0.25)
    assert np.allclose(params.softmax_b, before - 0.5, atol=1e-7)


def test_sgd_step_zero_like_rate_is_noop():
    cfg = check_cfg()
    params = make_joint(cfg)
    snapshot = {n: t.copy() for n, t in params.tensors().items()}
    grads, _ = backward(SampleBatch.from_samples(tiny_samples(cfg, 3, 0), cfg),
                        cfg, params)
    # Below half the smallest float32 subnormal even for zero-valued
    # parameters, so every update rounds back unchanged.
    sgd_step(params, grads, learning_rate=1e-50)
    for name, t in params.tensors().items():
        assert np.array_equal(t, snapshot[name]), name


@pytest.mark.parametrize("rate", [0.1, 1e-50, 1e300])
def test_sgd_step_matches_the_float64_formula_bytewise(rate):
    rng = np.random.default_rng(5)
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-39, -1e-39,
                        1.0, -1.5, 3e38, -3e38, 1e30], dtype=np.float32)
    params = make_joint(check_cfg())
    grads = {}
    for name, t in params.tensors().items():
        t[...] = rng.choice(special, t.shape)
        grads[name] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 0.7, -2.5, 1e300],
                                 t.shape)
    with np.errstate(over="ignore"):
        expected = {name: (t.astype(np.float64) - rate * grads[name]).astype(np.float32)
                    for name, t in params.tensors().items()}
    sgd_step(params, GradientStore(grads), learning_rate=rate)
    for name, t in params.tensors().items():
        assert t.tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("order", ["C", "F"])
def test_sgd_step_blocks_match_the_whole_tensor_formula(monkeypatch, order):
    # Blocks of three 6-wide float64 rows leave softmax_w's 14 rows a ragged
    # last block of two; the update must not see the blocking.
    monkeypatch.setattr(tr.enc, "CHUNK_BYTES", 3 * 6 * 8)
    rng = np.random.default_rng(11)
    params = make_joint(check_cfg())
    assert params.softmax_w.shape == (14, 6)
    grads = {name: np.asarray(rng.normal(0, 3, t.shape), order=order)
             for name, t in params.tensors().items()}
    assert order == "C" or not grads["softmax_w"].flags.c_contiguous
    expected = {name: (t.astype(np.float64) - 0.3 * grads[name]).astype(np.float32)
                for name, t in params.tensors().items()}
    mirrored = params.astype(np.float32)
    mirror = compute_params(mirrored)
    sgd_step(params, GradientStore(grads), learning_rate=0.3)
    sgd_step(mirrored, GradientStore(grads), learning_rate=0.3, mirror=mirror)
    for name, t in params.tensors().items():
        assert np.array_equal(t, expected[name]), name
        assert mirrored.tensors()[name].tobytes() == t.tobytes(), name
    assert_mirrors(mirror, mirrored)


def assert_mirrors(mirror, params, cast=JointModelParams.astype):
    """``mirror``'s embedding tables are ``params``'s own arrays, and every
    other tensor equals a fresh float64 cast of ``params`` bit for bit, its
    output layer's ones column included. ``cast`` is bound at import, so a
    test that counts calls of ``astype`` can still call this."""
    fresh = cast(params, np.float64)
    own = params.tensors()
    assert mirror.output_layer.tobytes() == fresh.output_layer.tobytes()
    for name, t in fresh.tensors().items():
        if name in EMBEDDING_TABLES:
            assert mirror.tensors()[name] is own[name], name
        else:
            assert mirror.tensors()[name].tobytes() == t.tobytes(), name


def test_sgd_step_clips_by_global_norm():
    cfg = check_cfg()
    params = make_joint(cfg)
    before = params.softmax_b.copy()
    grads = GradientStore({n: np.zeros_like(t, dtype=np.float64)
                           for n, t in params.tensors().items()})
    grads.tensors["softmax_b"][0] = 10.0  # global norm is exactly 10
    sgd_step(params, grads, learning_rate=1.0, grad_clip=1.0)
    delta = before[0] - params.softmax_b[0]
    assert delta == pytest.approx(1.0, rel=1e-6)


def test_sgd_step_shape_mismatch():
    cfg = check_cfg()
    params = make_joint(cfg)
    grads = GradientStore({n: np.zeros_like(t, dtype=np.float64)
                           for n, t in params.tensors().items()})
    grads.tensors["softmax_b"] = np.zeros(3)
    with pytest.raises(ConfigError, match="shape"):
        sgd_step(params, grads, 0.1)


def test_shuffle_order_is_a_pure_permutation():
    a = shuffle_order(seed=9, epoch=1, n=50)
    assert sorted(a) == list(range(50))
    assert np.array_equal(a, shuffle_order(9, 1, 50))
    assert not np.array_equal(a, shuffle_order(9, 2, 50))
    assert not np.array_equal(a, shuffle_order(10, 1, 50))


# --- gradient exactness ----------------------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
def test_gradients_match_finite_differences(arch):
    report = gradient_check(check_cfg(arch=arch), seed=1,
                            max_coords_per_group=12)
    assert max(report.values()) < 1e-4, report


def test_gradients_match_fd_pooling():
    report = gradient_check(check_cfg(fusion="pooling"), seed=2,
                            max_coords_per_group=12)
    assert max(report.values()) < 1e-4, report


def test_gradient_check_perturbs_non_contiguous_tensors(monkeypatch):
    # softmax_w and softmax_b are strided views of the cast's output layer;
    # conv1_w and hidden_0_w are made Fortran-ordered here. Flattening any
    # of them copies, and a perturbed copy would leave the loss unmoved.
    cast = JointModelParams.astype

    def fortran(params, dtype):
        out = cast(params, dtype)
        out.conv1_w = np.asfortranarray(out.conv1_w)
        (w, b), *rest = out.hidden_layers
        out.hidden_layers = ((np.asfortranarray(w), b), *rest)
        return out

    monkeypatch.setattr(JointModelParams, "astype", fortran)
    report = gradient_check(check_cfg(), seed=4, max_coords_per_group=12)
    assert max(report.values()) < 1e-4, report


def test_gradient_check_rejects_zero_epsilon():
    with pytest.raises(ConfigError, match="epsilon must be positive"):
        gradient_check(check_cfg(), epsilon=0.0)


@pytest.mark.parametrize("coords", [0, -1])
def test_gradient_check_rejects_max_coords_below_one(coords):
    with pytest.raises(ConfigError, match="max_coords_per_group must be at least 1"):
        gradient_check(check_cfg(), max_coords_per_group=coords)


def test_gradient_check_catches_a_planted_bug(monkeypatch):
    real_backward = tr.backward

    def corrupted(batch, cfg, params):
        grads, nll = real_backward(batch, cfg, params)
        grads.tensors["conv1_w"] = grads.tensors["conv1_w"] + 1e-3
        return grads, nll

    monkeypatch.setattr(tr, "backward", corrupted)
    report = gradient_check(check_cfg(), seed=3, max_coords_per_group=12)
    assert report["conv1_w"] > 1e-2  # the checker must flag the mutation
    untouched = {k: v for k, v in report.items() if k != "conv1_w"}
    assert max(untouched.values()) < 1e-4


def test_gradient_check_fails_a_nan_loss(monkeypatch):
    # A NaN error is a failure, not a group that max() quietly skips.
    monkeypatch.setattr(tr.jm, "log_probs_batch",
                        lambda samples, cfg, p: np.full(len(samples), np.nan))
    report = gradient_check(check_cfg(), seed=3, max_coords_per_group=2)
    assert all(err >= 1e-4 for err in report.values()), report


def test_backward_loss_agrees_with_forward():
    cfg = check_cfg(arch="attention")
    params = make_joint(cfg)
    samples = tiny_samples(cfg, 5, 4)
    _, nll = backward(SampleBatch.from_samples(samples, cfg), cfg, params)
    assert nll == pytest.approx(minibatch_loss(samples, cfg, params), abs=1e-12)


def test_backward_keeps_pad_rows_at_zero():
    cfg = check_cfg(arch="attention")
    params = make_joint(cfg)
    grads, _ = backward(SampleBatch.from_samples(tiny_samples(cfg, 5, 5), cfg),
                        cfg, params)
    assert not grads.tensors["src_embeddings"][PAD_ID].any()
    assert not grads.tensors["tgt_embeddings"][PAD_ID].any()


# --- the training loop -----------------------------------------------------

def test_train_reduces_loss():
    cfg = check_cfg()
    samples = tiny_samples(cfg, 60, 6)
    tc = TrainConfig(learning_rate=0.5, minibatch=10, epochs=4, seed=2,
                     init_scale=0.5)
    _, metrics = train_model(samples, cfg, tc, 14, 14, hidden_dims=(16,))
    assert len(metrics) == 4
    assert metrics[-1].train_nll < metrics[0].train_nll


def test_train_is_deterministic():
    cfg = check_cfg()
    samples = tiny_samples(cfg, 30, 7)
    tc = TrainConfig(learning_rate=0.4, minibatch=8, epochs=2, seed=5,
                     init_scale=0.5)
    a, _ = train_model(samples, cfg, tc, 14, 14, hidden_dims=(6,))
    b, _ = train_model(samples, cfg, tc, 14, 14, hidden_dims=(6,))
    for (na, ta), (nb, tb) in zip(a.tensors().items(), b.tensors().items()):
        assert na == nb and np.array_equal(ta, tb), na


def test_train_keeps_pad_embeddings_zero():
    cfg = check_cfg(arch="tag_dep")
    rng = np.random.default_rng(0)
    samples = []
    for s in tiny_samples(cfg, 20, 8):
        samples.append(TrainingSample(s.source_ids, s.affiliated,
                                      frozenset({int(rng.integers(10))}),
                                      s.history, s.target))
    tc = TrainConfig(learning_rate=0.5, minibatch=5, epochs=2, seed=3,
                     init_scale=0.5)
    params, _ = train_model(samples, cfg, tc, 14, 14, hidden_dims=(6,))
    assert np.all(params.src_embeddings[PAD_ID] == 0.0)
    assert np.all(params.tgt_embeddings[PAD_ID] == 0.0)


def test_train_zero_epochs_is_identity():
    cfg = check_cfg()
    params = make_joint(cfg)
    snapshot = {n: t.copy() for n, t in params.tensors().items()}
    tc = TrainConfig(learning_rate=0.5, epochs=0)
    out, metrics = train(tiny_samples(cfg, 5, 9), cfg, tc, params)
    assert metrics == []
    for name, t in out.tensors().items():
        assert np.array_equal(t, snapshot[name])


def test_train_requires_samples():
    cfg = check_cfg()
    with pytest.raises(ConfigError, match="at least one sample"):
        train([], cfg, TrainConfig(), make_joint(cfg))


def test_train_reports_held_out_and_callback():
    cfg = check_cfg()
    samples = tiny_samples(cfg, 20, 10)
    held = tiny_samples(cfg, 10, 11)
    seen = []
    tc = TrainConfig(learning_rate=0.3, minibatch=10, epochs=2, seed=1,
                     init_scale=0.5)
    _, metrics = train_model(samples, cfg, tc, 14, 14, hidden_dims=(6,),
                             held_out=held, on_epoch=seen.append)
    assert seen == metrics
    assert all(m.held_out_ppl is not None and m.held_out_ppl > 0
               for m in metrics)


def test_lr_halving_fires_when_signal_stalls():
    cfg = check_cfg()
    samples = tiny_samples(cfg, 12, 12)
    # A learning rate too small to move any float32 weight freezes the loss,
    # so every later epoch ties the best signal and must halve the rate.
    tc = TrainConfig(learning_rate=1e-30, minibatch=12, epochs=3, seed=1,
                     lr_halving=True, init_scale=0.5)
    _, metrics = train_model(samples, cfg, tc, 14, 14, hidden_dims=(6,))
    assert metrics[0].learning_rate == pytest.approx(1e-30)
    assert metrics[1].learning_rate == pytest.approx(5e-31)
    assert metrics[2].learning_rate == pytest.approx(2.5e-31)


def test_without_halving_rate_is_constant():
    cfg = check_cfg()
    samples = tiny_samples(cfg, 12, 13)
    tc = TrainConfig(learning_rate=0.2, minibatch=6, epochs=3, seed=1,
                     init_scale=0.5)
    _, metrics = train_model(samples, cfg, tc, 14, 14, hidden_dims=(6,))
    assert all(m.learning_rate == 0.2 for m in metrics)


def test_last_step_overflow_raises_with_the_previous_checkpoint(monkeypatch):
    # The loss and gradients of the one batch are finite; the step it takes
    # overflows the float32 parameters, and the mirror with them.
    cfg = check_cfg()
    params = make_joint(cfg)
    initial = params.astype(np.float32)
    mirrors = []

    def recording(params, grads, learning_rate, grad_clip=None, mirror=None):
        mirrors.append(mirror)
        return sgd_step(params, grads, learning_rate, grad_clip, mirror)

    monkeypatch.setattr(tr, "sgd_step", recording)
    with pytest.raises(TrainingDivergedError,
                       match=r"non-finite parameter .*epoch 1") as exc:
        train(tiny_samples(cfg, 6, 14), cfg,
              TrainConfig(learning_rate=1e300, epochs=1), params)
    checkpoint = exc.value.checkpoint.tensors()
    for name, t in initial.tensors().items():
        assert np.array_equal(checkpoint[name], t), name
    [mirror] = mirrors
    assert any(np.isinf(t).any() for t in params.tensors().values())
    assert_mirrors(mirror, params)


@pytest.mark.parametrize("minibatch", [3, 20])
def test_train_casts_once_and_keeps_the_mirror_exact(monkeypatch, minibatch):
    # The first checkpoint, the mirror and one checkpoint per epoch, however
    # many steps: the steps and the held-out perplexity read the mirror.
    cfg = check_cfg()
    cast = JointModelParams.astype
    casts = []

    def counting(params, dtype, *, share_tables=False):
        casts.append((dtype, share_tables))
        return cast(params, dtype, share_tables=share_tables)

    steps = []

    def checked(params, grads, learning_rate, grad_clip=None, mirror=None):
        out = sgd_step(params, grads, learning_rate, grad_clip, mirror)
        assert_mirrors(mirror, params)
        steps.append(mirror)
        return out

    monkeypatch.setattr(JointModelParams, "astype", counting)
    monkeypatch.setattr(tr, "sgd_step", checked)
    tc = TrainConfig(learning_rate=0.5, minibatch=minibatch, epochs=2, seed=4,
                     init_scale=0.5)
    _, metrics = train(tiny_samples(cfg, 20, 15), cfg, tc, make_joint(cfg),
                       held_out=tiny_samples(cfg, 6, 16))
    assert len(casts) == 2 + tc.epochs
    # The mirror alone shares the tables; the checkpoints copy them.
    assert casts == [(np.float32, False), (np.float64, True)] + [
        (np.float32, False)] * tc.epochs
    assert len(steps) == tc.epochs * -(-20 // minibatch)
    assert all(m is steps[0] for m in steps)
    assert all(m.held_out_ppl is not None for m in metrics)


def test_train_holds_no_gradient_between_steps(monkeypatch):
    # When a step's backward starts, the previous step's gradients are dead:
    # train keeps no gradient array from one step to the next.
    cfg = check_cfg()
    real_backward = tr.backward
    previous = []

    def checked_backward(*args):
        assert all(ref() is None for ref in previous)
        previous.clear()
        return real_backward(*args)

    def recording(params, grads, learning_rate, grad_clip=None, mirror=None):
        previous.extend(weakref.ref(g) for g in grads.tensors.values())
        return sgd_step(params, grads, learning_rate, grad_clip, mirror)

    monkeypatch.setattr(tr, "backward", checked_backward)
    monkeypatch.setattr(tr, "sgd_step", recording)
    tc = TrainConfig(learning_rate=0.5, minibatch=5, epochs=2, seed=4,
                     init_scale=0.5)
    train(tiny_samples(cfg, 20, 15), cfg, tc, make_joint(cfg))
    assert previous  # the last step's gradients were recorded


def test_underflowed_target_probability_is_divergence():
    # Every target's logit sits 800 nats below the others, so its probability
    # underflows float64 to 0 and the loss -log p is infinite.
    cfg = check_cfg()
    params = make_joint(cfg)
    samples = tiny_samples(cfg, 6, 14)
    params.softmax_b[[s.target for s in samples]] = -800.0
    with pytest.raises(TrainingDivergedError, match=r"non-finite loss .*epoch 1"):
        train(samples, cfg, TrainConfig(learning_rate=0.1, epochs=1), params)


def test_divergence_carries_checkpoint_and_epoch():
    cfg = check_cfg()
    params = make_joint(cfg)
    params.src_embeddings[5, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match=r"non-finite .*epoch 1") as exc:
        train(tiny_samples(cfg, 6, 14), cfg,
              TrainConfig(learning_rate=0.1, epochs=2), params)
    err = exc.value
    assert err.checkpoint is not None
    assert err.metrics == []
    # The checkpoint is the pre-epoch state, still serializable float32.
    assert err.checkpoint.softmax_w.dtype == np.float32
