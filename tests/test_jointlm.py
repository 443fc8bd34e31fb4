"""Joint predictor: normalization, oracle agreement, batching invariance."""

from dataclasses import replace

import numpy as np
import pytest

from cjlm.corpus import TrainingSample
from cjlm.encoder import ARCHS, FUSIONS, EncoderConfig
from cjlm import jointlm
from cjlm.errors import ConfigError
from cjlm.jointlm import (
    JointModelParams,
    SampleBatch,
    compute_params,
    forward_batch,
    log_probs_batch,
    param_spec,
    perplexity,
)
from cjlm.vocab import PAD_ID

from oracles import reference_log_probs


def small_cfg(arch="generic", **kw):
    base = dict(arch=arch, emb_dim=5, tgt_emb_dim=4, attn_dim=6, filters1=7,
                filters3=6, repr_dim=8, maxlen=10, history=3, fusion="gating")
    base.update(kw)
    return EncoderConfig(**base)


def make_joint(cfg, src_v=12, tgt_v=11, hidden=(6,), seed=0):
    return JointModelParams.initialize(
        cfg, src_v, tgt_v, hidden, np.random.default_rng(seed), init_scale=0.5
    )


def random_samples(cfg, n, seed, src_v=12, tgt_v=11):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        n_real = int(rng.integers(4, cfg.maxlen + 1))
        ids = (PAD_ID,) * (cfg.maxlen - n_real) + tuple(
            int(x) for x in rng.integers(4, src_v, size=n_real))
        lo = cfg.maxlen - n_real
        aff = frozenset(int(x) for x in rng.choice(
            np.arange(lo, cfg.maxlen), size=2, replace=False))
        heads = frozenset({int(rng.integers(lo, cfg.maxlen))}) \
            if cfg.arch == "tag_dep" else frozenset()
        hist = tuple(int(x) for x in rng.integers(2, tgt_v, size=cfg.history))
        out.append(TrainingSample(ids, aff, heads, hist,
                                  int(rng.integers(2, tgt_v))))
    return out


# --- parameter construction ------------------------------------------------

def test_initialize_shapes_and_pad_row():
    cfg = small_cfg()
    p = make_joint(cfg, hidden=(6, 5))
    assert p.tgt_embeddings.shape == (11, cfg.tgt_emb_dim)
    assert np.all(p.tgt_embeddings[PAD_ID] == 0.0)
    assert p.hidden_dims == (6, 5)
    assert p.target_vocab_size == 11
    assert p.hidden_layers[0][0].shape == \
        (6, cfg.repr_dim + cfg.history * cfg.tgt_emb_dim)
    assert p.hidden_layers[1][0].shape == (5, 6)
    assert p.softmax_w.shape == (11, 5)
    names = list(p.tensors())
    assert names[-2:] == ["softmax_w", "softmax_b"]
    assert "hidden_0_w" in names and "tgt_embeddings" in names


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_tensors_follow_param_spec(arch, fusion):
    cfg = small_cfg(arch=arch, fusion=fusion, attn_depth=2)
    p = make_joint(cfg, hidden=(6, 5))
    spec = param_spec(cfg, 12, 11, (6, 5))
    tensors = p.tensors()
    assert [s.name for s in spec] == list(tensors)
    for s in spec:
        t = tensors[s.name]
        assert t.shape == s.shape and t.dtype == np.float32, s.name
        if s.init == "zeros":
            assert not t.any(), s.name
        else:
            assert np.all(np.abs(t) <= 0.5) and t.any(), s.name
        if s.init == "embedding":
            assert not t[PAD_ID].any(), s.name
    rebuilt = JointModelParams.from_tensors(tensors)
    assert all(a is tensors[n] for n, a in rebuilt.tensors().items())


def test_initialize_rejects_tiny_vocab():
    with pytest.raises(ConfigError, match="reserved"):
        make_joint(small_cfg(), src_v=4)


def test_initialize_rejects_empty_hidden():
    with pytest.raises(ConfigError, match="hidden_dims"):
        make_joint(small_cfg(), hidden=())
    with pytest.raises(ConfigError, match="hidden_dims"):
        make_joint(small_cfg(), hidden=(0,))


# --- distribution properties ----------------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
def test_rows_sum_to_one(arch):
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg, seed=2)
    batch = SampleBatch.from_samples(random_samples(cfg, 8, 5), cfg)
    log_probs, _, _ = forward_batch(batch, cfg, p)
    sums = np.exp(log_probs).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_uniform_when_softmax_is_zero():
    cfg = small_cfg()
    p = make_joint(cfg)
    p.softmax_w[...] = 0.0
    p.softmax_b[...] = 0.0
    samples = random_samples(cfg, 1, 3)
    log_probs, _, _ = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    assert np.allclose(log_probs, -np.log(11), atol=1e-12)
    assert np.isclose(perplexity(samples, cfg, p), 11.0, atol=1e-9)


@pytest.mark.parametrize("arch", ARCHS)
def test_matches_loop_oracle(arch):
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg, seed=4)
    samples = random_samples(cfg, 3, 9)
    log_probs, _, _ = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    for lp, sample in zip(log_probs, samples):
        ref = reference_log_probs(sample, cfg, p)
        assert np.allclose(lp, ref, atol=1e-12)


# --- batching and convenience wrappers -------------------------------------

def test_log_probs_batch_chunking_invariance(monkeypatch):
    cfg = small_cfg(arch="attention")
    p = make_joint(cfg, seed=6)
    samples = random_samples(cfg, 17, 8)
    full = log_probs_batch(samples, cfg, p)
    monkeypatch.setattr(jointlm, "SCORE_ROWS", 3)
    assert np.array_equal(full, log_probs_batch(samples, cfg, p))
    # Not 1: numpy multiplies a one-row matrix on its matrix-vector path,
    # which rounds differently from the matrix-matrix one.
    for block in (2, 5):
        monkeypatch.setattr(jointlm, "SOFTMAX_BLOCK", block)
        assert np.array_equal(full, log_probs_batch(samples, cfg, p))


@pytest.mark.parametrize("storage, compute", [
    (np.float32, np.float64), (np.float64, np.float64),
    (np.longdouble, np.longdouble)])
def test_log_probs_batch_returns_the_compute_dtype(storage, compute):
    cfg = small_cfg()
    p = make_joint(cfg).astype(storage)
    samples = random_samples(cfg, 5, 3)
    assert log_probs_batch(samples, cfg, p).dtype == compute
    assert log_probs_batch([], cfg, p).dtype == compute


@pytest.mark.parametrize("arch", ARCHS)
def test_sample_log_prob_indexes_target(arch):
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg)
    samples = random_samples(cfg, 4, 12)
    # Repeats share encoder and predictor rows, and so does a new target. A
    # new history shares the encoder row except under attention; new guides
    # share it except under the tag archs.
    samples += [samples[2], samples[0], replace(samples[2], target=3),
                replace(samples[1], history=(2, 3, 4)),
                replace(samples[3], affiliated=frozenset()),
                replace(samples[3], head_positions=frozenset())]
    log_probs, _, _ = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    expected = [row[s.target] for row, s in zip(log_probs, samples)]
    assert np.array_equal(log_probs_batch(samples, cfg, p), expected)


def test_perplexity_of_empty_set_rejected():
    cfg = small_cfg()
    with pytest.raises(ConfigError, match="empty"):
        perplexity([], cfg, make_joint(cfg))


def test_batch_validates_lengths():
    cfg = small_cfg()
    good = random_samples(cfg, 1, 1)[0]
    with pytest.raises(ConfigError, match="zero samples"):
        SampleBatch.from_samples([], cfg)
    bad_src = TrainingSample(good.source_ids[:-1], good.affiliated,
                             good.head_positions, good.history, good.target)
    with pytest.raises(ConfigError, match="source ids"):
        SampleBatch.from_samples([bad_src], cfg)
    bad_hist = TrainingSample(good.source_ids, good.affiliated,
                              good.head_positions, good.history[:-1],
                              good.target)
    with pytest.raises(ConfigError, match="history length"):
        SampleBatch.from_samples([bad_hist], cfg)


def test_astype_round_trip():
    cfg = small_cfg(arch="attention")
    p = make_joint(cfg)
    p64 = p.astype(np.float64)
    assert p64.softmax_w.dtype == np.float64
    assert p64.conv1_w.dtype == np.float64
    back = p64.astype(np.float32)
    assert np.array_equal(back.softmax_w, p.softmax_w)


def test_compute_params_promotes_with_float64():
    # Float32 storage gets one float64 copy; float64 and longdouble
    # parameters are used as they are, with no copy.
    cfg = small_cfg(arch="attention")
    p = make_joint(cfg)
    p64 = compute_params(p)
    assert p64 is not p
    assert p.softmax_w.dtype == np.float32
    for (name, t64), t in zip(p64.tensors().items(), p.tensors().values()):
        assert t64.dtype == np.float64, name
        assert np.array_equal(t64, t), name
    assert compute_params(p64) is p64
    wide = p.astype(np.longdouble)
    assert compute_params(wide) is wide
