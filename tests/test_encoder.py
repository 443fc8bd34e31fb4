"""Encoder layers: shapes, hand values, and agreement with the loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjlm.encoder import (
    ARCHS,
    EncoderConfig,
    forward_batch,
    sigmoid,
    softmax,
)
from cjlm.errors import ConfigError
from cjlm.jointlm import JointModelParams, SampleBatch
from cjlm.corpus import TrainingSample
from cjlm.vocab import PAD_ID

from oracles import reference_encode, sig


def small_cfg(arch="generic", fusion="gating", maxlen=10, **kw):
    base = dict(arch=arch, emb_dim=5, tgt_emb_dim=4, attn_dim=6, filters1=7,
                filters3=6, repr_dim=8, maxlen=maxlen, history=3,
                fusion=fusion, pool_k=2)
    base.update(kw)
    return EncoderConfig(**base)


def make_joint(cfg, vocab=12, seed=0):
    rng = np.random.default_rng(seed)
    return JointModelParams.initialize(cfg, vocab, vocab, (6,), rng,
                                       init_scale=0.5)


def make_params(cfg, vocab=12, seed=0):
    return make_joint(cfg, vocab, seed).encoder


def encode_one(cfg, joint, ids, affiliated=(), heads=(), history=(2, 2, 2)):
    """``forward_batch`` on a batch of one sample: the phi row and the cache."""
    sample = TrainingSample(tuple(ids), frozenset(affiliated),
                            frozenset(heads), tuple(history), 4)
    batch = SampleBatch.from_samples([sample], cfg)
    p = joint.astype(np.float64)
    hist = batch.hist if cfg.arch == "attention" else None
    phi, cache = forward_batch(batch.ids, batch.aff_mask, batch.head_mask, hist,
                               cfg, p.encoder, p.tgt_embeddings)
    return phi[0], cache


IDS = (PAD_ID, PAD_ID, 4, 5, 6, 7, 8, 9, 10, 11)


# --- scalar building blocks ------------------------------------------------

def test_sigmoid_hand_values():
    assert sigmoid(np.array(0.0)) == 0.5
    assert np.isclose(sigmoid(np.array(1.0)), 0.7310585786300049, atol=1e-15)
    # Extreme inputs saturate cleanly instead of overflowing.
    assert sigmoid(np.array(-800.0)) == 0.0
    assert sigmoid(np.array(800.0)) == 1.0
    assert np.isfinite(sigmoid(np.array([-1e300, 1e300]))).all()


def test_softmax_hand_value():
    out = softmax(np.array([0.0, np.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_normalizes_and_shifts(xs):
    x = np.array(xs)
    p = softmax(x)
    assert np.isclose(p.sum(), 1.0, atol=1e-12)
    assert np.allclose(p, softmax(x + 17.3), atol=1e-12)


@given(st.floats(-500, 500))
def test_sigmoid_symmetry(x):
    v = sigmoid(np.array(x))
    assert 0.0 <= v <= 1.0
    assert np.isclose(v + sigmoid(np.array(-x)), 1.0, atol=1e-12)


# --- configuration and the shape law --------------------------------------

def test_location_counts_at_default_width():
    cfg = EncoderConfig(arch="generic", maxlen=40)
    assert (cfg.conv_locs1, cfg.fused_locs, cfg.conv_locs3) == (38, 19, 17)
    assert cfg.repr_dim == 100


def test_location_counts_small():
    cfg = small_cfg(maxlen=10)
    assert (cfg.conv_locs1, cfg.fused_locs, cfg.conv_locs3) == (8, 4, 2)


def test_rejects_unknown_arch_and_fusion():
    with pytest.raises(ConfigError, match="arch"):
        small_cfg(arch="transformer")
    with pytest.raises(ConfigError, match="fusion"):
        small_cfg(fusion="mean")


def test_rejects_odd_maxlen():
    with pytest.raises(ConfigError, match="even"):
        small_cfg(maxlen=11)


def test_rejects_too_short_maxlen():
    with pytest.raises(ConfigError):
        small_cfg(maxlen=6)  # second convolution would have no locations


def test_rejects_bad_pool_k():
    with pytest.raises(ConfigError, match="pool_k"):
        small_cfg(fusion="pooling", pool_k=0)
    with pytest.raises(ConfigError, match="pool_k"):
        small_cfg(fusion="pooling", pool_k=3)  # only 2 final locations


def test_tag_bits_by_arch():
    assert small_cfg(arch="generic").tag_bits == 0
    assert small_cfg(arch="attention").tag_bits == 0
    assert small_cfg(arch="tag").tag_bits == 1
    assert small_cfg(arch="tag_dep").tag_bits == 2


def test_conv1_width_includes_attention_prefix():
    plain = small_cfg(arch="generic")
    attn = small_cfg(arch="attention")
    assert plain.conv1_width == 3 * plain.input_dim
    assert attn.conv1_width == attn.attn_dim + 3 * attn.input_dim


# --- parameter initialization ---------------------------------------------

@pytest.mark.parametrize("arch", ARCHS)
def test_initialize_layout(arch):
    cfg = small_cfg(arch=arch)
    params = make_params(cfg)
    assert params.src_embeddings.dtype == np.float32
    assert params.src_embeddings.shape == (12, cfg.emb_dim)
    assert np.all(params.src_embeddings[PAD_ID] == 0.0)
    assert params.conv1_w.shape == (cfg.filters1, cfg.conv1_width)
    assert np.all(params.conv1_b == 0.0)
    assert np.all(np.abs(params.conv1_w) <= 0.5)
    names = list(params.tensors())
    if arch == "attention":
        assert "attn_0_w" in names
    else:
        assert not any(n.startswith("attn") for n in names)


def test_initialize_is_deterministic():
    cfg = small_cfg(arch="tag")
    a = make_params(cfg, seed=3)
    b = make_params(cfg, seed=3)
    for (na, ta), (nb, tb) in zip(a.tensors().items(), b.tensors().items()):
        assert na == nb
        assert np.array_equal(ta, tb)


def test_pooling_fusion_has_no_gate_tensors():
    params = make_params(small_cfg(fusion="pooling"))
    assert params.gate_local_w is None
    assert not any("gate" in n for n in params.tensors())


# --- layer operations, read from the forward_batch cache ---------------------

def test_embed_source_tags_and_pad():
    cfg = small_cfg(arch="tag_dep", maxlen=10)
    joint = make_joint(cfg)
    ids = (PAD_ID,) * 7 + (4, 5, 6)
    _, cache = encode_one(cfg, joint, ids, {8}, {7})
    rows = cache.layer0[0]
    assert rows.shape == (10, cfg.emb_dim + 2)
    assert np.all(rows[:7] == 0.0)  # PAD rows stay zero, tag columns included
    assert rows[8, -2] == 1.0 and rows[9, -2] == 0.0
    assert rows[7, -1] == 1.0 and rows[8, -1] == 0.0
    assert np.array_equal(rows[7:, :-2], joint.encoder.src_embeddings[[4, 5, 6]])


@pytest.mark.parametrize("arch", ["tag", "tag_dep"])
def test_guides_on_pad_positions_are_dropped(arch):
    # extract_samples never puts a guide on a PAD position, but a hand-built
    # sample may; its PAD rows must still be all zero, as in the oracle.
    cfg = small_cfg(arch=arch)
    joint = make_joint(cfg, seed=3)
    ids = (PAD_ID,) * 5 + (4, 5, 6, 7, 8)
    aff, heads = {2, 6}, ({1, 7} if arch == "tag_dep" else set())
    phi, cache = encode_one(cfg, joint, ids, aff, heads)
    assert not cache.layer0[0, :5].any()
    ref = reference_encode(ids, aff, heads, (2, 2, 2), cfg, joint.encoder)
    assert np.allclose(phi, ref, atol=1e-12)


def test_embed_source_rejects_bad_positions():
    cfg = small_cfg(arch="tag_dep")
    for affiliated, heads in (({11}, set()), ({10}, set()), ({-1}, set()),
                              ({1}, {10})):
        sample = TrainingSample((4,) * 10, frozenset(affiliated),
                                frozenset(heads), (2, 2, 2), 4)
        with pytest.raises(ConfigError, match=r"outside \[0, 10\)"):
            SampleBatch.from_samples([sample], cfg)


def test_embed_source_length_check():
    cfg = small_cfg()
    sample = TrainingSample((4,) * 9, frozenset(), frozenset(), (2, 2, 2), 4)
    with pytest.raises(ConfigError, match="expected 10"):
        SampleBatch.from_samples([sample], cfg)


def test_convolve_hand_value():
    # One-dim embeddings equal to id - 4 and one filter reading the middle
    # row of each window: location t yields sigmoid(embedding at t + 1).
    cfg = small_cfg(emb_dim=1, filters1=1)
    joint = make_joint(cfg)
    joint.encoder.src_embeddings[:, 0] = np.arange(12) - 4.0
    joint.encoder.src_embeddings[PAD_ID] = 0.0
    joint.encoder.conv1_w[...] = [[0.0, 1.0, 0.0]]
    _, cache = encode_one(cfg, joint, IDS)
    assert cache.z1.shape == (1, cfg.conv_locs1, 1)
    for t in range(cfg.conv_locs1):
        row = IDS[t + 1]
        expected = sig(row - 4.0) if row != PAD_ID else 0.5
        assert np.isclose(cache.z1[0, t, 0], expected, atol=1e-15), t


def test_convolve_prefix_shifts_every_location():
    cfg = small_cfg(arch="attention")
    joint = make_joint(cfg)
    # Word columns zeroed: every window sees only the prefix.
    joint.encoder.conv1_w[...] = 0.0
    _, plain = encode_one(cfg, joint, IDS)
    assert np.allclose(plain.z1, 0.5, atol=1e-15)
    joint.encoder.conv1_w[:, : cfg.prefix_dim] = 1.0
    _, cache = encode_one(cfg, joint, IDS)
    shift = sig(float(cache.signal_acts[-1].sum()))
    assert np.allclose(cache.z1, shift, atol=1e-15)


def test_local_gate_is_convex_blend():
    cfg = small_cfg(arch="tag")
    joint = make_joint(cfg, seed=2)
    _, cache = encode_one(cfg, joint, IDS, {3, 4})
    z1e, z1o = cache.z1[:, 0::2], cache.z1[:, 1::2]
    alpha = cache.alpha[..., None]
    assert np.all((cache.alpha > 0) & (cache.alpha < 1))
    assert np.allclose(cache.z2, alpha * z1e + (1 - alpha) * z1o, atol=1e-15)
    assert np.all(cache.z2 >= np.minimum(z1e, z1o) - 1e-15)
    assert np.all(cache.z2 <= np.maximum(z1e, z1o) + 1e-15)
    # Zero gate input gives alpha exactly one half.
    joint.encoder.gate_local_w[...] = 0.0
    _, half = encode_one(cfg, joint, IDS, {3, 4})
    assert np.all(half.alpha == 0.5)
    assert np.allclose(half.z2, (half.z1[:, 0::2] + half.z1[:, 1::2]) / 2,
                       atol=1e-15)
    joint.encoder.gate_local_b[...] = 40.0
    _, high = encode_one(cfg, joint, IDS, {3, 4})
    assert np.allclose(high.z2, high.z1[:, 0::2], atol=1e-10)


def test_pool_local_elementwise_max():
    cfg = small_cfg(fusion="pooling")
    _, cache = encode_one(cfg, make_joint(cfg, seed=3), IDS)
    assert cache.z2.shape == (1, cfg.fused_locs, cfg.filters1)
    assert np.array_equal(cache.z2,
                          np.maximum(cache.z1[:, 0::2], cache.z1[:, 1::2]))


def test_global_gate_weights_normalize():
    cfg = small_cfg(maxlen=16)
    joint = make_joint(cfg, seed=4)
    joint.encoder.gate_global_w[...] = np.random.default_rng(1).normal(
        scale=3.0, size=cfg.filters3)
    _, cache = encode_one(cfg, joint, IDS + (4, 5, 6, 7, 8, 9))
    omega = cache.omega
    assert omega.shape == (1, cfg.conv_locs3)
    assert np.allclose(omega.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((omega > 0) & (omega < 1))
    assert np.allclose(cache.z4, omega[0] @ cache.z3[0], atol=1e-15)


def test_global_gate_uniform_for_zero_scores():
    cfg = small_cfg(maxlen=16)
    joint = make_joint(cfg)
    joint.encoder.gate_global_w[...] = 0.0
    _, cache = encode_one(cfg, joint, IDS + (4, 5, 6, 7, 8, 9))
    assert np.allclose(cache.omega, 1.0 / cfg.conv_locs3, atol=1e-15)


def test_pool_global_top_k_mean():
    cfg = small_cfg(fusion="pooling", maxlen=16, pool_k=3)
    _, cache = encode_one(cfg, make_joint(cfg, seed=5), IDS + (4, 5, 6, 7, 8, 9))
    top = -np.sort(-cache.z3[0], axis=0)[: cfg.pool_k]
    assert cache.z3.shape == (1, cfg.conv_locs3, cfg.filters3)
    assert np.allclose(cache.z4[0], top.mean(axis=0), atol=1e-15)


def test_project_final_range_and_value():
    cfg = small_cfg()
    joint = make_joint(cfg)
    phi, cache = encode_one(cfg, joint, IDS)
    assert np.all((phi > 0) & (phi < 1))
    p = joint.encoder
    assert np.allclose(phi, [sig(v) for v in p.proj_w.astype(float) @ cache.z4[0]
                             + p.proj_b], atol=1e-15)
    p.proj_w[...] = 0.0
    p.proj_b[...] = 1.0
    phi, _ = encode_one(cfg, joint, IDS)
    assert np.allclose(phi, sig(1.0), atol=1e-15)


def test_attention_signal_depth_and_errors():
    cfg = small_cfg(arch="attention", attn_depth=2)
    joint = make_joint(cfg, seed=6)
    _, cache = encode_one(cfg, joint, IDS, history=(2, 2, 5))
    assert len(cache.signal_acts) == 2
    assert all(a.shape == (1, cfg.attn_dim) for a in cache.signal_acts)
    assert all(np.all((a > 0) & (a < 1)) for a in cache.signal_acts)
    tgt = joint.tgt_embeddings.astype(float)
    x = np.concatenate([tgt[2], tgt[2], tgt[5]])
    for (w, b), act in zip(joint.encoder.attn_layers, cache.signal_acts):
        x = np.array([sig(v) for v in w.astype(float) @ x + b])
        assert np.allclose(act[0], x, atol=1e-15)
    short = TrainingSample(IDS, frozenset(), frozenset(), (2, 2), 4)
    with pytest.raises(ConfigError, match="history length"):
        SampleBatch.from_samples([short], cfg)


# --- full pipeline ---------------------------------------------------------

def sample_inputs(cfg, rng, vocab=12):
    n_real = int(rng.integers(4, cfg.maxlen + 1))
    ids = [PAD_ID] * (cfg.maxlen - n_real) + \
        list(rng.integers(4, vocab, size=n_real))
    lo = cfg.maxlen - n_real
    affiliated = {int(x) for x in rng.choice(
        np.arange(lo, cfg.maxlen), size=2, replace=False)}
    head_positions = {int(rng.integers(lo, cfg.maxlen))}
    history = tuple(int(x) for x in rng.integers(2, vocab, size=cfg.history))
    return tuple(ids), affiliated, head_positions, history


def test_trace_replay_reproduces_phi():
    # The cache holds every intermediate; recomputing the later stages from
    # it reproduces the representation exactly.
    cfg = small_cfg(arch="tag", fusion="gating")
    joint = make_joint(cfg)
    ids, aff, _, hist = sample_inputs(cfg, np.random.default_rng(3))
    phi, c = encode_one(cfg, joint, ids, aff, history=hist)
    p = joint.astype(np.float64).encoder
    z2 = (c.alpha[..., None] * c.z1[:, 0::2]
          + (1.0 - c.alpha)[..., None] * c.z1[:, 1::2])
    assert np.array_equal(z2, c.z2)
    z4 = np.einsum("bl,blf->bf", c.omega, c.z3)
    assert np.array_equal(sigmoid(z4 @ p.proj_w.T + p.proj_b)[0], phi)
    assert c.z1.shape == (1, cfg.conv_locs1, cfg.filters1)
    assert c.z3.shape == (1, cfg.conv_locs3, cfg.filters3)


def test_generic_arch_ignores_guides():
    cfg = small_cfg(arch="generic")
    p = make_joint(cfg).astype(np.float64)
    rng = np.random.default_rng(8)
    ids = np.array([[4, 5, 6, 7, 8, 9, 10, 11, 4, 5]] * 3)
    masks = rng.random((2, 3, cfg.maxlen)) < 0.5
    hist = rng.integers(2, 12, size=(3, cfg.history))
    with_guides, _ = forward_batch(ids, masks[0], masks[1], hist, cfg,
                                   p.encoder, p.tgt_embeddings)
    none = np.zeros((3, cfg.maxlen), dtype=bool)
    without, _ = forward_batch(ids, none, none, None, cfg, p.encoder, None)
    assert np.array_equal(with_guides, without)


def test_empty_affiliation_is_legal_for_tag_archs():
    cfg = small_cfg(arch="tag")
    phi, cache = encode_one(cfg, make_joint(cfg), (4,) * 10)
    assert cache.layer0[..., -1].sum() == 0.0
    assert phi.shape == (cfg.repr_dim,)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", ["gating", "pooling"])
def test_encode_matches_loop_oracle(arch, fusion):
    # One sample at a time (a batch of one) against the loop oracle.
    cfg = small_cfg(arch=arch, fusion=fusion)
    rng = np.random.default_rng(7)
    joint = make_joint(cfg, seed=1)
    for trial in range(5):
        ids, aff, heads, hist = sample_inputs(cfg, rng)
        if arch != "tag_dep":
            heads = set()
        phi, _ = encode_one(cfg, joint, ids, aff, heads, hist)
        ref = reference_encode(
            ids, aff if cfg.tag_bits else set(), heads, hist, cfg,
            joint.encoder, tgt_embeddings=joint.tgt_embeddings.astype(float),
        )
        assert np.allclose(phi, ref, atol=1e-12), f"trial {trial}"


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", ["gating", "pooling"])
def test_forward_batch_matches_encode(arch, fusion):
    # The batched kernel against the loop oracle, sample by sample.
    cfg = small_cfg(arch=arch, fusion=fusion)
    rng = np.random.default_rng(11)
    joint = JointModelParams.initialize(cfg, 12, 12, (6,),
                                        np.random.default_rng(4),
                                        init_scale=0.5)
    samples = []
    for _ in range(6):
        ids, aff, heads, hist = sample_inputs(cfg, rng)
        if arch != "tag_dep":
            heads = set()
        samples.append(TrainingSample(ids, frozenset(aff), frozenset(heads),
                                      hist, 4))
    batch = SampleBatch.from_samples(samples, cfg)
    p = joint.astype(np.float64)
    phis, _ = forward_batch(batch.ids, batch.aff_mask, batch.head_mask,
                            batch.hist, cfg, p.encoder, p.tgt_embeddings,
                            np.float64)
    for i, s in enumerate(samples):
        ref = reference_encode(
            s.source_ids, s.affiliated if cfg.tag_bits else set(),
            s.head_positions, s.history, cfg, joint.encoder,
            tgt_embeddings=joint.tgt_embeddings.astype(float),
        )
        assert np.allclose(phis[i], ref, atol=1e-12), f"sample {i}"
