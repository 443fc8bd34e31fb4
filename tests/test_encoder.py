"""Encoder layers: shapes, hand values, and agreement with the loop oracle."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cjlm import encoder
from cjlm.encoder import (
    ARCHS,
    FUSIONS,
    EncoderConfig,
    _group_sum,
    _guided_linear,
    _guided_linear_backward,
    _matmul,
    _window_matmul,
    _window_matmul_backward,
    _windows,
    _windows_backward,
    backward_batch,
    forward_batch,
    group_rows,
    sigmoid,
    sigmoid_layer_backward,
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


def encode_one(cfg, joint, ids, affiliated=(), heads=(), history=(2, 2, 2)):
    """``forward_batch`` on a batch of one sample: the phi row and the cache."""
    sample = TrainingSample(tuple(ids), frozenset(affiliated),
                            frozenset(heads), tuple(history), 4)
    batch = SampleBatch.from_samples([sample], cfg)
    phi, cache = forward_batch(batch.ids, batch.aff_mask, batch.head_mask,
                               batch.hist, cfg, joint.astype(np.float64))
    return phi[0], cache


def layer0(cache):
    """Each sample's layer-0 rows: its source's embedding rows, then its tags."""
    rows = cache.src_rows[cache.src_of]
    return rows if cache.tags is None else np.concatenate([rows, cache.tags], axis=2)


def guided_product(cache, *args, **kw):
    """``_guided_linear``'s per-sample product, its word row plus its tag
    row, and its word term."""
    word, tag = _guided_linear(cache, *args, **kw)
    out = word[cache.src_of]
    if tag is not None:
        out += tag
    return out, word


IDS = (PAD_ID, PAD_ID, 4, 5, 6, 7, 8, 9, 10, 11)


# --- scalar building blocks ------------------------------------------------

def test_sigmoid_hand_values():
    assert sigmoid(np.array(0.0)) == 0.5
    assert np.isclose(sigmoid(np.array(1.0)), 0.7310585786300049, atol=1e-15)
    # Extreme inputs saturate cleanly instead of overflowing.
    assert sigmoid(np.array(-800.0)) == 0.0
    assert sigmoid(np.array(800.0)) == 1.0
    assert np.isfinite(sigmoid(np.array([-1e300, 1e300]))).all()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_group_rows_matches_row_unique(data):
    cols = data.draw(st.sampled_from([1, 43]))
    # A few distinct rows, drawn again and again, give duplicate rows.
    values = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**62))
    pool = data.draw(st.lists(st.lists(values, min_size=cols, max_size=cols),
                              min_size=1, max_size=6))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=30))
    key = np.array([pool[i] for i in picks], dtype=np.int64)
    first, of, order, starts = group_rows(key)
    _, want_first, want_of = np.unique(key, axis=0, return_index=True,
                                       return_inverse=True)
    assert np.array_equal(first, want_first)
    assert np.array_equal(of, want_of.reshape(-1))
    assert starts[0] == 0 and starts[-1] == len(key)
    for g in range(len(first)):
        members = order[starts[g] : starts[g + 1]]
        assert np.array_equal(members, np.flatnonzero(of == g))


def test_sigmoid_writes_into_out_even_over_its_input():
    rng = np.random.default_rng(12)
    x = rng.normal(scale=20.0, size=(5, 7))
    ref = sigmoid(x)
    out = np.full_like(x, np.nan)
    assert sigmoid(x, out=out) is out
    assert np.array_equal(out, ref)
    y = x.copy()
    assert sigmoid(y, out=y) is y
    assert np.array_equal(y, ref)


def test_softmax_hand_value():
    out = softmax(np.array([0.0, np.log(3.0)]))
    assert np.allclose(out, [0.25, 0.75], atol=1e-15)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_normalizes_and_shifts(xs):
    x = np.array(xs)
    shifted = softmax(x + 17.3)
    e = np.exp(x - x.max())
    expected = e / e.sum()
    p = softmax(x)
    assert p is x
    assert np.array_equal(p, expected)
    assert np.isclose(p.sum(), 1.0, atol=1e-12)
    assert np.allclose(p, shifted, atol=1e-12)


@given(st.floats(-500, 500))
def test_sigmoid_symmetry(x):
    v = sigmoid(np.array(x))
    assert 0.0 <= v <= 1.0
    assert np.isclose(v + sigmoid(np.array(-x)), 1.0, atol=1e-12)


def two_branch_sigmoid(x):
    """The textbook form: 1 / (1 + exp(-x)) for x >= 0, else exp(x) / (1 + exp(x))."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_sigmoid_is_bit_identical_to_two_branch_form(dtype):
    rng = np.random.default_rng(16)
    special = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e300, -1e300, np.nan]
    x = np.concatenate([rng.normal(0.0, 4.0, 2_000_000), special]).astype(dtype)
    out = sigmoid(x)
    assert out.dtype == dtype
    assert np.array_equal(out, two_branch_sigmoid(x), equal_nan=True)
    for v in special:
        one = sigmoid(np.asarray(v, dtype=dtype))
        assert isinstance(one, np.ndarray) and one.shape == () and one.dtype == dtype
        assert np.array_equal(one, two_branch_sigmoid(np.asarray([v], dtype))[0],
                              equal_nan=True)


# --- backward kernels --------------------------------------------------------

@pytest.mark.parametrize("span, step", [(3, 1), (4, 2)])
def test_windows_backward_is_the_adjoint(span, step):
    # <windows(x), g> == <x, windows_backward(g)>, and the adjoint adds into
    # the array it is given.
    rng = np.random.default_rng(10 * span + step)
    for _ in range(20):
        batch, n, width = (int(v) for v in rng.integers(1, 7, size=3))
        locs = step * (n - 1) + span + int(rng.integers(0, 3))
        x = rng.normal(size=(batch, locs, width))
        win = _windows(x, n, span, step)
        assert win.shape == (batch, n, span * width)
        g = rng.normal(size=win.shape)
        base = rng.normal(size=x.shape)
        dx = _windows_backward(g, base.copy(), step) - base
        assert np.isclose(np.sum(win * g), np.sum(x * dx), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("span, step", [(3, 1), (4, 2)])
@pytest.mark.parametrize("width", [1, 2, EncoderConfig().emb_dim])
def test_windows_is_the_concatenated_row_slices(span, step, width):
    rng = np.random.default_rng(100 * span + width)
    n = 5
    locs = step * (n - 1) + span + 1
    stop = step * (n - 1) + 1
    contiguous = rng.normal(size=(4, locs, width))
    # A reversed, every-other-sample view: no reshape of it is a view.
    strided = rng.normal(size=(8, locs, width))[::-2]
    for x in (contiguous, strided):
        ref = np.concatenate([x[:, t : t + stop : step] for t in range(span)], axis=2)
        win = _windows(x, n, span, step)
        assert win.flags.c_contiguous
        assert win.shape == ref.shape and np.array_equal(win, ref)


def test_group_sum_adds_each_group_in_row_order():
    # Rows 0, 3 and 5 form one group: in row order, 1e16 + 1.0 rounds back to
    # 1e16 each time, whereas summing the two 1.0s first gives 1e16 + 2.
    # Rows 1, 6, ..., 14 form a group of ten, past pairwise summation's
    # eight; rows 2 and 4 are singletons.
    key = np.array([[0], [1], [2], [0], [3], [0]] + [[1]] * 9)
    rng = np.random.default_rng(17)
    scale = 10.0 ** rng.integers(-8, 9, size=(len(key), 1, 1))
    x = rng.normal(size=(len(key), 3, 4)) * scale
    x[[0, 3, 5]] = np.array([1e16, 1.0, 1.0])[:, None, None]
    first, _, order, starts = group_rows(key)
    out = _group_sum(x, order, starts)
    assert out.shape == (len(first),) + x.shape[1:]
    for g in range(len(first)):
        members = [i for i in range(len(key)) if key[i, 0] == key[first[g], 0]]
        acc = x[members[0]].copy()
        for i in members[1:]:
            acc = acc + x[i]
        assert np.array_equal(out[g], acc), g
    assert (out[key[first, 0] == 0] == 1e16).all()


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_embedding_grad_takes_the_dtype_of_its_rows(dtype):
    # A float32 table, as the compute parameters hold it, with rows in the
    # compute dtype: the gradient is in the rows' dtype, each id's rows added
    # in row order, and PAD's rows dropped.
    rng = np.random.default_rng(23)
    table = rng.normal(size=(9, 4)).astype(np.float32)
    ids = np.array([[5, PAD_ID, 5], [7, 5, PAD_ID]])
    rows = rng.normal(size=(*ids.shape, 4)).astype(dtype)
    grad = encoder.embedding_grad(table, ids, rows)
    assert grad.dtype == dtype and grad.shape == table.shape
    assert not grad[PAD_ID].any()
    assert np.array_equal(grad[5], rows[0, 0] + rows[0, 2] + rows[1, 1])
    assert np.array_equal(grad[7], rows[1, 0])
    assert not np.delete(grad, [5, 7], axis=0).any()


def test_matmul_blocks_match_stacked_product(monkeypatch):
    # 15 rows in blocks of 7: two full blocks and a ragged tail. Longdouble,
    # the finite-difference oracle's dtype, stays longdouble.
    monkeypatch.setattr(encoder, "GEMM_ROWS", 7)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(3, 5, 4)).astype(np.longdouble)
    w = rng.normal(size=(6, 4)).astype(np.longdouble)
    out = _matmul(x, w.T)
    assert out.dtype == np.longdouble
    assert np.array_equal(out, x @ w.T)


@pytest.mark.parametrize("span, step", [(3, 1), (4, 2)])
@pytest.mark.parametrize("gemm_rows", [7, 20, 10**6])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_window_products_equal_the_whole_batch_ones(span, step, gemm_rows, dtype,
                                                    monkeypatch):
    # Samples of 11 window rows in blocks of 7 (a sample spans two or three
    # blocks), of 20 (blocks start and end mid-sample) and of a million (one
    # block), over 5 samples (a ragged last block) and over one. The adjoint
    # adds into a dx that already holds sums: each element must receive its
    # terms in _windows_backward's order, so the sums are exactly equal.
    monkeypatch.setattr(encoder, "GEMM_ROWS", gemm_rows)
    rng = np.random.default_rng(gemm_rows + span)
    n, width, out_dim = 11, 6, 5
    for batch in (5, 1):
        x = rng.normal(size=(batch, step * (n - 1) + span, width)).astype(dtype)
        w = rng.normal(size=(span * width, out_dim)).astype(dtype)
        out = _window_matmul(x, n, w, span, step)
        assert out.dtype == dtype
        assert np.array_equal(out, _matmul(_windows(x, n, span, step), w))
        dout = rng.normal(size=(batch, n, out_dim)).astype(dtype)
        sums = rng.normal(size=x.shape).astype(dtype)
        want = _windows_backward(_matmul(dout, w.T), sums.copy(), step)
        dx = sums.copy()
        assert _window_matmul_backward(dout, w.T, dx, step) is dx
        assert np.array_equal(dx, want)


def peak_bytes(fn, *args):
    """``fn(*args)`` and the peak bytes NumPy allocated during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cache_arrays(cache):
    """The arrays a ``BatchCache`` holds."""
    arrays = []
    for f in fields(cache):
        value = getattr(cache, f.name)
        arrays += value if isinstance(value, list) else [value]
    return [a for a in arrays if a is not None]


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_window_products_copy_no_whole_batch_window_array(arch, fusion, monkeypatch):
    # With blocks of 64 rows and chunks of 16 KiB, neither forward_batch,
    # beyond what it returns, nor the adjoint holds a whole-batch window
    # array: each stays below 0.9 of conv3's, whose copy alone exceeds that.
    # The largest array left is the tag term, 38 rows a sample against the
    # windows' 51.
    monkeypatch.setattr(encoder, "GEMM_ROWS", 64)
    monkeypatch.setattr(encoder, "CHUNK_BYTES", 16 * 1024)
    cfg = small_cfg(arch=arch, fusion=fusion, maxlen=40, emb_dim=16,
                    filters1=16, filters3=16)
    p = make_joint(cfg, seed=5).astype(np.float64)
    batch = shared_source_batch(cfg, np.random.default_rng(27), n=256)
    bound = 0.9 * len(batch) * cfg.conv_locs3 * encoder.CONV_WINDOW * cfg.filters1 * 8
    (phi, cache), peak = peak_bytes(forward_batch, batch.ids, batch.aff_mask,
                                    batch.head_mask, batch.hist, cfg, p)
    assert peak - sum(a.nbytes for a in [phi, *cache_arrays(cache)]) < bound
    dpre3 = np.random.default_rng(28).normal(size=(len(batch), cfg.conv_locs3,
                                                   cfg.filters3))
    dz2 = np.zeros_like(cache.z2)
    _, peak = peak_bytes(_window_matmul_backward, dpre3, p.conv3_w, dz2)
    assert peak < bound


@pytest.mark.parametrize("arch, fusion", [("tag", "gating"), ("attention", "pooling")])
def test_batch_kernels_match_oracles_across_gemm_blocks(arch, fusion, monkeypatch):
    # Blocks of 7 rows split conv1's, conv3's and their input gradients'
    # products into several blocks with a ragged tail (24, 33 and 48 rows).
    monkeypatch.setattr(encoder, "GEMM_ROWS", 7)
    test_forward_batch_matches_encode(arch, fusion)
    test_backward_batch_sums_per_sample_gradients(arch, fusion)


def test_sigmoid_layer_backward_matches_einsum_form():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 11, 9))
    w, b = rng.normal(size=(5, 9)), rng.normal(size=5)
    act = sigmoid(x @ w.T + b)
    da = rng.normal(size=act.shape)
    grads = {}
    dpre = sigmoid_layer_backward(da, x, act, "layer", grads)
    expected = da * act * (1.0 - act)
    assert np.array_equal(dpre, expected)
    assert list(grads) == ["layer_w", "layer_b"]
    np.testing.assert_allclose(grads["layer_w"],
                               np.einsum("blf,blw->fw", expected, x), rtol=1e-12)
    np.testing.assert_allclose(grads["layer_b"], expected.sum(axis=(0, 1)),
                               rtol=1e-12)


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


INT_FIELDS = ("emb_dim", "tgt_emb_dim", "attn_dim", "filters1", "filters3",
              "repr_dim", "maxlen", "history", "pool_k", "attn_depth")


@pytest.mark.parametrize("name", INT_FIELDS)
def test_rejects_non_integer_dims(name):
    # 10.0 == 10 would pass every range check and fail later as an array size.
    value = getattr(small_cfg(), name)
    for bad in (float(value), bool(value), np.float64(value)):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, not "):
            small_cfg(**{name: bad})
    stored = getattr(small_cfg(**{name: np.int64(value)}), name)
    assert stored == value and type(stored) is int


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
    params = make_joint(cfg)
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
    a = make_joint(cfg, seed=3)
    b = make_joint(cfg, seed=3)
    for (na, ta), (nb, tb) in zip(a.tensors().items(), b.tensors().items()):
        assert na == nb
        assert np.array_equal(ta, tb)


def test_pooling_fusion_has_no_gate_tensors():
    params = make_joint(small_cfg(fusion="pooling"))
    assert params.gate_local_w is None
    assert not any("gate" in n for n in params.tensors())


# --- layer operations, read from the forward_batch cache ---------------------

def test_embed_source_tags_and_pad():
    cfg = small_cfg(arch="tag_dep", maxlen=10)
    joint = make_joint(cfg)
    ids = (PAD_ID,) * 7 + (4, 5, 6)
    _, cache = encode_one(cfg, joint, ids, {8}, {7})
    rows = layer0(cache)[0]
    assert rows.shape == (10, cfg.emb_dim + 2)
    assert np.all(rows[:7] == 0.0)  # PAD rows stay zero, tag columns included
    assert rows[8, -2] == 1.0 and rows[9, -2] == 0.0
    assert rows[7, -1] == 1.0 and rows[8, -1] == 0.0
    assert np.array_equal(rows[7:, :-2], joint.src_embeddings[[4, 5, 6]])


@pytest.mark.parametrize("arch", ["tag", "tag_dep"])
def test_guides_on_pad_positions_are_dropped(arch):
    # extract_samples never puts a guide on a PAD position, but a hand-built
    # sample may; its PAD rows must still be all zero, as in the oracle.
    cfg = small_cfg(arch=arch)
    joint = make_joint(cfg, seed=3)
    ids = (PAD_ID,) * 5 + (4, 5, 6, 7, 8)
    aff, heads = {2, 6}, ({1, 7} if arch == "tag_dep" else set())
    phi, cache = encode_one(cfg, joint, ids, aff, heads)
    assert not layer0(cache)[0, :5].any()
    ref = reference_encode(ids, aff, heads, (2, 2, 2), cfg, joint)
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
    joint.src_embeddings[:, 0] = np.arange(12) - 4.0
    joint.src_embeddings[PAD_ID] = 0.0
    joint.conv1_w[...] = [[0.0, 1.0, 0.0]]
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
    joint.conv1_w[...] = 0.0
    _, plain = encode_one(cfg, joint, IDS)
    assert np.allclose(plain.z1, 0.5, atol=1e-15)
    joint.conv1_w[:, : cfg.prefix_dim] = 1.0
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
    joint.gate_local_w[...] = 0.0
    _, half = encode_one(cfg, joint, IDS, {3, 4})
    assert np.all(half.alpha == 0.5)
    assert np.allclose(half.z2, (half.z1[:, 0::2] + half.z1[:, 1::2]) / 2,
                       atol=1e-15)
    joint.gate_local_b[...] = 40.0
    _, high = encode_one(cfg, joint, IDS, {3, 4})
    assert np.allclose(high.z2, high.z1[:, 0::2], atol=1e-10)


def pooling_reference(cache, cfg, p):
    """The pooling ablation as sigmoid, then pool, for a generic-arch
    ``cache`` and float64 ``p``: conv1's pre-activations ``pre1``, the dense
    sigmoid layers ``z1`` and ``z3``, the picks ``take`` and ``top_idx`` made
    on sigmoid values, the pair max ``z2``, conv3's input ``windows3`` and the
    top-k mean ``z4``."""
    pre1 = guided_product(cache, p.conv1_w, cfg, cfg.conv_locs1, bias=p.conv1_b)[0]
    z1 = sigmoid(pre1)
    take = z1[:, 0::2] >= z1[:, 1::2]
    z2 = np.where(take, z1[:, 0::2], z1[:, 1::2])
    windows3 = _windows(z2, cfg.conv_locs3)
    z3 = sigmoid(_matmul(windows3, p.conv3_w.T) + p.conv3_b)
    top_idx = np.argsort(-z3, axis=1, kind="stable")[:, : cfg.pool_k]
    z4 = np.take_along_axis(z3, top_idx, axis=1).mean(axis=1)
    return dict(pre1=pre1, z1=z1, take=take, z2=z2, windows3=windows3, z3=z3,
                top_idx=top_idx, z4=z4)


def test_pool_local_elementwise_max():
    cfg = small_cfg(fusion="pooling")
    joint = make_joint(cfg, seed=3)
    _, cache = encode_one(cfg, joint, IDS)
    z1 = pooling_reference(cache, cfg, joint.astype(np.float64))["z1"]
    assert cache.z2.shape == (1, cfg.fused_locs, cfg.filters1)
    assert np.array_equal(cache.z2, np.maximum(z1[:, 0::2], z1[:, 1::2]))


def test_global_gate_weights_normalize():
    cfg = small_cfg(maxlen=16)
    joint = make_joint(cfg, seed=4)
    joint.gate_global_w[...] = np.random.default_rng(1).normal(
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
    joint.gate_global_w[...] = 0.0
    _, cache = encode_one(cfg, joint, IDS + (4, 5, 6, 7, 8, 9))
    assert np.allclose(cache.omega, 1.0 / cfg.conv_locs3, atol=1e-15)


def test_pool_global_top_k_mean():
    cfg = small_cfg(fusion="pooling", maxlen=16, pool_k=3)
    joint = make_joint(cfg, seed=5)
    _, cache = encode_one(cfg, joint, IDS + (4, 5, 6, 7, 8, 9))
    z3 = pooling_reference(cache, cfg, joint.astype(np.float64))["z3"]
    top = -np.sort(-z3[0], axis=0)[: cfg.pool_k]
    assert z3.shape == (1, cfg.conv_locs3, cfg.filters3)
    assert cache.z3_top.shape == (1, cfg.pool_k, cfg.filters3)
    assert np.array_equal(cache.z4[0], top.mean(axis=0))


@pytest.mark.parametrize("pool_k", [1, 2])
def test_pooling_on_pre_activations_through_ties_and_saturation(pool_k):
    # A run of one repeated word gives windows, and so conv1 pairs and conv3
    # locations, whose pre-activations tie exactly. Biases of 42 put filters
    # where the sigmoid rounds to exactly 1.0: their values tie while their
    # pre-activations differ, so picking on pre-activations takes other
    # members than picking on sigmoid values. Values and gradients must
    # still be those of sigmoid, then pool, with dense sigmoid layers.
    cfg = small_cfg(fusion="pooling", maxlen=16, pool_k=pool_k)
    p = make_joint(cfg, seed=7).astype(np.float64)
    p.conv1_b[:3] = 42.0
    p.conv3_b[:2] = 42.0
    ids = np.array([(PAD_ID,) * 2 + (4,) * 12 + (5, 6),
                    (PAD_ID,) * 4 + (7, 8, 9, 10, 11, 4, 4, 4, 4, 4, 4, 5)])
    none = np.zeros(ids.shape, dtype=bool)
    phi, cache = forward_batch(ids, none, none, None, cfg, p)
    ref = pooling_reference(cache, cfg, p)
    pre1, z1 = ref["pre1"], ref["z1"]
    assert np.any(pre1[:, 0::2] == pre1[:, 1::2])
    assert np.any((z1[:, 0::2] == 1.0) & (z1[:, 1::2] == 1.0)
                  & (pre1[:, 0::2] < pre1[:, 1::2]))
    assert np.any(cache.take != ref["take"])
    assert np.any(cache.top_idx != ref["top_idx"])
    assert np.array_equal(cache.z2, ref["z2"])
    assert np.array_equal(cache.z4, ref["z4"])

    dphi = np.random.default_rng(7).normal(size=phi.shape)
    grads, _ = backward_batch(cache, dphi, cfg, p)
    want = {}
    dz4 = sigmoid_layer_backward(dphi, cache.z4, phi, "proj", want) @ p.proj_w
    dz3 = np.zeros_like(ref["z3"])
    np.put_along_axis(dz3, ref["top_idx"], (dz4 / pool_k)[:, None, :], axis=1)
    dpre3 = sigmoid_layer_backward(dz3, ref["windows3"], ref["z3"], "conv3", want)
    dz2 = _windows_backward(_matmul(dpre3, p.conv3_w), np.zeros_like(ref["z2"]))
    take = ref["take"]
    dz1 = np.empty_like(z1)
    dz1[:, 0::2] = np.where(take, dz2, 0.0)
    dz1[:, 1::2] = np.where(take, 0.0, dz2)
    dpre1 = dz1 * z1 * (1.0 - z1)
    dsrc_rows = np.zeros_like(cache.src_rows)
    want["conv1_w"] = _guided_linear_backward(cache, dpre1, p.conv1_w, cfg,
                                              dsrc_rows)
    want["conv1_b"] = dpre1.reshape(-1, cfg.filters1).sum(axis=0)
    want["src_embeddings"] = encoder.embedding_grad(p.src_embeddings, cache.src,
                                                    dsrc_rows)
    assert grads.keys() == want.keys()
    for name, g in want.items():
        assert np.any(g != 0.0), name
        assert np.array_equal(grads[name], g), name


def test_project_final_range_and_value():
    cfg = small_cfg()
    joint = make_joint(cfg)
    phi, cache = encode_one(cfg, joint, IDS)
    assert np.all((phi > 0) & (phi < 1))
    assert np.allclose(phi, [sig(v) for v in joint.proj_w.astype(float) @ cache.z4[0]
                             + joint.proj_b], atol=1e-15)
    joint.proj_w[...] = 0.0
    joint.proj_b[...] = 1.0
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
    for (w, b), act in zip(joint.attn_layers, cache.signal_acts):
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
    p = joint.astype(np.float64)
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
    with_guides, _ = forward_batch(ids, masks[0], masks[1], hist, cfg, p)
    none = np.zeros((3, cfg.maxlen), dtype=bool)
    without, _ = forward_batch(ids, none, none, None, cfg, p)
    assert np.array_equal(with_guides, without)


def test_empty_affiliation_is_legal_for_tag_archs():
    cfg = small_cfg(arch="tag")
    phi, cache = encode_one(cfg, make_joint(cfg), (4,) * 10)
    assert layer0(cache)[..., -1].sum() == 0.0
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
            joint, tgt_embeddings=joint.tgt_embeddings.astype(float),
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
                            batch.hist, cfg, p)
    for i, s in enumerate(samples):
        ref = reference_encode(
            s.source_ids, s.affiliated if cfg.tag_bits else set(),
            s.head_positions, s.history, cfg, joint,
            tgt_embeddings=joint.tgt_embeddings.astype(float),
        )
        assert np.allclose(phis[i], ref, atol=1e-12), f"sample {i}"


def shared_source_batch(cfg, rng, n_src=3, n=11):
    """``n`` samples over ``n_src`` sources, each source used several times
    with its own guides and history, in shuffled order."""
    sources = [sample_inputs(cfg, rng)[0] for _ in range(n_src)]
    samples = []
    for i in rng.permutation(n):
        _, aff, heads, hist = sample_inputs(cfg, rng)
        ids = sources[i % n_src]
        aff = {j for j in aff if ids[j] != PAD_ID}
        heads = {j for j in heads if ids[j] != PAD_ID}
        samples.append(TrainingSample(
            ids, frozenset(aff), frozenset(heads if cfg.arch == "tag_dep" else ()),
            hist, 4))
    return SampleBatch.from_samples(samples, cfg)


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", ["gating", "pooling"])
def test_forward_batch_shares_each_source(arch, fusion):
    # Each row of a batch with repeated sources equals the row encoded alone,
    # as a batch of two copies: one row would take NumPy's matrix-vector
    # path, whose sums differ in the last bits from the matrix product's.
    # The tag columns are summed apart from the word columns, so the tag
    # archs may move in the last bits; the others are bit-exact.
    cfg = small_cfg(arch=arch, fusion=fusion)
    p = make_joint(cfg, seed=5).astype(np.float64)
    batch = shared_source_batch(cfg, np.random.default_rng(21))
    phi, cache = forward_batch(batch.ids, batch.aff_mask, batch.head_mask,
                               batch.hist, cfg, p)
    # conv1 reads the windows of the 3 distinct sources' embedding rows.
    rows = p.src_embeddings[cache.src] * (cache.src != PAD_ID)[..., None]
    assert np.array_equal(cache.src_rows, rows)
    assert _windows(cache.src_rows, cfg.conv_locs1).shape[0] == 3
    assert np.array_equal(cache.src[cache.src_of], batch.ids)
    for i in range(len(batch)):
        two = [i, i]
        alone, _ = forward_batch(batch.ids[two], batch.aff_mask[two],
                                 batch.head_mask[two], batch.hist[two], cfg, p)
        if cfg.tag_bits:
            assert rel_err(phi[i], alone[0]) <= 1e-12, i
        else:
            assert np.array_equal(phi[i], alone[0]), i


def kept_bytes(cfg, batch, n_src):
    """Bytes of what a ``forward_batch`` cache must keep over ``batch``
    samples of ``n_src`` sources, from the config's shapes: the gathered rows
    and the layer values, float64 or 8-byte indices, and pooling's picks."""
    values = (n_src * cfg.maxlen * cfg.emb_dim  # src_rows
              + batch * cfg.maxlen * cfg.tag_bits  # tags
              + batch * cfg.fused_locs * cfg.filters1  # z2
              + batch * (cfg.filters3 + cfg.repr_dim))  # z4, phi
    if cfg.arch == "attention":  # hist_flat, signal_acts
        values += batch * (cfg.history * cfg.tgt_emb_dim
                           + cfg.attn_depth * cfg.attn_dim)
    if cfg.fusion == "gating":  # z1, alpha, z3, omega
        values += batch * (cfg.conv_locs1 * cfg.filters1 + cfg.fused_locs
                           + cfg.conv_locs3 * (cfg.filters3 + 1))
    else:  # z3_top, top_idx
        values += 2 * batch * cfg.pool_k * cfg.filters3
    indices = n_src * cfg.maxlen + 2 * batch + n_src + 1  # src, src_of, order, starts
    take = batch * cfg.fused_locs * cfg.filters1 if cfg.fusion == "pooling" else 0
    return 8 * (values + indices) + take


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_forward_cache_keeps_no_window_copy(arch, fusion):
    # Backward rebuilds every window it reads, so the cache holds the layer
    # values and gathered rows alone: a copy of conv1's, the local gate's or
    # conv3's windows would add its bytes to these.
    cfg = small_cfg(arch=arch, fusion=fusion)
    p = make_joint(cfg, seed=5).astype(np.float64)
    batch = shared_source_batch(cfg, np.random.default_rng(27))
    _, cache = forward_batch(batch.ids, batch.aff_mask, batch.head_mask,
                             batch.hist, cfg, p)
    total = sum(a.nbytes for a in cache_arrays(cache))
    assert total <= kept_bytes(cfg, len(batch), 3)


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", ["gating", "pooling"])
def test_backward_batch_sums_per_sample_gradients(arch, fusion):
    # Reference: the batch gradient is the sum of each sample's gradient, and
    # a batch of one builds that sample's own conv1 and gate windows.
    cfg = small_cfg(arch=arch, fusion=fusion)
    p = make_joint(cfg, seed=6).astype(np.float64)
    batch = shared_source_batch(cfg, np.random.default_rng(22))
    dphi = np.random.default_rng(23).normal(size=(len(batch), cfg.repr_dim))
    args = (batch.ids, batch.aff_mask, batch.head_mask, batch.hist)
    _, cache = forward_batch(*args, cfg, p)
    grads, dhist = backward_batch(cache, dphi, cfg, p)
    ref, ref_hist = {}, []
    for i in range(len(batch)):
        _, one = forward_batch(*(a[i : i + 1] for a in args), cfg, p)
        g, h = backward_batch(one, dphi[i : i + 1], cfg, p)
        for name, value in g.items():
            ref[name] = ref.get(name, 0.0) + value
        ref_hist.append(h)
    assert list(grads) == list(ref)
    for name, value in grads.items():
        assert value.shape == ref[name].shape, name
        assert rel_err(value, ref[name]) <= 1e-12, name
    assert not grads["src_embeddings"][PAD_ID].any()
    unused = np.setdiff1d(np.arange(p.src_embeddings.shape[0]), batch.ids)
    assert not grads["src_embeddings"][unused].any()
    if arch == "attention":
        assert rel_err(dhist, np.concatenate(ref_hist)) <= 1e-12
    else:
        assert dhist is None


@pytest.mark.parametrize("arch", ARCHS)
@pytest.mark.parametrize("fusion", FUSIONS)
def test_chunks_leave_every_value_unchanged(arch, fusion, monkeypatch):
    # The element-wise passes run over sample chunks of CHUNK_BYTES. Budgets
    # of one byte (a sample per chunk), of four conv1 rows (chunks of 4, 4
    # and 3 of the 11 samples) and of four conv3 rows (conv1 a sample at a
    # time, conv3 in 4, 4 and 3) give the one-chunk run's values exactly.
    cfg = small_cfg(arch=arch, fusion=fusion)
    p = make_joint(cfg, seed=8).astype(np.float64)
    batch = shared_source_batch(cfg, np.random.default_rng(26))
    args = (batch.ids, batch.aff_mask, batch.head_mask, batch.hist, cfg, p)
    phi, cache = forward_batch(*args)
    conv1_row = 8 * cfg.conv_locs1 * cfg.filters1
    conv3_row = 8 * cfg.conv_locs3 * cfg.filters3
    assert encoder._chunks(len(batch), conv1_row) == [(0, len(batch))]
    for budget in (1, 4 * conv1_row, 4 * conv3_row):
        monkeypatch.setattr(encoder, "CHUNK_BYTES", budget)
        if budget > 1:
            row = conv1_row if budget == 4 * conv1_row else conv3_row
            assert encoder._chunks(len(batch), row) == [(0, 4), (4, 8), (8, 11)]
        got_phi, got = forward_batch(*args)
        assert np.array_equal(got_phi, phi), budget
        for f in fields(cache):
            want, have = getattr(cache, f.name), getattr(got, f.name)
            if isinstance(want, list):
                assert len(have) == len(want), f.name
                assert all(map(np.array_equal, have, want)), f.name
            elif want is None:
                assert have is None, f.name
            else:
                assert have.dtype == want.dtype, f.name
                assert np.array_equal(have, want), (budget, f.name)
        test_forward_batch_matches_encode(arch, fusion)
        test_backward_batch_sums_per_sample_gradients(arch, fusion)


def guided_case(arch, span, step):
    """A cache over a batch with repeated sources, a weight over ``span``-row
    windows of layer-0 rows, and the window count ``n`` at ``step``."""
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg, seed=7).astype(np.float64)
    batch = shared_source_batch(cfg, np.random.default_rng(24))
    _, cache = forward_batch(batch.ids, batch.aff_mask, batch.head_mask,
                             batch.hist, cfg, p)
    rng = np.random.default_rng(25)
    w = rng.normal(size=(5, span * cfg.input_dim))
    return cfg, cache, w, (cfg.maxlen - span) // step + 1, rng


@pytest.mark.parametrize("arch", ["generic", "tag_dep"])
@pytest.mark.parametrize("span,step", [(3, 1), (4, 2)])
def test_guided_linear_is_the_layer0_window_product(arch, span, step):
    cfg, cache, w, n, rng = guided_case(arch, span, step)
    out, word = guided_product(cache, w, cfg, n, span, step)
    assert cache.src_rows.shape[0] == 3 < len(cache.src_of)
    ref = _windows(layer0(cache), n, span, step) @ w.T
    assert out.shape == ref.shape
    assert rel_err(out, ref) <= 1e-12
    # The word term is the product over the windows of the source rows.
    windows = _windows(cache.src_rows, n, span, step)
    w_word = encoder._split_columns(w, cfg)[0].reshape(len(w), -1)
    assert np.array_equal(word, _matmul(windows, w_word.T))
    bias = rng.normal(size=len(w))
    biased, _ = guided_product(cache, w, cfg, n, span, step, bias=bias)
    assert rel_err(biased, ref + bias) <= 1e-12


@pytest.mark.parametrize("arch", ["generic", "tag_dep"])
@pytest.mark.parametrize("span,step", [(3, 1), (4, 2)])
def test_guided_linear_backward_is_its_adjoint(arch, span, step):
    # The product is linear in w, and its word term is linear in the source
    # rows: <product, g> = <w, dw> and <word term, g> = <src_rows, dsrc_rows>.
    cfg, cache, w, n, rng = guided_case(arch, span, step)
    out, _ = guided_product(cache, w, cfg, n, span, step)
    g = rng.normal(size=out.shape)
    start = rng.normal(size=cache.src_rows.shape)
    dsrc_rows = start.copy()
    dw = _guided_linear_backward(cache, g, w, cfg, dsrc_rows, step)
    assert dw.shape == w.shape
    assert rel_err(np.vdot(w, dw), np.vdot(out, g)) <= 1e-12
    word = w.reshape(len(w), span, cfg.input_dim)[..., : cfg.emb_dim]
    windows = _windows(cache.src_rows, n, span, step)
    word_term = windows[cache.src_of] @ word.reshape(len(w), -1).T
    assert rel_err(np.vdot(cache.src_rows, dsrc_rows - start),
                   np.vdot(word_term, g)) <= 1e-12
