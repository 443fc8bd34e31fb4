"""Joint predictor: normalization, oracle agreement, batching invariance."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cjlm.corpus import TrainingSample
from cjlm.encoder import ARCHS, FUSIONS, EncoderConfig
from cjlm import encoder, jointlm
from cjlm.errors import ConfigError
from cjlm.jointlm import (
    EMBEDDING_TABLES,
    JointModelParams,
    SampleBatch,
    compute_params,
    forward_batch,
    log_probs_batch,
    param_spec,
    perplexity,
)
from cjlm.training import backward
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
    probs, _, _ = forward_batch(batch, cfg, p)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_uniform_when_softmax_is_zero():
    cfg = small_cfg()
    p = make_joint(cfg)
    p.softmax_w[...] = 0.0
    p.softmax_b[...] = 0.0
    samples = random_samples(cfg, 1, 3)
    probs, _, _ = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    assert np.allclose(np.log(probs), -np.log(11), atol=1e-12)
    assert np.isclose(perplexity(samples, cfg, p), 11.0, atol=1e-9)


@pytest.mark.parametrize("arch", ARCHS)
def test_matches_loop_oracle(arch):
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg, seed=4)
    samples = random_samples(cfg, 3, 9)
    probs, _, _ = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    for row, sample in zip(probs, samples):
        ref = reference_log_probs(sample, cfg, p)
        assert np.allclose(np.log(row), ref, atol=1e-12)


# --- batching and convenience wrappers -------------------------------------

def test_log_probs_batch_chunking_invariance(monkeypatch):
    cfg = small_cfg(arch="attention")
    p = make_joint(cfg, seed=6)
    samples = random_samples(cfg, 17, 8)
    full = log_probs_batch(samples, cfg, p)
    # Not 1: numpy multiplies a one-row matrix on its matrix-vector path,
    # which rounds differently from the matrix-matrix one.
    for rows in (2, 5):
        monkeypatch.setattr(jointlm, "SCORE_ROWS", rows)
        assert np.array_equal(full, log_probs_batch(samples, cfg, p))


@pytest.mark.parametrize("score_rows", [1, 2, 3, 7, jointlm.SCORE_ROWS])
def test_row_blocks_are_even(monkeypatch, score_rows):
    monkeypatch.setattr(jointlm, "SCORE_ROWS", score_rows)
    for n in range(3 * score_rows + 2):
        blocks = jointlm._row_blocks(n)
        sizes = [hi - lo for lo, hi in blocks]
        assert len(blocks) == -(-n // score_rows)
        assert [i for lo, hi in blocks for i in range(lo, hi)] == list(range(n))
        assert all(0 < size <= score_rows for size in sizes), n
        assert not sizes or max(sizes) - min(sizes) <= 1, n
        # From 3 rows per block up, two or more rows never leave a one-row
        # block for numpy's matrix-vector path.
        if score_rows >= 3 and n >= 2:
            assert min(sizes) >= 2, n
    if score_rows == 512:
        assert [hi - lo for lo, hi in jointlm._row_blocks(513)] == [256, 257]


@pytest.mark.parametrize("arch", ARCHS)
def test_log_probs_batch_matches_loop_oracle_across_tiles(monkeypatch, arch):
    # Tiles of 7 words leave a ragged last tile of 6 in a 300-word vocabulary,
    # and blocks of at most 3 rows split the distinct rows into several. Four
    # sources under seven histories each give an encoder input whose rows
    # straddle two blocks and so run through the encoder in both, except
    # under attention, whose encoder input holds the history.
    monkeypatch.setattr(jointlm, "SOFTMAX_TILE", 7)
    monkeypatch.setattr(jointlm, "SCORE_ROWS", 3)
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg, tgt_v=300, seed=4)
    rng = np.random.default_rng(1)
    p.softmax_b[...] = rng.uniform(-3, 3, 300)
    samples = random_samples(cfg, 10, 9, tgt_v=300)
    for s in random_samples(cfg, 4, 10, tgt_v=300):
        for _ in range(7):
            hist = tuple(int(h) for h in rng.integers(2, 300, cfg.history))
            samples.append(replace(s, history=hist, target=int(rng.integers(2, 300))))
    expected = [reference_log_probs(s, cfg, p)[s.target] for s in samples]
    for storage, compute in ((np.float32, np.float64),
                             (np.longdouble, np.longdouble)):
        got = log_probs_batch(samples, cfg, p.astype(storage))
        assert got.dtype == compute
        assert np.allclose(got, expected, atol=1e-12)


def test_log_probs_batch_folds_tiles_past_exp_range(monkeypatch):
    # Each row's largest logit sits in the last tile, over 1 000 nats above
    # the first tile's: exp of the first tile against the last one's max
    # underflows to 0, and against the first tile's own max the last tile's
    # exp would overflow (a RuntimeWarning, an error in this suite).
    monkeypatch.setattr(jointlm, "SOFTMAX_TILE", 7)
    monkeypatch.setattr(jointlm, "SCORE_ROWS", 3)
    cfg = small_cfg()
    vocab, last_tile = 300, 294
    p = make_joint(cfg, tgt_v=vocab, seed=5).astype(np.float64)
    p.softmax_b[:last_tile] = -1000.0 + 3.0 * np.arange(last_tile)
    p.softmax_b[last_tile:] = 100.0
    samples = random_samples(cfg, 10, 4, tgt_v=vocab)
    samples += [replace(s, target=t) for s, t in zip(samples, (2, 150, 299))]
    _, _, pred = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    wide = np.longdouble
    logits = (pred.hidden_acts[-1].astype(wide) @ p.softmax_w.T.astype(wide)
              + p.softmax_b.astype(wide))
    assert np.all(logits.argmax(axis=1) >= last_tile)
    assert np.all(logits.max(axis=1) - logits.min(axis=1) > 1000)
    m = logits.max(axis=1, keepdims=True)
    log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    expected = [row[s.target] for row, s in zip(log_probs, samples)]
    assert np.allclose(log_probs_batch(samples, cfg, p), expected, rtol=0, atol=1e-12)


def test_log_probs_batch_rescales_only_rows_past_the_limit(monkeypatch):
    # One block of rows over 43 tiles of 7 words. Hidden unit 0 is on only
    # for rows whose first history word is HOT, and a middle tile's bias of
    # 695 and weight of 30 on that unit lift the tile more than log(float64
    # max) above the first tile in those rows: past the fold's limit, so they
    # rescale there. Every tile of the other rows stays more than
    # log(vocab) + 1 below that, so they never do.
    monkeypatch.setattr(jointlm, "SOFTMAX_TILE", 7)
    cfg = small_cfg()
    vocab, mid, hot = 300, slice(140, 147), 5
    p = make_joint(cfg, tgt_v=vocab, seed=6).astype(np.float64)
    w0, b0 = p.hidden_layers[0]
    w0[0] = 0.0
    w0[0, cfg.repr_dim] = 1.0
    b0[0] = -5.0
    p.softmax_b[mid] = 695.0
    p.softmax_w[mid, 0] = 30.0
    rng = np.random.default_rng(2)
    samples = []
    for i, s in enumerate(random_samples(cfg, 12, 8, tgt_v=vocab)):
        first = hot if i % 3 == 0 else int(rng.integers(6, vocab))
        for target in (2, 143, 299):
            samples.append(replace(s, history=(first,) + s.history[1:], target=target))
    cold_rows = [s.history[0] != hot for s in samples]
    drawn = p.tgt_embeddings[hot, 0]
    p.tgt_embeddings[hot, 0] = 10.0
    got = log_probs_batch(samples, cfg, p)
    _, _, pred = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    wide = np.longdouble
    logits = (pred.hidden_acts[-1].astype(wide) @ p.softmax_w.T.astype(wide)
              + p.softmax_b.astype(wide))
    rise = logits.max(axis=1) - logits[:, :7].max(axis=1)
    log_max = np.log(np.finfo(np.float64).max)
    assert np.all(rise[~np.array(cold_rows)] > log_max)
    assert np.all(rise[cold_rows] < log_max - np.log(vocab) - 1)
    m = logits.max(axis=1, keepdims=True)
    log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
    expected = [row[s.target] for row, s in zip(log_probs, samples)]
    assert np.allclose(got, expected, rtol=0, atol=1e-12)
    # With HOT's embedding as drawn, no row rescales, and the rows that never
    # did score the same to the bit.
    p.tgt_embeddings[hot, 0] = drawn
    calm = log_probs_batch(samples, cfg, p)
    assert np.array_equal(got[cold_rows], calm[cold_rows])


def predictor_inputs(cfg, p, n, seed):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-1, 1, (n, cfg.repr_dim)).astype(p.softmax_w.dtype)
    hist = rng.integers(2, p.target_vocab_size, (n, cfg.history))
    return phi, hist


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("n", [1, 2, 5, 33])
def test_predict_forward_matches_out_of_place_softmax(dtype, n):
    cfg = small_cfg()
    p = make_joint(cfg, tgt_v=300, seed=3).astype(dtype)
    phi, hist = predictor_inputs(cfg, p, n, seed=n)
    _, acts = jointlm._hidden_stack(phi, hist, p)
    logits = acts[-1] @ p.softmax_w.T + p.softmax_b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs, _ = jointlm.predict_forward_batch(phi, hist, p)
    assert probs.dtype == dtype
    assert np.array_equal(probs, e / e.sum(axis=1, keepdims=True))


def test_predict_forward_holds_one_batch_by_vocabulary_buffer():
    cfg = small_cfg()
    rows, vocab = 64, 5000
    p = make_joint(cfg, tgt_v=vocab).astype(np.float64)
    phi, hist = predictor_inputs(cfg, p, rows, seed=1)
    jointlm.predict_forward_batch(phi, hist, p)  # warm up lazy allocations
    buffer = rows * vocab * 8
    tracemalloc.start()
    try:
        jointlm.predict_forward_batch(phi, hist, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffer + 64 * 1024


def test_log_probs_batch_holds_one_block_by_tile_scratch():
    # About 64 distinct rows make one predictor block; its scratch is one
    # block-by-tile buffer and one tile of [w, b, 1] weight rows whatever the
    # vocabulary size.
    cfg = small_cfg()
    rows = 64
    hidden = (6,)
    acts = rows * (cfg.repr_dim + cfg.history * cfg.tgt_emb_dim + sum(hidden)) * 8
    tile_weights = jointlm.SOFTMAX_TILE * (hidden[-1] + 2) * 8
    bound = rows * jointlm.SOFTMAX_TILE * 8 + acts + tile_weights + 128 * 1024
    peaks = []
    for vocab in (5000, 20000):
        p = make_joint(cfg, tgt_v=vocab, hidden=hidden).astype(np.float64)
        samples = random_samples(cfg, rows, 2, tgt_v=vocab)
        log_probs_batch(samples, cfg, p)  # warm up lazy allocations
        tracemalloc.start()
        try:
            log_probs_batch(samples, cfg, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, vocab
        peaks.append(peak)
    assert peaks[1] <= peaks[0] + 1024


def test_log_probs_batch_copies_no_weight_rows():
    # Compute-dtype parameters are read where the cast laid them out: the
    # peak holds the block-by-tile scratch and the activations, and not one
    # tile of [w, b, 1] rows, which at this hidden width is 512 KiB.
    cfg = small_cfg()
    rows, vocab, hidden = 64, 20000, (30,)
    acts = rows * (cfg.repr_dim + cfg.history * cfg.tgt_emb_dim + sum(hidden)) * 8
    bound = rows * jointlm.SOFTMAX_TILE * 8 + acts + 128 * 1024
    assert jointlm.SOFTMAX_TILE * (hidden[-1] + 2) * 8 > 128 * 1024
    p = make_joint(cfg, tgt_v=vocab, hidden=hidden).astype(np.float64)
    samples = random_samples(cfg, rows, 2, tgt_v=vocab)
    assert compute_params(p) is p
    assert traced_peak(log_probs_batch, samples, cfg, p) <= bound


def traced_peak(fn, *args):
    fn(*args)  # warm up lazy allocations
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_probs_batch_holds_one_encoder_block(monkeypatch):
    # 96 distinct encoder inputs make six blocks of 16 rows, and at maxlen 40
    # with 32 filters the encoder's cache outweighs everything else a block
    # holds: only one block's cache may be alive at a time.
    monkeypatch.setattr(jointlm, "SCORE_ROWS", 16)
    cfg = small_cfg(arch="attention", maxlen=40, filters1=32, filters3=32)
    p = make_joint(cfg).astype(np.float64)
    samples = random_samples(cfg, 96, 3)
    batch = SampleBatch.from_samples(samples[:16], cfg)
    one_block = traced_peak(encoder.forward_batch, batch.ids, batch.aff_mask,
                            batch.head_mask, batch.hist, cfg, p)
    assert traced_peak(log_probs_batch, samples, cfg, p) <= 1.4 * one_block


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
    _, _, pred = forward_batch(SampleBatch.from_samples(samples, cfg), cfg, p)
    pc = compute_params(p)
    logits = pred.hidden_acts[-1] @ pc.softmax_w.T + pc.softmax_b
    m = logits.max(axis=1, keepdims=True)
    log_probs = logits - (m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True)))
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


def test_batch_rejects_guide_positions_outside_maxlen():
    cfg = small_cfg(arch="tag_dep")
    good = random_samples(cfg, 1, 1)[0]
    negative = replace(good, affiliated=good.affiliated | {-1})
    with pytest.raises(ConfigError, match=r"^sample 0 has guide positions \[-1\] "
                                          r"outside \[0, 10\)$"):
        SampleBatch.from_samples([negative], cfg)
    at_maxlen = replace(good, head_positions=frozenset({cfg.maxlen}))
    with pytest.raises(ConfigError, match=r"^sample 1 has guide positions \[10\] "
                                          r"outside \[0, 10\)$"):
        SampleBatch.from_samples([good, at_maxlen], cfg)
    # Both sets' bad positions, once each, in order.
    both = replace(good, affiliated=frozenset({-1, 12, 3}),
                       head_positions=frozenset({12, -3}))
    with pytest.raises(ConfigError, match=r"guide positions \[-3, -1, 12\] "):
        SampleBatch.from_samples([both], cfg)


def test_batch_error_names_the_first_bad_sample_and_its_first_check():
    cfg = small_cfg(arch="tag_dep")
    good = random_samples(cfg, 1, 1)[0]
    short_src = replace(good, source_ids=good.source_ids[:-1])
    short_hist = replace(good, history=good.history[:-1])
    off_guide = replace(good, affiliated=frozenset({cfg.maxlen}))
    all_three = replace(short_src, history=short_hist.history,
                            affiliated=off_guide.affiliated)

    def message(samples):
        with pytest.raises(ConfigError) as e:
            SampleBatch.from_samples(samples, cfg)
        return str(e.value)

    # Across samples: the first bad sample, whichever check a later one fails.
    assert message([good, off_guide, short_src, short_hist]) == (
        "sample 1 has guide positions [10] outside [0, 10)")
    assert message([good, good, short_hist, short_src]) == (
        "sample 2 has history length 2, expected 3")
    # Within a sample: source length, then history length, then guides.
    assert message([good, all_three]) == "sample 1 has 9 source ids, expected 10"
    assert message([replace(short_hist, affiliated=off_guide.affiliated)]) == (
        "sample 0 has history length 2, expected 3")


def loop_batch(samples, cfg):
    """The packed arrays built sample by sample."""
    n = len(samples)
    ids = np.empty((n, cfg.maxlen), dtype=np.int64)
    aff = np.zeros((n, cfg.maxlen), dtype=bool)
    head = np.zeros((n, cfg.maxlen), dtype=bool)
    hist = np.empty((n, cfg.history), dtype=np.int64)
    targets = np.empty(n, dtype=np.int64)
    for i, s in enumerate(samples):
        ids[i] = s.source_ids
        aff[i, list(s.affiliated)] = True
        head[i, list(s.head_positions)] = True
        hist[i] = s.history
        targets[i] = s.target
    return dict(ids=ids, aff_mask=aff, head_mask=head, hist=hist, targets=targets)


@pytest.mark.parametrize("arch", ARCHS)
def test_batch_columns_match_a_per_sample_loop(arch):
    # Shared source tuples with their own guides, exact duplicates, empty
    # guide sets and heads.
    cfg = small_cfg(arch=arch)
    base = random_samples(cfg, 4, 3)
    rng = np.random.default_rng(5)
    samples = []
    for i in rng.integers(0, 4, size=13):
        s = base[i]
        n_aff = int(rng.integers(0, 3))
        samples.append(replace(
            s, affiliated=frozenset(int(x) for x in rng.integers(0, cfg.maxlen, n_aff)),
            head_positions=frozenset({int(rng.integers(cfg.maxlen))}),
            target=int(rng.integers(2, 11))))
    samples += [samples[0], samples[5], base[2]]
    batch = SampleBatch.from_samples(samples, cfg)
    assert len({s.source_ids for s in samples}) < len(samples)
    for name, ref in loop_batch(samples, cfg).items():
        got = getattr(batch, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name


@pytest.mark.parametrize("field, value, message", [
    ("target", -1, "sample 2 has target id -1 outside [0, 11)"),
    ("target", 5000, "sample 2 has target id 5000 outside [0, 11)"),
    ("history", (3, -1, 4), "sample 2 has history id -1 outside [0, 11)"),
    ("history", (3, 11, 4), "sample 2 has history id 11 outside [0, 11)"),
    ("source_ids", (-1,) * 10, "sample 2 has source id -1 outside [0, 12)"),
    ("source_ids", (PAD_ID,) * 9 + (12,), "sample 2 has source id 12 outside [0, 12)"),
])
@pytest.mark.parametrize("arch", ["tag", "attention"])
def test_ids_outside_the_vocabularies_are_rejected(arch, field, value, message):
    # Scoring and the training gradient share one check; without it, a
    # negative id reads the last embedding row and a large target reads
    # memory outside the scores.
    cfg = small_cfg(arch=arch)
    p = make_joint(cfg)
    samples = random_samples(cfg, 4, 8)
    samples[2] = replace(samples[2], **{field: value})
    with pytest.raises(ConfigError) as e:
        log_probs_batch(samples, cfg, p)
    assert str(e.value) == message
    with pytest.raises(ConfigError) as e:
        backward(SampleBatch.from_samples(samples, cfg), cfg, p)
    assert str(e.value) == message


def test_id_check_names_the_first_bad_sample_and_its_first_column():
    cfg = small_cfg()
    p = make_joint(cfg)
    samples = random_samples(cfg, 4, 9)
    samples[3] = replace(samples[3], source_ids=(99,) * 10)
    samples[1] = replace(samples[1], target=-5, history=(1, 2, 40))
    with pytest.raises(ConfigError, match=r"^sample 1 has history id 40 "):
        log_probs_batch(samples, cfg, p)
    samples[1] = replace(samples[1], source_ids=(PAD_ID,) * 9 + (-2,))
    with pytest.raises(ConfigError, match=r"^sample 1 has source id -2 "):
        log_probs_batch(samples, cfg, p)


def test_astype_round_trip():
    cfg = small_cfg(arch="attention")
    p = make_joint(cfg)
    p64 = p.astype(np.float64)
    assert p64.softmax_w.dtype == np.float64
    assert p64.conv1_w.dtype == np.float64
    back = p64.astype(np.float32)
    assert np.array_equal(back.softmax_w, p.softmax_w)


def test_compute_params_promotes_with_float64():
    # Float32 storage gets one float64 copy of every tensor but the embedding
    # tables, which stay its own float32 arrays; a full astype copies them
    # too. Float64 and longdouble parameters are used as they are, with no
    # copy.
    cfg = small_cfg(arch="attention")
    p = make_joint(cfg)
    p64 = compute_params(p)
    assert p64 is not p
    assert p.softmax_w.dtype == np.float32
    for (name, t64), t in zip(p64.tensors().items(), p.tensors().values()):
        if name in EMBEDDING_TABLES:
            assert t64 is t, name
        else:
            assert t64.dtype == np.float64, name
            assert np.array_equal(t64, t), name
    full = p.astype(np.float64)
    for (name, t64), t in zip(full.tensors().items(), p.tensors().values()):
        assert t64.dtype == np.float64 and not np.shares_memory(t64, t), name
        assert np.array_equal(t64, t), name
    assert compute_params(p64) is p64
    wide = p.astype(np.longdouble)
    assert compute_params(wide) is wide


def test_compute_params_lays_out_the_output_layer():
    # The cast writes softmax_w and softmax_b into one [w | b | 1] matrix
    # and keeps no other copy of them; tensors() leaves that matrix out.
    cfg = small_cfg()
    p = make_joint(cfg, tgt_v=30)
    pc = compute_params(p)
    layer = pc.output_layer
    vocab, hidden = p.softmax_w.shape
    assert layer.shape == (vocab, hidden + 2) and layer.dtype == np.float64
    assert pc.softmax_w.base is layer and pc.softmax_b.base is layer
    assert np.shares_memory(pc.softmax_w, layer)
    assert np.shares_memory(pc.softmax_b, layer)
    assert np.array_equal(layer[:, :hidden], p.softmax_w)
    assert np.array_equal(layer[:, hidden], p.softmax_b)
    assert np.all(layer[:, hidden + 1] == 1.0)
    assert "output_layer" not in pc.tensors()
    assert list(pc.tensors()) == [s.name for s in param_spec(
        cfg, p.src_embeddings.shape[0], vocab, p.hidden_dims)]
    assert compute_params(pc) is pc
    # Compute-dtype tensors laid out any other way get the cast.
    plain = JointModelParams.from_tensors(
        {name: t.astype(np.float64) for name, t in p.tensors().items()})
    assert plain.output_layer is None
    laid = compute_params(plain)
    assert laid is not plain and laid.softmax_w.base is laid.output_layer
    assert compute_params(replace(pc, softmax_w=pc.softmax_w.copy())) is not pc


def test_compute_params_copies_no_embedding_table():
    # The cast allocates the output layer and the other widened tensors, and
    # nothing the size of an embedding table: those stay the float32 storage.
    cfg = small_cfg(arch="attention")
    vocab = 20000
    p = make_joint(cfg, src_v=vocab, tgt_v=vocab)
    widened = 8 * sum(t.size for name, t in p.tensors().items()
                      if name not in {*EMBEDDING_TABLES, "softmax_w", "softmax_b"})
    layer = 8 * vocab * (p.hidden_dims[-1] + 2)
    slack = 64 * 1024
    assert 8 * min(p.src_embeddings.size, p.tgt_embeddings.size) > slack
    assert traced_peak(compute_params, p) <= layer + widened + slack


@pytest.mark.parametrize("where", ["output_layer", "tables"])
def test_writes_through_the_cast_views_reach_the_scores(where):
    # In-place edits of the cast's softmax_w and softmax_b are edits of the
    # matrix that scoring reads, and the cast's embedding tables are the
    # float32 storage, so an edit of either reaches the scores and no copy
    # can go stale.
    cfg = small_cfg()
    p = make_joint(cfg, tgt_v=30, seed=7)
    pc = compute_params(p)
    samples = random_samples(cfg, 8, 5, tgt_v=30)
    before = log_probs_batch(samples, cfg, pc)
    if where == "output_layer":
        pc.softmax_w[samples[0].target] += 0.75
        pc.softmax_w[3, 2] = -4.0
        pc.softmax_b[samples[1].target] = 2.5
        pc.softmax_b[10:20] -= 1.0
    else:
        p.src_embeddings[samples[0].source_ids[-1]] += 0.75
        p.tgt_embeddings[samples[1].history[-1]] = -1.5
        p.tgt_embeddings[10:20, 1] -= 1.0
    assert compute_params(pc) is pc
    got = log_probs_batch(samples, cfg, pc)
    expected = [reference_log_probs(s, cfg, pc)[s.target] for s in samples]
    assert not np.allclose(got, before)
    assert np.allclose(got, expected, atol=1e-12)
