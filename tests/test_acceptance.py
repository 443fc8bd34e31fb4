"""End-to-end acceptance gate.

Ten numbered criteria covering gradient exactness, normalization, layer
geometry, guide-signal efficacy on synthetic tasks, learning sanity, the
affiliation rule, fusion-mode parity, serialization fidelity, and bitwise
training determinism. Each test records a one-line verdict that the terminal
summary prints after the run.
"""

import time

import numpy as np
import pytest

from cjlm.cli import cli
from cjlm.corpus import TrainingSample
from cjlm.encoder import ARCHS, EncoderConfig, softmax
from cjlm.encoder import forward_batch as encoder_forward_batch
from cjlm.errors import ModelFormatError
from cjlm.jointlm import (
    JointModelParams,
    SampleBatch,
    forward_batch,
    log_probs_batch,
    perplexity,
)
from cjlm.serialization import ModelArtifact, load_model, save_model
from cjlm.training import TrainConfig, gradient_check, train_model
from cjlm.vocab import PAD_ID, build_vocabulary

from conftest import record_criterion
from oracles import affiliation_or_none, brute_force_affiliation
from toytasks import (
    ALPHABET,
    accuracy,
    chain_dataset,
    chain_pairs,
    marker_samples,
    pointer_samples,
)


def check_cfg(arch, fusion, maxlen=10, pool_k=2):
    return EncoderConfig(arch=arch, emb_dim=8, tgt_emb_dim=8, attn_dim=8,
                         filters1=6, filters3=6, repr_dim=8, maxlen=maxlen,
                         history=3, fusion=fusion, pool_k=pool_k)


def toy_cfg(arch, maxlen=12, filters=64, attn=32, repr_dim=64,
            fusion="gating", pool_k=2):
    return EncoderConfig(arch=arch, emb_dim=32, tgt_emb_dim=32, attn_dim=attn,
                         filters1=filters, filters3=filters,
                         repr_dim=repr_dim, maxlen=maxlen, history=3,
                         fusion=fusion, pool_k=pool_k)


def test_criterion_1_gradient_exactness():
    """Analytic gradients match central differences for every arch, fusion,
    and parameter group on the small reference configuration."""
    t0 = time.perf_counter()
    worst_name, worst = None, 0.0
    for arch in ARCHS:
        for fusion in ("gating", "pooling"):
            report = gradient_check(check_cfg(arch, fusion), seed=0)
            for group, err in report.items():
                if err > worst:
                    worst_name, worst = f"{arch}/{fusion} {group}", err
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    record_criterion(
        1, "gradient exactness",
        ok, f"worst {worst_name} = {worst:.3e} (< 1e-4) in {elapsed:.1f}s",
    )
    assert worst < 1e-4, (worst_name, worst)
    assert elapsed < 60.0


def test_criterion_2_normalization_suite():
    """1000 predictor distributions sum to one within 1e-6 and 1000 global
    gate weight vectors sum to one within 1e-9 with all weights in (0, 1)."""
    cfg = check_cfg("attention", "gating")
    params = JointModelParams.initialize(
        cfg, 20, 20, (12,), np.random.default_rng(0), init_scale=0.5)
    rng = np.random.default_rng(1)
    samples = []
    for _ in range(1000):
        ids = tuple(int(x) for x in rng.integers(4, 20, size=cfg.maxlen))
        hist = tuple(int(x) for x in rng.integers(2, 20, size=3))
        samples.append(TrainingSample(ids, frozenset(), frozenset(), hist,
                                      int(rng.integers(2, 20))))
    batch = SampleBatch.from_samples(samples, cfg)
    probs, _, _ = forward_batch(batch, cfg, params)
    prob_err = float(np.abs(probs.sum(axis=1) - 1.0).max())

    gate_err, gate_in_range = 0.0, True
    for _ in range(1000):
        layer3 = rng.normal(scale=2.0, size=(17, 6))
        gate_w = rng.normal(size=6)
        omega = softmax(layer3 @ gate_w, axis=0)
        gate_err = max(gate_err, abs(float(omega.sum()) - 1.0))
        gate_in_range &= bool(np.all((omega > 0.0) & (omega < 1.0)))

    ok = prob_err < 1e-6 and gate_err < 1e-9 and gate_in_range
    record_criterion(
        2, "normalization suite",
        ok, f"max |sum p - 1| = {prob_err:.2e} (< 1e-6), "
            f"max |sum w - 1| = {gate_err:.2e} (< 1e-9), weights in (0,1)",
    )
    assert prob_err < 1e-6
    assert gate_err < 1e-9
    assert gate_in_range


def test_criterion_3_shape_law():
    """With 40-position sources and width-3 windows the three feature-map
    layers have 38/19/17 locations and the representation is 100-dim."""
    cfg = EncoderConfig()  # reference defaults
    params = JointModelParams.initialize(
        cfg, 30, 30, rng=np.random.default_rng(0)).astype(np.float64)
    ids = np.array([(PAD_ID,) * 20 + tuple(range(4, 24))])
    no_tags = np.zeros_like(ids, dtype=bool)
    phi, cache = encoder_forward_batch(ids, no_tags, no_tags, None, cfg, params)
    locs = (cache.z1.shape[1], cache.z2.shape[1], cache.z3.shape[1])
    ok = locs == (38, 19, 17) and phi.shape == (1, 100)
    record_criterion(
        3, "shape law",
        ok, f"layer locations {locs[0]}/{locs[1]}/{locs[2]} "
            f"(expected 38/19/17), repr dim {phi.shape[1]} (expected 100)",
    )
    assert locs == (38, 19, 17)
    assert phi.shape == (1, 100)


TOY_TRAIN = TrainConfig(learning_rate=0.8, minibatch=50, epochs=50, seed=5,
                        init_scale=0.6)


@pytest.mark.slow
def test_criterion_4_tag_guide_efficacy():
    """On the pointer task the affiliation tag is the only route to the
    answer position: the tag arch must solve it and the generic arch must
    stay near chance."""
    t0 = time.perf_counter()
    train = pointer_samples(5000, 12, seed=41)
    held = pointer_samples(1000, 12, seed=42)
    scores = {}
    for arch in ("tag", "generic"):
        cfg = toy_cfg(arch)
        params, _ = train_model(train, cfg, TOY_TRAIN, ALPHABET, ALPHABET,
                                hidden_dims=(128,))
        scores[arch] = accuracy(held, cfg, params)
    elapsed = time.perf_counter() - t0
    ok = scores["tag"] >= 0.95 and scores["generic"] <= 0.40 and elapsed < 600
    record_criterion(
        4, "tag guide efficacy",
        ok, f"tag {scores['tag']:.3f} (>= 0.95), "
            f"generic {scores['generic']:.3f} (<= 0.40), {elapsed:.0f}s (< 600)",
    )
    assert scores["tag"] >= 0.95, scores
    assert scores["generic"] <= 0.40, scores
    assert elapsed < 600


@pytest.mark.slow
def test_criterion_5_attention_guide_efficacy():
    """On the marker task the wanted position is a function of the target
    history; only the history-injection arch can reach it."""
    t0 = time.perf_counter()
    train = marker_samples(1667, 12, seed=21)[:5000]
    held = marker_samples(334, 12, seed=22)[:1000]
    tc = TrainConfig(learning_rate=0.6, minibatch=50, epochs=50, seed=13,
                     init_scale=0.6)
    scores = {}
    for arch in ("attention", "generic"):
        cfg = toy_cfg(arch, filters=96, attn=48, repr_dim=96)
        params, _ = train_model(train, cfg, tc, ALPHABET, ALPHABET,
                                hidden_dims=(128,))
        scores[arch] = accuracy(held, cfg, params)
    elapsed = time.perf_counter() - t0
    ok = scores["attention"] >= 0.90 and scores["generic"] <= 0.40 \
        and elapsed < 600
    record_criterion(
        5, "attention guide efficacy",
        ok, f"attention {scores['attention']:.3f} (>= 0.90), "
            f"generic {scores['generic']:.3f} (<= 0.40), {elapsed:.0f}s (< 600)",
    )
    assert scores["attention"] >= 0.90, scores
    assert scores["generic"] <= 0.40, scores
    assert elapsed < 600


@pytest.mark.slow
def test_criterion_6_learning_sanity():
    """Every arch trained on the 500-pair chain corpus beats one fifth of
    the uniform-baseline perplexity on held-out pairs."""
    train, held, src_vocab, tgt_vocab = chain_dataset()
    assert len(src_vocab) == 44 and len(tgt_vocab) == 44
    bound = 0.2 * len(tgt_vocab)
    tc = TrainConfig(learning_rate=0.5, minibatch=50, epochs=30, seed=7,
                     init_scale=0.6)
    ppls = {}
    for arch in ARCHS:
        cfg = EncoderConfig(arch=arch, emb_dim=24, tgt_emb_dim=24, attn_dim=24,
                            filters1=48, filters3=48, repr_dim=48, maxlen=10,
                            history=3, fusion="gating")
        params, _ = train_model(train, cfg, tc, len(src_vocab),
                                len(tgt_vocab), hidden_dims=(64,))
        ppls[arch] = perplexity(held, cfg, params)
    ok = all(p < bound for p in ppls.values())
    detail = ", ".join(f"{a} {p:.2f}" for a, p in ppls.items())
    record_criterion(
        6, "learning sanity", ok,
        f"held-out ppl {detail} (each < {bound:.1f})",
    )
    for arch, p in ppls.items():
        assert p < bound, (arch, p)


def test_criterion_7_affiliation_oracle_equivalence():
    """The affiliation rule matches a brute-force nearest-aligned-neighbor
    search: exhaustively over alignedness patterns for short sentences (which
    source positions attach where does not affect the search, so patterns
    cover all cases up to that symmetry), then on 10,000 random pairs."""
    checked, mismatches = 0, 0

    def compare(links, nt):
        nonlocal checked, mismatches
        for t in range(nt):
            got = affiliation_or_none(t, links, nt)
            want = brute_force_affiliation(t, links, nt)
            checked += 1
            if got != want:
                mismatches += 1

    for nt in range(1, 7):
        for mask in range(2 ** nt):
            aligned = [j for j in range(nt) if mask >> j & 1]
            single = frozenset(((3 * j + 1) % 6, j) for j in aligned)
            double = frozenset(
                link for j in aligned
                for link in ((j % 6, j), ((5 * j + 2) % 6, j))
            )
            compare(single, nt)
            compare(double, nt)

    rng = np.random.default_rng(123)
    for _ in range(10000):
        nt = int(rng.integers(1, 13))
        ns = int(rng.integers(1, 13))
        density = rng.uniform(0.0, 0.3)
        mask = rng.random((ns, nt)) < density
        links = frozenset((int(s), int(t)) for s, t in np.argwhere(mask))
        compare(links, nt)

    ok = mismatches == 0
    record_criterion(
        7, "affiliation oracle equivalence", ok,
        f"{checked} comparisons, {mismatches} mismatches",
    )
    assert mismatches == 0


@pytest.mark.slow
def test_criterion_8_fusion_mode_parity():
    """Pooling fusion reaches at least 90 percent of gating accuracy on the
    long pointer task for top-k sizes 2, 4, and 8, and passes the same
    gradient check."""
    grad_worst = 0.0
    for maxlen, pool_k in ((10, 2), (22, 4), (22, 8)):
        report = gradient_check(
            check_cfg("tag", "pooling", maxlen=maxlen, pool_k=pool_k), seed=0)
        grad_worst = max(grad_worst, max(report.values()))

    t0 = time.perf_counter()
    train = pointer_samples(5000, 22, seed=41)
    held = pointer_samples(1000, 22, seed=42)
    tc = TrainConfig(learning_rate=0.8, minibatch=50, epochs=75, seed=5,
                     init_scale=0.6)

    def run(fusion, pool_k):
        cfg = toy_cfg("tag", maxlen=22, fusion=fusion, pool_k=pool_k)
        params, _ = train_model(train, cfg, tc, ALPHABET, ALPHABET,
                                hidden_dims=(128,))
        return accuracy(held, cfg, params)

    gating = run("gating", 2)
    pooled = {k: run("pooling", k) for k in (2, 4, 8)}
    elapsed = time.perf_counter() - t0
    parity = all(acc >= 0.9 * gating for acc in pooled.values())
    ok = parity and grad_worst < 1e-4
    detail = ", ".join(f"k={k} {acc:.3f}" for k, acc in pooled.items())
    record_criterion(
        8, "fusion mode parity", ok,
        f"gating {gating:.3f}, pooling {detail} (each >= {0.9 * gating:.3f}), "
        f"grad err {grad_worst:.1e} (< 1e-4), {elapsed:.0f}s",
    )
    assert grad_worst < 1e-4
    for k, acc in pooled.items():
        assert acc >= 0.9 * gating, (k, acc, gating)


def test_criterion_9_serialization_fidelity(tmp_path):
    """A save/load round trip reproduces 1000 sample log-probabilities with
    exact float equality, and corrupted files are rejected."""
    cfg = toy_cfg("attention", filters=24, repr_dim=24)
    src_vocab = build_vocabulary([[f"s{i}" for i in range(40)]], limit=50)
    tgt_vocab = build_vocabulary([[f"t{i}" for i in range(40)]], limit=50)
    params = JointModelParams.initialize(
        cfg, len(src_vocab), len(tgt_vocab), (32,),
        np.random.default_rng(17), init_scale=0.5)
    artifact = ModelArtifact(cfg, src_vocab, tgt_vocab, params)

    rng = np.random.default_rng(18)
    samples = []
    for _ in range(1000):
        ids = tuple(int(x) for x in rng.integers(4, 44, size=cfg.maxlen))
        hist = tuple(int(x) for x in rng.integers(4, 44, size=3))
        samples.append(TrainingSample(ids, frozenset(), frozenset(), hist,
                                      int(rng.integers(4, 44))))
    before = log_probs_batch(samples, cfg, params)

    path = tmp_path / "model.cjlm"
    save_model(artifact, path)
    after = log_probs_batch(samples, cfg, load_model(path).params)
    exact = bool(np.array_equal(before, after))

    blob = bytearray(path.read_bytes())
    blob[len(blob) // 3] ^= 0x01
    corrupt = tmp_path / "corrupt.cjlm"
    corrupt.write_bytes(bytes(blob))
    rejected = False
    try:
        load_model(corrupt)
    except ModelFormatError:
        rejected = True

    ok = exact and rejected
    record_criterion(
        9, "serialization fidelity", ok,
        f"1000/1000 log-probs bit-exact: {exact}, "
        f"corrupted file rejected: {rejected}",
    )
    assert exact
    assert rejected


def test_criterion_10_training_determinism(tmp_path):
    """Two full command-line training runs with identical flags and seed
    write byte-identical model files."""
    pairs = chain_pairs(40, seed=61)
    with open(tmp_path / "src", "w") as fs, open(tmp_path / "tgt", "w") as ft, \
            open(tmp_path / "aln", "w") as fa, \
            open(tmp_path / "heads", "w") as fh:
        for p in pairs:
            fs.write(" ".join(p.source_tokens) + "\n")
            ft.write(" ".join(p.target_tokens) + "\n")
            fa.write(" ".join(f"{i}-{j}" for i, j in sorted(p.alignment)) + "\n")
            fh.write(" ".join(str(h) for h in p.heads) + "\n")

    def run(out):
        args = [
            "train",
            "--source", str(tmp_path / "src"),
            "--target", str(tmp_path / "tgt"),
            "--alignment", str(tmp_path / "aln"),
            "--heads", str(tmp_path / "heads"),
            "--output", str(out),
            "--arch", "tag_dep", "--emb-dim", "8", "--tgt-emb-dim", "8",
            "--attn-dim", "8", "--filters", "8", "--repr-dim", "8",
            "--maxlen", "10", "--hidden", "12", "--minibatch", "40",
            "--epochs", "3", "--learning-rate", "0.4", "--init-scale", "0.5",
            "--seed", "11",
        ]
        assert cli(args) == 0

    run(tmp_path / "a.cjlm")
    run(tmp_path / "b.cjlm")
    a = (tmp_path / "a.cjlm").read_bytes()
    b = (tmp_path / "b.cjlm").read_bytes()
    ok = a == b
    record_criterion(
        10, "training determinism", ok,
        f"two runs, {len(a)} bytes each, byte-identical: {ok}",
    )
    assert ok
