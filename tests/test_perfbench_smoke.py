"""The benchmark's contract with the package, at tiny size.

``perfbench/`` mirrors the command bodies and wraps public ``cjlm``
functions by name for tracing. A change under ``src/`` that drifts from a
command, or drops or bypasses a traced name, fails here instead of only when
the benchmark runs. ``run.py`` is not imported: importing it sets the BLAS
thread variables of this process.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Spans each workload must record, so the benchmark's per-layer figures
# still see the calls they are computed from.
EXPECTED_SPANS = {
    "train_tag_gating": {"corpus.read_parallel_corpus", "corpus.read_token_lines",
                         "corpus.extract_corpus_samples", "vocab.map_tokens",
                         "training.train_model", "training.sgd_step",
                         "jointlm.from_samples", "serialization.save_model"},
    "rescore_generic_100best": {"serialization.load_model", "corpus.read_token_lines",
                                "nbest.score_nbest", "nbest.parse_nbest_line",
                                "corpus.extract_samples", "jointlm.from_samples",
                                "encoder.forward_batch",
                                "nbest.format_annotated_line"},
    "eval_attention_pooling": {"corpus.read_parallel_corpus",
                               "corpus.extract_corpus_samples", "jointlm.perplexity",
                               "encoder.forward_batch"},
}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name)
            for name in ("gen", "selftest", "tracing", "workloads")}


def test_selftest_agrees_with_commands(bench, tmp_path):
    assert bench["selftest"].run(tmp_path) == []


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_workload_traced_job_matches_untraced(bench, name, tmp_path):
    gen, tracing, workloads = bench["gen"], bench["tracing"], bench["workloads"]
    workload = workloads.WORKLOADS[name](gen.TINY)
    inputs = workload.make_inputs(0, tmp_path)
    one_job = -math.inf

    state = workload.setup(inputs, 0)
    plain = tmp_path / "plain.out"
    jobs, result = workload.work(inputs, state, one_job, plain)

    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.EncoderKeys()):
        traced = tmp_path / "traced.out"
        workload.work(inputs, workload.setup(inputs, 0), one_job, traced)

    assert traced.read_bytes() == plain.read_bytes()
    assert EXPECTED_SPANS[name] <= {span[0] for span in tracer.spans}
    checks = workload.check(inputs, state, jobs, result, plain,
                            np.random.default_rng([0, 2]))
    assert checks.notes == [] and not checks.failed_ops
