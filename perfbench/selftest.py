"""Hold the benchmark's workloads to the ``cjlm`` commands they mirror.

At tiny dimensions, each workload's set-up and work must give what the
command gives on the same files: the same model bytes as ``cjlm train``,
the same scored n-best bytes as ``cjlm score-nbest`` and the same line as
``cjlm eval-ppl``. A later change that moves code under ``src/`` and lets a
workload drift from its command fails here.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import sys
from pathlib import Path

import envinfo


def run(directory: Path, seed: int = 0) -> list[str]:
    """Return one line per disagreement; empty when all three agree."""
    import gen
    import workloads
    from cjlm.cli import cli

    def command(*argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli([str(a) for a in argv])
        return code, out.getvalue()

    failures = []
    directory.mkdir(parents=True, exist_ok=True)
    one_job = -math.inf
    s = gen.TINY

    train = workloads.Train(s)
    corpus = train.make_inputs(seed, directory)
    train.work(corpus, train.setup(corpus, seed), one_job, directory / "bench.cjlm")
    code, _ = command(
        "train", "--source", corpus.source, "--target", corpus.target,
        "--alignment", corpus.alignment, "--output", directory / "cli.cjlm",
        "--arch", train.arch, "--fusion", train.fusion, "--emb-dim", s.emb,
        "--tgt-emb-dim", s.emb, "--attn-dim", s.emb, "--filters", s.filters,
        "--repr-dim", s.repr_dim, "--maxlen", s.maxlen, "--ngram", s.history + 1,
        "--hidden", *s.hidden, "--vocab-limit", s.vocab_types,
        "--minibatch", s.minibatch, "--epochs", 1,
        "--learning-rate", workloads.LEARNING_RATE, "--init-scale", gen.INIT_SCALE,
        "--seed", seed,
    )
    if code != 0 or (directory / "bench.cjlm").read_bytes() != (
            directory / "cli.cjlm").read_bytes():
        failures.append(f"train: model bytes differ from `cjlm train` (exit {code})")

    rescore = workloads.Rescore(s)
    inputs = rescore.make_inputs(seed, directory)
    nbest, model = inputs
    rescore.work(inputs, rescore.setup(inputs, seed), one_job, directory / "bench.nbest")
    code, _ = command("score-nbest", "--model", model, "--source", nbest.source,
                      "--nbest", nbest.nbest, "--output", directory / "cli.nbest")
    if code != 0 or (directory / "bench.nbest").read_bytes() != (
            directory / "cli.nbest").read_bytes():
        failures.append(f"rescore: output differs from `cjlm score-nbest` (exit {code})")

    evaluate = workloads.Eval(s)
    inputs = evaluate.make_inputs(seed, directory)
    corpus, model = inputs
    _, lines = evaluate.work(inputs, evaluate.setup(inputs, seed), one_job,
                             directory / "bench.ppl")
    code, out = command("eval-ppl", "--model", model, "--source", corpus.source,
                        "--target", corpus.target, "--alignment", corpus.alignment)
    if code != 0 or out != lines[0] + "\n":
        failures.append(f"eval: {lines[0]!r} differs from `cjlm eval-ppl` {out!r}")
    return failures


def main() -> int:
    envinfo.pin_blas_threads()
    envinfo.use_checkout_sources()
    directory = envinfo.ROOT / envinfo.WORK_DIR / "selftest"
    try:
        failures = run(directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
