"""cjlm benchmark: one workload, one seed, one process.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's inputs from the seed (untimed), repeats the
set-up calls and reports their median as ``setup_s``, runs the work phase
for ``S`` seconds with tracing off, reports the median rates of its jobs,
and checks the outputs. With
``--trace 1`` it then sets up and works once more with every public ``cjlm``
function wrapped in a span, writes the spans under ``.bench_work/``, and
reports the per-layer metrics instead of the end-to-end ones. A tiny
self-test against the ``cjlm`` commands runs in every run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import envinfo

BLAS_THREADS = envinfo.pin_blas_threads()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _rates(jobs) -> dict[str, float]:
    """Median rates over the run's jobs."""
    return {"words_per_s": statistics.median(j.words / j.seconds for j in jobs),
            "hyps_per_s": statistics.median(j.sentences / j.seconds for j in jobs)}


def _is_prefix(a, b) -> bool:
    """Whether the shorter of two output files starts the longer one."""
    a, b = sorted((a.read_bytes(), b.read_bytes()), key=len)
    return b.startswith(a)


def _traced_pass(workload, inputs, seed, seconds, run_dir):
    """Set up and work once more with spans on; return jobs and metrics."""
    import tracing

    tracer, keys = tracing.Tracer(), tracing.EncoderKeys()
    output = run_dir / "traced.out"
    with tracing.instrument(tracer, keys):
        with tracer.span("bench.setup"):
            state = workload.setup(inputs, seed)
        with tracer.span("bench.work"):
            jobs, _ = workload.work(inputs, state, time.perf_counter() + seconds, output)
    stats = tracing.SpanStats(tracer.spans)
    metrics = tracing.layer_metrics(stats, keys)
    # The phases' own self time is the time that no span inside them covers.
    metrics["trace.uncovered_s"] = (stats.self_time("bench.setup")
                                    + stats.self_time("bench.work"))
    return tracer, stats, jobs, metrics, output


def _report(spec_metrics, values) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    envinfo.use_checkout_sources()
    import numpy as np

    import gen
    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    spec = json.loads((envinfo.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](gen.PAPER)
    env = envinfo.record(BLAS_THREADS)
    print("environment", json.dumps(env, sort_keys=True))
    print("traffic", args.workload, json.dumps(workload.traffic(), sort_keys=True))

    work_dir = envinfo.ROOT / envinfo.WORK_DIR
    run_dir = work_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        inputs = workload.make_inputs(args.seed, run_dir)
        setup_times = []
        for _ in range(workload.setup_reps):
            # Each set-up starts from the same heap, as a fresh command would.
            state = None
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(inputs, args.seed)
            setup_times.append(time.perf_counter() - start)
        output = run_dir / "work.out"
        jobs, result = workload.work(inputs, state, time.perf_counter() + args.seconds,
                                     output)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb,
                  **_rates(jobs)}
        attempted = sum(j.ops for j in jobs)
        print(f"setup_s runs {[round(t, 4) for t in setup_times]}")
        print(f"jobs {len(jobs)}: " + ", ".join(
            f"{j.seconds:.3f}s/{j.words}w/{j.ops}op" for j in jobs))

        if args.trace:
            tracer, stats, traced_jobs, layer, traced_output = _traced_pass(
                workload, inputs, args.seed, args.seconds, run_dir)
            layer["trace.overhead_frac"] = (
                _rates(jobs)["words_per_s"] / _rates(traced_jobs)["words_per_s"] - 1.0)
            layer["machine.dgemm_gflops"] = env["machine.dgemm_gflops"]
            values.update(layer)
            traced_ops = sum(j.ops for j in traced_jobs)
            trace_path = work_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "environment": env})
            print(f"spans {len(tracer.spans)} written to {trace_path}")
            print(f"{'span':36} {'calls':>7} {'total_s':>10} {'self_s':>10}")
            for name, calls, total, self_s in stats.table():
                print(f"{name:36} {calls:7d} {total:10.4f} {self_s:10.4f}")
            print("flops behind *_gflops and bytes behind jointlm.cast_mb are "
                  "computed from tensor shapes, not measured")
            for name in sorted(layer):
                print(f"layer {name} = {layer[name]!r}")

        rng = np.random.default_rng([args.seed, 2])
        checks = workload.check(inputs, state, jobs, result, output, rng)
        failed = len(checks.failed_ops)
        if args.trace:
            attempted += traced_ops
            if not _is_prefix(output, traced_output):
                checks.fail([], "traced output disagrees with the untraced output")
                failed += traced_ops
        selftest_failures = selftest.run(run_dir / "selftest", seed=args.seed)
        if selftest_failures:
            checks.notes.extend(selftest_failures)
            failed = attempted
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for note in checks.notes:
        print("check failed:", note)
    print(f"failed_ratio={failed / attempted!r} ({failed}/{attempted} operations)")
    for name in ("setup_s", "words_per_s", "hyps_per_s", "peak_rss_mb"):
        print(f"{name} = {values[name]!r}")
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not checks.notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": _report(spec[kind], values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
