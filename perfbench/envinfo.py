"""Machine record for a benchmark run: CPUs, BLAS, versions and a GEMM rate.

``pin_blas_threads`` must run before NumPy is first imported, because
OpenBLAS reads its thread count once, at load time.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ".bench_work"  # inputs, outputs and span files, under ROOT

# Cap on BLAS threads, so figures stay comparable with the 2-thread baseline
# on machines with more CPUs. Never more than the CPUs this process may use.
MAX_BLAS_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Set every BLAS thread variable to one count and return that count."""
    threads = min(MAX_BLAS_THREADS, nproc())
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def use_checkout_sources() -> None:
    """Import ``cjlm`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "cjlm" / "__init__.py").is_file():
        raise SystemExit(f"error: no cjlm package under {src}")
    sys.path.insert(0, str(src))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def dgemm_gflops(n: int = 384, reps: int = 15) -> float:
    """Median float64 matrix-product rate, 2*n**3 flops per product."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b  # first call loads the BLAS kernels and starts its threads
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2.0 * n**3 / statistics.median(times) / 1e9


def record(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "machine.dgemm_gflops": dgemm_gflops(),
    }
