"""Benchmark for pathmix: closed-loop CLI requests, an output gate and a
traced run that attributes request time to the library's modules.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and metrics.
"""

import os

THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Pin BLAS and OpenMP pools to one thread.  Takes effect only when
    called before numpy is first imported; child processes inherit it."""
    for name in THREAD_VARIABLES:
        os.environ[name] = str(THREADS)
