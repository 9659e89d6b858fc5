#!/usr/bin/env python3
"""Time one gossip of a (K, 2, m, d) stack in each form the engine can use.

    PYTHONPATH=src python3 tools/gossip_crossover.py [--runs K] [--dim d]

For every built topology kind and m in {16, 64, 128, 256, 1024}, prints the
microseconds per gossip of the dense product, of the worker mean (fully
connected only) and of the shifted slices (the other circulant kinds).
engine.DENSE_GOSSIP_BELOW is the smallest m of this list from which the
structured form beats the dense product for every kind; the table in the
comment above it is this script's output. Each time is the median of 7
repeats of as many calls as fill about 20 ms. BLAS runs on one thread unless
the environment sets its thread count.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from dsgd_lab.engine import _dense_gossip, _mean_gossip, _shifted_gossip  # noqa: E402
from dsgd_lab.topology import TopologyKind, build_gossip_matrix, validate_worker_count  # noqa: E402
from dsgd_lab.errors import InputError  # noqa: E402

SIZES = [16, 64, 128, 256, 1024]
KINDS = [
    TopologyKind.FULLY_CONNECTED,
    TopologyKind.STATIC_EXPONENTIAL,
    TopologyKind.GRID_2D_TORUS,
    TopologyKind.RING,
]


def per_call_us(gossip, P, W, out) -> float:
    """Median over 7 repeats of the microseconds per call, each repeat about 20 ms long."""
    start, calls = time.perf_counter(), 0
    while calls < 1 or time.perf_counter() - start < 0.02:
        gossip(P, W, out)
        calls += 1
    repeats = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(calls):
            gossip(P, W, out)
        repeats.append((time.perf_counter() - start) / calls)
    return statistics.median(repeats) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=8, help="K, runs per arm (default 8)")
    parser.add_argument("--dim", type=int, default=20, help="d, model dimension (default 20)")
    args = parser.parse_args()
    print(f"one gossip of a ({args.runs}, 2, m, {args.dim}) stack, microseconds; "
          f"numpy {np.__version__}, {os.cpu_count()} cores")
    print(f"{'kind':<16}{'m':>6}{'dense':>12}{'mean':>12}{'shifts':>12}")
    rng = np.random.default_rng(0)
    for kind in KINDS:
        for m in SIZES:
            try:
                validate_worker_count(kind, m)
            except InputError:
                continue
            P = build_gossip_matrix(kind, m)
            W = rng.standard_normal((args.runs, 2, m, args.dim))
            out = np.empty_like(W)
            structured = _mean_gossip if kind is TopologyKind.FULLY_CONNECTED else _shifted_gossip
            times = {"dense": per_call_us(_dense_gossip, P, W, out)}
            times["mean" if structured is _mean_gossip else "shifts"] = per_call_us(
                structured, P, W, out
            )
            cells = "".join(
                f"{times[form]:>12.1f}" if form in times else f"{'-':>12}"
                for form in ("dense", "mean", "shifts")
            )
            print(f"{kind.value:<16}{m:>6}{cells}")


if __name__ == "__main__":
    main()
