#!/usr/bin/env python3
"""Time consensus control on the control-sweep stack shape and count its work.

    PYTHONPATH=src python3 tools/control_rounds.py [--shape control-sweep|criterion-12]
                                                  [--seed N] [--repeats K]
    PYTHONPATH=src python3 tools/control_rounds.py --crossover

Runs one consensus-control sweep at jobs 1 on the shape of the benchmark's
control-sweep workload (ring, m = 16, linear d = 10, noise 1, n = 50,
T = 400, eta = 0.05, gamma_sq = 1e-4, the five default onsets, R = 5,
pairs = 2) or of acceptance criterion 12 (the same with feature variance 1/3,
R = 10, pairs = 4), with engine.consensus_control_step timed and
engine._distance_from_mean and engine._checked_control counted. Prints the
control calls, the loop rounds (the rounds the calls returned), the
run-rounds (the rounds the runs used), the _distance_from_mean calls of the
whole sweep (control's, and the trace recorder's one per snapshot), the
runs handed to the per-round loop, engine._checked_control (replays, and
the runs of groups not scheduled), the control time (the median of the
repeats) and the microseconds per loop round. The counts do not change from
repeat to repeat.

With --crossover it times one control call on a (2, 8, 2, m, 20) stack of
models 1 + 0.01 N(0, 1), target 1e-6, cap 200, for every connected kind and m in
{16, 64, 256}: once with every group on the schedule and once with every
group on the per-round loop (engine._schedule_pays forced either way), the
best of 7 calls each, next to the rounds the call took and the bound on
them that engine._schedule_pays compares with 4 + m / 4. BLAS runs on one
thread unless the environment sets its thread count.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import time
from unittest import mock

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

from dsgd_lab import engine  # noqa: E402
from dsgd_lab.analysis import consensus_control_sweep  # noqa: E402
from dsgd_lab.cli import ExperimentConfig  # noqa: E402
from dsgd_lab.topology import CONNECTED_KINDS, _worker_mean, build_gossip_matrix  # noqa: E402

SHAPES = {
    "control-sweep": {"R": 5, "pairs": 2},
    "criterion-12": {"R": 10, "pairs": 4, "feature_variance": 1 / 3},
}


class ControlCounter:
    """Wraps the engine's control entry point and the helpers it calls."""

    def __init__(self):
        self.calls = self.loop_rounds = self.run_rounds = 0
        self.distances = self.replayed = 0
        self.seconds = 0.0
        self.control = engine.consensus_control_step
        self.distance = engine._distance_from_mean
        self.checked = engine._checked_control

    def install(self) -> None:
        engine.consensus_control_step = self.timed_control
        engine._distance_from_mean = self.counted_distance
        engine._checked_control = self.counted_checked

    def remove(self) -> None:
        engine.consensus_control_step = self.control
        engine._distance_from_mean = self.distance
        engine._checked_control = self.checked

    def timed_control(self, W, P, gamma_sq, max_rounds, counts=None, **kwargs):
        before = None if counts is None else int(counts.sum())
        start = time.perf_counter()
        models, rounds = self.control(W, P, gamma_sq, max_rounds, counts, **kwargs)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.loop_rounds += rounds
        if counts is not None:
            self.run_rounds += int(counts.sum()) - before
        return models, rounds

    def counted_distance(self, W, mean, scratch):
        self.distances += 1
        return self.distance(W, mean, scratch)

    def counted_checked(self, start, live, *args):
        self.replayed += len(live)
        return self.checked(start, live, *args)


def crossover() -> None:
    """The --crossover table: one control call on each side of engine._schedule_pays."""
    print(f"one control call, milliseconds; numpy {np.__version__}, {os.cpu_count()} cores")
    print(f"{'kind':<16}{'m':>5}{'rounds':>8}{'bound':>8}{'4 + m/4':>9}{'checked':>10}"
          f"{'schedule':>10}")
    rng = np.random.default_rng(0)
    for kind in CONNECTED_KINDS:
        for m in (16, 64, 256):
            P = build_gossip_matrix(kind, m)
            W = 1.0 + 0.01 * rng.standard_normal((2, 8, 2, m, 20))
            out = np.empty_like(W)
            lam = engine._control_modes(P, 200)[4]
            distances = engine._distance_from_mean(W, _worker_mean(W), np.empty_like(W))
            ratio = 1e-6 / float(distances.max())
            if 0 < lam < 1:
                bound = math.log(ratio) / (2 * math.log(lam))
            else:
                bound = math.inf if lam else 0.0
            times = {}
            for schedule in (False, True):
                with mock.patch.object(engine, "_schedule_pays", return_value=schedule):
                    best = math.inf
                    for _ in range(7):
                        start = time.perf_counter()
                        _, rounds = engine.consensus_control_step(W, [P, P], 1e-6, 200, out=out)
                        best = min(best, time.perf_counter() - start)
                times[schedule] = best * 1e3
            print(f"{kind.value:<16}{m:>5}{rounds:>8}{bound:>8.1f}{4 + m / 4:>9.0f}"
                  f"{times[False]:>10.2f}{times[True]:>10.2f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="control-sweep")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--repeats", type=int, default=5, help="timed sweeps (default 5)")
    parser.add_argument("--crossover", action="store_true",
                        help="time one call on each side of the schedule's selection")
    args = parser.parse_args()
    if args.crossover:
        crossover()
        return
    config = ExperimentConfig(
        experiment="consensus-control", d_x=10, noise_std=1.0, T=400, gamma_sq=1e-4,
        seed=args.seed, **SHAPES[args.shape],
    )
    seconds, counter = [], None
    for _ in range(args.repeats):
        counter = ControlCounter()
        counter.install()
        try:
            consensus_control_sweep(
                config.gossip_matrix(), config.task(), config.loss_model(),
                config.train_config(), n=config.n, gamma_sq=config.gamma_sq,
                t_gamma_values=config.t_gamma_values(), replicates=config.R,
                pairs=config.pairs, max_rounds=config.max_rounds,
            )
        finally:
            counter.remove()
        seconds.append(counter.seconds)
    control_s = statistics.median(seconds)
    print(f"{args.shape} at seed {args.seed}, jobs 1; numpy {np.__version__}, "
          f"{os.cpu_count()} cores; median of {args.repeats}")
    print(f"{'calls':>7}{'loop rounds':>13}{'run-rounds':>12}{'distances':>11}"
          f"{'replayed':>10}{'control s':>11}{'us/round':>10}")
    print(f"{counter.calls:>7}{counter.loop_rounds:>13}{counter.run_rounds:>12}"
          f"{counter.distances:>11}{counter.replayed:>10}{control_s:>11.3f}"
          f"{control_s / max(1, counter.loop_rounds) * 1e6:>10.1f}")


if __name__ == "__main__":
    main()
