"""The benchmark's workloads: one `dsgd-lab` config each, made from a seed.

A workload fixes the experiment's shape; the workload seed becomes the
config's base seed, so the same seed gives the same datasets, perturbations
and sampling sequences, and hence the same artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Seed whose artifacts were recorded from the seed code under reference/.
REFERENCE_SEED = 0

KINDS = ["fully_connected", "exponential", "grid", "ring"]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    csv: str
    # Parallel replicate workers; None means one per available core.
    jobs: int | None

    def config_for(self, seed: int) -> dict:
        return {**self.config, "seed": seed}

    def resolved_jobs(self) -> int:
        return self.jobs if self.jobs is not None else nproc()

    def updates(self) -> int:
        """Worker-model updates one run makes: trajectories x T x m."""
        c = self.config
        if c["experiment"] == "gengap":
            trajectories = c["R"]
        else:
            groups = len(KINDS) if c["experiment"] == "compare" else len(self.onsets())
            trajectories = groups * c["R"] * c["pairs"] * 2
        return trajectories * c["T"] * c["m"]

    def onsets(self) -> list[int]:
        T = self.config["T"]
        return sorted({0, T // 4, T // 2, (3 * T) // 4, T})

    def snapshots(self) -> list[int]:
        T = self.config["T"]
        cadence = max(1, T // 200)
        logged = list(range(0, T + 1, cadence))
        return logged if logged[-1] == T else logged + [T]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


_COMPARE = {
    "experiment": "compare",
    "kinds": KINDS,
    "family": "linear_regression",
    "d_x": 20,
    "feature_variance": 1.0 / 3.0,
    "noise_std": 1.0,
    "eta": 0.05,
    "mode": "synchronized",
}

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="compare-m16",
            config={**_COMPARE, "m": 16, "n": 50, "T": 2000, "R": 4, "pairs": 2},
            csv="compare.csv",
            jobs=1,
        ),
        Workload(
            name="compare-m256",
            config={**_COMPARE, "m": 256, "n": 10, "T": 200, "R": 2, "pairs": 1},
            csv="compare.csv",
            jobs=1,
        ),
        Workload(
            name="gengap-mlp",
            config={
                "experiment": "gengap",
                "kind": "ring",
                "m": 16,
                "family": "two_layer_mlp",
                "hidden_width": 8,
                "d_x": 20,
                "feature_variance": 1.0,
                "noise_std": 0.3,
                "n": 50,
                "T": 2000,
                "R": 2,
                "mc_samples": 100_000,
            },
            csv="gengap.csv",
            jobs=1,
        ),
        Workload(
            name="control-sweep",
            config={
                "experiment": "consensus-control",
                "kind": "ring",
                "m": 16,
                "family": "linear_regression",
                "d_x": 10,
                "noise_std": 1.0,
                "n": 50,
                "T": 400,
                "eta": 0.05,
                "gamma_sq": 1e-4,
                "R": 5,
                "pairs": 2,
            },
            csv="consensus_control.csv",
            jobs=None,
        ),
    ]
}
