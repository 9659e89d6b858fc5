"""Gossip matrices: topology builders, spectra, and mixing diagnostics.

A gossip matrix is a symmetric doubly stochastic matrix whose sparsity
pattern is the communication graph. All builders use uniform
closed-neighborhood weights: every node averages itself and its neighbors
with weight 1/(degree+1). The built-in graph families are regular, so this
weighting is symmetric and doubly stochastic without Metropolis corrections.

Connectivity is summarized by lambda = max(|lambda_2|, |lambda_m|) of the
eigenvalue spectrum and the spectral gap 1 - lambda: 0 for a disconnected
graph, 1 for the fully connected one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InputError

__all__ = [
    "TopologyKind",
    "GossipMatrix",
    "SpectrumReport",
    "CONNECTED_KINDS",
    "validate_worker_count",
    "build_gossip_matrix",
    "load_gossip_matrix",
    "eigenvalues_symmetric",
    "spectral_gap",
    "mixing_error",
    "analytic_gap_order",
]

# Tolerances: builders must hit double stochasticity essentially exactly;
# matrices loaded from CSV get a looser gate to absorb decimal round-trips.
BUILD_SUM_TOL = 1e-12
LOAD_SUM_TOL = 1e-9
# lambda within this of 0 or 1 snaps to exactly 0 or 1.
EIGEN_SNAP_TOL = 1e-12


class TopologyKind(str, Enum):
    FULLY_CONNECTED = "fully_connected"
    RING = "ring"
    GRID_2D_TORUS = "grid"
    STATIC_EXPONENTIAL = "exponential"
    DISCONNECTED = "disconnected"
    CUSTOM = "custom"


CONNECTED_KINDS = (
    TopologyKind.FULLY_CONNECTED,
    TopologyKind.STATIC_EXPONENTIAL,
    TopologyKind.GRID_2D_TORUS,
    TopologyKind.RING,
)


@dataclass(frozen=True, eq=False)
class GossipMatrix:
    """An m-by-m symmetric doubly stochastic mixing matrix with its topology tag."""

    m: int
    entries: np.ndarray
    kind: TopologyKind


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Full eigenvalue spectrum of a gossip matrix.

    Attributes:
        eigenvalues: all m eigenvalues, sorted descending.
        lam: max(|lambda_2|, |lambda_m|), excluding the single leading
            eigenvalue by sorted position. Repeated eigenvalues of 1 beyond
            the first (disconnected graphs) correctly yield lam = 1.
        spectral_gap: 1 - lam.
    """

    eigenvalues: np.ndarray
    lam: float
    spectral_gap: float


def _is_power_of_two(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


def validate_worker_count(kind: TopologyKind, m: int) -> None:
    """Check the structural constraint of a topology kind on the worker count.

    Raises:
        InputError: naming the violated constraint.
    """
    if m < 1:
        raise InputError(f"worker count must be positive, got {m}")
    if kind is TopologyKind.DISCONNECTED:
        return
    if kind is TopologyKind.GRID_2D_TORUS:
        side = math.isqrt(m)
        if side * side != m or m < 4:
            raise InputError(
                f"grid topology requires a perfect-square worker count >= 4, got {m}"
            )
        return
    if kind is TopologyKind.STATIC_EXPONENTIAL:
        if m < 2 or not _is_power_of_two(m):
            raise InputError(
                f"exponential topology requires a power-of-two worker count >= 2, got {m}"
            )
        return
    if m < 2:
        raise InputError(f"{kind.value} topology requires at least 2 workers, got {m}")


def _neighbor_sets(kind: TopologyKind, m: int) -> list[set[int]]:
    """Open neighborhoods (excluding self) of each node, as sets.

    Degenerate wrap-arounds (ring m=2, torus side 2, exponential offsets that
    coincide) collapse naturally because neighborhoods are sets; the graphs
    stay regular.
    """
    if kind is TopologyKind.DISCONNECTED:
        return [set() for _ in range(m)]
    if kind is TopologyKind.FULLY_CONNECTED:
        return [set(range(m)) - {i} for i in range(m)]
    if kind is TopologyKind.RING:
        return [{(i - 1) % m, (i + 1) % m} - {i} for i in range(m)]
    if kind is TopologyKind.GRID_2D_TORUS:
        side = math.isqrt(m)
        nbrs: list[set[int]] = []
        for i in range(m):
            r, c = divmod(i, side)
            cells = {
                ((r - 1) % side) * side + c,
                ((r + 1) % side) * side + c,
                r * side + (c - 1) % side,
                r * side + (c + 1) % side,
            }
            nbrs.append(cells - {i})
        return nbrs
    if kind is TopologyKind.STATIC_EXPONENTIAL:
        hops = [2**j for j in range(max(1, int(math.log2(m))))]
        return [
            ({(i + h) % m for h in hops} | {(i - h) % m for h in hops}) - {i}
            for i in range(m)
        ]
    raise InputError(f"cannot build a matrix for kind {kind.value!r}")


def build_gossip_matrix(kind: TopologyKind, m: int) -> GossipMatrix:
    """Build the gossip matrix of a named topology with uniform weights.

    Every node takes weight 1/(degree+1) on itself and on each neighbor.
    Deterministic in (kind, m).

    Raises:
        InputError: if m violates the kind's structural constraint.
    """
    validate_worker_count(kind, m)
    nbrs = _neighbor_sets(kind, m)
    entries = np.zeros((m, m))
    for i, neighborhood in enumerate(nbrs):
        weight = 1.0 / (len(neighborhood) + 1)
        entries[i, i] = weight
        for j in neighborhood:
            entries[i, j] = weight
    _validate_entries(entries, sum_tol=BUILD_SUM_TOL)
    return GossipMatrix(m=m, entries=entries, kind=kind)


def _validate_entries(entries: np.ndarray, sum_tol: float) -> None:
    """Validate the gossip-matrix invariants; raise naming the first violation."""
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise InputError(f"matrix must be square, got shape {entries.shape}")
    if not np.all(np.isfinite(entries)):
        raise InputError("matrix has non-finite entries")
    asym = float(np.max(np.abs(entries - entries.T))) if entries.size else 0.0
    if asym > sum_tol:
        raise InputError(f"matrix is asymmetric (max |P - P^T| = {asym:.3e})")
    if float(entries.min(initial=0.0)) < -sum_tol:
        raise InputError(f"matrix has negative entries (min = {entries.min():.3e})")
    if float(entries.max(initial=0.0)) > 1.0 + sum_tol:
        raise InputError(f"matrix has entries above 1 (max = {entries.max():.3e})")
    row_err = float(np.max(np.abs(entries.sum(axis=1) - 1.0)))
    if row_err > sum_tol:
        raise InputError(f"row sums differ from 1 by {row_err:.3e}")
    col_err = float(np.max(np.abs(entries.sum(axis=0) - 1.0)))
    if col_err > sum_tol:
        raise InputError(f"column sums differ from 1 by {col_err:.3e}")


def load_gossip_matrix(path: str | Path) -> GossipMatrix:
    """Load a custom gossip matrix from a headerless CSV file.

    The file must hold an m-by-m matrix, one row per line, and satisfy the
    gossip-matrix invariants (symmetry, entries in [0, 1], row and column
    sums equal to 1 within 1e-9).

    Raises:
        InputError: missing file, malformed CSV, or the first violated invariant.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"gossip matrix file not found: {path}")
    try:
        entries = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise InputError(f"could not parse {path} as a CSV matrix: {exc}") from exc
    _validate_entries(entries, sum_tol=LOAD_SUM_TOL)
    return GossipMatrix(m=entries.shape[0], entries=entries, kind=TopologyKind.CUSTOM)


def eigenvalues_symmetric(P: GossipMatrix) -> SpectrumReport:
    """Compute the full spectrum of a gossip matrix.

    lambda is taken over the descending-sorted eigenvalues excluding exactly
    one leading eigenvalue. Magnitudes at or below EIGEN_SNAP_TOL report as
    exactly 0 and values within it of 1 as exactly 1 (uniform averaging and
    identity matrices then yield gaps of exactly 1 and 0).
    """
    eigenvalues = np.linalg.eigvalsh(P.entries)[::-1].copy()
    if P.m == 1:
        lam = 0.0
    else:
        lam = max(abs(float(eigenvalues[1])), abs(float(eigenvalues[-1])))
        if lam <= EIGEN_SNAP_TOL:
            lam = 0.0
        elif abs(lam - 1.0) <= EIGEN_SNAP_TOL:
            lam = 1.0
        lam = min(max(lam, 0.0), 1.0)
    return SpectrumReport(eigenvalues=eigenvalues, lam=lam, spectral_gap=1.0 - lam)


def spectral_gap(P: GossipMatrix) -> float:
    """1 - lambda of the gossip matrix; 0 disconnected, 1 fully connected."""
    return eigenvalues_symmetric(P).spectral_gap


def mixing_error(P: GossipMatrix, k: int) -> float:
    """Operator 2-norm distance between P^k and exact uniform averaging.

    Returns ||P^k - M||_2,2 where M is the all-1/m matrix. P^k - M is
    symmetric, so the norm equals the largest eigenvalue magnitude. Satisfies
    mixing_error(P, k) <= lambda^k up to rounding: repeated gossip converges
    to uniform averaging at a geometric rate set by the spectrum.
    """
    if k < 1:
        raise InputError(f"power k must be >= 1, got {k}")
    uniform = np.full((P.m, P.m), 1.0 / P.m)
    deviation = np.linalg.matrix_power(P.entries, k) - uniform
    return float(np.max(np.abs(np.linalg.eigvalsh(deviation))))


def analytic_gap_order(kind: TopologyKind, m: int) -> float:
    """Known spectral-gap order of a named topology, with constants set to 1.

    Intended only for scaling-law (ratio) checks, never as ground truth for
    gap values: ring 1/m^2, grid 1/(m log2 m), exponential 1/log2 m,
    fully connected 1, disconnected 0.

    Raises:
        InputError: for the custom kind, whose gap has no closed form here.
    """
    validate_worker_count(kind, m)
    if kind is TopologyKind.RING:
        return 1.0 / m**2
    if kind is TopologyKind.GRID_2D_TORUS:
        return 1.0 / (m * math.log2(m))
    if kind is TopologyKind.STATIC_EXPONENTIAL:
        return 1.0 / math.log2(m)
    if kind is TopologyKind.FULLY_CONNECTED:
        return 1.0
    if kind is TopologyKind.DISCONNECTED:
        return 0.0
    raise InputError(f"no analytic gap order for kind {kind.value!r}")
