"""Gossip matrices: topology builders, spectra, and mixing diagnostics.

A gossip matrix is a symmetric doubly stochastic matrix whose sparsity
pattern is the communication graph. All builders use uniform
closed-neighborhood weights: every node averages itself and its neighbors
with weight 1/(degree+1). The built-in graph families are regular, so this
weighting is symmetric and doubly stochastic without Metropolis corrections.

Connectivity is summarized by lambda = max(|lambda_2|, |lambda_m|) of the
eigenvalue spectrum and the spectral gap 1 - lambda: 0 for a disconnected
graph, 1 for the fully connected one.

Every built kind is circulant: one weight times a sum of cyclic shifts of
the workers, over the worker cycle (fully connected, ring, exponential,
disconnected) or over the side x side torus (grid). A built matrix is that
Circulant, taken from node 0's closed neighborhood, and its m x m entries
are materialized only when something reads them. A loaded matrix holds its
entries and no circulant, whatever they hold. The engine gossips a built
matrix's circulant by shifted slices, and a loaded matrix by its entries.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InputError

__all__ = [
    "TopologyKind",
    "GossipMatrix",
    "Circulant",
    "SpectrumReport",
    "CONNECTED_KINDS",
    "validate_worker_count",
    "build_gossip_matrix",
    "load_gossip_matrix",
    "eigenvalues_symmetric",
    "mixing_error",
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


@dataclass(frozen=True)
class Circulant:
    """A gossip matrix as one weight times a sum of cyclic shifts of the workers.

    The workers sit on a cyclic grid, (m,) for the worker cycle or
    (side, side) for the torus, worker i at np.unravel_index(i, grid). Entry
    (i, j) is weight when j's position minus i's, per axis modulo the grid,
    is one of shifts, and 0 otherwise; so row i of P W is weight times the
    sum, over the shifts s, of W's row at i's position + s.
    """

    grid: tuple[int, ...]
    shifts: tuple[tuple[int, ...], ...]
    weight: float


class GossipMatrix:
    """An m-by-m symmetric doubly stochastic mixing matrix with its topology tag.

    A built matrix (build_gossip_matrix) is given as its circulant: its
    entries are materialized by the dense construction, bit for bit the
    same, the first time something reads them, and then kept. A loaded
    matrix holds its entries, and its circulant is None. A built matrix
    pickles without its entries, as a few shifts.
    """

    def __init__(
        self,
        m: int,
        kind: TopologyKind,
        entries: np.ndarray | None = None,
        circulant: Circulant | None = None,
    ):
        self.m = m
        self.kind = kind
        self.circulant = circulant
        # Given entries shadow the cached property below.
        if entries is not None:
            self.entries = entries

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        if self.kind is not TopologyKind.CUSTOM:
            state.pop("entries", None)
        return state

    @cached_property
    def entries(self) -> np.ndarray:
        """A built matrix's entries, materialized once on first read."""
        return _dense_entries(self.kind, self.m)


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


def _closed_neighborhoods(kind: TopologyKind, m: int) -> np.ndarray:
    """(m, c) array: row i lists node i and its neighbors, repeats allowed.

    Degenerate wrap-arounds (ring m=2, torus side 2, exponential offsets that
    coincide) list a node twice; the graphs stay regular.
    """
    nodes = np.arange(m)[:, None]
    if kind is TopologyKind.DISCONNECTED:
        return nodes
    if kind is TopologyKind.RING:
        return (nodes + np.array([0, -1, 1])) % m
    if kind is TopologyKind.GRID_2D_TORUS:
        side = math.isqrt(m)
        r, c = divmod(nodes, side)
        dr, dc = np.array([[0, -1, 1, 0, 0], [0, 0, 0, -1, 1]])
        return ((r + dr) % side) * side + (c + dc) % side
    if kind is TopologyKind.STATIC_EXPONENTIAL:
        hops = 2 ** np.arange(max(1, int(math.log2(m))))
        return (nodes + np.concatenate([[0], hops, -hops])) % m
    raise InputError(f"cannot build a matrix for kind {kind.value!r}")


def build_gossip_matrix(kind: TopologyKind, m: int) -> GossipMatrix:
    """Build the gossip matrix of a named topology with uniform weights.

    Every node takes weight 1/(degree+1) on itself and on each neighbor.
    The matrix is the Circulant of node 0's closed neighborhood: its
    distinct offsets in ascending flat-index order, each with weight
    1/count (1/m for fully connected). Deterministic in (kind, m).

    Raises:
        InputError: if m violates the kind's structural constraint.
    """
    validate_worker_count(kind, m)
    if kind is TopologyKind.FULLY_CONNECTED:
        support = range(m)
    else:
        # Sorted in Python: np.unique's first call costs 1.5 MB of resident memory.
        support = sorted(set(_closed_neighborhoods(kind, m)[0].tolist()))
    grid = (math.isqrt(m),) * 2 if kind is TopologyKind.GRID_2D_TORUS else (m,)
    shifts = tuple(zip(*(axis.tolist() for axis in np.unravel_index(support, grid))))
    circulant = Circulant(grid=grid, shifts=shifts, weight=1.0 / len(support))
    _validate_circulant(circulant)
    return GossipMatrix(m=m, kind=kind, circulant=circulant)


def _dense_entries(kind: TopologyKind, m: int) -> np.ndarray:
    """The m x m entries of a built kind: 1.0 at every closed neighborhood,
    scaled by 1/(degree+1); 1/m everywhere for fully connected."""
    if kind is TopologyKind.FULLY_CONNECTED:
        return np.full((m, m), 1.0 / m)
    entries = np.zeros((m, m))
    entries[np.arange(m)[:, None], _closed_neighborhoods(kind, m)] = 1.0
    # The graphs are regular: node 0's degree + 1 is every node's.
    entries *= 1.0 / entries[0].sum()
    return entries


def _validate_circulant(circulant: Circulant) -> None:
    """Validate the invariants that make a Circulant of distinct shifts a
    gossip matrix: a finite weight in (0, 1] (entries in [0, 1]), weight *
    |shifts| within BUILD_SUM_TOL of 1 (row and column sums), and shifts
    closed under negation on the grid (symmetry). Raise naming the first
    violation."""
    weight, grid = circulant.weight, circulant.grid
    if not (math.isfinite(weight) and 0.0 < weight <= 1.0):
        raise InputError(f"circulant weight must be finite and in (0, 1], got {weight}")
    sum_err = abs(weight * len(circulant.shifts) - 1.0)
    if sum_err > BUILD_SUM_TOL:
        raise InputError(f"row sums differ from 1 by {sum_err:.3e}")
    shifts = set(circulant.shifts)
    for shift in circulant.shifts:
        if tuple(-s % size for s, size in zip(shift, grid)) not in shifts:
            raise InputError(f"matrix is asymmetric: shift {shift} has no negation")


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
        InputError: missing or empty file, malformed CSV, or the first violated
            invariant.
    """
    path = Path(path)
    if not path.is_file():
        raise InputError(f"gossip matrix file not found: {path}")
    try:
        with warnings.catch_warnings():
            # An empty file is reported below, as an input error.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            entries = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise InputError(f"could not parse {path} as a CSV matrix: {exc}") from exc
    if entries.size == 0:
        raise InputError(f"{path} holds no matrix rows")
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
