"""Gossip matrices: topology builders, spectra, mixing diagnostics, and the
gossip product.

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
Circulant alone: its shifts are zero and each of the kind's hops both ways,
and its m x m entries are expanded from the Circulant only when something
reads them. A loaded matrix holds its entries and no circulant, whatever
they hold.

P W, for a stack W (..., m, d), takes one of three forms, chosen per matrix
(_gossip_form):
- the worker mean, when every entry is equal (fully connected);
- shifted slices, for the other built matrices: each shift's slices are
  added into the output, which is then scaled once by the weight;
- the dense product, for every loaded matrix and for every matrix of fewer
  than DENSE_GOSSIP_BELOW workers.
Only the dense product reads the entries, so from the crossover gossip
never materializes a built matrix's m x m array.
tools/gossip_crossover.py times one gossip of a (8, 2, m, 20) stack in each
form (microseconds, dense / structured; 2-core box, numpy 2.4.6, one BLAS
thread):

    m      fully connected   exponential     grid           ring
    16     6.5 / 9.4         6.0 / 85.7      9.4 / 69.6     10.3 / 28.1
    64     51 / 54           72 / 398        70 / 178       70 / 87
    128    239 / 104         233 / 443       -              240 / 65
    256    1573 / 213        1633 / 560      1573 / 430     1578 / 106
    1024   28644 / 893       29683 / 5292    29242 / 2147   29409 / 856

(the m = 16 row from a later run). 256 is the first of these sizes at which
the structured form wins for every kind, at (2, 2, m, 20) stacks too; at
m = 16, the compare workloads' size, the dense product wins for every kind.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
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

# Worker count below which every gossip matrix is a dense product; from it
# on, a built matrix gossips as the worker mean or as shifted slices.
# The crossover that tools/gossip_crossover.py measured (module docstring).
DENSE_GOSSIP_BELOW = 256


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
    entries are expanded from it the first time something reads them, and
    then kept. A loaded matrix holds its entries, and its circulant is None.
    A matrix with a circulant pickles without its entries, as a few shifts.
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
        if self.circulant is not None:
            state.pop("entries", None)
        return state

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The circulant's entries, expanded once on first read: weight at (i, j)
        for each shift s, where j's position is i's plus s on the grid."""
        grid, shifts, weight = self.circulant.grid, self.circulant.shifts, self.circulant.weight
        if len(shifts) == self.m:
            return np.full((self.m, self.m), weight)
        entries = np.zeros((self.m, self.m))
        rows, positions = np.arange(self.m), np.indices(grid).reshape(len(grid), self.m)
        for shift in shifts:
            moved = tuple((p + s) % size for p, s, size in zip(positions, shift, grid))
            entries[rows, np.ravel_multi_index(moved, grid)] = weight
        return entries


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


def _hops(kind: TopologyKind, m: int) -> tuple[tuple[int, ...], list]:
    """A built kind's grid, and its hops: the shifts from a node to its
    neighbors, one of each pair of a shift and its negation."""
    if kind is TopologyKind.GRID_2D_TORUS:
        return (math.isqrt(m),) * 2, [(1, 0), (0, 1)]
    if kind is TopologyKind.FULLY_CONNECTED:
        return (m,), [(hop,) for hop in range(1, m // 2 + 1)]
    if kind is TopologyKind.RING:
        return (m,), [(1,)]
    if kind is TopologyKind.STATIC_EXPONENTIAL:
        return (m,), [(2**j,) for j in range(max(1, int(math.log2(m))))]
    if kind is TopologyKind.DISCONNECTED:
        return (m,), []
    raise InputError(f"cannot build a matrix for kind {kind.value!r}")


def build_gossip_matrix(kind: TopologyKind, m: int) -> GossipMatrix:
    """Build the gossip matrix of a named topology with uniform weights.

    Every node takes weight 1/(degree+1) on itself and on each neighbor.
    The matrix is the Circulant whose shifts are zero and each of the
    kind's hops both ways, distinct (degenerate wrap-arounds such as ring
    m=2 or torus side 2 make a hop its own negation) and in ascending
    flat-index order, each with weight 1/count (1/m for fully connected).
    Deterministic in (kind, m).

    Raises:
        InputError: if m violates the kind's structural constraint.
    """
    validate_worker_count(kind, m)
    grid, hops = _hops(kind, m)
    negations = [tuple(-h % size for h, size in zip(hop, grid)) for hop in hops]
    shifts = tuple(sorted({(0,) * len(grid), *hops, *negations}))
    circulant = Circulant(grid=grid, shifts=shifts, weight=1.0 / len(shifts))
    _validate_circulant(circulant)
    return GossipMatrix(m=m, kind=kind, circulant=circulant)


def _validate_circulant(circulant: Circulant) -> None:
    """Validate the invariants that make a Circulant a gossip matrix: a finite
    weight in (0, 1] (entries in [0, 1]), distinct shifts on the grid (one
    weight per entry), weight * |shifts| within BUILD_SUM_TOL of 1 (row and
    column sums), and shifts closed under negation on the grid (symmetry).
    Raise naming the first violation."""
    weight, grid = circulant.weight, circulant.grid
    if not (math.isfinite(weight) and 0.0 < weight <= 1.0):
        raise InputError(f"circulant weight must be finite and in (0, 1], got {weight}")
    shifts = set(circulant.shifts)
    outside = shifts.difference(itertools.product(*map(range, grid)))
    if outside:
        raise InputError(f"shift {min(outside)} lies outside the grid {grid}")
    if len(shifts) != len(circulant.shifts):
        raise InputError("circulant repeats a shift")
    sum_err = abs(weight * len(circulant.shifts) - 1.0)
    if sum_err > BUILD_SUM_TOL:
        raise InputError(f"row sums differ from 1 by {sum_err:.3e}")
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


def _worker_mean(W: np.ndarray) -> np.ndarray:
    """W.mean(axis=-2, keepdims=True), bit for bit, for a stack W (..., m, d).

    numpy's mean reduces the worker axis by adding its rows in order, as one
    einsum sum does, but takes about three times as long per call. At d = 1
    the worker axis is the contiguous one, which mean sums pairwise, so there
    it is the mean itself.
    """
    if W.shape[-1] == 1:
        return W.mean(axis=-2, keepdims=True)
    return np.einsum("...kd->...d", W)[..., None, :] / W.shape[-2]


def _dense_gossip(P: GossipMatrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P W as a matrix product per run of W (..., m, d), into out."""
    return np.matmul(P.entries, W, out=out)


def _mean_gossip(P: GossipMatrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P W for a P whose entries all equal 1/m: every worker takes its run's mean."""
    out[...] = _worker_mean(W)
    return out


def _shifted_gossip(P: GossipMatrix, W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P W for a circulant P: its weight times the sum of W's shifted slices, into out.

    out must be C-contiguous, so that it reshapes to the worker grid as a view.
    """
    circulant = P.circulant
    grid_shape = (*W.shape[:-2], *circulant.grid, W.shape[-1])
    source, target = W.reshape(grid_shape), out.reshape(grid_shape)
    for into, read, add in _shift_terms(circulant.grid, circulant.shifts):
        if add:
            np.add(target[into], source[read], out=target[into])
        else:
            target[into] = source[read]
    out *= circulant.weight
    return out


@functools.cache
def _shift_terms(grid: tuple[int, ...], shifts: tuple[tuple[int, ...], ...]) -> tuple:
    """(into, read, add) slice pairs that sum W shifted by each shift over the cyclic grid.

    Each shift's pairs place W at position + shift at every position of the
    grid; the first shift's pairs tile it (add False), and the others add on.
    """
    terms = []
    for term, shift in enumerate(shifts):
        per_axis = [
            [(slice(None), slice(None))] if s == 0
            else [(slice(0, size - s), slice(s, size)), (slice(size - s, size), slice(0, s))]
            for s, size in zip(shift, grid)
        ]
        for pieces in itertools.product(*per_axis):
            into, read = zip(*pieces)
            terms.append(((..., *into, slice(None)), (..., *read, slice(None)), term > 0))
    return tuple(terms)


def _gossip_form(P: GossipMatrix):
    """The function that gossips with P: the dense product below DENSE_GOSSIP_BELOW
    workers and for a loaded P (no circulant), else the worker mean when every
    entry is equal and the shifted slices otherwise."""
    if P.m < DENSE_GOSSIP_BELOW or P.circulant is None:
        return _dense_gossip
    return _mean_gossip if len(P.circulant.shifts) == P.m else _shifted_gossip
