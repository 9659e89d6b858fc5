"""Gossip-matrix builders, spectra, and mixing diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsgd_lab.errors import InputError
from dsgd_lab.topology import (
    CONNECTED_KINDS,
    GossipMatrix,
    TopologyKind,
    analytic_gap_order,
    build_gossip_matrix,
    eigenvalues_symmetric,
    load_gossip_matrix,
    mixing_error,
)
from dsgd_lab.topology import EIGEN_SNAP_TOL

ALL_BUILDABLE = list(CONNECTED_KINDS) + [TopologyKind.DISCONNECTED]


def allowed(kind, m):
    if kind is TopologyKind.GRID_2D_TORUS:
        return math.isqrt(m) ** 2 == m and m >= 4
    if kind is TopologyKind.STATIC_EXPONENTIAL:
        return m >= 2 and (m & (m - 1)) == 0
    if kind is TopologyKind.DISCONNECTED:
        return m >= 1
    return m >= 2


def neighbor_sets(kind, m):
    """Open neighborhoods of each node as Python sets: the builders' oracle.

    Degenerate wrap-arounds (ring m=2, torus side 2, exponential offsets that
    coincide) collapse because neighborhoods are sets.
    """
    if kind is TopologyKind.DISCONNECTED:
        return [set() for _ in range(m)]
    if kind is TopologyKind.FULLY_CONNECTED:
        return [set(range(m)) - {i} for i in range(m)]
    if kind is TopologyKind.RING:
        return [{(i - 1) % m, (i + 1) % m} - {i} for i in range(m)]
    if kind is TopologyKind.GRID_2D_TORUS:
        side = math.isqrt(m)
        nbrs = []
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
    hops = [2**j for j in range(max(1, int(math.log2(m))))]
    return [({(i + h) % m for h in hops} | {(i - h) % m for h in hops}) - {i} for i in range(m)]


def reference_entries(kind, m):
    """Weight 1/(degree+1) on each node and its neighbors, written entry by entry."""
    entries = np.zeros((m, m))
    for i, neighborhood in enumerate(neighbor_sets(kind, m)):
        weight = 1.0 / (len(neighborhood) + 1)
        entries[i, i] = weight
        for j in neighborhood:
            entries[i, j] = weight
    return entries


def ring_eigenvalues(m):
    # Circulant closed form for uniform ring weights.
    return np.sort([1 / 3 + 2 / 3 * math.cos(2 * math.pi * k / m) for k in range(m)])[::-1]


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def test_fully_connected_is_uniform_averaging():
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4)
    assert np.array_equal(P.entries, np.full((4, 4), 0.25))


def test_disconnected_is_identity():
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 3)
    assert np.array_equal(P.entries, np.eye(3))


def test_ring_four_is_expected_circulant():
    P = build_gossip_matrix(TopologyKind.RING, 4)
    first_row = np.array([1 / 3, 1 / 3, 0.0, 1 / 3])
    assert np.allclose(P.entries[0], first_row, atol=1e-15)
    assert np.allclose(P.entries.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(P.entries.sum(axis=1), 1.0, atol=1e-12)


def test_ring_two_degenerates_to_pair_averaging():
    P = build_gossip_matrix(TopologyKind.RING, 2)
    assert np.allclose(P.entries, np.full((2, 2), 0.5))


def test_grid_four_has_degree_two_after_wrap_dedup():
    # On the 2x2 torus both row and column wrap-arounds coincide.
    P = build_gossip_matrix(TopologyKind.GRID_2D_TORUS, 4)
    assert np.allclose(np.diag(P.entries), 1 / 3)
    assert np.count_nonzero(P.entries[0]) == 3


@pytest.mark.parametrize("kind", ALL_BUILDABLE)
@pytest.mark.parametrize("m", [4, 9, 16, 64])
def test_built_matrices_satisfy_invariants(kind, m):
    if not allowed(kind, m):
        with pytest.raises(InputError):
            build_gossip_matrix(kind, m)
        return
    P = build_gossip_matrix(kind, m)
    entries = P.entries
    assert entries.shape == (m, m)
    assert np.max(np.abs(entries - entries.T)) <= 1e-12
    assert np.max(np.abs(entries.sum(axis=0) - 1.0)) <= 1e-12
    assert np.max(np.abs(entries.sum(axis=1) - 1.0)) <= 1e-12
    assert entries.min() >= 0.0 and entries.max() <= 1.0
    # Sparsity pattern matches the declared neighborhoods exactly.
    nbrs = neighbor_sets(kind, m)
    for i in range(m):
        nonzero = set(np.nonzero(entries[i])[0]) - {i}
        assert nonzero == nbrs[i]
        if kind is not TopologyKind.DISCONNECTED or m == 1:
            assert entries[i, i] > 0


@pytest.mark.parametrize("kind", ALL_BUILDABLE)
def test_built_entries_equal_the_set_built_entries(kind):
    # The builders fill index arrays; every entry must be the one that the
    # per-node neighbor sets give, bit for bit, up to m = 1024.
    for m in [1, 2, 3, 4, 8, 9, 16, 64, 100, 256, 1024]:
        if allowed(kind, m):
            assert np.array_equal(build_gossip_matrix(kind, m).entries, reference_entries(kind, m))


@pytest.mark.parametrize(
    "kind,m",
    [
        (TopologyKind.RING, 1),
        (TopologyKind.FULLY_CONNECTED, 1),
        (TopologyKind.GRID_2D_TORUS, 10),
        (TopologyKind.GRID_2D_TORUS, 1),
        (TopologyKind.STATIC_EXPONENTIAL, 12),
        (TopologyKind.DISCONNECTED, 0),
    ],
)
def test_structural_violations_are_rejected_with_named_constraint(kind, m):
    with pytest.raises(InputError) as err:
        build_gossip_matrix(kind, m)
    assert str(m) in str(err.value)


def test_custom_kind_cannot_be_built_directly():
    with pytest.raises(InputError):
        build_gossip_matrix(TopologyKind.CUSTOM, 4)


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


def test_load_accepts_identity(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("1,0\n0,1\n")
    P = load_gossip_matrix(path)
    assert P.kind is TopologyKind.CUSTOM
    assert np.array_equal(P.entries, np.eye(2))
    assert eigenvalues_symmetric(P).spectral_gap == 0.0


def test_load_accepts_pair_averaging(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("0.5,0.5\n0.5,0.5\n")
    assert load_gossip_matrix(path).m == 2


def test_load_rejects_asymmetric_matrix(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("0.9,0.2\n0.1,0.8\n")
    with pytest.raises(InputError, match="asymmetric"):
        load_gossip_matrix(path)


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("1,0,0\n0,1,0\n", "square"),
        ("1.5,-0.5\n-0.5,1.5\n", "negative"),
        ("0.6,0.6\n0.6,0.6\n", "row sums"),
        ("0.5,oops\n0.5,0.5\n", "parse"),
    ],
)
def test_load_rejects_invalid_files(tmp_path, content, fragment):
    path = tmp_path / "matrix.csv"
    path.write_text(content)
    with pytest.raises(InputError, match=fragment):
        load_gossip_matrix(path)


def test_load_missing_file():
    with pytest.raises(InputError, match="not found"):
        load_gossip_matrix("/nonexistent/matrix.csv")


def test_load_tolerates_small_roundtrip_error(tmp_path):
    # 1/3 printed to 12 digits: row sums off by ~1e-13, below the 1e-9 gate.
    third = "0.333333333333"
    row = ",".join([third] * 3)
    path = tmp_path / "matrix.csv"
    path.write_text("\n".join([row] * 3))
    assert load_gossip_matrix(path).m == 3


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------


def test_fully_connected_spectrum_m4():
    report = eigenvalues_symmetric(build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4))
    assert np.allclose(report.eigenvalues, [1, 0, 0, 0], atol=1e-12)
    assert report.lam == 0.0
    assert report.spectral_gap == 1.0


def test_identity_spectrum_m3():
    report = eigenvalues_symmetric(build_gossip_matrix(TopologyKind.DISCONNECTED, 3))
    assert np.allclose(report.eigenvalues, [1, 1, 1], atol=1e-12)
    assert report.lam == 1.0
    assert report.spectral_gap == 0.0


def test_ring_four_spectrum_matches_closed_form():
    report = eigenvalues_symmetric(build_gossip_matrix(TopologyKind.RING, 4))
    assert np.allclose(report.eigenvalues, [1, 1 / 3, 1 / 3, -1 / 3], atol=1e-10)
    assert abs(report.lam - 1 / 3) < 1e-10
    assert abs(report.spectral_gap - 2 / 3) < 1e-10


@pytest.mark.parametrize("m", [4, 8, 16, 32])
def test_ring_eigenvalues_match_circulant_formula(m):
    report = eigenvalues_symmetric(build_gossip_matrix(TopologyKind.RING, m))
    assert np.allclose(report.eigenvalues, ring_eigenvalues(m), atol=1e-9)


def test_spectrum_invariants_all_topologies():
    for kind in ALL_BUILDABLE:
        for m in (4, 9, 16):
            if not allowed(kind, m):
                continue
            report = eigenvalues_symmetric(build_gossip_matrix(kind, m))
            assert abs(report.eigenvalues[0] - 1.0) < 1e-10
            assert np.all(report.eigenvalues <= 1.0 + 1e-10)
            assert np.all(report.eigenvalues >= -1.0 - 1e-10)
            assert 0.0 <= report.spectral_gap <= 1.0
            assert np.all(np.diff(report.eigenvalues) <= 1e-12)


@settings(max_examples=300)
@given(st.sampled_from([(k, m) for k in ALL_BUILDABLE for m in range(1, 65) if allowed(k, m)]))
def test_spectrum_properties_every_admissible_size(case):
    kind, m = case
    report = eigenvalues_symmetric(build_gossip_matrix(kind, m))
    e = report.eigenvalues
    assert e.shape == (m,)
    assert np.all(np.diff(e) <= 0.0)
    assert abs(e[0] - 1.0) <= 1e-12
    # eigvalsh returns the unit eigenvalue up to ~1e-15 above 1.
    assert np.all(np.abs(e) <= 1.0 + 1e-12)
    assert 0.0 <= report.lam <= 1.0
    assert report.spectral_gap == 1.0 - report.lam
    if m == 1:
        assert report.lam == 0.0
        return
    raw = max(abs(e[1]), abs(e[-1]))
    if report.lam == 0.0:
        assert raw <= EIGEN_SNAP_TOL
    elif report.lam == 1.0:
        assert abs(raw - 1.0) <= EIGEN_SNAP_TOL
    else:
        assert report.lam == raw


def test_single_worker_spectrum():
    report = eigenvalues_symmetric(build_gossip_matrix(TopologyKind.DISCONNECTED, 1))
    assert report.lam == 0.0
    assert report.spectral_gap == 1.0


# ---------------------------------------------------------------------------
# Mixing error
# ---------------------------------------------------------------------------


def test_mixing_error_fully_connected_is_zero():
    P = build_gossip_matrix(TopologyKind.FULLY_CONNECTED, 4)
    assert mixing_error(P, 1) == 0.0


def test_mixing_error_identity_stays_one():
    P = build_gossip_matrix(TopologyKind.DISCONNECTED, 3)
    assert abs(mixing_error(P, 5) - 1.0) < 1e-12


def test_mixing_error_ring_four_squares_the_rate():
    P = build_gossip_matrix(TopologyKind.RING, 4)
    value = mixing_error(P, 2)
    assert value <= (1 / 3) ** 2 + 1e-9
    assert abs(value - 1 / 9) < 1e-12


def test_mixing_error_matches_svd_oracle():
    rng = np.random.default_rng(3)
    for kind in (TopologyKind.RING, TopologyKind.STATIC_EXPONENTIAL):
        P = build_gossip_matrix(kind, 8)
        for k in (1, 3, 7):
            deviation = np.linalg.matrix_power(P.entries, k) - np.full((8, 8), 1 / 8)
            oracle = np.linalg.svd(deviation, compute_uv=False).max()
            assert abs(mixing_error(P, k) - oracle) < 1e-10


@pytest.mark.parametrize("m", [4, 9, 16, 64])
def test_mixing_error_contracts_at_rate_lambda(m):
    powers = (1, 2, 3, 5, 10, 50) if m < 64 else (1, 5, 25, 50)
    for kind in CONNECTED_KINDS:
        if not allowed(kind, m):
            continue
        P = build_gossip_matrix(kind, m)
        lam = eigenvalues_symmetric(P).lam
        for k in powers:
            assert mixing_error(P, k) <= lam**k + 1e-9


def test_mixing_error_rejects_bad_power():
    P = build_gossip_matrix(TopologyKind.RING, 4)
    with pytest.raises(InputError):
        mixing_error(P, 0)


# ---------------------------------------------------------------------------
# Orders and orderings
# ---------------------------------------------------------------------------


def test_analytic_gap_orders():
    assert analytic_gap_order(TopologyKind.RING, 8) == 1 / 64
    assert analytic_gap_order(TopologyKind.FULLY_CONNECTED, 100) == 1.0
    assert analytic_gap_order(TopologyKind.GRID_2D_TORUS, 16) == 1 / 64
    assert analytic_gap_order(TopologyKind.STATIC_EXPONENTIAL, 8) == 1 / 3
    assert analytic_gap_order(TopologyKind.DISCONNECTED, 5) == 0.0
    with pytest.raises(InputError):
        analytic_gap_order(TopologyKind.CUSTOM, 4)


def test_ring_gap_scales_inverse_square():
    values = [eigenvalues_symmetric(build_gossip_matrix(TopologyKind.RING, m)).spectral_gap * m**2
              for m in (8, 16, 32, 64)]
    assert max(values) / min(values) < 4.0


def test_exponential_gap_scales_inverse_log():
    values = [
        eigenvalues_symmetric(build_gossip_matrix(TopologyKind.STATIC_EXPONENTIAL, m)).spectral_gap
        * math.log2(m)
        for m in (8, 16, 32, 64)
    ]
    assert max(values) / min(values) < 4.0


def test_gap_ordering_at_m64():
    gaps = {
        kind: eigenvalues_symmetric(build_gossip_matrix(kind, 64)).spectral_gap
        for kind in ALL_BUILDABLE
    }
    assert (
        gaps[TopologyKind.FULLY_CONNECTED]
        > gaps[TopologyKind.STATIC_EXPONENTIAL]
        > gaps[TopologyKind.GRID_2D_TORUS]
        > gaps[TopologyKind.RING]
        > gaps[TopologyKind.DISCONNECTED]
    )


def test_gossip_matrix_is_plain_data():
    P = build_gossip_matrix(TopologyKind.RING, 4)
    assert isinstance(P, GossipMatrix)
    assert P.m == 4 and P.kind is TopologyKind.RING
