"""Bases, log-Vandermonde, greedy and exchange search: oracle-backed."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketelab.errors import DomainError, InputError, InsufficientMeshError
from feketelab.fekete import (
    BasisSpec,
    Circle,
    CircleArc,
    Interval,
    PointConfiguration,
    Sphere,
    SphericalCap,
    Weight,
    basis_dim,
    basis_matrix,
    eval_basis,
    exchange_refine,
    fekete_measure,
    leja_greedy,
    log_vandermonde,
    zero_weight,
)

W0 = zero_weight()


def _cofactor_logdet(mat):
    """Direct cofactor-expansion determinant for small matrices."""

    def det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0.0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    d = det([list(r) for r in mat])
    return math.log(abs(d)) if d != 0 else float("-inf")


# --------------------------------------------------------------- dimensions
def test_basis_dims():
    assert basis_dim(BasisSpec(Interval(), 5)) == 6
    assert basis_dim(BasisSpec(Circle(), 3)) == 7
    assert basis_dim(BasisSpec(Sphere(), 4)) == 25  # sum of 2l+1, l <= 4


def test_arc_and_cap_rank_dimensions():
    assert basis_dim(BasisSpec(CircleArc(-1.0, 1.0), 3)) == 7
    assert basis_dim(BasisSpec(SphericalCap((0, 0, 1), 1.0), 3)) == 16


# -------------------------------------------------------------------- bases
def test_chebyshev_values_at_zero():
    np.testing.assert_allclose(
        eval_basis(BasisSpec(Interval(), 2), 0.0), [1.0, 0.0, -1.0], atol=1e-15
    )


def test_circle_basis_at_zero_angle():
    np.testing.assert_allclose(
        eval_basis(BasisSpec(Circle(), 1), 0.0), [1.0, 1.0, 0.0], atol=1e-15
    )


def test_sphere_basis_north_pole():
    vec = eval_basis(BasisSpec(Sphere(), 1), np.array([0.0, 0.0, 1.0]))
    want = [1.0 / math.sqrt(4 * math.pi), math.sqrt(3.0 / (4 * math.pi)), 0.0, 0.0]
    np.testing.assert_allclose(vec, want, atol=1e-14)


def test_sphere_basis_orthonormal_under_quadrature():
    spec = BasisSpec(Sphere(), 4)
    mesh = Sphere().mesh(40000)
    mat = basis_matrix(spec, mesh)
    gram = 4.0 * math.pi * (mat @ mat.T) / mesh.shape[0]
    assert np.max(np.abs(gram - np.eye(25))) < 5e-6


def test_eval_basis_rejects_off_domain():
    with pytest.raises(DomainError):
        eval_basis(BasisSpec(Interval(), 3), 1.5)
    with pytest.raises(DomainError):
        eval_basis(BasisSpec(Sphere(), 2), np.array([0.0, 0.0, 0.5]))


# ----------------------------------------------------------- log vandermonde
def test_logdet_interval_oracle_value():
    val = log_vandermonde(np.array([-1.0, 0.0, 1.0]), BasisSpec(Interval(), 2))
    assert abs(val - math.log(4.0)) < 1e-14


def test_logdet_matches_cofactor_expansion():
    rng = np.random.default_rng(0)
    for n_k, spec in ((4, BasisSpec(Interval(), 3)), (5, BasisSpec(Circle(), 2))):
        for _ in range(5):
            if isinstance(spec.domain, Interval):
                pts = np.sort(rng.uniform(-1, 1, n_k))
            else:
                pts = np.sort(rng.uniform(-math.pi, math.pi, n_k))
            mat = basis_matrix(spec, pts)
            want = _cofactor_logdet(mat.tolist())
            got = log_vandermonde(pts, spec)
            if math.isfinite(want):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_logdet_singular_marker():
    spec = BasisSpec(Interval(), 2)
    pts = np.array([0.5, 0.5 + 1e-18, -0.3])  # coincident to double precision
    assert log_vandermonde(pts, spec) == float("-inf")


def test_logdet_weight_shift():
    """phi -> phi + c shifts logdet by -k N_k c and changes no comparison."""
    spec = BasisSpec(Interval(), 3)
    pts = np.array([-1.0, -0.4, 0.3, 1.0])
    base = log_vandermonde(pts, spec, W0)
    shifted = Weight(phi=lambda p: np.full(len(np.atleast_1d(p)), 0.7), name="c")
    got = log_vandermonde(pts, spec, shifted)
    assert abs(got - (base - 3 * 4 * 0.7)) < 1e-9


def test_logdet_basis_change_invariance():
    """Two bases of one span shift logdet by a config-independent constant."""
    spec = BasisSpec(Interval(), 2)
    cfg_a = np.array([-1.0, 0.0, 1.0])
    cfg_b = np.array([-0.9, 0.1, 0.8])

    def monomial_logdet(pts):
        mat = np.vander(pts, 3, increasing=True).T
        s, ld = np.linalg.slogdet(mat)
        return ld

    gap_cheb = log_vandermonde(cfg_a, spec) - log_vandermonde(cfg_b, spec)
    gap_mono = monomial_logdet(cfg_a) - monomial_logdet(cfg_b)
    assert abs(gap_cheb - gap_mono) < 1e-9


def test_wrong_point_count_rejected():
    with pytest.raises(InputError):
        log_vandermonde(np.array([0.0, 0.5]), BasisSpec(Interval(), 2))


# ------------------------------------------------------------------- greedy
def test_greedy_interval_k1_picks_endpoints():
    spec = BasisSpec(Interval(), 1)
    mesh = Interval().mesh(101)
    cfg, _ = leja_greedy(spec, W0, mesh)
    assert set(np.round(np.sort(cfg.points), 12)) == {-1.0, 1.0}
    # brute force over all mesh pairs agrees
    best = max(
        (log_vandermonde(mesh[list(pair)], spec), pair)
        for pair in combinations(range(0, 101, 5), 2)
    )
    assert cfg.logdet >= best[0] - 1e-12


def test_greedy_circle_k1_near_equilateral():
    spec = BasisSpec(Circle(), 1)
    mesh = Circle().mesh(240)
    cfg, sl = leja_greedy(spec, W0, mesh)
    cfg = exchange_refine(cfg, spec, W0, mesh, sweeps=4, shortlists=sl)
    th = np.sort(cfg.points)
    gaps = np.diff(np.concatenate([th, [th[0] + 2 * math.pi]]))
    assert np.max(np.abs(gaps - 2 * math.pi / 3)) <= 2 * math.pi / 240 + 1e-12


def test_greedy_beats_random_configs():
    spec = BasisSpec(Circle(), 2)
    mesh = Circle().mesh(512)
    cfg, _ = leja_greedy(spec, W0, mesh)
    rng = np.random.default_rng(1)
    wins = 0
    for _ in range(100):
        pick = rng.choice(len(mesh), size=cfg.size, replace=False)
        if cfg.logdet >= log_vandermonde(mesh[np.sort(pick)], spec):
            wins += 1
    assert wins >= 99


def test_greedy_rejects_small_mesh():
    with pytest.raises(InsufficientMeshError):
        leja_greedy(BasisSpec(Interval(), 10), W0, Interval().mesh(20))


def test_greedy_rank_deficient_mesh():
    spec = BasisSpec(Interval(), 3)
    mesh = np.full(40, 0.5) + np.arange(40) * 1e-17  # effectively one point
    with pytest.raises(InsufficientMeshError):
        leja_greedy(spec, W0, mesh)


# ----------------------------------------------------------------- exchange
def test_exchange_keeps_bruteforce_optimum():
    spec = BasisSpec(Interval(), 2)
    mesh = Interval().mesh(41)
    best = max(
        (log_vandermonde(mesh[list(tri)], spec), tri)
        for tri in combinations(range(41), 3)
    )
    start = PointConfiguration(
        domain=Interval(),
        points=mesh[list(best[1])],
        logdet=best[0],
        weight=W0,
    )
    out = exchange_refine(start, spec, W0, mesh, sweeps=2)
    assert np.array_equal(np.sort(out.points), np.sort(start.points))
    assert abs(out.logdet - best[0]) < 1e-12


def test_exchange_monotone_logdet():
    spec = BasisSpec(Circle(), 3)
    mesh = Circle().mesh(512)
    rng = np.random.default_rng(2)
    pick = np.sort(rng.choice(len(mesh), size=7, replace=False))
    start = PointConfiguration(
        domain=Circle(),
        points=mesh[pick],
        logdet=log_vandermonde(mesh[pick], spec),
        weight=W0,
    )
    out = exchange_refine(start, spec, W0, mesh, sweeps=3)
    assert out.logdet >= start.logdet - 1e-12


def test_exchange_circle_k2_reaches_equispaced():
    spec = BasisSpec(Circle(), 2)
    mesh = Circle().mesh(512)
    cfg, sl = leja_greedy(spec, W0, mesh)
    cfg = exchange_refine(cfg, spec, W0, mesh, sweeps=5, shortlists=sl)
    th = np.sort(cfg.points)
    gaps = np.diff(np.concatenate([th, [th[0] + 2 * math.pi]]))
    assert np.max(np.abs(gaps - 2 * math.pi / 5)) <= 2 * math.pi / 512 + 1e-12


def test_argmax_invariance_under_basis_change():
    """Exchange accepts the same moves for two bases of the same span."""
    # Chebyshev vs monomials on the interval: decisions must agree
    mesh = Interval().mesh(101)
    spec = BasisSpec(Interval(), 2)
    pts = np.array([-0.9, 0.2, 0.7])
    mono = np.vander(pts, 3, increasing=True).T
    cheb = basis_matrix(spec, pts)
    cand = np.array([-1.0, 0.5])
    mono_c = np.vander(cand, 3, increasing=True).T
    cheb_c = basis_matrix(spec, cand)
    r_mono = np.linalg.solve(mono, mono_c)
    r_cheb = np.linalg.solve(cheb, cheb_c)
    np.testing.assert_allclose(np.abs(r_mono), np.abs(r_cheb), atol=1e-9)


# ------------------------------------------------------------------ measure
def test_fekete_measure_is_uniform_probability():
    cfg = PointConfiguration(
        domain=Interval(),
        points=np.array([-0.5, 0.0, 0.5]),
        logdet=0.0,
        weight=W0,
    )
    mu = fekete_measure(cfg)
    np.testing.assert_allclose(mu.weights, [1 / 3] * 3)
    assert abs(np.sum(mu.weights) - 1.0) < 1e-15
    assert abs(np.mean(mu.atoms)) < 1e-15  # symmetric configuration


def test_symmetric_interval_config_from_search():
    spec = BasisSpec(Interval(), 4)
    mesh = Interval().mesh(801)
    cfg, sl = leja_greedy(spec, W0, mesh)
    cfg = exchange_refine(cfg, spec, W0, mesh, sweeps=3, shortlists=sl)
    mu = fekete_measure(cfg)
    assert abs(np.mean(mu.atoms)) <= 2.0 / 800  # mesh-step symmetry


def test_duplicate_points_rejected():
    with pytest.raises(InputError):
        PointConfiguration(
            domain=Interval(), points=np.array([0.1, 0.1, 0.5]), logdet=0.0, weight=W0
        )


def test_degenerate_weight_rejected():
    bad = Weight(phi=lambda p: np.full(len(np.atleast_1d(p)), -np.inf), name="bad")
    with pytest.raises(InputError):
        bad.values(np.array([0.0, 0.5]))
    with pytest.raises(InputError):
        Weight(phi=lambda p: p, alpha=1.5)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2.0, 2.0))
def test_weight_shift_never_changes_argmax(c):
    spec = BasisSpec(Interval(), 2)
    mesh = Interval().mesh(41)
    shifted = Weight(phi=lambda p, c=c: np.full(len(np.atleast_1d(p)), c), name="c")
    a, _ = leja_greedy(spec, W0, mesh)
    b, _ = leja_greedy(spec, shifted, mesh)
    assert np.array_equal(a.points, b.points)


def test_rotation_shift_of_circle_optimum():
    """On the circle a local optimum's rotation by the mesh step scores the
    same logdet (rotation invariance of the determinant)."""
    spec = BasisSpec(Circle(), 2)
    mesh = Circle().mesh(512)
    cfg, sl = leja_greedy(spec, W0, mesh)
    cfg = exchange_refine(cfg, spec, W0, mesh, sweeps=4, shortlists=sl)
    step = 2 * math.pi / 512
    rotated = np.mod(cfg.points + step + math.pi, 2 * math.pi) - math.pi
    assert abs(log_vandermonde(rotated, spec) - cfg.logdet) <= 1e-9


def _sphere_matrix_rowwise(pts, k):
    """The row-by-row build: cos(m phi) and sin(m phi) once per (l, m), rows
    stacked at the end."""
    from feketelab.fekete import _legendre_norm_matrix

    phi = np.arctan2(pts[:, 1], pts[:, 0])
    p = _legendre_norm_matrix(pts[:, 2], k)
    rows = []
    for l in range(k + 1):
        rows.append(p[(l, 0)])
        for m in range(1, l + 1):
            rows.append(math.sqrt(2.0) * p[(l, m)] * np.cos(m * phi))
            rows.append(math.sqrt(2.0) * p[(l, m)] * np.sin(m * phi))
    return np.stack(rows)


def test_sphere_matrix_matches_the_rowwise_build_with_one_trig_pair_per_order(monkeypatch):
    from feketelab import fekete

    mesh = Sphere().mesh(2000)
    for pts in (mesh, mesh[:1]):
        for k in range(9):
            want = _sphere_matrix_rowwise(pts, k)
            got = fekete._sphere_matrix(pts, k)
            assert got.shape == want.shape == ((k + 1) ** 2, len(pts))
            assert got.tobytes() == want.tobytes()
    calls = []
    for name in ("cos", "sin"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, real=real, name=name: calls.append(name) or real(x))
    fekete._sphere_matrix(mesh, 8)
    assert calls.count("cos") == calls.count("sin") == 8  # rowwise: 36 each
