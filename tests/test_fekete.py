"""Bases, log-Vandermonde, greedy and exchange search: oracle-backed."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from feketelab.errors import DomainError, InputError, InsufficientMeshError
from feketelab.fekete import (
    BasisSpec,
    Circle,
    CircleArc,
    Interval,
    PointConfiguration,
    Sphere,
    SphericalCap,
    basis_dim,
    basis_matrix,
    eval_basis,
    exchange_refine,
    fekete_1d,
    fekete_measure,
    leja_greedy,
    log_vandermonde,
)


def _run_matrix(mesh, k):
    """The search's mesh-by-basis matrix at degree k, as `cli` builds it."""
    return np.ascontiguousarray(basis_matrix(BasisSpec(Sphere(), k), mesh).T)


def _sphere_logdets(mesh, k, subsets):
    """log|det| of the degree-k sphere basis at each row of mesh indices,
    as one batched slogdet."""
    return np.linalg.slogdet(_run_matrix(mesh, k)[subsets])[1]


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
def test_greedy_beats_random_configs():
    spec = BasisSpec(Sphere(), 2)
    mesh = Sphere().mesh(2000)
    cfg, _ = leja_greedy(spec, mesh, _run_matrix(mesh, 2))
    rng = np.random.default_rng(1)
    picks = np.array([rng.choice(len(mesh), size=cfg.size, replace=False) for _ in range(100)])
    wins = int(np.sum(cfg.logdet >= _sphere_logdets(mesh, 2, picks)))
    assert wins >= 99


def test_greedy_rejects_small_mesh():
    mesh = Sphere().mesh(60)
    with pytest.raises(InsufficientMeshError, match="at least 5 N_k = 80"):
        leja_greedy(BasisSpec(Sphere(), 3), mesh, _run_matrix(mesh, 3))


def test_greedy_rank_deficient_mesh():
    mesh = np.repeat(Sphere().mesh(7)[3:4], 40, axis=0)  # one node, 40 times
    with pytest.raises(InsufficientMeshError, match=r"k = 1: .*rank < N_k"):
        leja_greedy(BasisSpec(Sphere(), 1), mesh, _run_matrix(mesh, 1))


# ----------------------------------------------------------------- exchange
def test_exchange_keeps_bruteforce_optimum():
    """k = 1 on a 40-node sphere mesh: the best of all C(40, 4) = 91 390
    four-subsets is exchange-optimal, so exchange keeps it."""
    spec = BasisSpec(Sphere(), 1)
    mesh = Sphere().mesh(40)
    subsets = np.array(list(combinations(range(40), 4)))
    logdets = _sphere_logdets(mesh, 1, subsets)
    best = subsets[int(np.argmax(logdets))]
    start = PointConfiguration(
        domain=Sphere(),
        points=mesh[best],
        logdet=log_vandermonde(mesh[best], spec),
    )
    assert abs(start.logdet - np.max(logdets)) < 1e-12
    _, state = leja_greedy(spec, mesh, _run_matrix(mesh, 1))
    out = exchange_refine(start, spec, mesh, sweeps=2, state=state)
    assert np.array_equal(out.points, start.points)
    assert out.logdet == start.logdet


def test_exchange_monotone_logdet():
    spec = BasisSpec(Sphere(), 3)
    mesh = Sphere().mesh(2000)
    rng = np.random.default_rng(2)
    pick = np.sort(rng.choice(len(mesh), size=16, replace=False))
    start = PointConfiguration(
        domain=Sphere(),
        points=mesh[pick],
        logdet=log_vandermonde(mesh[pick], spec),
    )
    _, state = leja_greedy(spec, mesh, _run_matrix(mesh, 3))
    out = exchange_refine(start, spec, mesh, sweeps=3, state=state)
    assert out.logdet > start.logdet
    assert out.logdet == log_vandermonde(out.points, spec)


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
    )
    mu = fekete_measure(cfg)
    np.testing.assert_allclose(mu.weights, [1 / 3] * 3)
    assert abs(np.sum(mu.weights) - 1.0) < 1e-15
    assert abs(np.mean(mu.atoms)) < 1e-15  # symmetric configuration


def test_duplicate_points_rejected():
    with pytest.raises(InputError):
        PointConfiguration(
            domain=Interval(), points=np.array([0.1, 0.1, 0.5]), logdet=0.0
        )


def test_rotation_shift_of_circle_optimum():
    """On the circle the optimum's rotation by a mesh step scores the same
    logdet (rotation invariance of the determinant)."""
    spec = BasisSpec(Circle(), 2)
    cfg, _ = fekete_1d(spec)
    step = 2 * math.pi / 512
    rotated = np.mod(cfg.points + step + math.pi, 2 * math.pi) - math.pi
    assert abs(log_vandermonde(rotated, spec) - cfg.logdet) <= 1e-9


def _legendre_norm_matrix(ct, k):
    """Fully normalized associated Legendre values P~_l^m(ct), no
    Condon-Shortley sign, normalized so Y integrates to 1 on the sphere:
    every (l, m) column at once, in a dict."""
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    p = {}
    p[(0, 0)] = np.full_like(ct, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(1, k + 1):
        p[(m, m)] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * p[(m - 1, m - 1)]
    for m in range(0, k):
        p[(m + 1, m)] = math.sqrt(2.0 * m + 3.0) * ct * p[(m, m)]
    for m in range(0, k + 1):
        for l in range(m + 2, k + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[(l, m)] = a * (ct * p[(l - 1, m)] - b * p[(l - 2, m)])
    return p


def _sphere_matrix_rowwise(pts, k):
    """The row-by-row build: every Legendre column held at once, cos(m phi)
    and sin(m phi) once per (l, m), rows stacked at the end."""
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
    """Byte for byte, on the sphere, one node and a cap; the transpose is
    the C-order mesh-by-basis matrix of the search."""
    from feketelab import fekete

    mesh = Sphere().mesh(2000)
    cap = SphericalCap((0.0, 0.0, 1.0), 1.0).mesh(2000)
    for pts in (mesh, mesh[:1], cap):
        for k in range(9):
            want = _sphere_matrix_rowwise(pts, k)
            got = fekete._sphere_matrix(pts, k)
            assert got.shape == want.shape == ((k + 1) ** 2, len(pts))
            assert got.T.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
    calls = []
    for name in ("cos", "sin"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda x, real=real, name=name: calls.append(name) or real(x))
    fekete._sphere_matrix(mesh, 8)
    assert calls.count("cos") == calls.count("sin") == 8  # rowwise: 36 each


def test_sphere_mesh_matrix_is_built_once_without_a_transpose_copy():
    """The sphere basis is written into one node-major buffer: the search's
    mesh-by-basis matrix `basis_matrix(...).T` in C order shares its
    memory, and building it holds little besides that buffer (a build in
    basis-major order plus the transposed copy peaks at twice its size)."""
    mesh = Sphere().mesh(6000)
    tracemalloc.start()
    try:
        b = basis_matrix(BasisSpec(Sphere(), 8), mesh)
        w = np.ascontiguousarray(b.T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(w, b)
    assert peak <= 1.25 * w.nbytes, peak / w.nbytes
