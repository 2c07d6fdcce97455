"""Fekete points on S^2 by kernel Newton: the reproducing kernel against
the harmonic Gram matrix, gradient and Hessian against central
differences, the solver's contract (logdet, KKT residual, Hadamard bound,
rotation gauge, saddles, failure) and the Lagrange-function scan."""

import math

import numpy as np
import pytest

from feketelab import fekete as fk
from feketelab.errors import InputError, NewtonFailure
from feketelab.fekete import BasisSpec, Sphere, SphericalCap, basis_matrix, fekete_sphere, log_vandermonde, max_lagrange


def _points(n, seed=0, jitter=0.01):
    """The n-node spiral, jittered off its symmetries and renormalised."""
    x = Sphere().mesh(n) + jitter * np.random.default_rng(seed).standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1)[:, None]


@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_kernel_is_the_harmonic_gram_matrix(k):
    """Addition theorem: kappa_k(x . y) = sum of Y(x) Y(y) over the
    orthonormal harmonics of degree <= k, and kappa', kappa'' are its
    derivatives in t."""
    x = _points(20, seed=k, jitter=0.3)
    t = np.clip(x @ x.T, -1.0, 1.0)
    a = basis_matrix(BasisSpec(Sphere(), k), x)
    assert np.max(np.abs(fk._kernel(t, k)[0] - a.T @ a)) <= 1e-12 * (k + 1) ** 2
    h = 1e-5
    s = np.linspace(-0.9, 0.9, 7)
    for lower in (0, 1):
        want = (fk._kernel(s + h, k)[lower] - fk._kernel(s - h, k)[lower]) / (2 * h)
        got = fk._kernel(s, k)[lower + 1]
        assert np.max(np.abs(got - want)) <= 1e-6 * (1.0 + np.max(np.abs(want)))


def test_inverse_cholesky_inverts_the_factor_and_finds_the_first_bad_pivot():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((30, 30))
    a = b @ b.T + np.eye(30)
    z, bad = fk._inverse_cholesky(a)
    assert bad == 30
    assert np.allclose(z, np.linalg.inv(np.linalg.cholesky(a)), rtol=0.0, atol=1e-12)
    a[20, 20] = -1.0
    z, bad = fk._inverse_cholesky(a)
    assert bad == 20 and np.allclose(z[:20, :20], np.linalg.inv(np.linalg.cholesky(a[:20, :20])), atol=1e-12)


@pytest.mark.parametrize("k", [2, 4, 8])
def test_gradient_and_hessian_match_central_differences(k):
    """Of (1/2) logdet K along the retraction (x_i + v_i)/|x_i + v_i| in the
    tangent frames: the gradient coordinate by coordinate, the Hessian as
    second differences along random directions and along pairs of
    coordinates."""
    n = (k + 1) ** 2
    x = _points(n, seed=k)
    t, kap, z, value = fk._sphere_state(x, k)
    grad, hess, frames = fk._sphere_derivatives(x, t, kap, z)

    def f(s):
        y = x + np.einsum("ai,aid->id", s.reshape(2, n), frames)
        return fk._sphere_state(y / np.linalg.norm(y, axis=1)[:, None], k)[3]

    h = 1e-5
    eye = np.eye(2 * n)
    fd_grad = np.array([(f(h * e) - f(-h * e)) / (2 * h) for e in eye])
    assert np.max(np.abs(fd_grad - grad.reshape(-1))) <= 1e-6 * np.max(np.abs(grad))
    assert np.max(np.abs(hess - hess.T)) <= 1e-12 * np.max(np.abs(hess))
    rng = np.random.default_rng(k)
    h = 1e-4
    scale = np.max(np.abs(hess))
    for _ in range(4):
        d = rng.standard_normal(2 * n)
        fd = (f(h * d) - 2.0 * value + f(-h * d)) / h**2
        assert abs(fd - d @ hess @ d) <= 1e-4 * scale * (d @ d)
    for i, j in ((0, 1), (0, n), (3, n + 5), (n - 1, 2 * n - 1)):
        d = eye[i] + eye[j]
        fd = (f(h * d) - 2.0 * value + f(-h * d)) / h**2
        want = hess[i, i] + hess[j, j] + 2.0 * hess[i, j]
        assert abs(fd - want) <= 1e-4 * scale, (i, j)


@pytest.mark.parametrize("k", range(0, 7))
def test_sphere_solve_contract(k):
    """The logdet is the basis matrix's, the KKT residual within tolerance,
    the Hadamard gap nonnegative, and every Lagrange function is at most 1
    on a 20 000-node mesh and exactly 1 at its own point."""
    spec = BasisSpec(Sphere(), k)
    config, residual, steps = fekete_sphere(spec)
    n = (k + 1) ** 2
    assert config.size == n and Sphere().contains(config.points)
    assert abs(config.logdet - log_vandermonde(config.points, spec)) <= 1e-12 * max(1.0, abs(config.logdet))
    assert 0.0 <= residual <= fk.KKT_TOL and 0 <= steps < fk._TRUST_MAX_STEPS
    assert 0.5 * n * math.log(n / (4 * math.pi)) - config.logdet >= -1e-12
    assert max_lagrange({k: config}, Sphere().mesh(20000))[k] <= 1.0 + fk.LAGRANGE_TOL
    assert abs(max_lagrange({k: config}, config.points)[k] - 1.0) <= 1e-10


def test_tetrahedron_meets_the_hadamard_bound():
    """At k = 1 the kernel matrix of the regular tetrahedron is diagonal,
    so its logdet is Hadamard's bound 2 log(1/pi) exactly."""
    config, _, _ = fekete_sphere(BasisSpec(Sphere(), 1))
    assert abs(config.logdet - 2.0 * math.log(1.0 / math.pi)) <= 1e-12
    dots = config.points @ config.points.T
    assert np.max(np.abs(dots[~np.eye(4, dtype=bool)] + 1.0 / 3.0)) <= 1e-12


def test_steps_do_not_turn_the_configuration():
    """Every step is orthogonal to the rotation fields, so the solve does
    not turn the configuration as a whole: the sum of s_i x (x_i - s_i)
    over the points, the first-order rotation from the spiral start s,
    stays under 5% of the total move (0.6% at k = 1, where the tetrahedron
    is reached by moves of about 0.15 rad per point; a free rotation would
    put it near 100%)."""
    config, _, _ = fekete_sphere(BasisSpec(Sphere(), 1))
    start = Sphere().mesh(4)
    spin = np.sum(np.cross(start, config.points - start), axis=0)
    assert np.linalg.norm(spin) <= 0.05 * np.sum(np.linalg.norm(config.points - start, axis=1))


def test_rotation_basis_spans_the_rotation_fields():
    x = _points(9, seed=1, jitter=0.2)
    _, _, frames = fk._sphere_derivatives(x, *fk._sphere_state(x, 2)[:3])
    q = fk._rotation_basis(frames)
    assert q.shape == (3, 18) and np.allclose(q @ q.T, np.eye(3), atol=1e-14)
    for axis in np.eye(3):
        field = np.cross(axis, x)
        coords = np.einsum("aid,id->ai", frames, field).reshape(-1)
        assert np.allclose(coords, q.T @ (q @ coords), atol=1e-13)
    one = fk._rotation_basis(frames[:, :1])
    assert one.shape == (2, 2)  # one point: the rotations span its tangent plane


def test_k4_leaves_the_symmetric_saddle_of_the_spiral():
    """The spiral is symmetric under a half-turn, and so are its Newton
    iterates; at k = 4 they settle first on a saddle at 8.068674 whose
    projected Hessian is indefinite, and the solve must go on to a local
    maximum above it."""
    config, _, _ = fekete_sphere(BasisSpec(Sphere(), 4))
    assert config.logdet >= 8.0698


def test_newton_that_cannot_settle_raises(monkeypatch):
    monkeypatch.setattr(fk, "_TRUST_MAX_STEPS", 3)
    with pytest.raises(NewtonFailure, match="did not settle within 3 steps"):
        fekete_sphere(BasisSpec(Sphere(), 4))


def test_fekete_sphere_takes_the_full_sphere_only():
    with pytest.raises(InputError, match="not the cap"):
        fekete_sphere(BasisSpec(SphericalCap((0, 0, 1), 1.0), 2))


def test_max_lagrange_scans_the_whole_mesh_in_blocks(monkeypatch):
    """One scan verifies degrees 2..5: blocks of 4096 nodes and blocks of 7
    give the same values, each the largest |l_i| over the mesh computed
    densely.  Every degree screens the leading rows of the block's
    harmonics at the largest degree, which are its own harmonics bit for
    bit."""
    configs = {k: fekete_sphere(BasisSpec(Sphere(), k))[0] for k in range(2, 6)}
    mesh = Sphere().mesh(3000)
    got = max_lagrange(configs, mesh)
    monkeypatch.setattr(fk, "_LAGRANGE_BLOCK", 7)
    assert {k: v.hex() for k, v in max_lagrange(configs, mesh).items()} == {k: v.hex() for k, v in got.items()}
    block = mesh[:4096]
    top = basis_matrix(BasisSpec(Sphere(), 5), block)
    for k, config in configs.items():
        spec = BasisSpec(Sphere(), k)
        dense = np.max(np.abs(np.linalg.solve(basis_matrix(spec, config.points), basis_matrix(spec, mesh))))
        assert abs(got[k] - dense) <= 1e-12
        assert top[: (k + 1) ** 2].tobytes() == basis_matrix(spec, block).tobytes()
    assert max_lagrange({}, mesh) == {}
