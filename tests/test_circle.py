"""Circle/disc spectral machinery: oracles first, then the module under test.

Independent oracles: a direct O(M^2) DFT sum for the analysis step, Poisson
quadrature for the harmonic extension, and the per-mode multiplier for the
conjugate transforms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketelab.circle import (
    CircleFunction,
    CircleGrid,
    HolderSpec,
    bump_u_minus,
    conjugate_disc,
    derivs_at_one,
    dual_basis,
    harmonic_extend,
    hilbert_T,
    hilbert_T1,
    holder_norm,
    moment_rho,
    rho1,
    rho2,
)
from feketelab.circle import _analyze, _conjugate_rows
from feketelab.errors import DomainError, InputError, PreconditionError

GRID = CircleGrid(64)


# ---------------------------------------------------------------- oracles
def dft_oracle(samples):
    """Direct trigonometric transform, O(M^2), no FFT involved."""
    m = len(samples)
    theta = 2.0 * np.pi * np.arange(m) / m - np.pi
    a = np.zeros(m // 2 + 1)
    b = np.zeros(m // 2 + 1)
    a[0] = np.mean(samples)
    for k in range(1, m // 2):
        a[k] = 2.0 / m * np.sum(samples * np.cos(k * theta))
        b[k] = 2.0 / m * np.sum(samples * np.sin(k * theta))
    a[m // 2] = np.mean(samples * np.cos(m // 2 * theta))
    return a, b


def poisson_oracle(u, z, n_quad=200000):
    """Poisson integral of the boundary interpolant by brute quadrature."""
    theta = 2.0 * np.pi * np.arange(n_quad) / n_quad - np.pi
    k = np.arange(len(u.a))
    vals = u.a @ np.cos(np.outer(k, theta)) + u.b @ np.sin(np.outer(k, theta))
    r, phi = abs(z), np.angle(complex(z))
    kernel = (1 - r * r) / (1 - 2 * r * np.cos(theta - phi) + r * r)
    return float(np.mean(kernel * vals))


def multiplier_oracle(u):
    """Conjugate series built mode by mode: cos k -> sin k, sin k -> -cos k."""
    theta = u.grid.nodes
    out = np.zeros_like(theta)
    for k in range(1, len(u.a)):
        out += u.a[k] * np.sin(k * theta) - u.b[k] * np.cos(k * theta)
    return out


# ---------------------------------------------------------------- analyze
def test_analyze_pure_cosine_mode():
    g = CircleGrid(8)
    u = CircleFunction(g, np.cos(g.nodes))
    assert abs(u.a[1] - 1.0) < 1e-14
    coeffs = np.concatenate([u.a, u.b])
    coeffs[1] -= 1.0
    assert np.max(np.abs(coeffs)) < 1e-14


def test_analyze_constant():
    g = CircleGrid(8)
    u = CircleFunction(g, np.full(8, 3.0))
    assert abs(u.a[0] - 3.0) < 1e-14
    assert np.max(np.abs(u.a[1:])) < 1e-14 and np.max(np.abs(u.b)) < 1e-14


def test_analyze_mixed_modes_against_dft_oracle():
    g = CircleGrid(64)
    samples = np.cos(3 * g.nodes) + 2.0 * np.sin(5 * g.nodes)
    u = CircleFunction(g, samples)
    a_ref, b_ref = dft_oracle(samples)
    np.testing.assert_allclose(u.a, a_ref, atol=1e-13)
    np.testing.assert_allclose(u.b, b_ref, atol=1e-13)
    assert abs(u.a[3] - 1.0) < 1e-13 and abs(u.b[5] - 2.0) < 1e-13
    others = np.concatenate([np.delete(u.a, 3), np.delete(u.b, 5)])
    assert np.max(np.abs(others)) < 1e-13


def test_analyze_roundtrip_is_identity():
    g = CircleGrid(32)
    rng = np.random.default_rng(0)
    samples = rng.normal(size=32)
    u = CircleFunction(g, samples)
    v = CircleFunction.from_coeffs(g, u.a, u.b)
    np.testing.assert_allclose(v.samples, samples, atol=1e-12)


def test_analyze_length_mismatch():
    with pytest.raises(InputError):
        CircleFunction(GRID, np.zeros(GRID.m + 1))


# ------------------------------------------------------ lazy coefficients
def test_construction_and_arithmetic_run_no_fft(fft_calls):
    rng = np.random.default_rng(1)
    u = CircleFunction(GRID, rng.normal(size=GRID.m))
    v = CircleFunction(GRID, rng.normal(size=GRID.m))
    for w in (u + v, u - v, u + 0.5, u - 0.5, 2.0 * u, u * 3.0, -u):
        assert isinstance(w, CircleFunction)
    assert sum(fft_calls.values()) == 0


def test_coefficients_computed_on_first_read(fft_calls):
    rng = np.random.default_rng(2)
    for m in (2**j for j in range(3, 12)):
        g = CircleGrid(m)
        u = CircleFunction(g, rng.normal(size=m))
        a_ref, b_ref = _analyze(g, u.samples)
        fft_calls.clear()
        assert u.a.tobytes() == a_ref.tobytes()
        assert u.b.tobytes() == b_ref.tobytes()
        assert fft_calls["rfft"] == 1
        assert u.a is u.a and u.b is u.b
        assert fft_calls["rfft"] == 1
        for arr in (u.a, u.b):
            with pytest.raises(ValueError):
                arr[0] = 1.0


def test_T1_of_fresh_function_runs_one_transform_pair(fft_calls):
    u = CircleFunction(GRID, np.random.default_rng(3).normal(size=GRID.m))
    hilbert_T1(u)
    assert dict(fft_calls) == {"rfft": 1, "irfft": 1}


def test_circle_function_is_immutable():
    u = CircleFunction(GRID, np.cos(GRID.nodes))
    for coeffs_read in (False, True):
        if coeffs_read:
            assert u.a[1] == pytest.approx(1.0)
        for name in ("grid", "samples", "_a", "_b", "extra"):
            with pytest.raises(AttributeError):
                setattr(u, name, None)


def test_grid_signs_are_cached_and_read_only():
    g = CircleGrid(16)
    assert g.signs is g.signs
    assert g.signs.tolist() == [(-1.0) ** k for k in range(9)]
    with pytest.raises(ValueError):
        g.signs[0] = 2.0


def test_grid_must_be_power_of_two():
    with pytest.raises(InputError):
        CircleGrid(48)
    with pytest.raises(InputError):
        CircleGrid(4)


# ------------------------------------------------------- harmonic extension
def test_extend_cos_is_re_z():
    g = CircleGrid(64)
    u = CircleFunction(g, np.cos(g.nodes))
    assert abs(harmonic_extend(u, 0.5) - 0.5) < 1e-14


def test_extend_at_zero_is_mean():
    g = CircleGrid(64)
    rng = np.random.default_rng(1)
    u = CircleFunction(g, rng.normal(size=64))
    assert abs(harmonic_extend(u, 0.0) - u.a[0]) < 1e-14


def test_extend_cos2_against_poisson_quadrature():
    g = CircleGrid(64)
    u = CircleFunction(g, np.cos(2 * g.nodes))
    z = 0.3 * np.exp(1j * np.pi / 4)
    val = harmonic_extend(u, z)
    assert abs(val - (z * z).real) < 1e-12  # Re z^2 = 0.09 cos(pi/2) = 0
    assert abs(val) < 1e-12
    assert abs(val - poisson_oracle(u, z)) < 1e-9


def test_extend_rejects_boundary_points():
    u = CircleFunction(GRID, np.cos(GRID.nodes))
    with pytest.raises(DomainError):
        harmonic_extend(u, 1.0)
    with pytest.raises(DomainError):
        harmonic_extend(u, 1.2j)


# --------------------------------------------------------- Hilbert transforms
def test_T_on_generators():
    g = CircleGrid(64)
    cos1 = CircleFunction(g, np.cos(g.nodes))
    sin1 = CircleFunction(g, np.sin(g.nodes))
    np.testing.assert_allclose(hilbert_T(cos1).samples, np.sin(g.nodes), atol=1e-13)
    np.testing.assert_allclose(hilbert_T(sin1).samples, -np.cos(g.nodes), atol=1e-13)


def test_T_mixed_modes_against_multiplier_oracle():
    g = CircleGrid(64)
    u = CircleFunction(g, np.cos(7 * g.nodes) - 4.0 * np.sin(2 * g.nodes))
    expected = np.sin(7 * g.nodes) + 4.0 * np.cos(2 * g.nodes)
    np.testing.assert_allclose(hilbert_T(u).samples, expected, atol=1e-12)
    np.testing.assert_allclose(hilbert_T(u).samples, multiplier_oracle(u), atol=1e-12)


def test_T_exact_on_all_modes_below_nyquist():
    g = CircleGrid(256)
    worst = 0.0
    for k in range(1, g.m // 2):
        ck = CircleFunction(g, np.cos(k * g.nodes))
        sk = CircleFunction(g, np.sin(k * g.nodes))
        worst = max(worst, np.max(np.abs(hilbert_T(ck).samples - np.sin(k * g.nodes))))
        worst = max(worst, np.max(np.abs(hilbert_T(sk).samples + np.cos(k * g.nodes))))
    assert worst <= 1e-12


def coefficient_T(u):
    """T through the coefficient arrays: (a_k, b_k) -> (-b_k, a_k), DC and
    Nyquist dropped, resynthesized from coefficients."""
    va, vb = -u.b.copy(), u.a.copy()
    va[[0, -1]] = 0.0
    vb[[0, -1]] = 0.0
    return CircleFunction.from_coeffs(u.grid, va, vb).samples


@pytest.mark.parametrize("shape", [(1,), (2,), (6, 2)])
def test_conjugate_rows_is_the_per_row_transform_bit_for_bit(shape, fft_calls):
    rng = np.random.default_rng(4)
    for m in (8, 256, 2048):
        g = CircleGrid(m)
        rows = rng.normal(size=shape + (m,)) * 10.0 ** rng.uniform(-10, 3, size=shape + (1,))
        rows[..., : m // 4] = 0.0  # exact zeros, like the back-half bumps
        flat = [CircleFunction(g, r) for r in rows.reshape(-1, m)]
        T = np.stack([coefficient_T(u) for u in flat])
        T1 = T - T[:, g.index_of_one, None]
        for shift, one_row, want in ((False, hilbert_T, T), (True, hilbert_T1, T1)):
            fft_calls.clear()
            got = _conjugate_rows(g, rows, shift)
            assert dict(fft_calls) == {"rfft": 1, "irfft": 1}
            assert got.shape == rows.shape
            assert got.tobytes() == want.tobytes()
            per_row = np.stack([one_row(u).samples for u in flat])
            assert per_row.tobytes() == want.tobytes()


def test_conjugate_rows_rejects_non_finite_rows():
    rows = np.zeros((2, GRID.m))
    rows[1, 3] = np.nan
    with pytest.raises(InputError):
        _conjugate_rows(GRID, rows, True)
    with pytest.raises(InputError):
        _conjugate_rows(GRID, np.zeros((2, GRID.m + 1)), True)


def test_T1_shifts_value_at_one():
    g = CircleGrid(64)
    cos1 = CircleFunction(g, np.cos(g.nodes))
    sin1 = CircleFunction(g, np.sin(g.nodes))
    np.testing.assert_allclose(hilbert_T1(cos1).samples, np.sin(g.nodes), atol=1e-13)
    np.testing.assert_allclose(
        hilbert_T1(sin1).samples, -np.cos(g.nodes) + 1.0, atol=1e-13
    )
    assert hilbert_T1(sin1).value_at_one() == 0.0


def test_T1_vanishes_at_one_for_dual_basis():
    g = CircleGrid(256)
    u1, _ = dual_basis(g)
    assert abs(hilbert_T1(u1).value_at_one()) < 1e-15


def test_T1_commutes_with_theta_derivative():
    g = CircleGrid(256)
    rng = np.random.default_rng(2)
    a = np.zeros(g.m // 2 + 1)
    b = np.zeros(g.m // 2 + 1)
    a[1:40] = rng.normal(size=39)
    b[1:40] = rng.normal(size=39)
    u = CircleFunction.from_coeffs(g, a, b)
    lhs = hilbert_T1(u).theta_derivative().samples
    rhs = hilbert_T(u.theta_derivative()).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
)
def test_T1_linearity(alpha, beta, k1, k2):
    g = CircleGrid(64)
    u = CircleFunction(g, np.cos(k1 * g.nodes))
    v = CircleFunction(g, np.sin(k2 * g.nodes))
    lhs = hilbert_T1(alpha * u + beta * v).samples
    rhs = alpha * hilbert_T1(u).samples + beta * hilbert_T1(v).samples
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ----------------------------------------------------------- conjugate disc
def test_conjugate_disc_of_sine_is_z_minus_one():
    g = CircleGrid(64)
    u = CircleFunction(g, np.sin(g.nodes))
    disc = conjugate_disc(u)
    expected = np.exp(1j * g.nodes) - 1.0
    np.testing.assert_allclose(disc.traces[0], expected, atol=1e-13)


def test_conjugate_disc_of_zero():
    disc = conjugate_disc(CircleFunction(GRID, np.zeros(GRID.m)))
    assert np.max(np.abs(disc.traces)) == 0.0


def test_conjugate_disc_of_cosine_is_iz():
    g = CircleGrid(64)
    u = CircleFunction(g, np.cos(g.nodes))
    disc = conjugate_disc(u)
    np.testing.assert_allclose(disc.traces[0], 1j * np.exp(1j * g.nodes), atol=1e-13)
    assert disc.negative_energy_ratio() <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_conjugate_disc_one_sided_spectrum(seed):
    g = CircleGrid(128)
    rng = np.random.default_rng(seed)
    u = CircleFunction(g, rng.normal(size=g.m))
    disc = conjugate_disc(u)
    assert disc.negative_energy_ratio() <= 1e-10
    f1 = disc.boundary_value_at_one()
    assert abs(f1 - 1j * u.value_at_one()) < 1e-10


# -------------------------------------------------------- derivatives at 1
def test_derivs_of_coordinate_functions():
    g = CircleGrid(64)
    d = derivs_at_one(CircleFunction(g, np.cos(g.nodes)))
    assert abs(d.dx - 1.0) < 1e-13 and abs(d.dy) < 1e-13
    d = derivs_at_one(CircleFunction(g, np.sin(g.nodes)))
    assert abs(d.dy - 1.0) < 1e-13 and abs(d.dx) < 1e-13
    assert abs(d.dtheta - 1.0) < 1e-13


def test_derivs_bump_u_minus():
    g = CircleGrid(2048)
    u = bump_u_minus(g)
    d = derivs_at_one(u)
    assert abs(d.dx + 1.0) < 1e-6
    assert abs(d.dy) < 1e-8


def test_vanishing_front_half_identities():
    """dy=0, dyy=dx=moment1, dxx=-dx, dxy=moment2 for back-half functions."""
    g = CircleGrid(2048)
    for u in (bump_u_minus(g), *dual_basis(g)):
        d = derivs_at_one(u)
        m1, m2 = moment_rho(u, 1), moment_rho(u, 2)
        assert abs(d.dy) < 1e-6
        assert abs(d.dyy - d.dx) < 1e-6
        assert abs(d.dxx + d.dx) < 1e-6
        assert abs(d.dx - m1) < 1e-6
        assert abs(d.dxy - m2) < 1e-6


# ---------------------------------------------------------------- moments
def test_moment_of_zero():
    assert moment_rho(CircleFunction(GRID, np.zeros(GRID.m)), 1) == 0.0


def test_moment_of_nonnegative_backhalf_bump_is_negative():
    g = CircleGrid(512)
    u = bump_u_minus(g)  # nonnegative by construction, rho1 < 0 off theta=0
    assert np.min(u.samples) >= 0.0
    assert moment_rho(u, 1) < 0.0


def test_moment_rejects_front_support():
    g = CircleGrid(64)
    with pytest.raises(PreconditionError):
        moment_rho(CircleFunction(g, np.cos(g.nodes)), 1)


def test_moments_of_dual_basis_are_kronecker():
    g = CircleGrid(2048)
    u1, u2 = dual_basis(g)
    assert abs(moment_rho(u1, 1) - 1.0) < 1e-8
    assert abs(moment_rho(u1, 2)) < 1e-8
    assert abs(moment_rho(u2, 1)) < 1e-8
    assert abs(moment_rho(u2, 2) - 1.0) < 1e-8


def test_kernels_match_quoted_formulas():
    theta = np.linspace(2.0, 3.0, 7)
    np.testing.assert_allclose(rho1(theta), 1.0 / (2 * np.pi * (np.cos(theta) - 1)))
    np.testing.assert_allclose(
        rho2(theta), -np.sin(theta) / (2 * np.pi * (np.cos(theta) - 1) ** 2)
    )


# -------------------------------------------------------------- dual basis
def test_dual_basis_supported_in_back_half():
    g = CircleGrid(1024)
    for u in dual_basis(g):
        front = np.abs(g.nodes) <= np.pi / 2 + 1e-12
        assert np.max(np.abs(u.samples[front])) == 0.0


def test_dual_basis_spectral_derivatives():
    g = CircleGrid(2048)
    u1, u2 = dual_basis(g)
    d1, d2 = derivs_at_one(u1), derivs_at_one(u2)
    assert abs(d1.dx - 1.0) < 1e-8 and abs(d1.dxy) < 1e-8
    assert abs(d2.dx) < 1e-8 and abs(d2.dxy - 1.0) < 1e-8


# ------------------------------------------------------------- Hoelder norm
def test_holder_norm_zero():
    assert holder_norm(CircleFunction(GRID, np.zeros(GRID.m)), HolderSpec(0, 0.5)) == 0.0


def test_holder_norm_dominates_sup():
    g = CircleGrid(256)
    u = CircleFunction(g, np.cos(g.nodes))
    assert holder_norm(u, HolderSpec(0, 0.5)) >= 1.0


def test_holder_norm_grid_stable():
    vals = {}
    for m in (2048, 8192):
        g = CircleGrid(m)
        vals[m] = holder_norm(CircleFunction(g, np.cos(g.nodes)), HolderSpec(0, 0.5))
    assert abs(vals[2048] - vals[8192]) <= 0.02 * vals[8192]


def test_holder_norm_is_lower_bound_increasing_in_m():
    for m1, m2 in ((512, 1024), (1024, 2048)):
        g1, g2 = CircleGrid(m1), CircleGrid(m2)
        u1 = CircleFunction(g1, np.cos(3 * g1.nodes) + 0.5 * np.sin(7 * g1.nodes))
        u2 = CircleFunction(g2, np.cos(3 * g2.nodes) + 0.5 * np.sin(7 * g2.nodes))
        spec = HolderSpec(1, 0.5)
        assert holder_norm(u1, spec) <= holder_norm(u2, spec) * (1 + 1e-12)


def test_holder_spec_validation():
    with pytest.raises(InputError):
        HolderSpec(5, 0.5)
    with pytest.raises(InputError):
        HolderSpec(0, 1.0)


# ------------------------------------------------- operator norm surrogate
def test_T1_operator_ratio_surrogate_finite_and_stable():
    """Measured sup ratio ||T1 u|| / ||u|| over a fixed band-limited family."""
    spec = HolderSpec(0, 0.5)
    measured = {}
    for m in (256, 512):
        g = CircleGrid(m)
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(100):
            a = np.zeros(m // 2 + 1)
            b = np.zeros(m // 2 + 1)
            a[1:33] = rng.normal(size=32)
            b[1:33] = rng.normal(size=32)
            u = CircleFunction.from_coeffs(g, a, b)
            worst = max(worst, holder_norm(hilbert_T1(u), spec) / holder_norm(u, spec))
        measured[m] = worst
    assert all(np.isfinite(v) for v in measured.values())
    # lower-bound estimates should not shrink materially as M grows
    assert measured[512] >= measured[256] * 0.95
