"""Disc families: closed forms, attachment, holomorphy, capture bounds."""

import math

import numpy as np
import pytest

from feketelab.circle import CircleFunction, CircleGrid, bump_u_minus, derivs_at_one, dual_basis
from feketelab import discs
from feketelab.discs import (
    FamilyParams,
    InverseProblem,
    _capture,
    _contract,
    build_u_delta_gamma,
    build_u_zt,
    calibrate,
    capture_F,
    capture_Fprime,
    family_F,
    family_Fprime,
    family_Fprime_tau,
    quadratic_minorant_discriminant,
    solve_quantitative_inverse,
)
from feketelab.errors import ContractionFailure, DomainError, PreconditionError
from feketelab.rng import Rng

GRID = CircleGrid(1024)


def _rand_param(rng, n, radius, t):
    v = np.asarray(rng.sphere(2 * n))
    r = radius * (0.1 + 0.85 * rng.uniform())
    return FamilyParams.from_complex(r * (v[:n] + 1j * v[n:]), t)


# ----------------------------------------------------------------- build_u
def test_build_u_zt_zero_imaginary_part():
    p = FamilyParams(z_re=(0.3, -0.2), z_im=(0.0, 0.0), t=0.5)
    rows = build_u_zt(p, GRID)
    assert rows.shape == (2, GRID.m)
    assert np.max(np.abs(rows)) == 0.0


def test_build_u_zt_axis_aligned():
    p = FamilyParams(z_re=(0.0, 0.0), z_im=(0.25, 0.0), t=1.0)
    rows = build_u_zt(p, GRID)
    u = bump_u_minus(GRID)
    np.testing.assert_allclose(rows[0], u.samples, atol=1e-15)
    assert np.max(np.abs(rows[1])) == 0.0


def test_build_u_zt_homogeneous_in_t():
    rng = Rng(1)
    p1 = _rand_param(rng, 2, 0.5, 1.0)
    p2 = FamilyParams(p1.z_re, p1.z_im, 0.5)
    c1 = build_u_zt(p1, GRID)
    c2 = build_u_zt(p2, GRID)
    np.testing.assert_allclose(0.5 * c1, c2, atol=1e-16)


# ---------------------------------------------------------------- family F
def test_family_F_constant_when_im_zero():
    p = FamilyParams(z_re=(0.3,), z_im=(0.0,), t=0.2)
    disc = family_F(p, GRID)
    np.testing.assert_allclose(disc.traces[0], 0.2 * 0.3, atol=1e-16)


def test_family_F_value_at_one_exact():
    rng = Rng(2)
    for n in (1, 2):
        p = _rand_param(rng, n, 0.6, 0.3)
        disc = family_F(p, GRID)
        expect = p.t * (np.asarray(p.z_re) - np.asarray(p.z_im))
        vals = np.atleast_1d(disc.boundary_value_at_one())
        np.testing.assert_allclose(vals, expect, atol=1e-16)


def test_family_F_half_attached_and_holomorphic():
    rng = Rng(3)
    front = np.abs(GRID.nodes) <= math.pi / 2 + 1e-12
    for _ in range(10):
        p = _rand_param(rng, 2, 0.8, 0.1)
        disc = family_F(p, GRID)
        assert np.max(np.abs(disc.traces.imag[:, front])) <= 1e-10
        assert disc.negative_energy_ratio() <= 1e-10


def test_family_F_t_homogeneity_samplewise():
    rng = Rng(4)
    p1 = _rand_param(rng, 2, 0.5, 1.0)
    p2 = FamilyParams(p1.z_re, p1.z_im, 0.25)
    d1 = family_F(p1, GRID)
    d2 = family_F(p2, GRID)
    assert np.max(np.abs(0.25 * d1.traces - d2.traces)) <= 1e-12


def test_family_F_rejects_zero_parameter():
    with pytest.raises(DomainError):
        FamilyParams(z_re=(0.0,), z_im=(0.0,), t=0.5)


def test_family_F_c1_surrogate_bound():
    cal = calibrate(GRID, 1)
    rng = Rng(5)
    for _ in range(5):
        p = _rand_param(rng, 1, 0.8, 0.07)
        disc = family_F(p, GRID)
        sup = np.max(np.abs(disc.traces))
        dsup = np.max(np.abs(np.diff(disc.traces, axis=1))) / GRID.step
        assert max(sup, dsup) <= cal.c0_sup * p.t * (1 + 1e-9)


# ---------------------------------------------------------------- capture F
def test_capture_F_residual_and_bound():
    rng = Rng(6)
    cal = calibrate(GRID, 1)
    for i in range(10):
        t = (0.02, 0.05, 0.1)[i % 3]
        v = np.asarray(rng.sphere(2))
        target = (v[0] + 1j * v[1]) * cal.r0 * (0.1 + 0.8 * rng.uniform())
        ps = capture_F(np.array([target]), t, GRID)
        s = ps.norm
        res = np.abs(family_F(ps, GRID).eval(1 - s + 1j * s)[0] - t * target)
        assert res <= 1e-8
        assert s <= 2.0 * abs(target)


def test_capture_F_near_real_target():
    # with Im(target) = 0 small, the remainder vanishes and z* ~ target
    cal = calibrate(GRID, 1)
    target = np.array([0.5 * cal.r0 + 0.0j])
    ps = capture_F(target, 0.1, GRID)
    assert abs(ps.z[0] - target[0]) <= 1e-6


def test_capture_F_rejects_large_targets():
    cal = calibrate(GRID, 1)
    with pytest.raises(PreconditionError):
        capture_F(np.array([2.0 * cal.r0 + 0j]), 0.1, GRID)


def test_capture_never_evaluates_phi_at_zero():
    """phi(0) = 0 is taken, not computed: the first phi call is at the
    first iterate target / t.  The value returned is phi at the last call,
    which is z*."""
    t, z_target = 0.5, np.array([1e-3 + 2e-3j, -1e-3j])
    calls = []

    def phi(z):
        calls.append(z.copy())
        return t * z + 0.3 * z * z[::-1]

    z, value = _capture(phi, t, z_target, 1.0, 1.0, t)
    assert np.array_equal(calls[0], z_target)
    assert all(np.linalg.norm(c) > 0.0 for c in calls)
    assert calls[-1].tobytes() == z.tobytes()
    assert value.tobytes() == phi(z).tobytes()
    assert np.linalg.norm(value - t * z_target) <= 1e-8


def test_capture_with_expanding_phi_stalls():
    """z <- z_target + 2z doubles every change: the fifth ratio >= 1 in a
    row stops the capture inside its ball, after six phi calls."""
    t = 0.5
    calls = []

    def phi(z):
        calls.append(z)
        return -t * z

    with pytest.raises(ContractionFailure):
        _capture(phi, t, np.array([1e-3 + 1e-3j]), 1.0, 1.0, t)
    assert len(calls) == 6


# ----------------------------------------------------------- u_delta_gamma
def test_u_delta_gamma_derivatives_zero_center():
    delta, gamma = 0.2, 0.01
    u = build_u_delta_gamma(0.0, delta, gamma, CircleGrid(2048))
    d = derivs_at_one(u)
    assert abs(d.dx) < 1e-7
    assert abs(d.dxy + 2.0 * gamma / delta**2) < 1e-7


def test_u_delta_gamma_quoted_example():
    # z~ = 0.01i, delta = 0.2, gamma = 0.08: dx u(1) = -0.02/(0.2*2.2)
    u = build_u_delta_gamma(0.01j, 0.2, 0.08, CircleGrid(2048))
    d = derivs_at_one(u)
    assert abs(d.dx + 0.02 / (0.2 * 2.2)) < 1e-7
    assert abs(d.dxy + 2.0 * (0.08 - 0.0) / 0.04) < 1e-7


def test_u_delta_gamma_vanishes_on_front_half():
    u = build_u_delta_gamma(0.01j, 0.2, 0.08, GRID)
    front = np.abs(GRID.nodes) <= math.pi / 2 + 1e-12
    assert np.max(np.abs(u.samples[front])) == 0.0


def test_u_delta_gamma_rejects_bad_parameters():
    with pytest.raises(DomainError):
        build_u_delta_gamma(0.5 + 0j, 0.2, 0.08, GRID)  # gamma < 2|z~|
    with pytest.raises(DomainError):
        build_u_delta_gamma(0.0, 1.0, 0.08, GRID)  # delta > 2 sqrt(gamma)


# --------------------------------------------------------------- family F'
def test_family_Fprime_value_at_one_exact():
    rng = Rng(7)
    for n in (1, 2):
        p = _rand_param(rng, n, 0.9 / (2 * n), 0.3)
        disc = family_Fprime(p, GRID)
        vals = np.atleast_1d(disc.boundary_value_at_one())
        np.testing.assert_allclose(vals, 2.0 * p.t * p.norm, atol=1e-16)


def test_family_Fprime_wedge_attachment():
    cal = calibrate(GRID, 2)
    wedge = np.abs(GRID.nodes) <= cal.theta0 + 1e-15
    rng = Rng(8)
    for i in range(30):
        t = (0.02, 0.05, 0.1)[i % 3]
        p = _rand_param(rng, 2, 0.9 / 4, t)
        disc = family_Fprime(p, GRID)
        assert np.min(disc.traces.real[:, wedge]) >= -1e-10
        assert np.max(np.abs(disc.traces.imag[:, wedge])) <= 1e-10
        assert disc.negative_energy_ratio() <= 1e-10


def test_family_Fprime_minorant_discriminant_nonpositive():
    rng = Rng(9)
    for _ in range(50):
        p = _rand_param(rng, 2, 0.9 / 4, 0.1)
        assert quadratic_minorant_discriminant(p) <= 1e-300


def test_family_Fprime_domain_check():
    with pytest.raises(DomainError):
        family_Fprime(FamilyParams(z_re=(0.4, 0.4), z_im=(0.0, 0.0), t=0.1), GRID)


def test_capture_Fprime_residual_and_bound():
    rng = Rng(10)
    cal = calibrate(GRID, 1)
    for i in range(10):
        t = (0.02, 0.05, 0.1)[i % 3]
        v = np.asarray(rng.sphere(2))
        target = (v[0] + 1j * v[1]) * cal.r0_prime * (0.1 + 0.8 * rng.uniform())
        ps = capture_Fprime(np.array([target]), t, GRID)
        s = ps.norm
        res = np.abs(family_Fprime(ps, GRID).eval(1 - math.sqrt(s))[0] - t * target)
        assert res <= 1e-8
        assert s <= 2.0 * abs(target)


def test_Fprime_t_homogeneity():
    rng = Rng(11)
    p1 = _rand_param(rng, 1, 0.4, 1.0)
    p2 = FamilyParams(p1.z_re, p1.z_im, 0.1)
    d1 = family_Fprime(p1, GRID)
    d2 = family_Fprime(p2, GRID)
    assert np.max(np.abs(0.1 * d1.traces - d2.traces)) <= 1e-12


# ------------------------------------------------------------------ F'_tau
def test_Fprime_tau_zero_reproduces_Fprime():
    rng = Rng(12)
    p = _rand_param(rng, 2, 0.2, 0.05)
    p_tau = FamilyParams(p.z_re, p.z_im, p.t, tau=(0.0, 0.0))
    d = family_Fprime(p, GRID)
    d_tau = family_Fprime_tau(p_tau, GRID)
    assert np.array_equal(d.traces, d_tau.traces)


def test_Fprime_tau_derivative_is_ten_t_identity():
    # d/dtau_j of dx(Im F'_tau)_l at 1 equals 10 t on the diagonal
    t, n = 0.05, 2
    rng = Rng(13)
    p = _rand_param(rng, n, 0.2, t)
    h = 1e-5
    for j in range(n):
        tau_p = [0.0] * n
        tau_m = [0.0] * n
        tau_p[j], tau_m[j] = h, -h
        dp = family_Fprime_tau(FamilyParams(p.z_re, p.z_im, t, tau=tuple(tau_p)), GRID)
        dm = family_Fprime_tau(FamilyParams(p.z_re, p.z_im, t, tau=tuple(tau_m)), GRID)
        for l in range(n):
            up = CircleFunction(GRID, dp.traces[l].imag)
            um = CircleFunction(GRID, dm.traces[l].imag)
            deriv = (derivs_at_one(up).dx - derivs_at_one(um).dx) / (2 * h)
            expect = 10.0 * t if l == j else 0.0
            assert abs(deriv - expect) <= 1e-6


def test_Fprime_tau_second_derivative_at_one_vanishes():
    t, n = 0.05, 1
    p = FamilyParams(z_re=(0.1,), z_im=(0.05,), t=t)
    h = 1e-3
    vals = []
    for tau in (-h, 0.0, h):
        d = family_Fprime_tau(FamilyParams(p.z_re, p.z_im, t, tau=(tau,)), GRID)
        vals.append(np.atleast_1d(d.boundary_value_at_one())[0])
    second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
    assert abs(second) <= 1e-6


def test_tau_outside_ball_rejected():
    with pytest.raises(DomainError):
        FamilyParams(z_re=(0.1,), z_im=(0.0,), t=0.1, tau=(2.5,))


# -------------------------------------------------- quantitative inverse
def test_inverse_identity_case():
    prob = InverseProblem(
        phi0=lambda z: z,
        matrix=np.eye(2),
        radius=0.9,
        target=np.array([0.3, -0.2]),
        lipschitz_g=0.0,
    )
    z, _ = solve_quantitative_inverse(prob)
    np.testing.assert_allclose(z, [0.3, -0.2], atol=1e-12)


def test_inverse_scalar_against_bisection_oracle():
    f = lambda z: z + 0.1 * math.sin(z)
    prob = InverseProblem(
        phi0=lambda z: np.array([f(z[0])]),
        matrix=np.array([[1.0]]),
        radius=0.9,
        target=np.array([0.05]),
        lipschitz_g=0.1,
    )
    z, ratios = solve_quantitative_inverse(prob)
    lo, hi = -0.9, 0.9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.05:
            lo = mid
        else:
            hi = mid
    assert abs(z[0] - 0.5 * (lo + hi)) <= 1e-9
    # geometric convergence no slower than |A^-1| M = 0.1
    tail = ratios[1:]
    assert all(r <= 0.1 + 1e-6 for r in tail)


def test_inverse_evaluates_phi0_once_per_iterate():
    """One phi0 evaluation per iterate (the residual's serves the next
    step), with the iterate and ratio log of the plain two-evaluation loop
    bit for bit."""
    matrix = np.array([[1.0, 0.2], [-0.1, 0.9]])

    def phi0(z):
        calls.append(z.copy())
        return matrix @ z + 0.05 * np.sin(z[::-1])

    target = np.array([0.04, -0.03])
    calls = []
    prob = InverseProblem(phi0=phi0, matrix=matrix, radius=0.5, target=target, lipschitz_g=0.05)
    z, ratios = solve_quantitative_inverse(prob)
    iterates = len(ratios) + 1
    assert len(calls) == iterates + 1

    a_inv = np.linalg.inv(matrix)
    z_ref, ratios_ref, prev = np.zeros(2), [], None
    for _ in range(500):
        z_new = a_inv @ (target - (phi0(z_ref) - matrix @ z_ref))
        step = float(np.linalg.norm(z_new - z_ref))
        if prev is not None:
            ratios_ref.append(step / prev)
        prev, z_ref = step, z_new
        if np.linalg.norm(phi0(z_ref) - target) <= 1e-10:
            break
    assert z.tobytes() == z_ref.tobytes()
    assert ratios == ratios_ref


def test_inverse_stall_raises_after_five_ratios():
    """A declared Lipschitz constant that passes the precondition does not
    make phi0 contract: phi0(z) = -z doubles every change, and the solver
    stops with ContractionFailure at the fifth ratio >= 1 in a row."""
    calls = []

    def phi0(z):
        calls.append(z)
        return -z

    prob = InverseProblem(phi0=phi0, matrix=np.eye(1), radius=0.5, target=np.array([0.01]), lipschitz_g=0.1)
    with pytest.raises(ContractionFailure):
        solve_quantitative_inverse(prob)
    assert len(calls) == 1 + 6  # phi0(0), then one per step


def test_contract_reports_steps_and_ratios():
    def step(x):
        return x / 2.0, x / 2.0, x / 2.0

    x, ratios, steps = _contract(step, 1.0, 0.1)
    assert (x, ratios, steps) == (0.0625, [0.5, 0.5, 0.5], 4)


def test_contract_budget_runs_out():
    """Changes alternating 1, 2 never stall five times in a row; the
    500-step budget ends the iteration with ContractionFailure."""
    calls = []

    def step(x):
        calls.append(x)
        return x + 1, 1.0 + x % 2, 1.0

    with pytest.raises(ContractionFailure):
        _contract(step, 0, 1e-3)
    assert len(calls) == 500


def test_contract_stalls_after_exactly_five_ratios():
    changes = iter([1.0, 2.0, 2.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    seen = []

    def step(x):
        seen.append(x)
        return x + 1, next(changes), 1.0

    with pytest.raises(ContractionFailure):
        _contract(step, 0, 1e-3)
    # ratios 2, 1, 0.25, 2, 1, 1, 1, 1: the run of five >= 1 ends at step 9
    assert len(seen) == 9


def test_inverse_rejects_bad_contraction():
    with pytest.raises(PreconditionError):
        InverseProblem(
            phi0=lambda z: z,
            matrix=np.eye(1),
            radius=0.5,
            target=np.array([0.1]),
            lipschitz_g=1.5,
        )


# ------------------------------------------------------------- r0' scan
def test_r0_prime_scan_builds_each_disc_once(monkeypatch):
    """The base disc of each direction is built and evaluated once, not
    once per perturbation: 3 evaluations per direction (144 at n = 2),
    with r0' unchanged bit for bit."""
    calls = []
    phi_prime = discs._phi_prime

    def counted(*args):
        calls.append(args)
        return phi_prime(*args)

    monkeypatch.setattr(discs, "_phi_prime", counted)
    r0p = discs._calibrate_r0_prime(GRID, 2)
    assert len(calls) == 144
    assert r0p.hex() == "0x1.0f1062b6fad33p-9"
    assert calibrate(GRID, 2).r0_prime == r0p


# ------------------------------------------------------- Taylor structure
def test_taylor_structure_richardson():
    """u(1-s) and -T1u(1-s) expansions: s^3 remainders stay bounded."""
    from feketelab.circle import hilbert_T1
    from feketelab.discs import _interior_values, _one_sided

    g = CircleGrid(2048)
    u1, u2 = dual_basis(g)
    combo = CircleFunction(g, 0.7 * u1.samples - 1.3 * u2.samples)
    d = derivs_at_one(combo)
    coeffs = np.stack((_one_sided(combo), _one_sided(hilbert_T1(combo))))
    prev = None
    for s in (0.08, 0.04, 0.02, 0.01):
        v_u, v_t = _interior_values(coeffs, 1 - s)
        r_u = (v_u + s * d.dx + s * s * d.dx / 2) / s**3
        r_t = (-v_t - s * s * d.dxy / 2) / s**3
        bound = max(abs(r_u), abs(r_t))
        if prev is not None:
            assert bound <= 4.0 * prev + 1.0  # bounded, no blow-up as s halves
        prev = bound


# ------------------------------------------------------------- calibration
def _g0_scan_complex_sums(grid, s_values):
    """The g0 scan with a table z**k and a complex compensated sum per
    function and path point, of which only the real part is kept."""
    from feketelab.circle import hilbert_T1

    def value(f, z):
        coeff = f.a - 1j * f.b
        coeff[0] = f.a[0]
        terms = coeff * z ** np.arange(len(f.a))
        return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())).real

    u = bump_u_minus(grid)
    t1u = hilbert_T1(u)
    return np.asarray(
        [((value(u, z) - s) / (s * s), (-value(t1u, z) - s) / (s * s)) for s in s_values for z in [1.0 - s + 1j * s]]
    )


@pytest.mark.parametrize("m", [256, 1024])
def test_g0_scan_sums_only_real_parts_bit_for_bit(m, monkeypatch):
    grid = CircleGrid(m)
    s_vals = np.linspace(1e-3, 0.95, 400)
    want = _g0_scan_complex_sums(grid, s_vals)
    sums = []
    real_fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: sums.append(len(xs)) or real_fsum(xs))
    got = discs._g0_scan(grid, s_vals)
    assert got.tobytes() == want.tobytes()
    assert sums == [m // 2 + 1] * (2 * len(s_vals))  # the parent's complex sums: 4 per point


def test_calibration_is_stable_across_recomputation():
    first = calibrate(GRID, 1)
    calibrate.cache_clear()
    second = calibrate(GRID, 1)
    assert first == second


def test_disc_rejects_negative_frequency_traces():
    from feketelab.discs import AnalyticDisc
    from feketelab.errors import InputError as IE

    tr = np.exp(-1j * GRID.nodes)  # pure negative frequency
    with pytest.raises(IE):
        AnalyticDisc.from_traces(GRID, tr[None, :])


def test_negative_energy_ratio_kept_from_construction(fft_calls):
    from feketelab.discs import _negative_energy_ratio

    disc = family_F(_rand_param(Rng(15), 2, 0.4, 0.1), GRID)
    fft_calls.clear()
    ratio = disc.negative_energy_ratio()
    assert sum(fft_calls.values()) == 0
    assert ratio == _negative_energy_ratio(np.fft.fft(disc.traces, axis=1) / GRID.m)


def test_fsum_complex_equals_fsum_over_the_arrays_bit_for_bit():
    """math.fsum is correctly rounded, so summing the parts as Python floats
    gives the bits of summing the numpy arrays."""
    from feketelab.discs import _fsum_complex

    rng = np.random.default_rng(16)
    k = np.arange(513)
    coeffs = (rng.standard_normal(513) + 1j * rng.standard_normal(513)) * 0.9**k
    big = np.array([1e16, 1.0, -1e16, 3e-8, -1.0, 2.5e300, -2.5e300, 1e-300])
    cases = [
        coeffs * complex(0.999, 0.01) ** k,  # decaying terms near |z| = 1
        coeffs * np.exp(1j * 0.3 * k),
        big + 1j * big[::-1],  # cancelling terms
        np.concatenate([coeffs, -coeffs[::-1]]),
        np.array([-0.0 - 0.0j]),
    ]
    for terms in cases:
        got = _fsum_complex(terms)
        want = complex(math.fsum(terms.real), math.fsum(terms.imag))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_family_params_norm_cached_without_changing_equality():
    p = FamilyParams((0.3, -0.1), (0.2, 0.4), 0.5)
    q = FamilyParams((0.3, -0.1), (0.2, 0.4), 0.5)
    assert p.norm == math.sqrt(sum(x * x for x in p.z_re) + sum(x * x for x in p.z_im))
    assert p.norm is p.norm
    assert p == q and hash(p) == hash(q)
    assert p != FamilyParams((0.3, -0.1), (0.2, 0.4), 0.25)


def test_analytic_disc_serialization_layout():
    rng = Rng(14)
    p = _rand_param(rng, 2, 0.4, 0.1)
    disc = family_F(p, GRID)
    rows = disc.to_csv_rows()
    assert rows[0] == ["theta", "re0", "im0", "re1", "im1"]
    assert len(rows) == GRID.m + 1
