"""Bishop solver: contraction, attachment, capture, tau control, wedges."""

import math

import numpy as np
import pytest

from feketelab.circle import CircleGrid, _conjugate_rows
from feketelab.discs import (
    FamilyParams,
    build_u_zt,
    calibrate,
    capture_F,
    family_F,
    family_Fprime_tau,
    u_prime_boundary,
)
from feketelab.bishop import (
    GraphManifold,
    assemble_Fh,
    attachment_residual,
    calibrate_t_threshold,
    h_mix,
    h_quad,
    h_zero,
    phi_h,
    phi_h_capture,
    phi_h_prime,
    phi_h_prime_capture,
    solve_bishop,
    solve_bishop_singular,
    solve_tau,
    verify_wedge_attachment,
)
from feketelab.errors import ContractionFailure, DomainError
from feketelab.rng import Rng

GRID = CircleGrid(1024)


def _param(rng, n, radius, t, tau=None):
    v = np.asarray(rng.sphere(2 * n))
    r = radius * (0.1 + 0.85 * rng.uniform())
    return FamilyParams.from_complex(r * (v[:n] + 1j * v[n:]), t, tau=tau)


# -------------------------------------------------------------- manifolds
def test_h_quad_declared_bounds_hold():
    K = h_quad(2, 0.5)
    assert K.c1 == 1.0
    x = np.array([0.3, -0.4])
    np.testing.assert_allclose(K.h(x), 0.5 * x * x)


def test_manifold_rejects_nonvanishing_h():
    with pytest.raises(DomainError):
        GraphManifold(n=1, h=lambda x: np.asarray(x) + 1.0, c1=1.0)
    with pytest.raises(DomainError):
        GraphManifold(n=1, h=lambda x: 2.0 * np.asarray(x), c1=3.0)  # Dh(0) != 0


def test_h_mix_needs_two_dimensions():
    with pytest.raises(DomainError):
        h_mix(1, 0.1)


# ------------------------------------------------------------------ solver
def test_h_zero_reduces_to_family_F():
    rng = Rng(20)
    p = _param(rng, 2, 0.5, 0.05)
    sol = solve_bishop(h_zero(2), p, GRID)
    assert sol.iterations == 2 and sol.ratio_log == [0.0]
    disc = assemble_Fh(sol)
    ref = family_F(p, GRID)
    assert np.max(np.abs(disc.traces - ref.traces)) <= 1e-10


def _iterate_oracle(grid, manifold, forcing, start):
    """The Bishop loop as it stood before the shared contraction kernel,
    with its old iteration count (steps with change > 1e-12 after the
    first)."""
    U = start.copy()
    ratios = []
    prev_change = None
    extra_iters = 0
    consecutive_bad = 0
    for k in range(500):
        h_of_u = manifold.eval_rows(U)
        U_next = forcing - _conjugate_rows(grid, h_of_u, True)
        change = float(np.max(np.abs(U_next - U)))
        if prev_change is not None and prev_change > 0.0:
            ratio = change / prev_change
            ratios.append(ratio)
            consecutive_bad = consecutive_bad + 1 if ratio >= 1.0 else 0
            if consecutive_bad >= 5:
                raise ContractionFailure("ratio >= 1 for 5 consecutive steps")
        prev_change = change
        U = U_next
        if k >= 1:
            extra_iters += 1 if change > 1e-12 else 0
        if change <= 1e-12:
            residual = float(
                np.max(np.abs(U - (forcing - _conjugate_rows(grid, manifold.eval_rows(U), True))))
            )
            return U, extra_iters, ratios, residual
    raise ContractionFailure("did not converge in 500 steps")


@pytest.mark.parametrize("singular", [False, True])
def test_solve_through_the_kernel_matches_the_old_loop(singular):
    """Both Bishop solves run the shared contraction kernel with the old
    loop's arithmetic: the same iterate, ratio log and residual bit for
    bit; `iterations` counts the steps run."""
    rng = Rng(31)
    K = h_quad(2, 0.5)
    if singular:
        p = _param(rng, 2, 0.2, 0.01, tau=(0.05, -0.03))
        u_rows = u_prime_boundary(p, GRID)
        const = 2.0 * p.t * p.norm
        sol = solve_bishop_singular(K, p, GRID)
    else:
        p = _param(rng, 2, 0.5, 0.05)
        u_rows = build_u_zt(p, GRID)
        const = (p.t * (np.asarray(p.z_re) - np.asarray(p.z_im)))[:, None]
        sol = solve_bishop(K, p, GRID)
    forcing = const - _conjugate_rows(GRID, u_rows, True)
    U, old_count, ratios, residual = _iterate_oracle(GRID, K, forcing, u_rows)
    assert sol.U.tobytes() == U.tobytes()
    assert sol.ratio_log == ratios and len(ratios) >= 3
    assert sol.residual == residual
    assert sol.iterations == len(sol.ratio_log) + 1 == old_count + 2


def test_singular_solve_without_tau_is_tau_zero():
    p = _param(Rng(32), 2, 0.2, 0.01)
    sol = solve_bishop_singular(h_quad(2, 0.5), p, GRID)
    ref = solve_bishop_singular(h_quad(2, 0.5), FamilyParams(p.z_re, p.z_im, p.t, tau=(0.0, 0.0)), GRID)
    assert sol.U.tobytes() == ref.U.tobytes()
    assert sol.ratio_log == ref.ratio_log


def test_solver_contracts_at_small_t():
    rng = Rng(21)
    K = h_quad(2, 0.5)
    for _ in range(5):
        p = _param(rng, 2, 0.5, 0.05)
        sol = solve_bishop(K, p, GRID)
        assert sol.geometric_mean_ratio() <= math.sqrt(0.05)
        assert sol.residual <= 1e-12


def test_solution_norm_bound():
    rng = Rng(22)
    cal = calibrate(GRID, 2)
    K = h_quad(2, 0.5)
    for _ in range(5):
        p = _param(rng, 2, 0.5, 0.05)
        sol = solve_bishop(K, p, GRID)
        assert sol.sup_norm() <= 4.0 * cal.c0_sup * p.t


def test_attachment_and_value_at_one():
    rng = Rng(23)
    K = h_quad(2, 0.5)
    p = _param(rng, 2, 0.5, 0.05)
    sol = solve_bishop(K, p, GRID)
    disc = assemble_Fh(sol)
    assert attachment_residual(sol, disc) <= 1e-9
    assert disc.negative_energy_ratio() <= 1e-9
    expect_re = p.t * (np.asarray(p.z_re) - np.asarray(p.z_im))
    expect = expect_re + 1j * np.asarray(K.h(expect_re))
    np.testing.assert_allclose(np.atleast_1d(disc.boundary_value_at_one()), expect, atol=1e-12)


def test_two_start_uniqueness():
    rng = Rng(24)
    K = h_quad(1, 0.5)
    p = _param(rng, 1, 0.5, 0.05)
    sol_a = solve_bishop(K, p, GRID)
    sol_b = solve_bishop(K, p, GRID, start=np.zeros_like(sol_a.U))
    assert np.max(np.abs(sol_a.U - sol_b.U)) <= 1e-10


def test_contraction_failure_reported_not_clamped():
    # far above the calibrated threshold the ratio certificate must fire
    K = h_quad(1, 1.0)
    p = FamilyParams(z_re=(0.3,), z_im=(0.3,), t=1.0)
    with pytest.raises((ContractionFailure, DomainError)):
        solve_bishop(K, p, GRID)


def test_h_domain_exceeded_raises():
    K = GraphManifold(n=1, h=lambda x: 0.1 * np.asarray(x) ** 2, c1=0.2, radius=1e-4)
    p = FamilyParams(z_re=(0.3,), z_im=(0.3,), t=0.05)
    with pytest.raises(DomainError):
        solve_bishop(K, p, GRID)


def test_z_derivative_bound_by_finite_differences():
    """||D_z U|| <= 4 c0 t / |z|, probed at neighboring parameters."""
    cal = calibrate(GRID, 1)
    K = h_quad(1, 0.5)
    t = 0.05
    for r in (0.2, 0.4):
        z = np.array([r * math.cos(0.5) + 1j * r * math.sin(0.5)])
        h_step = 1e-6 * r
        sols = {}
        for sgn in (1.0, -1.0):
            p = FamilyParams.from_complex(z + sgn * h_step, t)
            sols[sgn] = solve_bishop(K, p, GRID)
        deriv = np.max(np.abs(sols[1.0].U - sols[-1.0].U)) / (2 * h_step)
        assert deriv <= 4.0 * cal.c0_sup * t / r


def test_grid_independence_of_residuals():
    rng = Rng(25)
    K = h_quad(1, 0.5)
    p = _param(rng, 1, 0.4, 0.05)
    res = {}
    for m in (1024, 2048):
        sol = solve_bishop(K, p, CircleGrid(m))
        res[m] = (sol.residual, attachment_residual(sol))
    assert abs(res[1024][0] - res[2048][0]) <= 1e-11
    assert abs(res[1024][1] - res[2048][1]) <= 1e-11


# ------------------------------------------------------------ phi^h capture
def test_phi_h_matches_capture_F_for_h_zero():
    rng = Rng(26)
    cal = calibrate(GRID, 1)
    t = 0.05
    v = np.asarray(rng.sphere(2))
    target = (v[0] + 1j * v[1]) * cal.r0 * t / 2 * 0.5
    k0 = h_zero(1)
    ps_h = phi_h_capture(k0, target, t, GRID)
    ps_f = capture_F(target / t, t, GRID)
    assert np.max(np.abs(ps_h.z - ps_f.z)) <= 1e-10


def test_phi_h_capture_bound_and_residual():
    rng = Rng(27)
    K = h_quad(2, 0.5)
    cal = calibrate(GRID, 2)
    t = 0.05
    for _ in range(3):
        v = np.asarray(rng.sphere(4))
        target = (v[:2] + 1j * v[2:]) * cal.r0 * t / 2 * (0.1 + 0.8 * rng.uniform())
        ps = phi_h_capture(K, target, t, GRID)
        val, _ = phi_h(K, ps.z, t, GRID)
        assert np.max(np.abs(val - target)) <= 1e-8
        tn = float(np.linalg.norm(np.concatenate([target.real, target.imag])))
        assert ps.norm <= 4.0 * tn / t
        # implied disc point distance bound |1 - z*| <= 8 |target| / t
        assert abs(1.0 - (1.0 - ps.norm + 1j * ps.norm)) <= 8.0 * tn / t


def test_phi_h_comparison_constant():
    """|Phi^h(z) - Phi(z)| <= c2 t^2 |z| with a stable measured c2."""
    K = h_quad(1, 0.5)
    c2 = {}
    for m in (1024, 2048):
        grid = CircleGrid(m)
        worst = 0.0
        for t in (0.02, 0.05, 0.1):
            for r in (0.1, 0.3, 0.5):
                z = np.array([r * math.cos(0.7) + 1j * r * math.sin(0.7)])
                p = FamilyParams.from_complex(z, t)
                val, _ = phi_h(K, z, t, grid)
                base = family_F(p, grid).eval(1 - p.norm + 1j * p.norm)
                worst = max(worst, float(np.max(np.abs(val - base))) / (t * t * p.norm))
        c2[m] = worst
    assert np.isfinite(c2[1024])
    assert c2[2048] <= 2.0 * c2[1024] and c2[1024] <= 2.0 * c2[2048]


# ------------------------------------------------------------ singular side
def test_singular_h_zero_reduces_to_Fprime_tau():
    rng = Rng(28)
    p = _param(rng, 2, 0.2, 0.05, tau=(0.1, -0.2))
    sol = solve_bishop_singular(h_zero(2), p, GRID)
    assert sol.iterations == 2 and sol.ratio_log == [0.0]
    disc = assemble_Fh(sol)
    ref = family_Fprime_tau(p, GRID)
    assert np.max(np.abs(disc.traces - ref.traces)) <= 1e-10


def test_singular_contraction_and_norm():
    rng = Rng(29)
    K = h_quad(2, 0.1)
    for _ in range(3):
        p = _param(rng, 2, 0.2, 0.02, tau=(0.0, 0.0))
        sol = solve_bishop_singular(K, p, GRID)
        assert sol.geometric_mean_ratio() < 1.0
        assert sol.residual <= 1e-12


def test_solve_tau_real_axis_gives_zero_target():
    K = h_zero(1)
    ctrl = solve_tau(K, np.array([0.1 + 0.0j]), 0.02, GRID)
    assert abs(ctrl.residual) <= 1e-8
    assert np.max(np.abs(np.asarray(ctrl.tau))) <= 1e-8
    d1 = ctrl.target_deriv
    assert abs(d1[0]) == 0.0


def test_solve_tau_residual_and_bound():
    rng = Rng(30)
    K = h_quad(2, 0.1)
    t = 0.02
    taus = []
    for _ in range(5):
        p = _param(rng, 2, 0.2, t)
        ctrl = solve_tau(K, p.z, t, GRID)
        assert ctrl.residual <= 1e-8
        taus.append(np.linalg.norm(ctrl.tau) / t)
    # |tau| <= c3 t with c3 stable across z (within a factor 3 band here)
    assert max(taus) <= 3.0 * max(min(taus), 1e-9) + 1.0


def test_solve_tau_second_derivative_band():
    rng = Rng(31)
    K = h_quad(1, 0.1)
    t = 0.02
    gaps = [solve_tau(K, _param(rng, 1, 0.2, t).z, t, GRID).second_deriv_gap for _ in range(3)]
    c2 = max(gaps) / t**2
    assert np.isfinite(c2)


def test_wedge_attachment_with_controlled_tau():
    rng = Rng(32)
    cal = calibrate(GRID, 2)
    K = h_quad(2, 0.1)
    t = 0.02
    for _ in range(3):
        p = _param(rng, 2, 0.2, t)
        ctrl = solve_tau(K, p.z, t, GRID)
        rep = verify_wedge_attachment(ctrl.solution, cal.theta0)
        assert rep.passed
        assert min(rep.component_minima) >= -1e-9
        assert rep.attachment_residual <= 1e-9


def test_wedge_trivial_at_zero_angle():
    rng = Rng(33)
    K = h_quad(1, 0.1)
    p = _param(rng, 1, 0.2, 0.02, tau=(0.0,))
    sol = solve_bishop_singular(K, p, GRID)
    rep = verify_wedge_attachment(sol, 0.0)
    assert rep.passed
    assert min(rep.component_minima) >= 2.0 * p.t * p.norm - 1e-12


def test_threshold_scan_reports_failure_above():
    grid = CircleGrid(512)
    th = calibrate_t_threshold(("quad", 1, 1.0), grid, False)
    assert 0.0 < th < 1.0
    K = h_quad(1, 1.0)
    rng = Rng(34)
    failed = False
    for _ in range(8):
        p = _param(rng, 1, 0.45, min(1.0, 8.0 * th))
        try:
            solve_bishop(K, p, grid)
        except (ContractionFailure, DomainError):
            failed = True
            break
    assert failed


def test_phi_h_prime_capture():
    rng = Rng(35)
    K = h_quad(1, 0.1)
    cal = calibrate(GRID, 1)
    t = 0.02
    v = np.asarray(rng.sphere(2))
    target = (v[0] + 1j * v[1]) * cal.r0_prime * t / 2 * 0.5
    ps, dist_sq = phi_h_prime_capture(K, np.array([target]), t, GRID)
    val, _ = phi_h_prime(K, ps.z, t, GRID)
    assert np.max(np.abs(val - target)) <= 1e-8
    assert dist_sq <= 2.0 * abs(target) / t


def test_phi_h_prime_near_reduction_for_h_zero():
    """Phi'^h with h = 0 stays within the measured c4 band of t*z."""
    K = h_zero(1)
    t = 0.02
    for r in (0.05, 0.1, 0.2):
        z = np.array([r + 0.3j * r])
        val, ctrl = phi_h_prime(K, z, t, GRID)
        p = FamilyParams.from_complex(z, t)
        gap = float(np.max(np.abs(val - t * z)))
        band = p.norm * (t * t + t * math.sqrt(p.norm))
        assert gap <= 10.0 * band  # c4 surrogate


def _fixed_order_threshold(key, grid, singular):
    """calibrate_t_threshold with its six samples always solved in the order
    drawn; returns (threshold, solves run)."""
    from feketelab.bishop import manifold_from_key

    manifold = manifold_from_key(key)
    n = manifold.n
    rng = Rng(0x7E57)
    samples = []
    for _ in range(6):
        v = np.asarray(rng.sphere(2 * n))
        r = 0.3 / (2.0 * n) * (0.2 + 0.8 * rng.uniform())
        samples.append(r * (v[:n] + 1j * v[n:]))
    solve = solve_bishop_singular if singular else solve_bishop
    solves = [0]

    def works(t):
        try:
            for z in samples:
                solves[0] += 1
                sol = solve(manifold, FamilyParams.from_complex(z, t), grid)
                if sol.geometric_mean_ratio() >= 1.0:
                    return False
                if attachment_residual(sol) > 1e-9:
                    return False
        except (ContractionFailure, DomainError):
            return False
        return True

    lo, hi = 0.0, 1.0
    if works(hi):
        return 1.0, solves[0]
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if mid <= 1e-6:
            break
        if works(mid):
            lo = mid
        else:
            hi = mid
    return lo, solves[0]


def test_threshold_with_failing_sample_first_matches_fixed_order(monkeypatch):
    """Trying the last failing sample first changes neither threshold of any
    built-in key, and at quad:0.5, n = 2 saves 7 of 74 regular solves."""
    from feketelab import bishop

    grid = CircleGrid(256)
    solves = [0]
    real_solve = bishop._solve

    def counting_solve(*args, **kwargs):
        solves[0] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(bishop, "_solve", counting_solve)
    keys = [("quad", 1, 0.5), ("quad", 2, 0.5), ("mix", 2, 0.5), ("quad", 2, 0.1), ("quad", 1, 1.0)]
    for key in keys:
        for singular in (False, True):
            want, fixed_solves = _fixed_order_threshold(key, grid, singular)
            solves[0] = 0
            got = calibrate_t_threshold.__wrapped__(key, grid, singular)
            assert got.hex() == want.hex(), (key, singular)
            assert solves[0] <= fixed_solves
            if key == ("quad", 2, 0.5) and not singular:
                assert (solves[0], fixed_solves) == (67, 74)
