"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, taken straight from the build contract.
Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from feketelab import bishop as bsh
from feketelab import cli
from feketelab import discs
from feketelab import equilibrium as eq
from feketelab import fekete as fk
from feketelab.circle import (
    CircleFunction,
    CircleGrid,
    bump_u_minus,
    derivs_at_one,
    dual_basis,
    hilbert_T,
    moment_rho,
)
from feketelab.rng import Rng

GRID = CircleGrid(1024)


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{verdict}] {name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_z(rng, n, radius):
    v = np.asarray(rng.sphere(2 * n))
    r = radius * (0.1 + 0.85 * rng.uniform())
    return r * (v[:n] + 1j * v[n:])


def test_criterion_01_hilbert_exactness():
    t0 = time.perf_counter()
    g = CircleGrid(1024)
    worst = 0.0
    for k in range(1, 101):
        ck = CircleFunction(g, np.cos(k * g.nodes))
        sk = CircleFunction(g, np.sin(k * g.nodes))
        worst = max(worst, float(np.max(np.abs(hilbert_T(ck).samples - np.sin(k * g.nodes)))))
        worst = max(worst, float(np.max(np.abs(hilbert_T(sk).samples + np.cos(k * g.nodes)))))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "Hilbert transform exactness",
        worst <= 1e-12 and elapsed < 1.0,
        f"max err {worst:.2e} (<=1e-12), {elapsed:.2f}s (<1s)",
    )


def test_criterion_02_moment_identities():
    g = CircleGrid(2048)
    u = bump_u_minus(g)
    u1, u2 = dual_basis(g)
    worst = 0.0
    for f in (u, u1, u2):
        d = derivs_at_one(f)
        worst = max(worst, abs(d.dx - moment_rho(f, 1)))
        worst = max(worst, abs(d.dxy - moment_rho(f, 2)))
    mom = np.array(
        [
            [moment_rho(u1, 1), moment_rho(u1, 2)],
            [moment_rho(u2, 1), moment_rho(u2, 2)],
        ]
    )
    gap = float(np.max(np.abs(mom - np.eye(2))))
    report(
        2,
        "moment identities at M=2048",
        worst <= 1e-6 and gap <= 1e-8,
        f"spectral-vs-quadrature {worst:.2e} (<=1e-6), moment matrix gap {gap:.2e} (<=1e-8)",
    )


def test_criterion_03_family_contracts():
    t0 = time.perf_counter()
    rng = Rng(2024)
    n = 2
    cal = discs.calibrate(GRID, n)
    wedge = np.abs(GRID.nodes) <= cal.theta0 + 1e-15
    worst_closed = worst_holo = worst_wedge_neg = worst_disc = 0.0
    for i in range(100):
        t = (0.02, 0.05, 0.1)[i % 3]
        z = _random_z(rng, n, 0.9 / (2 * n))
        p = discs.FamilyParams.from_complex(z, t)
        F = discs.family_F(p, GRID)
        expectF = t * (np.asarray(p.z_re) - np.asarray(p.z_im))
        worst_closed = max(
            worst_closed, float(np.max(np.abs(F.boundary_value_at_one() - expectF)))
        )
        worst_holo = max(worst_holo, F.negative_energy_ratio())
        Fp = discs.family_Fprime(p, GRID)
        worst_closed = max(
            worst_closed,
            float(np.max(np.abs(Fp.boundary_value_at_one() - 2 * t * p.norm))),
        )
        worst_holo = max(worst_holo, Fp.negative_energy_ratio())
        worst_wedge_neg = max(worst_wedge_neg, -float(np.min(Fp.traces.real[:, wedge])))
        worst_disc = max(worst_disc, discs.quadratic_minorant_discriminant(p))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_closed == 0.0
        and worst_holo <= 1e-10
        and worst_wedge_neg <= 1e-10
        and worst_disc <= 0.0
        and elapsed < 10.0
    )
    report(
        3,
        "family F/F' contracts",
        ok,
        f"closed-form err {worst_closed:.1e} (exact), holo {worst_holo:.1e} (<=1e-10), "
        f"wedge min >= {-worst_wedge_neg:.1e} (>=-1e-10), discriminant {worst_disc:.1e} (<=0), "
        f"{elapsed:.1f}s (<10s)",
    )


def test_criterion_04_capture_bounds():
    rng = Rng(404)
    worst_res = 0.0
    worst_ratio = 0.0
    for i in range(100):
        n = 1 + i % 2
        t = (0.02, 0.05, 0.1)[i % 3]
        cal = discs.calibrate(GRID, n)
        if i % 2 == 0:
            target = _random_z(rng, n, cal.r0 * 0.95)
            ps, val = discs.capture_F(target, t, GRID)
        else:
            target = _random_z(rng, n, cal.r0_prime * 0.95)
            ps, val = discs.capture_Fprime(target, t, GRID)
        s = ps.norm
        worst_res = max(worst_res, float(np.max(np.abs(val - t * target))))
        tn = float(np.linalg.norm(np.concatenate([target.real, target.imag])))
        worst_ratio = max(worst_ratio, s / tn)
    report(
        4,
        "capture bounds",
        worst_res <= 1e-8 and worst_ratio <= 2.0,
        f"residual {worst_res:.2e} (<=1e-8), |z*|/|target| {worst_ratio:.3f} (<=2)",
    )


def test_criterion_05_bishop_solver():
    t0 = time.perf_counter()
    rng = Rng(505)
    t = 0.05
    budget = 1.1 * math.sqrt(t)
    worst_gm = worst_res = worst_attach = worst_unique = 0.0
    for i in range(50):
        n = 1 + i % 2
        K = bsh.h_quad(n, 0.5)
        z = _random_z(rng, n, 0.45)
        p = discs.FamilyParams.from_complex(z, t)
        sol = bsh.solve_bishop(K, p, GRID)
        worst_gm = max(worst_gm, sol.geometric_mean_ratio())
        worst_res = max(worst_res, sol.residual)
        worst_attach = max(worst_attach, bsh.attachment_residual(sol))
        alt = bsh.solve_bishop(K, p, GRID, start=np.zeros_like(sol.U))
        worst_unique = max(worst_unique, float(np.max(np.abs(sol.U - alt.U))))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_gm <= budget
        and worst_res <= 1e-11
        and worst_attach <= 1e-9
        and worst_unique <= 1e-10
        and elapsed < 60.0
    )
    report(
        5,
        "Bishop solver at t=0.05, h_quad(0.5)",
        ok,
        f"gm ratio {worst_gm:.4f} (<= {budget:.4f}), residual {worst_res:.1e} (<=1e-11), "
        f"attach {worst_attach:.1e} (<=1e-9), two-start {worst_unique:.1e} (<=1e-10), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_06_phi_h_comparison():
    rng = Rng(606)
    K = bsh.h_quad(1, 0.5)
    dirs = np.asarray(rng.sphere(2))
    direction = dirs[0] + 1j * dirs[1]
    c2 = {}
    for m in (1024, 2048):
        grid = CircleGrid(m)
        worst = 0.0
        for t in np.linspace(0.01, 0.1, 10):
            for r in np.linspace(0.05, 0.5, 10):
                z = np.array([r * direction])
                p = discs.FamilyParams.from_complex(z, float(t))
                val, _ = bsh.phi_h(K, z, float(t), grid)
                base = discs.family_F(p, grid).eval(1 - p.norm + 1j * p.norm)
                worst = max(worst, float(np.max(np.abs(val - base))) / (t * t * p.norm))
        c2[m] = worst
    stable = c2[2048] <= 2.0 * c2[1024] and c2[1024] <= 2.0 * c2[2048]
    report(
        6,
        "Phi^h comparison constant",
        np.isfinite(c2[1024]) and stable,
        f"c2(M=1024)={c2[1024]:.3f}, c2(M=2048)={c2[2048]:.3f}, stable within 2x: {stable}",
    )


def test_criterion_07_singular_control():
    rng = Rng(707)
    t = 0.02
    worst_res = 0.0
    all_c3 = []
    wedge_ok = True
    worst_min = math.inf
    for n in (1, 2):
        K = bsh.h_quad(n, 0.1)
        theta_t = bsh.calibrate_wedge(K, t, GRID)
        for _ in range(10):
            z = _random_z(rng, n, 0.45 / (2 * n))
            ctrl = bsh.solve_tau(K, z, t, GRID)
            worst_res = max(worst_res, ctrl.residual)
            all_c3.append(float(np.linalg.norm(ctrl.tau)) / t)
            rep = bsh.verify_wedge_attachment(ctrl.solution, theta_t)
            wedge_ok = wedge_ok and rep.passed
            worst_min = min(worst_min, min(rep.component_minima))
    c3 = max(all_c3)
    c3_stable = c3 <= 3.0 * float(np.median(all_c3)) + 1e-12
    ok = worst_res <= 1e-8 and c3_stable and wedge_ok and worst_min >= -1e-9
    report(
        7,
        "singular tau control and wedge",
        ok,
        f"tau residual {worst_res:.1e} (<=1e-8), c3={c3:.2f} stable: {c3_stable}, "
        f"wedge minima {worst_min:.2e} (>=-1e-9)",
    )


def test_criterion_08_fekete_small_cases():
    # interval k=2: the exact configuration vs brute force over all mesh triples
    dom = fk.Interval()
    mesh = dom.mesh(41)
    spec = fk.BasisSpec(dom, 2)
    best_val = max(
        fk.log_vandermonde(mesh[list(tri)], spec) for tri in combinations(range(41), 3)
    )
    cfg, _ = fk.fekete_1d(spec)
    interval_ok = abs(cfg.logdet - best_val) <= 1e-12
    step = float(np.max(np.diff(mesh)))
    target = np.array([-1.0, 0.0, 1.0])
    interval_ok &= bool(np.max(np.abs(np.sort(cfg.points) - target)) <= step)

    # circle k in {1, 2}: equispaced up to rotation
    circ = fk.Circle()
    circle_ok = True
    for k in (1, 2):
        ccfg, _ = fk.fekete_1d(fk.BasisSpec(circ, k))
        th = np.sort(ccfg.points)
        gaps = np.diff(np.concatenate([th, [th[0] + 2 * math.pi]]))
        dev = float(np.max(np.abs(gaps - 2 * math.pi / (2 * k + 1))))
        circle_ok &= dev <= 1e-12

    # sphere k=1: the CLI's mesh search vs brute force over all C(40, 4)
    # four-subsets of a 40-node mesh, and vs the regular tetrahedron
    sph = fk.Sphere()
    sspec = fk.BasisSpec(sph, 1)
    tetra = math.log(16.0 / (3.0 * math.sqrt(3.0))) + 1.5 * math.log(3.0) - 2.0 * math.log(4.0 * math.pi)
    small = sph.mesh(40)
    subsets = np.array(list(combinations(range(40), 4)))
    mats = fk.basis_matrix(sspec, small).T[subsets]
    brute = float(np.max(np.linalg.slogdet(mats)[1]))
    small_cfg, _ = cli._mesh_search(small, 1, 4)(sspec)
    fine_cfg, _ = cli._mesh_search(sph.mesh(40000), 1, 2)(sspec)
    sphere_ok = small_cfg.logdet <= brute + 1e-12 and brute <= tetra + 1e-12
    sphere_ok &= 0.0 <= tetra - fine_cfg.logdet <= 1e-4
    # and the off-mesh kernel Newton solve reaches the tetrahedron itself
    newton_cfg, _, _ = fk.fekete_sphere(sspec)
    newton_ok = abs(newton_cfg.logdet - tetra) <= 1e-12
    report(
        8,
        "Fekete small-case oracles",
        interval_ok and circle_ok and sphere_ok and newton_ok,
        f"interval triple matches brute force: {interval_ok}, circle equispaced: {circle_ok}, "
        f"sphere k=1 search {small_cfg.logdet:.4f} <= brute force {brute:.4f} <= tetrahedron "
        f"{tetra:.7f}, fine mesh {tetra - fine_cfg.logdet:.1e} below (<=1e-4): {sphere_ok}, "
        f"kernel Newton {abs(newton_cfg.logdet - tetra):.1e} off (<=1e-12): {newton_ok}",
    )


def test_criterion_09_rate_study():
    t0 = time.perf_counter()

    # circle: k = 2..40, the exact configurations
    circ = fk.Circle()
    nu_c = eq.equilibrium_reference(circ)
    circle_ok = True
    cdists = []
    for k in range(2, 41):
        cfg, _ = fk.fekete_1d(fk.BasisSpec(circ, k))
        d = eq.dist1_circle(fk.fekete_measure(cfg), nu_c)
        cdists.append(d)
        circle_ok &= d <= math.pi / (2 * k + 1)
    cslope = eq.rate_fit(range(2, 41), cdists).slope
    circle_ok &= cslope <= -0.9

    # interval: k = 2..40, the exact configurations
    dom = fk.Interval()
    nu_i = eq.equilibrium_reference(dom)
    idists = []
    for k in range(2, 41):
        cfg, _ = fk.fekete_1d(fk.BasisSpec(dom, k))
        idists.append(eq.dist1_interval(fk.fekete_measure(cfg), nu_i))
    ma = np.convolve(idists, np.ones(5) / 5, mode="valid")
    interval_ok = bool(np.all(np.diff(ma) < 0))
    ifit = eq.rate_fit(range(2, 41), idists)
    interval_ok &= ifit.bound_ok

    # sphere: k = 2..15 with the dictionary distance
    sph = fk.Sphere()
    nu_s = eq.equilibrium_reference(sph)
    search = cli._mesh_search(sph.mesh(40000), 15, 2)
    sdict = eq.build_dictionaries(sph, (0.5, 1.0))
    sdists = []
    for k in range(2, 16):
        cfg, _ = search(fk.BasisSpec(sph, k))
        sdists.append(eq.dist_gamma_dict(fk.fekete_measure(cfg), nu_s, sdict)[1.0])
    sma = np.convolve(sdists, np.ones(5) / 5, mode="valid")
    sphere_ok = bool(np.all(np.diff(sma) < 0))

    elapsed = time.perf_counter() - t0
    ok = circle_ok and interval_ok and sphere_ok and elapsed < 600.0
    report(
        9,
        "rate study",
        ok,
        f"circle slope {cslope:.3f} bounds ok: {circle_ok}; interval decreasing + "
        f"c_min {ifit.c_min:.3f}: {interval_ok}; sphere decreasing: {sphere_ok}; "
        f"{elapsed:.0f}s (<600s)",
    )


def test_criterion_10_subharmonic_comparison():
    grid = CircleGrid(1024)
    tests = []
    for a in np.linspace(0.1, 0.9, 8):
        psi = eq.SubharmonicSample.harmonic(
            CircleFunction(grid, a * (np.cos(grid.nodes) - 1.0))
        )
        tests.append((psi, 1.0, 0.5, 1.0))
    for b in (1.0, 1.5, 2.0, 3.0):
        tr = (np.exp(1j * grid.nodes) + b) / (1.0 + b)
        disc = discs.AnalyticDisc.from_traces(grid, tr[None, :])
        tests.append((eq.SubharmonicSample.log_modulus(disc), 0.8, 0.5, 1.0))
    for a in (0.2, 0.5, 0.8, 1.1):
        psi = eq.SubharmonicSample.harmonic(
            CircleFunction(grid, a * (np.cos(2 * grid.nodes) - 1.0))
        )
        tests.append((psi, 0.7, 0.5, 4.5))
    for s in (0.0, 0.3):
        psi = eq.SubharmonicSample.harmonic(
            CircleFunction(grid, np.full(grid.m, -s))
        )
        tests.append((psi, 1.0, 0.5, 0.5))
    for expo in (0.7, 0.8):
        psi = eq.SubharmonicSample.harmonic(
            CircleFunction(grid, 0.8 * np.abs(grid.nodes) ** expo)
        )
        tests.append((psi, 1.0, 0.5, 2.0))
    assert len(tests) == 20
    worst = -math.inf
    all_finite = True
    for psi, theta0, beta, c in tests:
        rep = eq.subharmonic_compare(psi, theta0, beta, c)
        worst = max(worst, rep.max_violation)
        all_finite &= np.isfinite(rep.constant)
    report(
        10,
        "subharmonic comparison",
        worst <= 1e-9 and all_finite,
        f"max interior violation {worst:.2e} (<=1e-9) over 20 functions, constants finite: {all_finite}",
    )


def test_criterion_11_extremal_function():
    err_value = abs(eq.extremal_interval(2.0) - math.log(2.0 + math.sqrt(3.0)))
    ratio = eq.extremal_interval(1.0 + 1e-8) / math.sqrt(2e-8)
    xs = np.linspace(-1.0, 1.0, 1000)
    on_k = max(eq.extremal_interval(x) for x in xs)
    ok = err_value <= 1e-12 and abs(ratio - 1.0) <= 0.01 and on_k <= 1e-12
    report(
        11,
        "extremal function",
        ok,
        f"log(2+sqrt3) err {err_value:.1e} (<=1e-12), C^1/2 ratio {ratio:.6f} (1 +- 0.01), "
        f"max on [-1,1] {on_k:.1e} (<=1e-12)",
    )
