"""Reference measures, exact W1 distances, two-sided dist_gamma bounds,
the sphere dictionaries, comparison checks.

Oracles: brute quadrature of |F_mu - F_nu| for dist_1, an analytic value
for the single-atom case, cell-transport bounds for equispaced atoms, and
brute midpoint quadrature in the quantile variable for the dist_gamma
bounds on the interval and circle, a certified 1-D test dictionary
kept here, whose pairing gap is a lower bound the bounds must clear, and
a 60 000-node sphere mesh for the dictionary's closed-form uniform means.
"""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketelab.circle import CircleFunction, CircleGrid
from feketelab.discs import AnalyticDisc
from feketelab.equilibrium import (
    SubharmonicSample,
    _circle_shift,
    _reach,
    build_dictionaries,
    check_gammas,
    dist1_circle,
    dist1_interval,
    dist_gamma_bounds,
    dist_gamma_dict,
    equilibrium_reference,
    extremal_interval,
    majorant_boundary,
    rate_fit,
    subharmonic_compare,
)
from feketelab.errors import HypothesisError, InputError, NoClosedFormError
from feketelab.fekete import (
    BasisSpec,
    Circle,
    CircleArc,
    EmpiricalMeasure,
    Interval,
    Sphere,
    ambient_of,
    fekete_1d,
    fekete_measure,
)

INTERVAL = Interval()
CIRCLE = Circle()
NU_I = equilibrium_reference(INTERVAL)
NU_C = equilibrium_reference(CIRCLE)
GAMMAS = (0.25, 0.5, 0.75, 1.0)  # a gamma grid; every dist_gamma takes gamma <= 1


def quadrature_dist1_oracle(atoms, n_grid=400000):
    """Brute |F_mu - F_nu| integral on a fine uniform grid."""
    atoms = np.sort(atoms)
    x = np.linspace(-1.0, 1.0, n_grid)
    f_mu = np.searchsorted(atoms, x, side="right") / len(atoms)
    f_nu = 0.5 + np.arcsin(x) / math.pi
    return float(np.trapezoid(np.abs(f_mu - f_nu), x))


# ---------------------------------------------------------------- reference
def test_reference_cdf_density_and_mass():
    assert abs(NU_I.cdf(0.0) - 0.5) < 1e-15
    assert abs(NU_I.density(0.0) - 1.0 / math.pi) < 1e-15
    assert abs(NU_I.total_mass() - 1.0) < 1e-12
    assert abs(NU_C.total_mass() - 1.0) < 1e-12
    x = np.linspace(-0.999, 0.999, 101)
    assert np.all(NU_I.density(x) >= 0.0)


def test_arcsine_cdf_matches_density_quadrature():
    for a, b in ((-0.9, 0.3), (0.0, 0.99), (-0.5, -0.1)):
        assert NU_I.density_cdf_gap(a, b) < 1e-12


def test_density_is_ddc_of_extremal_on_a_grid():
    """Arcsine density = normal-derivative jump of the extremal function."""
    # d/dy extremal(x + iy) at y -> 0+ equals pi * density(x) / ... up to
    # the equilibrium normalization: check proportionality on a grid
    xs = np.linspace(-0.9, 0.9, 19)
    h = 1e-7
    ratio = []
    for x in xs:
        slope = extremal_interval(complex(x, h)) / h
        ratio.append(slope / NU_I.density(x))
    ratio = np.asarray(ratio)
    assert np.max(np.abs(ratio - ratio.mean())) < 1e-4 * abs(ratio.mean())


def uniform_sphere_nodes() -> np.ndarray:
    """Oracle for the uniform measure on the sphere: 60 000 equal-weight
    Fibonacci nodes, the quadrature that gave the dictionary's reference
    means before they were closed form."""
    return Sphere().mesh(60000)


def test_sphere_reference_rotation_invariance():
    rng = np.random.default_rng(0)
    nodes = uniform_sphere_nodes()

    def mean_v(p):
        return np.mean(p[:, 2] ** 2 + 0.3 * p[:, 0])

    base = mean_v(nodes)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        assert abs(mean_v(nodes @ q.T) - base) < 2e-3


def test_no_closed_form_for_arcs():
    with pytest.raises(NoClosedFormError):
        equilibrium_reference(CircleArc(-1.0, 1.0))


# ----------------------------------------------------------------- extremal
def test_extremal_values():
    assert extremal_interval(0.5) == 0.0
    assert abs(extremal_interval(2.0) - math.log(2.0 + math.sqrt(3.0))) < 1e-12
    assert abs(extremal_interval(-2.0) - math.log(2.0 + math.sqrt(3.0))) < 1e-12


def test_extremal_zero_on_interval():
    xs = np.linspace(-1.0, 1.0, 1000)
    assert max(extremal_interval(x) for x in xs) <= 1e-12


def test_extremal_half_holder_signature():
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        ratio = extremal_interval(1.0 + eps) / math.sqrt(2.0 * eps)
        assert abs(ratio - 1.0) < 0.01


def test_extremal_log_growth():
    for z in (2.0, 5.0, 10.0 + 3j, -8.0 + 1j):
        val = extremal_interval(z)
        assert abs(val - math.log(abs(z))) < math.log(2.0) + 0.1


# ------------------------------------------------------------------- dist_1
def test_dist1_single_atom_analytic():
    mu = EmpiricalMeasure(INTERVAL, np.array([0.0]))
    val = dist1_interval(mu, NU_I)
    assert abs(val - 2.0 / math.pi) < 1e-14
    assert abs(val - quadrature_dist1_oracle([0.0])) < 1e-5


def test_dist1_quantile_atoms_decay():
    # quantile coupling: equal-mass cells, distance ~ 1/(2n) -> 0
    prev = None
    for n in (20, 80, 320):
        atoms = NU_I.quantile((np.arange(n) + 0.5) / n)
        d = dist1_interval(EmpiricalMeasure(INTERVAL, atoms), NU_I)
        assert d <= 1.0 / n
        if prev is not None:
            assert d < prev / 2.5
        prev = d


def test_dist1_matches_quadrature_oracle():
    rng = np.random.default_rng(1)
    for _ in range(5):
        atoms = np.sort(rng.uniform(-1, 1, size=rng.integers(1, 12)))
        exact = dist1_interval(EmpiricalMeasure(INTERVAL, atoms), NU_I)
        assert abs(exact - quadrature_dist1_oracle(atoms)) < 1e-5


def test_dist1_ignores_duplicated_structure():
    """Doubling every atom (same positions, same weights) changes nothing."""
    atoms = np.array([-0.5, 0.2, 0.7])
    d1 = dist1_interval(EmpiricalMeasure(INTERVAL, atoms), NU_I)
    d2 = dist1_interval(EmpiricalMeasure(INTERVAL, np.repeat(atoms, 2)), NU_I)
    assert abs(d1 - d2) < 1e-14


def test_dist1_circle_equispaced():
    for n in (3, 8, 17, 64):
        atoms = 2 * math.pi * np.arange(n) / n - math.pi
        d = dist1_circle(EmpiricalMeasure(CIRCLE, atoms), NU_C)
        assert abs(d - math.pi / (2 * n)) < 1e-12  # transport within cells
        assert d <= math.pi / n


def test_dist1_circle_vanishes_in_the_limit():
    # mu -> nu weakly: the distance must vanish like 1/n
    vals = []
    for n in (16, 64, 256, 1024):
        atoms = NU_C.quantile((np.arange(n) + 0.5) / n)
        vals.append(dist1_circle(EmpiricalMeasure(CIRCLE, atoms), NU_C))
    assert all(v == pytest.approx(math.pi / (2 * n), abs=1e-12) for v, n in zip(vals, (16, 64, 256, 1024)))
    assert vals[-1] < 2e-3


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0))
def test_dist1_circle_rotation_invariance(alpha):
    rng = np.random.default_rng(4)
    atoms = rng.uniform(-math.pi, math.pi, 9)
    d0 = dist1_circle(EmpiricalMeasure(CIRCLE, atoms), NU_C)
    d1 = dist1_circle(EmpiricalMeasure(CIRCLE, atoms + alpha), NU_C)
    assert abs(d0 - d1) <= 1e-10


def circle_shift_loop(atoms):
    """The median shift c* of `_circle_shift` by the loops it replaced: the
    segments of G = F_mu - F_nu one by one, and for each breakpoint value
    the mass below it summed segment by segment."""
    atoms = np.sort(np.mod(np.asarray(atoms, dtype=float) + math.pi, 2 * math.pi) - math.pi)
    n, slope = len(atoms), 1.0 / (2 * math.pi)
    segs = []
    for i in range(n):
        theta_b = atoms[i + 1] if i + 1 < n else atoms[0] + 2 * math.pi
        length = theta_b - atoms[i]
        if length > 0.0:
            g_start = (i + 1) / n - slope * (atoms[i] + math.pi)
            segs.append((length, g_start, g_start - slope * length))
    half = 0.5 * sum(s[0] for s in segs)

    def mass_below(c):
        m = 0.0
        for length, v_hi, v_lo in segs:
            if c >= v_hi:
                m += length
            elif c > v_lo:
                m += length * (c - v_lo) / (v_hi - v_lo)
        return m

    values = sorted({s[1] for s in segs} | {s[2] for s in segs})
    lo, hi = values[0], values[-1]
    for v in values:
        if mass_below(v) >= half:
            hi = v
            break
        lo = v
    m_lo, m_hi = mass_below(lo), mass_below(hi)
    if m_hi <= m_lo + 1e-300:
        return lo
    return lo + (half - m_lo) / (m_hi - m_lo) * (hi - lo)


def test_circle_shift_keeps_the_bits_of_the_loop():
    """The vectorised median adds in the loop's order, so c* is bit for bit
    the loop's, on random sets, sets with ties and equispaced sets."""
    rng = np.random.default_rng(21)
    sets = [np.array([0.3]), np.array([1.0, 1.0]), 2 * math.pi * np.arange(61) / 61 - math.pi]
    for t in range(300):
        atoms = rng.uniform(-math.pi, math.pi, rng.integers(1, 62))
        sets.append(np.round(atoms, 1) if t % 3 == 0 else atoms)
        sets.append(2 * math.pi * np.arange(len(atoms)) / len(atoms) + rng.uniform(-math.pi, math.pi))
    for atoms in sets:
        assert _circle_shift(atoms)[1].hex() == float(circle_shift_loop(atoms)).hex(), atoms


def test_dist1_rejects_a_measure_off_its_domain():
    with pytest.raises(InputError, match="supported on"):
        dist1_interval(EmpiricalMeasure(INTERVAL, np.array([0.0, 1.5])), NU_I)
    with pytest.raises(InputError, match="circle or an arc"):
        dist1_circle(EmpiricalMeasure(INTERVAL, np.array([0.0])), NU_C)


def test_dist1_against_an_atomic_reference_is_the_sorted_pairing():
    xs = np.array([-0.5, 0.1, 0.4])
    ys = np.array([-0.4, 0.0, 0.6])
    val = dist1_interval(EmpiricalMeasure(INTERVAL, xs), EmpiricalMeasure(INTERVAL, ys))
    oracle = np.mean(np.abs(np.sort(xs) - np.sort(ys)))  # same-size coupling
    assert abs(val - oracle) < 1e-14


def test_distance_axioms_on_triples():
    """Symmetry, the triangle inequality and zero on equal measures, on the
    interval and on an arc shorter than pi, where the coupling is optimal."""
    rng = np.random.default_rng(5)
    cases = ((INTERVAL, dist1_interval, -1.0, 1.0), (CircleArc(-1.0, 1.5), dist1_circle, -1.0, 1.5))
    for domain, w1, lo, hi in cases:
        a, b, c = (EmpiricalMeasure(domain, np.sort(rng.uniform(lo, hi, 6))) for _ in range(3))
        dab, dbc, dac = w1(a, b), w1(b, c), w1(a, c)
        assert dab >= 0 and abs(w1(b, a) - dab) < 1e-15
        assert dac <= dab + dbc + 1e-12
        assert w1(a, a) == 0.0


# ------------------------------------------------ two-sided dist_gamma in 1-D
def brute_force_bounds(atoms, nu, gamma, nodes=2**22):
    """(lo_min, lo_max, hi) of dist_gamma_bounds(mu, nu, [gamma]) by midpoint
    quadrature in the quantile variable p of nu, chunk by chunk.

    The nearest-atom mass is a midpoint sum over [0, 1], the coupling cost
    one over each atom's slot [j/n, (j + 1)/n], at whose ends the coupled
    atom jumps.  The sup R of the nearest-atom function is a maximum over
    a uniform grid of the domain, which misses the true sup by at most
    half a grid step, so lo is bracketed rather than pinned."""
    circle = isinstance(nu.domain, Circle)
    x = np.sort(atoms)
    shift = 0.0
    if circle:
        x, shift = _circle_shift(atoms)
        ext = np.concatenate(([x[-1] - 2 * math.pi], x, [x[0] + 2 * math.pi]))
    else:
        ext = np.concatenate(([-np.inf], x, [np.inf]))

    def nearest(t):
        i = np.searchsorted(ext, t)
        return np.minimum(t - ext[i - 1], ext[i] - t)

    def midpoints(a, b, m):
        for start in range(0, m, 2**20):
            yield a + (b - a) * (np.arange(start, min(start + 2**20, m)) + 0.5) / m

    near = sum(np.sum(np.minimum(nearest(nu.quantile(p)), 1.0) ** gamma) for p in midpoints(0.0, 1.0, nodes)) / nodes
    n = len(x)
    plan = sum(
        np.sum(np.minimum(np.abs(x[j] - nu.quantile(p - shift)), 1.0) ** gamma)
        for j in range(n)
        for p in midpoints(j / n, (j + 1) / n, nodes // n)
    ) / (n * (nodes // n))
    grid = np.linspace(-math.pi, math.pi, nodes + 1) if circle else np.linspace(-1.0, 1.0, nodes + 1)
    reach = np.max(nearest(grid))
    step = grid[1] - grid[0]
    lo_max = near / (1.0 + 0.5 * min(reach, 1.0) ** gamma)
    lo_min = near / (1.0 + 0.5 * min(reach + 0.5 * step, 1.0) ** gamma)
    return lo_min, lo_max, plan


BRUTE_CASES = {
    # the degree-1 Fekete pair: the coupled distances reach the cap exactly
    "interval-fekete-pair": (INTERVAL, lambda: np.array([-1.0, 1.0])),
    # N = 2 and crowded on the left: nearest-atom and coupled distances pass the cap
    "interval-pair": (INTERVAL, lambda: np.array([-0.9, -0.3])),
    "interval-crowded": (INTERVAL, lambda: np.array([-1.0, -0.97, -0.9, -0.75, -0.6])),
    "interval-near-end": (INTERVAL, lambda: np.array([-1.0 + 1e-9, -0.999, -0.2, 0.4, 1.0 - 1e-6])),
    "interval-random": (INTERVAL, lambda: np.random.default_rng(11).uniform(-1.0, 1.0, 9)),
    "circle-crowded": (CIRCLE, lambda: np.array([-3.0, -2.8, -2.5, -2.1, 3.1])),
    "circle-random": (CIRCLE, lambda: np.random.default_rng(12).uniform(-math.pi, math.pi, 8)),
}


@pytest.mark.parametrize("case", sorted(BRUTE_CASES))
def test_bounds_match_brute_force_quadrature(case):
    domain, atoms = BRUTE_CASES[case]
    atoms = atoms()
    nu = equilibrium_reference(domain)
    gammas = (0.25, 0.5, 1.0)
    bounds = dist_gamma_bounds(EmpiricalMeasure(domain, atoms), nu, gammas)
    for g in gammas:
        lo, hi = bounds[g]
        lo_min, lo_max, plan = brute_force_bounds(atoms, nu, g)
        assert lo_min * (1 - 1e-7) <= lo <= lo_max * (1 + 1e-7), (g, lo, lo_min, lo_max)
        assert abs(hi - plan) <= 1e-7 * plan, (g, hi, plan)


def test_brute_force_cases_run_the_cap_branch():
    """Some coupled distance exceeds 1 in the crowded cases, so the capped
    pieces of the rays are part of what the brute force checks."""
    for case in ("interval-pair", "interval-crowded", "circle-crowded"):
        domain, atoms = BRUTE_CASES[case]
        nu = equilibrium_reference(domain)
        bounds = dist_gamma_bounds(EmpiricalMeasure(domain, atoms()), nu, (1.0,))
        w1 = (dist1_interval if domain == INTERVAL else dist1_circle)(EmpiricalMeasure(domain, atoms()), nu)
        assert bounds[1.0][1] < w1 - 1e-3


@pytest.mark.parametrize("domain", [INTERVAL, CIRCLE], ids=["interval", "circle"])
def test_bounds_bracket_the_exact_w1_on_fekete_points(domain):
    """At gamma = 1 the coupling cost is the exact W1 (no distance reaches
    the cap), and lo stays below it; every gamma has 0 <= lo <= hi."""
    nu = equilibrium_reference(domain)
    w1 = dist1_interval if domain == INTERVAL else dist1_circle
    for k in range(2, 41):
        mu = fekete_measure(fekete_1d(BasisSpec(domain, k))[0])
        exact = w1(mu, nu)
        bounds = dist_gamma_bounds(mu, nu, GAMMAS)
        lo, hi = bounds[1.0]
        assert lo <= exact and abs(hi - exact) <= 1e-12, (k, lo, hi, exact)
        assert all(0.0 <= lo <= hi for lo, hi in bounds.values()), (k, bounds)


def test_bounds_vanish_against_an_equal_atomic_reference():
    """The arc's k_max row: the self-consistency reference is mu itself."""
    arc = CircleArc(-1.0, 1.0)
    mu = fekete_measure(fekete_1d(BasisSpec(arc, 6))[0])
    assert dist_gamma_bounds(mu, mu, (0.5, 1.0)) == {0.5: (0.0, 0.0), 1.0: (0.0, 0.0)}


def test_arc_bounds_leave_numpy_ma_unimported():
    """The atomic reference's slot edges are deduped by a sort and a mask,
    not np.unique, whose first call imports numpy.ma (16 ms and 0.5 MB):
    in a fresh interpreter an arc's bounds and W1 against an atomic
    reference leave it unloaded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {src!r})
        import numpy as np
        from feketelab.equilibrium import dist1_circle, dist_gamma_bounds
        from feketelab.fekete import CircleArc, EmpiricalMeasure

        arc = CircleArc(-1.0, 1.0)
        mu = EmpiricalMeasure(arc, np.array([-0.5, 0.1, 0.7]))
        nu = EmpiricalMeasure(arc, np.array([-0.4, 0.2, 0.3, 0.9]))
        loaded = "numpy.ma" in sys.modules
        dist_gamma_bounds(mu, nu, (0.5, 1.0))
        dist1_circle(mu, nu)
        print(loaded, "numpy.ma" in sys.modules)
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_atomic_reference_sums_approach_the_closed_form():
    """Against the 4096 mid-quantiles of the arcsine, the finite sums of an
    atomic reference come within the quantization error of the integrals."""
    nu = equilibrium_reference(INTERVAL)
    fine = EmpiricalMeasure(INTERVAL, nu.quantile((np.arange(4096) + 0.5) / 4096))
    mu = EmpiricalMeasure(INTERVAL, np.array([-0.9, -0.3, 0.1, 0.8]))
    exact, atomic = dist_gamma_bounds(mu, nu, (1.0,))[1.0], dist_gamma_bounds(mu, fine, (1.0,))[1.0]
    assert np.allclose(atomic, exact, atol=1e-3)
    # each of mu's 4 sorted atoms takes 1024 of the 4096 sorted fine atoms, in order
    sorted_pairing = np.mean(np.abs(np.repeat(mu.atoms, 1024) - fine.atoms))
    assert abs(atomic[1] - dist1_interval(mu, fine)) <= 1e-12
    assert abs(dist1_interval(mu, fine) - sorted_pairing) <= 1e-12


def test_reach_of_arc_atoms_sees_the_ends_and_the_wrap():
    """On an arc longer than pi the distance to the nearest atom is
    geodesic: past the last atom it may come back round the circle."""
    arc = CircleArc(-3.0, 3.0)
    x = np.array([-2.5, 0.5])
    # the largest gap is the one through pi, 2 pi - 3 long, whose middle
    # lies on the arc; on the line the end 3.0 would be 2.5 from x
    assert _reach(arc, x, True) == pytest.approx(math.pi - 1.5)
    assert _reach(Interval(), np.array([-0.5, 0.5]), False) == pytest.approx(0.5)
    assert _reach(CIRCLE, x, True) == pytest.approx(math.pi - 1.5)


# ---------------------------------------------------- sphere dictionaries
def test_dictionary_certified_norms():
    """Every scaled member of the sphere dictionary has grid-estimated
    C^gamma norm at most 1, for every gamma, on the mesh and the
    Fibonacci-lag pairs its scales were measured on."""
    from feketelab.equilibrium import _sphere_norm_mesh, _sphere_pair_lags

    gammas = (0.5, 1.0)
    dct = build_dictionaries(Sphere(), gammas)
    mesh = _sphere_norm_mesh()
    vals = np.concatenate(list(dct.blocks(mesh)))
    assert dct.gammas == gammas and dct.scales.shape == (2, len(vals))
    for g, scales in zip(gammas, dct.scales):
        scaled = vals / scales[:, None]
        semi = np.zeros(len(vals))
        for lag in _sphere_pair_lags():
            d = np.minimum(np.linalg.norm(mesh[lag:] - mesh[:-lag], axis=1), 1.0)
            semi = np.maximum(semi, np.max(np.abs(scaled[:, lag:] - scaled[:, :-lag]) / d**g, axis=1))
        norms = np.max(np.abs(scaled), axis=1) + semi
        assert np.all(norms <= 1.0 + 1e-6), (g, int(np.argmax(norms)))


def test_closed_form_means_match_the_quadrature_oracle():
    """The dictionary's exact means under the uniform measure agree with
    the 60 000-node oracle to its quadrature error (4.3e-7 on the cones,
    2.6e-7 on the harmonics); only Y_00 among the harmonics has a nonzero
    mean."""
    dct = build_dictionaries(Sphere(), (1.0,))
    assert dct.uniform_means.shape == (200 + 49,)
    assert np.all(dct.uniform_means[:200] == 0.5 * (1.0 - math.sin(1.0)))
    assert dct.uniform_means[200] == 1.0 / math.sqrt(4.0 * math.pi)
    assert np.all(dct.uniform_means[201:] == 0.0)
    assert np.max(np.abs(dct.means(uniform_sphere_nodes()) - dct.uniform_means)) < 1e-6


def test_reference_pairing_needs_the_uniform_sphere_means():
    """A dictionary pairs a closed-form reference only through its exact
    uniform means: not the arcsine, and not without the means."""
    from feketelab.equilibrium import TestDictionary

    dct = build_dictionaries(Sphere(), (1.0,))
    mu = EmpiricalMeasure(Sphere(), Sphere().mesh(7))
    with pytest.raises(InputError):
        dist_gamma_dict(mu, NU_I, dct)
    bare = TestDictionary(dct.gammas, dct.blocks, dct.scales)
    with pytest.raises(InputError):
        dist_gamma_dict(mu, equilibrium_reference(Sphere()), bare)


def _at_angle(x, theta, rng):
    """Points at angle theta from the unit vectors x, in random directions."""
    t = rng.standard_normal(x.shape)
    t -= np.sum(t * x, axis=1)[:, None] * x
    t /= np.linalg.norm(t, axis=1)[:, None]
    return np.cos(theta)[:, None] * x + np.sin(theta)[:, None] * t


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_cone_scale_is_certified_and_reached(gamma):
    """No cone's Hoelder quotient exceeds the closed-form seminorm bound
    (2 sin 1/2)^-gamma, on pairs clustered about the angle 1, where the
    bound is reached (each pair starts near a cone's centre), nor on the
    norm mesh's lag pairs.  The sampled norms come within 3% of the
    closed form; at gamma = 1 the lag pairs alone do too (0.4-2.5% below
    it), while at gamma = 0.5 they fall 0.9-19% below it, on the cones
    where no lag pair from near the centre spans an angle near 1."""
    from feketelab.equilibrium import _sphere_norm_mesh, _sphere_pair_lags

    dct = build_dictionaries(Sphere(), (gamma,))
    closed = 1.0 + (2.0 * math.sin(0.5)) ** -gamma
    assert np.all(dct.scales[0, :200] == closed * (1.0 + 1e-9))

    def cones(p):
        return np.concatenate(list(dct.blocks(p))[:200])

    rng = np.random.default_rng(25)
    centres = Sphere().mesh(200)
    x = _at_angle(np.repeat(centres, 25, axis=0), rng.uniform(0.0, 0.05, 5000), rng)
    y = _at_angle(x, rng.uniform(0.95, 1.05, 5000), rng)
    fx, fy = cones(x), cones(y)
    d = np.minimum(np.linalg.norm(x - y, axis=1), 1.0) ** gamma
    clustered = np.max(np.abs(fx - fy) / d, axis=1)

    mesh = _sphere_norm_mesh()
    vals = cones(mesh)
    lagged = np.zeros(200)
    for lag in _sphere_pair_lags():
        d = np.minimum(np.linalg.norm(mesh[lag:] - mesh[:-lag], axis=1), 1.0) ** gamma
        lagged = np.maximum(lagged, np.max(np.abs(vals[:, lag:] - vals[:, :-lag]) / d, axis=1))
    sup = np.maximum(np.max(vals, axis=1), np.maximum(np.max(fx, axis=1), np.max(fy, axis=1)))
    assert np.all(sup <= 1.0)
    assert np.all(np.maximum(clustered, lagged) <= (closed - 1.0) * (1.0 + 1e-12))
    assert np.all(sup + np.maximum(clustered, lagged) >= closed / 1.03)
    if gamma == 1.0:
        assert np.all(np.max(vals, axis=1) + lagged >= closed / 1.03)


def test_dictionary_monotone_in_gamma():
    mu = EmpiricalMeasure(Sphere(), np.array([[0.0, 0.0, 1.0]]))
    dists = dist_gamma_dict(mu, equilibrium_reference(Sphere()), build_dictionaries(Sphere(), GAMMAS))
    assert list(dists) == list(GAMMAS)
    vals = list(dists.values())
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_dictionary_duality_against_w1():
    """The gamma = 1 dictionary distance is a lower bound, so it stays below
    the capped chordal cost of any pairing of two equal-size atom sets."""
    dct = build_dictionaries(Sphere(), (1.0,))
    rng = np.random.default_rng(6)
    for _ in range(5):
        a, b = (rng.standard_normal((7, 3)) for _ in range(2))
        a, b = (v / np.linalg.norm(v, axis=1)[:, None] for v in (a, b))
        lower = dist_gamma_dict(EmpiricalMeasure(Sphere(), a), EmpiricalMeasure(Sphere(), b), dct)[1.0]
        assert lower <= np.mean(np.minimum(np.linalg.norm(a - b, axis=1), 1.0)) + 1e-9


def test_dictionary_zero_for_equal_measures():
    dct = build_dictionaries(Sphere(), (0.5, 1.0))
    mu = EmpiricalMeasure(Sphere(), Sphere().mesh(7))
    assert dist_gamma_dict(mu, mu, dct) == {0.5: 0.0, 1.0: 0.0}


def test_empty_dictionary_rejected():
    from feketelab.equilibrium import TestDictionary

    empty = TestDictionary(gammas=(1.0,), blocks=lambda nodes: iter(()), scales=np.empty((1, 0)))
    with pytest.raises(InputError):
        dist_gamma_dict(EmpiricalMeasure(INTERVAL, np.array([0.0])), NU_I, empty)


def test_sphere_dictionary_members_certified():
    dct = build_dictionaries(Sphere(), (0.5, 1.0))
    assert dct.scales.shape == (2, 200 + 49)
    mesh = Sphere().mesh(5000)
    vals = np.concatenate(list(dct.blocks(mesh)))
    assert vals.shape == (200 + 49, len(mesh))
    assert np.all(np.max(np.abs(vals), axis=1) <= dct.scales[1] * (1.0 + 1e-6))


# ------------------------------------------- 1-D test-dictionary oracle
# The package builds no dictionary on the 1-D domains.  The one below, with
# certified scales from a collapsed lag scan of the members on a uniform
# grid, is kept here as an independent lower bound on dist_gamma: the
# upper bound of `dist_gamma_bounds` must stay above its pairing gap.
def _window_extrema(op, seg: np.ndarray, width: int, out: np.ndarray) -> None:
    """out[j] = op-extremum of seg[j : j + width], windows cut at the end.

    Doubling: after each pass out[j] covers twice as many entries, and one
    offset pass tops the last width up to `width`.  The passes run on 1-D
    views in place, reading ahead of what they write, which numpy does
    without a temporary copy.
    """
    n = len(seg)
    np.copyto(out, seg)
    k = 1
    while 2 * k <= width:
        op(out[: n - k], out[k:], out=out[: n - k])
        k *= 2
    if k < width:
        s = width - k
        op(out[: n - s], out[s:], out=out[: n - s])


def _lag_maxima(vals: np.ndarray, h: float):
    """max_j |v[j+lag] - v[j]| of every row of `vals`, one table row per
    distinct distance.

    Returns the (distances, rows) table and the capped distances
    min(lag h, 1) as scalars.  Lags stop once lag h > 2.5, beyond which the
    capped distance is constant.  Each lag with lag h < 1 has its own row,
    max(max_j d, -min_j d) of its differences d, which go into one reused
    buffer.  The lags with lag h >= 1 all sit at distance 1 and share one
    row, max_j max(Wmax[j] - v[j], v[j] - Wmin[j]), where Wmax and Wmin
    are the extrema of v over the window of nodes those lags reach from
    j.  Rounding is monotone, so fl(max_i v[i] - v[j]) = max_i fl(v[i] -
    v[j]), and fl(a - b) = -fl(b - a): every gamma's max of table / dist
    is the per-lag loop's, bit for bit (a zero entry may carry a minus
    sign, which adding the sup norm clears).
    """
    rows, m = vals.shape
    near, far = [], []
    for lag in range(1, m):
        (near if lag * h < 1.0 else far).append(lag)
        if lag * h > 2.5:
            break
    dists = [lag * h for lag in near] + ([1.0] if far else [])
    table = np.empty((len(dists), rows))
    buf = np.empty((rows, m - 1))
    for row, lag in zip(table, near):
        diff = buf[:, : m - lag]
        np.subtract(vals[:, lag:], vals[:, :-lag], out=diff)
        np.max(diff, axis=1, out=row)
        np.maximum(row, -np.min(diff, axis=1), out=row)
    if far:
        lo, width = far[0], len(far)
        n = m - lo
        for r, v in enumerate(vals):
            win = buf[r, :n]
            _window_extrema(np.maximum, v[lo:], width, win)
            up = np.max(np.subtract(win, v[:n], out=win))
            _window_extrema(np.minimum, v[lo:], width, win)
            table[-1, r] = max(up, np.max(np.subtract(v[:n], win, out=win)))
    return table, dists


def _holder_norms_1d(xs: np.ndarray, vals: np.ndarray, gammas) -> np.ndarray:
    """sup + Hoelder seminorm with distances capped at 1, on a uniform grid,
    of every row of `vals`; one row per gamma in (0, 1].  One lag scan
    serves every gamma."""
    table, dists = _lag_maxima(vals, xs[1] - xs[0])
    sup = np.max(np.abs(vals), axis=1)
    return np.array([sup + np.max(table / np.array([d**g for d in dists])[:, None], axis=0) for g in gammas])


def _interval_members():
    """x, cos(m pi (x+1)/2) for m = 1..12 and nine hats of half-width 0.4,
    evaluated as one (22, nodes) block."""
    modes = np.arange(1, 13)
    centers = np.linspace(-0.8, 0.8, 9)

    def blocks(x):
        x = np.asarray(x, float)
        cosines = np.cos(modes[:, None] * math.pi * (x + 1.0) / 2.0)
        hats = np.maximum(0.0, 1.0 - np.abs(x - centers[:, None]) / 0.4)
        yield np.concatenate((x[None], cosines, hats))

    return blocks


def _circle_members():
    """cos(m t), sin(m t) for m = 1..12 and eight periodic hats of
    half-width 0.5, evaluated as one (32, nodes) block."""
    modes = np.arange(1, 13)
    centers = np.linspace(-math.pi, math.pi, 8, endpoint=False)

    def blocks(t):
        t = np.asarray(t, float)
        arg = modes[:, None] * t
        trig = np.stack((np.cos(arg), np.sin(arg)), axis=1).reshape(-1, len(t))
        hats = np.maximum(0.0, 1.0 - np.abs(np.mod(t - centers[:, None] + math.pi, 2 * math.pi) - math.pi) / 0.5)
        yield np.concatenate((trig, hats))

    return blocks


def dictionary(domain, gammas):
    """The package's dictionary on the sphere; the oracle on the interval,
    circle and arcs, with scales as running maxima over the sorted gammas."""
    from feketelab.equilibrium import TestDictionary

    if isinstance(ambient_of(domain), Sphere):
        return build_dictionaries(domain, gammas)
    gammas = check_gammas(gammas)
    if isinstance(ambient_of(domain), Interval):
        blocks, xs = _interval_members(), np.linspace(-1.0, 1.0, 2001)
    else:
        blocks, xs = _circle_members(), np.linspace(-math.pi, math.pi, 4001)
    (vals,) = blocks(xs)
    norms = _holder_norms_1d(xs, vals, gammas)
    return TestDictionary(gammas, blocks, np.maximum.accumulate(norms, axis=0) * (1.0 + 1e-9))


@pytest.mark.parametrize("domain", [INTERVAL, CIRCLE], ids=["interval", "circle"])
def test_oracle_dictionary_stays_below_the_upper_bound(domain):
    """On Fekete points, every gamma's pairing gap of the oracle dictionary
    (a lower bound on dist_gamma) is at most hi, and here at most lo too.
    The reference means are taken over 4096 mid-quantiles of nu, whose
    error is far below the 0.01 by which lo clears the gap."""
    nu = equilibrium_reference(domain)
    nodes = EmpiricalMeasure(domain, nu.quantile((np.arange(4096) + 0.5) / 4096))
    dct = dictionary(domain, GAMMAS)
    for k in range(2, 41):
        mu = fekete_measure(fekete_1d(BasisSpec(domain, k))[0])
        bounds = dist_gamma_bounds(mu, nu, GAMMAS)
        for g, gap in dist_gamma_dict(mu, nodes, dct).items():
            lo, hi = bounds[g]
            assert gap <= lo <= hi, (k, g, gap, lo, hi)


def test_dictionary_certified_norms_on_the_1d_grids():
    """Every scaled member of the interval and circle oracle dictionaries
    has grid-estimated C^gamma norm at most 1, for every gamma, on the grid
    its scale was measured on."""
    for domain, xs, size in (
        (INTERVAL, np.linspace(-1, 1, 2001), 22),
        (CIRCLE, np.linspace(-math.pi, math.pi, 4001), 32),
    ):
        dct = dictionary(domain, GAMMAS)
        assert dct.gammas == GAMMAS and dct.scales.shape == (len(GAMMAS), size)
        for g, scales in zip(dct.gammas, dct.scales):
            vals = np.concatenate(list(dct.blocks(xs))) / scales[:, None]
            assert vals.shape == (size, len(xs))
            assert np.max(np.abs(vals)) <= 1.0 + 1e-6
            (norms,) = _holder_norms_1d(xs, vals, (g,))
            assert np.all(norms <= 1.0 + 1e-6), (g, int(np.argmax(norms)))


def _loop_holder_norm_1d(xs, vals, gamma):
    """Reference: the lag loop run for one function and one gamma."""
    sup = float(np.max(np.abs(vals)))
    h = xs[1] - xs[0]

    def semi(v, expo):
        out = 0.0
        for lag in range(1, len(v)):
            d = min(lag * h, 1.0)
            out = max(out, np.max(np.abs(v[lag:] - v[:-lag])) / d**expo)
            if lag * h > 2.5:
                break
        return out

    return sup + semi(vals, gamma)


@pytest.mark.parametrize("half_width", [1.0, 3.5])
def test_batched_holder_norms_equal_lag_loop(half_width):
    """One lag pass over all rows gives every gamma's norm bit for bit."""
    xs = np.linspace(-half_width, half_width, 301)
    rng = np.random.default_rng(8)
    vals = np.vstack([np.cos(3.0 * xs), np.abs(xs - 0.2), rng.standard_normal(len(xs))])
    gammas = (0.3, 0.5, 0.7, 1.0)
    for g, norms in zip(gammas, _holder_norms_1d(xs, vals, gammas)):
        assert norms.tolist() == [_loop_holder_norm_1d(xs, v, g) for v in vals]


def _assert_scan_equals_lag_loop(xs, vals, gammas=(0.25, 0.5, 1.0)):
    for g, norms in zip(gammas, _holder_norms_1d(xs, vals, gammas)):
        expected = np.array([_loop_holder_norm_1d(xs, v, g) for v in vals])
        assert norms.tobytes() == expected.tobytes(), g


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_collapsed_scan_equals_lag_loop_on_the_dictionary_grids(domain):
    """The dictionary members on the grids their scales are built on.  All
    lags at distance >= 1 share one table row."""
    if domain == "interval":
        xs, blocks = np.linspace(-1.0, 1.0, 2001), _interval_members()
    else:
        xs, blocks = np.linspace(-math.pi, math.pi, 4001), _circle_members()
    (vals,) = blocks(xs)
    _assert_scan_equals_lag_loop(xs, vals)
    table, dists = _lag_maxima(vals, xs[1] - xs[0])
    assert dists.count(1.0) == 1 and dists[-1] == 1.0 and len(table) == len(dists)


@pytest.mark.parametrize(
    "xs",
    [
        np.linspace(0.0, 0.5, 11),  # no lag reaches distance 1
        np.linspace(0.0, 1.0, 9),  # only the last lag does
        np.arange(5) * 3.0,  # 5 nodes, the first lag is already capped
        np.arange(32) / 16.0,  # capped window of 16 lags
        np.arange(33) / 16.0,  # ... of 17 lags
        np.arange(100) / 16.0,  # capped lags cut off past distance 2.5
    ],
)
def test_collapsed_scan_equals_lag_loop_on_edge_grids(xs):
    rng = np.random.default_rng(len(xs))
    vals = np.vstack(
        [
            xs,  # largest difference at the longest lag
            np.cos(2.0 * xs),
            np.abs(xs - xs[len(xs) // 3]),
            rng.standard_normal(len(xs)),
            np.full(len(xs), 3.0),
            np.zeros(len(xs)),
            np.full(len(xs), -0.0),
            np.where(np.arange(len(xs)) % 2 == 0, 0.0, -0.0),
        ]
    )
    _assert_scan_equals_lag_loop(xs, vals)


def test_collapsed_scan_keeps_the_quotients_at_distance_one():
    """x on [-1, 1] reaches its largest quotient (2) only between nodes
    more than 1 apart."""
    xs = np.linspace(-1.0, 1.0, 201)
    vals = np.vstack([xs, xs**2 / 2.0])
    _assert_scan_equals_lag_loop(xs, vals)
    assert _loop_holder_norm_1d(xs, vals[0], 0.5) == 3.0


def test_collapsed_scan_adds_no_rows_by_nodes_array():
    """The window extrema run in place in the difference buffer: the scan's
    peak allocation is that buffer plus the table, not a second block."""
    import tracemalloc

    xs = np.linspace(-math.pi, math.pi, 4001)
    (vals,) = _circle_members()(xs)
    tracemalloc.start()
    try:
        _lag_maxima(vals, xs[1] - xs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buf_bytes = vals.shape[0] * (vals.shape[1] - 1) * 8
    assert peak < 1.35 * buf_bytes


def test_sphere_dictionary_rejects_gamma_above_one():
    with pytest.raises(InputError, match="gamma <= 1"):
        build_dictionaries(Sphere(), (1.5, 1.0))
    with pytest.raises(InputError, match="gamma <= 1"):
        build_dictionaries(Sphere(), (0.5, 1.0, 1.5))


@pytest.mark.parametrize("domain", [Interval(), Circle(), CircleArc(-1.0, 1.0)], ids=["interval", "circle", "arc"])
@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_line_dictionaries_reject_gamma_above_one(domain, gamma):
    """min(d, 1)^gamma is a metric only for gamma <= 1, so neither the
    dictionaries nor the 1-D bounds take a larger gamma, on any domain."""
    with pytest.raises(InputError, match="gamma <= 1"):
        build_dictionaries(domain, (0.5, 1.0, gamma))
    mu = EmpiricalMeasure(domain, np.array([0.0, 0.5]))
    with pytest.raises(InputError, match="gamma <= 1"):
        dist_gamma_bounds(mu, mu, (0.5, 1.0, gamma))


def test_sphere_dictionary_evaluates_basis_once_per_node_set(monkeypatch):
    """The 49 harmonics come from one basis evaluation per node set: the
    norm mesh at build time, then the atoms at each pairing; the uniform
    reference's means are closed form."""
    import feketelab.fekete as fk

    calls = []
    real = fk.basis_matrix

    def counting(spec, pts):
        calls.append(len(pts))
        return real(spec, pts)

    monkeypatch.setattr(fk, "basis_matrix", counting)
    dct = build_dictionaries(Sphere(), (1.0,))
    assert calls == [20000]
    nu = equilibrium_reference(Sphere())
    mu = EmpiricalMeasure(Sphere(), Sphere().mesh(30))
    for _ in range(2):
        calls.clear()
        dist_gamma_dict(mu, nu, dct)
        assert calls == [30]


def test_sphere_dictionary_means_average_c_order_blocks():
    """The basis matrix is a (basis, nodes) view of a node-major buffer,
    and a row mean of that view rounds differently from the row mean of a
    C-order block.  The dictionary's means on greedy sphere atoms keep the
    bits of the C-order average at every degree of the rate study."""
    import feketelab.fekete as fk

    mesh = Sphere().mesh(6000)
    w = fk.basis_matrix(BasisSpec(Sphere(), 8), mesh).T
    dct = build_dictionaries(Sphere(), (1.0,))
    for k in range(2, 9):
        cfg, _ = fk.leja_greedy(BasisSpec(Sphere(), k), mesh, w)
        want = np.concatenate([np.mean(np.ascontiguousarray(b), axis=1) for b in dct.blocks(cfg.points)])
        assert dct.means(cfg.points).tobytes() == want.tobytes(), k


# ------------------------------------------------------------- subharmonic
def _linear_psi(grid, a):
    return SubharmonicSample.harmonic(CircleFunction(grid, a * (np.cos(grid.nodes) - 1.0)))


def test_compare_linear_boundary():
    grid = CircleGrid(1024)
    rep = subharmonic_compare(_linear_psi(grid, 0.8), theta0=1.0, beta=0.5, c=1.0)
    assert rep.passed and np.isfinite(rep.constant)


def test_compare_zero_function():
    grid = CircleGrid(1024)
    psi = SubharmonicSample.harmonic(CircleFunction(grid, np.zeros(grid.m)))
    rep = subharmonic_compare(psi, theta0=1.0, beta=0.5, c=0.5)
    assert rep.passed
    assert rep.max_violation <= 0.0


def test_compare_log_modulus():
    grid = CircleGrid(1024)
    tr = (np.exp(1j * grid.nodes) + 1.0) / 2.0
    disc = AnalyticDisc.from_traces(grid, tr[None, :])
    psi = SubharmonicSample.log_modulus(disc)
    rep = subharmonic_compare(psi, theta0=1.0, beta=0.5, c=1.0)
    assert rep.passed


def test_compare_rejects_bad_hypothesis():
    grid = CircleGrid(1024)
    psi = SubharmonicSample.harmonic(CircleFunction(grid, np.full(grid.m, 0.5)))
    with pytest.raises(HypothesisError):
        subharmonic_compare(psi, theta0=0.8, beta=0.5, c=0.3)  # psi(1)=0.5 > 0


def test_majorant_boundary_shape():
    grid = CircleGrid(1024)
    c, theta0, beta = 0.7, 1.2, 0.5
    m = majorant_boundary(grid, theta0, beta, c)
    th = np.abs(grid.nodes)
    inner = th <= theta0 / 2
    outer = th >= 3 * theta0 / 4
    np.testing.assert_allclose(m.samples[inner], c * th[inner] ** beta, atol=1e-12)
    np.testing.assert_allclose(m.samples[outer], c, atol=1e-12)
    assert np.all(m.samples >= -1e-15)


def test_maximum_principle_never_violated():
    """ψ never exceeds the majorant interiorly when hypotheses hold."""
    grid = CircleGrid(1024)
    for a in (0.1, 0.4, 0.9):
        rep = subharmonic_compare(_linear_psi(grid, a), theta0=0.9, beta=0.5, c=1.0)
        assert rep.max_violation <= 1e-9


# --------------------------------------------------------------- rate fits
def test_rate_fit_exact_power():
    ks = np.arange(2, 30)
    fit = rate_fit(ks, 3.0 * ks**-1.0)
    assert abs(fit.slope + 1.0) < 1e-12
    assert fit.bound_ok


def test_rate_fit_constant_sequence():
    ks = np.arange(2, 30)
    fit = rate_fit(ks, np.full(len(ks), 0.4))
    assert abs(fit.slope) < 1e-12
    assert not fit.bound_ok
    assert abs(fit.c_min - 0.4 * 29.0 ** (1.0 / 36.0 - 0.01)) < 1e-12


def test_rate_fit_validation():
    with pytest.raises(InputError):
        rate_fit([1, 2, 3], [0.1, 0.2, 0.1])
    with pytest.raises(InputError):
        rate_fit(np.arange(2, 10), np.linspace(-0.1, 0.5, 8))


def test_build_dictionaries_scans_a_repeated_gamma_once(monkeypatch):
    from feketelab import equilibrium as eq

    scanned = []
    real = eq._sphere_norms
    monkeypatch.setattr(eq, "_sphere_norms", lambda blocks, gammas: scanned.append(gammas) or real(blocks, gammas))
    repeated = build_dictionaries(Sphere(), (1.0, 1.0))
    single = build_dictionaries(Sphere(), (1.0,))
    assert scanned == [(1.0,), (1.0,)]
    assert repeated.gammas == single.gammas == (1.0,)
    assert repeated.scales.tobytes() == single.scales.tobytes()


@pytest.mark.parametrize(
    "domain", [Interval(), Circle(), Sphere(), CircleArc(-1.0, 1.0)], ids=["interval", "circle", "sphere", "arc"]
)
def test_gamma_one_scales_do_not_depend_on_the_lower_grid(domain):
    """Distances are capped at 1, so the gamma = 0.5 norm of a member never
    exceeds its gamma = 1 norm and the running maximum at gamma = 1 is that
    norm: `fekete` builds (1.0,) alone when no gammas are configured."""
    alone = dictionary(domain, (1.0,)).scales[0]
    assert alone.tobytes() == dictionary(domain, (0.5, 1.0)).scales[1].tobytes()
