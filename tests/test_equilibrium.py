"""Reference measures, exact W1 distances, dictionaries, comparison checks.

Oracles: brute quadrature of |F_mu - F_nu| for dist_1, an analytic value
for the single-atom case, and cell-transport bounds for equispaced atoms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketelab.circle import CircleFunction, CircleGrid
from feketelab.discs import AnalyticDisc
from feketelab.equilibrium import (
    SubharmonicSample,
    build_dictionaries,
    dist1_circle,
    dist1_interval,
    dist_gamma_dict,
    equilibrium_reference,
    extremal_interval,
    majorant_boundary,
    rate_fit,
    subharmonic_compare,
    w1_atomic_line,
)
from feketelab.errors import HypothesisError, InputError, NoClosedFormError
from feketelab.fekete import (
    Circle,
    CircleArc,
    EmpiricalMeasure,
    Interval,
    Sphere,
)

INTERVAL = Interval()
CIRCLE = Circle()
NU_I = equilibrium_reference(INTERVAL)
NU_C = equilibrium_reference(CIRCLE)
GAMMAS = (0.25, 0.5, 0.75, 1.0)  # a gamma grid for the dictionaries, which take gamma <= 1


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


def test_sphere_reference_rotation_invariance():
    nu = equilibrium_reference(Sphere())
    rng = np.random.default_rng(0)
    nodes = nu.quad_nodes()

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


def test_w1_atomic_line_matches_interval_case():
    xs = np.array([-0.5, 0.1, 0.4])
    ys = np.array([-0.4, 0.0, 0.6])
    val = w1_atomic_line(xs, ys)
    oracle = np.mean(np.abs(np.sort(xs) - np.sort(ys)))  # same-size coupling
    assert abs(val - oracle) < 1e-14


def test_distance_axioms_on_triples():
    rng = np.random.default_rng(5)
    a, b, c = (np.sort(rng.uniform(-1, 1, 6)) for _ in range(3))
    dab = w1_atomic_line(a, b)
    dbc = w1_atomic_line(b, c)
    dac = w1_atomic_line(a, c)
    assert dab >= 0 and abs(w1_atomic_line(b, a) - dab) < 1e-15
    assert dac <= dab + dbc + 1e-12
    assert w1_atomic_line(a, a) == 0.0


# -------------------------------------------------------------- dictionaries
def test_dictionary_certified_norms():
    """Every scaled member of the interval and circle dictionaries has
    grid-estimated C^gamma norm at most 1, for every gamma, on the grid
    its scale was measured on."""
    from feketelab.equilibrium import _holder_norms_1d

    for domain, xs, size in (
        (INTERVAL, np.linspace(-1, 1, 2001), 22),
        (Circle(), np.linspace(-math.pi, math.pi, 4001), 32),
    ):
        dct = build_dictionaries(domain, GAMMAS)
        assert dct.gammas == GAMMAS and dct.scales.shape == (len(GAMMAS), size)
        for g, scales in zip(dct.gammas, dct.scales):
            vals = np.concatenate(list(dct.blocks(xs))) / scales[:, None]
            assert vals.shape == (size, len(xs))
            assert np.max(np.abs(vals)) <= 1.0 + 1e-6
            (norms,) = _holder_norms_1d(xs, vals, (g,))
            assert np.all(norms <= 1.0 + 1e-6), (g, int(np.argmax(norms)))


def test_dictionary_monotone_in_gamma():
    mu = EmpiricalMeasure(INTERVAL, np.array([0.3]))
    dists = dist_gamma_dict(mu, NU_I, build_dictionaries(INTERVAL, GAMMAS))
    assert list(dists) == list(GAMMAS)
    vals = list(dists.values())
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_dictionary_duality_against_w1():
    dct = build_dictionaries(INTERVAL, GAMMAS)
    rng = np.random.default_rng(6)
    for _ in range(5):
        mu = EmpiricalMeasure(INTERVAL, np.sort(rng.uniform(-1, 1, 7)))
        lower = dist_gamma_dict(mu, NU_I, dct)[1.0]
        assert lower <= dist1_interval(mu, NU_I) + 1e-9


def test_dictionary_zero_for_equal_measures():
    dct = build_dictionaries(INTERVAL, (0.5, 1.0))
    mu = EmpiricalMeasure(INTERVAL, np.array([-0.2, 0.5]))
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
    from feketelab.equilibrium import _holder_norms_1d

    xs = np.linspace(-half_width, half_width, 301)
    rng = np.random.default_rng(8)
    vals = np.vstack([np.cos(3.0 * xs), np.abs(xs - 0.2), rng.standard_normal(len(xs))])
    gammas = (0.3, 0.5, 0.7, 1.0)
    for g, norms in zip(gammas, _holder_norms_1d(xs, vals, gammas)):
        assert norms.tolist() == [_loop_holder_norm_1d(xs, v, g) for v in vals]


def _assert_scan_equals_lag_loop(xs, vals, gammas=(0.25, 0.5, 1.0)):
    from feketelab.equilibrium import _holder_norms_1d

    for g, norms in zip(gammas, _holder_norms_1d(xs, vals, gammas)):
        expected = np.array([_loop_holder_norm_1d(xs, v, g) for v in vals])
        assert norms.tobytes() == expected.tobytes(), g


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_collapsed_scan_equals_lag_loop_on_the_dictionary_grids(domain):
    """The dictionary members on the grids their scales are built on.  All
    lags at distance >= 1 share one table row."""
    from feketelab.equilibrium import _circle_members, _interval_members, _lag_maxima

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

    from feketelab.equilibrium import _circle_members, _lag_maxima

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
    """The hats are only Lipschitz, so no C^{1, gamma - 1} norm certifies
    them: every domain takes gamma <= 1 only."""
    with pytest.raises(InputError, match="gamma <= 1"):
        build_dictionaries(domain, (0.5, 1.0, gamma))


def test_sphere_dictionary_evaluates_basis_once_per_node_set(monkeypatch):
    """The 49 harmonics come from one basis evaluation per node set: the
    norm mesh at build time, then the quadrature nodes and the atoms at the
    first pairing; later pairings reuse the cached reference means."""
    import feketelab.fekete as fk

    calls = []
    real = fk.basis_matrix

    def counting(spec, pts):
        calls.append(len(pts))
        return real(spec, pts)

    monkeypatch.setattr(fk, "basis_matrix", counting)
    dct = build_dictionaries(Sphere(), (1.0,))
    assert len(calls) <= 1
    nu = equilibrium_reference(Sphere())
    mu = EmpiricalMeasure(Sphere(), Sphere().mesh(30))
    calls.clear()
    dist_gamma_dict(mu, nu, dct)
    assert len(calls) <= 2
    calls.clear()
    dist_gamma_dict(mu, nu, dct)
    assert len(calls) <= 1


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
    alone = build_dictionaries(domain, (1.0,)).scales[0]
    assert alone.tobytes() == build_dictionaries(domain, (0.5, 1.0)).scales[1].tobytes()
