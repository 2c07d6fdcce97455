"""Reference equilibrium measures, distances between measures, and rates.

Closed-form references: arcsine on the interval, uniform on circle and
sphere.  On the interval, circle and arcs one quantile coupling gives
every distance: its uncapped gamma = 1 cost is dist_1 (`dist1_interval`,
`dist1_circle`), and with distances capped at 1 it is the upper half of
a certified pair lo <= dist_gamma <= hi for every gamma in (0, 1], whose
lower half pairs the nearest-atom test function with the reference
(`dist_gamma_bounds`).  On the sphere and caps a
certified test dictionary gives a documented lower bound.  The
subharmonic comparison check builds the explicit harmonic majorant with
smooth-cutoff boundary data and verifies the maximum principle on an
interior grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import CircleFunction, CircleGrid, _synthesize
from .discs import AnalyticDisc
from .errors import HypothesisError, InputError, NoClosedFormError
from .fekete import (
    Circle,
    CircleArc,
    EmpiricalMeasure,
    Interval,
    Sphere,
    ambient_of,
)

TWO_PI = 2.0 * math.pi


# -------------------------------------------------------- reference measures
@dataclass(frozen=True)
class ReferenceMeasure:
    """Closed-form equilibrium measure on a model domain."""

    domain: object

    def density(self, x):
        if isinstance(self.domain, Interval):
            x = np.asarray(x, dtype=float)
            return 1.0 / (math.pi * np.sqrt(1.0 - x * x))
        if isinstance(self.domain, Circle):
            return np.full_like(np.asarray(x, dtype=float), 1.0 / TWO_PI)
        raise NoClosedFormError("density available on interval and circle only")

    def cdf(self, x):
        if isinstance(self.domain, Interval):
            x = np.asarray(x, dtype=float)
            return 0.5 + np.arcsin(np.clip(x, -1.0, 1.0)) / math.pi
        if isinstance(self.domain, Circle):
            return (np.asarray(x, dtype=float) + math.pi) / TWO_PI
        raise NoClosedFormError("cdf available on interval and circle only")

    def quantile(self, p):
        if isinstance(self.domain, Interval):
            return np.sin(math.pi * (np.asarray(p, dtype=float) - 0.5))
        if isinstance(self.domain, Circle):
            return TWO_PI * np.asarray(p, dtype=float) - math.pi
        raise NoClosedFormError("quantile available on interval and circle only")

    def cdf_antiderivative(self, x):
        """Antiderivative of the CDF, for the closed-form gamma = 1 rays."""
        if isinstance(self.domain, Interval):
            x = np.asarray(np.clip(x, -1.0, 1.0), dtype=float)
            return 0.5 * x + (x * np.arcsin(x) + np.sqrt(1.0 - x * x)) / math.pi
        raise NoClosedFormError("antiderivative implemented for the interval")

    def total_mass(self) -> float:
        """Mass by quadrature; the quantile substitution absorbs the
        arcsine endpoint singularity so midpoint rule is exact."""
        if isinstance(self.domain, Interval):
            u = (np.arange(4096) + 0.5) / 4096
            x = self.quantile(u)
            dxdu = math.pi * np.cos(math.pi * (u - 0.5))
            return float(np.mean(self.density(x) * dxdu))
        if isinstance(self.domain, Circle):
            theta = Circle().mesh(4096)
            return float(np.sum(self.density(theta)) * TWO_PI / 4096)
        return 1.0

    def density_cdf_gap(self, a: float, b: float) -> float:
        """|int_a^b density - (F(b) - F(a))| via 400-node Gauss-Legendre inside (-1,1)."""
        x, w = np.polynomial.legendre.leggauss(400)
        x = 0.5 * (b - a) * x + 0.5 * (a + b)
        quad = 0.5 * (b - a) * float(np.sum(w * self.density(x)))
        return abs(quad - float(self.cdf(b) - self.cdf(a)))


def equilibrium_reference(domain) -> ReferenceMeasure:
    """Arcsine on [-1,1]; uniform on S^1 and S^2; no closed form elsewhere."""
    if isinstance(domain, (Interval, Circle, Sphere)):
        return ReferenceMeasure(domain)
    raise NoClosedFormError(
        f"no closed-form equilibrium measure on {getattr(domain, 'kind', domain)!r}; "
        "fall back to high-degree Fekete self-consistency"
    )


# ----------------------------------------------------------------- extremal
def extremal_interval(z) -> float:
    """log|z + sqrt(z^2 - 1)| with the branch making the modulus >= 1.

    Zero exactly on [-1, 1]; grows like log|z| at infinity; behaves like
    sqrt(2 eps) just outside the endpoints, which is the C^{1/2} signature.
    """
    z = complex(z)
    s = np.sqrt(complex(z * z - 1.0))
    w = z + s
    if abs(w) < 1.0:
        w = z - s
    return float(max(0.0, math.log(abs(w))))


# ------------------------------------------------------------------- dist_1
def dist1_interval(mu: EmpiricalMeasure, nu) -> float:
    """W1 on [-1, 1] between mu and the arcsine or an atomic reference nu:
    the uncapped gamma = 1 cost of the quantile coupling, which is optimal
    on the line."""
    if not isinstance(mu.domain, Interval) or np.any(np.abs(mu.atoms) > 1.0 + 1e-12):
        raise InputError("dist1_interval needs a measure supported on [-1, 1]")
    return float(_coupling_sums(mu, nu, (1.0,), math.inf)[1][0])


def dist1_circle(mu: EmpiricalMeasure, nu) -> float:
    """W1 in the circle metric between mu on the circle or an arc and the
    uniform or an atomic reference nu: the uncapped gamma = 1 cost of the
    quantile coupling, shifted by the median c* against the uniform
    measure.  It is exact on the circle and on arcs up to pi long; on a
    longer arc it is that coupling's cost, an upper bound."""
    if not isinstance(ambient_of(mu.domain), Circle):
        raise InputError(f"dist1_circle needs a measure on the circle or an arc, not {mu.domain!r}")
    return float(_coupling_sums(mu, nu, (1.0,), math.inf)[1][0])


def _circle_shift(atoms):
    """The atoms sorted in [-pi, pi), and the shift c* that makes the
    coupling of F_mu with F_nu + c* optimal for W1 on the circle: the
    median of G = F_mu - F_nu, which falls with slope 1/(2 pi) from v_hi
    to v_lo across each gap between neighbouring atoms."""
    atoms = np.sort(np.mod(np.asarray(atoms, dtype=float) + math.pi, TWO_PI) - math.pi)
    n = len(atoms)
    if n == 0:
        raise InputError("empty empirical measure")
    slope = 1.0 / TWO_PI
    length = np.append(atoms[1:], atoms[0] + TWO_PI) - atoms
    keep = length > 0.0
    length = length[keep]
    v_hi = np.arange(1, n + 1)[keep] / n - slope * (atoms[keep] + math.pi)
    return atoms, _lebesgue_median(length, v_hi, v_hi - slope * length)


def _sorted_distinct(values) -> np.ndarray:
    """The distinct values, sorted: np.unique by a sort and a mask, since
    the first np.unique call imports numpy.ma."""
    values = np.sort(values)
    return values[np.append(True, values[1:] > values[:-1])]


def _lebesgue_median(length, v_hi, v_lo) -> float:
    """Median of a piecewise-linear function's values, weighted by length,
    for pieces falling from v_hi to v_lo.  The mass below each breakpoint
    value is a running sum over the pieces in order (np.cumsum), and the
    median interpolates between the two values around half the length."""
    values = _sorted_distinct(np.concatenate((v_hi, v_lo)))
    c = values[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        part = np.where(c >= v_hi, length, np.where(c > v_lo, length * (c - v_lo) / (v_hi - v_lo), 0.0))
    below = np.cumsum(part, axis=1)[:, -1]
    half = 0.5 * np.cumsum(length)[-1]
    i = int(np.argmax(below >= half))
    j = max(i - 1, 0)
    if below[i] <= below[j] + 1e-300:
        return float(values[j])
    frac = (half - below[j]) / (below[i] - below[j])
    return float(values[j] + frac * (values[i] - values[j]))


# ----------------------------------------------- two-sided dist_gamma in 1-D
_QUAD_NODES = 24  # Gauss-Jacobi nodes per piece of a ray integral
_GRADING = 11.0  # graded pieces grow by this factor away from a reflected zero


def check_gammas(gammas) -> tuple:
    """The distinct gammas, sorted; each must lie in (0, 1], where min(d, 1)^gamma
    is a metric and the capped Hoelder bounds hold."""
    gammas = tuple(sorted(set(gammas)))
    if not all(g > 0.0 for g in gammas):
        raise InputError(f"dist_gamma needs gamma > 0, got gammas {gammas}")
    if any(g > 1.0 for g in gammas):
        raise InputError(f"dist_gamma is certified for gamma <= 1 only, got gammas {gammas}")
    return gammas


def dist_gamma_bounds(mu: EmpiricalMeasure, nu, gammas) -> dict:
    """{gamma: (lo, hi)} with lo <= dist_gamma(mu, nu) <= hi, for mu on the
    interval, the circle or an arc, and nu its closed-form reference
    (arcsine, uniform) or an empirical measure on the same domain.

    lo: f = min_i min(d(., x_i), 1)^gamma vanishes on the atoms of mu and
    has capped gamma-Hoelder seminorm <= 1, and with R = sup_K f the norm
    of f - R/2 is at most 1 + R/2, so dist_gamma >= int f dnu / (1 + R/2).
    hi: the cost int min(d, 1)^gamma dpi of the quantile coupling pi whose
    uncapped gamma = 1 cost is `dist1_interval` or `dist1_circle`.
    """
    gammas = check_gammas(gammas)
    near_mass, plan, x = _coupling_sums(mu, nu, gammas, 1.0)
    reach = min(_reach(mu.domain, x, isinstance(ambient_of(mu.domain), Circle)), 1.0)
    lo = near_mass / (1.0 + 0.5 * reach ** np.array(gammas))
    return {gamma: (float(a), float(b)) for gamma, a, b in zip(gammas, lo, plan)}


def _coupling_sums(mu: EmpiricalMeasure, nu, gammas, cap: float):
    """Per gamma, the nearest-atom mass int min(d(., x), cap)^gamma dnu and
    the cost int min(d, cap)^gamma dpi of the quantile coupling pi of mu
    and nu, with the sorted atoms x of mu; cap is 1 (dist_gamma) or
    math.inf (W1).

    On the circle nu is shifted by the median c* of `_circle_shift`, so at
    gamma = 1, with no distance capped, the cost is the exact W1 there as
    on the interval.  A closed-form nu is integrated in its quantile
    variable p, split at each atom's cdf, the cell midpoints, the slot
    ends and the cap points: in closed form on the circle and at gamma =
    1, by graded Gauss-Jacobi otherwise.  An empirical nu gives finite
    sums.
    """
    g = np.array(gammas)[:, None]
    domain = mu.domain
    circle = isinstance(ambient_of(domain), Circle)
    x = np.sort(np.asarray(mu.atoms, dtype=float))
    n = len(x)
    if n == 0:
        raise InputError("empty empirical measure")
    slots = np.arange(n + 1) / n
    ref = nu.domain if isinstance(nu, ReferenceMeasure) else None
    if isinstance(nu, EmpiricalMeasure):
        y = np.sort(np.asarray(nu.atoms, dtype=float))
        near = np.min(_distance(y[:, None], x, circle), axis=1)
        edges = _sorted_distinct(np.concatenate((slots, np.arange(len(y) + 1) / len(y))))
        mid = 0.5 * (edges[1:] + edges[:-1])
        coupled = _distance(x[(mid * n).astype(int)], y[(mid * len(y)).astype(int)], circle)
        near_mass = np.mean(np.minimum(near, cap) ** g, axis=1)
        plan = np.minimum(coupled, cap) ** g @ np.diff(edges)
    elif isinstance(domain, Interval) and isinstance(ref, Interval):
        u = nu.cdf(x)
        cells = nu.cdf(np.concatenate(([-1.0], 0.5 * (x[1:] + x[:-1]), [1.0])))
        ends = np.concatenate((cells[1:], cells[:-1], slots[1:], slots[:-1])) - np.tile(u, 4)
        rays = _line_rays(nu, gammas, np.tile(u, 4), np.tile(x, 4), ends, cap)
        near_mass, plan = _cell_sums(rays, n)
    elif isinstance(domain, Circle) and isinstance(ref, Circle):
        x, c_star = _circle_shift(x)
        u = nu.cdf(x)
        half = 0.5 * np.diff(np.append(u, u[0] + 1.0))
        ends = np.concatenate((half, -np.roll(half, 1), slots[1:] - u - c_star, slots[:-1] - u - c_star))
        near_mass, plan = _cell_sums(_circle_rays(g, ends, cap), n)
    else:
        raise InputError(f"no quantile coupling between {domain!r} atoms and {nu!r}")
    return near_mass, plan, x


def _cell_sums(rays: np.ndarray, n: int):
    """Per gamma, the nearest-atom mass and the coupling cost from the
    signed ray integrals from each atom's anchor to its cell end, cell
    start, slot end and slot start (four blocks of n)."""
    r = rays.reshape(len(rays), 4, n).sum(axis=2)
    return r[:, 0] - r[:, 1], r[:, 2] - r[:, 3]


def _distance(a, b, circle: bool):
    """|a - b| on the line, the geodesic distance of angles on the circle."""
    d = np.abs(a - b)
    if circle:
        d = np.mod(d, TWO_PI)
        d = np.minimum(d, TWO_PI - d)
    return d


def _reach(domain, x, circle: bool) -> float:
    """sup over the domain of the distance to the nearest of the sorted atoms
    x: the largest value at the domain's ends and at the points halfway
    between neighbouring atoms (round the circle too)."""
    if isinstance(domain, Interval):
        ends = [-1.0, 1.0]
    elif isinstance(domain, CircleArc):
        ends = [domain.theta_a, domain.theta_b]
    else:
        ends = []
    cand = np.concatenate((ends, 0.5 * (x[1:] + x[:-1])))
    if circle:
        wrap = 0.5 * (x[-1] + x[0]) + math.pi
        cand = np.append(cand, [wrap, wrap - TWO_PI])
        if isinstance(domain, CircleArc):
            cand = cand[(cand >= domain.theta_a) & (cand <= domain.theta_b)]
    return float(np.max(np.min(_distance(cand[:, None], x, circle), axis=1)))


def _circle_rays(g: np.ndarray, length: np.ndarray, cap: float) -> np.ndarray:
    """int_0^length min(2 pi |s|, cap)^g ds, odd in length, for each gamma of
    the column g and cap 1 or math.inf: the cost along a ray of the uniform
    reference's quantile variable, which moves 2 pi radians per unit."""
    ell = np.abs(length)
    free = np.minimum(ell, cap / TWO_PI)
    return np.sign(length) * (TWO_PI**g * free ** (1.0 + g) / (1.0 + g) + (ell - free))


def _line_rays(nu, gammas, u, x, length, cap: float) -> np.ndarray:
    """int min(|Q(p) - x|, cap)^g dp between u = F(x) and u + length, odd in
    length, one row per gamma, for cap 1 or math.inf, with Q, F the
    reference's quantile and cdf; |Q - x| reaches the cap at F(x + cap) on
    the right and F(x - cap) on the left."""
    ell = np.abs(length)
    to_cap = np.maximum(np.where(length > 0, nu.cdf(x + cap) - u, u - nu.cdf(x - cap)), 0.0)
    free = np.minimum(ell, to_cap)
    side = np.sign(length)
    powers = np.array([_line_power(nu, g, u, x, side * free) for g in gammas])
    return side * (powers + (ell - free))


def _line_power(nu, g: float, u, x, length) -> np.ndarray:
    """int |Q(p) - x|^g dp between u = F(x) and u + length (>= 0).

    At g = 1 this is closed form, int_0^p Q = p Q(p) - Phi(Q(p)) + Phi(-1)
    with Phi the antiderivative of the cdf.  Otherwise Q(p) - x vanishes
    like p - u, and, for a reference whose density has square-root
    endpoints, also at the reflection of u in the nearer end (-u, or 2 - u),
    a distance delta behind the ray: near p = 0, Q(p) - Q(u) ~ (p - u)(p + u).
    A Gauss-Jacobi rule for the weight (p - u)^g on the first piece, of
    length (_GRADING - 1) delta, and Gauss-Legendre on pieces that grow
    by _GRADING keep every piece at least a tenth of its length away from
    the other zero; when delta = 0 (an atom at an end) one piece takes
    the weight (p - u)^(2g).
    """
    if g == 1.0:
        def antiderivative(p):
            q = nu.quantile(p)
            return p * q - nu.cdf_antiderivative(q)

        return np.abs(antiderivative(u + length) - antiderivative(u) - x * length)
    ell = np.abs(length)
    out = np.zeros(len(ell))
    rays = np.flatnonzero(ell > 0.0)
    ell, side, u, x = ell[rays], np.sign(length[rays]), u[rays], x[rays]
    delta = np.where(side > 0, 2.0 * u, 2.0 * (1.0 - u))
    delta[delta <= 1e-15 * ell] = 0.0
    with np.errstate(divide="ignore"):
        extra = np.ceil(np.log1p(ell / delta) / math.log(_GRADING)) - 1.0
    count = np.where(delta > 0.0, np.maximum(extra, 0.0), 0.0).astype(int) + 1
    ray = np.repeat(np.arange(len(ell)), count)
    j = np.arange(len(ray)) - np.repeat(np.cumsum(count) - count, count)
    d = delta[ray]
    s0 = d * (_GRADING**j - 1.0)
    s1 = np.where(j == count[ray] - 1, ell[ray], d * (_GRADING ** (j + 1) - 1.0))
    expo = np.where(j > 0, 0.0, np.where(d > 0.0, g, 2.0 * g))
    piece = np.empty(len(ray))
    for e in (0.0, g, 2.0 * g):
        sel = expo == e
        t, w = _jacobi_rule(e)
        width = (s1 - s0)[sel, None]
        p = u[ray[sel], None] + side[ray[sel], None] * (s0[sel, None] + width * t)
        vals = np.abs(nu.quantile(p) - x[ray[sel], None]) ** g / t**e
        piece[sel] = width[:, 0] * (vals @ w)
    out[rays] = np.bincount(ray, piece, minlength=len(rays))
    return out


@lru_cache(maxsize=16)
def _jacobi_rule(e: float):
    """Nodes and weights of the Gauss rule for int_0^1 t^e h(t) dt, by
    Golub-Welsch on the Jacobi matrix of the weight (1 + s)^e on [-1, 1]."""
    n = np.arange(1, _QUAD_NODES)
    s = 2.0 * n + e
    diag = np.concatenate(([e / (e + 2.0)], e * e / (s * (s + 2.0))))
    off = 2.0 * n * (n + e) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (nodes + 1.0), vecs[0] ** 2 / (e + 1.0)


# ------------------------------------------------------------- dictionaries
@dataclass
class TestDictionary:
    """Family of test functions on the sphere (and caps) with certified
    C^gamma norms <= 1 for every gamma of `gammas`; its pairing gap is a
    lower bound on dist_gamma.  The 1-D domains have none: their bounds
    come from `dist_gamma_bounds`.

    Each member is stored unnormalized; row g of `scales` holds, for
    every member, a closed-form upper bound on its C^gamma norm at
    gammas[g], and a pairing divides by it, so every scaled member has
    norm <= 1.  The rows are running maxima across the sorted gamma grid,
    which makes the resulting distance exactly monotone nonincreasing in
    gamma.

    `blocks` is the only definition of the members: it evaluates all of
    them on a node set as a sequence of (rows, nodes) value blocks.  A
    pairing evaluates each block once per node set and keeps only its row
    means, so no nodes-sized matrix outlives the call, and every gamma
    divides the same means.  `uniform_means` holds every member's exact
    mean under the uniform measure on the sphere, which a pairing with
    that reference reads instead of evaluating the members.
    """

    gammas: tuple
    blocks: object
    scales: np.ndarray
    uniform_means: np.ndarray | None = None

    def means(self, nodes) -> np.ndarray:
        """Mean of every member over a node set."""
        return np.concatenate([np.mean(b, axis=1) for b in self.blocks(nodes)])


def dist_gamma_dict(mu: EmpiricalMeasure, nu, dictionary: TestDictionary) -> dict:
    """{gamma: lower bound of dist_gamma}, the max pairing gap over the
    dictionary, from one evaluation of the members at mu's atoms; nu is
    the uniform measure on the sphere or an empirical measure."""
    if dictionary.scales.size == 0:
        raise InputError("empty test dictionary")
    if isinstance(nu, ReferenceMeasure):
        if not isinstance(nu.domain, Sphere) or dictionary.uniform_means is None:
            raise InputError(f"no exact dictionary means for the reference on {nu.domain!r}")
        nu_means = dictionary.uniform_means
    elif isinstance(nu, EmpiricalMeasure):
        nu_means = dictionary.means(nu.atoms)
    else:
        raise InputError("unsupported measure type")
    gaps = np.max(np.abs(dictionary.means(mu.atoms) - nu_means) / dictionary.scales, axis=1)
    return dict(zip(dictionary.gammas, gaps.tolist()))


_SPHERE_CONES = 200  # cones max(0, 1 - theta) about a 200-point Fibonacci mesh
_SPHERE_DEGREE = 6  # and the 49 spherical harmonics of degree <= 6
_SCALE_GRID = 4096  # theta-grid intervals on [0, pi] that bound the harmonics' maxima


def build_dictionaries(domain, gammas) -> TestDictionary:
    """One dictionary for every distinct gamma on the sphere or a cap: the
    members are shared, and the scales are running maxima across the
    (sorted) gamma grid so that dist is monotone in gamma.  The 1-D domains
    get two-sided bounds from `dist_gamma_bounds` instead.

    A cone has sup 1, and its values differ by at most min(theta, 1) at
    points an angle theta apart, whose capped chord is min(2 sin(theta/2),
    1); the quotient peaks at theta = 1, so its norm is at most
    1 + (2 sin 1/2)^-gamma.  Its mean under the uniform measure is
    int_0^1 (1 - theta) sin(theta) / 2 dtheta = (1 - sin 1) / 2.  The
    harmonics' norms are bounded in closed form too (`_harmonic_scales`);
    they are orthonormal, so Y_00 = 1/sqrt(4 pi) is the only one with a
    nonzero mean.
    """
    gammas = check_gammas(gammas)
    if not isinstance(ambient_of(domain), Sphere):
        raise InputError(f"no dictionary for domain {domain!r}: the 1-D domains use dist_gamma_bounds")
    cones = np.repeat(1.0 + (2.0 * math.sin(0.5)) ** -np.array(gammas)[:, None], _SPHERE_CONES, axis=1)
    norms = np.hstack((cones, _harmonic_scales(gammas)))
    means = np.zeros(norms.shape[1])
    means[:_SPHERE_CONES] = 0.5 * (1.0 - math.sin(1.0))
    means[_SPHERE_CONES] = 1.0 / math.sqrt(4.0 * math.pi)
    return TestDictionary(gammas, _sphere_members(), np.maximum.accumulate(norms, axis=0) * (1.0 + 1e-9), means)


def _harmonic_scales(gammas) -> np.ndarray:
    """Certified upper bounds on the C^gamma norms of the harmonics of
    degree <= _SPHERE_DEGREE, in the normalization and column order of
    `fekete._sphere_matrix`; one row per gamma.

    Y = c P(cos theta) {1, cos m phi, sin m phi}, with c = 1 for m = 0 and
    sqrt 2 otherwise, has sup S = c max|P|, oscillation osc = max Y - min Y
    (2 S for m >= 1) and gradient G = c max(|dP/dtheta|, m |P / sin theta|).
    With sin theta taken with its sign, P, dP/dtheta and P / sin theta are
    trigonometric polynomials of degree <= l, each even or odd in theta, so
    Bernstein's inequality bounds each one's maximum by its maximum on a
    grid of spacing delta over [0, pi] divided by 1 - l delta / 2.

    Points an angle theta apart differ by at most min(G theta, osc), over
    a chord capped at 1.  For gamma <= 1, G theta / (2 sin(theta/2))^gamma
    rises in theta and osc / (2 sin(theta/2))^gamma falls, so on chords
    below 1 the quotient peaks at theta_c = min(osc / G, pi / 3); past them
    it is at most min(G pi, osc).  The constant Y_00 has G = osc = 0.
    All of it is elementwise numpy on one grid: a matrix product here
    would allocate OpenBLAS's GEMM workspace and raise a sphere run's
    peak RSS.
    """
    n, delta = _SPHERE_DEGREE, math.pi / _SCALE_GRID
    theta = np.linspace(0.0, math.pi, _SCALE_GRID + 1)
    ct, st = np.cos(theta), np.sin(theta)
    sup, osc, grad = (np.zeros((n + 1) ** 2) for _ in range(3))
    # rows P, dP/dtheta and P / sin theta of P_m^m, then of P_l^m for l > m
    seed = np.zeros((3, len(theta)))
    seed[0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(n + 1):
        if m:
            r = math.sqrt((2.0 * m + 1.0) / (2.0 * m))
            seed = r * np.stack((st * seed[0], ct * seed[0] + st * seed[1], seed[0]))
        c = math.sqrt(2.0) if m else 1.0
        prev, cur = np.zeros_like(seed), seed
        for l in range(m, n + 1):
            if l > m:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                nxt = a * (ct * cur - b * prev)
                nxt[1] -= a * st * cur[0]
                prev, cur = cur, nxt
            bern = c / (1.0 - l * delta / 2.0)
            s = bern * np.max(np.abs(cur[0]))
            cols = [l * l + 2 * m - 1, l * l + 2 * m] if m else [l * l]
            sup[cols] = s
            grad[cols] = bern * max(np.max(np.abs(cur[1])), m * np.max(np.abs(cur[2])))
            osc[cols] = 2.0 * s if m else min(2.0 * s, np.max(cur[0]) - np.min(cur[0]) + l * delta * s)
    theta_c = np.minimum(np.divide(osc, grad, out=np.full_like(osc, math.pi / 3.0), where=grad > 0.0), math.pi / 3.0)
    g = np.array(gammas)[:, None]
    return sup + np.maximum(grad * theta_c / (2.0 * np.sin(theta_c / 2.0)) ** g, np.minimum(grad * math.pi, osc))


def _sphere_members():
    """The _SPHERE_CONES cones of angular radius 1 and the harmonics of
    degree <= _SPHERE_DEGREE, all with closed-form scales and uniform
    means: evaluated as one row per cone and then one basis matrix for
    all harmonics.  Each cone keeps its own `p @ c` product: a single
    matrix product over all centers rounds differently, as do row means
    of a basis matrix not in C order."""
    from .fekete import BasisSpec, basis_matrix

    centers = Sphere().mesh(_SPHERE_CONES)
    spec = BasisSpec(Sphere(), _SPHERE_DEGREE)

    def blocks(nodes):
        p = np.atleast_2d(nodes)
        for c in centers:
            yield np.maximum(0.0, 1.0 - np.arccos(np.clip(p @ c, -1.0, 1.0)))[None]
        yield np.ascontiguousarray(basis_matrix(spec, p))

    return blocks


# ------------------------------------------------- subharmonic comparison
class SubharmonicSample:
    """Subharmonic function given by boundary samples plus an interior rule.

    Either the harmonic extension of its boundary data, or log|g| for an
    analytic disc g (zero-free on the closure for finite samples).
    """

    def __init__(self, grid: CircleGrid, boundary: CircleFunction, ring_eval):
        self.grid = grid
        self.boundary = boundary
        self._ring_eval = ring_eval

    @classmethod
    def harmonic(cls, u: CircleFunction) -> "SubharmonicSample":
        def ring(r):
            a = u.a * r ** np.arange(len(u.a))
            b = u.b * r ** np.arange(len(u.b))
            return _synthesize(u.grid, a, b)

        return cls(u.grid, u, ring)

    @classmethod
    def log_modulus(cls, disc: AnalyticDisc) -> "SubharmonicSample":
        if disc.n != 1:
            raise InputError("log-modulus samples need a one-dimensional disc")
        vals = np.abs(disc.traces[0])
        if np.min(vals) <= 0.0:
            raise InputError("disc must be zero-free on the boundary")
        boundary = CircleFunction(disc.grid, np.log(vals))

        def ring(r):
            k = np.arange(disc.coeffs.shape[1])
            scaled = disc.coeffs[0] * r**k
            m = disc.grid.m
            full = np.zeros(m, dtype=complex)
            full[: m // 2 + 1] = scaled * disc.grid.signs
            ring_vals = np.fft.ifft(full) * m
            mod = np.abs(ring_vals)
            return np.log(np.maximum(mod, 1e-300))

        return cls(disc.grid, boundary, ring)

    def on_ring(self, r: float) -> np.ndarray:
        return self._ring_eval(float(r))


@dataclass(frozen=True)
class ComparisonReport:
    passed: bool
    max_violation: float
    constant: float
    theta0: float
    beta: float
    c: float


def _smooth_step(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        e1 = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        e2 = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return e1 / (e1 + e2)


def majorant_boundary(grid: CircleGrid, theta0: float, beta: float, c: float) -> CircleFunction:
    """Boundary data: c|theta|^beta for |theta| <= theta0/2, smooth ramp to
    the constant c on [theta0/2, 3 theta0/4], equal to c beyond."""
    th = np.abs(grid.nodes)
    base = c * th**beta
    s = _smooth_step((th - theta0 / 2.0) / (theta0 / 4.0))
    vals = (1.0 - s) * base + s * c
    return CircleFunction(grid, vals)


def subharmonic_compare(
    psi: SubharmonicSample,
    theta0: float,
    beta: float,
    c: float,
) -> ComparisonReport:
    """Check psi <= harmonic majorant psi1 interiorly; report the constant.

    Verifies the boundary hypothesis psi <= c |theta|^beta on (-theta0,
    theta0) and psi <= c globally on the grid first, then compares on the
    interior rings r = 0.05, 0.10, ..., 0.95 and infers
    C = max (psi1(z) - psi1(1)) / |1-z|^beta.
    """
    grid = psi.grid
    th = grid.nodes
    vals = psi.boundary.samples
    near = np.abs(th) < theta0
    if np.any(vals[near] > c * np.abs(th[near]) ** beta + 1e-12):
        raise HypothesisError("boundary hypothesis psi <= c|theta|^beta fails")
    if np.any(vals > c + 1e-12):
        raise HypothesisError("global boundary bound psi <= c fails")
    psi1 = majorant_boundary(grid, theta0, beta, c)
    if np.any(vals > psi1.samples + 1e-12):
        raise HypothesisError("majorant does not dominate on the boundary grid")

    psi1_at_one = psi1.value_at_one()
    majorant = SubharmonicSample.harmonic(psi1)
    violation = -math.inf
    constant = 0.0
    for r in np.arange(0.05, 0.96, 0.05):
        ring_psi = psi.on_ring(r)
        ring_psi1 = majorant.on_ring(r)
        violation = max(violation, float(np.max(ring_psi - ring_psi1)))
        dist_to_one = np.abs(1.0 - r * np.exp(1j * th))
        constant = max(
            constant,
            float(np.max((ring_psi1 - psi1_at_one) / dist_to_one**beta)),
        )
    return ComparisonReport(
        passed=violation <= 1e-9,
        max_violation=violation,
        constant=constant,
        theta0=theta0,
        beta=beta,
        c=c,
    )


# --------------------------------------------------------------- rate fits
# Exponent of the one-sided rate bound dist_k <= c k^BOUND_EXPONENT that
# `feketelab rate` checks and writes to its bound_exponent column.
BOUND_EXPONENT = -1.0 / 36.0 + 0.01


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    bound_ok: bool
    c_min: float
    exponent: float


def rate_fit(ks, dists) -> RateFit:
    """Log-log least squares plus the one-sided bound dist_k <= c k^BOUND_EXPONENT.

    c_min is the smallest constant for which the bound holds on the data;
    on finite data some constant always exists, so bound_ok also asks the
    fitted slope to decay at least as fast as the exponent.
    """
    ks = np.asarray(ks, dtype=float)
    dists = np.asarray(dists, dtype=float)
    if len(ks) < 5:
        raise InputError("need at least 5 data points")
    if np.any(dists <= 0.0):
        raise InputError("distances must be positive")
    slope, intercept = np.polyfit(np.log(ks), np.log(dists), 1)
    c_min = float(np.max(dists / ks**BOUND_EXPONENT))
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        bound_ok=bool(slope <= BOUND_EXPONENT and np.isfinite(c_min)),
        c_min=c_min,
        exponent=BOUND_EXPONENT,
    )
