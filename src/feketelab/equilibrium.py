"""Reference equilibrium measures, distances between measures, and rates.

Closed-form references: arcsine on the interval, uniform on circle and
sphere.  dist_1 on the interval and circle is computed exactly from CDFs;
on the sphere (and for general gamma) a certified test dictionary gives a
documented lower bound.  The subharmonic comparison check builds the
explicit harmonic majorant with smooth-cutoff boundary data and verifies
the maximum principle on an interior grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circle import CircleFunction, CircleGrid, _synthesize
from .discs import AnalyticDisc
from .errors import HypothesisError, InputError, NoClosedFormError
from .fekete import (
    Circle,
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
    name: str

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
        """Antiderivative of the CDF, used for exact W1 integrals."""
        if isinstance(self.domain, Interval):
            x = np.asarray(np.clip(x, -1.0, 1.0), dtype=float)
            return 0.5 * x + (x * np.arcsin(x) + np.sqrt(1.0 - x * x)) / math.pi
        raise NoClosedFormError("antiderivative implemented for the interval")

    def quad_nodes(self) -> np.ndarray:
        if isinstance(self.domain, Interval):
            # Gauss-Chebyshev: equal weights against the arcsine density
            j = np.arange(2000)
            return np.cos((2.0 * j + 1.0) * math.pi / 4000.0)
        if isinstance(self.domain, Circle):
            return Circle().mesh(4096)
        if isinstance(self.domain, Sphere):
            return Sphere().mesh(60000)
        raise NoClosedFormError("no quadrature rule")

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

    def density_cdf_gap(self, a: float, b: float, nodes: int = 400) -> float:
        """|int_a^b density - (F(b) - F(a))| via Gauss-Legendre inside (-1,1)."""
        x, w = np.polynomial.legendre.leggauss(nodes)
        x = 0.5 * (b - a) * x + 0.5 * (a + b)
        quad = 0.5 * (b - a) * float(np.sum(w * self.density(x)))
        return abs(quad - float(self.cdf(b) - self.cdf(a)))


def equilibrium_reference(domain) -> ReferenceMeasure:
    """Arcsine on [-1,1]; uniform on S^1 and S^2; no closed form elsewhere."""
    if isinstance(domain, Interval):
        return ReferenceMeasure(domain, "arcsine")
    if isinstance(domain, Circle):
        return ReferenceMeasure(domain, "uniform-circle")
    if isinstance(domain, Sphere):
        return ReferenceMeasure(domain, "uniform-sphere")
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
def dist1_interval(mu: EmpiricalMeasure, nu: ReferenceMeasure) -> float:
    """Exact integral of |F_mu - F_nu| on [-1, 1] between the breakpoints."""
    if not isinstance(nu.domain, Interval):
        raise InputError("reference must live on the interval")
    atoms = np.sort(np.asarray(mu.atoms, dtype=float))
    if len(atoms) == 0 or atoms[0] < -1.0 - 1e-12 or atoms[-1] > 1.0 + 1e-12:
        raise InputError("empirical measure must be supported on [-1, 1]")
    n = len(atoms)
    cuts = np.concatenate([[-1.0], atoms, [1.0]])
    total = 0.0
    for i in range(n + 1):
        a, b = float(cuts[i]), float(cuts[i + 1])
        if b <= a:
            continue
        c = i / n  # F_mu on (a, b)
        total += _segment_abs_integral(nu, a, b, c)
    return float(total)


def _segment_abs_integral(nu: ReferenceMeasure, a: float, b: float, c: float) -> float:
    # integral of |c - F(x)| with F increasing; split at the quantile
    fa, fb = float(nu.cdf(a)), float(nu.cdf(b))
    if c <= fa:
        return _int_f(nu, a, b) - c * (b - a)
    if c >= fb:
        return c * (b - a) - _int_f(nu, a, b)
    xs = float(nu.quantile(c))
    xs = min(max(xs, a), b)
    left = c * (xs - a) - _int_f(nu, a, xs)
    right = _int_f(nu, xs, b) - c * (b - xs)
    return left + right


def _int_f(nu: ReferenceMeasure, a: float, b: float) -> float:
    return float(nu.cdf_antiderivative(b) - nu.cdf_antiderivative(a))


def dist1_circle(mu: EmpiricalMeasure, nu: ReferenceMeasure) -> float:
    """Circular W1 against the uniform measure: min_c int |F_mu - F_nu - c|.

    The difference G is piecewise linear with common slope -1/(2 pi), so
    the optimal shift is the exact Lebesgue median of G and every segment
    integral has a closed form.
    """
    if not isinstance(nu.domain, Circle):
        raise InputError("reference must be the uniform measure on the circle")
    atoms = np.sort(np.mod(np.asarray(mu.atoms, dtype=float) + math.pi, TWO_PI) - math.pi)
    n = len(atoms)
    if n == 0:
        raise InputError("empty empirical measure")
    slope = 1.0 / TWO_PI
    # segments between consecutive atoms (wrapping), G linear decreasing
    segs = []  # (length, v_hi, v_lo): G goes v_hi -> v_lo
    for i in range(n):
        theta_a = atoms[i]
        theta_b = atoms[i + 1] if i + 1 < n else atoms[0] + TWO_PI
        length = theta_b - theta_a
        if length <= 0.0:
            continue
        g_start = (i + 1) / n - slope * (theta_a + math.pi)
        segs.append((length, g_start, g_start - slope * length))
    c_star = _lebesgue_median(segs)
    total = 0.0
    for length, v_hi, v_lo in segs:
        if c_star >= v_hi:
            total += (c_star - 0.5 * (v_hi + v_lo)) * length
        elif c_star <= v_lo:
            total += (0.5 * (v_hi + v_lo) - c_star) * length
        else:
            total += ((v_hi - c_star) ** 2 + (c_star - v_lo) ** 2) / (2.0 * slope)
    return float(total)


def _lebesgue_median(segs) -> float:
    """Median of a piecewise-linear function's values, weighted by length."""
    total_len = sum(s[0] for s in segs)
    half = 0.5 * total_len
    values = sorted({s[1] for s in segs} | {s[2] for s in segs})

    def mass_below(c):
        m = 0.0
        for length, v_hi, v_lo in segs:
            if c >= v_hi:
                m += length
            elif c > v_lo:
                m += length * (c - v_lo) / (v_hi - v_lo)
        return m

    lo, hi = values[0], values[-1]
    for v in values:
        if mass_below(v) >= half:
            hi = v
            break
        lo = v
    m_lo = mass_below(lo)
    m_hi = mass_below(hi)
    if m_hi <= m_lo + 1e-300:
        return lo
    frac = (half - m_lo) / (m_hi - m_lo)
    return lo + frac * (hi - lo)


def w1_atomic_line(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact W1 between two equal-mass atomic measures on the line."""
    xs, ys = np.sort(np.asarray(xs, float)), np.sort(np.asarray(ys, float))
    grid = np.sort(np.concatenate([xs, ys]))
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        if b <= a:
            continue
        fx = np.searchsorted(xs, a, side="right") / len(xs)
        fy = np.searchsorted(ys, a, side="right") / len(ys)
        total += abs(fx - fy) * (b - a)
    return float(total)


# ------------------------------------------------------------- dictionaries
@dataclass
class TestDictionary:
    """Family of test functions with certified C^gamma norms <= 1.

    Each member is stored unnormalized together with its certified norm
    scale; pairings divide by the scale.  Scales are running maxima across
    the gamma grid used to build the dictionary, which makes the resulting
    distance exactly monotone nonincreasing in gamma.

    `blocks` is the only definition of the members: it evaluates all of
    them on a node set as a sequence of (rows, nodes) value blocks in the
    order of `names`.  A pairing evaluates each block once per node set and
    keeps only its row means, so no nodes-sized matrix outlives the call.
    Reference-measure means are cached, and the dictionaries of one
    `build_dictionaries` call share that cache.
    """

    domain: object
    gamma: float
    names: list
    blocks: object
    scales: np.ndarray
    _ref_cache: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.names)

    def means(self, nodes) -> np.ndarray:
        """Mean of every member over a node set."""
        return np.concatenate([np.mean(b, axis=1) for b in self.blocks(nodes)])

    def pair_gap(self, mu: EmpiricalMeasure, nu) -> float:
        if len(self.names) == 0:
            raise InputError("empty test dictionary")
        nu_means = self._nu_means(nu)
        return float(np.max(np.abs(self.means(mu.atoms) - nu_means) / self.scales))

    def _nu_means(self, nu) -> np.ndarray:
        if isinstance(nu, ReferenceMeasure):
            if nu not in self._ref_cache:
                self._ref_cache[nu] = self.means(nu.quad_nodes())
            return self._ref_cache[nu]
        if isinstance(nu, EmpiricalMeasure):
            return self.means(nu.atoms)
        raise InputError("unsupported measure type")


def dist_gamma_dict(mu: EmpiricalMeasure, nu, gamma: float, dictionary: TestDictionary) -> float:
    """Lower bound of dist_gamma: max pairing gap over the dictionary."""
    if abs(dictionary.gamma - gamma) > 1e-12:
        raise InputError("dictionary was certified for a different gamma")
    return dictionary.pair_gap(mu, nu)


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


def _semi_from_lags(table: np.ndarray, dists, expo: float) -> np.ndarray:
    dpow = np.array([d**expo for d in dists])
    return np.max(table / dpow[:, None], axis=0)


def _holder_norms_1d(xs: np.ndarray, vals: np.ndarray, gammas) -> list:
    """sup + Hoelder seminorm with distances capped at 1, on a uniform grid,
    of every row of `vals`; one array per gamma.

    gamma in (0,1]: seminorm of the values; gamma in (1,2]: C^1 norm plus
    seminorm of the finite-difference derivative.  The `_lag_maxima`
    table does not depend on gamma, so one scan of the values (and one of
    the derivative) serves every gamma: one row per lag below distance 1
    and one shared row for all lags at the capped distance 1.
    """
    h = xs[1] - xs[0]
    sup = np.max(np.abs(vals), axis=1)
    if any(g <= 1.0 for g in gammas):
        table, dists = _lag_maxima(vals, h)
    if any(g > 1.0 for g in gammas):
        dv = np.gradient(vals, h, axis=1)
        c1 = sup + np.max(np.abs(dv), axis=1)
        dtable, dists = _lag_maxima(dv, h)
    norms = []
    for g in gammas:
        if g <= 1.0:
            norms.append(sup + _semi_from_lags(table, dists, g))
        else:
            norms.append(c1 + _semi_from_lags(dtable, dists, g - 1.0))
    return norms


_DEFAULT_GAMMAS = (0.5, 1.0, 1.5, 2.0)
_LINE_MAX_GAMMA = 2.0
_SPHERE_MAX_GAMMA = 1.0


def build_dictionaries(domain, gammas=_DEFAULT_GAMMAS) -> dict:
    """One dictionary per distinct gamma, sharing members, scales running-max
    across the (sorted) gamma grid so that dist is monotone in gamma."""
    gammas = tuple(sorted(set(gammas)))
    if not all(g > 0.0 for g in gammas):
        raise InputError(f"dictionaries need gamma > 0, got gammas {gammas}")
    amb = ambient_of(domain)
    if isinstance(amb, (Interval, Circle)):
        if any(g > _LINE_MAX_GAMMA for g in gammas):
            raise InputError(
                f"interval and circle dictionaries are certified for gamma <= {_LINE_MAX_GAMMA:g} only, got gammas {gammas}"
            )
        if isinstance(amb, Interval):
            names, blocks = _interval_members()
            xs = np.linspace(-1.0, 1.0, 2001)
        else:
            names, blocks = _circle_members()
            xs = np.linspace(-math.pi, math.pi, 4001)
        (vals,) = blocks(xs)
        norms = _holder_norms_1d(xs, vals, gammas)
    elif isinstance(amb, Sphere):
        if any(g > _SPHERE_MAX_GAMMA for g in gammas):
            raise InputError(
                f"sphere dictionaries are certified for gamma <= {_SPHERE_MAX_GAMMA:g} only, got gammas {gammas}"
            )
        names, blocks = _sphere_members()
        norms = _sphere_norms(blocks, gammas)
    else:
        raise InputError(f"no dictionary for domain {domain!r}")

    ref_cache = {}
    out = {}
    running = np.zeros(len(names))
    for g, norm in zip(gammas, norms):
        running = np.maximum(running, norm)
        out[g] = TestDictionary(
            domain=domain,
            gamma=g,
            names=list(names),
            blocks=blocks,
            scales=running * (1.0 + 1e-9),
            _ref_cache=ref_cache,
        )
    return out


def build_dictionary(domain, gamma: float) -> TestDictionary:
    """The gamma member of the default grid's dictionaries.  Its scales
    depend only on the grid values up to gamma, so only those are built."""
    return build_dictionaries(domain, tuple(g for g in _DEFAULT_GAMMAS if g < gamma) + (gamma,))[gamma]


def _interval_members():
    """x, cos(m pi (x+1)/2) for m = 1..12 and nine hats of half-width 0.4,
    evaluated as one (22, nodes) block."""
    modes = np.arange(1, 13)
    centers = np.linspace(-0.8, 0.8, 9)
    names = ["id"] + [f"cos{m}" for m in modes] + [f"hat{c:+.1f}" for c in centers]

    def blocks(x):
        x = np.asarray(x, float)
        cosines = np.cos(modes[:, None] * math.pi * (x + 1.0) / 2.0)
        hats = np.maximum(0.0, 1.0 - np.abs(x - centers[:, None]) / 0.4)
        yield np.concatenate((x[None], cosines, hats))

    return names, blocks


def _circle_members():
    """cos(m t), sin(m t) for m = 1..12 and eight periodic hats of
    half-width 0.5, evaluated as one (32, nodes) block."""
    modes = np.arange(1, 13)
    centers = np.linspace(-math.pi, math.pi, 8, endpoint=False)
    names = [f"{f}{m}" for m in modes for f in ("cos", "sin")] + [f"hat{c:+.2f}" for c in centers]

    def blocks(t):
        t = np.asarray(t, float)
        arg = modes[:, None] * t
        trig = np.stack((np.cos(arg), np.sin(arg)), axis=1).reshape(-1, len(t))
        hats = np.maximum(0.0, 1.0 - np.abs(np.mod(t - centers[:, None] + math.pi, TWO_PI) - math.pi) / 0.5)
        yield np.concatenate((trig, hats))

    return names, blocks


def _sphere_pair_lags():
    # Fibonacci-lattice index lags give neighbor pairs at dyadic-ish scales
    return (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)


def _sphere_norms(blocks, gammas) -> list:
    """sup + Hoelder seminorm over Fibonacci-lag neighbor pairs of the norm
    mesh, distances capped at 1, of every member; one array per gamma.

    The lag distances and their powers are computed once and shared by
    all members.  Each member's differences are taken on its own row, so
    no temporary grows beyond one mesh-sized array.
    """
    mesh = _sphere_norm_mesh()
    lag_pows = []
    for lag in _sphere_pair_lags():
        d = np.linalg.norm(mesh[lag:] - mesh[:-lag], axis=1)
        d = np.minimum(d, 1.0)
        lag_pows.append((lag, [d**g for g in gammas]))
    norms = []
    for block in blocks(mesh):
        for vals in block:
            semi = [0.0] * len(gammas)
            for lag, pows in lag_pows:
                diff = np.abs(vals[lag:] - vals[:-lag])
                semi = [max(s, np.max(diff / dg)) for s, dg in zip(semi, pows)]
            sup = np.max(np.abs(vals))
            norms.append([sup + s for s in semi])
    return list(np.array(norms).T)


@lru_cache(maxsize=4)
def _sphere_norm_mesh() -> np.ndarray:
    return Sphere().mesh(20000)


def _sphere_members():
    """200 cones of angular radius 1 and the 49 harmonics of degree <= 6,
    evaluated as one row per cone and then one basis matrix for all
    harmonics.  Each cone keeps its own `p @ c` product: a single matrix
    product over all centers rounds differently."""
    from .fekete import BasisSpec, basis_matrix

    centers = Sphere().mesh(200)
    spec = BasisSpec(Sphere(), 6)
    names = [f"cone{i}" for i in range(len(centers))] + [f"Y{i}" for i in range((spec.k + 1) ** 2)]

    def blocks(nodes):
        p = np.atleast_2d(nodes)
        for c in centers:
            yield np.maximum(0.0, 1.0 - np.arccos(np.clip(p @ c, -1.0, 1.0)))[None]
        yield basis_matrix(spec, p)

    return names, blocks


# ------------------------------------------------- subharmonic comparison
class SubharmonicSample:
    """Subharmonic function given by boundary samples plus an interior rule.

    Either the harmonic extension of its boundary data, or log|g| for an
    analytic disc g (zero-free on the closure for finite samples).
    """

    def __init__(self, grid: CircleGrid, boundary: CircleFunction, ring_eval, name="psi"):
        self.grid = grid
        self.boundary = boundary
        self._ring_eval = ring_eval
        self.name = name

    @classmethod
    def harmonic(cls, u: CircleFunction, name="harmonic") -> "SubharmonicSample":
        def ring(r):
            a = u.a * r ** np.arange(len(u.a))
            b = u.b * r ** np.arange(len(u.b))
            return _synthesize(u.grid, a, b)

        return cls(u.grid, u, ring, name)

    @classmethod
    def log_modulus(cls, disc: AnalyticDisc, name="log|g|") -> "SubharmonicSample":
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

        return cls(disc.grid, boundary, ring, name)

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
    radii=None,
) -> ComparisonReport:
    """Check psi <= harmonic majorant psi1 interiorly; report the constant.

    Verifies the boundary hypothesis psi <= c |theta|^beta on (-theta0,
    theta0) and psi <= c globally on the grid first, then compares on
    interior rings and infers C = max (psi1(z) - psi1(1)) / |1-z|^beta.
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

    radii = np.arange(0.05, 0.96, 0.05) if radii is None else np.asarray(radii)
    psi1_at_one = psi1.value_at_one()
    majorant = SubharmonicSample.harmonic(psi1)
    violation = -math.inf
    constant = 0.0
    for r in radii:
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
@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    bound_ok: bool
    c_min: float
    exponent: float


def rate_fit(ks, dists, exponent: float = -1.0 / 36.0 + 0.01) -> RateFit:
    """Log-log least squares plus the one-sided bound dist_k <= c k^exponent.

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
    c_min = float(np.max(dists / ks**exponent))
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        bound_ok=bool(slope <= exponent and np.isfinite(c_min)),
        c_min=c_min,
        exponent=float(exponent),
    )
