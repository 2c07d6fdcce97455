"""Explicit analytic-disc families and the quantitative capture solver.

Two families live here.  The first, F, is half-attached to R^n: its
boundary trace has imaginary part t*u*(Im z/|z|) built from the back-half
bump with dx u(1) = -1, so the front half-circle maps into R^n and the
point 1 maps to t(Re z - Im z).  The second, F', is attached to (R+)^n on
an arc around 1: its imaginary part combines the dual bumps (u1, u2) with
coefficients chosen so the real part is a nonnegative quadratic plus a
controlled cubic near theta = 0.  F'_tau embeds F' in a larger family
half-attached to R^n, with tau steering the boundary derivative at 1.

Capture solvers invert z -> F(path(z), z, t) by the contraction iteration
z <- A^{-1}(target - g(z)), exactly the constructive inverse behind both
families.  They, the quantitative inverse and the Bishop solves all run one
Picard kernel, _contract.  The admissible radii r0, r0' and the attachment arc theta0 are
not taken from any closed formula; they are measured once per grid size by
a deterministic scan and kept in a calibration record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .circle import (
    CircleFunction,
    CircleGrid,
    _conjugate_rows,
    _one_sided,
    bump_u_minus,
    dual_basis,
    hilbert_T1,
)
from .errors import (
    CaptureFailure,
    ContractionFailure,
    DomainError,
    InputError,
    PreconditionError,
)
from .rng import Rng

_NEG_ENERGY_TOL = 1e-10
_MAX_STEPS = 500
_STALL_STEPS = 5
_INVERSE_TOL = 1e-10
_CAPTURE_TOL = 1e-8
_GUARD_NODES = 4


def _contract(step, x, tol: float):
    """Picard iteration: x, change, err = step(x) until err <= tol.

    Every fixed-point solve of the Cauchy-Riemann layer runs here: the
    Bishop boundary equation, the captures and the quantitative inverse.
    Each change over the previous one is logged while the previous change
    is positive.  Returns (x, ratio_log, steps_run); raises
    ContractionFailure after _STALL_STEPS ratios >= 1 in a row or when
    _MAX_STEPS steps run without reaching tol.
    """
    ratios = []
    prev = 0.0
    stalled = 0
    for steps in range(1, _MAX_STEPS + 1):
        x, change, err = step(x)
        if prev > 0.0:
            ratios.append(change / prev)
            stalled = stalled + 1 if ratios[-1] >= 1.0 else 0
            if stalled == _STALL_STEPS:
                raise ContractionFailure(
                    f"contraction ratio >= 1 for {_STALL_STEPS} consecutive steps"
                )
        if err <= tol:
            return x, ratios, steps
        prev = change
    raise ContractionFailure(f"iteration did not converge in {_MAX_STEPS} steps")


def _fsum_complex(terms: np.ndarray) -> complex:
    # compensated accumulation; the capture path evaluates near |z| = 1
    # where naive summation of ~M/2 terms loses digits.  fsum is correctly
    # rounded, so summing Python floats gives the same bits, only faster
    return complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))


def _negative_energy_ratio(spec: np.ndarray) -> float:
    """Energy in strictly negative frequencies over total energy of (n, M) DFT rows."""
    total = float(np.sum(np.abs(spec) ** 2))
    if total == 0.0:
        return 0.0
    neg = float(np.sum(np.abs(spec[:, spec.shape[1] // 2 + 1 :]) ** 2))
    return neg / total


class AnalyticDisc:
    """Holomorphic map of the disc, stored by its boundary traces.

    Each of the n complex traces must carry (numerically) nonnegative
    frequencies only; interior evaluation is the one-sided power sum.
    """

    __slots__ = ("grid", "n", "traces", "coeffs", "_neg_energy")

    def __init__(
        self, grid: CircleGrid, traces: np.ndarray, coeffs: np.ndarray, neg_energy: float
    ):
        self.grid = grid
        self.n = traces.shape[0]
        self.traces = traces
        self.coeffs = coeffs
        self._neg_energy = neg_energy

    @classmethod
    def from_traces(cls, grid: CircleGrid, traces) -> "AnalyticDisc":
        traces = np.asarray(traces, dtype=complex)
        if traces.ndim != 2 or traces.shape[1] != grid.m:
            raise InputError("traces must have shape (n, M)")
        spec = np.fft.fft(traces, axis=1) / grid.m
        neg_energy = _negative_energy_ratio(spec)
        if neg_energy > _NEG_ENERGY_TOL:
            raise InputError("boundary traces carry negative-frequency energy")
        # grid starts at -pi: re-phase so bin k multiplies e^{i k theta}
        return cls(grid, traces, spec[:, : grid.m // 2 + 1] * grid.signs, neg_energy)

    def negative_energy_ratio(self) -> float:
        """Energy in strictly negative frequencies over total energy."""
        return self._neg_energy

    def eval(self, z: complex) -> np.ndarray:
        """Interior value by the one-sided coefficient sum (compensated)."""
        z = complex(z)
        if abs(z) > 1.0 + 1e-12:
            raise DomainError("analytic disc is defined on the closed unit disc")
        powers = z ** np.arange(self.coeffs.shape[1])
        return np.array(
            [_fsum_complex(self.coeffs[j] * powers) for j in range(self.n)]
        )

    def boundary_value_at_one(self) -> complex | np.ndarray:
        vals = self.traces[:, self.grid.index_of_one]
        return vals[0] if self.n == 1 else vals


@dataclass(frozen=True)
class FamilyParams:
    """Parameter point of a disc family: z in a punctured real 2n-ball,
    scale t in (0, 1], optional control tau in B_n(0, 2)."""

    z_re: tuple
    z_im: tuple
    t: float
    tau: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "z_re", tuple(float(x) for x in self.z_re))
        object.__setattr__(self, "z_im", tuple(float(x) for x in self.z_im))
        if len(self.z_re) != len(self.z_im):
            raise InputError("Re z and Im z must have the same length")
        if not 0.0 < self.t <= 1.0:
            raise InputError("t must lie in (0, 1]")
        if self.norm == 0.0:
            raise DomainError("z must be nonzero (punctured ball)")
        if self.tau is not None:
            object.__setattr__(self, "tau", tuple(float(x) for x in self.tau))
            if len(self.tau) != len(self.z_re):
                raise InputError("tau must have length n")
            if math.sqrt(sum(x * x for x in self.tau)) >= 2.0:
                raise DomainError("tau must lie in B_n(0, 2)")

    @property
    def n(self) -> int:
        return len(self.z_re)

    @cached_property
    def norm(self) -> float:
        return math.sqrt(sum(x * x for x in self.z_re) + sum(x * x for x in self.z_im))

    @property
    def z(self) -> np.ndarray:
        return np.asarray(self.z_re) + 1j * np.asarray(self.z_im)

    @classmethod
    def from_complex(cls, z, t: float, tau=None) -> "FamilyParams":
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        return cls(tuple(z.real), tuple(z.imag), t, None if tau is None else tuple(tau))


@dataclass(frozen=True)
class InverseProblem:
    """Perturbed-linear inverse problem: find z with Phi0(z) = target.

    Phi0 = A z + g(z) with g Lipschitz of constant lipschitz_g; the
    contraction z <- A^{-1}(target - g(z)) then solves it inside B(0, r).
    """

    phi0: object
    matrix: np.ndarray
    radius: float
    target: np.ndarray
    lipschitz_g: float

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "target", np.asarray(self.target, dtype=float))
        inv_norm = float(np.linalg.norm(np.linalg.inv(a), 2))
        if inv_norm * self.lipschitz_g >= 1.0:
            raise PreconditionError("need |A^-1| * Lip(g) < 1")
        bound = (1.0 - inv_norm * self.lipschitz_g) / inv_norm * self.radius
        if np.linalg.norm(self.target) >= bound:
            raise PreconditionError("target outside the guaranteed ball")


def solve_quantitative_inverse(prob: InverseProblem):
    """Contraction iteration from 0; returns (z_star, ratio_log).

    Each step is z <- A^-1 (target - (Phi0(z) - A z)); the Phi0 value of
    the residual check serves the next step, so Phi0 runs once per iterate.
    """
    a_inv = np.linalg.inv(prob.matrix)

    def step(state):
        z, phi_z = state
        z_new = a_inv @ (prob.target - (phi_z - prob.matrix @ z))
        phi_new = np.asarray(prob.phi0(z_new))
        change = float(np.linalg.norm(z_new - z))
        return (z_new, phi_new), change, float(np.linalg.norm(phi_new - prob.target))

    z = np.zeros_like(prob.target)
    (z, _), ratios, _ = _contract(step, (z, np.asarray(prob.phi0(z))), _INVERSE_TOL)
    return z, ratios


def _assemble(p: FamilyParams, grid: CircleGrid, prime: bool) -> AnalyticDisc:
    """Disc with boundary traces const - T1(rows) + i rows, one per row of
    the family data."""
    const, rows = family_data(p, grid, prime)
    return AnalyticDisc.from_traces(grid, const - _conjugate_rows(grid, rows, True) + 1j * rows)


# ---------------------------------------------------------------- family F
def build_u_zt(p: FamilyParams, grid: CircleGrid) -> np.ndarray:
    """Imaginary-part data of F as (n, M) rows: row j is t * u * Im z_j / |z|."""
    if p.tau is not None:
        raise InputError("build_u_zt takes parameters without tau")
    u = bump_u_minus(grid)
    return (p.t * np.asarray(p.z_im) / p.norm)[:, None] * u.samples


def family_F(p: FamilyParams, grid: CircleGrid) -> AnalyticDisc:
    """Disc half-attached to R^n with F(1, z, t) = t(Re z - Im z)."""
    if not 0.0 < p.norm < 1.0:
        raise DomainError("family F needs 0 < |z| < 1")
    return _assemble(p, grid, prime=False)


# --------------------------------------------------------------- family F'
def build_u_delta_gamma(
    z_tilde: complex, delta: float, gamma: float, grid: CircleGrid
) -> CircleFunction:
    """Boundary function with dx u(1) = -2 Im z~/(delta(2+delta)) and
    dxdy u(1) = -2(gamma - Re z~)/delta^2, supported in the back half."""
    if not (gamma >= 2.0 * abs(z_tilde) and 0.5 * math.sqrt(gamma) <= delta <= 2.0 * math.sqrt(gamma)):
        raise DomainError("need gamma >= 2|z~| and sqrt(gamma)/2 <= delta <= 2 sqrt(gamma)")
    u1, u2 = dual_basis(grid)
    c1 = 2.0 * z_tilde.imag / (delta * (2.0 + delta))
    c2 = 2.0 * (gamma - z_tilde.real) / delta**2
    return CircleFunction(grid, -c1 * u1.samples - c2 * u2.samples)


def u_prime_boundary(p: FamilyParams, grid: CircleGrid) -> np.ndarray:
    """Imaginary-part data of F' (or F'_tau when tau is present) as (n, M)
    rows: row j is -t c1_j u1 - t c2_j u2 (+ 10 t tau_j u1), with c1, c2
    the multipliers of build_u_delta_gamma at delta = sqrt|z|, gamma = 2|z|.
    Parameters without tau are tau = 0: the tau term is left out."""
    s = p.norm
    if not 0.0 < s < 1.0 / (2.0 * p.n):
        raise DomainError("family F' needs 0 < |z| < 1/(2n)")
    u1, u2 = dual_basis(grid)
    delta, gamma = math.sqrt(s), 2.0 * s
    c1 = p.t * (2.0 * np.asarray(p.z_im) / (delta * (2.0 + delta)))
    c2 = p.t * (2.0 * (gamma - np.asarray(p.z_re)) / delta**2)
    rows = -c1[:, None] * u1.samples - c2[:, None] * u2.samples
    if p.tau is not None:
        rows = rows + (p.t * np.asarray(p.tau))[:, None] * (10.0 * u1.samples)
    return rows


def family_data(p: FamilyParams, grid: CircleGrid, prime: bool):
    """Boundary data (const, rows) of F, or of F'_tau when prime; the
    family's traces are const - T1(rows) + i rows.

    F has const t(Re z - Im z) and rows build_u_zt; F'_tau has const
    2t|z| and rows u_prime_boundary, where parameters without tau are
    tau = 0.  The families and the Bishop solves all take their data here.
    """
    if prime:
        return 2.0 * p.t * p.norm, u_prime_boundary(p, grid)
    return (p.t * (np.asarray(p.z_re) - np.asarray(p.z_im)))[:, None], build_u_zt(p, grid)


def family_Fprime(p: FamilyParams, grid: CircleGrid) -> AnalyticDisc:
    """Disc attached to (R+)^n on the calibrated arc, F'(1,z,t) = 2t(|z|,...)."""
    if p.tau is not None:
        raise InputError("family_Fprime takes parameters without tau; see family_Fprime_tau")
    return _assemble(p, grid, prime=True)


def family_Fprime_tau(p: FamilyParams, grid: CircleGrid) -> AnalyticDisc:
    """The tau-augmented family; tau = 0 reproduces family_Fprime exactly."""
    return _assemble(p, grid, prime=True)


def quadratic_minorant_discriminant(p: FamilyParams) -> float:
    """Discriminant of the quadratic minorant of Re F'_j near theta = 0.

    Nonpositive means the minorant gamma + c1 theta + (c2/2) theta^2 is
    nonnegative for all theta; maximized over components.
    """
    s = p.norm
    delta, gamma = math.sqrt(s), 2.0 * s
    worst = -math.inf
    for j in range(p.n):
        c1 = 2.0 * p.z_im[j] / (delta * (2.0 + delta))
        half_c2 = (gamma - p.z_re[j]) / delta**2
        worst = max(worst, c1 * c1 - 4.0 * gamma * half_c2)
    return worst


# -------------------------------------------------------------- calibration
@dataclass(frozen=True)
class Calibration:
    """Measured constants of the disc families at one grid size.

    r0, r0_prime: capture radii; theta0: attachment arc of F'; c0_sup and
    c0_deriv: sup-norm constants of F per unit t (value, and value of the
    z-gradient times |z|); c0_prime_sup: same for F'.  All obtained from
    deterministic scans, never from the existential constants.
    """

    grid_m: int
    r0: float
    r0_prime: float
    theta0: float
    c0_sup: float
    c0_deriv: float
    c0_prime_sup: float
    g0_norm: float


def _interior_values(coeffs: np.ndarray, z: complex) -> list:
    """Re of the one-sided power sum of each row of (r, K) coefficients at
    z, from one table z**k; only the real parts are summed (compensated)."""
    terms = (coeffs * z ** np.arange(coeffs.shape[1])).real
    return [math.fsum(row.tolist()) for row in terms]


def _g0_scan(grid: CircleGrid, s_values):
    """Taylor remainders g1, g2 of u and -T1 u along the capture path."""
    u = bump_u_minus(grid)
    coeffs = np.stack((_one_sided(u), _one_sided(hilbert_T1(u))))
    out = []
    for s in s_values:
        v_u, v_t1u = _interior_values(coeffs, 1.0 - s + 1j * s)
        out.append(((v_u - s) / (s * s), (-v_t1u - s) / (s * s)))
    return np.asarray(out)


@lru_cache(maxsize=None)
def calibrate(grid: CircleGrid, n: int) -> Calibration:
    """Deterministic startup scan; cached per (grid, n)."""
    # -- r0 from the C^1 size of the path remainder g0 = g2 + i g1
    s_vals = np.linspace(1e-3, 0.95, 400)
    g12 = _g0_scan(grid, s_vals)
    gmod = np.hypot(g12[:, 0], g12[:, 1])
    dg = np.hypot(np.gradient(g12[:, 0], s_vals), np.gradient(g12[:, 1], s_vals))
    g0_norm = float(np.max(gmod) + np.max(dg))
    r0 = 0.99 * min(1.0 / g0_norm, 1.0) / 16.0

    # -- c0 surrogates for F (t = 1 by homogeneity)
    c0_sup = 0.0
    c0_deriv = 0.0
    directions = _scan_directions(n)
    for s in (0.05, 0.2, 0.5, 0.9):
        for d in directions:
            p = FamilyParams.from_complex(s * d, 1.0)
            disc = family_F(p, grid)
            dth = np.max(np.abs(np.diff(disc.traces, axis=1))) / grid.step
            c0_sup = max(c0_sup, float(np.max(np.abs(disc.traces))), float(dth))
            h = 1e-5 * s
            p2 = FamilyParams.from_complex(s * d + h * d, 1.0)
            diff = family_F(p2, grid).traces - disc.traces
            c0_deriv = max(c0_deriv, float(np.max(np.abs(diff)) / h * s))

    # -- theta0: largest symmetric arc on which every scanned F' stays in
    # (R+)^n, i.e. Re >= -1e-12 and |Im| <= 1e-12 at t = 1, shrunk by a
    # few nodes as a guard band against unsampled parameters
    attach_ok = np.ones(grid.m, dtype=bool)
    c0_prime_sup = 0.0
    for s in (0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2):
        if s >= 1.0 / (2.0 * n):
            continue
        for d in list(directions) + _random_directions(n, 16):
            p = FamilyParams.from_complex(s * d, 1.0)
            disc = family_Fprime(p, grid)
            c0_prime_sup = max(c0_prime_sup, float(np.max(np.abs(disc.traces))))
            ok = (disc.traces.real.min(axis=0) >= -1e-12) & (
                np.abs(disc.traces.imag).max(axis=0) <= 1e-12
            )
            attach_ok &= ok
    theta0 = _guarded_arc(grid, attach_ok)

    # -- r0' from the measured Lipschitz constant of g'(z) = Phi'(z) - t z
    r0p = _calibrate_r0_prime(grid, n)
    return Calibration(
        grid_m=grid.m,
        r0=float(r0),
        r0_prime=float(r0p),
        theta0=float(theta0),
        c0_sup=float(c0_sup),
        c0_deriv=float(c0_deriv),
        c0_prime_sup=float(c0_prime_sup),
        g0_norm=g0_norm,
    )


def _guarded_arc(grid: CircleGrid, ok: np.ndarray) -> float:
    """|theta| of the widest arc around theta = 0 whose nodes are all ok,
    shrunk by _GUARD_NODES nodes; 0.0 when nothing is left.

    Nodes are taken in order of |theta| (stable, so -theta before theta);
    the arc ends at the first node that is not ok.
    """
    order = np.argsort(np.abs(grid.nodes), kind="stable")
    bad = np.flatnonzero(~ok[order])
    keep = (bad[0] if len(bad) else grid.m) - 1 - _GUARD_NODES
    return float(abs(grid.nodes[order[keep]])) if keep > 0 else 0.0


def _scan_directions(n: int):
    """Small fixed set of unit directions in R^2n = C^n."""
    dirs = []
    if n == 1:
        angles = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
        dirs = [np.array([math.cos(a) + 1j * math.sin(a)]) for a in angles]
    else:
        base = np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)
        for a in base:
            v = np.full(n, (math.cos(a) + 1j * math.sin(a)) / math.sqrt(n))
            dirs.append(v)
            w = np.zeros(n, dtype=complex)
            w[0] = math.cos(a) + 1j * math.sin(a)
            dirs.append(w)
    return dirs


def _random_directions(n: int, count: int):
    """Seeded unit directions used only by the calibration scans."""
    rng = Rng(0x5EEDD15C)
    out = []
    for _ in range(count):
        v = np.asarray(rng.sphere(2 * n))
        out.append(v[:n] + 1j * v[n:])
    return out


def _phi_prime(zv: np.ndarray, t: float, grid: CircleGrid) -> np.ndarray:
    p = FamilyParams.from_complex(zv, t)
    disc = family_Fprime(p, grid)
    return disc.eval(1.0 - math.sqrt(p.norm))


def _calibrate_r0_prime(grid: CircleGrid, n: int) -> float:
    cap = 0.45 / (2.0 * n)
    radii = np.geomspace(1e-3, cap, 14)
    dirs = _scan_directions(n)
    best = radii[0]
    for r in radii:
        lip = 0.0
        for d in dirs:
            za = 2.0 * r * 0.98 * d
            h = 1e-4 * r
            ga = _phi_prime(za, 1.0, grid) - za
            for pert in (d, 1j * d):
                zb = za + h * pert
                gb = _phi_prime(zb, 1.0, grid) - zb
                lip = max(lip, float(np.linalg.norm(gb - ga) / h))
        if lip <= 0.45:
            best = r
        else:
            break
    return float(best)


# ----------------------------------------------------------------- capture
def _capture(phi, t: float, z_target, r: float, bound: float, scale: float):
    """Fixed point z <- (target - (phi(z) - t z)) / t from 0 with phi(0) = 0,
    target = scale * z_target; returns (z*, phi(z*)), the value being the
    one the final residual check computed.

    Shared by the four captures: z_target must be nonzero with norm below
    `bound`, and an iterate outside the ball of radius 2r (r the calibrated
    r0 or r0') raises CaptureFailure.  phi is never evaluated at 0.
    """
    z_target = np.atleast_1d(np.asarray(z_target, dtype=complex))
    if not 0.0 < float(np.linalg.norm(_c2r(z_target))) < bound:
        raise PreconditionError(f"target must be nonzero with norm below {bound:.3g}")
    target = scale * z_target

    def step(state):
        z, phi_z = state
        z_new = (target - (phi_z - t * z)) / t
        nz = float(np.linalg.norm(z_new))
        if nz == 0.0 or nz > 2.0 * r:
            raise CaptureFailure("capture iterate left the admissible ball")
        phi_new = phi(z_new)
        change = float(np.linalg.norm(z_new - z))
        return (z_new, phi_new), change, float(np.linalg.norm(phi_new - target))

    zero = np.zeros_like(target)
    (z, phi_z), _, _ = _contract(step, (zero, zero), _CAPTURE_TOL)
    return z, phi_z


def _phi_F(zv: np.ndarray, t: float, grid: CircleGrid) -> np.ndarray:
    p = FamilyParams.from_complex(zv, t)
    s = p.norm
    return family_F(p, grid).eval(1.0 - s + 1j * s)


def capture_F(z_target, t: float, grid: CircleGrid):
    """Find z* with F(1 - |z*| + i|z*|, z*, t) = t * z_target, |z*| <= 2|z_target|,
    for t * z_target inside the calibrated radius r0; returns (params at z*, Phi(z*))."""
    r = calibrate(grid, np.size(z_target)).r0
    z_star, value = _capture(lambda zv: _phi_F(zv, t, grid), t, z_target, r, r, t)
    return FamilyParams.from_complex(z_star, t), value


def capture_Fprime(z_target, t: float, grid: CircleGrid):
    """Find z* with F'(1 - |z*|, z*, t) = t * z_target, |z*| <= 2|z_target|,
    for t * z_target inside the calibrated radius r0'; returns (params at z*, Phi(z*))."""
    r = calibrate(grid, np.size(z_target)).r0_prime
    z_star, value = _capture(lambda zv: _phi_prime(zv, t, grid), t, z_target, r, r, t)
    return FamilyParams.from_complex(z_star, t), value


def _c2r(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def _sample_targets(rng: Rng, n: int, radius: float, count: int) -> list:
    """`count` points z in C^n, each a uniform direction on the unit sphere
    of R^2n scaled to a radius drawn uniformly in [0.1, 0.95) * radius."""
    out = []
    for _ in range(count):
        v = np.asarray(rng.sphere(2 * n))
        r = radius * (0.1 + 0.85 * rng.uniform())
        out.append(r * (v[:n] + 1j * v[n:]))
    return out
