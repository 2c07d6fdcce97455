"""Fixed-point solution of the Bishop-type boundary equations.

Given a graph manifold K_h = {(x, h(x))} the boundary map U solves

    U = data - T1(h(U)) - T1(u_data)

by plain contraction iteration on the grid, with per-iteration sup-norm
change ratios recorded.  The assembled disc U + i(h(U) + u_data) is then
holomorphic and half-attached to K_h.  On top of the solver sit the
capture maps through the disc families (Phi^h and Phi'^h), the tau control
steering the boundary derivative at 1 in the singular case, and the wedge
attachment report.

Thresholds in t are where six fixed sample solves reach the contraction
rate rho* = 0.95 of the linearised Picard step, max specrad(Dh(U*)) in
closed form because T1 has a compact commutator with every continuous
coefficient (Coifman, Rochberg & Weiss 1976): see calibrate_t_threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circle import CircleGrid, _analyze, _conjugate_rows, _support_mask
from .discs import (
    AnalyticDisc,
    FamilyParams,
    _c2r,
    _capture,
    _contract,
    _guarded_arc,
    _sample_targets,
    calibrate,
    family_data,
)
from .errors import (
    ContractionFailure,
    ControlFailure,
    DomainError,
    OutOfChartError,
    PreconditionError,
)
from .rng import Rng

_FIXED_POINT_TOL = 1e-12
_TAU_TOL = 1e-8
_WEDGE_SAMPLES = 12
_SPOT_CHECK_SAMPLES = 64


@dataclass(frozen=True)
class GraphManifold:
    """Graph {(x, h(x))} with h(0) = 0, Dh(0) = 0 and |h| <= c1 |x|^2.

    `h` maps arrays of shape (..., n) to arrays of the same shape; `radius`
    is the ball on which h may be evaluated (built-in polynomial manifolds
    declare a large one).
    """

    n: int
    h: object
    c1: float
    radius: float = 1.0
    name: str = "h"

    def __post_init__(self):
        z = np.zeros(self.n)
        h0 = np.asarray(self.h(z), dtype=float)
        if h0.shape != (self.n,) or np.max(np.abs(h0)) > 1e-14:
            raise DomainError("h(0) must be the zero vector of length n")
        eps = 1e-7
        for j in range(self.n):
            e = np.zeros(self.n)
            e[j] = eps
            col = (np.asarray(self.h(e)) - np.asarray(self.h(-e))) / (2 * eps)
            if np.max(np.abs(col)) > 1e-5:
                raise DomainError("Dh(0) must vanish")
        self.spot_check_bounds()

    def spot_check_bounds(self):
        """|h(x)| <= c1 |x|^2 and |Dh(x)| <= c1 |x| on a unit-ball sample."""
        rng = Rng(0xB15409)
        eps = 1e-6
        for _ in range(_SPOT_CHECK_SAMPLES):
            x = np.asarray(rng.ball(self.n))
            hx = np.asarray(self.h(x), dtype=float)
            nx = np.linalg.norm(x)
            if np.linalg.norm(hx) > self.c1 * nx**2 + 1e-12:
                raise DomainError("declared bound |h| <= c1 |x|^2 fails on sample")
            for j in range(self.n):
                e = np.zeros(self.n)
                e[j] = eps
                col = (np.asarray(self.h(x + e)) - np.asarray(self.h(x - e))) / (2 * eps)
                if np.linalg.norm(col) > self.c1 * nx + 1e-4:
                    raise DomainError("declared bound |Dh| <= c1 |x| fails on sample")

    def eval_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply h to an (n, M) array of boundary samples, columnwise."""
        if np.max(np.abs(rows)) > self.radius:
            raise DomainError(
                f"iterate left the declared domain of {self.name} "
                f"(radius {self.radius})"
            )
        return np.asarray(self.h(rows.T), dtype=float).T


def h_quad(n: int, q: float) -> GraphManifold:
    """h(x) = q * (x_1^2, ..., x_n^2); bounds hold with c1 = 2q exactly."""

    def h(x):
        x = np.asarray(x, dtype=float)
        return q * x * x

    return GraphManifold(n=n, h=h, c1=2.0 * q, radius=1e6, name=f"quad(q={q})")


def h_mix(n: int, q: float) -> GraphManifold:
    """h(x) = q * (x_1 x_2, x_2 x_3, ..., x_n x_1); c1 = 2q (n >= 2)."""

    def h(x):
        x = np.asarray(x, dtype=float)
        return q * x * np.roll(x, -1, axis=-1)

    if n < 2:
        raise DomainError("h_mix needs n >= 2")
    return GraphManifold(n=n, h=h, c1=2.0 * q, radius=1e6, name=f"mix(q={q})")


def h_zero(n: int) -> GraphManifold:
    def h(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    return GraphManifold(n=n, h=h, c1=1e-12, radius=1e6, name="zero")


@lru_cache(maxsize=None)
def manifold_from_key(key: tuple) -> GraphManifold:
    """The built-in manifold of a key ("quad", n, q), ("mix", n, q) or ("zero", n).

    Cached, so each key's bounds are spot-checked once per process however
    many configurations name it; a key that fails the check raises on
    every call, since a raise is not cached."""
    kind, n, *rest = key
    if kind == "quad":
        return h_quad(n, rest[0])
    if kind == "mix":
        return h_mix(n, rest[0])
    if kind == "zero":
        return h_zero(n)
    raise PreconditionError(f"unknown manifold key {key}")


@dataclass
class BishopSolution:
    """Solved boundary map plus diagnostics."""

    grid: CircleGrid
    manifold: GraphManifold
    params: FamilyParams
    U: np.ndarray  # (n, M) real boundary samples
    u_data: np.ndarray  # (n, M) imaginary-part data of the driving family
    iterations: int  # steps run: len(ratio_log) + 1
    ratio_log: list
    residual: float
    singular: bool

    def geometric_mean_ratio(self) -> float:
        rs = [r for r in self.ratio_log if r > 0]
        if not rs:
            return 0.0
        return float(math.exp(np.mean(np.log(rs))))

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.U)))


def solve_bishop(
    manifold: GraphManifold,
    p: FamilyParams,
    grid: CircleGrid,
    start: np.ndarray | None = None,
) -> BishopSolution:
    """Solve U = t(Re z - Im z) - T1(h(U)) - T1(u_{z,t}) on the grid."""
    return _solve(manifold, p, grid, start, singular=False)


def solve_bishop_singular(
    manifold: GraphManifold,
    p: FamilyParams,
    grid: CircleGrid,
    start: np.ndarray | None = None,
) -> BishopSolution:
    """Solve U' = 2t(|z|,...,|z|) - T1(h(U')) - T1(u'_{z,t,tau})."""
    return _solve(manifold, p, grid, start, singular=True)


def _solve(
    manifold: GraphManifold,
    p: FamilyParams,
    grid: CircleGrid,
    start: np.ndarray | None,
    singular: bool,
) -> BishopSolution:
    """The body of both solves; each public name calls it directly, so a
    wrapper around one of them never sees the other's calls."""
    if p.n != manifold.n:
        raise PreconditionError("parameter and manifold dimensions differ")
    const, u_rows = family_data(p, grid, prime=singular)
    forcing = const - _conjugate_rows(grid, u_rows, True)

    def step(U):
        U_next = forcing - _conjugate_rows(grid, manifold.eval_rows(U), True)
        change = float(np.max(np.abs(U_next - U)))
        return U_next, change, change

    U, ratios, steps = _contract(step, u_rows if start is None else start, _FIXED_POINT_TOL)
    return BishopSolution(
        grid=grid,
        manifold=manifold,
        params=p,
        U=U,
        u_data=u_rows,
        iterations=steps,
        ratio_log=ratios,
        residual=step(U)[1],
        singular=singular,
    )


def assemble_Fh(sol: BishopSolution) -> AnalyticDisc:
    """Disc U + i(h(U) + u_data), half-attached to the graph of h."""
    p_rows = sol.manifold.eval_rows(sol.U)
    traces = sol.U + 1j * (p_rows + sol.u_data)
    return AnalyticDisc.from_traces(sol.grid, traces)


def _graph_residual(manifold: GraphManifold, disc: AnalyticDisc, mask: np.ndarray) -> float:
    """max over the nodes in mask of |Im F - h(Re F)|."""
    re = disc.traces.real[:, mask]
    h_re = np.asarray(manifold.h(re.T), dtype=float).T
    return float(np.max(np.abs(disc.traces.imag[:, mask] - h_re)))


def attachment_residual(sol: BishopSolution, disc: AnalyticDisc | None = None) -> float:
    """max over the front half circle of |Im F^h - h(Re F^h)|."""
    disc = assemble_Fh(sol) if disc is None else disc
    return _graph_residual(sol.manifold, disc, ~_support_mask(sol.grid))


def phi_h(manifold: GraphManifold, zv: np.ndarray, t: float, grid: CircleGrid):
    """Phi^h(z) = F^h(1 - |z| + i|z|, z, t); returns (value, solution)."""
    p = FamilyParams.from_complex(zv, t)
    sol = solve_bishop(manifold, p, grid)
    disc = assemble_Fh(sol)
    s = p.norm
    return disc.eval(1.0 - s + 1j * s), sol


def phi_h_capture(
    manifold: GraphManifold, z_target, t: float, grid: CircleGrid
) -> FamilyParams:
    """Find z* with Phi^h(z*) = z_target, |z_target| < r0 t/2; |z*| <= 4 |target| / t."""
    r0 = calibrate(grid, manifold.n).r0
    z, _ = _capture(lambda zv: phi_h(manifold, zv, t, grid)[0], t, z_target, r0, r0 * t / 2.0, 1.0)
    return FamilyParams.from_complex(z, t)


@dataclass(frozen=True)
class TauControl:
    """Result of steering d/dtheta U'(1) to its target value."""

    tau: tuple
    target_deriv: tuple
    newton_steps: int
    residual: float
    second_deriv_gap: float
    solution: BishopSolution


def tau_target(p: FamilyParams) -> np.ndarray:
    s = p.norm
    rt = math.sqrt(s)
    return 2.0 * p.t * np.asarray(p.z_im) / (rt * (2.0 + rt))


def solve_tau(
    manifold: GraphManifold,
    z_param,
    t: float,
    grid: CircleGrid,
) -> TauControl:
    """Newton in tau so that d/dtheta U'(1) = 2t Im z / (sqrt|z|(2+sqrt|z|)).

    Finite-difference Jacobian with step 1e-5 * t; the leading diagonal
    -10t of the tau derivative serves as the first preconditioner.
    """
    p0 = FamilyParams.from_complex(np.atleast_1d(np.asarray(z_param, complex)), t)
    n = p0.n
    target = tau_target(p0)

    def phi0(tau_vec):
        p = FamilyParams(p0.z_re, p0.z_im, t, tau=tuple(tau_vec))
        sol = solve_bishop_singular(manifold, p, grid)
        a, b = _analyze(grid, sol.U)
        k = np.arange(a.shape[-1], dtype=float)
        return np.sum(k * b, axis=-1), -np.sum(k * k * a, axis=-1), sol

    tau = np.zeros(n)
    d1, d2, sol = phi0(tau)
    res = d1 - target
    step_h = 1e-5 * t
    for step in range(50):
        if float(np.linalg.norm(res)) <= _TAU_TOL:
            gap = float(
                np.max(np.abs(d2 - 2.0 * t * (2.0 * p0.norm - np.asarray(p0.z_re)) / p0.norm))
            )
            return TauControl(
                tau=tuple(tau),
                target_deriv=tuple(target),
                newton_steps=step,
                residual=float(np.linalg.norm(res)),
                second_deriv_gap=gap,
                solution=sol,
            )
        if step == 0:
            jac = -10.0 * t * np.eye(n)
        else:
            jac = np.empty((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = step_h
                dp, _, _ = phi0(tau + e)
                dm, _, _ = phi0(tau - e)
                jac[:, j] = (dp - dm) / (2.0 * step_h)
        try:
            delta = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise ControlFailure("singular tau Jacobian") from exc
        tau = tau - delta
        if float(np.linalg.norm(tau)) > 1.0:
            raise OutOfChartError("tau left the unit ball B_n(0, 1)")
        d1, d2, sol = phi0(tau)
        res = d1 - target
    raise ControlFailure("tau Newton did not reach tolerance in 50 steps")


@dataclass(frozen=True)
class WedgeReport:
    theta_t: float
    component_minima: tuple
    attachment_residual: float
    passed: bool


def verify_wedge_attachment(sol: BishopSolution, theta_t: float) -> WedgeReport:
    """Component minima of U' and graph residual over the arc |theta| <= theta_t."""
    grid = sol.grid
    arc = np.abs(grid.nodes) <= theta_t + 1e-15
    minima = tuple(float(np.min(sol.U[j, arc])) for j in range(sol.U.shape[0]))
    return WedgeReport(
        theta_t=float(theta_t),
        component_minima=minima,
        attachment_residual=_graph_residual(sol.manifold, assemble_Fh(sol), arc),
        passed=min(minima) >= -1e-9,
    )


def phi_h_prime(manifold: GraphManifold, zv: np.ndarray, t: float, grid: CircleGrid):
    """Phi'^h(z) = F'^h_{tau(z,t)}(1 - sqrt|z|, z, t); returns (value, control)."""
    ctrl = solve_tau(manifold, zv, t, grid)
    disc = assemble_Fh(ctrl.solution)
    s = ctrl.solution.params.norm
    return disc.eval(1.0 - math.sqrt(s)), ctrl


def phi_h_prime_capture(manifold: GraphManifold, z_target, t: float, grid: CircleGrid):
    """Find z* with Phi'^h(z*) = z_target, |z_target| < r0' t/2; reports
    |1 - z*|^2 <= 2|target|/t."""
    r0p = calibrate(grid, manifold.n).r0_prime
    last = {}

    def phi(zv):
        val, last["ctrl"] = phi_h_prime(manifold, zv, t, grid)
        return val

    z, _ = _capture(phi, t, z_target, r0p, r0p * t / 2.0, 1.0)
    s = math.sqrt(float(np.linalg.norm(_c2r(z))))
    return FamilyParams.from_complex(z, t, tau=last["ctrl"].tau), s * s


def calibrate_wedge(manifold: GraphManifold, t: float, grid: CircleGrid) -> float:
    """Largest uniform arc on which every sampled controlled solution has
    U' >= -1e-9 componentwise; shrunk by a guard band.  Per-sample wedges
    can be read off verify_wedge_attachment reports separately."""
    n = manifold.n
    ok = np.ones(grid.m, dtype=bool)
    for z in _sample_targets(Rng(0x3ED6E), n, 0.45 / (2 * n), _WEDGE_SAMPLES):
        ctrl = solve_tau(manifold, z, t, grid)
        ok &= ctrl.solution.U.min(axis=0) >= -1e-9
    return _guarded_arc(grid, ok)


# ---------------------------------------------------------- t calibration
_RHO_STAR = 0.95  # the largest contraction rate a t-threshold admits
_T_TOL = 2.0**-20


def contraction_rate(sol: BishopSolution) -> float:
    """rho = max over the grid of specrad(Dh(U*(theta))), the spectral radius
    of the linearised Picard step delta -> -T1(Dh(U*) delta) at sol's fixed
    point (2q max|U*| for quad); Dh by central differences of h."""
    x, h, eps = sol.U.T, sol.manifold.h, 1e-6
    jac = np.stack([np.subtract(h(x + e), h(x - e)) for e in eps * np.eye(x.shape[1])], axis=-1) / (2 * eps)
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


@lru_cache(maxsize=None)
def calibrate_t_threshold(
    manifold_key: tuple, grid: CircleGrid, singular: bool
) -> float:
    """Largest t in [0, 1] at which six fixed samples contract at rate at
    most _RHO_STAR: the lower end lo of a bracket hi - lo <= 2^-20 with
    rho_max(lo) <= rho* < rho_max(hi) between converged solves, rho_max(t)
    being the samples' largest contraction_rate.  The Picard step is a
    Hilbert transform times a continuous coefficient, whose commutator with
    T1 is compact (Coifman, Rochberg & Weiss 1976), so that closed form is
    its rate and the step budget never sets the threshold.  A secant kept
    inside the bracket starts at t = 2^-6, goes linearly through
    rho_max(0) = 0 and counts a trial whose solve raises as above the root;
    each solve starts from the sample's last fixed point times t / t_prev.
    Returns 1.0 when rho_max(1) <= rho* (h = 0); raises ContractionFailure
    unless each sample at lo has attachment residual <= 1e-9.

    manifold_key identifies a built-in manifold: ("quad", n, q) or
    ("mix", n, q) or ("zero", n).
    """
    manifold = manifold_from_key(manifold_key)
    n, rng = manifold.n, Rng(0x7E57)
    samples = []
    for _ in range(6):
        v = np.asarray(rng.sphere(2 * n))
        samples.append(0.3 / (2.0 * n) * (0.2 + 0.8 * rng.uniform()) * (v[:n] + 1j * v[n:]))
    solve = solve_bishop_singular if singular else solve_bishop
    last = [None] * len(samples)

    def trial(t: float):  # the six solves at t, or None once one raises
        for i, z in enumerate(samples):
            start = None if last[i] is None else last[i].U * (t / last[i].params.t)
            try:
                last[i] = solve(manifold, FamilyParams.from_complex(z, t), grid, start)
            except (ContractionFailure, DomainError):
                return None
        return list(last)

    # secant on f = rho_max - rho* through the last two converged trials, the
    # first being t = 0, where U* = 0 and Dh vanishes
    lo, lo_sols, hi, f_hi, pts, t = 0.0, None, math.inf, 0.0, [(0.0, -_RHO_STAR)], 2.0**-6
    while lo < 1.0 and hi - lo > _T_TOL:
        sols = trial(t)
        f = math.inf if sols is None else max(map(contraction_rate, sols)) - _RHO_STAR
        if f > 0.0:
            hi, f_hi = t, f
        else:
            lo, lo_sols = t, sols
        if sols is not None:
            pts.append((t, f))
        (a, fa), (b, fb) = (pts * 2)[-2:]
        t = b - fb * (b - a) / (fb - fa) if (fb - fa) * (b - a) > 0.0 else math.inf
        t = min(max(t if lo < t < hi else 0.5 * (lo + hi), lo + _T_TOL / 2), hi - _T_TOL / 2, 1.0)
    if lo_sols is None or math.isinf(f_hi):
        raise ContractionFailure(f"no bracket of rho_max = {_RHO_STAR} between converged solves at t = {lo!r}")
    for i, sol in enumerate(lo_sols):
        if attachment_residual(sol) > 1e-9:
            raise ContractionFailure(f"calibration sample {i} at t = {lo!r}: attachment residual above 1e-9")
    return lo
