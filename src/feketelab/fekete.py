"""Section bases on model compacts and Fekete configuration search.

Domains are the model compacts with explicit polynomial/harmonic section
spaces: the interval with Chebyshev polynomials, the circle with the
trigonometric basis, the 2-sphere with real spherical harmonics, plus arcs
and caps inheriting the ambient basis.  Log-Vandermonde values are
pairwise products in 1-D and pivoted LU on the sphere and caps.
On the 1-D domains the Fekete configuration is computed exactly: in closed
form on the circle, and by Newton on the concave pairwise form of the
log-Vandermonde on the interval and on arcs.  On the sphere it is a local
maximum off any mesh, by trust-region Newton on (1/2) logdet of the
reproducing-kernel matrix.  On caps, which have no such solver yet,
configurations are searched in index space on one mesh-by-basis matrix
per run: greedy Leja extraction followed by single-point exchange
refinement over a candidate shortlist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InputError, InsufficientMeshError, NewtonFailure

NEG_INF = float("-inf")

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_SHORTLIST = 64
_NEWTON_MAX_ITERS = 60  # Newton steps of one exact 1-D solve, active-set changes included
_TRUST_MAX_STEPS = 150  # trust-region steps of one sphere solve (k = 2..15 take 6 to 54)
_NEWTON_STEP_TOL = 1e-13  # a Newton step this short (on [-1, 1] or in radians) is rounding
KKT_TOL = 1e-6  # largest |gradient| over the free points of a passing 1-D or sphere row
LAGRANGE_TOL = 1e-6  # how far max |l_i| on the verification mesh may pass 1 on a passing sphere row
_LAGRANGE_BLOCK = 4096  # verification-mesh nodes scanned at once


# ------------------------------------------------------------------ domains
@dataclass(frozen=True)
class Interval:
    """K = [-1, 1]."""

    kind: str = field(default="interval", init=False)

    def mesh(self, size: int = 4000) -> np.ndarray:
        # Chebyshev-Lobatto distribution: clusters where Fekete points do
        j = np.arange(size)
        return np.sort(np.cos(math.pi * j / (size - 1)))

    def contains(self, pts: np.ndarray) -> bool:
        return bool(np.all(np.abs(pts) <= 1.0 + 1e-14))


@dataclass(frozen=True)
class Circle:
    """K = S^1, points stored as angles in [-pi, pi)."""

    kind: str = field(default="circle", init=False)

    def mesh(self, size: int = 4096) -> np.ndarray:
        return 2.0 * math.pi * np.arange(size) / size - math.pi

    def contains(self, pts: np.ndarray) -> bool:
        return bool(np.all(np.abs(pts) <= math.pi + 1e-14))


@dataclass(frozen=True)
class Sphere:
    """K = S^2, points stored as unit vectors in R^3."""

    kind: str = field(default="sphere", init=False)

    def mesh(self, size: int = 40000) -> np.ndarray:
        i = np.arange(size)
        z = 1.0 - (2.0 * i + 1.0) / size
        phi = _GOLDEN_ANGLE * i
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])

    def contains(self, pts: np.ndarray) -> bool:
        return bool(np.all(np.abs(np.linalg.norm(pts, axis=-1) - 1.0) <= 1e-14))


@dataclass(frozen=True)
class CircleArc:
    """Arc {theta_a <= theta <= theta_b} of S^1, inheriting the trig basis."""

    theta_a: float
    theta_b: float
    kind: str = field(default="arc", init=False)

    def __post_init__(self):
        if not self.theta_a < self.theta_b < self.theta_a + 2.0 * math.pi:
            raise InputError("arc needs theta_a < theta_b < theta_a + 2 pi (positive measure, not the circle)")

    def mesh(self, size: int = 4096) -> np.ndarray:
        full = Circle().mesh(size)
        return full[(full >= self.theta_a) & (full <= self.theta_b)]

    def contains(self, pts: np.ndarray) -> bool:
        return bool(
            np.all((pts >= self.theta_a - 1e-14) & (pts <= self.theta_b + 1e-14))
        )


@dataclass(frozen=True)
class SphericalCap:
    """Cap {x . axis >= cos(angle)} of S^2."""

    axis: tuple
    angle: float
    kind: str = field(default="cap", init=False)

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=float)
        if a.shape != (3,) or not 0.0 < self.angle <= math.pi:
            raise InputError("cap needs a 3-vector axis and angle in (0, pi]")
        object.__setattr__(self, "axis", tuple(a / np.linalg.norm(a)))

    def mesh(self, size: int = 40000) -> np.ndarray:
        full = Sphere().mesh(size)
        keep = full @ np.asarray(self.axis) >= math.cos(self.angle) - 1e-14
        return full[keep]

    def contains(self, pts: np.ndarray) -> bool:
        return bool(
            np.all(pts @ np.asarray(self.axis) >= math.cos(self.angle) - 1e-12)
        )


def ambient_of(domain):
    if isinstance(domain, CircleArc):
        return Circle()
    if isinstance(domain, SphericalCap):
        return Sphere()
    return domain


# -------------------------------------------------------------------- basis
@dataclass(frozen=True)
class BasisSpec:
    """Section basis of degree k on a domain; dim follows the domain rule."""

    domain: object
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InputError("degree must be nonnegative")


def _chebyshev_matrix(x: np.ndarray, k: int) -> np.ndarray:
    out = np.empty((k + 1, len(x)))
    out[0] = 1.0
    if k >= 1:
        out[1] = x
    for j in range(2, k + 1):
        out[j] = 2.0 * x * out[j - 1] - out[j - 2]
    return out


def _trig_matrix(theta: np.ndarray, k: int) -> np.ndarray:
    rows = [np.ones_like(theta)]
    for j in range(1, k + 1):
        rows.append(np.cos(j * theta))
        rows.append(np.sin(j * theta))
    return np.stack(rows)


def _sphere_matrix(pts: np.ndarray, k: int) -> np.ndarray:
    """Real orthonormal spherical harmonics l <= k at unit vectors, as the
    (basis, nodes) view of one node-major buffer; the normalized Legendre
    values (no Condon-Shortley sign) run one order m at a time."""
    ct, phi = pts[:, 2], np.arctan2(pts[:, 1], pts[:, 0])
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    out = np.empty((len(phi), (k + 1) ** 2))
    p_mm = np.full_like(ct, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(k + 1):
        if m:
            p_mm = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * p_mm
            cos_m, sin_m = np.cos(m * phi), np.sin(m * phi)
        p_l = p_mm
        for l in range(m, k + 1):  # columns l^2 (m = 0), then (cos, sin) per m
            if l == m + 1:
                p_prev, p_l = p_l, math.sqrt(2.0 * m + 3.0) * ct * p_l
            elif l > m + 1:
                a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
                b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
                p_prev, p_l = p_l, a * (ct * p_l - b * p_prev)
            if m == 0:
                out[:, l * l] = p_l
            else:
                scaled = math.sqrt(2.0) * p_l
                np.multiply(scaled, cos_m, out=out[:, l * l + 2 * m - 1])
                np.multiply(scaled, sin_m, out=out[:, l * l + 2 * m])
    return out.T


def _ambient_matrix(domain, pts: np.ndarray, k: int) -> np.ndarray:
    amb = ambient_of(domain)
    if isinstance(amb, Interval):
        return _chebyshev_matrix(pts, k)
    if isinstance(amb, Circle):
        return _trig_matrix(pts, k)
    if isinstance(amb, Sphere):
        return _sphere_matrix(pts, k)
    raise InputError(f"unknown domain {domain!r}")


def basis_dim(spec: BasisSpec) -> int:
    """N_k: closed form on the model domains and arcs, numerical rank on caps.

    The trig basis stays linearly independent on any arc, since a nonzero
    trig polynomial of degree k has at most 2k zeros on the circle.
    """
    domain, k = spec.domain, spec.k
    if isinstance(domain, Interval):
        return k + 1
    if isinstance(domain, (Circle, CircleArc)):
        return 2 * k + 1
    if isinstance(domain, Sphere):
        return (k + 1) ** 2
    return _numerical_rank(spec)


@lru_cache(maxsize=128)
def _numerical_rank(spec: BasisSpec) -> int:
    """Rank of the ambient basis on a cap's default mesh."""
    mat = _ambient_matrix(spec.domain, spec.domain.mesh(), spec.k)
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > 1e-10 * sv[0]))


def eval_basis(spec: BasisSpec, point) -> np.ndarray:
    """Basis vector (s_1(p), ..., s_N(p)) at a single domain point."""
    domain = spec.domain
    pts = np.atleast_2d(point) if isinstance(ambient_of(domain), Sphere) else np.atleast_1d(point)
    if not domain.contains(pts):
        raise DomainError(f"point {point!r} is off the domain {domain.kind}")
    vec = _ambient_matrix(domain, pts, spec.k)[:, 0]
    if not np.all(np.isfinite(vec)):
        raise DomainError("basis evaluation overflowed")
    return vec


def basis_matrix(spec: BasisSpec, pts: np.ndarray) -> np.ndarray:
    """Matrix [s_i(p_j)] for many points at once; on the sphere and caps a
    view whose `.T` is the C-order mesh-by-basis matrix, with no copy."""
    return _ambient_matrix(spec.domain, pts, spec.k)


# ------------------------------------------------------------ configurations
@dataclass(frozen=True)
class PointConfiguration:
    """N_k pairwise distinct domain points with their (weighted) logdet."""

    domain: object
    points: np.ndarray
    logdet: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if len(pts) >= 2:
            flat = pts.reshape(len(pts), -1)
            d2 = np.sum((flat[:, None, :] - flat[None, :, :]) ** 2, axis=-1)
            np.fill_diagonal(d2, np.inf)
            if np.min(d2) <= 0.0:
                raise InputError("configuration points must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic probability measure (1/N) sum of point masses."""

    domain: object
    atoms: np.ndarray

    @property
    def weights(self) -> np.ndarray:
        return np.full(len(self.atoms), 1.0 / len(self.atoms))


def fekete_measure(config: PointConfiguration) -> EmpiricalMeasure:
    return EmpiricalMeasure(domain=config.domain, atoms=config.points)


# ----------------------------------------------------------- log determinant
def _pairwise_logdet(spec: BasisSpec, pts: np.ndarray) -> float:
    """Unweighted 1-D log |det[s_i(p_j)]|, free of conditioning limits:
    k(k-1)/2 log 2 + sum_{i<j} log|x_j - x_i| (Chebyshev) or
    2 k^2 log 2 + sum_{i<j} log|sin((t_j - t_i)/2)| (trig)."""
    k = spec.k
    u = np.abs(pts[None, :] - pts[:, None])[np.triu_indices(len(pts), 1)]
    with np.errstate(divide="ignore"):
        if isinstance(spec.domain, Interval):
            return k * (k - 1) / 2 * math.log(2.0) + float(np.sum(np.log(u)))
        return 2 * k * k * math.log(2.0) + float(np.sum(np.log(np.abs(np.sin(0.5 * u)))))


def log_vandermonde(config, spec: BasisSpec) -> float:
    """log |det[s_i(p_j)]|, unweighted.

    In 1-D it is `_pairwise_logdet`, with no conditioning limit, and -inf
    only when two points coincide exactly; the logdet under a weight
    phi(x) = a x is this minus k a sum x_j, as `fekete_1d` computes it.
    On the sphere and caps it is row-pivoted LU in log space (sign
    discarded), never a dense determinant, and -inf if the matrix is
    numerically singular.  On a cap whose basis has lost numerical rank
    the matrix is not square, and InsufficientMeshError is raised.
    """
    pts = config.points if isinstance(config, PointConfiguration) else np.asarray(config)
    n = basis_dim(spec)
    if len(pts) != n:
        raise InputError(f"need exactly N_k = {n} points, got {len(pts)}")
    if not isinstance(ambient_of(spec.domain), Sphere):
        return _pairwise_logdet(spec, pts)
    a = basis_matrix(spec, pts)
    if a.shape[0] != n:
        raise InsufficientMeshError(
            f"k = {spec.k}: the basis has numerical rank {n} below its ambient dimension {a.shape[0]}"
        )
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0.0 or not np.isfinite(logdet):
        return NEG_INF
    return float(logdet)


# -------------------------------------------------------------------- greedy
def _greedy_core(w_mat: np.ndarray, n: int):
    """Row-residual greedy on the mesh-by-basis matrix; returns indices and
    per-step top-shortlist candidates.

    This is QR with column pivoting on `w_mat.T`.  Each pick's residual row,
    scaled by its tracked norm, is a unit direction `v` orthogonal to every
    earlier one, so a mesh row's residual has the same product with `v` as
    the row of `w_mat` itself.  The residual matrix is therefore never
    formed: only the picked directions are kept, and a step costs one
    matvec of the unchanged `w_mat` (which may be a column slice of a
    wider matrix).  Residual norms are tracked incrementally; the rare
    rescore at the rank threshold forms the residual explicitly.  A node
    picked twice, which happens only once rounding decides the picks,
    raises InsufficientMeshError.
    """
    mesh_sz, nb = w_mat.shape
    chosen = []
    shortlists = []
    scores2 = np.einsum("ij,ij->i", w_mat, w_mat)
    scale0 = math.sqrt(float(np.max(scores2)))
    q = np.empty((n, nb))
    c = np.empty(mesh_sz)
    neg_scores = np.empty(mesh_sz)
    for p in range(n):
        pick = int(np.argmax(scores2))
        if scores2[pick] <= (1e-12 * scale0) ** 2 + 1e-14 * scale0**2:
            r = w_mat - (w_mat @ q[:p].T) @ q[:p]
            scores2 = np.einsum("ij,ij->i", r, r)
            pick = int(np.argmax(scores2))
            if scores2[pick] <= (1e-12 * scale0) ** 2:
                raise InsufficientMeshError(
                    "mesh cannot resolve the basis (rank < N_k)"
                )
        if pick in chosen:
            raise InsufficientMeshError(
                f"mesh cannot resolve the basis (node {pick} picked twice)"
            )
        np.negative(scores2, out=neg_scores)
        top = np.argpartition(neg_scores, min(_SHORTLIST, mesh_sz - 1))[:_SHORTLIST]
        top = top[np.lexsort((top, -scores2[top]))]
        shortlists.append(top)
        chosen.append(pick)
        row = w_mat[pick] - (q[:p] @ w_mat[pick]) @ q[:p]
        q[p] = row / math.sqrt(max(float(scores2[pick]), 0.0))
        np.matmul(w_mat, q[p], out=c)
        scores2 -= np.multiply(c, c, out=c)
        np.maximum(scores2, 0.0, out=scores2)
    return chosen, shortlists


@dataclass(frozen=True)
class GreedyState:
    """Index-space search state of one greedy run, handed to exchange.

    `w` is the mesh-by-basis matrix of the degree searched, a view of the
    leading columns of the run's matrix that `leja_greedy` was given.
    `chosen` holds the mesh indices of the greedy configuration and
    `shortlists[i]` the mesh indices of the best residual nodes at greedy
    step i.  It refers to a mesh-sized matrix, so it is kept for one search
    only and never cached.
    """

    w: np.ndarray
    chosen: np.ndarray
    shortlists: list


def leja_greedy(
    spec: BasisSpec, mesh: np.ndarray, mesh_matrix: np.ndarray
) -> tuple[PointConfiguration, GreedyState]:
    """Greedy Leja extraction of N_k mesh points on the sphere or a cap;
    also returns the search state (mesh matrix, chosen indices, per-step
    shortlists).

    `mesh_matrix` is the spherical-harmonic basis matrix of `mesh` at a
    degree >= spec.k, laid out mesh by basis (`basis_matrix(...).T`, C
    order as built).  The ambient basis of degree k is its leading
    columns, so one matrix serves every degree of a run.  The 1-D domains
    have an exact solver, `fekete_1d`, and no mesh search.
    """
    if not isinstance(ambient_of(spec.domain), Sphere):
        raise InputError(f"the mesh search runs on the sphere and caps, not on the {spec.domain.kind}")
    n = basis_dim(spec)
    if len(mesh) < 5 * n:
        raise InsufficientMeshError(f"mesh must have at least 5 N_k = {5 * n} nodes")
    cols = (spec.k + 1) ** 2  # the ambient sphere's dimension
    if mesh_matrix.shape[0] != len(mesh) or mesh_matrix.shape[1] < cols:
        raise InputError(
            f"mesh matrix {mesh_matrix.shape} does not hold the degree {spec.k} basis on {len(mesh)} nodes"
        )
    w_mat = mesh_matrix[:, :cols]
    try:
        chosen, shortlists = _greedy_core(w_mat, n)
    except InsufficientMeshError as exc:
        raise InsufficientMeshError(f"k = {spec.k}: {exc}") from None
    state = GreedyState(w=w_mat, chosen=np.asarray(chosen), shortlists=shortlists)
    pts = mesh[state.chosen]
    cfg = PointConfiguration(
        domain=spec.domain,
        points=pts,
        logdet=log_vandermonde(pts, spec),
    )
    return cfg, state


def _mesh_indices(mesh: np.ndarray, pts: np.ndarray, hint: np.ndarray) -> np.ndarray:
    """Mesh index of each configuration point, by exact match; `hint` is
    tried first (the greedy's choice when refining its own result)."""
    if len(hint) == len(pts) and np.array_equal(mesh[hint], pts):
        return np.array(hint)
    flat = mesh.reshape(len(mesh), -1)
    idx = []
    for p in pts.reshape(len(pts), -1):
        hit = np.flatnonzero(np.all(flat == p, axis=1))
        if hit.size == 0:
            raise InputError(f"configuration point {p} is not a mesh node")
        idx.append(hit[0])
    return np.array(idx)


_LOCAL_WINDOW = 32
_BAND_MARGIN = 1e-12  # far above the rounding of a 3-term dot product or of cos(theta_i - theta_j)


def _banded_angles(mesh: np.ndarray):
    """Polar angles of a sphere or cap mesh when they do not decrease with
    the index, as on `Sphere.mesh` and its cap subsets (ordered by
    decreasing z); None on any other mesh, whose neighbourhoods are then
    scanned over the whole mesh."""
    theta = np.arctan2(np.hypot(mesh[:, 0], mesh[:, 1]), mesh[:, 2])
    return theta if np.all(np.diff(theta) >= 0.0) else None


def _local_candidates(mesh: np.ndarray, theta, i: int) -> np.ndarray:
    """Indices of the mesh nodes around node i, for fine positional moves:
    the 2 _LOCAL_WINDOW + 1 nodes of largest dot product with node i.

    Given the polar angles `theta` of `_banded_angles`, they are first
    taken from an index band around i, twice as wide as the nearest nodes
    spread on a Fibonacci mesh.  The band's choice is kept when its last
    kept dot exceeds by _BAND_MARGIN both the band's next dot and
    cos(theta_i - theta_j) at the first node j past each band edge, which
    bounds the dot of every node beyond that edge: it is then the whole
    mesh's choice.  Otherwise the whole mesh is scanned.
    """
    take = min(2 * _LOCAL_WINDOW + 1, len(mesh))
    half = 2 * math.isqrt(take * len(mesh))
    lo, hi = max(0, i - half), min(len(mesh), i + half + 1)
    if theta is not None and hi - lo > take:
        dots = mesh[lo:hi] @ mesh[i]
        part = np.argpartition(-dots, take)
        bound = dots[part[take]]
        if lo > 0:
            bound = max(bound, math.cos(theta[i] - theta[lo - 1]))
        if hi < len(mesh):
            bound = max(bound, math.cos(theta[hi] - theta[i]))
        if np.min(dots[part[:take]]) > bound + _BAND_MARGIN:
            return np.sort(part[:take]) + lo
    dots = mesh @ mesh[i]
    return np.sort(np.argpartition(-dots, take - 1)[:take])


def exchange_refine(
    config: PointConfiguration,
    spec: BasisSpec,
    mesh: np.ndarray,
    sweeps: int,
    state: GreedyState,
) -> PointConfiguration:
    """Single-point exchange on the sphere or a cap; accepts a move only
    when the logdet strictly increases, so logdet is monotone.

    Works on mesh indices into the mesh matrix W of `state` (the search
    state `leja_greedy` returns for `spec` and `mesh`).
    Every point of `config` must be a mesh node.  Candidates per point: its
    greedy-residual shortlist plus a window of mesh nodes around its
    current position (the shortlist alone cannot settle configurations to
    mesh resolution).  Swapping column i of A for W[c] scales det A by
    (A^-1 W[c])_i, so only row i of A^-1 is scored, and an accepted move
    updates A^-1 by Sherman-Morrison; A^-1 is recomputed from the current
    columns at the start of every sweep.
    """
    w_mat = state.w
    idx = _mesh_indices(mesh, config.points, state.chosen)
    theta = _banded_angles(mesh)
    for _ in range(sweeps):
        inv_a = np.linalg.inv(w_mat[idx].T)
        improved = False
        for i in range(config.size):
            cands = np.concatenate(
                [state.shortlists[i], _local_candidates(mesh, theta, idx[i])]
            )
            gains = np.abs(inv_a[i] @ w_mat[cands].T)
            j = int(np.argmax(gains))
            if gains[j] > 1.0 + 1e-10:
                c = cands[j]
                if np.any(idx == c):  # would duplicate a current point
                    continue
                u = inv_a @ w_mat[c]
                row = inv_a[i] / u[i]
                inv_a -= np.outer(u, row)
                inv_a[i] = row
                idx[i] = c
                improved = True
        if not improved:
            break
    pts = mesh[idx]
    return PointConfiguration(
        domain=config.domain,
        points=pts,
        logdet=log_vandermonde(pts, spec),
    )


# ------------------------------------------------------- exact 1-D Fekete
def _pair_derivatives(x: np.ndarray, arc: bool):
    """Gradient and Hessian of sum_{i<j} h(x_j - x_i) at ordered points,
    with h(u) = log|u| (interval) or log|sin(u/2)| (arcs)."""
    u = x[:, None] - x[None, :]
    np.fill_diagonal(u, 1.0)
    if arc:
        h1 = 0.5 / np.tan(0.5 * u)
        h2 = -0.25 / np.sin(0.5 * u) ** 2
    else:
        h1 = 1.0 / u
        h2 = -h1 * h1
    np.fill_diagonal(h1, 0.0)
    np.fill_diagonal(h2, 0.0)
    hess = -h2
    np.fill_diagonal(hess, h2.sum(axis=1))
    return h1.sum(axis=1), hess


def _newton_1d(n: int, lo: float, hi: float, pull: float, arc: bool):
    """Maximiser of sum_{i<j} h(x_j - x_i) - pull * sum x_i over ordered
    points in [lo, hi], and its KKT residual.

    The objective is strictly concave once one endpoint is held, so damped
    Newton on the free points finds the unique maximiser.  The endpoints
    start held at lo and hi (the start is the Chebyshev-Lobatto nodes, or
    the arc-equilibrium quantiles); once Newton settles, an endpoint whose
    gradient points into the interval is freed, one at a time, and never
    the last held one.  A step is halved until it keeps the order and the
    box.  Raises NewtonFailure rather than return an unsettled solve.
    """
    if n == 1:
        return np.array([lo]), 0.0
    half = 0.5 * (hi - lo)
    s = np.sin(math.pi * (np.arange(n) / (n - 1) - 0.5))
    x = lo + half + (2.0 * np.arcsin(math.sin(0.5 * half) * s) if arc else half * s)
    x[0], x[-1] = lo, hi
    held = np.zeros(n, dtype=bool)
    held[[0, -1]] = True
    for _ in range(_NEWTON_MAX_ITERS):
        grad, hess = _pair_derivatives(x, arc)
        grad -= pull
        free = ~held
        step = np.zeros(n)
        step[free] = np.linalg.solve(hess[np.ix_(free, free)], -grad[free])
        t = 1.0
        while t > 0.0:
            trial = x + t * step
            if np.all(np.diff(trial) > 0.0) and trial[0] >= lo and trial[-1] <= hi:
                break
            t *= 0.5
        x = trial
        if np.max(np.abs(step)) > _NEWTON_STEP_TOL:
            continue
        # settled on this active set: a held endpoint must push outwards
        push_in = np.array([grad[0] if held[0] else 0.0, -grad[-1] if held[-1] else 0.0])
        if np.max(push_in) <= 0.0 or held.sum() == 1:
            grad, _ = _pair_derivatives(x, arc)
            return x, float(np.max(np.abs(grad - pull)[~held], initial=0.0))
        held[[0, -1][int(np.argmax(push_in))]] = False
    raise NewtonFailure(
        f"Newton on {n} points did not settle within {_NEWTON_MAX_ITERS} steps"
    )


def fekete_1d(spec: BasisSpec, slope: float = 0.0) -> tuple[PointConfiguration, float]:
    """Exact Fekete configuration on the interval, circle or an arc, and its
    KKT residual (the largest |gradient| over the free points).

    The Chebyshev (trig) log-determinant is k(k-1)/2 log 2 (2 k^2 log 2)
    plus the pairwise sum sum_{i<j} log|x_j - x_i| (log|sin((t_j - t_i)/2)|),
    and the weight phi(x) = slope x (interval only) subtracts
    k slope sum x_i.  So logdet comes from this product formula, with no
    matrix and no conditioning limit on the degree.  On the circle the
    optimum is N equispaced angles from -pi, with logdet
    1/2 log N + k log(N/2).
    """
    domain, k = spec.domain, spec.k
    n = basis_dim(spec)
    if slope and not isinstance(domain, Interval):
        raise InputError(f"a linear weight is defined on the interval only, not on the {domain.kind}")
    if isinstance(domain, Circle):
        pts = 2.0 * math.pi * np.arange(n) / n - math.pi
        logdet, residual = 0.5 * math.log(n) + k * math.log(n / 2.0), 0.0
    elif isinstance(domain, (Interval, CircleArc)):
        arc = isinstance(domain, CircleArc)
        lo, hi = (domain.theta_a, domain.theta_b) if arc else (-1.0, 1.0)
        pts, residual = _newton_1d(n, lo, hi, k * slope, arc)
        logdet = _pairwise_logdet(spec, pts) - k * slope * float(np.sum(pts))
    else:
        raise InputError(f"no exact Fekete solver on the {domain.kind}")
    config = PointConfiguration(domain=domain, points=pts, logdet=logdet)
    return config, residual


# -------------------------------------------------- Fekete points on S^2
def _kernel(t: np.ndarray, k: int):
    """kappa(t) = sum_{l<=k} (2l+1)/(4 pi) P_l(t), the reproducing kernel of
    the degree-k harmonics, with kappa' and kappa'', by the recurrences
    (l+1) P_{l+1} = (2l+1) t P_l - l P_{l-1} and
    P_{l+1}^(d) = P_{l-1}^(d) + (2l+1) P_l^(d-1)."""
    zero = np.zeros_like(t)
    prev, cur = [zero] * 3, [np.ones_like(t), zero, zero]
    kap = [c / (4.0 * math.pi) for c in cur]
    for l in range(k):
        cur, prev = [
            ((2 * l + 1) * t * cur[0] - l * prev[0]) / (l + 1),
            prev[1] + (2 * l + 1) * cur[0],
            prev[2] + (2 * l + 1) * cur[1],
        ], cur
        kap = [a + (2 * l + 3) / (4.0 * math.pi) * c for a, c in zip(kap, cur)]
    return kap


def _inverse_cholesky(a: np.ndarray):
    """Z = L^-1 for the lower Cholesky factor L of a symmetric matrix, by
    bordering (row j of L left of the diagonal is Z[:j, :j] a[:j, j]), and
    the first row whose pivot is not positive: len(a) when a is positive
    definite, else Z is complete above it.  Only einsum and ufuncs run:
    LAPACK and BLAS round differently with the thread count."""
    z = np.zeros_like(a)
    for j in range(len(a)):
        row = np.einsum("ik,k->i", z[:j, :j], a[:j, j])
        pivot = a[j, j] - np.einsum("i,i", row, row)
        if not pivot > 0.0:
            return z, j
        z[j, j] = 1.0 / math.sqrt(pivot)
        z[j, :j] = -z[j, j] * np.einsum("i,ik->k", row, z[:j, :j])
    return z, len(a)


def _sphere_state(x: np.ndarray, k: int):
    """Gram matrix t = X X^T, [kappa, kappa', kappa''] at t, the inverse
    Cholesky factor Z of K = kappa(t) and (1/2) logdet K = -sum log Z_ii;
    Z is None and the logdet -inf where K is not positive definite."""
    t = np.clip(np.einsum("id,jd->ij", x, x), -1.0, 1.0)
    np.fill_diagonal(t, 1.0)
    kap = _kernel(t, k)
    z, bad = _inverse_cholesky(kap[0])
    if bad < len(z):
        return t, kap, None, NEG_INF
    return t, kap, z, -float(np.sum(np.log(np.diagonal(z))))


def _sphere_derivatives(x: np.ndarray, t, kap, z):
    """Gradient (2, N) and Hessian (2N, 2N) of (1/2) logdet K(X, X) in the
    tangent frames (e_i1, e_i2) at the points, and the frames (2, N, 3).

    With W = K^-1, M = W o kappa', P_a[i, j] = e_ia . x_j, U_a = kappa' o P_a
    and T_a = U_a W, the gradient is g_ia = sum_j W_ij U_a[i, j], and the
    second derivative along the retraction (x_i + v_i)/|x_i + v_i| has the
    blocks
      M o (e_ia . e_jb) - delta_ab diag(sum_j M_ij t_ij)
      + diag(sum_j (W o kappa'')_ij P_a[i, j] P_b[i, j])
      + (W o kappa'') o P_a o P_b^T - T_a o T_b^T - W o (T_a U_b^T),
    from the second-order terms of log det(K + dK).
    """
    n = len(x)
    w = np.einsum("ki,kj->ij", z, z)
    e1 = np.cross(x, np.eye(3)[np.argmin(np.abs(x), axis=1)])
    e1 /= np.sqrt(np.einsum("ij,ij->i", e1, e1))[:, None]
    frames = np.stack([e1, np.cross(x, e1)])
    p = np.einsum("aid,jd->aij", frames, x)
    u = kap[1] * p
    tt = np.einsum("aik,kj->aij", u, w)
    m1, m2 = w * kap[1], w * kap[2]
    hess = (
        m1 * np.einsum("aid,bjd->abij", frames, frames)
        + m2 * p[:, None] * p.transpose(0, 2, 1)
        - tt[:, None] * tt.transpose(0, 2, 1)
        - w * np.einsum("aik,bjk->abij", tt, u)
    )
    diag = np.einsum("ij,aij,bij->abi", m2, p, p) - np.eye(2)[:, :, None] * np.einsum("ij,ij->i", m1, t)
    idx = np.arange(n)
    hess[:, :, idx, idx] += diag
    grad = np.einsum("ij,aij->ai", w, u)
    return grad, hess.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n), frames


def _rotation_basis(frames: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the tangent fields v_i = w x x_i of the
    rotations (w in R^3), in frame coordinates: x_i x e_i1 = e_i2 and
    x_i x e_i2 = -e_i1, so axis c has coordinates (e_i2[c], -e_i1[c])."""
    rows = []
    for vec in np.stack([frames[1], -frames[0]]).transpose(2, 0, 1).reshape(3, -1):
        for q in rows:
            vec = vec - np.einsum("i,i", q, vec) * q
        norm = math.sqrt(np.einsum("i,i", vec, vec))
        if norm > 1e-8:  # two antipodal points have only two rotation fields, one point none
            rows.append(vec / norm)
    return np.array(rows).reshape(-1, frames.shape[1] * 2)


def _truncated_cg(a: np.ndarray, g: np.ndarray, radius: float):
    """Steihaug-Toint truncated conjugate gradients for the trust-region
    model max g.s - s.a.s/2 over |s| <= radius: the step, and whether CG
    stopped inside on its tolerance |r| <= |g| min(|g|, 0.1) rather than
    at the boundary or on a direction of nonpositive curvature."""
    s, r = np.zeros_like(g), g.copy()
    d, rr = r.copy(), float(np.einsum("i,i", r, r))
    tol = rr * min(rr, 0.01)
    for _ in range(len(g)):
        if rr <= tol:
            break
        ad = np.einsum("ij,j->i", a, d)
        curv = float(np.einsum("i,i", d, ad))
        nxt = s + rr / curv * d if curv > 0.0 else s
        if curv <= 0.0 or np.einsum("i,i", nxt, nxt) >= radius * radius:
            sd, dd = float(np.einsum("i,i", s, d)), float(np.einsum("i,i", d, d))
            tau = (math.sqrt(sd * sd + dd * (radius * radius - np.einsum("i,i", s, s))) - sd) / dd
            return s + tau * d, False
        s, r, rr_old = nxt, r - rr / curv * ad, rr
        rr = float(np.einsum("i,i", r, r))
        d = r + rr / rr_old * d
    return s, True


def _newton_sphere(n: int, k: int):
    """Local maximiser of (1/2) logdet K(X, X) over N points of S^2 from the
    N-node spiral `Sphere().mesh(n)`, its value, its KKT residual
    max_i |g_i| and the number of trust-region steps tried.

    A Riemannian trust-region Newton method (Absil, Baker & Gallivan 2007),
    its model solved by truncated CG.  logdet K is invariant under
    rotations, so gradient and Hessian are projected off the three rotation
    fields and no step turns the configuration as a whole.  A step is
    taken when logdet does not fall by more than its rounding.  The solve
    stops at an interior step of at most _NEWTON_STEP_TOL radians where
    the projected Hessian, with the identity on the rotation fields, is
    negative definite.  Where it is not, the point is a saddle (the spiral
    is symmetric under a half-turn, and so are its iterates), and the next
    step goes to the trust-region boundary along the direction of
    nonnegative curvature that the failed factorization gives.  Raises
    NewtonFailure rather than return an unsettled solve.
    """
    x = Sphere().mesh(n)
    t, kap, z, value = _sphere_state(x, k)
    if z is None:
        raise NewtonFailure(f"k = {k}: the kernel matrix of the spiral start is singular")
    radius, moved = 1.0, True
    for steps in range(_TRUST_MAX_STEPS):
        if moved:
            grad, hess, frames = _sphere_derivatives(x, t, kap, z)
            q = _rotation_basis(frames)
            hp = hess - np.einsum("ir,rj->ij", np.einsum("ij,rj->ir", hess, q), q)
            a = np.einsum("ri,rj->ij", q, np.einsum("ri,ij->rj", q, hp) + q) - hp
            g = grad.reshape(-1)
            g = g - np.einsum("ri,r->i", q, np.einsum("ri,i->r", q, g))
        step, inside = _truncated_cg(a, g, radius)
        move = np.einsum("ai,aid->id", step.reshape(2, n), frames)
        if inside and np.max(np.einsum("id,id->i", move, move)) <= _NEWTON_STEP_TOL**2:
            zq, bad = _inverse_cholesky(a)
            if bad == len(g):
                return x, value, float(np.max(np.sqrt(np.einsum("ai,ai->i", grad, grad)))), steps
            step = np.zeros(len(g))
            head = zq[:bad, :bad]
            step[:bad] = -np.einsum("ki,k->i", head, np.einsum("ik,k->i", head, a[:bad, bad]))
            step[bad] = 1.0
            step -= np.einsum("ri,r->i", q, np.einsum("ri,i->r", q, step))
            step *= math.copysign(radius, np.einsum("i,i", g, step)) / math.sqrt(np.einsum("i,i", step, step))
            move, inside = np.einsum("ai,aid->id", step.reshape(2, n), frames), False
        trial = x + move
        trial /= np.sqrt(np.einsum("id,id->i", trial, trial))[:, None]
        state = _sphere_state(trial, k)
        rounding = 1e-12 * (1.0 + abs(value))
        gain = float(np.einsum("i,i", g, step) - 0.5 * np.einsum("i,ij,j", step, a, step))
        moved = state[3] >= value - rounding
        ratio = (state[3] - value) / gain if gain > rounding else float(moved)
        if ratio < 0.25:
            radius *= 0.25
        elif ratio > 0.75 and not inside:
            radius *= 2.0
        if moved:
            x, (t, kap, z, value) = trial, state
    raise NewtonFailure(f"k = {k}: Newton on {n} points did not settle within {_TRUST_MAX_STEPS} steps")


def fekete_sphere(spec: BasisSpec) -> tuple[PointConfiguration, float, int]:
    """Fekete configuration on S^2, off any mesh, its KKT residual and the
    number of Newton steps taken (`_newton_sphere`).

    For any N = (k+1)^2 points, log|det A| = (1/2) logdet K(X, X) with
    K = kappa_k(x . y), so logdet needs only the kernel: it is the sum of
    the logs of K's Cholesky diagonal, with no harmonic matrix.
    """
    if not isinstance(spec.domain, Sphere):
        raise InputError(f"fekete_sphere solves the full sphere, not the {spec.domain.kind}")
    x, logdet, residual, steps = _newton_sphere(basis_dim(spec), spec.k)
    return PointConfiguration(domain=spec.domain, points=x, logdet=logdet), residual, steps


def max_lagrange(configs: dict, mesh: np.ndarray) -> dict:
    """For each degree k -> sphere configuration X of `configs`, the max
    over the points i and the nodes y of `mesh` of |l_i(y)|, where
    l_i(y) = sum_j (K^-1)_ij kappa(x_j . y) = det A(X, x_i -> y) / det A(X)
    is the i-th Lagrange function.  It is at most 1 at a Fekete
    configuration; a node above 1 would raise the logdet.

    One pass verifies every degree.  The mesh is scanned in blocks of at
    most _LAGRANGE_BLOCK nodes, whose harmonics a(y) are built once, at the
    largest degree; degree k screens a(y)^T (A K^-1) with their leading
    (k+1)^2 rows, which are its own harmonics bit for bit.  No mesh-by-basis
    matrix of the whole mesh is built, and per degree only the nodes within
    1e-9 of the running maximum are kept.  The product only locates the
    largest value: the value returned is recomputed at those nodes from the
    kernel, with einsum.
    """
    w, aw, near, peaks = {}, {}, {}, {}
    for k, config in configs.items():
        z = _sphere_state(config.points, k)[2]
        w[k] = np.einsum("ki,kj->ij", z, z)
        aw[k] = np.einsum("bj,ji->bi", basis_matrix(BasisSpec(config.domain, k), config.points), w[k])
        near[k], peaks[k] = np.empty((0, 3)), np.empty(0)
    top = BasisSpec(Sphere(), max(configs, default=0))
    for s in range(0, len(mesh), _LAGRANGE_BLOCK):
        block = mesh[s : s + _LAGRANGE_BLOCK]
        harmonics = basis_matrix(top, block)
        for k in configs:
            prod = harmonics[: len(aw[k])].T @ aw[k]
            peak = np.concatenate([peaks[k], np.max(np.abs(prod, out=prod), axis=1)])
            del prod  # so a block holds its harmonics and at most one product
            keep = peak >= np.max(peak) - 1e-9
            near[k], peaks[k] = np.concatenate([near[k], block])[keep], peak[keep]
    out = {}
    for k, config in configs.items():
        lag = np.einsum("ij,nj->ni", w[k], _kernel(np.einsum("nd,jd->nj", near[k], config.points), k)[0])
        out[k] = float(np.max(np.abs(lag)))
    return out
