"""Section bases on model compacts and Fekete configuration search.

Domains are the model compacts with explicit polynomial/harmonic section
spaces: the interval with Chebyshev polynomials, the circle with the
trigonometric basis, the 2-sphere with real spherical harmonics, plus arcs
and caps inheriting the ambient basis.  Log-Vandermonde values are
pairwise products in 1-D and pivoted LU on the sphere and caps.
On the 1-D domains the Fekete configuration is computed exactly: in closed
form on the circle, and by Newton on the concave pairwise form of the
log-Vandermonde on the interval and on arcs.  On the sphere and caps,
which have no exact solver, configurations are searched in index space on
one mesh-by-basis matrix per run: greedy Leja extraction followed by
single-point exchange refinement over a candidate shortlist.
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
_NEWTON_STEP_TOL = 1e-13  # a Newton step this short (on [-1, 1] or in radians) is rounding
KKT_TOL = 1e-6  # largest |gradient| over the free points of a passing 1-D row


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
