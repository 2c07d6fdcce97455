"""Section bases on model compacts and Fekete configuration search.

Domains are the model compacts with explicit polynomial/harmonic section
spaces: the interval with Chebyshev polynomials, the circle with the
trigonometric basis, the 2-sphere with real spherical harmonics, plus arcs
and caps inheriting the ambient basis.  The weighted log-Vandermonde value
of a configuration is evaluated by pivoted factorization in log space, and
configurations are searched in index space on one weighted mesh-by-basis
matrix: greedy Leja extraction followed by single-point exchange
refinement over a candidate shortlist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, InputError, InsufficientMeshError

NEG_INF = float("-inf")

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_SHORTLIST = 64
_GREEDY_BLOCK = 32  # rank-1 deflations applied to the mesh matrix per GEMM


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
        if not self.theta_a < self.theta_b:
            raise InputError("arc needs theta_a < theta_b (positive measure)")

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


# ------------------------------------------------------------------- weight
@dataclass(frozen=True)
class Weight:
    """Continuous weight phi with a declared Hoelder (alpha, constant)."""

    phi: object
    alpha: float = 1.0
    constant: float = 0.0
    name: str = "phi"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise InputError("declared Hoelder exponent must lie in (0, 1]")

    def values(self, pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.phi(pts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InputError("weight must be finite on the mesh")
        return vals


def zero_weight() -> Weight:
    return Weight(phi=lambda pts: np.zeros(len(np.atleast_1d(pts))), name="zero")


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


def _legendre_norm_matrix(ct: np.ndarray, k: int) -> dict:
    """Fully normalized associated Legendre values P~_l^m(ct), no
    Condon-Shortley sign, normalized so Y integrates to 1 on the sphere."""
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    p = {}
    p[(0, 0)] = np.full_like(ct, math.sqrt(1.0 / (4.0 * math.pi)))
    for m in range(1, k + 1):
        p[(m, m)] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * st * p[(m - 1, m - 1)]
    for m in range(0, k):
        p[(m + 1, m)] = math.sqrt(2.0 * m + 3.0) * ct * p[(m, m)]
    for m in range(0, k + 1):
        for l in range(m + 2, k + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            p[(l, m)] = a * (ct * p[(l - 1, m)] - b * p[(l - 2, m)])
    return p


def _sphere_matrix(pts: np.ndarray, k: int) -> np.ndarray:
    """Real orthonormal spherical harmonics l <= k at unit vectors."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    phi = np.arctan2(y, x)
    p = _legendre_norm_matrix(z, k)
    trig = [(np.cos(m * phi), np.sin(m * phi)) for m in range(1, k + 1)]
    out = np.empty(((k + 1) ** 2, len(phi)))
    sqrt2 = math.sqrt(2.0)
    for l in range(k + 1):
        row = l * l  # rows of degree l: m = 0, then (cos, sin) for m = 1..l
        out[row] = p[(l, 0)]
        for m, (cos_m, sin_m) in enumerate(trig[:l], start=1):
            scaled = sqrt2 * p[(l, m)]
            np.multiply(scaled, cos_m, out=out[row + 2 * m - 1])
            np.multiply(scaled, sin_m, out=out[row + 2 * m])
    return out


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
    """N_k: closed-form on full model domains, numerical rank on arcs/caps."""
    domain, k = spec.domain, spec.k
    if isinstance(domain, Interval):
        return k + 1
    if isinstance(domain, Circle):
        return 2 * k + 1
    if isinstance(domain, Sphere):
        return (k + 1) ** 2
    return _numerical_rank(spec)


@lru_cache(maxsize=128)
def _numerical_rank(spec: BasisSpec) -> int:
    """Rank of the ambient basis on the domain's default mesh."""
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
    """Matrix [s_i(p_j)] for many points at once."""
    return _ambient_matrix(spec.domain, pts, spec.k)


# ------------------------------------------------------------ configurations
@dataclass(frozen=True)
class PointConfiguration:
    """N_k pairwise distinct domain points with their weighted logdet."""

    domain: object
    points: np.ndarray
    logdet: float
    weight: Weight

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
def _weighted_matrix(spec: BasisSpec, weight: Weight, pts: np.ndarray) -> np.ndarray:
    mat = basis_matrix(spec, pts)
    w = np.exp(-spec.k * weight.values(pts))
    return mat * w[None, :]


def log_vandermonde(config, spec: BasisSpec, weight: Weight | None = None) -> float:
    """log |det[s_i(p_j)]| - k sum phi(p_j), or -inf if numerically singular.

    Computed by row-pivoted LU in log space (sign discarded), never by a
    dense determinant.
    """
    weight = zero_weight() if weight is None else weight
    pts = config.points if isinstance(config, PointConfiguration) else np.asarray(config)
    n = basis_dim(spec)
    if len(pts) != n:
        raise InputError(f"need exactly N_k = {n} points, got {len(pts)}")
    a = _weighted_matrix(spec, weight, pts)
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0.0 or not np.isfinite(logdet):
        return NEG_INF
    return float(logdet)


# -------------------------------------------------------------------- greedy
def _greedy_core(w_mat: np.ndarray, n: int):
    """Row-residual greedy on the mesh-by-basis matrix; returns indices and
    per-step top-shortlist candidates.

    Residual norms are tracked incrementally and the rank-1 deflations are
    applied to the big matrix in blocks (compact-WY style), so the cost is
    one matvec per step plus occasional GEMMs.
    """
    r = w_mat.copy()
    mesh_sz, nb = r.shape
    chosen = []
    shortlists = []
    scores2 = np.einsum("ij,ij->i", r, r)
    scale0 = math.sqrt(float(np.max(scores2)))
    v_pend = np.empty((_GREEDY_BLOCK, nb))
    c_pend = np.empty((mesh_sz, _GREEDY_BLOCK))
    pending = 0

    def flush():
        nonlocal pending
        if pending:
            r_local = r
            r_local -= c_pend[:, :pending] @ v_pend[:pending]
            pending = 0

    for _ in range(n):
        pick = int(np.argmax(scores2))
        if scores2[pick] <= (1e-12 * scale0) ** 2 + 1e-14 * scale0**2:
            flush()
            scores2 = np.einsum("ij,ij->i", r, r)
            pick = int(np.argmax(scores2))
            if scores2[pick] <= (1e-12 * scale0) ** 2:
                raise InsufficientMeshError(
                    "mesh cannot resolve the basis (rank < N_k)"
                )
        top = np.argpartition(-scores2, min(_SHORTLIST, mesh_sz - 1))[:_SHORTLIST]
        top = top[np.lexsort((top, -scores2[top]))]
        shortlists.append(top)
        chosen.append(pick)
        row = r[pick] - c_pend[pick, :pending] @ v_pend[:pending]
        nv = math.sqrt(max(float(scores2[pick]), 0.0))
        v = row / nv
        c = r @ v - c_pend[:, :pending] @ (v_pend[:pending] @ v)
        v_pend[pending] = v
        c_pend[:, pending] = c
        pending += 1
        scores2 -= c * c
        np.maximum(scores2, 0.0, out=scores2)
        if pending == _GREEDY_BLOCK:
            flush()
    return chosen, shortlists


@dataclass(frozen=True)
class GreedyState:
    """Index-space search state of one greedy run, handed to exchange.

    `w` is the weighted mesh-by-basis matrix, `chosen` the mesh indices of
    the greedy configuration and `shortlists[i]` the mesh indices of the
    best residual nodes at greedy step i.  It holds a mesh-sized matrix,
    so it is kept for one search only and never cached.
    """

    w: np.ndarray
    chosen: np.ndarray
    shortlists: list


def _greedy_state(spec: BasisSpec, weight: Weight, mesh: np.ndarray, n: int) -> GreedyState:
    w_mat = _weighted_matrix(spec, weight, mesh).T  # mesh x basis
    chosen, shortlists = _greedy_core(w_mat, n)
    return GreedyState(w=w_mat, chosen=np.asarray(chosen), shortlists=shortlists)


def leja_greedy(
    spec: BasisSpec, weight: Weight, mesh: np.ndarray
) -> tuple[PointConfiguration, GreedyState]:
    """Greedy Leja extraction of N_k mesh points; also returns the search
    state (weighted mesh matrix, chosen indices, per-step shortlists)."""
    n = basis_dim(spec)
    if len(mesh) < 5 * n:
        raise InsufficientMeshError(f"mesh must have at least 5 N_k = {5 * n} nodes")
    state = _greedy_state(spec, weight, mesh, n)
    pts = mesh[state.chosen]
    cfg = PointConfiguration(
        domain=spec.domain,
        points=pts,
        logdet=log_vandermonde(pts, spec, weight),
        weight=weight,
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


def _local_candidates(domain, mesh: np.ndarray, i: int) -> np.ndarray:
    """Indices of the mesh nodes around node i, for fine positional moves
    (1-D meshes are sorted, so neighbours are neighbouring indices)."""
    if isinstance(ambient_of(domain), Sphere):
        dots = mesh @ mesh[i]
        take = min(2 * _LOCAL_WINDOW + 1, len(mesh))
        return np.sort(np.argpartition(-dots, take - 1)[:take])
    if isinstance(domain, Circle):
        return np.arange(i - _LOCAL_WINDOW, i + _LOCAL_WINDOW + 1) % len(mesh)
    return np.arange(max(0, i - _LOCAL_WINDOW), min(len(mesh), i + _LOCAL_WINDOW + 1))


def exchange_refine(
    config: PointConfiguration,
    spec: BasisSpec,
    weight: Weight,
    mesh: np.ndarray,
    sweeps: int = 3,
    shortlists: GreedyState | None = None,
) -> PointConfiguration:
    """Single-point exchange; accepts a move only when the weighted logdet
    strictly increases, so logdet is monotone.

    Works on mesh indices into the weighted mesh matrix W of `shortlists`
    (the state `leja_greedy` returns; without it W is built and the greedy
    run on it for the shortlists).  Every point of `config` must be a mesh
    node.  Candidates per point: its greedy-residual shortlist plus a
    window of mesh nodes around its current position (the shortlist alone
    cannot settle configurations to mesh resolution).  Swapping column i
    of A for W[c] scales det A by (A^-1 W[c])_i, so only row i of A^-1 is
    scored, and an accepted move updates A^-1 by Sherman-Morrison; A^-1 is
    recomputed from the current columns at the start of every sweep.
    """
    state = shortlists
    if state is None:
        state = _greedy_state(spec, weight, mesh, config.size)
    w_mat = state.w
    idx = _mesh_indices(mesh, config.points, state.chosen)
    for _ in range(sweeps):
        inv_a = np.linalg.inv(w_mat[idx].T)
        improved = False
        for i in range(config.size):
            cands = np.concatenate(
                [state.shortlists[i], _local_candidates(config.domain, mesh, idx[i])]
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
        logdet=log_vandermonde(pts, spec, weight),
        weight=weight,
    )
