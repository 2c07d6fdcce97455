"""Spectral machinery on the unit circle and disc.

Real functions on the boundary circle are carried as equispaced samples;
their trigonometric coefficients are computed from the samples on first
read and then cached, so arithmetic on boundary functions runs no FFT.
On top of that sit the harmonic extension to the disc, the
conjugate-function (Hilbert) transforms T and T1 = T - T(1), derivative
and moment functionals of the extension at the boundary point 1, a grid
estimate of Hoelder norms, and the dual bump pair (u1, u2) whose
extension derivatives at 1 hit prescribed values.

Conventions.  Nodes are theta_j = 2*pi*j/M - pi.  A function with cosine
coefficients a_0..a_{M/2} and sine coefficients b_1..b_{M/2-1} extends
harmonically as u(r e^{i theta}) = a_0 + sum_k r^k (a_k cos + b_k sin),
i.e. u(z) = a_0 + Re sum_k (a_k - i b_k) z^k.  T maps cos k -> sin k and
sin k -> -cos k, so that u + i T u has one-sided spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DegenerateBumpError, DomainError, InputError, PreconditionError

TWO_PI = 2.0 * math.pi


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced boundary grid theta_j = 2*pi*j/M - pi, M a power of two."""

    m: int

    def __post_init__(self):
        if self.m < 8 or self.m & (self.m - 1) != 0:
            raise InputError(f"grid size must be a power of two >= 8, got {self.m}")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(TWO_PI * np.arange(self.m) / self.m - math.pi)

    @cached_property
    def signs(self) -> np.ndarray:
        """(-1)^k for k = 0..M/2: the nodes start at -pi, so DFT bin k
        carries the phase e^{-ik pi}."""
        return _readonly(np.where(np.arange(self.m // 2 + 1) % 2 == 0, 1.0, -1.0))

    @property
    def step(self) -> float:
        return TWO_PI / self.m

    @property
    def index_of_one(self) -> int:
        """Index of the node theta = 0, i.e. the boundary point xi = 1."""
        return self.m // 2


@dataclass(frozen=True)
class HolderSpec:
    """Derivative order k and Hoelder exponent beta of a C^{k,beta} norm."""

    k: int
    beta: float

    def __post_init__(self):
        if not 0 <= self.k <= 4:
            raise InputError("derivative order must be in 0..4")
        if not 0.0 < self.beta < 1.0:
            raise InputError("Hoelder exponent must lie in (0, 1)")


class CircleFunction:
    """Real boundary function: samples at grid nodes plus cached coefficients.

    Immutable; arithmetic returns new instances.  The samples are the state:
    the coefficients are the discrete transform of the samples, computed on
    the first read of ``a`` or ``b`` and cached (the transform pair is exact
    on band-limited data, so ``from_coeffs`` round-trips).
    """

    __slots__ = ("grid", "samples", "_a", "_b")

    def __init__(self, grid: CircleGrid, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (grid.m,):
            raise InputError(
                f"expected {grid.m} samples, got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            raise InputError("samples must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", _readonly(samples))
        object.__setattr__(self, "_a", None)
        object.__setattr__(self, "_b", None)

    def __setattr__(self, *_):
        raise AttributeError("CircleFunction is immutable")

    def _coeffs(self):
        if self._a is None:
            a, b = _analyze(self.grid, self.samples)
            object.__setattr__(self, "_a", _readonly(a))
            object.__setattr__(self, "_b", _readonly(b))
        return self._a, self._b

    @property
    def a(self) -> np.ndarray:
        """Cosine coefficients a_0..a_{M/2}."""
        return self._coeffs()[0]

    @property
    def b(self) -> np.ndarray:
        """Sine coefficients, index-aligned with a (b_0 = b_{M/2} = 0)."""
        return self._coeffs()[1]

    @classmethod
    def from_coeffs(cls, grid: CircleGrid, a, b) -> "CircleFunction":
        return cls(grid, _synthesize(grid, np.asarray(a, float), np.asarray(b, float)))

    def value_at_one(self) -> float:
        """Boundary value at xi = 1 (a grid node)."""
        return float(self.samples[self.grid.index_of_one])

    def __add__(self, other):
        if isinstance(other, CircleFunction):
            self._check_grid(other)
            return CircleFunction(self.grid, self.samples + other.samples)
        return CircleFunction(self.grid, self.samples + float(other))

    def __sub__(self, other):
        if isinstance(other, CircleFunction):
            self._check_grid(other)
            return CircleFunction(self.grid, self.samples - other.samples)
        return CircleFunction(self.grid, self.samples - float(other))

    def __rmul__(self, c: float):
        return CircleFunction(self.grid, float(c) * self.samples)

    __mul__ = __rmul__

    def __neg__(self):
        return CircleFunction(self.grid, -self.samples)

    def _check_grid(self, other: "CircleFunction"):
        if other.grid.m != self.grid.m:
            raise InputError("grid sizes differ")

    def theta_derivative(self) -> "CircleFunction":
        """Spectral derivative d/dtheta as a boundary function."""
        k = np.arange(len(self.a), dtype=float)
        a, b = k * self.b, -k * self.a
        a[-1] = 0.0  # Nyquist sine is invisible on the grid
        b[-1] = 0.0
        return CircleFunction.from_coeffs(self.grid, a, b)


def _analyze(grid: CircleGrid, samples: np.ndarray):
    """Cosine and sine coefficients of every row of a (..., M) sample array."""
    c = np.fft.rfft(samples) / grid.m * grid.signs
    a = 2.0 * c.real
    a[..., 0] = c[..., 0].real
    a[..., -1] = c[..., -1].real
    b = -2.0 * c.imag
    b[..., 0] = 0.0
    b[..., -1] = 0.0
    return a, b


def _synthesize(grid: CircleGrid, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = grid.m
    if a.shape != (m // 2 + 1,) or b.shape != (m // 2 + 1,):
        raise InputError("coefficient arrays must have length M/2 + 1")
    c = 0.5 * (a - 1j * b)
    c[0] = a[0]
    c[-1] = a[-1]
    return np.fft.irfft(c * grid.signs, n=m) * m


def harmonic_extend(u: CircleFunction, z) -> float:
    """Evaluate the harmonic extension at an interior point, |z| <= 1 - 1e-9."""
    z = complex(z)
    if abs(z) > 1.0 - 1e-9:
        raise DomainError(f"harmonic extension requires |z| <= 1 - 1e-9, got {abs(z)}")
    return float(np.real(np.sum(_one_sided(u) * z ** np.arange(len(u.a)))))


def _one_sided(u: CircleFunction) -> np.ndarray:
    """Coefficients a_k - i b_k of the analytic extension of u (b_0 dropped)."""
    coeff = u.a - 1j * u.b
    coeff[0] = u.a[0]
    return coeff


def _conjugate_rows(grid: CircleGrid, rows, shift_to_one: bool) -> np.ndarray:
    """T (or T1 when shift_to_one) of every row of a (..., M) sample array.

    One rfft and one irfft per stack: bin k is multiplied by -i, the DC
    and Nyquist bins are zeroed (the Nyquist conjugate is invisible on
    the grid), and T1 subtracts the theta = 0 column.  Non-finite samples
    raise InputError, as a CircleFunction would.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1] != grid.m:
        raise InputError(f"expected {grid.m} samples per row, got shape {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise InputError("samples must be finite")
    spec = -1j * np.fft.rfft(rows, axis=-1)
    spec[..., 0] = 0.0
    spec[..., -1] = 0.0
    out = np.fft.irfft(spec, n=grid.m, axis=-1)
    if shift_to_one:
        out = out - out[..., grid.index_of_one, None]
    return out


def hilbert_T(u: CircleFunction) -> CircleFunction:
    """Hilbert transform: boundary trace of the conjugate vanishing at 0.

    Acts per mode as cos k -> sin k, sin k -> -cos k; the Nyquist mode's
    conjugate is invisible on the grid and is set to zero.
    """
    return CircleFunction(u.grid, _conjugate_rows(u.grid, u.samples, False))


def hilbert_T1(u: CircleFunction) -> CircleFunction:
    """Shifted transform T1 u = T u - T u(1); vanishes at xi = 1 exactly."""
    return CircleFunction(u.grid, _conjugate_rows(u.grid, u.samples, True))


def conjugate_disc(u: CircleFunction):
    """One-dimensional analytic disc with boundary trace -T1 u + i u."""
    from .discs import AnalyticDisc  # deferred: discs builds on this module

    trace = -hilbert_T1(u).samples + 1j * u.samples
    return AnalyticDisc.from_traces(u.grid, trace[None, :])


@dataclass(frozen=True)
class DerivsAtOne:
    """Derivatives of the harmonic extension at the boundary point 1."""

    dx: float
    dy: float
    dxx: float
    dyy: float
    dxy: float
    dtheta: float
    dtheta2: float


def derivs_at_one(u: CircleFunction) -> DerivsAtOne:
    """First and second derivatives at z = 1, summed from the coefficient series."""
    k = np.arange(len(u.a), dtype=float)
    dx = float(np.sum(k * u.a))
    dy = float(np.sum(k * u.b))
    dxx = float(np.sum(k * (k - 1.0) * u.a))
    dxy = float(np.sum(k * (k - 1.0) * u.b))
    dtheta2 = -float(np.sum(k * k * u.a))
    return DerivsAtOne(
        dx=dx, dy=dy, dxx=dxx, dyy=-dxx, dxy=dxy, dtheta=dy, dtheta2=dtheta2
    )


def rho1(theta):
    """Kernel representing d/dx of the extension at 1 against the boundary."""
    return 1.0 / (TWO_PI * (np.cos(theta) - 1.0))


def rho2(theta):
    """Kernel representing d2/dxdy of the extension at 1 against the boundary."""
    return -np.sin(theta) / (TWO_PI * (np.cos(theta) - 1.0) ** 2)


def _support_mask(grid: CircleGrid) -> np.ndarray:
    """Nodes strictly inside the back half |theta| > pi/2."""
    return np.abs(grid.nodes) > math.pi / 2.0 + 1e-12


def moment_rho(u: CircleFunction, which: int) -> float:
    """Quadrature of u against rho_1 or rho_2, restricted to |theta| > pi/2.

    Requires u to vanish on the closed front half; otherwise the kernel
    singularity at theta = 0 makes the integral meaningless.
    """
    if which not in (1, 2):
        raise InputError("which must be 1 or 2")
    grid = u.grid
    mask = _support_mask(grid)
    front = ~mask
    scale = float(np.max(np.abs(u.samples))) or 1.0
    if np.any(np.abs(u.samples[front]) > 1e-13 * scale):
        raise PreconditionError("u must vanish identically on the front half circle")
    kern = rho1 if which == 1 else rho2
    theta = grid.nodes[mask]
    return float(np.sum(u.samples[mask] * kern(theta)) * grid.step)


def holder_norm(u: CircleFunction, spec: HolderSpec) -> float:
    """Grid estimate of the C^{k,beta} norm on the boundary circle.

    C^k part: sup over nodes of spectral derivatives up to order k.
    Seminorm: max difference quotient over node pairs with chordal distance
    at most pi/4, plus all antipodal pairs.  A lower bound of the true norm,
    converging from below as M grows.
    """
    grid = u.grid
    derivs = [u.samples]
    f = u
    for _ in range(spec.k):
        f = f.theta_derivative()
        derivs.append(f.samples)
    ck = max(float(np.max(np.abs(d))) for d in derivs)

    top = derivs[-1]
    m = grid.m
    # chord(l) = 2 sin(pi l / M); l_max from chord <= pi/4
    lmax = int(math.floor(2.0 * math.asin(math.pi / 8.0) / grid.step))
    semi = 0.0
    lags = list(range(1, max(2, lmax + 1))) + [m // 2]
    for lag in lags:
        chord = 2.0 * math.sin(math.pi * lag / m)
        diff = float(np.max(np.abs(np.roll(top, -lag) - top)))
        semi = max(semi, diff / chord**spec.beta)
    return ck + semi


def ebump(s):
    """The standard smooth bump exp(-1/(1-s^2)) on |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


def _bump_samples(grid: CircleGrid, center: float, halfwidth: float) -> np.ndarray:
    """Samples of an even-in-theta bump pair at |theta| ~ center (wrapped)."""
    theta = np.abs(grid.nodes)
    return ebump((theta - center) / halfwidth)


# Support choices, both inside the open back half {|theta| > pi/2} where
# the kernels are integrable against them.  bump_u_minus fills the whole
# back half; chi is centered at 3 pi/4 with halfwidth pi/4, which keeps
# the dual pair (and everything the disc families build from it) small.
_BUMP_CENTER = math.pi
_BUMP_HALFWIDTH = math.pi / 2.0
_CHI_CENTER = 3.0 * math.pi / 4.0
_CHI_HALFWIDTH = math.pi / 4.0


@lru_cache(maxsize=None)
def bump_u_minus(grid: CircleGrid) -> CircleFunction:
    """Smooth bump on {|theta| > pi/2} scaled so that dx u(1) = -1."""
    raw = _bump_samples(grid, _BUMP_CENTER, _BUMP_HALFWIDTH)
    raw[~_support_mask(grid)] = 0.0
    u0 = CircleFunction(grid, raw)
    m1 = moment_rho(u0, 1)
    return CircleFunction(grid, -raw / m1)


@lru_cache(maxsize=None)
def chi_bump(grid: CircleGrid) -> CircleFunction:
    """The fixed dual-basis bump, supported in the open back half."""
    raw = _bump_samples(grid, _CHI_CENTER, _CHI_HALFWIDTH)
    raw[~_support_mask(grid)] = 0.0
    return CircleFunction(grid, raw)


@lru_cache(maxsize=None)
def dual_basis(grid: CircleGrid):
    """Functions (u1, u2), zero on the front half, with unit moment matrix.

    u1 has dx u1(1) = 1 and dxdy u1(1) = 0; u2 the transpose.  Built from
    a_j = chi * rho_j by solving the 2x2 Gram system for b_i in span{a_1,
    a_2} with quadrature pairings delta_ij, then u_i = chi * b_i.
    """
    chi = chi_bump(grid)
    mask = chi.samples > 0.0
    theta = grid.nodes
    a1 = np.zeros(grid.m)
    a2 = np.zeros(grid.m)
    a1[mask] = chi.samples[mask] * rho1(theta[mask])
    a2[mask] = chi.samples[mask] * rho2(theta[mask])
    gram = grid.step * np.array(
        [
            [np.sum(a1 * a1), np.sum(a1 * a2)],
            [np.sum(a2 * a1), np.sum(a2 * a2)],
        ]
    )
    if np.linalg.cond(gram) > 1e12:
        raise DegenerateBumpError("Gram matrix of the dual bump pair is degenerate")
    beta = np.linalg.inv(gram)
    b1 = beta[0, 0] * a1 + beta[0, 1] * a2
    b2 = beta[1, 0] * a1 + beta[1, 1] * a2
    u1 = CircleFunction(grid, chi.samples * b1)
    u2 = CircleFunction(grid, chi.samples * b2)
    return u1, u2
