"""Exact 1-D Fekete configurations against their oracles: Gauss-Lobatto-
Legendre nodes on [-1, 1], the closed form on S^1, the matrix
log-Vandermonde, brute force under a linear weight, and the KKT
conditions at a freed endpoint."""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from feketelab import fekete as fk
from feketelab.errors import NewtonFailure
from feketelab.fekete import BasisSpec, Circle, CircleArc, Interval, fekete_1d, log_vandermonde


def _gll(k: int) -> np.ndarray:
    """-1, the zeros of P_k', 1."""
    inner = legendre.legroots(legendre.legder([0.0] * k + [1.0])) if k >= 2 else []
    return np.concatenate([[-1.0], np.sort(inner), [1.0]])


def test_interval_points_are_gauss_lobatto_legendre():
    for k in range(1, 61):
        config, residual = fekete_1d(BasisSpec(Interval(), k))
        assert np.max(np.abs(config.points - _gll(k))) <= 1e-13, k
        assert residual <= fk.KKT_TOL


def test_circle_logdet_is_the_closed_form():
    for k in range(0, 41):
        n = 2 * k + 1
        config, residual = fekete_1d(BasisSpec(Circle(), k))
        assert abs(config.logdet - (0.5 * math.log(n) + k * math.log(n / 2.0))) <= 1e-12
        assert np.allclose(np.diff(config.points), 2 * math.pi / n) and config.points[0] == -math.pi
        assert residual == 0.0


def _matrix_logdet(config, spec, slope: float) -> float:
    """log|det| of the basis matrix at the configuration, weighted by
    exp(-k phi) with phi(x) = slope x, by np.linalg.slogdet: independent
    of the product formula."""
    w = np.exp(-spec.k * slope * config.points)
    return float(np.linalg.slogdet(fk.basis_matrix(spec, config.points) * w[None, :])[1])


@pytest.mark.parametrize("domain", [Interval(), Circle()], ids=["interval", "circle"])
def test_product_formula_matches_the_matrix_logdet(domain):
    for k in range(1, 31):
        spec = BasisSpec(domain, k)
        config, _ = fekete_1d(spec)
        matrix = _matrix_logdet(config, spec, 0.0)
        assert abs(config.logdet - matrix) <= 1e-12 * abs(matrix), k


def test_arc_and_weighted_logdets_match_the_matrix_while_it_is_well_conditioned():
    for spec, slope in [
        (BasisSpec(Interval(), 8), 0.9),
        (BasisSpec(Interval(), 8), -1.5),
        (BasisSpec(CircleArc(-1.0, 1.5), 6), 0.0),
        (BasisSpec(CircleArc(-3.0, 3.0), 6), 0.0),
    ]:
        config, _ = fekete_1d(spec, slope)
        matrix = _matrix_logdet(config, spec, slope)
        assert abs(config.logdet - matrix) <= 1e-10 * abs(matrix), (spec, slope)


def test_log_vandermonde_keeps_weighted_and_arc_logdets_past_the_matrix_conditioning():
    """Logdets of an 80-digit mpmath determinant at the exact points, where
    the float64 matrix logdet is off by 55 and 45."""
    for spec, slope, want in [
        (BasisSpec(Interval(), 40), 0.9, 391.35396339961005422),
        (BasisSpec(CircleArc(-1.0, 1.0), 20), 0.0, -527.21488989675634236),
    ]:
        config, _ = fekete_1d(spec, slope)
        weighted = log_vandermonde(config.points, spec) - spec.k * slope * float(np.sum(config.points))
        assert abs(weighted - want) <= 1e-12 * abs(want)
        assert abs(config.logdet - want) <= 1e-12 * abs(want)
        assert abs(_matrix_logdet(config, spec, slope) - want) > 40.0


def _brute_force(mesh: np.ndarray, k: int, slope: float) -> float:
    """Largest weighted Chebyshev logdet over all (k+1)-subsets of the mesh,
    by the pairwise form.  Subsets grow one node at a time, each new node
    above the last, carrying their partial sums; the last node is
    maximised over per group of subsets with the same top node."""
    n = len(mesh)
    gaps = mesh[None, :] - mesh[:, None]
    logs = np.log(np.where(gaps > 0.0, gaps, 1.0))
    node = -k * slope * mesh
    sets, sums = np.arange(n)[:, None], node.copy()
    for _ in range(k - 1):
        rep = np.repeat(np.arange(len(sets)), n - 1 - sets[:, -1])
        new = np.concatenate([np.arange(i + 1, n) for i in sets[:, -1]])
        sums = sums[rep] + logs[sets[rep], new[:, None]].sum(axis=1) + node[new]
        sets = np.column_stack([sets[rep], new])
    order = np.argsort(sets[:, -1], kind="stable")
    sets, sums = sets[order], sums[order]
    bounds = np.searchsorted(sets[:, -1], np.arange(n + 1))
    best = -np.inf
    for top in range(n - 1):
        group = slice(bounds[top], bounds[top + 1])
        tail = logs[:, top + 1 :][sets[group]].sum(axis=1) + node[top + 1 :]
        best = max(best, float(np.max(sums[group][:, None] + tail, initial=-np.inf)))
    return k * (k - 1) / 2 * math.log(2.0) + best


@pytest.mark.parametrize("slope", [0.3, 0.9])
def test_weighted_logdet_beats_brute_force_on_a_fine_mesh(slope):
    mesh = np.linspace(-1.0, 1.0, 201)
    for k in (1, 2, 3):
        config, _ = fekete_1d(BasisSpec(Interval(), k), slope)
        best = _brute_force(mesh, k, slope)
        assert config.logdet >= best, (k, config.logdet, best)
        assert config.logdet - best <= 1e-3  # the mesh step is 0.01


def test_strong_linear_weight_frees_the_right_endpoint():
    """At linear:0.9, k = 10, holding both endpoints leaves the right one
    a gradient of -1.69: it pulls inwards, so the optimum frees it.  KKT
    at the result: zero gradient at every free point, and the held left
    endpoint pushes outwards."""
    k, slope = 10, 0.9
    config, residual = fekete_1d(BasisSpec(Interval(), k), slope)
    x = config.points
    assert x[0] == -1.0 and x[-1] < 0.8
    grad, _ = fk._pair_derivatives(x, False)
    grad -= k * slope
    assert np.max(np.abs(grad[1:])) <= residual <= fk.KKT_TOL
    assert grad[0] < 0.0


def test_newton_that_cannot_settle_raises(monkeypatch):
    monkeypatch.setattr(fk, "_NEWTON_MAX_ITERS", 2)
    with pytest.raises(NewtonFailure):
        fekete_1d(BasisSpec(Interval(), 10))


def test_linear_weight_off_the_interval_is_rejected():
    with pytest.raises(fk.InputError):
        fekete_1d(BasisSpec(Circle(), 3), 0.3)


def test_a_long_arc_holds_a_circle_optimum():
    """An arc longer than 2 pi (1 - 1/N) holds N equispaced points, so its
    optimum is the circle's; Newton frees one endpoint and keeps the other
    held.  An arc of length 2 pi is the circle, not an arc."""
    for k in (1, 2):
        config, residual = fekete_1d(BasisSpec(CircleArc(-3.0, 3.0), k))
        circle, _ = fekete_1d(BasisSpec(Circle(), k))
        assert abs(config.logdet - circle.logdet) <= 1e-12 and residual <= fk.KKT_TOL
        assert (config.points[0] == -3.0) != (config.points[-1] == 3.0)
    with pytest.raises(fk.InputError):
        CircleArc(-math.pi, math.pi)
