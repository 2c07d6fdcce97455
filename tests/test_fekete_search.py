"""Index-space Fekete search, which `cmd_fekete` runs on caps and these
tests also on sphere meshes: the exchange contract, the cached cap rank,
the run's shared mesh matrix, the banded sphere neighbourhoods, the
greedy against a residual-matrix reference and its memory, and the
benchmark tracer's hooks."""

import math
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from feketelab import fekete
from feketelab.cli import cmd_fekete
from feketelab.config import ExperimentConfig
from feketelab.errors import InputError, InsufficientMeshError
from feketelab.fekete import (
    _SHORTLIST,
    _banded_angles,
    _greedy_core,
    _local_candidates,
    BasisSpec,
    Circle,
    CircleArc,
    Interval,
    PointConfiguration,
    Sphere,
    SphericalCap,
    basis_dim,
    basis_matrix,
    exchange_refine,
    leja_greedy,
    log_vandermonde,
)

ROOT = Path(__file__).resolve().parent.parent


def _run_matrix(domain, mesh, k):
    """The search's mesh-by-basis matrix at degree k, as `cli` builds it."""
    return np.ascontiguousarray(basis_matrix(BasisSpec(domain, k), mesh).T)


def test_exchange_rejects_off_mesh_start():
    spec = BasisSpec(Sphere(), 1)
    mesh = Sphere().mesh(400)
    pts = np.vstack([mesh[[0, 150, 300]], [[0.6, 0.0, 0.8]]])
    start = PointConfiguration(domain=Sphere(), points=pts, logdet=log_vandermonde(pts, spec))
    _, state = leja_greedy(spec, mesh, _run_matrix(Sphere(), mesh, 1))
    with pytest.raises(InputError, match="not a mesh node"):
        exchange_refine(start, spec, mesh, sweeps=2, state=state)


CASES = [
    (BasisSpec(Sphere(), 3), Sphere().mesh(2000)),
    (BasisSpec(SphericalCap((0, 0, 1), 1.0), 2), SphericalCap((0, 0, 1), 1.0).mesh(8000)),
]
CASE_IDS = ["sphere", "cap"]


@pytest.mark.parametrize("spec,mesh", CASES, ids=CASE_IDS)
def test_exchange_result_contract(spec, mesh):
    """Distinct mesh nodes, monotone logdet, and a logdet that is exactly
    the log-Vandermonde of the returned points."""
    cfg, state = leja_greedy(spec, mesh, _run_matrix(spec.domain, mesh, spec.k))
    out = exchange_refine(cfg, spec, mesh, sweeps=3, state=state)
    flat = mesh.reshape(len(mesh), -1)
    idx = [
        int(np.flatnonzero(np.all(flat == p, axis=1))[0])
        for p in out.points.reshape(out.size, -1)
    ]
    assert len(set(idx)) == out.size == basis_dim(spec)
    assert out.logdet >= cfg.logdet
    assert out.logdet == log_vandermonde(out.points, spec)


def test_greedy_state_indexes_the_run_matrix():
    """`GreedyState.w` is a view of the leading (k+1)^2 columns of the
    run's matrix, with no copy."""
    spec = BasisSpec(Sphere(), 2)
    mesh = Sphere().mesh(600)
    run = _run_matrix(Sphere(), mesh, 4)
    cfg, state = leja_greedy(spec, mesh, run)
    assert state.w.shape == (len(mesh), basis_dim(spec))
    assert np.shares_memory(state.w, run) and np.array_equal(state.w, run[:, :9])
    assert np.array_equal(mesh[state.chosen], cfg.points)
    assert len(state.shortlists) == cfg.size


@pytest.mark.parametrize(
    "domain,k", [(CircleArc(-1.0, 1.0), 3), (SphericalCap((0, 0, 1), 1.0), 3)]
)
def test_arc_and_cap_rank_is_cached(domain, k):
    """A cap's dimension is its numerical rank, computed once per spec; an
    arc's is the exact 2k + 1 and never computes a rank."""
    from feketelab.fekete import _numerical_rank

    spec = BasisSpec(domain, k)
    before = _numerical_rank.cache_info()
    first = basis_dim(spec)
    mid = _numerical_rank.cache_info()
    assert basis_dim(BasisSpec(domain, k)) == first
    after = _numerical_rank.cache_info()
    if isinstance(domain, CircleArc):
        assert first == 2 * k + 1 and before == mid == after
    else:
        assert after.hits == mid.hits + 1
    sv = np.linalg.svd(basis_matrix(spec, domain.mesh()), compute_uv=False)
    assert first == int(np.sum(sv > 1e-10 * sv[0]))


# ------------------------------------------- one mesh matrix per run
def test_run_matrix_leading_columns_are_each_degrees_basis():
    """The Legendre and trig recurrences do not depend on k, so the
    degree-8 matrix holds every lower degree's basis byte for byte."""
    mesh = Sphere().mesh(2000)
    run = np.ascontiguousarray(basis_matrix(BasisSpec(Sphere(), 8), mesh).T)
    for k in range(1, 9):
        own = np.ascontiguousarray(basis_matrix(BasisSpec(Sphere(), k), mesh).T)
        assert run[:, : (k + 1) ** 2].tobytes() == own.tobytes(), k


def test_run_matrix_needs_enough_columns_and_rows():
    mesh = Sphere().mesh(400)
    run = _run_matrix(Sphere(), mesh, 3)
    with pytest.raises(InputError, match="degree 4"):
        leja_greedy(BasisSpec(Sphere(), 4), mesh, run)
    with pytest.raises(InputError, match="on 399 nodes"):
        leja_greedy(BasisSpec(Sphere(), 2), mesh[1:], run)


def test_cap_run_searches_its_top_degree_once(monkeypatch):
    """A cap's reference measure is its k_max configuration, which is also
    the run's k_max row, so `cmd_fekete` searches that degree once."""
    calls = []

    def counted(spec, *args):
        calls.append(spec.k)
        return leja_greedy(spec, *args)

    monkeypatch.setattr(fekete, "leja_greedy", counted)
    cfg = ExperimentConfig(domain_text="cap:0,0,1,1.0", k_min=1, k_max=3, mesh=4000, sweeps=1)
    rec = cmd_fekete(cfg)
    assert calls == [3, 1, 2]
    assert len(rec.rows) == 3 and not rec.has_errors()


@pytest.mark.parametrize("domain", [Interval(), Circle(), CircleArc(-1.0, 1.0)], ids=["interval", "circle", "arc"])
def test_mesh_search_rejects_the_one_d_domains(domain):
    """The 1-D domains have an exact solver, `fekete_1d`; the mesh search
    takes the sphere and caps only."""
    mesh = domain.mesh(400)
    run = np.ascontiguousarray(basis_matrix(BasisSpec(domain, 3), mesh).T)
    with pytest.raises(InputError, match=f"not on the {domain.kind}"):
        leja_greedy(BasisSpec(domain, 3), mesh, run)


# ------------------------------------------------ banded neighbourhoods
def _whole_mesh_neighbours(mesh, i):
    dots = mesh @ mesh[i]
    take = min(65, len(mesh))
    return np.sort(np.argpartition(-dots, take - 1)[:take])


# on this cap the band is too narrow for about 7% of the nodes, which
# then take the whole-mesh path
_CAP = SphericalCap((0, 0, 1), 1.0)
BAND_CASES = [
    (Sphere(), Sphere().mesh(6000), True),
    (_CAP, _CAP.mesh(8000), True),
    (Sphere(), Sphere().mesh(3000)[np.random.default_rng(5).permutation(3000)], False),
]


@pytest.mark.parametrize("domain,mesh,banded", BAND_CASES, ids=["sphere", "cap", "shuffled-sphere"])
def test_banded_neighbourhoods_match_the_whole_mesh_scan(domain, mesh, banded):
    """Every node's band result is the whole-mesh scan's; a mesh whose
    polar angles are not ordered takes the whole-mesh path."""
    theta = _banded_angles(mesh)
    assert (theta is not None) == banded
    for i in range(len(mesh)):
        assert np.array_equal(_local_candidates(mesh, theta, i), _whole_mesh_neighbours(mesh, i)), i


# ---------------------------------------- greedy against a residual matrix
_GREEDY_BLOCK = 32  # rank-1 deflations applied to the reference's residual per GEMM


def _single_gemm_greedy(w_mat, n):
    """The greedy as a blocked deflation of a residual copy of `w_mat`:
    one GEMM over the whole residual per _GREEDY_BLOCK picks."""
    r = w_mat.copy()
    mesh_sz, nb = r.shape
    chosen, shortlists = [], []
    scores2 = np.einsum("ij,ij->i", r, r)
    scale0 = math.sqrt(float(np.max(scores2)))
    v_pend = np.empty((_GREEDY_BLOCK, nb))
    c_pend = np.empty((mesh_sz, _GREEDY_BLOCK))
    pending = 0
    for _ in range(n):
        pick = int(np.argmax(scores2))
        if scores2[pick] <= (1e-12 * scale0) ** 2 + 1e-14 * scale0**2:
            r -= c_pend[:, :pending] @ v_pend[:pending]
            pending = 0
            scores2 = np.einsum("ij,ij->i", r, r)
            pick = int(np.argmax(scores2))
        top = np.argpartition(-scores2, min(_SHORTLIST, mesh_sz - 1))[:_SHORTLIST]
        shortlists.append(top[np.lexsort((top, -scores2[top]))])
        chosen.append(pick)
        row = r[pick] - c_pend[pick, :pending] @ v_pend[:pending]
        v = row / math.sqrt(max(float(scores2[pick]), 0.0))
        c = r @ v - c_pend[:, :pending] @ (v_pend[:pending] @ v)
        v_pend[pending] = v
        c_pend[:, pending] = c
        pending += 1
        scores2 -= c * c
        np.maximum(scores2, 0.0, out=scores2)
        if pending == _GREEDY_BLOCK:
            r -= c_pend[:, :pending] @ v_pend[:pending]
            pending = 0
    return chosen, shortlists


@pytest.mark.parametrize(
    "domain,size,k",
    [
        pytest.param(Sphere(), 6000, 5, id="5"),
        pytest.param(Sphere(), 6000, 8, id="8"),
        pytest.param(Sphere(), 40000, 8, id="sphere40000-8"),
        pytest.param(SphericalCap((0, 0, 1), 1.0), 20000, 4, id="cap20000-4"),
    ],
)
def test_greedy_core_matches_the_single_gemm_flush(domain, size, k):
    """`_greedy_core` scores with products of the unchanged mesh matrix;
    this reference deflates a residual copy, so the two round the scores
    differently, and the picks and shortlists must still agree.  On the
    6000-node mesh N = 36 and 81 > 32, so the reference deflates once and
    twice.  The other cases are the meshes and top degrees of the
    rate-sphere benchmark and of a cap run."""
    mesh = domain.mesh(size)
    w = np.ascontiguousarray(basis_matrix(BasisSpec(domain, 8), mesh).T)[:, : (k + 1) ** 2]
    chosen, shortlists = _greedy_core(w, (k + 1) ** 2)
    want_chosen, want_shortlists = _single_gemm_greedy(w, (k + 1) ** 2)
    assert chosen == want_chosen
    assert all(map(np.array_equal, shortlists, want_shortlists))


def test_greedy_allocates_no_copy_of_the_mesh_matrix():
    """The greedy scores every node with a matvec of `w` itself, so it
    allocates mesh-sized vectors but no mesh-by-basis matrix (a residual
    copy alone would be `w.nbytes`)."""
    mesh = Sphere().mesh(6000)
    w = _run_matrix(Sphere(), mesh, 8)
    tracemalloc.start()
    try:
        _greedy_core(w, 81)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < w.nbytes / 4, peak / w.nbytes


def test_greedy_repeated_pick_raises_insufficient_mesh():
    """`_greedy_core` takes any mesh-by-basis matrix.  Past the trig basis's
    conditioning on this arc its picks are rounding noise, and at k = 10
    (the first degree where it happens) one node comes up twice."""
    arc = CircleArc(-1.0, 1.0)
    w = basis_matrix(BasisSpec(arc, 10), arc.mesh(2048)).T
    with pytest.raises(InsufficientMeshError, match="node 588 picked twice"):
        _greedy_core(w, 21)


def test_benchmark_tracer_sees_the_search_layers(tmp_path):
    """The benchmark's per-layer metrics and its set-up/solve split wrap
    feketelab functions by name; a rename would silently zero them, and a
    solve that called the other public solve would be counted twice.  Runs
    tiny circle, sphere and cap `fekete`, `bishop` and `disc` commands in a
    fresh interpreter, because the tracer patches modules for the life of
    the process, and prints each command's counter increments.  Each
    command's set-up function (perfbench/run.py) must be called, except
    the circle's dictionary build, which the 1-D domains no longer make.
    The cap runs the mesh search; the circle and the full sphere must not,
    since their Fekete configurations come from `fekete_1d` and
    `fekete_sphere`."""
    script = textwrap.dedent(
        f"""
        import sys
        sys.path[:0] = [{str(ROOT / "src")!r}, {str(ROOT / "perfbench")!r}]
        import tracer
        tr = tracer.Tracer()
        tracer.install(tr)
        from feketelab import bishop
        from feketelab.cli import cmd_bishop, cmd_disc, cmd_fekete
        from feketelab.config import ExperimentConfig

        contract = bishop._contract

        def counted_contract(*args):
            tr.count("contract.runs")
            return contract(*args)

        bishop._contract = counted_contract
        keys = ("fekete.leja_greedy.calls", "fekete.exchange_refine.calls",
                "fekete.exchange_refine.points_base", "equilibrium.build_dictionaries.calls",
                "bishop.calibrate_t_threshold.calls", "bishop.solve.calls", "contract.runs",
                "discs.calibrate.calls", "discs.capture.calls")

        def run(label, cmd, cfg):
            before = dict(tr.counts)
            cmd(cfg)
            for key in keys:
                print(label, key, tr.counts.get(key, 0) - before.get(key, 0))

        run("circle", cmd_fekete, ExperimentConfig(domain_text="circle", k_min=2, k_max=3, mesh=256, sweeps=2))
        run("sphere", cmd_fekete, ExperimentConfig(domain_text="sphere", k_min=2, k_max=3, mesh=400, sweeps=1))
        run("cap", cmd_fekete, ExperimentConfig(domain_text="cap:0,0,1,1.0", k_min=1, k_max=2, mesh=4000, sweeps=1))
        run("bishop", cmd_bishop, ExperimentConfig(grid_m=128, t_list=(0.05,), samples=2))
        run("disc", cmd_disc, ExperimentConfig(grid_m=128, disc_n=1, t_list=(0.05,), samples=1))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    counts = {}
    for line in proc.stdout.splitlines():
        label, key, value = line.split()
        counts.setdefault(label, {})[key] = int(value)
    search = ("fekete.leja_greedy.calls", "fekete.exchange_refine.calls", "fekete.exchange_refine.points_base")
    for key in search:
        assert counts["cap"][key] > 0, counts["cap"]
    # the circle and the full sphere take their exact solvers, not the mesh search
    for label in ("circle", "sphere"):
        assert all(counts[label][key] == 0 for key in search), counts[label]
    # only the sphere builds a test dictionary; the circle's distances are
    # the two-sided bounds, so its set-up marker is never called
    assert counts["sphere"]["equilibrium.build_dictionaries.calls"] >= 1, counts["sphere"]
    assert counts["circle"]["equilibrium.build_dictionaries.calls"] == 0, counts["circle"]
    bishop = counts["bishop"]
    assert bishop["bishop.calibrate_t_threshold.calls"] >= 1, bishop
    assert bishop["bishop.solve.calls"] == bishop["contract.runs"] > 0, bishop
    disc = counts["disc"]
    assert disc["discs.calibrate.calls"] >= 1 and disc["discs.capture.calls"] > 0, disc
