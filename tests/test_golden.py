"""Golden `fekete` CSVs: the Fekete solvers must keep choosing the same
configurations, so each small `cmd_fekete` run is compared byte for byte
with a CSV committed under tests/data/, and the sphere golden (and the
benchmark-size sphere solve and greedy) also from fresh interpreters with
one and two BLAS threads.  The 1-D and sphere goldens written by the mesh
search, before the exact 1-D and sphere solvers, are kept unedited under
tests/data/mesh-search/ as lower bounds on the exact logdets.

Regenerate goldens with `python tests/test_golden.py NAME...` (src on the
path)."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from feketelab.cli import _record_from_csv, cmd_fekete
from feketelab.config import load_config

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "circle": "domain = circle\nk_min = 2\nk_max = 10\nmesh = 1024\nsweeps = 3\n",
    "interval": "domain = interval\nk_min = 2\nk_max = 10\nmesh = 1000\nsweeps = 3\n",
    "interval-linear": (
        "domain = interval\nk_min = 2\nk_max = 10\nmesh = 1000\nsweeps = 3\nweight = linear:0.3\n"
    ),
    "sphere": "domain = sphere\nk_min = 2\nk_max = 5\nmesh = 6000\nsweeps = 2\n",
    "arc": "domain = arc:-1.0,1.0\nk_min = 2\nk_max = 6\nmesh = 2048\nsweeps = 3\n",
}


def golden_config(name: str, tmp_path: Path) -> Path:
    cfg_path = tmp_path / f"{name}.ini"
    cfg_path.write_text(
        f"[experiment]\nname = {name}\nkind = fekete\n\n[fekete]\n{GOLDEN[name]}gammas = 1.0\n",
        encoding="utf-8",
    )
    return cfg_path


def golden_csv(name: str, tmp_path: Path) -> bytes:
    """The CSV `cmd_fekete` writes for the golden config `name`."""
    out = tmp_path / f"{name}_fekete.csv"
    cmd_fekete(load_config(str(golden_config(name, tmp_path)))).write_csv(str(out))
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fekete_csv_matches_golden(name, tmp_path):
    assert golden_csv(name, tmp_path) == (DATA / f"{name}_fekete.csv").read_bytes()


def _openblas_on_two_cores() -> bool:
    """Whether OPENBLAS_NUM_THREADS=2 can run two threads: numpy's BLAS is
    OpenBLAS and this process may use at least two cores."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return "openblas" in blas.lower() and (cores or 1) >= 2


def _blas_env(threads: str) -> dict:
    """The environment of a fresh interpreter with `threads` OpenBLAS
    threads and this checkout's package on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("threads", ["1", "2"])
def test_sphere_golden_does_not_depend_on_the_blas_thread_count(threads, tmp_path):
    """OpenBLAS fixes its thread count when it loads, so each count runs
    `feketelab fekete` in a fresh interpreter.  The golden searches k up
    to 5 on 6000 nodes; the greedy at the rate-sphere benchmark's size is
    compared across thread counts by the next test."""
    if threads != "1" and not _openblas_on_two_cores():
        pytest.skip("numpy's BLAS is not OpenBLAS on two or more cores, so one thread would run")
    argv = ["fekete", "--config", str(golden_config("sphere", tmp_path)), "--out", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "feketelab.cli", *argv], env=_blas_env(threads), capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sphere_fekete.csv").read_bytes() == (DATA / "sphere_fekete.csv").read_bytes()


def test_benchmark_greedy_does_not_depend_on_the_blas_thread_count():
    """The rate-sphere greedy (k = 8 on 40 000 nodes, 81 matvecs of the
    mesh matrix) picks the same nodes and shortlists with one and two
    OpenBLAS threads, each in a fresh interpreter."""
    if not _openblas_on_two_cores():
        pytest.skip("numpy's BLAS is not OpenBLAS on two or more cores, so one thread would run")
    script = (
        "import hashlib, numpy as np\n"
        "from feketelab.fekete import BasisSpec, Sphere, _greedy_core, basis_matrix\n"
        "mesh = Sphere().mesh(40000)\n"
        "w = np.ascontiguousarray(basis_matrix(BasisSpec(Sphere(), 8), mesh).T)\n"
        "chosen, shortlists = _greedy_core(w, 81)\n"
        "print(hashlib.sha256(np.array(chosen).tobytes() + np.concatenate(shortlists).tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_blas_env(threads), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_benchmark_sphere_solve_does_not_depend_on_the_blas_thread_count():
    """`fekete_sphere` at the rate-sphere benchmark's top degree (k = 8, 81
    points) finds the same points, bit for bit, with one and two OpenBLAS
    threads, each in a fresh interpreter: it factors K and solves its
    Newton systems with einsum and ufuncs, never BLAS or LAPACK."""
    if not _openblas_on_two_cores():
        pytest.skip("numpy's BLAS is not OpenBLAS on two or more cores, so one thread would run")
    script = (
        "import hashlib\n"
        "from feketelab.fekete import BasisSpec, Sphere, fekete_sphere\n"
        "config, _, _ = fekete_sphere(BasisSpec(Sphere(), 8))\n"
        "print(hashlib.sha256(config.points.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", script], env=_blas_env(threads), capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def _logdets(path: Path) -> dict:
    rec = _record_from_csv(str(path))
    k, logdet = rec.columns.index("k"), rec.columns.index("logdet")
    return {int(row[k]): float(row[logdet]) for row in rec.rows}


@pytest.mark.parametrize("name", ["arc", "circle", "interval", "interval-linear", "sphere"])
def test_exact_logdets_bound_the_mesh_search_goldens(name):
    """The exact 1-D optimum, and the sphere's local maximum off the mesh,
    are at least what the mesh search found."""
    exact = _logdets(DATA / f"{name}_fekete.csv")
    mesh = _logdets(DATA / "mesh-search" / f"{name}_fekete.csv")
    assert exact.keys() == mesh.keys()
    assert all(exact[k] >= mesh[k] for k in mesh), (exact, mesh)


@pytest.mark.parametrize("name", ["arc", "circle", "interval", "interval-linear"])
def test_1d_golden_dist1_is_the_gamma_one_upper_bound(name):
    """On the 1-D domains dist1 and dist_g1_hi are the gamma = 1 cost of one
    quantile coupling, uncapped and capped at 1; no coupled distance of a
    golden row reaches the cap, so the two columns agree bit for bit."""
    rec = _record_from_csv(str(DATA / f"{name}_fekete.csv"))
    d1, hi = rec.columns.index("dist1"), rec.columns.index("dist_g1_hi")
    assert rec.rows and all(row[d1] == row[hi] for row in rec.rows), name


if __name__ == "__main__":
    for name in sys.argv[1:]:
        with tempfile.TemporaryDirectory() as tmp:
            (DATA / f"{name}_fekete.csv").write_bytes(golden_csv(name, Path(tmp)))
