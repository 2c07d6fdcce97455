#!/usr/bin/env python3
"""feketelab benchmark: four workloads, each a sequence of `feketelab`
CLI commands run from source in fresh interpreters.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rate-1d --seed 1 --seconds 25 --trace 0

One run repeats the workload (each repetition a fresh interpreter, so set-up
is paid cold every time) until the next repetition would end after
--seconds, and at least twice.  It checks every repetition's outputs,
prints one line per repetition and a summary, and as its last line one
JSON object: with --trace 0 the end-to-end metrics (medians over the
repetitions), with --trace 1 the per-layer metrics of traced repetitions
interleaved with untraced ones, plus the tracing overhead.

Exit status is 1 when an output check fails (the JSON still reports it)
and 2 when the checkout holds no feketelab source to benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference_logdets.json")

# Inputs are fixed here; the seed reaches the program only as --seed, that
# is, through ExperimentConfig.seed.  The Fekete workloads do not depend on
# it (it only enters the config hash in the CSV header).
FEKETE_CONFIGS = {
    "circle": "domain = circle\nk_min = 2\nk_max = 30\nmesh = 4096\nsweeps = 5\ngammas = 0.5,1.0\n",
    "interval": "domain = interval\nk_min = 2\nk_max = 40\nmesh = 4000\nsweeps = 5\ngammas = 0.5,1.0\n",
    "sphere": "domain = sphere\nk_min = 2\nk_max = 8\nmesh = 40000\nsweeps = 2\ngammas = 1.0\n",
}
BISHOP_CONFIG = "[bishop]\nn = 2\ngrid_m = 1024\nh = quad:0.5\nt_list = 0.02,0.05\nsamples = 20\n"
DISC_CONFIG = "[disc]\nn = 2\ngrid_m = 1024\nt_list = 0.02,0.05,0.1\nsamples = 150\n"
# A Bishop cell costs from 0.01 s to 1.9 s depending on its sample point,
# so a timed sweep drawn from --seed made solve_s vary by a factor of two
# between seeds.  The timed Bishop sweep therefore uses the README seed;
# the sweep drawn from --seed runs after the clock stops and is checked.
BISHOP_TIMED_SEED = 12345

WORKLOADS = ("rate-1d", "rate-sphere", "bishop-sweep", "disc-sweep")
END_TO_END = {"run_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 2


def second_seed(seed: int) -> int:
    return (seed + 0x9E3779B97F4A7C15) % 2**64


def workload_commands(workload: str, seed: int, cfg_dir: str, out: str) -> list:
    """CLI invocations of one repetition: argv, the set-up function whose
    first return ends the command's set-up, and whether it is timed."""

    def config(name, section):
        kind = "fekete" if name in FEKETE_CONFIGS else name
        path = os.path.join(cfg_dir, name + ".ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"[experiment]\nname = {name}\nkind = {kind}\n\n{section}")
        return path

    def cli(argv, setup_fn=None, timed=True):
        return {"argv": argv, "setup_fn": setup_fn, "timed": timed}

    cmds = []
    if workload in ("rate-1d", "rate-sphere"):
        for name in ("circle", "interval") if workload == "rate-1d" else ("sphere",):
            cfg = config(name, f"[fekete]\n{FEKETE_CONFIGS[name]}")
            common = ["--config", cfg, "--out", out, "--seed", str(seed)]
            cmds.append(cli(["fekete", *common], "equilibrium.build_dictionaries"))
            if workload == "rate-1d":
                cmds.append(cli(["rate", *common, "--input", os.path.join(out, f"{name}_fekete.csv")]))
    elif workload == "bishop-sweep":
        cfg = config("bishop", BISHOP_CONFIG)
        runs = (("readme-seed", BISHOP_TIMED_SEED, True), ("seed", seed, False))
        for label, s, timed in runs:
            argv = ["bishop", "--config", cfg, "--out", os.path.join(out, label), "--seed", str(s)]
            cmds.append(cli(argv, "bishop.calibrate_t_threshold", timed))
    else:
        cfg = config("disc", DISC_CONFIG)
        for label, s in (("seed", seed), ("second-seed", second_seed(seed))):
            argv = ["disc", "--config", cfg, "--out", os.path.join(out, label), "--seed", str(s)]
            cmds.append(cli(argv, "discs.calibrate"))
    return cmds


# ------------------------------------------------------------ output checks
def read_csv(path: str):
    meta, columns, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            elif line:
                rows.append(dict(zip(columns, line.split(","))))
    return meta, rows


def output_csvs(out: str) -> list:
    paths = glob.glob(os.path.join(out, "**", "*.csv"), recursive=True)
    return sorted(p for p in paths if not p.endswith("_timings.csv"))


def check_rep(out: str, reference: dict) -> dict:
    """Cells, failed cells and NaN-only cells of one repetition.

    A cell fails the output check when its row is an error row, its pass
    is 0, or (Fekete cells) its logdet falls below the reference table by
    more than 1e-9 relative.  A cell whose row passes but carries a NaN for
    a quantity it was asked for is a failed cell too; it is counted apart
    because it does not fail the output check."""
    res = {"cells": 0, "failed": 0, "nan": 0, "notes": [], "hashes": {}}
    for path in output_csvs(out):
        rel = os.path.relpath(path, out)
        with open(path, "rb") as fh:
            res["hashes"][rel] = hashlib.sha256(fh.read()).hexdigest()
        meta, rows = read_csv(path)
        for i, row in enumerate(rows):
            bad = row.get("status") == "error" or row.get("pass") == "0"
            if bad:
                res["notes"].append(f"{rel} row {i}: status={row.get('status')} pass={row.get('pass')}")
            elif "logdet" in row:
                key = f"{meta.get('experiment')}:{row['k']}"
                value, ref = float(row["logdet"]), reference.get(key)
                if ref is None or value < ref - 1e-9 * abs(ref):
                    bad = True
                    res["notes"].append(f"{rel} k={row['k']}: logdet {value!r} below reference {ref!r}")
            res["cells"] += 1
            res["failed"] += bad
            res["nan"] += not bad and any(v.strip().lower() == "nan" for v in row.values())
    return res


# ----------------------------------------------------------------- running
def run_rep(workload: str, seed: int, trace: bool, rep_dir: str) -> dict:
    out = os.path.join(rep_dir, "out")
    os.makedirs(out)
    spec = {
        "src": SRC,
        "commands": workload_commands(workload, seed, rep_dir, out),
        "trace": trace,
        "spans": os.path.join(rep_dir, "spans.jsonl"),
    }
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(wall=wall, out=out, spans=spec["spans"])
    return result


def machine_metadata() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    meta = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cli_threads": 1,
    }
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            meta["blas_threads"] = fn()
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # so that the running worker is killed and waited for on termination
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "feketelab", "cli.py")):
        print(f"error: no feketelab source under {SRC}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    print("# machine " + json.dumps(machine_metadata(), sort_keys=True))
    run_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    reps = []
    try:
        started = time.perf_counter()
        while True:
            # a traced run interleaves untraced repetitions for the overhead
            trace = bool(args.trace) and len(reps) % 2 == 1
            rep_dir = os.path.join(run_dir, f"rep{len(reps)}")
            os.makedirs(rep_dir)
            rep = run_rep(args.workload, args.seed, trace, rep_dir)
            rep["trace"] = trace
            rep["check"] = check_rep(rep["out"], reference)
            reps.append(rep)
            c = rep["check"]
            print(
                f"rep {len(reps) - 1} trace={int(trace)} run_s={rep['run_s']:.4f} setup_s={rep['setup_s']:.4f} "
                f"solve_s={rep['solve_s']:.4f} peak_rss_mb={rep['peak_rss_mb']:.1f} "
                f"cells={c['cells']} failed={c['failed']} nan={c['nan']} exit={rep['exit_codes']}"
            )
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed + statistics.median([r["wall"] for r in reps]) > args.seconds:
                break
        if args.trace:
            # the spans of the last traced repetition outlive the run
            spans = os.path.join(ROOT, ".bench_out", f"{args.workload}-spans.jsonl")
            os.replace([r for r in reps if r["trace"]][-1]["spans"], spans)
            print(f"spans of the last traced repetition: {os.path.relpath(spans, ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(os.path.dirname(run_dir)) and not os.listdir(os.path.dirname(run_dir)):
            os.rmdir(os.path.dirname(run_dir))

    # output checks: every cell, every exit code, byte-identical CSVs
    problems = []
    for i, rep in enumerate(reps):
        problems += [f"rep {i}: {n}" for n in rep["check"]["notes"]]
        if any(code != 0 for code in rep["exit_codes"]):
            problems.append(f"rep {i}: CLI exit codes {rep['exit_codes']}")
        if rep["check"]["hashes"] != reps[0]["check"]["hashes"]:
            problems.append(f"rep {i}: CSVs differ from rep 0 for the same commit and seed")
    if not reps[0]["check"]["hashes"]:
        problems.append("no CSV written")
    for p in problems:
        print("CHECK FAILED " + p, file=sys.stderr)

    plain = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    cells = sum(r["check"]["cells"] for r in reps)
    failed = sum(r["check"]["failed"] for r in reps)
    nan = sum(r["check"]["nan"] for r in reps)
    fail_frac = (failed + nan) / cells if cells else 1.0
    e2e = {k: statistics.median([r[k] for r in plain]) for k in END_TO_END}
    for k, unit in END_TO_END.items():
        print(f"{args.workload} {k} = {e2e[k]:.6g} {unit} (median of {len(plain)})")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ({failed} failed + {nan} NaN of {cells} cells)")

    if args.trace:
        layers = {}
        names = sorted({k for r in traced for k in r["layers"]})
        for k in names:
            layers[k] = statistics.median([r["layers"].get(k, 0) for r in traced])
        metrics = {}
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer"]
        for m in declared:
            name = m["name"]
            if name == "fail_frac":
                value = fail_frac
            elif name == "trace.overhead_s":
                value = statistics.median([r["run_s"] for r in traced]) - e2e["run_s"]
            elif name == "discs.capture.phi_evals":
                calls = layers.get("discs.capture.calls", 0)
                value = layers.get(name, 0) / calls if calls else 0.0
            else:
                value = layers.get(name, 0)
            metrics[name] = {"value": value, "unit": m["unit"]}
            print(f"  {name} = {value:.6g} {m['unit']}")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    result = {"correct": not problems, "attempted": cells, "failed": failed + nan, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
