"""Experiment CLI: config parsing, determinism, crash isolation, exit codes."""

import dataclasses
import glob
import math
import os
import re
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from feketelab import bishop as bsh
from feketelab import fekete as fk
from feketelab.cli import (
    RunRecord,
    _fmt,
    _record_from_csv,
    cmd_bishop,
    cmd_disc,
    cmd_fekete,
    cmd_rate,
    emit_plotdata,
    main,
)
from feketelab.config import ExperimentConfig, load_config, parse_domain
from feketelab.equilibrium import rate_fit
from feketelab.errors import ConfigError, ContractionFailure, InputError, NewtonFailure
from feketelab.fekete import BasisSpec, Interval, log_vandermonde


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


FEKETE_CFG = """
[experiment]
name = t-interval
kind = fekete

[fekete]
domain = interval
k_min = 2
k_max = 6
mesh = 201
sweeps = 3
gammas = 1.0

[output]
dir = {out}

[rng]
seed = 11
"""

DISC_CFG = """
[experiment]
name = t-disc
kind = disc

[disc]
n = 1
grid_m = 1024
t_list = 0.05
samples = 4

[output]
dir = {out}

[rng]
seed = 3
"""

BISHOP_CFG = """
[experiment]
name = t-bishop
kind = bishop

[bishop]
n = 1
grid_m = 1024
h = {h}
t_list = {t}
samples = 3

[output]
dir = {out}

[rng]
seed = 5
"""


# ------------------------------------------------------------------- config
def test_config_parsing_roundtrip(tmp_path):
    path = write_cfg(tmp_path, FEKETE_CFG.format(out=tmp_path))
    cfg = load_config(path)
    assert cfg.name == "t-interval"
    assert list(cfg.ks) == [2, 3, 4, 5, 6]
    assert cfg.seed == 11
    assert len(cfg.config_hash()) == 16


def test_config_rejects_empty_k_range(tmp_path):
    bad = FEKETE_CFG.replace("k_max = 6", "k_max = 1")
    path = write_cfg(tmp_path, bad.format(out=tmp_path))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_unknown_domain():
    with pytest.raises(ConfigError):
        parse_domain("torus")


def test_config_rejects_bad_t():
    with pytest.raises(ConfigError):
        ExperimentConfig(t_list=(1.5,))


def test_config_rejects_negative_mesh_or_sweeps(tmp_path):
    """A negative mesh would turn every sphere row into an error row and a
    negative sweep count would skip the exchange silently; both are
    rejected at load, while 0 (the default mesh, no exchange) stays valid."""
    for key, bad in (("mesh", -1), ("sweeps", -3)):
        with pytest.raises(ConfigError, match="nonnegative"):
            ExperimentConfig(domain_text="sphere", **{key: bad})
    text = FEKETE_CFG.format(out=tmp_path).replace("sweeps = 3", "sweeps = -3")
    assert "sweeps = -3" in text
    with pytest.raises(ConfigError, match="nonnegative"):
        load_config(write_cfg(tmp_path, text))
    cfg = ExperimentConfig(domain_text="sphere", mesh=0, sweeps=0)
    assert (cfg.mesh, cfg.sweeps) == (0, 0)


@pytest.mark.parametrize(
    "key, bad, t_list",
    [
        pytest.param("k_min", -1, (0.05,), id="k_min--1"),
        pytest.param("k_min", -5, (0.05,), id="k_min--5"),
        pytest.param("samples", 0, (0.05,), id="samples-0"),
        pytest.param("samples", -1, (0.05,), id="samples--1"),
        pytest.param("samples", 1, (0.02, 0.05), id="samples-1-of-2-t"),
        pytest.param("samples", 2, (0.02, 0.05, 0.1), id="samples-2-of-3-t"),
    ],
)
def test_config_rejects_a_negative_degree_or_no_samples(key, bad, t_list):
    """A negative k_min used to become an error row per negative degree,
    and samples below the number of t values one sample per t (the disc
    and bishop commands draw samples // len(t_list) per t); both are
    rejected at load, while k_min = 0 and one sample per t stay valid."""
    with pytest.raises(ConfigError, match="nonnegative" if key == "k_min" else "at least 1 per t value"):
        ExperimentConfig(**{key: bad, "t_list": t_list})
    cfg = ExperimentConfig(k_min=0, samples=len(t_list), t_list=t_list)
    assert (cfg.k_min, cfg.samples) == (0, len(t_list))


@pytest.mark.parametrize("text", ["arc:1,2,3", "arc:1", "arc:", "arc:1,x", "cap:0,0,1", "cap:0,0,x,1"])
def test_config_rejects_an_arc_or_cap_with_the_wrong_count_of_numbers(text):
    with pytest.raises(ConfigError, match="needs"):
        ExperimentConfig(domain_text=text)


def test_config_h_spec_parsed_once():
    cfg = ExperimentConfig(disc_n=2, h_spec=" Mix:0.25 ")
    assert cfg.manifold_key() == ("mix", 2, 0.25)
    assert cfg.manifold().name == "mix(q=0.25)"
    assert ExperimentConfig(h_spec="zero").manifold_key() == ("zero", 1)
    for bad in ("cubic:1", "quad:x", "quad"):
        with pytest.raises(ConfigError):
            ExperimentConfig(h_spec=bad)


# ------------------------------------------------------------------- fekete
def test_cmd_fekete_contains_bruteforce_optimum(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FEKETE_CFG.format(out=tmp_path)))
    rec = cmd_fekete(cfg)
    assert rec.all_pass()
    mesh = Interval().mesh(201)
    spec = BasisSpec(Interval(), 2)
    best = max(
        log_vandermonde(mesh[list(tri)], spec)
        for tri in combinations(range(0, 201, 4), 3)
    )
    k_idx = rec.columns.index("k")
    ld_idx = rec.columns.index("logdet")
    row = next(r for r in rec.rows if r[k_idx] == 2)
    assert row[ld_idx] >= best - 1e-9


@pytest.mark.parametrize(
    "domain,weight,message",
    [
        *((d, "linear:0.3", f"not on {d}") for d in ("circle", "sphere", "arc:-1.0,1.0", "cap:0,0,1,1.0")),
        ("interval", "linear:x", "bad weight 'linear:x'"),
    ],
)
def test_cmd_fekete_rejects_a_weight_it_cannot_apply(tmp_path, domain, weight, message):
    """A linear weight is defined on the interval only; on any other domain
    it is a ConfigError naming the domain, as is an unparsable slope."""
    cfg = ExperimentConfig(domain_text=domain, k_min=2, k_max=2, weight=weight, out_dir=str(tmp_path))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cmd_fekete(cfg)


def test_one_d_rows_carry_their_kkt_residual(tmp_path, monkeypatch):
    """1-D records name the exact search in the header, not mesh or sweeps,
    and a row passes only with its KKT residual within the declared
    tolerance.  Sphere records name the kernel Newton solve and its
    verification mesh, and carry the KKT residual, the largest Lagrange
    value, the Newton steps and the Hadamard gap; no sweeps."""
    cfg = ExperimentConfig(domain_text="interval", k_min=2, k_max=4, weight="linear:0.9")
    rec = cmd_fekete(cfg)
    assert rec.calibration == {"reference": "closed-form", "search": "exact-newton", "kkt_tol": fk.KKT_TOL}
    assert rec.columns[3:6] == ["logdet", "kkt_residual", "dist1"]
    res = rec.columns.index("kkt_residual")
    assert rec.all_pass() and all(0.0 <= row[res] <= fk.KKT_TOL for row in rec.rows)
    circle = cmd_fekete(dataclasses.replace(cfg, domain_text="circle", weight="zero"))
    assert [row[res] for row in circle.rows] == [0.0] * 3
    sphere = cmd_fekete(ExperimentConfig(domain_text="sphere", k_min=2, k_max=2, mesh=400, sweeps=1))
    assert sphere.columns[3:9] == [
        "logdet", "kkt_residual", "max_lagrange", "newton_steps", "hadamard_gap", "dist1",
    ]
    assert sphere.calibration == {
        "reference": "closed-form", "search": "kernel-newton", "kkt_tol": fk.KKT_TOL,
        "lagrange_tol": fk.LAGRANGE_TOL, "verification_mesh": 400,
    }
    row = dict(zip(sphere.columns, sphere.rows[0]))
    assert row["pass"] and 0.0 <= row["kkt_residual"] <= fk.KKT_TOL and row["newton_steps"] > 0
    assert 0.0 < row["max_lagrange"] <= 1.0 + fk.LAGRANGE_TOL and row["hadamard_gap"] >= 0.0
    monkeypatch.setattr(fk, "KKT_TOL", -1.0)
    strict = cmd_fekete(cfg)
    assert not any(row[strict.columns.index("pass")] for row in strict.rows)


def test_cmd_fekete_deterministic_bytes(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FEKETE_CFG.format(out=tmp_path)))
    paths = []
    for tag in ("a", "b"):
        rec = cmd_fekete(cfg)
        p = os.path.join(str(tmp_path), f"{tag}.csv")
        rec.write_csv(p)
        paths.append(p)
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()


# --------------------------------------------------------------------- rate
def test_fekete_timings_split_each_cell_into_search_and_distances(tmp_path):
    cfg_path = write_cfg(tmp_path, FEKETE_CFG.format(out=tmp_path))
    assert main(["fekete", "--config", cfg_path]) == 0
    lines = (tmp_path / "t-interval_fekete_timings.csv").read_text().splitlines()
    assert lines[1] == "cell,seconds,search_s,dist_s"
    assert [line.split(",")[0] for line in lines[2:]] == [f"k={k}" for k in range(2, 7)]
    for line in lines[2:]:
        total, search, dist = map(float, line.split(",")[1:])
        assert 0.0 <= search + dist <= total


def test_sphere_timings_give_each_cell_its_newton_seconds_and_the_scan_one_row(tmp_path):
    """On the sphere every degree is solved before the one verification
    scan: each cell's search_s is its own Newton solve, and the scan's wall
    time is written once, as the verify_s of a `verify` row."""
    cfg = ExperimentConfig(name="s", domain_text="sphere", k_min=2, k_max=4, mesh=2000, out_dir=str(tmp_path))
    rec = cmd_fekete(cfg)
    rec.write_timings(str(tmp_path / "t.csv"))
    lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert lines[0] == "cell,seconds,verify_s,search_s,dist_s"
    cell, seconds, verify, search, dist = lines[1].split(",")
    assert cell == "verify" and seconds == verify and float(verify) > 0.0 and search == dist == ""
    assert [line.split(",")[0] for line in lines[2:]] == ["k=2", "k=3", "k=4"]
    for line in lines[2:]:
        _, seconds, verify, search, dist = line.split(",")
        assert verify == "" and float(search) > 0.0 and 0.0 <= float(dist) <= float(seconds)


def test_sphere_newton_failure_fails_its_own_row_only(tmp_path, monkeypatch):
    """A degree whose solve raises is that degree's error row, with the
    failure as its note; the scan never sees it, and every other degree is
    still verified and passes."""
    solve, scan, scanned = fk.fekete_sphere, fk.max_lagrange, []

    def failing(spec):
        if spec.k == 3:
            raise NewtonFailure("k = 3: forced")
        return solve(spec)

    monkeypatch.setattr(fk, "fekete_sphere", failing)
    monkeypatch.setattr(fk, "max_lagrange", lambda cfgs, mesh: scanned.append(sorted(cfgs)) or scan(cfgs, mesh))
    cfg = ExperimentConfig(domain_text="sphere", k_min=2, k_max=5, mesh=2000, out_dir=str(tmp_path))
    rec = cmd_fekete(cfg)
    rows = {row["k"]: row for row in (dict(zip(rec.columns, r)) for r in rec.rows)}
    assert scanned == [[2, 4, 5]]
    assert rows[3]["status"] == "error" and rows[3]["note"] == "NewtonFailure: k = 3: forced"
    assert rows[3]["max_lagrange"] == rows[3]["pass"] == ""
    for k in (2, 4, 5):
        assert rows[k]["status"] == "ok" and rows[k]["pass"] is True
        assert 0.0 < rows[k]["max_lagrange"] <= 1.0 + fk.LAGRANGE_TOL
    assert not rec.all_pass()


def test_sphere_solves_and_scan_start_after_the_dictionary_build(tmp_path, monkeypatch):
    """perfbench ends rate-sphere's set-up when `build_dictionaries` first
    returns, so no sphere solve and no verification scan may start before
    it does."""
    from feketelab import equilibrium

    log = []

    def logged(module, name):
        fn = getattr(module, name)

        def call(*args, **kw):
            log.append(("start", name))
            out = fn(*args, **kw)
            log.append(("end", name))
            return out

        monkeypatch.setattr(module, name, call)

    for module, name in ((equilibrium, "build_dictionaries"), (fk, "fekete_sphere"), (fk, "max_lagrange")):
        logged(module, name)
    cmd_fekete(ExperimentConfig(domain_text="sphere", k_min=2, k_max=4, mesh=2000, out_dir=str(tmp_path)))
    built = log.index(("end", "build_dictionaries"))
    assert log[: built + 1] == [("start", "build_dictionaries"), ("end", "build_dictionaries")]
    assert log.count(("start", "fekete_sphere")) == 3 and log.count(("start", "max_lagrange")) == 1


def test_timings_leave_a_phase_blank_where_a_cell_did_not_reach_it(tmp_path):
    rec = RunRecord(name="x", config_hash="h", columns=["status"])
    rec.timings = [("k=2", 1.0, {"search_s": 0.5}), ("k=3", 2.0, {"search_s": 0.5, "dist_s": 1.0})]
    rec.write_timings(str(tmp_path / "t.csv"))
    lines = (tmp_path / "t.csv").read_text().splitlines()[1:]
    assert lines == ["cell,seconds,search_s,dist_s", "k=2,1.000000,0.500000,", "k=3,2.000000,0.500000,1.000000"]
    rec.timings = [("t=0.05", 0.25, {})]
    rec.write_timings(str(tmp_path / "t.csv"))
    assert (tmp_path / "t.csv").read_text().splitlines()[1:] == ["cell,seconds", "t=0.05,0.250000"]


def test_cmd_rate_from_synthetic_csv(tmp_path):
    csv = tmp_path / "fk.csv"
    lines = ["# config_hash=deadbeef", "status,k,dist1"]
    for k in range(2, 12):
        lines.append(f"ok,{k},{1.0 / k:.17g}")
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = ExperimentConfig(name="syn")
    rec = cmd_rate(cfg, fekete_csv=str(csv))
    slope = rec.rows[0][rec.columns.index("slope")]
    assert abs(slope + 1.0) < 1e-9
    assert rec.all_pass()


def test_cmd_rate_constant_sequence(tmp_path):
    csv = tmp_path / "fk.csv"
    lines = ["status,k,dist1"] + [f"ok,{k},0.25" for k in range(2, 10)]
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rec = cmd_rate(ExperimentConfig(name="c"), fekete_csv=str(csv))
    assert abs(rec.rows[0][rec.columns.index("slope")]) < 1e-12


def test_main_rate_non_decaying_input_fails(tmp_path):
    csv = tmp_path / "fk.csv"
    lines = ["status,k,dist1"] + [f"ok,{k},{0.05 * k:.17g}" for k in range(2, 10)]
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path, f"[experiment]\nname = grow\nkind = rate\n\n[output]\ndir = {out}\n", "rate.cfg"
    )
    assert main(["rate", "--config", cfg, "--input", str(csv)]) == 2
    header, row = (out / "grow_rate.csv").read_text().splitlines()[-2:]
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["slope"]) > 0.0
    assert values["bound_ok"] == "0"
    assert values["pass"] == "0"


def test_cmd_rate_insufficient_data(tmp_path):
    csv = tmp_path / "fk.csv"
    csv.write_text("status,k,dist1\nok,2,0.5\nok,3,0.4\n", encoding="utf-8")
    with pytest.raises(InputError):
        cmd_rate(ExperimentConfig(name="x"), fekete_csv=str(csv))


# --------------------------------------------------------------------- disc
def test_cmd_disc_rows_and_columns(tmp_path):
    cfg = load_config(write_cfg(tmp_path, DISC_CFG.format(out=tmp_path)))
    rec = cmd_disc(cfg)
    assert rec.all_pass()
    fam_idx = rec.columns.index("family")
    tau_idx = rec.columns.index("tau_reduction_err")
    ratio_idx = rec.columns.index("capture_ratio")
    fprime_rows = [r for r in rec.rows if r[fam_idx] == "Fprime"]
    assert fprime_rows
    assert all(float(r[tau_idx]) == 0.0 for r in fprime_rows)
    assert all(float(r[ratio_idx]) <= 2.0 for r in rec.rows if r[ratio_idx] != "")
    assert "r0" in rec.calibration and "theta0" in rec.calibration


def test_cmd_disc_takes_capture_residual_from_the_final_iterate(tmp_path, monkeypatch):
    """capture_residual keeps its bits without rebuilding the captured disc:
    each row builds its own disc plus one per capture step, no more."""
    from feketelab import discs
    from feketelab.circle import CircleGrid

    cfg = load_config(write_cfg(tmp_path, DISC_CFG.format(out=tmp_path).replace("samples = 4", "samples = 3")))
    discs.calibrate(CircleGrid(cfg.grid_m), cfg.disc_n)
    family = {"F": discs.family_F, "Fprime": discs.family_Fprime}
    built, steps, captured = [], [], []
    for name, real in (("family_F", discs.family_F), ("family_Fprime", discs.family_Fprime)):
        monkeypatch.setattr(discs, name, lambda p, g, real=real: built.append(1) or real(p, g))
    real_contract = discs._contract

    def contract(step, x, tol):
        out = real_contract(step, x, tol)
        steps.append(out[2])
        return out

    def recorded(real, prime):
        def capture(z_target, t, grid):
            ps, value = real(z_target, t, grid)
            captured.append((z_target, t, grid, prime, ps))
            return ps, value

        return capture

    monkeypatch.setattr(discs, "_contract", contract)
    monkeypatch.setattr(discs, "capture_F", recorded(discs.capture_F, False))
    monkeypatch.setattr(discs, "capture_Fprime", recorded(discs.capture_Fprime, True))
    rec = cmd_disc(cfg)
    assert rec.all_pass() and len(rec.rows) == len(captured) == len(steps) == 6
    assert len(built) == len(rec.rows) + sum(steps)  # the parent rebuilt each captured disc: + 6
    res_idx = rec.columns.index("capture_residual")
    for row, (target, t, grid, prime, ps) in zip(rec.rows, captured):
        s = ps.norm
        if prime:
            value = family["Fprime"](ps, grid).eval(1 - np.sqrt(s))
        else:
            value = family["F"](ps, grid).eval(1 - s + 1j * s)
        assert row[res_idx].hex() == float(np.max(np.abs(value - t * target))).hex()


# ------------------------------------------------------------------- bishop
def test_cmd_bishop_h_zero_rows(tmp_path):
    cfg = load_config(
        write_cfg(tmp_path, BISHOP_CFG.format(out=tmp_path, h="zero", t="0.05"))
    )
    rec = cmd_bishop(cfg)
    assert rec.all_pass()
    it_idx = rec.columns.index("iters")
    assert all(r[it_idx] == 2 for r in rec.rows)


def test_cmd_bishop_ratio_budget_column(tmp_path):
    cfg = load_config(
        write_cfg(tmp_path, BISHOP_CFG.format(out=tmp_path, h="quad:0.5", t="0.05"))
    )
    rec = cmd_bishop(cfg)
    assert rec.all_pass()
    gm_idx = rec.columns.index("gm_ratio")
    bud_idx = rec.columns.index("ratio_budget")
    for r in rec.rows:
        assert r[gm_idx] <= r[bud_idx]
    assert "t_threshold" in rec.calibration


def test_cmd_bishop_crash_isolation(tmp_path):
    """Cells above the contraction threshold become error rows, not crashes."""
    cfg = load_config(
        write_cfg(tmp_path, BISHOP_CFG.format(out=tmp_path, h="quad:1.0", t="0.9"))
    )
    rec = cmd_bishop(cfg)
    st_idx = rec.columns.index("status")
    assert any(r[st_idx] == "error" for r in rec.rows)
    assert len(rec.rows) == 3  # the batch continued through every cell
    assert not rec.all_pass()



def _thresholds(regular, singular):
    return lambda key, grid, is_singular=False: singular if is_singular else regular


def _csv_column(path, name):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    idx = lines[0].split(",").index(name)
    return [l.split(",")[idx] for l in lines[1:]]


def test_cmd_bishop_solves_each_cell_once(tmp_path, monkeypatch):
    """Phi^h comes from the cell's own disc, not from a second solve."""
    monkeypatch.setattr(bsh, "calibrate_t_threshold", _thresholds(1.0, 0.0))
    calls = []
    solve = bsh.solve_bishop

    def counted(*args, **kw):
        calls.append(args[1])
        return solve(*args, **kw)

    monkeypatch.setattr(bsh, "solve_bishop", counted)
    cfg = load_config(
        write_cfg(tmp_path, BISHOP_CFG.format(out=tmp_path, h="quad:0.5", t="0.05"))
    )
    rec = cmd_bishop(cfg)
    assert rec.all_pass()
    assert len(rec.rows) == 3 and len(calls) == 3


def test_cmd_bishop_tau_failure_inside_its_regime_fails_the_row(tmp_path, monkeypatch):
    monkeypatch.setattr(bsh, "calibrate_t_threshold", _thresholds(1.0, 0.05))

    def fail(*args, **kw):
        raise ContractionFailure("forced")

    monkeypatch.setattr(bsh, "solve_tau", fail)
    path = write_cfg(tmp_path, BISHOP_CFG.format(out=tmp_path, h="quad:0.5", t="0.05"))
    assert main(["bishop", "--config", path]) == 2
    csv_path = tmp_path / "t-bishop_bishop.csv"
    assert _csv_column(csv_path, "status") == ["ok"] * 3
    assert _csv_column(csv_path, "pass") == ["0"] * 3
    assert _csv_column(csv_path, "tau_residual") == [""] * 3


def test_cmd_bishop_skips_tau_above_the_singular_threshold(tmp_path, monkeypatch):
    monkeypatch.setattr(bsh, "calibrate_t_threshold", _thresholds(1.0, 0.04))
    calls = []
    monkeypatch.setattr(bsh, "solve_tau", lambda *args, **kw: calls.append(args))
    path = write_cfg(tmp_path, BISHOP_CFG.format(out=tmp_path, h="quad:0.5", t="0.05"))
    assert main(["bishop", "--config", path]) == 0
    assert calls == []
    text = (tmp_path / "t-bishop_bishop.csv").read_text()
    assert "# calibration.t_threshold_singular=0.040000000000000001\n" in text
    assert "nan" not in text.lower()
    assert _csv_column(tmp_path / "t-bishop_bishop.csv", "tau_norm_over_t") == [""] * 3


def test_all_pass_sees_error_rows_in_any_column():
    rec = RunRecord(name="r", config_hash="h", columns=["k", "status", "pass"])
    rec.add(k=1, status="ok", **{"pass": True})
    assert rec.all_pass()
    rec.add(k=2, status="error", **{"pass": True})
    assert not rec.all_pass()
    no_pass = RunRecord(name="r", config_hash="h", columns=["k", "status"])
    no_pass.add(k=1, status="error")
    assert not no_pass.all_pass()


@pytest.mark.parametrize(
    "domain, gammas, message",
    [
        pytest.param("sphere", "1.5", "gamma <= 1", id="sphere-1.5"),
        pytest.param("sphere", "0.0", "gamma > 0", id="sphere-0"),
        pytest.param("interval", "3.0", "gamma <= 1", id="interval-3"),
        pytest.param("circle", "1.0,2.5", "gamma <= 1", id="circle-2.5"),
        pytest.param("interval", "0.5,1.5", "gamma <= 1", id="interval-1.5"),
        pytest.param("circle", "2.0", "gamma <= 1", id="circle-2"),
        pytest.param("interval", "-1.0", "gamma > 0", id="interval-neg"),
    ],
)
def test_main_rejects_sphere_gamma_above_one(tmp_path, capsys, domain, gammas, message):
    """Gammas without a certified dictionary norm fail the run before any cell."""
    cfg = write_cfg(
        tmp_path,
        f"[experiment]\nname = s\nkind = fekete\n\n[fekete]\ndomain = {domain}\n"
        f"k_min = 2\nk_max = 3\nmesh = 2000\nsweeps = 1\ngammas = {gammas}\n\n[output]\ndir = {tmp_path}\n",
    )
    assert main(["fekete", "--config", cfg]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s_fekete.csv").exists()


def test_cmd_fekete_pairs_sphere_cells_once_with_gamma_one(tmp_path, monkeypatch):
    """Without an exact dist_1, the dist1 column reuses the gamma = 1 distance."""
    from feketelab import equilibrium

    calls = []
    dist = equilibrium.dist_gamma_dict

    def counted(*args):
        calls.append(args[2].gammas)
        return dist(*args)

    monkeypatch.setattr(equilibrium, "dist_gamma_dict", counted)
    cfg = ExperimentConfig(domain_text="sphere", k_min=2, k_max=3, mesh=2000, sweeps=1, out_dir=str(tmp_path))
    rec = cmd_fekete(cfg)
    assert calls == [(1.0,), (1.0,)]  # one per cell
    d1, g1 = rec.columns.index("dist1"), rec.columns.index("dist_g1")
    assert all(r[d1] == r[g1] for r in rec.rows)


@pytest.mark.parametrize("domain", ["interval", "circle", "arc:-1.0,1.0"], ids=["interval", "circle", "arc"])
def test_cmd_fekete_writes_two_sided_bounds_on_the_1d_domains(tmp_path, monkeypatch, domain):
    """The 1-D domains build no dictionary: every gamma gets a lo / hi pair
    from one `dist_gamma_bounds` call per cell, with lo <= hi."""
    from feketelab import equilibrium

    calls = []
    bounds = equilibrium.dist_gamma_bounds
    monkeypatch.setattr(equilibrium, "build_dictionaries", lambda *args: pytest.fail("dictionary built"))
    monkeypatch.setattr(equilibrium, "dist_gamma_bounds", lambda *args: calls.append(args[2]) or bounds(*args))
    cfg = ExperimentConfig(
        domain_text=domain, k_min=2, k_max=4, mesh=1000, sweeps=1, gammas=(0.5, 1.0), out_dir=str(tmp_path)
    )
    rec = cmd_fekete(cfg)
    assert rec.all_pass() and calls == [(0.5, 1.0)] * len(rec.rows)
    for g in ("0.5", "1"):
        lo, hi = rec.columns.index(f"dist_g{g}_lo"), rec.columns.index(f"dist_g{g}_hi")
        assert all(0.0 <= r[lo] <= r[hi] for r in rec.rows)
    assert "dist_g1" not in rec.columns


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_cmd_fekete_dist1_stays_uncapped_from_k_zero(tmp_path, domain):
    """dist1 is the uncapped W1.  It equals dist_g1_hi bit for bit except
    where a coupled distance passes the cap 1 and the capped cost is lower:
    the circle at k = 0 and 1, and the interval at k = 0, whose one atom
    sits at an end.  Circle Fekete points are equispaced, so there
    W1 = pi / (2 (2k + 1))."""
    cfg = ExperimentConfig(domain_text=domain, k_min=0, k_max=6, gammas=(1.0,), out_dir=str(tmp_path))
    rec = cmd_fekete(cfg)
    k, d1, hi = (rec.columns.index(c) for c in ("k", "dist1", "dist_g1_hi"))
    capped = {r[k]: (r[hi], r[d1]) for r in rec.rows if r[hi] < r[d1]}
    assert all(r[hi] == r[d1] for r in rec.rows if r[k] not in capped)
    if domain == "circle":
        assert capped.keys() == {0, 1}
        assert np.allclose(capped[0], (0.8408, 1.5708), atol=1e-4) and capped[1][0] < 0.5226 < capped[1][1]
        assert all(r[d1] == pytest.approx(math.pi / (2 * (2 * r[k] + 1)), rel=1e-14) for r in rec.rows)
    else:
        assert capped.keys() == {0} and np.allclose(capped[0], (0.6817, 1.0), atol=1e-4)


def test_cmd_fekete_arc_dist1_uses_the_circle_metric(tmp_path):
    """On an arc longer than pi every dist1 is at most pi, the diameter of
    the circle; at k = 0 it is the mean circle distance from the one atom
    to the reference atoms (the k_max configuration)."""
    arc = parse_domain("arc:-3.0,3.0")
    cfg = ExperimentConfig(domain_text="arc:-3.0,3.0", k_min=0, k_max=4, gammas=(1.0,), out_dir=str(tmp_path))
    rec = cmd_fekete(cfg)
    k, d1 = rec.columns.index("k"), rec.columns.index("dist1")
    assert len(rec.rows) == 5 and all(0.0 <= r[d1] <= math.pi for r in rec.rows)
    atom = fk.fekete_measure(fk.fekete_1d(BasisSpec(arc, 0))[0]).atoms
    ref = fk.fekete_measure(fk.fekete_1d(BasisSpec(arc, 4))[0]).atoms
    gap = np.mod(np.abs(atom - ref), 2 * math.pi)
    k0 = next(r[d1] for r in rec.rows if r[k] == 0)
    assert k0 == pytest.approx(np.mean(np.minimum(gap, 2 * math.pi - gap)), rel=1e-14)


# --------------------------------------------------------------- plot files
def test_emit_plotdata_deterministic(tmp_path):
    rec = RunRecord(
        name="p",
        config_hash="cafe",
        columns=["status", "k", "dist1"],
        rows=[["ok", 2, 0.5], ["ok", 3, 0.33], ["ok", 4, 0.25]],
    )
    out1 = emit_plotdata(rec, str(tmp_path / "one"))
    out2 = emit_plotdata(rec, str(tmp_path / "two"))
    with open(out1[0], "rb") as fa, open(out2[0], "rb") as fb:
        assert fa.read() == fb.read()
    dat = open(out1[0]).read()
    assert dat.startswith("# config_hash=cafe")
    svgs = [p for p in out1 if p.endswith(".svg")]
    assert svgs and open(svgs[0]).read().startswith("<svg")


def test_plot_of_a_record_without_rate_columns_fails(tmp_path, capsys):
    """A disc CSV has no (k, dist1) points: `plot` exits 1 with a named
    error and creates no output directory."""
    path = os.path.join(os.path.dirname(__file__), "data", "disc_disc.csv")
    with pytest.raises(InputError, match="k and dist1"):
        emit_plotdata(_record_from_csv(path), str(tmp_path / "direct"))
    assert main(["plot", "--record", path, "--out", str(tmp_path / "o")]) == 1
    assert "k and dist1" in capsys.readouterr().err
    assert not (tmp_path / "direct").exists() and not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["rate", "--config", "x.cfg"], id="rate-without-input"),
        pytest.param(["plot", "--record", "p.csv", "--kind", "rate"], id="plot-kind"),
        pytest.param(["plot", "--record", "p.csv", "--config", "x"], id="plot-config"),
        pytest.param(["plot", "--record", "p.csv", "--seed", "1"], id="plot-seed"),
    ],
)
def test_main_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_main_fekete_ignores_a_kind_line(tmp_path):
    """The subcommand decides the experiment; a config that still carries
    `[experiment] kind` loads and runs under any subcommand."""
    cfg = write_cfg(tmp_path, FEKETE_CFG.replace("kind = fekete", "kind = rate").format(out=tmp_path))
    assert main(["fekete", "--config", cfg]) == 0
    assert (tmp_path / "t-interval_fekete.csv").exists()


def test_main_fekete_single_self_consistent_degree_exits_0(tmp_path):
    """With k_min = k_max on an arc the only row is the self-consistency
    reference itself, so dist1 = 0 and no point survives the log-log
    filter: the .dat is written, the .svg left out."""
    out = tmp_path / "o"
    cfg = write_cfg(
        tmp_path,
        "[experiment]\nname = arc4\nkind = fekete\n\n[fekete]\ndomain = arc:-1.0,1.0\n"
        f"k_min = 4\nk_max = 4\nmesh = 2048\nsweeps = 2\n\n[output]\ndir = {out}\n",
    )
    assert main(["fekete", "--config", cfg]) == 0
    assert (out / "arc4_rate.dat").read_text().splitlines()[2:] == ["4 0"]
    assert not (out / "arc4_rate.svg").exists()


def test_main_fekete_on_an_arc_past_the_old_rank_limit_exits_0(tmp_path):
    """On arc:-1.0,1.5 the trig basis of degree 11 and up loses numerical
    rank on the arc's mesh, which stopped the mesh search; the exact solver
    takes its logdet from the product formula, so every degree to 20 has a
    finite logdet and a passing row."""
    cfg = write_cfg(
        tmp_path,
        "[experiment]\nname = arc20\n\n[fekete]\ndomain = arc:-1.0,1.5\n"
        f"k_min = 2\nk_max = 20\nmesh = 2048\nsweeps = 1\n\n[output]\ndir = {tmp_path}\n",
    )
    assert main(["fekete", "--config", cfg]) == 0
    rec = _record_from_csv(str(tmp_path / "arc20_fekete.csv"))
    rows = [dict(zip(rec.columns, row)) for row in rec.rows]
    assert [int(r["k"]) for r in rows] == list(range(2, 21))
    assert all(r["status"] == "ok" and r["pass"] == "1" for r in rows)
    assert all(math.isfinite(float(r["logdet"])) for r in rows)
    assert [int(r["n_k"]) for r in rows] == [2 * k + 1 for k in range(2, 21)]


def test_main_plot_without_status_column(tmp_path):
    """A CSV without a status column counts every row as ok, in `plot` as
    in `rate --input`."""
    csv = tmp_path / "bare_fekete.csv"
    csv.write_text("k,dist1\n" + "".join(f"{k},{1.0 / k:.17g}\n" for k in range(2, 8)), encoding="utf-8")
    assert main(["plot", "--record", str(csv)]) == 0
    dat = (tmp_path / "bare_fekete_rate.dat").read_text().splitlines()
    assert dat[2:] == [f"{k} {1.0 / k:.17g}" for k in range(2, 8)]
    assert (tmp_path / "bare_fekete_rate.svg").exists()
    cfg = write_cfg(tmp_path, f"[experiment]\nname = bare\nkind = rate\n\n[output]\ndir = {tmp_path}\n")
    assert main(["rate", "--config", cfg, "--input", str(csv)]) == 0


def test_main_plot_skips_unparsable_dist1(tmp_path):
    csv = tmp_path / "bad_fekete.csv"
    csv.write_text("status,k,dist1\nok,2,0.5\nok,3,n/a\nerror,4,\nok,5,0.2\n", encoding="utf-8")
    assert main(["plot", "--record", str(csv)]) == 0
    assert (tmp_path / "bad_fekete_rate.dat").read_text().splitlines()[2:] == ["2 0.5", "5 0.20000000000000001"]


def test_main_rate_reads_crlf_input(tmp_path):
    lines = ["# config_hash=deadbeef", "status,k,dist1"] + [f"ok,{k},{1.0 / k:.17g}" for k in range(2, 12)]
    fits = []
    for tag, end in (("lf", "\n"), ("crlf", "\r\n")):
        csv = tmp_path / f"{tag}.csv"
        csv.write_bytes(end.join(lines).encode() + end.encode())
        out = tmp_path / tag
        cfg = write_cfg(tmp_path, f"[experiment]\nname = r\nkind = rate\n\n[output]\ndir = {out}\n", f"{tag}.cfg")
        assert main(["rate", "--config", cfg, "--input", str(csv)]) == 0
        fits.append((out / "r_rate.csv").read_text().splitlines()[-1])
    assert fits[0] == fits[1]


# Frozen copies of the CSV reader of `rate --input` and of the reader and
# writer of `plot` from before the two commands shared _record_from_csv and
# _rate_points; on every golden fekete CSV the shared path must give the
# same fit and the same plot bytes.
def _frozen_read_rate_input(path):
    data = []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                continue
            row = dict(zip(header, parts))
            if row.get("status", "ok") != "ok":
                continue
            try:
                data.append((int(row["k"]), float(row["dist1"])))
            except (KeyError, ValueError):
                continue
    return data


def _frozen_plot(path, out_dir):
    rows, columns, config_hash = [], None, "unknown"
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config_hash="):
                config_hash = line.split("=", 1)[1]
                continue
            if line.startswith("#") or not line:
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    name = os.path.basename(path).rsplit(".", 1)[0]
    os.makedirs(out_dir, exist_ok=True)
    xi, yi, si = columns.index("k"), columns.index("dist1"), columns.index("status")
    pts = [(float(r[xi]), float(r[yi])) for r in rows if r[si] == "ok" and r[yi] != ""]
    dat = os.path.join(out_dir, f"{name}_rate.dat")
    with open(dat, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={config_hash}\n# columns: k dist1\n")
        for x, y in pts:
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")
    pts = [(math.log10(x), math.log10(y)) for x, y in pts if x > 0 and y > 0]
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    w, h, pad = 640, 480, 50
    sx = lambda x: pad + (w - 2 * pad) * (x - x0) / max(x1 - x0, 1e-300)
    sy = lambda y: h - pad - (h - 2 * pad) * (y - y0) / max(y1 - y0, 1e-300)
    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    with open(dat[:-4] + ".svg", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
            f'<rect width="{w}" height="{h}" fill="white"/>'
            f'<text x="{pad}" y="25" font-size="14">{name}: dist1 vs k</text>'
            f'<polyline points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        for x, y in pts:
            fh.write(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
        fh.write("</svg>")


GOLDEN_FEKETE = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data", "*_fekete.csv")))


@pytest.mark.parametrize("path", GOLDEN_FEKETE, ids=os.path.basename)
def test_shared_reader_matches_frozen_rate_and_plot(path, tmp_path):
    assert len(GOLDEN_FEKETE) == 5
    def frozen_fit():
        data = _frozen_read_rate_input(path)
        if len(data) < 5:
            raise InputError("rate fit needs at least 5 data points")
        fit = rate_fit([k for k, _ in data], [d for _, d in data])
        return [len(data), fit.slope, fit.intercept, fit.exponent, fit.bound_ok, fit.c_min, fit.bound_ok]

    def shared_fit():
        return cmd_rate(ExperimentConfig(name="g"), fekete_csv=path).rows[0]

    def outcome(fn):
        try:
            return repr(fn())
        except InputError as exc:
            return f"InputError: {exc}"

    assert outcome(shared_fit) == outcome(frozen_fit)
    assert main(["plot", "--record", path, "--out", str(tmp_path / "new")]) == 0
    _frozen_plot(path, str(tmp_path / "old"))
    for suffix in ("_rate.dat", "_rate.svg"):
        name = os.path.basename(path)[:-4] + suffix
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


def test_cmd_fekete_arc_uses_self_consistency(tmp_path):
    """Arcs have no closed-form reference: fall back to the k_max measure."""
    cfg = ExperimentConfig(
        name="arc",
        domain_text="arc:-1.0,1.0",
        k_min=2,
        k_max=6,
        mesh=2048,
        sweeps=2,
        gammas=(),
        out_dir=str(tmp_path),
    )
    rec = cmd_fekete(cfg)
    assert rec.all_pass()
    assert rec.calibration["reference"].startswith("fekete-self-consistency")
    d_idx = rec.columns.index("dist1")
    k_idx = rec.columns.index("k")
    dists = {r[k_idx]: r[d_idx] for r in rec.rows}
    assert dists[6] < dists[2]  # converging toward the k_max configuration


# --------------------------------------------------------------- exit codes
def test_main_exit_codes(tmp_path):
    ok_cfg = write_cfg(tmp_path, FEKETE_CFG.format(out=tmp_path / "o1"), "ok.cfg")
    assert main(["fekete", "--config", ok_cfg]) == 0
    csv_path = tmp_path / "o1" / "t-interval_fekete.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("# config_hash=")

    bad_cfg = write_cfg(
        tmp_path, BISHOP_CFG.format(out=tmp_path / "o2", h="quad:1.0", t="0.9"), "bad.cfg"
    )
    assert main(["bishop", "--config", bad_cfg]) == 2

    assert main(["rate", "--config", ok_cfg, "--input", str(tmp_path / "missing.csv")]) == 1


def test_main_seed_override_changes_hash(tmp_path):
    cfg_path = write_cfg(tmp_path, DISC_CFG.format(out=tmp_path / "s1"))
    assert main(["disc", "--config", cfg_path, "--seed", "99", "--out", str(tmp_path / "s1")]) == 0
    assert main(["disc", "--config", cfg_path, "--seed", "100", "--out", str(tmp_path / "s2")]) == 0
    h1 = (tmp_path / "s1" / "t-disc_disc.csv").read_text().splitlines()[0]
    h2 = (tmp_path / "s2" / "t-disc_disc.csv").read_text().splitlines()[0]
    assert h1 != h2


def test_commands_import_no_scipy(tmp_path):
    """numpy is the only runtime dependency: a sphere `fekete` and a
    `bishop` command, in a fresh interpreter, leave no scipy module loaded
    (scipy may be installed, as test-only tooling)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = textwrap.dedent(
        f"""
        import sys
        sys.path.insert(0, {src!r})
        from feketelab.cli import cmd_bishop, cmd_fekete
        from feketelab.config import ExperimentConfig

        cmd_fekete(ExperimentConfig(domain_text="sphere", k_min=2, k_max=2, mesh=400, sweeps=1))
        cmd_bishop(ExperimentConfig(grid_m=128, t_list=(0.05,), samples=1))
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
