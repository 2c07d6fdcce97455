"""Experiment CLI: config parsing, determinism, crash isolation, exit codes."""

import os
from itertools import combinations

import numpy as np
import pytest

from feketelab import bishop as bsh
from feketelab.cli import (
    RunRecord,
    cmd_bishop,
    cmd_disc,
    cmd_fekete,
    cmd_rate,
    emit_plotdata,
    main,
)
from feketelab.config import ExperimentConfig, load_config, parse_domain
from feketelab.errors import ConfigError, ContractionFailure, InputError
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
def test_cmd_rate_from_synthetic_csv(tmp_path):
    csv = tmp_path / "fk.csv"
    lines = ["# config_hash=deadbeef", "status,k,dist1"]
    for k in range(2, 12):
        lines.append(f"ok,{k},{1.0 / k:.17g}")
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = ExperimentConfig(name="syn", kind="rate")
    rec = cmd_rate(cfg, fekete_csv=str(csv))
    slope = rec.rows[0][rec.columns.index("slope")]
    assert abs(slope + 1.0) < 1e-9
    assert rec.all_pass()


def test_cmd_rate_constant_sequence(tmp_path):
    csv = tmp_path / "fk.csv"
    lines = ["status,k,dist1"] + [f"ok,{k},0.25" for k in range(2, 10)]
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rec = cmd_rate(ExperimentConfig(name="c", kind="rate"), fekete_csv=str(csv))
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
        cmd_rate(ExperimentConfig(name="x", kind="rate"), fekete_csv=str(csv))


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

    real_capture = discs._capture_family

    def capture(z_target, t, grid, prime):
        ps, value = real_capture(z_target, t, grid, prime)
        captured.append((z_target, t, grid, prime, ps))
        return ps, value

    monkeypatch.setattr(discs, "_contract", contract)
    monkeypatch.setattr(discs, "_capture_family", capture)
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
        pytest.param("interval", "3.0", "gamma <= 2", id="interval-3"),
        pytest.param("circle", "1.0,2.5", "gamma <= 2", id="circle-2.5"),
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
        calls.append(args[2])
        return dist(*args)

    monkeypatch.setattr(equilibrium, "dist_gamma_dict", counted)
    cfg = ExperimentConfig(domain_text="sphere", k_min=2, k_max=3, mesh=2000, sweeps=1, out_dir=str(tmp_path))
    rec = cmd_fekete(cfg)
    assert calls == [1.0, 1.0]  # one per cell
    d1, g1 = rec.columns.index("dist1"), rec.columns.index("dist_g1")
    assert all(r[d1] == r[g1] for r in rec.rows)


# --------------------------------------------------------------- plot files
def test_emit_plotdata_deterministic(tmp_path):
    rec = RunRecord(
        name="p",
        config_hash="cafe",
        columns=["status", "k", "dist1"],
        rows=[["ok", 2, 0.5], ["ok", 3, 0.33], ["ok", 4, 0.25]],
    )
    out1 = emit_plotdata(rec, "rate", str(tmp_path / "one"))
    out2 = emit_plotdata(rec, "rate", str(tmp_path / "two"))
    with open(out1[0], "rb") as fa, open(out2[0], "rb") as fb:
        assert fa.read() == fb.read()
    dat = open(out1[0]).read()
    assert dat.startswith("# config_hash=cafe")
    svgs = [p for p in out1 if p.endswith(".svg")]
    assert svgs and open(svgs[0]).read().startswith("<svg")


def test_emit_plotdata_unknown_kind(tmp_path):
    rec = RunRecord(name="p", config_hash="x", columns=["k"], rows=[])
    with pytest.raises(InputError):
        emit_plotdata(rec, "pie-chart", str(tmp_path))


def test_emit_disc_trace_file(tmp_path):
    from feketelab.circle import CircleGrid
    from feketelab.discs import FamilyParams, family_F

    grid = CircleGrid(1024)
    disc = family_F(FamilyParams(z_re=(0.2,), z_im=(0.1,), t=0.1), grid)
    rec = RunRecord(name="tr", config_hash="beef", columns=[], rows=[])
    out = emit_plotdata(rec, "trace", str(tmp_path), disc=disc)
    lines = open(out[0]).read().splitlines()
    assert lines[0] == "# config_hash=beef"
    assert lines[1] == "theta,re0,im0"
    assert len(lines) == 2 + grid.m  # header comment + column row + M rows
    out2 = emit_plotdata(rec, "trace", str(tmp_path / "again"), disc=disc)
    assert open(out[0]).read() == open(out2[0]).read()


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
