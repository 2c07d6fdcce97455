"""Experiment orchestration and the `feketelab` command line.

Subcommands: fekete (per-degree configuration study), rate (log-log fit
and one-sided bound verdict), disc (family diagnostics), bishop (solver
diagnostics), plot (per-plot data files from a finished CSV).  Outputs are
deterministic for a fixed config and seed; wall-clock timings go to a
sidecar file outside that contract.  Every CSV carries the config hash and
the calibration constants used, so reported inequalities stand alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import bishop as bsh
from . import discs
from . import equilibrium as eq
from . import fekete as fk
from .circle import CircleGrid
from .config import ExperimentConfig, load_config
from .errors import FeketelabError, ConfigError, InputError
from .rng import Rng


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


@dataclass
class RunRecord:
    """One command's results: header metadata plus ordered data rows."""

    name: str
    config_hash: str
    columns: list
    rows: list = field(default_factory=list)
    calibration: dict = field(default_factory=dict)
    timings: list = field(default_factory=list)

    def add(self, **kw):
        self.rows.append([kw.get(c, "") for c in self.columns])

    def all_pass(self) -> bool:
        if self.has_errors():
            return False
        if "pass" not in self.columns:
            return True
        idx = self.columns.index("pass")
        return all(row[idx] not in (False, 0, "0") for row in self.rows)

    def has_errors(self) -> bool:
        if "status" not in self.columns:
            return False
        idx = self.columns.index("status")
        return any(row[idx] == "error" for row in self.rows)

    def write_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# config_hash={self.config_hash}\n")
            fh.write(f"# experiment={self.name}\n")
            for key in sorted(self.calibration):
                fh.write(f"# calibration.{key}={_fmt(self.calibration[key])}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def write_timings(self, path: str):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# config_hash={self.config_hash} (timings, not covered by the determinism contract)\n")
            fh.write("cell,seconds\n")
            for cell, sec in self.timings:
                fh.write(f"{cell},{sec:.6f}\n")


def _run_cells(rec: RunRecord, cells):
    """Run (label, key, fn) cells in order, isolating crashes per cell.

    A cell adds an `ok` row from the columns `fn()` returns, or, when fn
    raises a FeketelabError, an `error` row of its key columns plus the
    error as note; either way its wall time goes to the timings under
    `label`.
    """
    for label, key, fn in cells:
        t0 = time.perf_counter()
        try:
            rec.add(status="ok", **fn(), note="")
        except FeketelabError as exc:
            rec.add(status="error", **key, note=f"{type(exc).__name__}: {exc}")
        rec.timings.append((label, time.perf_counter() - t0))


def _weight_of(cfg: ExperimentConfig) -> fk.Weight:
    if cfg.weight == "zero":
        return fk.zero_weight()
    if cfg.weight.startswith("linear:"):
        a = float(cfg.weight.split(":")[1])
        return fk.Weight(
            phi=lambda pts: a * np.atleast_1d(np.asarray(pts, float)).reshape(len(np.atleast_1d(pts)), -1)[:, 0],
            alpha=1.0,
            name=cfg.weight,
        )
    raise ConfigError(f"unknown weight {cfg.weight!r}")


def _fekete_config(spec, weight, mesh, sweeps: int) -> fk.PointConfiguration:
    """Greedy then exchange; the search state is freed when this returns."""
    config, state = fk.leja_greedy(spec, weight, mesh)
    return fk.exchange_refine(config, spec, weight, mesh, sweeps, state)


def _reference_for(cfg: ExperimentConfig, weight, mesh):
    domain = cfg.domain
    try:
        return eq.equilibrium_reference(domain), "closed-form"
    except FeketelabError:
        # arcs/caps: self-consistency against the largest-degree measure
        config = _fekete_config(fk.BasisSpec(domain, cfg.k_max), weight, mesh, cfg.sweeps)
        return fk.fekete_measure(config), f"fekete-self-consistency(k={cfg.k_max})"


def _dist_to_reference(domain, mu, reference, dictionaries):
    """dist_1 plus the configured dictionary distances; returns dict.

    Where dist_1 has no exact formula (sphere, caps) it is the gamma = 1
    dictionary distance, computed once for both columns.
    """
    out = {f"dist_g{g:g}": eq.dist_gamma_dict(mu, reference, g, d) for g, d in dictionaries.items()}
    exact = isinstance(reference, eq.ReferenceMeasure)
    if exact and isinstance(domain, fk.Interval):
        out["dist1"] = eq.dist1_interval(mu, reference)
    elif exact and isinstance(domain, fk.Circle):
        out["dist1"] = eq.dist1_circle(mu, reference)
    elif not exact and isinstance(fk.ambient_of(domain), (fk.Interval, fk.Circle)):
        out["dist1"] = eq.w1_atomic_line(mu.atoms, reference.atoms)
    else:
        out["dist1"] = out["dist_g1"]
    return out


def cmd_fekete(cfg: ExperimentConfig) -> RunRecord:
    domain = cfg.domain
    weight = _weight_of(cfg)
    mesh = domain.mesh(cfg.mesh) if cfg.mesh else domain.mesh()
    reference, ref_name = _reference_for(cfg, weight, mesh)
    gammas = tuple(g for g in cfg.gammas)
    dictionaries = (
        eq.build_dictionaries(domain, gammas + (1.0,)) if gammas else {1.0: eq.build_dictionary(domain, 1.0)}
    )
    rec = RunRecord(
        name=cfg.name,
        config_hash=cfg.config_hash(),
        columns=["status", "k", "n_k", "logdet", "dist1", *(f"dist_g{g:g}" for g in dictionaries), "pass", "note"],
        calibration={"reference": ref_name, "mesh": len(mesh), "sweeps": cfg.sweeps},
    )

    def run_cell(k: int):
        config = _fekete_config(fk.BasisSpec(domain, k), weight, mesh, cfg.sweeps)
        dists = _dist_to_reference(domain, fk.fekete_measure(config), reference, dictionaries)
        return {"k": k, "n_k": config.size, "logdet": config.logdet, **dists, "pass": np.isfinite(config.logdet)}

    _run_cells(rec, [(f"k={k}", {"k": k}, partial(run_cell, k)) for k in cfg.ks])
    return rec


def cmd_rate(cfg: ExperimentConfig, fekete_csv: str | None = None) -> RunRecord:
    if fekete_csv is None:
        fek = cmd_fekete(cfg)
        idx_k = fek.columns.index("k")
        idx_d = fek.columns.index("dist1")
        idx_s = fek.columns.index("status")
        data = [
            (int(r[idx_k]), float(r[idx_d]))
            for r in fek.rows
            if r[idx_s] == "ok" and r[idx_d] != ""
        ]
    else:
        data = _read_rate_input(fekete_csv)
    if len(data) < 5:
        raise InputError("rate fit needs at least 5 data points")
    ks = [k for k, _ in data]
    ds = [d for _, d in data]
    fit = eq.rate_fit(ks, ds)
    rec = RunRecord(
        name=cfg.name,
        config_hash=cfg.config_hash(),
        columns=[
            "n_points",
            "slope",
            "intercept",
            "bound_exponent",
            "bound_ok",
            "c_min",
            "pass",
        ],
    )
    rec.add(
        n_points=len(ks),
        slope=fit.slope,
        intercept=fit.intercept,
        bound_exponent=fit.exponent,
        bound_ok=fit.bound_ok,
        c_min=fit.c_min,
        **{"pass": fit.bound_ok},
    )
    return rec


def _read_rate_input(path: str):
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


def _sample_targets(rng: Rng, n: int, radius: float, count: int):
    out = []
    for _ in range(count):
        v = np.asarray(rng.sphere(2 * n))
        r = radius * (0.1 + 0.85 * rng.uniform())
        out.append(r * (v[:n] + 1j * v[n:]))
    return out


def cmd_disc(cfg: ExperimentConfig) -> RunRecord:
    grid = CircleGrid(cfg.grid_m)
    n = cfg.disc_n
    cal = discs.calibrate(grid, n)
    rng = Rng(cfg.seed)
    rec = RunRecord(
        name=cfg.name,
        config_hash=cfg.config_hash(),
        columns=[
            "status",
            "family",
            "t",
            "z_norm",
            "holo_residual",
            "attach_residual",
            "value_at_one_err",
            "capture_residual",
            "capture_ratio",
            "tau_reduction_err",
            "pass",
            "note",
        ],
        calibration=cal.as_dict(),
    )
    wedge = np.abs(grid.nodes) <= cal.theta0 + 1e-15
    front = np.abs(grid.nodes) <= math.pi / 2.0 + 1e-12

    def cell_F(t, z):
        p = discs.FamilyParams.from_complex(z, t)
        disc = discs.family_F(p, grid)
        holo = disc.negative_energy_ratio()
        attach = float(np.max(np.abs(disc.traces.imag[:, front])))
        expect = t * (np.asarray(p.z_re) - np.asarray(p.z_im))
        v_err = float(np.max(np.abs(disc.boundary_value_at_one() - expect)))
        target = z * (cal.r0 * 0.8 / max(p.norm, 1e-12))
        ps, value = discs._capture_family(target, t, grid, prime=False)
        s = ps.norm
        cap_res = float(np.max(np.abs(value - t * target)))
        ratio = s / float(np.linalg.norm(np.concatenate([target.real, target.imag])))
        ok = holo <= 1e-10 and attach <= 1e-10 and v_err <= 1e-12 and cap_res <= 1e-8 and ratio <= 2.0
        return {
            "family": "F", "t": t, "z_norm": p.norm, "holo_residual": holo, "attach_residual": attach,
            "value_at_one_err": v_err, "capture_residual": cap_res, "capture_ratio": ratio,
            "tau_reduction_err": "", "pass": ok,
        }

    def cell_Fprime(t, z):
        z = z * min(1.0, 0.9 / (2 * n) / np.linalg.norm(np.concatenate([z.real, z.imag])))
        p = discs.FamilyParams.from_complex(z, t)
        disc = discs.family_Fprime(p, grid)
        holo = disc.negative_energy_ratio()
        re_min = float(np.min(disc.traces.real[:, wedge]))
        im_max = float(np.max(np.abs(disc.traces.imag[:, wedge])))
        attach = max(-re_min, im_max)
        expect = 2.0 * t * p.norm
        v_err = float(np.max(np.abs(disc.boundary_value_at_one() - expect)))
        disc_tau = discs.family_Fprime_tau(
            discs.FamilyParams(p.z_re, p.z_im, t, tau=(0.0,) * n), grid
        )
        tau_err = float(np.max(np.abs(disc_tau.traces - disc.traces)))
        target = z * (cal.r0_prime * 0.8 / max(p.norm, 1e-12))
        ps, value = discs._capture_family(target, t, grid, prime=True)
        s = ps.norm
        cap_res = float(np.max(np.abs(value - t * target)))
        ratio = s / float(np.linalg.norm(np.concatenate([target.real, target.imag])))
        disc_ok = (
            holo <= 1e-10
            and re_min >= -1e-10
            and discs.quadratic_minorant_discriminant(p) <= 0.0
            and v_err <= 1e-12
            and cap_res <= 1e-8
            and ratio <= 2.0
            and tau_err == 0.0
        )
        return {
            "family": "Fprime", "t": t, "z_norm": p.norm, "holo_residual": holo, "attach_residual": attach,
            "value_at_one_err": v_err, "capture_residual": cap_res, "capture_ratio": ratio,
            "tau_reduction_err": tau_err, "pass": disc_ok,
        }

    cells = []
    for t in cfg.t_list:
        for z in _sample_targets(rng, n, 0.45, max(1, cfg.samples // len(cfg.t_list))):
            for family, fn in (("F", cell_F), ("Fprime", cell_Fprime)):
                cells.append((f"{family}:t={t}", {"family": family, "t": t}, partial(fn, t, z)))
    _run_cells(rec, cells)
    return rec


def cmd_bishop(cfg: ExperimentConfig) -> RunRecord:
    grid = CircleGrid(cfg.grid_m)
    n = cfg.disc_n
    manifold = cfg.manifold()
    cal = discs.calibrate(grid, n)
    t_threshold = bsh.calibrate_t_threshold(cfg.manifold_key(), grid, False)
    t_singular = bsh.calibrate_t_threshold(cfg.manifold_key(), grid, True)
    rng = Rng(cfg.seed)
    rec = RunRecord(
        name=cfg.name,
        config_hash=cfg.config_hash(),
        columns=[
            "status",
            "t",
            "z_norm",
            "iters",
            "gm_ratio",
            "ratio_budget",
            "fixed_residual",
            "attach_residual",
            "holo_residual",
            "sup_norm",
            "norm_budget",
            "phi_gap_over_t2z",
            "tau_norm_over_t",
            "tau_residual",
            "pass",
            "note",
        ],
        calibration={**cal.as_dict(), "t_threshold": t_threshold, "t_threshold_singular": t_singular, "h": manifold.name},
    )

    def run_cell(t, z):
        p = discs.FamilyParams.from_complex(z, t)
        sol = bsh.solve_bishop(manifold, p, grid)
        disc = bsh.assemble_Fh(sol)
        gm = sol.geometric_mean_ratio()
        budget = 1.1 * math.sqrt(t)
        attach = bsh.attachment_residual(sol, disc)
        holo = disc.negative_energy_ratio()
        sup = sol.sup_norm()
        norm_budget = 4.0 * cal.c0_sup * t
        path_point = 1.0 - p.norm + 1j * p.norm
        phi_val = disc.eval(path_point)
        phi0 = discs.family_F(p, grid).eval(path_point)
        gap = float(np.max(np.abs(phi_val - phi0))) / (t * t * p.norm)
        ok = (
            gm <= budget
            and sol.residual <= 1e-11
            and attach <= 1e-9
            and holo <= 1e-9
            and sup <= norm_budget
        )
        # tau control is only certified where the singular solve contracts
        tau_norm = tau_res = ""
        if t <= t_singular:
            try:
                ctrl = bsh.solve_tau(manifold, z, t, grid)
                tau_norm = float(np.linalg.norm(ctrl.tau)) / t
                tau_res = ctrl.residual
            except FeketelabError:
                ok = False
        return {
            "t": t, "z_norm": p.norm, "iters": sol.iterations, "gm_ratio": gm, "ratio_budget": budget,
            "fixed_residual": sol.residual, "attach_residual": attach, "holo_residual": holo,
            "sup_norm": sup, "norm_budget": norm_budget, "phi_gap_over_t2z": gap,
            "tau_norm_over_t": tau_norm, "tau_residual": tau_res, "pass": ok,
        }

    cells = []
    for t in cfg.t_list:
        for z in _sample_targets(rng, n, 0.45 / (2 * n), max(1, cfg.samples // len(cfg.t_list))):
            cells.append((f"t={t}", {"t": t}, partial(run_cell, t, z)))
    _run_cells(rec, cells)
    return rec


# --------------------------------------------------------------- plot files
def emit_plotdata(record: RunRecord, kind: str, out_dir: str, svg: bool = True, disc=None):
    """Write per-plot .dat files (x, y columns) and optional static SVGs."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if kind == "rate":
        cols = record.columns
        if "k" in cols and "dist1" in cols:
            xi, yi, si = cols.index("k"), cols.index("dist1"), cols.index("status")
            pts = [
                (float(r[xi]), float(r[yi]))
                for r in record.rows
                if r[si] == "ok" and r[yi] != ""
            ]
            path = os.path.join(out_dir, f"{record.name}_rate.dat")
            _write_dat(path, record, "k", "dist1", pts)
            written.append(path)
            if svg and pts:
                spath = path[:-4] + ".svg"
                _write_svg(spath, pts, loglog=True, title=f"{record.name}: dist1 vs k")
                written.append(spath)
    elif kind == "trace":
        if disc is None:
            raise InputError("trace plots need an analytic disc")
        path = os.path.join(out_dir, f"{record.name}_trace.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# config_hash={record.config_hash}\n")
            for row in disc.to_csv_rows():
                fh.write(",".join(str(v) for v in row) + "\n")
        written.append(path)
    else:
        raise InputError(f"unknown plot kind {kind!r}")
    return written


def _write_dat(path: str, record: RunRecord, xname, yname, pts):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={record.config_hash}\n")
        fh.write(f"# columns: {xname} {yname}\n")
        for x, y in pts:
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def _write_svg(path: str, pts, loglog=False, title=""):
    if loglog:
        pts = [(math.log10(x), math.log10(y)) for x, y in pts if x > 0 and y > 0]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    w, h, pad = 640, 480, 50
    sx = lambda x: pad + (w - 2 * pad) * (x - x0) / max(x1 - x0, 1e-300)
    sy = lambda y: h - pad - (h - 2 * pad) * (y - y0) / max(y1 - y0, 1e-300)
    poly = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
            f'<rect width="{w}" height="{h}" fill="white"/>'
            f'<text x="{pad}" y="25" font-size="14">{title}</text>'
            f'<polyline points="{poly}" fill="none" stroke="black" stroke-width="1.5"/>'
        )
        for x, y in pts:
            fh.write(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="steelblue"/>')
        fh.write("</svg>")


# --------------------------------------------------------------------- main
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="feketelab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fekete", "rate", "disc", "bishop", "plot"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "plot"))
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "rate":
            p.add_argument("--input", default=None, help="existing fekete CSV")
        if name == "plot":
            p.add_argument("--record", required=True, help="CSV produced by a command")
            p.add_argument("--kind", default="rate")
    args = parser.parse_args(argv)

    try:
        if args.command == "plot":
            rec = _record_from_csv(args.record)
            out = args.out or os.path.dirname(os.path.abspath(args.record)) or "."
            emit_plotdata(rec, args.kind, out)
            return 0
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        os.makedirs(cfg.out_dir, exist_ok=True)
        if args.command == "fekete":
            rec = cmd_fekete(cfg)
        elif args.command == "rate":
            rec = cmd_rate(cfg, fekete_csv=args.input)
        elif args.command == "disc":
            rec = cmd_disc(cfg)
        else:
            rec = cmd_bishop(cfg)
        base = os.path.join(cfg.out_dir, f"{cfg.name}_{args.command}")
        rec.write_csv(base + ".csv")
        rec.write_timings(base + "_timings.csv")
        if args.command == "fekete":
            emit_plotdata(rec, "rate", cfg.out_dir)
        if not rec.all_pass():
            return 2
        return 0
    except (FeketelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _record_from_csv(path: str) -> RunRecord:
    rows = []
    columns = None
    config_hash = "unknown"
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# config_hash="):
                config_hash = line.split("=", 1)[1]
                continue
            if line.startswith("#") or not line:
                continue
            parts = line.split(",")
            if columns is None:
                columns = parts
            else:
                rows.append(parts)
    name = os.path.basename(path).rsplit(".", 1)[0]
    rec = RunRecord(name=name, config_hash=config_hash, columns=columns or [])
    rec.rows = rows
    return rec


if __name__ == "__main__":
    sys.exit(main())
