"""Experiment orchestration and the `feketelab` command line.

Subcommands: fekete (per-degree configuration study), rate (log-log fit
and one-sided bound verdict), disc (family diagnostics), bishop (solver
diagnostics), plot (the rate plot files of a finished fekete CSV).
Outputs are deterministic for a fixed config and seed; wall-clock timings
go to a sidecar file outside that contract.  Every CSV carries the config
hash and the calibration constants used, so reported inequalities stand
alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from . import bishop as bsh
from . import discs
from . import equilibrium as eq
from . import fekete as fk
from .circle import CircleGrid, _support_mask
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
    phases: dict = field(default_factory=dict)  # phase seconds of the running cell

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
        """Each cell's wall time, then a column per phase any cell timed
        (blank where a cell did not reach it)."""
        names = list(dict.fromkeys(name for _, _, phases in self.timings for name in phases))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# config_hash={self.config_hash} (timings, not covered by the determinism contract)\n")
            fh.write(",".join(["cell", "seconds", *names]) + "\n")
            for cell, sec, phases in self.timings:
                split = (f"{phases[n]:.6f}" if n in phases else "" for n in names)
                fh.write(",".join([cell, f"{sec:.6f}", *split]) + "\n")


def _run_cells(rec: RunRecord, cells):
    """Run (label, key, fn) cells in order, isolating crashes per cell.

    A cell adds an `ok` row from the columns `fn()` returns, or, when fn
    raises a FeketelabError, an `error` row of its key columns plus the
    error as note; either way its wall time goes to the timings under
    `label`, with the phase seconds fn put in `rec.phases`.
    """
    for label, key, fn in cells:
        rec.phases = {}
        t0 = time.perf_counter()
        try:
            rec.add(status="ok", **fn(), note="")
        except FeketelabError as exc:
            rec.add(status="error", **key, note=f"{type(exc).__name__}: {exc}")
        rec.timings.append((label, time.perf_counter() - t0, rec.phases))


def _weight_slope(cfg: ExperimentConfig) -> float:
    """The slope a of the configured weight phi(x) = a x, 0 for `zero`;
    a linear weight is defined on the interval only."""
    if cfg.weight == "zero":
        return 0.0
    if not cfg.weight.startswith("linear:"):
        raise ConfigError(f"unknown weight {cfg.weight!r}")
    if not isinstance(cfg.domain, fk.Interval):
        raise ConfigError(f"weight {cfg.weight} is defined on the interval only, not on {cfg.domain_text}")
    try:
        return float(cfg.weight.split(":", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"bad weight {cfg.weight!r}") from exc


def _exact_1d(slope: float):
    """The interval, circle and arcs: `fk.fekete_1d`, with its KKT residual
    as the one extra column."""

    def search(spec):
        config, residual = fk.fekete_1d(spec, slope)
        return config, {"kkt_residual": residual}

    return search


def _sphere_search(domain, ks, mesh, rec: RunRecord):
    """The full sphere: every degree of `ks` solved by `fk.fekete_sphere`,
    off any mesh, then all verified in one `fk.max_lagrange` scan of `mesh`,
    timed once in `rec.timings` as the `verify_s` of a `verify` row.  The
    search reads a degree's result, with its Newton seconds as `search_s`:
    its KKT residual, Newton steps, largest Lagrange function value on
    `mesh` and gap to Hadamard's bound logdet <= (N/2) log(N/(4 pi)), which
    holds on any N points; or the error of its solve, which the scan skips."""
    solves, newton_s = {}, {}
    for k in ks:
        t0 = time.perf_counter()
        try:
            solves[k] = fk.fekete_sphere(fk.BasisSpec(domain, k))
        except FeketelabError as exc:
            solves[k] = exc
        newton_s[k] = time.perf_counter() - t0
    t0 = time.perf_counter()
    lagrange = fk.max_lagrange({k: s[0] for k, s in solves.items() if isinstance(s, tuple)}, mesh)
    verify_s = time.perf_counter() - t0
    rec.timings.append(("verify", verify_s, {"verify_s": verify_s}))

    def search(spec):
        rec.phases["search_s"] = newton_s[spec.k]
        if isinstance(solves[spec.k], FeketelabError):
            raise solves[spec.k]
        config, residual, steps = solves[spec.k]
        n = config.size
        return config, {
            "kkt_residual": residual,
            "max_lagrange": lagrange[spec.k],
            "newton_steps": steps,
            "hadamard_gap": 0.5 * n * math.log(n / (4.0 * math.pi)) - config.logdet,
        }

    return search


def _mesh_search(mesh, k_max: int, sweeps: int):
    """The cap search: greedy then exchange, with no extra columns.  Every
    degree reads the leading columns of one mesh-by-basis matrix at k_max,
    built by the first search as the `.T` of `fk.basis_matrix` (C order,
    no copy); each search state is freed when its search returns."""
    mesh_matrix = None

    def search(spec):
        nonlocal mesh_matrix
        if mesh_matrix is None:
            mesh_matrix = fk.basis_matrix(fk.BasisSpec(spec.domain, k_max), mesh).T
        config, state = fk.leja_greedy(spec, mesh, mesh_matrix)
        return fk.exchange_refine(config, spec, mesh, sweeps, state), {}

    return search


def _reference_for(domain, search, k_max: int):
    try:
        return eq.equilibrium_reference(domain), "closed-form"
    except FeketelabError:
        # arcs/caps: self-consistency against the largest-degree measure
        config, _ = search(fk.BasisSpec(domain, k_max))
        return fk.fekete_measure(config), f"fekete-self-consistency(k={k_max})"


def _dist_to_reference(domain, mu, reference, gammas, dictionary):
    """dist_1 plus the configured dist_gamma columns; returns dict.

    On the interval, circle and arcs (`dictionary` is None) one quantile
    coupling gives every column: every gamma gets the certified pair
    `dist_g{gamma}_lo` / `dist_g{gamma}_hi`, and dist1 is the coupling's
    uncapped gamma = 1 cost, so it equals `dist_g1_hi` wherever no coupled
    distance reaches the cap 1.  That cost is W1, except on an arc longer
    than pi, where it is an upper bound in the circle metric.  On the
    sphere and caps every gamma gets the dictionary lower bound
    `dist_g{gamma}`, and dist1, which has no exact formula there, is the
    gamma = 1 one, computed once for both columns.
    """
    if dictionary is not None:
        out = {f"dist_g{g:g}": d for g, d in eq.dist_gamma_dict(mu, reference, dictionary).items()}
        out["dist1"] = out["dist_g1"]
        return out
    out = {}
    for g, (lo, hi) in eq.dist_gamma_bounds(mu, reference, gammas).items():
        out[f"dist_g{g:g}_lo"], out[f"dist_g{g:g}_hi"] = lo, hi
    w1 = eq.dist1_circle if isinstance(fk.ambient_of(domain), fk.Circle) else eq.dist1_interval
    out["dist1"] = w1(mu, reference)
    return out


def cmd_fekete(cfg: ExperimentConfig) -> RunRecord:
    """One row per degree.  The interval, circle and arcs get their exact
    Fekete configuration (`fk.fekete_1d`), with its KKT residual as a
    column that `pass` bounds, and two-sided dist_gamma bounds.  The
    sphere gets `fk.fekete_sphere`, whose KKT residual and largest
    Lagrange value on the configured mesh (a verification mesh only)
    `pass` bounds; every degree is solved, and all are verified in one
    scan, once the dictionary is built (`_sphere_search`).  Caps get the
    mesh search.  Both get test-dictionary lower bounds."""
    domain = cfg.domain
    slope = _weight_slope(cfg)
    gammas = eq.check_gammas(cfg.gammas + (1.0,))
    one_d = not isinstance(fk.ambient_of(domain), fk.Sphere)
    sphere = isinstance(domain, fk.Sphere)
    if one_d:
        search, extra = _exact_1d(slope), ["kkt_residual"]
        calibration = {"search": "exact-newton", "kkt_tol": fk.KKT_TOL}
    else:
        mesh = domain.mesh(cfg.mesh) if cfg.mesh else domain.mesh()
        if sphere:  # solved once the dictionary is built; its reference is closed-form
            search, extra = None, ["kkt_residual", "max_lagrange", "newton_steps", "hadamard_gap"]
            calibration = {
                "search": "kernel-newton", "kkt_tol": fk.KKT_TOL,
                "lagrange_tol": fk.LAGRANGE_TOL, "verification_mesh": len(mesh),
            }
        else:
            search, extra = _mesh_search(mesh, cfg.k_max, cfg.sweeps), []
            calibration = {"mesh": len(mesh), "sweeps": cfg.sweeps}
    if not sphere:
        search = cache(search)  # an arc's or cap's reference is its k_max row's configuration
    reference, ref_name = _reference_for(domain, search, cfg.k_max)
    if one_d:
        dictionary = None
        dist_columns = [f"dist_g{g:g}_{side}" for g in gammas for side in ("lo", "hi")]
    else:
        dictionary = eq.build_dictionaries(domain, gammas)
        dist_columns = [f"dist_g{g:g}" for g in gammas]
    rec = RunRecord(
        name=cfg.name,
        config_hash=cfg.config_hash(),
        columns=["status", "k", "n_k", "logdet", *extra, "dist1", *dist_columns, "pass", "note"],
        calibration={"reference": ref_name, **calibration},
    )
    if sphere:
        search = _sphere_search(domain, cfg.ks, mesh, rec)

    def run_cell(k: int):
        t0 = time.perf_counter()
        config, columns = search(fk.BasisSpec(domain, k))
        rec.phases.setdefault("search_s", time.perf_counter() - t0)  # the sphere's ran before
        t0 = time.perf_counter()
        dists = _dist_to_reference(domain, fk.fekete_measure(config), reference, gammas, dictionary)
        rec.phases["dist_s"] = time.perf_counter() - t0
        ok = (
            np.isfinite(config.logdet)
            and columns.get("kkt_residual", 0.0) <= fk.KKT_TOL
            and columns.get("max_lagrange", 0.0) <= 1.0 + fk.LAGRANGE_TOL
        )
        return {"k": k, "n_k": config.size, "logdet": config.logdet, **columns, **dists, "pass": ok}

    _run_cells(rec, [(f"k={k}", {"k": k}, partial(run_cell, k)) for k in cfg.ks])
    return rec


def _record_from_csv(path: str) -> RunRecord:
    """A command's CSV read back: config hash, columns and rows as strings."""
    rows = []
    columns = None
    config_hash = "unknown"
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
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
    return RunRecord(name=name, config_hash=config_hash, columns=columns or [], rows=rows)


def _rate_points(record: RunRecord) -> list:
    """(k, dist1) of each ok row of a fekete record.

    A record without a status column counts every row as ok; a row whose k
    or dist1 does not parse is skipped.
    """
    points = []
    for values in record.rows:
        row = dict(zip(record.columns, values))
        if row.get("status", "ok") != "ok":
            continue
        try:
            points.append((int(row["k"]), float(row["dist1"])))
        except (KeyError, ValueError):
            continue
    return points


def cmd_rate(cfg: ExperimentConfig, fekete_csv: str) -> RunRecord:
    data = _rate_points(_record_from_csv(fekete_csv))
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
        calibration=dataclasses.asdict(cal),
    )
    wedge = np.abs(grid.nodes) <= cal.theta0 + 1e-15
    front = ~_support_mask(grid)

    def capture_columns(z, t, p, r, prime):
        """capture_residual and capture_ratio of the capture of z scaled to |target| = 0.8 r."""
        target = z * (r * 0.8 / max(p.norm, 1e-12))
        ps, value = (discs.capture_Fprime if prime else discs.capture_F)(target, t, grid)
        cap_res = float(np.max(np.abs(value - t * target)))
        return cap_res, ps.norm / float(np.linalg.norm(discs._c2r(target)))

    def cell_F(t, z):
        p = discs.FamilyParams.from_complex(z, t)
        disc = discs.family_F(p, grid)
        holo = disc.negative_energy_ratio()
        attach = float(np.max(np.abs(disc.traces.imag[:, front])))
        expect = t * (np.asarray(p.z_re) - np.asarray(p.z_im))
        v_err = float(np.max(np.abs(disc.boundary_value_at_one() - expect)))
        cap_res, ratio = capture_columns(z, t, p, cal.r0, prime=False)
        ok = holo <= 1e-10 and attach <= 1e-10 and v_err <= 1e-12 and cap_res <= 1e-8 and ratio <= 2.0
        return {
            "family": "F", "t": t, "z_norm": p.norm, "holo_residual": holo, "attach_residual": attach,
            "value_at_one_err": v_err, "capture_residual": cap_res, "capture_ratio": ratio,
            "tau_reduction_err": "", "pass": ok,
        }

    def cell_Fprime(t, z):
        z = z * min(1.0, 0.9 / (2 * n) / np.linalg.norm(discs._c2r(z)))
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
        cap_res, ratio = capture_columns(z, t, p, cal.r0_prime, prime=True)
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
        for z in discs._sample_targets(rng, n, 0.45, max(1, cfg.samples // len(cfg.t_list))):
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
            "rho",
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
        calibration={**dataclasses.asdict(cal), "t_threshold": t_threshold, "t_threshold_singular": t_singular, "h": manifold.name},
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
            "t": t, "z_norm": p.norm, "iters": sol.iterations, "gm_ratio": gm, "rho": bsh.contraction_rate(sol), "ratio_budget": budget,
            "fixed_residual": sol.residual, "attach_residual": attach, "holo_residual": holo,
            "sup_norm": sup, "norm_budget": norm_budget, "phi_gap_over_t2z": gap,
            "tau_norm_over_t": tau_norm, "tau_residual": tau_res, "pass": ok,
        }

    cells = []
    for t in cfg.t_list:
        for z in discs._sample_targets(rng, n, 0.45 / (2 * n), max(1, cfg.samples // len(cfg.t_list))):
            cells.append((f"t={t}", {"t": t}, partial(run_cell, t, z)))
    _run_cells(rec, cells)
    return rec


# --------------------------------------------------------------- plot files
def emit_plotdata(record: RunRecord, out_dir: str) -> list:
    """Write the rate plot of a fekete record: `<name>_rate.dat` holds the
    (k, dist1) points of its ok rows, and `<name>_rate.svg` their log-log
    plot, written only when some point has k > 0 and dist1 > 0.  A record
    without k and dist1 columns raises InputError and writes nothing."""
    if "k" not in record.columns or "dist1" not in record.columns:
        raise InputError(f"{record.name}: a rate plot needs k and dist1 columns")
    os.makedirs(out_dir, exist_ok=True)
    pts = _rate_points(record)
    path = os.path.join(out_dir, f"{record.name}_rate.dat")
    _write_dat(path, record, pts)
    written = [path]
    logs = [(math.log10(x), math.log10(y)) for x, y in pts if x > 0 and y > 0]
    if logs:
        spath = path[:-4] + ".svg"
        _write_svg(spath, logs, f"{record.name}: dist1 vs k")
        written.append(spath)
    return written


def _write_dat(path: str, record: RunRecord, pts):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={record.config_hash}\n")
        fh.write("# columns: k dist1\n")
        for x, y in pts:
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def _write_svg(path: str, pts, title: str):
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
    for name in ("fekete", "rate", "disc", "bishop"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "rate":
            p.add_argument("--input", required=True, help="existing fekete CSV")
    p = sub.add_parser("plot")
    p.add_argument("--record", required=True, help="CSV produced by a command")
    p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    try:
        if args.command == "plot":
            rec = _record_from_csv(args.record)
            out = args.out or os.path.dirname(os.path.abspath(args.record)) or "."
            emit_plotdata(rec, out)
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
            rec = cmd_rate(cfg, args.input)
        elif args.command == "disc":
            rec = cmd_disc(cfg)
        else:
            rec = cmd_bishop(cfg)
        base = os.path.join(cfg.out_dir, f"{cfg.name}_{args.command}")
        rec.write_csv(base + ".csv")
        rec.write_timings(base + "_timings.csv")
        if args.command == "fekete":
            emit_plotdata(rec, cfg.out_dir)
        if not rec.all_pass():
            return 2
        return 0
    except (FeketelabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
