"""Spans and counters recorded around the calls into feketelab's layers.

The program is not changed: `install` replaces public functions on the
modules (and classes) where callers look them up with wrappers that
record a span (name, start, end, parent) and, for some layers, counters
computed from the arguments and results.  Spans are kept in memory and
written out when the workload ends; `summary` reduces them to per-layer
self and inclusive times.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, prefix):
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def wrap(self, name, fn, after=None, failed=None, skip_inside=None):
        """Span around fn.  after(result, args) and failed(exc, args) add
        counters; skip_inside names a layer prefix under which the call is
        left to its caller's self time instead of getting its own span."""

        @functools.wraps(fn)
        def traced(*args, **kw):
            if skip_inside and self.inside(skip_inside):
                return fn(*args, **kw)
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            self.count(name + ".calls")
            try:
                result = fn(*args, **kw)
            except BaseException as exc:
                if failed is not None:
                    failed(exc, args)
                raise
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if after is not None:
                after(result, args)
            return result

        return traced

    def counted(self, name, fn):
        """Count calls without a span (for calls too small to time)."""

        @functools.wraps(fn)
        def call(*args, **kw):
            self.count(name)
            return fn(*args, **kw)

        return call

    def summary(self) -> dict:
        """Self and inclusive seconds per span name, plus the counters."""
        incl = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            incl[name] = incl.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] += end - start
        self_s = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - covered
        out = dict(self.counts)
        for name in incl:
            out[name + ".s"] = self_s[name]
            out[name + ".incl_s"] = incl[name]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _points_moved(tr):
    def after(result, args):
        before = np.asarray(args[0].points).reshape(args[0].size, -1)
        after_pts = np.asarray(result.points).reshape(result.size, -1)
        kept = set(map(tuple, before.tolist()))
        tr.count("fekete.exchange_refine.points_moved", sum(tuple(p) not in kept for p in after_pts.tolist()))
        tr.count("fekete.exchange_refine.points_base", result.size)

    return after


def _bishop_solve_counters(tr, kind):
    def after(sol, args):
        tr.count("bishop.solve.iters", len(sol.ratio_log) + 1)
        tr.count("bishop.solve.iters_field", sol.iterations)
        tr.count(f"bishop.solve.{kind}.calls")

    def failed(exc, args):
        tr.count("bishop.solve.fail")
        tr.count(f"bishop.solve.{kind}.calls")
        tr.count(f"bishop.solve.{kind}.fail")

    return after, failed


def install(tr: Tracer):
    """Wrap the public functions of fekete, equilibrium, circle, discs,
    bishop and cli where their callers look them up."""
    from feketelab import bishop, circle, cli, discs
    from feketelab import equilibrium as eq
    from feketelab import fekete as fk

    # fekete: cli calls these through the module; basis_matrix is looked up
    # in fekete's globals at call time (and imported at call time by the
    # sphere dictionary, whose calls stay in the equilibrium layer).
    fk.leja_greedy = tr.wrap("fekete.leja_greedy", fk.leja_greedy)
    fk.exchange_refine = tr.wrap("fekete.exchange_refine", fk.exchange_refine, after=_points_moved(tr))

    def columns(mat, args):
        tr.count("fekete.basis_matrix.columns", mat.shape[1])
        tr.count("fekete.basis_matrix.bytes_computed", mat.shape[0] * mat.shape[1] * 8)

    fk.basis_matrix = tr.wrap("fekete.basis_matrix", fk.basis_matrix, after=columns, skip_inside="equilibrium.")
    fk.log_vandermonde = tr.counted("fekete.log_vandermonde.calls", fk.log_vandermonde)

    # equilibrium: all looked up through the module by cli
    eq.build_dictionaries = tr.wrap("equilibrium.build_dictionaries", eq.build_dictionaries)
    eq.dist_gamma_dict = tr.wrap("equilibrium.dist_gamma_dict", eq.dist_gamma_dict)
    eq.dist1_interval = tr.wrap("equilibrium.dist1", eq.dist1_interval)
    eq.dist1_circle = tr.wrap("equilibrium.dist1", eq.dist1_circle)

    # circle: hilbert_T1 is imported by name into bishop and discs
    t1 = tr.wrap("circle.hilbert_T1", circle.hilbert_T1)
    circle.hilbert_T1 = discs.hilbert_T1 = bishop.hilbert_T1 = t1
    circle.CircleFunction.__init__ = tr.counted("circle.CircleFunction.inits", circle.CircleFunction.__init__)

    # discs: calibrate is wrapped outside its lru_cache, also under the
    # name bishop imported it by
    cal = tr.wrap("discs.calibrate", discs.calibrate)
    discs.calibrate = bishop.calibrate = cal

    def phi_eval(result, args):
        if tr.inside("discs.capture"):
            tr.count("discs.capture.phi_evals")

    for fam in ("family_F", "family_Fprime", "family_Fprime_tau"):
        setattr(discs, fam, tr.wrap("discs.family", getattr(discs, fam), after=phi_eval))
    discs.capture_F = tr.wrap("discs.capture", discs.capture_F)
    discs.capture_Fprime = tr.wrap("discs.capture", discs.capture_Fprime)
    discs.AnalyticDisc.eval = tr.counted("discs.AnalyticDisc.eval.calls", discs.AnalyticDisc.eval)

    # bishop: solves are looked up in bishop's globals by phi_h, solve_tau
    # and the t-threshold bisection
    bishop.calibrate_t_threshold = tr.wrap("bishop.calibrate_t_threshold", bishop.calibrate_t_threshold)
    after, failed = _bishop_solve_counters(tr, "regular")
    bishop.solve_bishop = tr.wrap("bishop.solve", bishop.solve_bishop, after=after, failed=failed)
    after, failed = _bishop_solve_counters(tr, "singular")
    bishop.solve_bishop_singular = tr.wrap("bishop.solve", bishop.solve_bishop_singular, after=after, failed=failed)

    def tau_ok(ctrl, args):
        tr.count("bishop.solve_tau.newton_steps", ctrl.newton_steps)

    def tau_failed(exc, args):
        tr.count("bishop.solve_tau.fail")

    bishop.solve_tau = tr.wrap("bishop.solve_tau", bishop.solve_tau, after=tau_ok, failed=tau_failed)

    # cli: the CSV writer of every command
    def csv_bytes(result, args):
        tr.count("cli.csv_bytes", os.path.getsize(args[1]))

    cli.RunRecord.write_csv = tr.wrap("cli.write_csv", cli.RunRecord.write_csv, after=csv_bytes)
