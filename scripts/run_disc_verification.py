#!/usr/bin/env python3
"""Analytic-disc family verification sweep: attachment, holomorphy,
closed-form values at 1, capture residuals, tau-family reduction."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from feketelab.cli import cmd_disc
from feketelab.config import ExperimentConfig

OUT = os.path.join(os.path.dirname(__file__), "..", "out", "disc_verification")


def main():
    os.makedirs(OUT, exist_ok=True)
    status = 0
    for n in (1, 2):
        cfg = ExperimentConfig(
            name=f"disc-n{n}", disc_n=n, grid_m=1024,
            t_list=(0.02, 0.05, 0.1), samples=60, seed=9, out_dir=OUT,
        )
        rec = cmd_disc(cfg)
        rec.write_csv(os.path.join(OUT, f"{cfg.name}.csv"))
        rec.write_timings(os.path.join(OUT, f"{cfg.name}_timings.csv"))
        n_err = sum(1 for r in rec.rows if r[0] == "error")
        print(f"n={n}: {len(rec.rows)} rows, {n_err} errors, all pass: {rec.all_pass()}")
        if not rec.all_pass():
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
