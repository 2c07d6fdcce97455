#!/usr/bin/env python3
"""Bishop solver verification sweep over the built-in graph manifolds.

Reports contraction ratios, norm-bound margins, the measured Phi^h
comparison constant, and tau-control residuals (in cells at or below the
singular threshold); prints the regular and singular t-thresholds that
each sweep calibrated and wrote to its CSV header.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from feketelab.cli import cmd_bishop
from feketelab.config import ExperimentConfig

OUT = os.path.join(os.path.dirname(__file__), "..", "out", "bishop_verification")


def main():
    os.makedirs(OUT, exist_ok=True)
    status = 0
    for n, h in ((1, "quad:0.5"), (2, "quad:0.5"), (2, "mix:0.5"), (2, "quad:0.1")):
        cfg = ExperimentConfig(
            name=f"bishop-n{n}-{h.replace(':', '')}", disc_n=n,
            grid_m=1024, t_list=(0.02, 0.05), samples=20, h_spec=h, seed=13,
            out_dir=OUT,
        )
        rec = cmd_bishop(cfg)
        th = rec.calibration["t_threshold"]
        th_singular = rec.calibration["t_threshold_singular"]
        rec.write_csv(os.path.join(OUT, f"{cfg.name}.csv"))
        rec.write_timings(os.path.join(OUT, f"{cfg.name}_timings.csv"))
        print(
            f"{cfg.name}: t-threshold {th:.4f}, singular t-threshold "
            f"{th_singular:.4f}, all pass: {rec.all_pass()}"
        )
        if not rec.all_pass():
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
