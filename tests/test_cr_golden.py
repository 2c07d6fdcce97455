"""Golden Cauchy-Riemann outputs: the `bishop` and `disc` sweeps and the
Phi^h / Phi'^h captures must keep producing the same numbers bit for bit.

The sweep CSVs are compared byte for byte with tests/data/bishop_bishop.csv
and tests/data/disc_disc.csv, the way tests/test_golden.py compares the
`fekete` CSVs.  The captures are pinned as `float.hex` strings in
tests/data/capture_golden.json.  Regenerate the data with
`PYTHONPATH=src python tests/test_cr_golden.py` only when a change to these
outputs is intended.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from feketelab.bishop import h_quad, phi_h_capture, phi_h_prime_capture
from feketelab.circle import CircleGrid
from feketelab.cli import cmd_bishop, cmd_disc
from feketelab.config import load_config

DATA = Path(__file__).parent / "data"
CAPTURES = DATA / "capture_golden.json"

SWEEPS = {
    "bishop": (cmd_bishop, "[bishop]\nn = 2\ngrid_m = 256\nt_list = 0.02,0.05\nsamples = 6\n"),
    "disc": (cmd_disc, "[disc]\nn = 2\ngrid_m = 256\nt_list = 0.02,0.05,0.1\nsamples = 6\n"),
}

GRID = CircleGrid(256)
# (capture, q of h_quad(1, q), t, target); target norms lie below r0 t / 2
# and r0' t / 2 at M = 256, n = 1
TARGETS = {
    "phi_h_a": (phi_h_capture, 0.5, 0.05, [6e-5 + 4e-5j]),
    "phi_h_b": (phi_h_capture, 0.5, 0.05, [-3e-5 + 9e-5j]),
    "phi_h_prime_a": (phi_h_prime_capture, 0.1, 0.02, [1.5e-5 + 1e-5j]),
    "phi_h_prime_b": (phi_h_prime_capture, 0.1, 0.02, [1e-5 - 2.5e-5j]),
}


def sweep_csv(name: str, tmp_path: Path) -> bytes:
    """The CSV the `name` command writes for its golden config."""
    cmd, section = SWEEPS[name]
    cfg_path = tmp_path / f"{name}.ini"
    cfg_path.write_text(
        f"[experiment]\nname = {name}\nkind = {name}\n\n{section}\n[rng]\nseed = 12345\n",
        encoding="utf-8",
    )
    out = tmp_path / f"{name}_{name}.csv"
    cmd(load_config(str(cfg_path))).write_csv(str(out))
    return out.read_bytes()


def capture_snapshot(name: str) -> dict:
    """z*, and for Phi'^h also tau and dist_sq, as float.hex strings."""
    capture, q, t, target = TARGETS[name]
    out = capture(h_quad(1, q), np.asarray(target, dtype=complex), t, GRID)
    extra = {}
    if capture is phi_h_prime_capture:
        ps, dist_sq = out
        extra = {"tau": [float(x).hex() for x in ps.tau], "dist_sq": float(dist_sq).hex()}
    else:
        ps = out
    return {
        "z_re": [float(x).hex() for x in ps.z_re],
        "z_im": [float(x).hex() for x in ps.z_im],
        **extra,
    }


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_matches_golden(name, tmp_path):
    assert sweep_csv(name, tmp_path) == (DATA / f"{name}_{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_capture_matches_golden(name):
    expected = json.loads(CAPTURES.read_text(encoding="utf-8"))[name]
    assert capture_snapshot(name) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in SWEEPS:
            (DATA / f"{name}_{name}.csv").write_bytes(sweep_csv(name, Path(tmp)))
    CAPTURES.write_text(
        json.dumps({name: capture_snapshot(name) for name in sorted(TARGETS)}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
