"""Golden `fekete` CSVs: the Fekete search must keep choosing the same
configurations, so each small `cmd_fekete` run is compared byte for byte
with a CSV committed under tests/data/."""

from pathlib import Path

import pytest

from feketelab.cli import cmd_fekete
from feketelab.config import load_config

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "circle": "domain = circle\nk_min = 2\nk_max = 10\nmesh = 1024\nsweeps = 3\n",
    "interval": "domain = interval\nk_min = 2\nk_max = 10\nmesh = 1000\nsweeps = 3\n",
    "interval-linear": (
        "domain = interval\nk_min = 2\nk_max = 10\nmesh = 1000\nsweeps = 3\nweight = linear:0.3\n"
    ),
    "sphere": "domain = sphere\nk_min = 2\nk_max = 5\nmesh = 6000\nsweeps = 2\n",
    "arc": "domain = arc:-1.0,1.0\nk_min = 2\nk_max = 6\nmesh = 2048\nsweeps = 3\n",
}


def golden_csv(name: str, tmp_path: Path) -> bytes:
    """The CSV `cmd_fekete` writes for the golden config `name`."""
    cfg_path = tmp_path / f"{name}.ini"
    cfg_path.write_text(
        f"[experiment]\nname = {name}\nkind = fekete\n\n[fekete]\n{GOLDEN[name]}gammas = 1.0\n",
        encoding="utf-8",
    )
    out = tmp_path / f"{name}_fekete.csv"
    cmd_fekete(load_config(str(cfg_path))).write_csv(str(out))
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fekete_csv_matches_golden(name, tmp_path):
    assert golden_csv(name, tmp_path) == (DATA / f"{name}_fekete.csv").read_bytes()
