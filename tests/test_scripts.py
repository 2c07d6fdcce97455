"""Smoke test of the sweep scripts under scripts/: each `main()` builds its
configs and writes its files, with the experiment commands stubbed out."""

import glob
import importlib.util
import os

import pytest

from feketelab.cli import RunRecord
from feketelab.config import ExperimentConfig

SCRIPTS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "scripts", "run_*.py")))


def _stub(columns, row, calibration=None):
    """A command stub returning a one-row passing RunRecord for its config."""

    def command(cfg, *args, **kwargs):
        assert isinstance(cfg, ExperimentConfig)
        for path in (*args, *kwargs.values()):
            assert os.path.exists(path)  # `rate` reads the CSV the script wrote
        rec = RunRecord(name=cfg.name, config_hash=cfg.config_hash(), columns=list(columns),
                        calibration=dict(calibration or {}))
        rec.add(**row)
        return rec

    return command


STUBS = {
    "cmd_fekete": _stub(["status", "k", "dist1", "pass"], {"status": "ok", "k": 2, "dist1": 0.5, "pass": True}),
    "cmd_rate": _stub(["slope", "c_min", "pass"], {"slope": -0.5, "c_min": 1.0, "pass": True}),
    "cmd_disc": _stub(["status", "pass"], {"status": "ok", "pass": True}),
    "cmd_bishop": _stub(["status", "pass"], {"status": "ok", "pass": True},
                        {"t_threshold": 0.25, "t_threshold_singular": 0.01}),
}


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_script_main_runs_with_stubbed_commands(path, tmp_path, monkeypatch):
    assert len(SCRIPTS) == 3
    spec = importlib.util.spec_from_file_location(os.path.basename(path)[:-3], path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", str(tmp_path))
    stubbed = [name for name in STUBS if hasattr(script, name)]
    assert stubbed
    for name in stubbed:
        monkeypatch.setattr(script, name, STUBS[name])
    if hasattr(script, "emit_plotdata"):
        monkeypatch.setattr(script, "emit_plotdata", lambda record, out_dir: [])
    assert script.main() == 0
    assert glob.glob(str(tmp_path / "*.csv"))
