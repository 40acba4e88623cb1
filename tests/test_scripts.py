"""Smoke tests: each script in scripts/ runs over the whole preset catalog."""

import importlib.util
import sys
from pathlib import Path

from entrodyn.cli import SIMULATE_HEADER
from entrodyn.models import list_models

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
PRESETS = [spec.name for spec in list_models()]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_steady_floor_summary_reports_every_preset(capsys):
    load_script("steady_floor_summary").main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["preset", "S(steady)", "floor", "slack"]
    assert [row.split()[0] for row in rows] == PRESETS
    by_name = {row.split()[0]: row for row in rows}
    assert "degenerate" in by_name["dephasing"]
    assert all("degenerate" not in by_name[name] for name in PRESETS if name != "dephasing")


def test_run_preset_trajectories_writes_one_csv_per_preset(tmp_path, capsys, monkeypatch):
    argv = ["run_preset_trajectories.py", "--t-max", "0.05", "--outdir", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    load_script("run_preset_trajectories").main()
    assert len(capsys.readouterr().out.splitlines()) == len(PRESETS)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in PRESETS)
    for name in PRESETS:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == SIMULATE_HEADER
        assert len(lines) == 1 + 6  # t = 0, 0.01, ..., 0.05 at stride 10
