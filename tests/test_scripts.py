"""Smoke tests: each script in scripts/ runs over the whole preset catalog."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_bench_pairs_summarizes_synthetic_pairs():
    bench = load_script("bench_pairs")

    def run(cpu_s, ok_frac, correct=True):
        return {"correct": correct, "metrics": {"cpu_s": {"value": cpu_s, "unit": "s"},
                                                "ok_frac": {"value": ok_frac, "unit": "ratio"}}}

    parent = [run(0.40, 1.0), run(0.38, 1.0), run(0.42, 1.0), run(0.39, 1.0)]
    change = [run(0.15, 1.0), run(0.41, 1.0), run(0.16, 1.0), run(0.14, 0.99)]
    summary = bench.summarize(parent, change, {"cpu_s": "lower", "ok_frac": "higher"})
    assert summary["pairs"] == 4 and summary["all_outputs_correct"]
    cpu = summary["metrics"]["cpu_s"]
    assert cpu["parent_runs"] == [0.40, 0.38, 0.42, 0.39]
    assert cpu["parent_median"] == 0.395 and cpu["change_median"] == 0.155
    assert (cpu["parent_q1"], cpu["parent_q3"]) == (0.3875, 0.405)  # inclusive method
    assert cpu["change_better_pairs"] == 3  # the second pair went to the parent
    assert cpu["median_rel_change"] == round((0.155 - 0.395) / 0.395, 6)
    assert not cpu["gain_met"]  # 3/4 pairs is below 9 in 10
    # ties count for neither side; higher is better for ok_frac
    ok = summary["metrics"]["ok_frac"]
    assert ok["change_better_pairs"] == 0 and ok["median_rel_change"] == 0.0
    assert not ok["gain_met"]
    # 9/10 pairs won, medians 0.40 -> 0.20: met unless the parent's IQR spans the gap
    wins = [run(0.20, 1.0)] * 9 + [run(0.50, 1.0)]
    for spread, met in ((0.05, True), (0.15, False)):
        parents = [run(0.40 + spread * (-1) ** i, 1.0) for i in range(10)]
        cpu = bench.summarize(parents, wins, {"cpu_s": "lower"})["metrics"]["cpu_s"]
        assert cpu["change_better_pairs"] == 9
        assert abs(cpu["parent_q3"] - cpu["parent_q1"] - 2 * spread) <= 1e-9
        assert cpu["gain_met"] is met
    # 8/10 pairs won with a clear gap still misses
    eight = bench.summarize([run(0.40, 1.0)] * 10, [run(0.30, 1.0)] * 8 + [run(0.5, 1.0)] * 2,
                            {"cpu_s": "lower"})["metrics"]["cpu_s"]
    assert eight["change_better_pairs"] == 8 and not eight["gain_met"]
    # higher is better: a rise is a gain, and its relative change is positive
    up = bench.summarize([run(0.1, 0.90)] * 10, [run(0.1, 0.99)] * 10,
                         {"ok_frac": "higher"})["metrics"]["ok_frac"]
    assert up["gain_met"] and up["median_rel_change"] == 0.1
    assert not bench.summarize(parent, [run(0.1, 1.0, correct=False)] * 4,
                               {"cpu_s": "lower"})["all_outputs_correct"]
    assert bench.parse_seeds("101-103,7") == [101, 102, 103, 7]


def test_bench_pairs_runs_both_sides_from_equal_sibling_trees(tmp_path):
    bench = load_script("bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench", "-c",
                        "user.email=bench@example.org", *args], check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "edited.py").write_text("parent\n")
    (repo / "deleted.py").write_text("parent\n")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "edited.py").write_text("change\n")  # uncommitted edit
    (repo / "deleted.py").unlink()
    (repo / "pkg").mkdir()
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "ignored.txt").write_text("ignored\n")

    trees, commit = bench.make_trees(tmp_path / "work", "HEAD", repo)
    parent, change = trees["parent"], trees["change"]
    assert parent.parent == change.parent == tmp_path / "work"
    assert len(parent.name) == len(change.name) and parent.name != change.name
    assert commit == subprocess.run(["git", "-C", str(repo), "rev-parse", "--short", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
    files = {tree: sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file())
             for tree in (parent, change)}
    assert files[parent] == [".gitignore", "deleted.py", "edited.py"]
    assert files[change] == [".gitignore", "edited.py", "pkg/new.py"]
    assert (parent / "edited.py").read_text() == "parent\n"
    assert (change / "edited.py").read_text() == "change\n"


def test_bench_pairs_failed_run_keeps_its_output(tmp_path):
    bench = load_script("bench_pairs")
    (tmp_path / "benchmark").mkdir()
    (tmp_path / "benchmark" / "run.py").write_text(
        "import sys\n"
        "print('pass 1 done')\n"
        "for i in range(50):\n"
        "    print(f'err line {i}', file=sys.stderr)\n"
        "sys.exit('ValueError: boom')\n"
    )
    with pytest.raises(RuntimeError) as info:
        bench.run_once(tmp_path, "traj-steps", 7, 1)
    message = str(info.value)
    assert "benchmark/run.py --workload traj-steps --seed 7 --seconds 1 --trace 0" in message
    assert str(tmp_path) in message and "exited 1" in message
    assert "ValueError: boom" in message and "pass 1 done" in message
    assert "err line 49" in message and "err line 31" in message
    assert "err line 30" not in message  # only the last 20 lines of stderr
