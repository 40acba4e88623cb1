"""Smoke test of the benchmark on tiny sizes.

Run from the repository root: ``python3 -m pytest benchmark/tests``.

Every workload runs once untraced and once traced. The printed metrics must
match ``BENCHMARK.json`` by name and unit, no output check may fail, and each
wrapper must fire where its layer does work: a refactor that bypasses a
wrapper makes that layer read zero, and this test fails instead.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TRAJ_LAYERS = (
    "cli.self_s",
    "models.get_model_s",
    "dynamics.propagate_self_s",
    "dynamics.step_us",
    "dynamics.steps",
    "dynamics.records",
    "entropy_bounds.bound_report_s",
    "entropy_bounds.bound_report_us",
    "entropy_bounds.is_hermitian_calls",
    "linalg.eigh_calls",
    "linalg.eigvalsh_calls",
)
NONZERO_LAYERS = {
    "traj-steps": TRAJ_LAYERS,
    "traj-records": TRAJ_LAYERS,
    "steady-scan": (
        "cli.self_s",
        "models.get_model_s",
        "steady_state.build_s",
        "steady_state.build_calls",
        "steady_state.self_check_s",
        "steady_state.solve_self_s",
        "linalg.svd_calls",
        "linalg.svd_s",
    ),
    "audit-sweep": ("cli.self_s", "entropy_bounds.audit_s", "operators.ensemble_s",
                    "linalg.eigh_calls"),
}
EVERY_WORKLOAD = ("cli.bytes_out", "process.wall_s", "process.cpu_per_wall",
                  "trace.coverage_frac")


def bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics(workload):
    result, stdout = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"fail_frac = 0.0 (0 of {result['attempted']})" in stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_and_wrappers(workload):
    result, stdout = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == units("per_layer")
    assert "wrapper targets missing" not in stdout
    silent = [name for name in NONZERO_LAYERS[workload] + EVERY_WORKLOAD
              if not metrics[name]["value"] > 0]
    assert not silent, f"wrappers that never fired: {silent}"


def cli_output(tmp_path, inv: workloads.Invocation) -> tuple[int, str]:
    from entrodyn.cli import main

    config, out = tmp_path / "config.json", tmp_path / "out.txt"
    config.write_text(json.dumps(inv.config))
    rc = main([inv.command, "--config", str(config), "--out", str(out)])
    return rc, out.read_text()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_reject_a_perturbed_output(tmp_path, workload):
    inv = workloads.build(workload, 9, "tiny")[0]
    ref = oracle.reference(inv.command, inv.config)
    rc, text = cli_output(tmp_path, inv)
    assert oracle.check(inv.command, inv.expect_rc, ref, rc, text, {}) is None
    lines = text.splitlines()
    if inv.command == "steady":
        report = json.loads(text)
        report["entropy_floor"] += 1e-6
        bad = json.dumps(report)
    else:
        fields = lines[1].split(",")
        fields[1] = repr(float(fields[1]) * (1 + 1e-6) + 1e-6)
        bad = "\n".join([lines[0], ",".join(fields), *lines[2:]])
    assert oracle.check(inv.command, inv.expect_rc, ref, rc, bad, {}) is not None
    assert oracle.check(inv.command, inv.expect_rc, ref, 4, text, {}) is not None


def test_checks_use_exact_audit_counts(tmp_path):
    inv = workloads.build("audit-sweep", 9, "tiny")[0]
    ref = oracle.reference(inv.command, inv.config)
    rc, text = cli_output(tmp_path, inv)
    bad = re.sub(r"trace_sq_violations=(\d+)",
                 lambda m: f"trace_sq_violations={int(m.group(1)) + 1}", text)
    assert bad != text
    assert oracle.check(inv.command, inv.expect_rc, ref, rc, bad, {}) is not None
