"""entrodyn benchmark: CLI time end to end, per-module spans from outside.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload traj-steps --seed 1 --seconds 20 --trace 0

One run builds the workload's invocations from the seed (see workloads.py),
computes their expected outputs with an independent reference (oracle.py),
times a fresh interpreter's set-up, then starts a fresh worker process that
drives ``entrodyn.cli.main`` in passes over the invocation list for
``--seconds`` (worker.py). Every output is checked against the reference.
The load is a closed loop with one client: a single worker process runs the
invocations one after another, with BLAS held to one thread.

The end-to-end times are CPU times scaled to a reference host speed. On a
shared host two things move the raw numbers by up to 2x for seconds to
minutes at a time. The host takes the CPU away from this machine ("steal"):
wall time grows, CPU time does not. And the host runs the same code slower
while it lets it run: CPU time grows too. So each timed pass is preceded by
a fixed numpy job that runs no entrodyn code (``worker.calibration_kernel``),
and the pass's CPU time is scaled by ``KERNEL_REF_S`` over the job's CPU time;
each set-up probe likewise follows a fresh interpreter that only imports
numpy (``BASELINE_PROBE``) and is scaled by ``BASELINE_REF_S`` over its CPU
time. A change to entrodyn moves the pass or the probe and not its
reference, so it shows in full. With BLAS on one thread and one client, a
pass's CPU time is the time its single busy thread ran, which is its wall
time on an idle host. Raw CPU and wall times go to the results file, and
wall time is reported as ``process.wall_s`` in a traced run.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics from a traced run (tracing.py). Each metric
is printed by name with its unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
machine facts, the seed, per-invocation times and the reference deviations go
to ``.bench_work/results/``, and so do the spans of a traced run.

``--size tiny`` shrinks every invocation; the smoke test uses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s

SETUP_PROBES = {"full": 11, "tiny": 2}
# CPU times, on the reference host (a 2-core x86-64 VM at its usual speed),
# of worker.calibration_kernel and of BASELINE_PROBE. Each timed pass is
# scaled by KERNEL_REF_S / (the kernel's CPU time just before it), and each
# set-up probe by BASELINE_REF_S / (the baseline probe's just before it).
KERNEL_REF_S = 0.02
BASELINE_REF_S = 0.2
# One BLAS thread for the worker and its set-up probes: an idle BLAS thread
# spins, and its CPU time would grow with the host's load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A fresh interpreter imports entrodyn, parses each config and builds its model.
SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import entrodyn
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh).get("model")
    if spec:
        entrodyn.get_model(spec["name"], spec.get("params", {}))
"""
# The same interpreter start-up and numpy import, without entrodyn.
BASELINE_PROBE = "import json, numpy"

END_TO_END_UNITS = {
    "cpu_s": "s",
    "cpu_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "models.get_model_s": "s",
    "dynamics.propagate_self_s": "s",
    "dynamics.step_us": "us",
    "dynamics.steps": "count",
    "dynamics.records": "count",
    "entropy_bounds.bound_report_s": "s",
    "entropy_bounds.bound_report_us": "us",
    "entropy_bounds.is_hermitian_calls": "count",
    "entropy_bounds.audit_s": "s",
    "operators.ensemble_s": "s",
    "steady_state.build_s": "s",
    "steady_state.build_calls": "count",
    "steady_state.self_check_s": "s",
    "steady_state.solve_self_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigvalsh_calls": "count",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "process.wall_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond).

    With fewer than eleven samples no percentile qualifies; the lowest sample
    is returned and ``beyond`` says how many lie past it.
    """
    ordered = sorted(samples)
    i = max(0, len(ordered) - 11)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def scaled(cpu: float, kernel: float) -> float:
    """CPU seconds at the reference host speed."""
    return cpu * KERNEL_REF_S / kernel


def end_to_end(result: dict, ok_frac: float) -> tuple[dict, str]:
    cpus = [scaled(p["cpu"], p["kernel"]) for p in result["passes"]]
    value, pct, beyond = tail(cpus)
    metrics = {
        "cpu_s": statistics.median(cpus),
        "cpu_tail_s": value,
        "setup_s": statistics.median(
            cpu * BASELINE_REF_S / baseline for cpu, baseline in result["setup_samples"]
        ),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "ok_frac": ok_frac,
    }
    note = f"cpu_tail_s is p{pct:.1f} of {len(cpus)} passes, {beyond} beyond it"
    return metrics, note


def per_layer(result: dict, spans: list[list], steps: int, records: int) -> dict:
    """Medians over traced passes; wall time and CPU share from the untraced passes between them."""
    layers = tracing.layer_times(spans)  # a layer absent from a pass reads [0.0, 0.0, 0]
    traced = [(i, p) for i, p in enumerate(result["passes"]) if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    samples = defaultdict(list)
    for index, p in traced:
        lay, counts, seconds = layers[index], p["counts"], p["seconds"]
        propagate_self = lay["dynamics.propagate"][1]
        report_s, _, reports = lay["entropy_bounds.bound_report"]
        row = {
            "cli.self_s": lay["cli"][1],
            "cli.bytes_out": sum(call[3] for call in p["calls"]),
            "models.get_model_s": lay["models.get_model"][0],
            "dynamics.propagate_self_s": propagate_self,
            "dynamics.step_us": 1e6 * propagate_self / steps if steps else 0.0,
            "dynamics.steps": steps,
            "dynamics.records": records,
            "entropy_bounds.bound_report_s": report_s,
            "entropy_bounds.bound_report_us": 1e6 * report_s / reports if reports else 0.0,
            "entropy_bounds.is_hermitian_calls": counts.get("entropy_bounds.is_hermitian", 0),
            "entropy_bounds.audit_s": lay["entropy_bounds.audit"][0],
            "operators.ensemble_s": lay["operators.ensemble"][0],
            "steady_state.build_s": lay["steady_state.build"][0],
            "steady_state.build_calls": lay["steady_state.build"][2],
            "steady_state.self_check_s": lay["steady_state.self_check"][0],
            "steady_state.solve_self_s": lay["steady_state.solve"][1],
            "linalg.eigh_calls": counts.get("linalg.eigh", 0),
            "linalg.eigvalsh_calls": counts.get("linalg.eigvalsh", 0),
            "linalg.svd_calls": counts.get("linalg.svd", 0),
            "linalg.svd_s": seconds.get("linalg.svd", 0.0),
            "trace.coverage_frac": lay[""][0] / p["wall"],
        }
        for name, value in row.items():
            samples[name].append(value)
    samples["process.wall_s"] = [p["wall"] for p in plain]
    samples["process.cpu_per_wall"] = [p["cpu"] / p["wall"] for p in plain]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(scaled(p["cpu"], p["kernel"]) for _, p in traced)
        / statistics.median(scaled(p["cpu"], p["kernel"]) for p in plain) - 1.0
    )
    return metrics


def check_outputs(invocations, refs, result) -> tuple[int, int, dict, dict]:
    """Check each distinct (output, exit code) of an invocation once.

    A call fails if its exit code or its output is wrong. Returns attempted,
    failed, the first problem per invocation and the largest deviation from
    the reference per field.
    """
    worst: dict[str, float] = {}
    problems: dict[str, str] = {}
    verdicts: dict[tuple, str | None] = {}
    attempted = failed = 0
    for p in [result["warmup"], *result["passes"]]:
        for i, (rc, k, *_) in enumerate(p["calls"]):
            inv = invocations[i]
            if (i, k, rc) not in verdicts:
                text = Path(result["variants"][i][k]).read_text(encoding="utf-8")
                problem = oracle.check(inv.command, inv.expect_rc, refs[i], rc, text, worst)
                verdicts[i, k, rc] = problem
                if problem is not None:
                    stderr = result["messages"].get(f"{i}:{rc}", "").strip()
                    problems.setdefault(inv.name, f"{problem}\n{stderr}".strip())
            attempted += 1
            failed += verdicts[i, k, rc] is not None
    return attempted, failed, problems, worst


def machine_facts(worker_facts: dict, load_start: tuple) -> dict:
    nproc = os.cpu_count() or 1
    facts = dict(worker_facts)
    facts["blas_threads"] = min(facts["blas_threads"] or nproc, nproc)
    facts.update(
        nproc=nproc,
        python=platform.python_version(),
        machine=platform.machine(),
        git_commit=git_commit(),
        src_sha256=source_digest(),
        loadavg_start=load_start,
        load="closed loop, one client: a single worker process runs every invocation",
        timed="CPU time (user + system), scaled by a reference job run just before",
    )
    return facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=workloads.SIZES)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    load_start = os.getloadavg()
    if not (SRC / "entrodyn" / "__init__.py").is_file():
        print(f"error: no entrodyn sources under {SRC}", file=sys.stderr)
        return 2

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / run_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)

    invocations = workloads.build(args.workload, args.seed, args.size)
    config_paths, argvs, outs = [], [], []
    for i, inv in enumerate(invocations):
        config_paths.append(str(work / f"{i}-{inv.name}.json"))
        with open(config_paths[-1], "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh)
        outs.append(str(work / f"{i}-{inv.name}.out"))
        argvs.append([inv.command, "--config", config_paths[-1], "--out", outs[-1]])
    ref_start = time.perf_counter()
    refs = [oracle.reference(inv.command, inv.config) for inv in invocations]
    reference_s = time.perf_counter() - ref_start

    plan_path, result_path = work / "plan.json", work / "result.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"src": str(SRC), "argvs": argvs, "outs": outs,
                   "seconds": args.seconds, "trace": bool(args.trace),
                   "setup_argv": [sys.executable, "-c", SETUP_PROBE, str(SRC), *config_paths],
                   "baseline_argv": [sys.executable, "-c", BASELINE_PROBE],
                   "setup_probes": 0 if args.trace else SETUP_PROBES[args.size]}, fh)
    timeout = max(10.0, RUN_LIMIT_S - (time.perf_counter() - started))
    env = dict(os.environ, **BLAS_ENV)
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                               str(plan_path), str(result_path)], timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        print(f"error: worker did not finish within {timeout:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    attempted, failed, problems, worst = check_outputs(invocations, refs, result)
    if args.trace:
        steps = sum(
            max(1, round(inv.config["integrator"]["t_max"] / inv.config["integrator"]["dt"]))
            for inv in invocations if inv.command == "simulate"
        )
        records = sum(
            len(Path(names[0]).read_text(encoding="utf-8").splitlines()) - 1
            for inv, names in zip(invocations, result["variants"]) if inv.command == "simulate"
        )
        with open(work / "spans.json", encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        metrics = per_layer(result, spans, steps, records)
        units = PER_LAYER_UNITS
        notes = [f"{len(spans)} spans over {sum(p['traced'] for p in result['passes'])} "
                 "traced passes"]
        if result["missing_targets"]:
            notes.append(f"wrapper targets missing: {result['missing_targets']}")
        shutil.move(work / "spans.json", results_dir / f"{run_name}-spans.json")
    else:
        metrics, tail_note = end_to_end(result, 1.0 - failed / attempted)
        units = END_TO_END_UNITS
        notes = [tail_note, f"fail_frac = {failed / attempted} ({failed} of {attempted})"]

    facts = machine_facts(result["facts"], load_start)
    per_invocation = {
        inv.name: statistics.median(p["calls"][i][4] for p in result["passes"])
        for i, inv in enumerate(invocations)
    }
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "facts": facts,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
        "pass_walls": [p["wall"] for p in result["passes"]],
        "pass_cpus": [p["cpu"] for p in result["passes"]],
        "pass_kernels": [p["kernel"] for p in result["passes"]],
        "setup_samples": result["setup_samples"],
        "invocation_median_s": per_invocation,
        "reference_s": reference_s,
        "max_deviation": worst,
        "problems": problems,
        "configs": [inv.config for inv in invocations],
    }
    with open(results_dir / f"{run_name}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)

    print(f"facts {json.dumps(facts)}")
    for name, seconds in per_invocation.items():
        print(f"invocation {name}: median CPU {seconds:.6f} s")
    print(f"reference deviation (max abs per field): {json.dumps(worst)}")
    for name, message in problems.items():
        print(f"FAILED {name}: {message}")
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
