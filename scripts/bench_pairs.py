#!/usr/bin/env python3
"""Benchmark a parent commit against the working tree in alternating pairs.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py --parent HEAD --workload audit-sweep \\
        --seeds 501-510 --out BENCH_7.json --claim cpu_s --change "what changed"

Both sides run from sibling directories of one temporary directory (created
under ``$TMPDIR``, removed at the end; no git worktree is made), named
``parent`` and ``change``: names of equal length, because the path of a
checkout alone moved traj-steps ``cpu_s`` by about 4%. The parent revision is
exported with ``git archive``; the change is a copy of the working tree, with
uncommitted edits to tracked files and untracked files that git does not
ignore. For each seed, ``benchmark/run.py --trace 0`` runs once on each tree,
back to back, for the ``run_seconds`` that ``BENCHMARK.json`` fixes, and the
tree that goes first alternates from seed to seed. The end-to-end metrics of
every run are summarized per workload: medians and quartiles (inclusive
method) of each side, the number of pairs the change won (ties count for
neither side), the signed relative change of the median, whether a claimed
gain holds (``gain_met``: the change won at least 9 in 10 pairs and its median
is better than the parent's by more than the parent's interquartile range)
and the raw runs. The better direction of each metric is read
from ``BENCHMARK.json``.

The output file is updated in place: a workload already in it is replaced,
the others are kept, so one file can collect several workloads.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")  # directory names of equal length
TAIL_LINES = 20  # of a failed run's stderr and stdout, kept in its error
FACT_KEYS = ("python", "numpy", "blas", "blas_version", "blas_threads", "nproc", "machine")
COMMAND = "python3 benchmark/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0"
METHOD = (
    "each seed runs the parent and the change back to back, alternating which goes "
    "first; the two checkouts in sibling directories with names of equal length; "
    "medians and quartiles (inclusive method) over the seeds"
)


def parse_seeds(text: str) -> list[int]:
    """'101-105' or '7,9,11' (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def tail(text: str) -> str:
    """The last ``TAIL_LINES`` lines of ``text``."""
    return "\n".join(text.splitlines()[-TAIL_LINES:])


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its final JSON line plus the machine facts.

    A failed run raises RuntimeError with its command, exit code and the tails
    of its stderr and stdout: the tree is deleted afterwards, and with it the cause.
    """
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {proc.returncode}\n"
                           f"stderr (last {TAIL_LINES} lines):\n{tail(proc.stderr)}\n"
                           f"stdout (last {TAIL_LINES} lines):\n{tail(proc.stdout)}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    facts = next(json.loads(ln[len("facts "):]) for ln in lines if ln.startswith("facts "))
    result["facts"] = {k: facts.get(k) for k in FACT_KEYS}
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent_runs: list[dict], change_runs: list[dict], better: dict[str, str]) -> dict:
    """Per-workload summary of paired runs, in the schema of BENCH_<pr>.json.

    ``parent_runs[i]`` and ``change_runs[i]`` are the two runs of pair i, each
    the final JSON line of ``benchmark/run.py``; ``better`` maps each metric
    name to "lower" or "higher".
    """
    metrics = {}
    for name, direction in better.items():
        parent = [round(r["metrics"][name]["value"], 6) for r in parent_runs]
        change = [round(r["metrics"][name]["value"], 6) for r in change_runs]
        sign = 1 if direction == "lower" else -1
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        metrics[name] = {
            "parent_median": round(p_med, 6),
            "parent_q1": round(p_q1, 6),
            "parent_q3": round(p_q3, 6),
            "change_median": round(c_med, 6),
            "change_q1": round(c_q1, 6),
            "change_q3": round(c_q3, 6),
            "change_better_pairs": won,
            "median_rel_change": round((c_med - p_med) / p_med, 6) if p_med else None,
            "gain_met": 10 * won >= 9 * len(parent) and sign * (p_med - c_med) > p_q3 - p_q1,
            "parent_runs": parent,
            "change_runs": change,
        }
    return {
        "pairs": len(parent_runs),
        "all_outputs_correct": all(r["correct"] for r in parent_runs + change_runs),
        "metrics": metrics,
    }


def export_tree(rev: str, dest: Path, root: Path = ROOT) -> str:
    """Extract ``rev`` of the repository at ``root`` into ``dest``; return its short commit id."""
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **extra)
    return subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--short", rev],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def export_worktree(dest: Path, root: Path = ROOT) -> None:
    """Copy the tracked and the untracked, not ignored files of ``root`` into ``dest``."""
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, text=True, check=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        if (root / name).is_file():  # a tracked file deleted from the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def make_trees(work: Path, parent: str, root: Path = ROOT) -> tuple[dict[str, Path], str]:
    """Export the parent and the change into siblings under ``work``; return them and the commit."""
    trees = {side: work / side for side in SIDES}
    for tree in trees.values():
        tree.mkdir(parents=True)
    parent_commit = export_tree(parent, trees["parent"], root)
    export_worktree(trees["change"], root)
    return trees, parent_commit


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 101-110")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<pr>.json to update")
    parser.add_argument("--claim", help="metric this workload's claim rests on")
    parser.add_argument("--change", help="one-line description of the change")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}
    seconds = contract["run_seconds"]
    parent_runs, change_runs = [], []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees, parent_commit = make_trees(Path(tmp), args.parent)
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            runs = {side: run_once(trees[side], args.workload, seed, seconds)
                    for side in order}
            parent_runs.append(runs["parent"])
            change_runs.append(runs["change"])
            print(f"seed {seed}: " + ", ".join(
                f"{side} cpu_s {runs[side]['metrics']['cpu_s']['value']:.4f}" for side in order
            ), flush=True)

    report = {"change": args.change}
    if args.out.exists():
        report = json.loads(args.out.read_text(encoding="utf-8"))
        report["change"] = args.change or report.get("change")
    report.update(parent_commit=parent_commit, command=COMMAND.format(seconds=seconds),
                  method=METHOD, facts=change_runs[0]["facts"])
    if args.claim:
        report["claimed"] = {"workload": args.workload, "metric": args.claim}
    summary = summarize(parent_runs, change_runs, better)
    report.setdefault("workloads", {})[args.workload] = {"seeds": args.seeds, **summary}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, m in summary["metrics"].items():
        rel = "n/a" if m["median_rel_change"] is None else f"{m['median_rel_change']:+.1%}"
        print(f"{args.workload} {name}: parent {m['parent_median']} "
              f"[{m['parent_q1']}, {m['parent_q3']}] -> change {m['change_median']} ({rel}), "
              f"change better in {m['change_better_pairs']}/{summary['pairs']}, "
              f"gain met: {m['gain_met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
