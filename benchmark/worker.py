"""Runs one workload's invocations in passes, in-process through ``entrodyn.cli.main``.

Usage: ``python3 benchmark/worker.py PLAN.json RESULT.json``. ``run.py`` starts
it as a fresh process per run, so its peak RSS is the workload's. One
untimed warm-up pass comes first; timed passes follow until ``seconds`` of wall
time have gone by, and at least two run. Each pass records its wall time, the
process's CPU time and that of a calibration kernel run just before it. With
``trace`` set, timed passes alternate between untraced and traced, so both
see the same machine state. Without it, ``setup_probes`` fresh interpreters
time the set-up, spread over the run, each just after a baseline interpreter
that imports numpy and no entrodyn.

Each distinct output of an invocation is kept once and written to
``<out>.<variant>`` when the run ends; spans go to ``spans.json``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback

import tracing


def blas_facts() -> dict:
    """BLAS vendor and the thread count the library reports, if it says."""
    import numpy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {"numpy": numpy.__version__, "blas": info.get("name"),
            "blas_version": info.get("version"), "blas_threads": threads}


def calibration_kernel() -> float:
    """CPU time of a fixed numpy job that runs no entrodyn code.

    Small complex matrix products and eigendecompositions in a Python loop,
    then one SVD: the same kinds of work as the workloads. The host runs such
    code up to 2x slower for seconds to minutes at a time; the job, run just
    before each timed pass, measures by how much.
    """
    import numpy as np

    start = time.process_time()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    for _ in range(400):
        b = a @ h - h @ a
        np.linalg.eigh(h)
        h = 0.5 * (h + h.conj().T) + 1e-9 * b
    np.linalg.svd(rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96)))
    return time.process_time() - start


def child_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(argv: list[str]) -> float:
    """CPU time (user + system) of one fresh interpreter running ``argv``.

    The probe is the only child reaped while it runs, so the growth of the
    children's rusage is its own. CPU time rather than wall time, because on
    a shared host the wall time also counts the time the host runs others.
    The wait blocks and a timer kills a hung probe.
    """
    before = child_cpu()
    proc = subprocess.Popen(argv)
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        rc = proc.wait()
    finally:
        killer.cancel()
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}")
    return child_cpu() - before


def run_pass(main, plan, outputs, messages, tracer=None, index=0) -> dict:
    calls, wall, cpu = [], 0.0, 0.0
    for i, (argv, out) in enumerate(zip(plan["argvs"], plan["outs"])):
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        if tracer is not None:
            tracer.pass_index, tracer.request = index, i
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                rc = main(argv)
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            t1, cpu1 = time.perf_counter(), time.process_time()
        try:
            with open(out, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        variant = outputs[i].setdefault(data, len(outputs[i]))
        if err.getvalue():
            messages.setdefault(f"{i}:{rc}", err.getvalue()[-2000:])
        calls.append([rc, variant, t1 - t0, len(data), cpu1 - cpu0])
        wall += t1 - t0
        cpu += cpu1 - cpu0
    return {"wall": wall, "cpu": cpu, "calls": calls, "traced": tracer is not None}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import entrodyn.cli

    if not os.path.abspath(entrodyn.cli.__file__).startswith(plan["src"] + os.sep):
        print(f"entrodyn imported from {entrodyn.cli.__file__}, not {plan['src']}", file=sys.stderr)
        return 2
    cli_main = entrodyn.cli.main
    outputs = [{} for _ in plan["argvs"]]
    messages: dict[str, str] = {}
    tracer = tracing.Tracer() if plan["trace"] else None

    warmup = run_pass(cli_main, plan, outputs, messages)
    if plan["setup_probes"]:
        setup_probe(plan["setup_argv"])  # untimed: compiles bytecode, warms the file cache
    passes, setup_samples = [], []
    start = time.perf_counter()
    deadline = start + plan["seconds"]
    while len(passes) < 2 or time.perf_counter() < deadline:
        # Set-up probes are spread over the run so that they and the passes
        # see the same machine; the run is extended by the time they take.
        if len(setup_samples) < plan["setup_probes"] and (
            time.perf_counter() - start >= len(setup_samples) * plan["seconds"] / plan["setup_probes"]
        ):
            probe_start = time.perf_counter()
            baseline = setup_probe(plan["baseline_argv"])
            setup_samples.append([setup_probe(plan["setup_argv"]), baseline])
            deadline += time.perf_counter() - probe_start
            continue
        traced = tracer is not None and len(passes) % 2 == 1
        kernel = calibration_kernel()
        if not traced:
            record = run_pass(cli_main, plan, outputs, messages)
        else:
            tracer.install()
            try:
                record = run_pass(cli_main, plan, outputs, messages, tracer, len(passes))
            finally:
                tracer.uninstall()
            record.update(tracer.take_counters())
        record["kernel"] = kernel
        passes.append(record)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    variants = []
    for out, seen in zip(plan["outs"], outputs):
        names = []
        for data, k in seen.items():
            names.append(f"{out}.{k}")
            with open(names[-1], "wb") as fh:
                fh.write(data)
        variants.append(names)
    if tracer is not None:
        with open(os.path.join(os.path.dirname(result_path), "spans.json"), "w") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}, fh)
    result = {
        "warmup": warmup,
        "passes": passes,
        "setup_samples": setup_samples,
        "variants": variants,
        "messages": messages,
        "peak_rss_kb": rss_kb,
        "missing_targets": tracer.missing if tracer is not None else [],
        "facts": blas_facts(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
