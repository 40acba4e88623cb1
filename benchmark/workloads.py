"""The benchmark's workloads: the CLI invocations each one runs, built from a seed.

A workload is a list of invocations; one pass runs the list once, in order.
Sizes are set so that one pass takes about half a second of CPU time on a
2-core x86-64 machine with BLAS on one thread. A 20-second run then holds 20
or more passes even when the host takes half the wall time, enough for a
tail percentile with at least ten passes beyond it.

Why each workload exists:

* ``traj-steps``: ``simulate`` with a coarse record stride. The RK4 step loop
  does nearly all the work and ``bound_report`` almost none, so a propagator
  change shows here and a bound-family change should not.
* ``traj-records``: ``simulate`` recording every step. Per-record work
  (``bound_report``, the health gate, CSV formatting) dominates. The d=32
  oscillator sits above the dense-propagator crossover, so a propagator that
  wins at d=2/16 but loses at d=32 shows as a regression here.
* ``steady-scan``: ``steady`` on oscillators of growing dimension plus the
  qubit presets. The null-space SVD dominates time and peak memory; the step
  loop and per-record work are bypassed. ``dephasing`` must exit 5.
* ``audit-sweep``: ``audit`` at d=2 and d=8, the only workload that runs the
  random ensembles and the two inequality audits.

Trajectory initial states are full-rank Ginibre states drawn from the seed and
passed to the CLI as explicit matrices, and the audit seeds are drawn from it
too. ``steady-scan`` runs the presets at their default parameters whatever
the seed: the SVD's cost depends on the rates, and rates drawn per seed
spread its time across seeds by about 10%. Oscillators in trajectories use
gamma = 0.2 so no eigenvalue of a recorded state nears the 1e-14 log floor,
where the exact rate is too ill-conditioned to compare with a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("traj-steps", "traj-records", "steady-scan", "audit-sweep")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: ``entrodyn <command> --config <config>``, and its exit code."""

    name: str
    command: str
    config: dict
    expect_rc: int = 0


def ginibre_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr(G G^dag)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def matrix_json(a: np.ndarray) -> list:
    """Row-major nested [re, im] pairs, the CLI's matrix format."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _simulate(name, model, params, d, rng, t_max, stride):
    config = {
        "model": {"name": model, "params": params},
        "initial_state": matrix_json(ginibre_state(d, rng)),
        "integrator": {"dt": 1e-3, "t_max": t_max, "record_stride": stride},
    }
    return Invocation(name, "simulate", config)


def _traj_steps(rng, tiny):
    t_max, stride, osc_d = (0.02, 5, 4) if tiny else (0.75, 250, 16)
    return [
        _simulate("depolarizing", "depolarizing", {"gamma": 1.0}, 2, rng, t_max, stride),
        _simulate(
            "driven_qubit", "driven_qubit", {"omega": 1.0, "gamma": 1.0}, 2, rng, t_max, stride
        ),
        _simulate(
            f"oscillator_d{osc_d}",
            "truncated_oscillator",
            {"d": osc_d, "omega": 1.0, "gamma": 0.2},
            osc_d,
            rng,
            t_max,
            stride,
        ),
    ]


def _traj_records(rng, tiny):
    qubit_t, osc_t, osc_d = (0.01, 0.005, 4) if tiny else (0.3, 0.08, 32)
    return [
        _simulate("depolarizing", "depolarizing", {"gamma": 1.0}, 2, rng, qubit_t, 1),
        _simulate(
            f"oscillator_d{osc_d}",
            "truncated_oscillator",
            {"d": osc_d, "omega": 1.0, "gamma": 0.2},
            osc_d,
            rng,
            osc_t,
            1,
        ),
    ]


def _steady_scan(rng, tiny):
    invocations = [
        Invocation(f"oscillator_d{d}", "steady",
                   {"model": {"name": "truncated_oscillator", "params": {"d": d}}})
        for d in ((3, 4) if tiny else (16, 24))
    ]
    for name in ("driven_qubit", "depolarizing", "amplitude_damping", "dephasing"):
        invocations.append(
            Invocation(name, "steady", {"model": {"name": name, "params": {}}},
                       expect_rc=5 if name == "dephasing" else 0)
        )
    return invocations


def _audit_sweep(rng, tiny):
    cases = ((2, 20), (3, 10)) if tiny else ((2, 1000), (8, 400))
    return [
        Invocation(
            f"audit_d{d}",
            "audit",
            {"d": d, "count": count, "seed": int(rng.integers(0, 2**31))},
        )
        for d, count in cases
    ]


_BUILDERS = {
    "traj-steps": _traj_steps,
    "traj-records": _traj_records,
    "steady-scan": _steady_scan,
    "audit-sweep": _audit_sweep,
}


def build(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    """The invocation list of ``workload``; the same seed gives the same inputs."""
    return _BUILDERS[workload](np.random.default_rng(seed), size == "tiny")
