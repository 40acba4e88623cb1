"""The stacked evaluations against loops over the single-state APIs.

``audit`` and ``propagate`` evaluate cases and recorded states in stacks of at
most ``stack_size(d)``. Each test here rebuilds the same numbers one
state at a time through the single-state APIs and compares.
"""

import json

import numpy as np
import pytest

from entrodyn.cli import main
from entrodyn import dynamics
from entrodyn.dynamics import (
    IntegratorConfig,
    LindbladModel,
    _health_check,
    _recorded_steps,
    propagate,
)
from entrodyn.entropy_bounds import (
    bound_report,
    log_inequality_check,
    stack_size,
    trace_square_audit,
)
from entrodyn.errors import EntrodynError, NumericsError, PositivityLostError
from entrodyn.models import PAULI_Z, get_model
from entrodyn.operators import ginibre_state, gue_hermitian, maximally_mixed
from oracles import records

TOL = 1e-12


def per_case_audit(d, count, seed):
    """The audit CSV rows and summary from one trace_square_audit and log check per case."""
    rows, trace_sq, log_ineq = [], 0, 0
    for i in range(count):
        if d == 2 and i == 0:
            case_id, channel, rho = "canned", PAULI_Z, maximally_mixed(2)
        else:
            case_id = f"case{i}"
            channel, rho = gue_hermitian(d, seed + 2 * i), ginibre_state(d, seed + 2 * i + 1)
        audit = trace_square_audit(channel, rho)
        log_min = log_inequality_check(rho)
        trace_sq += not audit.holds
        log_ineq += log_min < -1e-10
        rows.append((case_id, audit.lhs, audit.rhs, "true" if audit.holds else "false", log_min))
    return rows, (
        f"# summary: rows={count} trace_sq_violations={trace_sq} log_ineq_violations={log_ineq}"
    )


@pytest.mark.parametrize("d, count, seed", [
    *(pytest.param(d, count, 1000 + d, id=f"{d}-{count}")
      for d, count in [(2, 40), (3, 30), (8, 30), (64, 20)]),
    # one stack draws seeds on both sides of a uint32 word-count boundary
    pytest.param(2, 40, 2**32 - 20, id="2-40-across-2**32"),
    pytest.param(3, 30, 2**128 - 10, id="3-30-across-2**128"),
])
def test_audit_matches_the_per_case_loop(tmp_path, d, count, seed):
    assert count > stack_size(64)  # d=64 spans several stacks
    config, out = tmp_path / "audit.json", tmp_path / "audit.csv"
    config.write_text(json.dumps({"d": d, "count": count, "seed": seed}))
    assert main(["audit", "--config", str(config), "--out", str(out)]) == 0
    *lines, summary = out.read_text().splitlines()[1:]
    expected_rows, expected_summary = per_case_audit(d, count, seed)
    assert summary == expected_summary
    assert len(lines) == count
    for line, (case_id, lhs, rhs, holds, log_min) in zip(lines, expected_rows):
        fields = line.split(",")
        assert fields[0] == case_id and fields[3] == holds
        got = np.array([float(fields[k]) for k in (1, 2, 4)])
        assert np.max(np.abs(got - [lhs, rhs, log_min])) <= TOL


STACK_MODELS = {
    "oscillator": lambda d: get_model("truncated_oscillator", {"d": d}),
    # Hermitian channels, so the variance threshold is reported too
    "hermitian": lambda d: LindbladModel(gue_hermitian(d, 7), (0.3 * gue_hermitian(d, 8),)),
}


@pytest.mark.parametrize("name", sorted(STACK_MODELS))
def test_propagate_longer_than_a_stack_matches_per_record_reports(name):
    d = 16
    model = STACK_MODELS[name](d)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.3, record_stride=1)
    traj = propagate(model, ginibre_state(d, seed=5), cfg)
    assert len(traj.reports) == 301 > stack_size(d)
    for t, state, report, trace_err, min_eig in zip(
        traj.times, traj.states, traj.reports, traj.trace_errors, traj.min_eigs
    ):
        single = bound_report(model, state, t)
        for field in ("time", "entropy", "rate_exact", "rate_lower_bound",
                      "threshold_general", "threshold_variance"):
            got, want = getattr(report, field), getattr(single, field)
            assert (got is None and want is None) or abs(got - want) <= TOL, field
        assert report.monotone_guaranteed == single.monotone_guaranteed
        assert report.log_floor_hit == single.log_floor_hit
        assert abs(trace_err - abs(np.trace(state) - 1.0)) <= TOL
        assert abs(min_eig - np.linalg.eigvalsh(state)[0]) <= TOL


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("name, params, t_max", [
    ("depolarizing", {"gamma": 1.0}, 0.3),
    ("truncated_oscillator", {"d": 32, "omega": 1.0, "gamma": 0.2}, 0.08),
])
def test_trace_errors_are_each_records_own_trace(name, params, t_max, seed):
    # Bit for bit: the gathered stack sums its diagonals in the order np.trace does.
    model = get_model(name, params)
    cfg = IntegratorConfig(dt=1e-3, t_max=t_max, record_stride=1)
    traj = propagate(model, ginibre_state(model.dim, seed=seed), cfg)
    assert len(traj.states) == cfg.n_steps + 1
    assert traj.trace_errors.tolist() == [abs(np.trace(s) - 1.0) for s in traj.states]


def first_failure_per_record(model, rho0, cfg):
    """The error a gate on each record in turn raises first."""
    for k, state in records(_recorded_steps(model, rho0, cfg)):
        try:
            _health_check(state[None], [k * cfg.dt])
        except EntrodynError as exc:
            return exc
    return None


def unstable_decay():
    # dt * gamma = 3.5 lies outside the RK4 stability interval [-2.785, 0]: the
    # excited population grows by 2.73 per step from 1e-6, so the ground
    # population turns negative at step 14 and the state overflows at step 720.
    model = get_model("amplitude_damping")
    cfg = IntegratorConfig(dt=3.5, t_max=3.5 * 1000, record_stride=1)
    return model, np.diag([1e-6, 1.0 - 1e-6]).astype(complex), cfg


def test_gate_raises_a_mid_stack_positivity_loss_before_a_divergence():
    good, lost = maximally_mixed(2), np.diag([1.1, -0.1]).astype(complex)
    stack = np.stack([good, lost, good, np.full((2, 2), np.inf, dtype=complex)])
    with pytest.raises(PositivityLostError) as caught:
        _health_check(stack, [0.0, 0.5, 1.0, 1.5])
    assert caught.value.time == 0.5 and caught.value.min_eig == pytest.approx(-0.1)


def test_gate_raises_trace_drift():
    drifted = maximally_mixed(2) * (1 + 2e-9)  # positive semidefinite, trace 1 + 2e-9
    stack = np.stack([maximally_mixed(2), drifted, maximally_mixed(2)])
    with pytest.raises(NumericsError, match=r"^trace drift 2\.000e-09 exceeds 1\.0e-09 at "
                                            r"t=0\.5; reduce dt$"):
        _health_check(stack, [0.0, 0.5, 1.0])


def test_positivity_wins_when_one_record_fails_both_gates():
    both = np.diag([1.1, -0.1]).astype(complex) * (1 + 2e-9)
    with pytest.raises(PositivityLostError) as caught:
        _health_check(np.stack([maximally_mixed(2), both]), [0.0, 0.5])
    assert caught.value.time == 0.5 and caught.value.min_eig == pytest.approx(-0.1)


def test_positivity_loss_wins_over_a_later_divergence():
    # No numpy warning may escape.
    model, rho0, cfg = unstable_decay()
    expected = first_failure_per_record(model, rho0, cfg)
    assert isinstance(expected, PositivityLostError) and expected.time == 3.5 * 14
    with pytest.raises(PositivityLostError) as caught:
        propagate(model, rho0, cfg)
    assert str(caught.value) == str(expected)
    assert caught.value.time == expected.time and caught.value.min_eig == expected.min_eig


@pytest.mark.parametrize("loss_step", [14, 40, 200])
def test_failing_run_stops_within_twice_its_records(monkeypatch, loss_step):
    # Stacks of 1, 2, 4, ... records: the stack holding the failing record i
    # ends by record 2i, so at most 2i + 1 records are integrated.
    model, rho0, cfg = unstable_decay()
    rho0 = np.diag([1e-6 / 2.73 ** (loss_step - 14), 1.0]).astype(complex)
    rho0[1, 1] -= rho0[0, 0]
    expected = first_failure_per_record(model, rho0, cfg)
    assert isinstance(expected, PositivityLostError)
    failing = round(expected.time / cfg.dt)
    assert abs(failing - loss_step) <= 1
    yielded = []
    original = dynamics._recorded_steps

    def counted(*args):
        for ks, states in original(*args):
            yielded.extend(ks)
            yield ks, states

    monkeypatch.setattr(dynamics, "_recorded_steps", counted)
    with pytest.raises(PositivityLostError):
        propagate(model, rho0, cfg)
    assert failing < len(yielded) <= 2 * failing + 1
