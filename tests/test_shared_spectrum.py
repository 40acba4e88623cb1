"""One eigendecomposition per state; an SVD only for an uncertified steady state.

The counts wrap ``numpy.linalg`` for the length of one test, so every call the
package makes is seen whichever module makes it. A call on an (n, d, d) stack
decomposes n matrices.
"""

import importlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from entrodyn import cli, dynamics, entropy_bounds, operators
from entrodyn.cli import main
from entrodyn.dynamics import IntegratorConfig, LindbladModel, propagate
from entrodyn.entropy_bounds import (
    bound_report,
    log_inequality_check,
    stack_size,
    trace_square_audit,
)
from entrodyn.errors import DegenerateSteadyStateError, NotDensityError
from entrodyn.models import PAULI_Z, SIGMA_MINUS, get_model
from entrodyn.operators import ginibre_state
from entrodyn.steady_state import steady_state


@pytest.fixture
def linalg_calls(monkeypatch):
    """Matrices decomposed per routine; ``.largest`` holds the most one call took."""
    counts, largest = Counter(), Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            matrices = math.prod(np.shape(a)[:-2])
            counts[_name] += matrices
            largest[_name] = max(largest[_name], matrices)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    counts.largest = largest
    return counts


@pytest.mark.parametrize(
    "name, params, d",
    [("depolarizing", {}, 2), ("driven_qubit", {}, 2), ("truncated_oscillator", {"d": 4}, 4)],
)
def test_propagate_decomposes_each_record_once(linalg_calls, name, params, d):
    cfg = IntegratorConfig(dt=1e-3, t_max=0.05, record_stride=4)
    traj = propagate(get_model(name, params), ginibre_state(d, seed=3), cfg)
    # one eigh per recorded state: the input gate's is record 0's
    assert linalg_calls == Counter(eigh=len(traj.reports))
    assert linalg_calls.largest["eigh"] <= stack_size(d)


def test_propagate_splits_long_runs_into_stacks(linalg_calls):
    d = 32
    cfg = IntegratorConfig(dt=1e-3, t_max=0.15, record_stride=1)
    traj = propagate(get_model("truncated_oscillator", {"d": d}), ginibre_state(d, seed=4), cfg)
    assert len(traj.reports) == 151 > 2 * stack_size(d)
    assert linalg_calls == Counter(eigh=151)
    assert linalg_calls.largest["eigh"] == stack_size(d)


@pytest.mark.parametrize("d, count", [(2, 7), (3, 5), (64, 40)])
def test_audit_decomposes_each_case_once(tmp_path, linalg_calls, d, count):
    config = tmp_path / "audit.json"
    config.write_text(json.dumps({"d": d, "count": count, "seed": 11}))
    assert main(["audit", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    assert linalg_calls == Counter(eigh=count)
    assert linalg_calls.largest["eigh"] == min(count, stack_size(d))


def test_cli_simulate_decomposes_its_initial_state_once(tmp_path, linalg_calls):
    config = tmp_path / "simulate.json"
    config.write_text(json.dumps({
        "model": {"name": "depolarizing"},
        "initial_state": "plus",
        "integrator": {"dt": 0.1, "t_max": 1.0, "record_stride": 5},
    }))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    records = len(out.read_text().splitlines()) - 1
    assert records == 3
    # one eigh per record; the integrator's input gate, the state's only gate, is record 0's
    assert linalg_calls == Counter(eigh=records)


def test_cli_bounds_decomposes_its_state_once(tmp_path, linalg_calls):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"model": {"name": "depolarizing"}, "initial_state": "plus"}))
    assert main(["bounds", "--config", str(config), "--out", str(tmp_path / "out.json")]) == 0
    assert linalg_calls == Counter(eigh=1)


@pytest.mark.parametrize("name, params, code, expected", [
    ("driven_qubit", {}, 0, Counter(eigh=1)),
    ("truncated_oscillator", {"d": 5}, 0, Counter(eigh=1)),
    # degenerate: G is four blocks of one (three built), whose singular values are their moduli
    ("dephasing", {}, 5, Counter()),
])
def test_cli_steady_decomposes_its_state_once(tmp_path, linalg_calls, name, params, code,
                                              expected):
    # the validation gate's spectrum also gives the entropy and the floor
    config = tmp_path / "steady.json"
    config.write_text(json.dumps({"model": {"name": name, "params": params}}))
    assert main(["steady", "--config", str(config), "--out", str(tmp_path / "out.json")]) == code
    assert linalg_calls == expected


def test_steady_state_takes_the_generator_magnitudes_once(monkeypatch):
    calls = []
    original = dynamics._magnitudes

    def counted(blocks):
        calls.append([idx.shape for idx, _, _ in blocks])
        return original(blocks)

    monkeypatch.setattr(dynamics, "_magnitudes", counted)
    # also wherever the solver module may import it by name
    solver = importlib.import_module("entrodyn.steady_state")
    monkeypatch.setattr(solver, "_magnitudes", counted, raising=False)
    steady_state(get_model("truncated_oscillator", {"d": 5}))
    # three blocks of 5: n - m = 0; one of +-1 beside +-4, of +-2 beside +-3
    assert calls == [[(3, 5)]]


@pytest.mark.parametrize(
    "name, params", [("driven_qubit", {}), ("truncated_oscillator", {"d": 5})]
)
def test_certified_steady_state_runs_no_svd(linalg_calls, name, params):
    steady_state(get_model(name, params))
    assert linalg_calls["svd"] == 0


def test_degenerate_steady_state_runs_one_svd(linalg_calls):
    # rho's diagonal is one 2 x 2 block of G, and its null directions one SVD's
    weak = LindbladModel(np.diag([0.5, -0.5]), (PAULI_Z, math.sqrt(1e-12) * SIGMA_MINUS))
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(weak)
    assert linalg_calls["svd"] == 1
    # dephasing's G is four blocks of one, of which three are built (rho[1, 0] is
    # rho[0, 1]'s conjugate): their singular values are their moduli
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(get_model("dephasing"))
    assert linalg_calls["svd"] == 1


@pytest.mark.parametrize(
    "rho",
    [
        np.diag([0.9, 0.3]).astype(complex),  # trace 1.2
        np.diag([1.2, -0.2]).astype(complex),  # negative eigenvalue
        np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex),  # not Hermitian
    ],
)
def test_single_state_functions_gate_their_state(rho):
    model = get_model("depolarizing")
    with pytest.raises(NotDensityError):
        bound_report(model, rho)
    with pytest.raises(NotDensityError):
        trace_square_audit(np.identity(2), rho)
    with pytest.raises(NotDensityError):
        log_inequality_check(rho)


@pytest.fixture
def gate_calls(monkeypatch):
    """Stack sizes passed to the density gate, under each name it is called by."""
    sizes = []
    original = operators.density_spectra

    def counted(states, **tols):
        sizes.append(len(states))
        return original(states, **tols)

    monkeypatch.setattr(operators, "density_spectra", counted)
    monkeypatch.setattr(entropy_bounds, "density_spectra", counted)
    monkeypatch.setattr(dynamics, "density_spectra", counted)
    monkeypatch.setattr(cli, "density_spectra", counted)
    return sizes


@pytest.mark.parametrize("d, count", [(2, 7), (64, 40)])
def test_audit_gates_each_stack_once(tmp_path, gate_calls, d, count):
    config = tmp_path / "audit.json"
    config.write_text(json.dumps({"d": d, "count": count, "seed": 11}))
    assert main(["audit", "--config", str(config), "--out", str(tmp_path / "out.csv")]) == 0
    size = stack_size(d)
    assert gate_calls == [min(size, count - start) for start in range(0, count, size)]


def test_propagate_gates_only_its_initial_state(gate_calls):
    d = 32
    cfg = IntegratorConfig(dt=1e-3, t_max=0.15, record_stride=1)
    traj = propagate(get_model("truncated_oscillator", {"d": d}), ginibre_state(d, seed=4), cfg)
    assert len(traj.reports) == 151
    # record 0 reuses the input gate's spectrum, the later records _health_check's
    assert gate_calls == [1]


def test_strict_gate_is_at_least_as_strict_as_entropy_gate():
    # what lets bound_reports take the records' STRICT_GATE spectra as they are
    assert operators.STRICT_GATE.keys() == operators.ENTROPY_GATE.keys()
    for key, tol in operators.STRICT_GATE.items():
        assert tol <= operators.ENTROPY_GATE[key], key
