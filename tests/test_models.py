import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrodyn.dynamics import IntegratorConfig, propagate
from entrodyn.errors import BadParamsError, UnknownModelError
from entrodyn.models import (
    MAX_DIM,
    PAULI_Z,
    SIGMA_MINUS,
    get_model,
    list_models,
    lowering_operator,
    named_state,
)
from entrodyn.operators import frobenius_norm_sq, maximally_mixed

PRESET_NAMES = (
    "dephasing",
    "amplitude_damping",
    "depolarizing",
    "driven_qubit",
    "truncated_oscillator",
)


def test_catalog_names_and_order():
    assert tuple(s.name for s in list_models()) == PRESET_NAMES
    assert tuple(s.name for s in list_models()) == PRESET_NAMES  # stable across calls


def test_catalog_round_trips_with_defaults():
    for spec in list_models():
        model = get_model(spec.name)
        assert model.label == spec.name
        assert model.dim >= 2


def test_dephasing_definition():
    model = get_model("dephasing", {"gamma": 1.0})
    assert np.array_equal(model.hamiltonian, np.zeros((2, 2)))
    assert len(model.channels) == 1
    assert_allclose(model.channels[0], PAULI_Z)


def test_depolarizing_channel_weights():
    model = get_model("depolarizing", {"gamma": 2.0})
    assert len(model.channels) == 3
    for channel in model.channels:
        assert abs(frobenius_norm_sq(channel) - 4.0) <= 1e-12


def test_driven_qubit_structure():
    model = get_model("driven_qubit", {"omega": 0.5, "gamma": 2.0})
    assert_allclose(model.hamiltonian, 0.5 * np.array([[0, 1], [1, 0]]))
    assert_allclose(model.channels[0], math.sqrt(2.0) * np.asarray(SIGMA_MINUS))


def test_truncated_oscillator_ladder():
    model = get_model("truncated_oscillator", {"d": 4, "omega": 1.0, "gamma": 0.5})
    channel = model.channels[0]
    sub = np.diag(channel, k=-1)
    # sub-diagonal carries sqrt(n) for each source level, scaled by sqrt(gamma)
    assert_allclose(sorted(np.abs(sub)), math.sqrt(0.5) * np.sqrt([1.0, 2.0, 3.0]))
    assert np.count_nonzero(channel) == 3
    # H = omega a^dag a counts quanta per level, ground level last
    a = lowering_operator(4)
    assert_allclose(model.hamiltonian, a.conj().T @ a)
    assert_allclose(np.diag(model.hamiltonian).real, [3.0, 2.0, 1.0, 0.0])


def test_qubit_ladder_reduces_to_sigma_minus():
    assert np.array_equal(lowering_operator(2), SIGMA_MINUS)


def test_building_twice_is_identical():
    for spec in list_models():
        a = get_model(spec.name)
        b = get_model(spec.name)
        assert np.array_equal(a.hamiltonian, b.hamiltonian)
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca, cb)


def test_unknown_model():
    with pytest.raises(UnknownModelError):
        get_model("nope")


def test_bad_params():
    with pytest.raises(BadParamsError):
        get_model("dephasing", {"gamma": -1.0})
    with pytest.raises(BadParamsError):
        get_model("dephasing", {"omega": 1.0})  # not a dephasing parameter
    with pytest.raises(BadParamsError):
        get_model("truncated_oscillator", {"d": 1})
    with pytest.raises(BadParamsError):
        get_model("truncated_oscillator", {"d": 2.5})
    with pytest.raises(BadParamsError):
        get_model("truncated_oscillator", {"d": MAX_DIM + 1})
    with pytest.raises(BadParamsError):
        get_model("depolarizing", {"gamma": True})
    # ints past the float range, on which math.isfinite overflows
    with pytest.raises(BadParamsError, match="^parameter 'gamma' must be a finite number$"):
        get_model("dephasing", {"gamma": 10**400})
    with pytest.raises(BadParamsError, match="^parameter 'd' must be a finite number$"):
        get_model("truncated_oscillator", {"d": 10**400})
    with pytest.raises(BadParamsError):
        lowering_operator(1)


def test_named_states():
    assert_allclose(named_state("maximally_mixed", 3), maximally_mixed(3))
    ground = named_state("ground", 2)
    assert_allclose(ground, np.diag([0.0, 1.0]))
    plus = named_state("plus", 2)
    assert_allclose(plus, np.full((2, 2), 0.5))
    with pytest.raises(BadParamsError):
        named_state("left", 2)


class TestAnalyticAnchors:
    """Each preset is checked against its closed form at gamma = 1, t = 1."""

    CFG = IntegratorConfig(dt=1e-3, t_max=1.0, record_stride=1000)

    def test_dephasing_coherence_decay(self):
        traj = propagate(get_model("dephasing"), named_state("plus", 2), self.CFG)
        expected = 0.5 * math.exp(-2.0)
        assert abs(traj.states[-1][0, 1] - expected) <= 1e-6

    def test_amplitude_damping_population_decay(self):
        excited = np.diag([1.0, 0.0]).astype(complex)
        traj = propagate(get_model("amplitude_damping"), excited, self.CFG)
        assert abs(traj.states[-1][0, 0] - math.exp(-1.0)) <= 1e-6

    def test_depolarizing_contracts_to_maximally_mixed(self):
        rho0 = named_state("plus", 2)
        traj = propagate(get_model("depolarizing"), rho0, self.CFG)
        expected = maximally_mixed(2) + math.exp(-4.0) * (rho0 - maximally_mixed(2))
        assert np.linalg.norm(traj.states[-1] - expected) <= 1e-6
