import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrodyn.dynamics import (
    IntegratorConfig,
    LindbladModel,
    final_state,
    liouvillian_rhs,
)
from entrodyn.entropy_bounds import steady_state_bound, von_neumann_entropy
from entrodyn.errors import DegenerateSteadyStateError, NoSteadyStateError
from entrodyn.models import SIGMA_MINUS, get_model, named_state
from entrodyn.operators import ginibre_matrix, ginibre_state, gue_hermitian, maximally_mixed
from entrodyn.steady_state import (
    build_superoperator,
    long_time_entropy,
    steady_state,
    unvec,
    vec,
)

UNIQUE_PRESETS = ("amplitude_damping", "depolarizing", "driven_qubit", "truncated_oscillator")


def slowest_rate(model):
    """Smallest non-zero decay rate, read off the generator spectrum."""
    eigs = np.linalg.eigvals(build_superoperator(model))
    rates = -eigs.real
    rates = rates[rates > 1e-9]
    return float(rates.min())


def test_vec_convention_roundtrip():
    x = ginibre_matrix(3, seed=1)
    assert np.array_equal(unvec(vec(x), 3), x)
    a = ginibre_matrix(3, seed=2)
    b = ginibre_matrix(3, seed=3)
    # column stacking: vec(A X B) = kron(B.T, A) vec(X)
    assert_allclose(np.kron(b.T, a) @ vec(x), vec(a @ x @ b), atol=1e-12)


def test_zero_model_builds_zero_matrix():
    gen = build_superoperator(LindbladModel(np.zeros((3, 3))))
    assert np.array_equal(gen, np.zeros((9, 9)))


def test_superoperator_matches_dissipator_on_excited_state():
    model = get_model("amplitude_damping")
    gen = build_superoperator(model)
    excited = np.diag([1.0, 0.0]).astype(complex)
    applied = unvec(gen @ vec(excited), 2)
    single_channel = LindbladModel(np.zeros((2, 2)), (SIGMA_MINUS,))
    assert_allclose(applied, liouvillian_rhs(single_channel, excited), atol=1e-12)


def test_superoperator_self_check_random_model():
    model = LindbladModel(
        gue_hermitian(3, seed=14),
        (ginibre_matrix(3, seed=15), ginibre_matrix(3, seed=16)),
    )
    gen = build_superoperator(model)  # raises on self-check failure
    for seed in range(10):
        rho = ginibre_state(3, seed)
        residual = unvec(gen @ vec(rho), 3) - liouvillian_rhs(model, rho)
        assert np.linalg.norm(residual) <= 1e-10


@pytest.mark.parametrize("name", UNIQUE_PRESETS + ("dephasing",))
def test_generator_spectrum_is_stable(name):
    gen = build_superoperator(get_model(name))
    assert np.linalg.eigvals(gen).real.max() <= 1e-9


class TestSteadyState:
    def test_amplitude_damping_relaxes_to_ground(self):
        rho = steady_state(get_model("amplitude_damping"))
        assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-9)
        assert von_neumann_entropy(rho) <= 1e-9
        gen = build_superoperator(get_model("amplitude_damping"))
        assert np.linalg.norm(gen @ vec(rho)) <= 1e-9

    def test_depolarizing_relaxes_to_maximally_mixed(self):
        rho = steady_state(get_model("depolarizing"))
        assert_allclose(rho, maximally_mixed(2), atol=1e-10)

    def test_pure_dephasing_is_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError) as excinfo:
            steady_state(get_model("dephasing"))
        assert excinfo.value.null_dimension == 2

    def test_driven_qubit_is_unique_and_full_rank(self):
        rho = steady_state(get_model("driven_qubit"))
        assert np.all(np.linalg.eigvalsh(rho) > 1e-3)

    def test_absurd_tolerance_finds_no_null_space(self):
        # the driven qubit's null direction is generic, so its smallest
        # singular value sits at roundoff scale, above an absurd cutoff
        with pytest.raises(NoSteadyStateError):
            steady_state(get_model("driven_qubit"), tol=1e-22)

    @pytest.mark.parametrize("name", UNIQUE_PRESETS)
    def test_consistency_with_long_propagation(self, name):
        model = get_model(name)
        rho_inf = steady_state(model)
        t_long = 50.0 / slowest_rate(model)
        cfg = IntegratorConfig(dt=5e-3, t_max=t_long)
        propagated = final_state(model, ginibre_state(model.dim, seed=17), cfg)
        assert np.linalg.norm(propagated - rho_inf) <= 1e-5


class TestBoundValidity:
    @pytest.mark.parametrize("name", ("depolarizing", "driven_qubit"))
    def test_long_time_entropy_respects_floor(self, name):
        # the central claim: the entropy surviving at long times is at least
        # the floor computed from the steady state alone
        model = get_model(name)
        rho_inf = steady_state(model)
        floor = steady_state_bound(model, rho_inf).entropy_floor
        t_long = 50.0 / slowest_rate(model)
        cfg = IntegratorConfig(dt=5e-3, t_max=1.0)
        s_inf = long_time_entropy(model, named_state("ground", 2), t_long, cfg)
        assert s_inf >= floor - 1e-6
        assert abs(s_inf - von_neumann_entropy(rho_inf)) <= 1e-6


class TestLongTimeEntropy:
    def test_depolarizing_reaches_log_two(self):
        cfg = IntegratorConfig(dt=1e-3, t_max=1.0)
        value = long_time_entropy(
            get_model("depolarizing"), named_state("ground", 2), 50.0, cfg
        )
        assert abs(value - math.log(2)) <= 1e-6

    def test_amplitude_damping_purifies(self):
        cfg = IntegratorConfig(dt=1e-3, t_max=1.0)
        value = long_time_entropy(
            get_model("amplitude_damping"), maximally_mixed(2), 50.0, cfg
        )
        assert value <= 1e-6

    def test_hamiltonian_only_preserves_entropy(self):
        model = LindbladModel(gue_hermitian(2, seed=5))
        rho0 = ginibre_state(2, seed=6)
        cfg = IntegratorConfig(dt=1e-3, t_max=1.0)
        value = long_time_entropy(model, rho0, 2.0, cfg)
        assert abs(value - von_neumann_entropy(rho0)) <= 1e-9
