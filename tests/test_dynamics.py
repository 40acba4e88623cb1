import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrodyn.dynamics import (
    IntegratorConfig,
    _step,
    LindbladModel,
    convergence_order_check,
    final_state,
    liouvillian_rhs,
    propagate,
)
from entrodyn.errors import (
    ConfigError,
    DimMismatchError,
    NotHermitianError,
    PositivityLostError,
)
from entrodyn.models import PAULI_Z, SIGMA_MINUS, get_model, named_state
from entrodyn.operators import adjoint, ginibre_matrix, ginibre_state, gue_hermitian

EXCITED = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def brute_dissipator(op, rho):
    """Independent reference: the defining matrix products, spelled out."""
    op_dag = op.conj().T
    return op @ rho @ op_dag - 0.5 * (op_dag @ op @ rho + rho @ op_dag @ op)


def random_model(d, seed, n_channels=1):
    channels = tuple(ginibre_matrix(d, seed + 100 + j) for j in range(n_channels))
    return LindbladModel(gue_hermitian(d, seed), channels, label=f"rand{seed}")


class TestLindbladModel:
    def test_rejects_nonhermitian_hamiltonian(self):
        with pytest.raises(NotHermitianError):
            LindbladModel(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_channel_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            LindbladModel(np.zeros((2, 2)), (np.zeros((3, 3)),))

    def test_arrays_are_frozen(self):
        model = get_model("dephasing")
        with pytest.raises(ValueError):
            model.hamiltonian[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.channels[0][0, 0] = 1.0

    def test_dim(self):
        assert get_model("truncated_oscillator", {"d": 5}).dim == 5

    def test_channel_data_is_derived_and_read_only(self):
        model = random_model(3, seed=5, n_channels=2)
        derived = zip(
            model.channels, model.channel_adjoints, model.channel_squares, model.channel_norms_sq
        )
        for c, c_dag, sq, norm in derived:
            assert np.array_equal(c_dag, adjoint(c))
            assert c_dag.flags.c_contiguous
            assert np.array_equal(sq, adjoint(c) @ c)
            assert norm == float(np.sum(np.abs(c) ** 2))
        assert not model.channels_hermitian
        assert get_model("depolarizing").channels_hermitian
        assert not get_model("amplitude_damping").channels_hermitian
        assert LindbladModel(np.zeros((2, 2))).channels_hermitian  # vacuously
        with pytest.raises(TypeError):
            LindbladModel(np.zeros((2, 2)), channels_hermitian=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.channels_hermitian = True
        with pytest.raises(ValueError):
            model.channel_norms_sq[0] = 0.0
        with pytest.raises(ValueError):
            model.channel_squares[0][0, 0] = 0.0
        with pytest.raises(ValueError):
            model.channel_adjoints[0][0, 0] = 0.0
        rebuilt = dataclasses.replace(model, channels=model.channels[:1])
        assert rebuilt.channel_norms_sq.shape == (1,)


class TestIntegratorConfig:
    def test_rejects_dt_not_below_t_max(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=1.0, t_max=1.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.1, t_max=1.0, record_stride=0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(dt=0.0, t_max=1.0)

    def test_n_steps_rounds(self):
        assert IntegratorConfig(dt=1e-3, t_max=1.0).n_steps == 1000


def single_channel_rhs(op, rho):
    """liouvillian_rhs of the model with H = 0 and the one channel ``op``."""
    op = np.asarray(op, dtype=complex)
    return liouvillian_rhs(LindbladModel(np.zeros(op.shape), (op,)), rho)


class TestDissipator:
    def test_identity_channel_is_zero(self):
        rho = ginibre_state(2, seed=4)
        assert_allclose(single_channel_rhs(np.identity(2), rho), np.zeros((2, 2)), atol=1e-14)

    def test_decay_from_excited(self):
        out = single_channel_rhs(SIGMA_MINUS, EXCITED)
        assert_allclose(out, np.diag([-1.0, 1.0]), atol=1e-14)

    def test_dephasing_kills_coherence(self):
        out = single_channel_rhs(PAULI_Z, PLUS)
        # brute-force product: sigma_z rho sigma_z flips the off-diagonal sign
        assert_allclose(out, brute_dissipator(np.asarray(PAULI_Z), PLUS), atol=1e-14)
        assert_allclose(np.diag(out), [0.0, 0.0], atol=1e-14)
        assert_allclose(out[0, 1], -2.0 * PLUS[0, 1], atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_traceless_and_hermitian(self, d):
        for i in range(20):
            op = ginibre_matrix(d, seed=300 + i)
            rho = ginibre_state(d, seed=400 + i)
            out = single_channel_rhs(op, rho)
            assert_allclose(out, brute_dissipator(op, rho), atol=1e-12)
            assert abs(np.trace(out)) <= 1e-10 * max(1.0, np.linalg.norm(out))
            assert np.linalg.norm(out - adjoint(out)) <= 1e-10 * max(1.0, np.linalg.norm(out))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            single_channel_rhs(np.identity(3), PLUS)


class TestLiouvillianRhs:
    def test_trivial_generator(self):
        model = LindbladModel(np.zeros((2, 2)))
        assert_allclose(liouvillian_rhs(model, PLUS), np.zeros((2, 2)), atol=1e-15)

    def test_commuting_diagonals(self):
        model = LindbladModel(PAULI_Z)
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert_allclose(liouvillian_rhs(model, rho), np.zeros((2, 2)), atol=1e-15)

    def test_amplitude_damping_matches_dissipator(self):
        model = get_model("amplitude_damping")
        assert_allclose(
            liouvillian_rhs(model, EXCITED), brute_dissipator(SIGMA_MINUS, EXCITED), atol=1e-14
        )

    def test_traceless_hermitian_random(self):
        for i in range(10):
            model = random_model(3, seed=37 + i, n_channels=2)
            rho = ginibre_state(3, seed=900 + i)
            out = liouvillian_rhs(model, rho)
            assert abs(np.trace(out)) <= 1e-9
            assert np.linalg.norm(out - adjoint(out)) <= 1e-9


class TestPropagate:
    def test_zero_generator_is_identity_map(self):
        model = LindbladModel(np.zeros((2, 2)))
        rho0 = ginibre_state(2, seed=1)
        traj = propagate(model, rho0, IntegratorConfig(dt=1e-2, t_max=1.0, record_stride=100))
        assert np.linalg.norm(traj.states[-1] - rho0) <= 1e-12

    def test_dephasing_closed_form(self):
        # coherence decays as exp(-2 gamma t)
        traj = propagate(
            get_model("dephasing"),
            PLUS,
            IntegratorConfig(dt=1e-3, t_max=1.0, record_stride=1000),
        )
        expected = 0.5 * math.exp(-2.0)
        assert abs(traj.states[-1][0, 1] - expected) <= 1e-6

    def test_unitary_evolution_keeps_entropy_zero(self):
        model = LindbladModel(PAULI_Z)
        traj = propagate(model, PLUS, IntegratorConfig(dt=1e-3, t_max=1.0, record_stride=100))
        for rep in traj.reports:
            assert rep.entropy <= 1e-9

    def test_record_grid(self):
        traj = propagate(
            get_model("dephasing"), PLUS, IntegratorConfig(dt=1e-2, t_max=0.25, record_stride=10)
        )
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25])  # final step always recorded

    @pytest.mark.parametrize("seed", range(20))
    def test_trace_conservation_random_models(self, seed):
        d = 2 + seed % 3
        model = random_model(d, seed=5000 + seed, n_channels=1 + seed % 2)
        rho0 = ginibre_state(d, seed=6000 + seed)
        traj = propagate(model, rho0, IntegratorConfig(dt=1e-3, t_max=1.0, record_stride=250))
        assert np.all(traj.trace_errors <= 1e-7)

    def test_trace_conservation_long_horizon(self):
        traj = propagate(
            get_model("driven_qubit"),
            named_state("ground", 2),
            IntegratorConfig(dt=1e-3, t_max=10.0, record_stride=2000),
        )
        assert np.all(traj.trace_errors <= 1e-7)

    def test_hermiticity_at_recorded_steps_without_hermitization(self):
        model = random_model(3, seed=71, n_channels=2)
        rho0 = ginibre_state(3, seed=72)
        for stride in (1, 7, 100):
            cfg = IntegratorConfig(dt=1e-3, t_max=0.5, record_stride=stride)
            for state in propagate(model, rho0, cfg).states:
                assert np.array_equal(state, adjoint(state))
        # Between records the plain RK4 map barely leaves the Hermitian
        # matrices, which is why projecting only recorded states suffices.
        state = rho0
        for _ in range(500):
            state = _step(model, state, 1e-3)
            assert np.linalg.norm(state - adjoint(state)) <= 1e-9

    def test_purity_never_increases_under_dephasing(self):
        traj = propagate(
            get_model("dephasing"), PLUS, IntegratorConfig(dt=1e-3, t_max=2.0, record_stride=50)
        )
        purity = [float(np.trace(s @ s).real) for s in traj.states]
        assert np.all(np.diff(purity) <= 1e-9)

    def test_linearity(self):
        model = get_model("driven_qubit")
        rho_a = ginibre_state(2, seed=21)
        rho_b = ginibre_state(2, seed=22)
        cfg = IntegratorConfig(dt=1e-2, t_max=1.0)
        mixed = final_state(model, 0.5 * (rho_a + rho_b), cfg)
        separate = 0.5 * (final_state(model, rho_a, cfg) + final_state(model, rho_b, cfg))
        assert np.linalg.norm(mixed - separate) <= 1e-8

    @pytest.mark.parametrize("stride", [1, 7, 1000])
    def test_final_state_is_last_recorded_state(self, stride):
        model = random_model(3, seed=81, n_channels=2)
        rho0 = ginibre_state(3, seed=82)
        cfg = IntegratorConfig(dt=1e-2, t_max=0.5, record_stride=stride)
        last_recorded = propagate(model, rho0, cfg).states[-1]
        assert np.array_equal(final_state(model, rho0, cfg), last_recorded)

    def test_positivity_lost_reports_time(self):
        # dt far beyond the stability boundary makes the coherence overshoot,
        # driving an eigenvalue of the pure plus state negative on step one.
        with pytest.raises(PositivityLostError) as excinfo:
            propagate(get_model("dephasing"), PLUS, IntegratorConfig(dt=1.5, t_max=3.0))
        assert excinfo.value.time == pytest.approx(1.5)
        assert "smaller dt" in str(excinfo.value)


class TestConvergenceOrder:
    def test_dephasing_is_fourth_order(self):
        order = convergence_order_check(
            get_model("dephasing"), PLUS, IntegratorConfig(dt=1e-2, t_max=1.0)
        )
        assert order == pytest.approx(4.0, abs=0.5)

    def test_amplitude_damping_is_fourth_order(self):
        order = convergence_order_check(
            get_model("amplitude_damping"), EXCITED, IntegratorConfig(dt=1e-2, t_max=1.0)
        )
        assert order == pytest.approx(4.0, abs=0.5)

    def test_zero_generator_not_applicable(self):
        model = LindbladModel(np.zeros((2, 2)))
        assert convergence_order_check(model, PLUS, IntegratorConfig(dt=1e-2, t_max=1.0)) is None

    def test_needs_at_least_two_steps(self):
        with pytest.raises(ConfigError):
            convergence_order_check(
                get_model("dephasing"), PLUS, IntegratorConfig(dt=0.9, t_max=1.0)
            )
