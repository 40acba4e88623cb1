import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrodyn.dynamics import (
    IntegratorConfig,
    LindbladModel,
    _check_against_direct_map,
    final_state,
    liouvillian_rhs,
)
from entrodyn.entropy_bounds import steady_state_bound, von_neumann_entropy
from entrodyn.errors import DegenerateSteadyStateError, NoSteadyStateError, NumericsError
from entrodyn.models import PAULI_Z, SIGMA_MINUS, get_model, named_state
from entrodyn.operators import ginibre_matrix, ginibre_state, gue_hermitian, maximally_mixed
from entrodyn.steady_state import (
    _svd_solve,
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
    gen = build_superoperator(model)
    _check_against_direct_map(model, gen)  # raises on self-check failure
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


def kron_superoperator(model):
    """Oracle: the generator on column-stacked vec(rho) as a sum of Kronecker products."""
    eye = np.identity(model.dim)
    h = model.hamiltonian
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for channel, sq in zip(model.channels, model.channel_squares):
        gen = gen + np.kron(np.conj(channel), channel)
        gen = gen - 0.5 * np.kron(eye, sq) - 0.5 * np.kron(sq.T, eye)
    return gen


def random_model(d, seed, n_channels):
    channels = tuple(ginibre_matrix(d, 1000 * seed + k) for k in range(n_channels))
    return LindbladModel(gue_hermitian(d, seed), channels)


KRON_CASES = {
    **{name: lambda name=name: get_model(name) for name in UNIQUE_PRESETS + ("dephasing",)},
    "oscillator_d7": lambda: get_model("truncated_oscillator", {"d": 7}),
    # Hermitian only within 1e-10: rho is multiplied by H.T on the right, not conj(H)
    "nearly_hermitian_h": lambda: LindbladModel(
        gue_hermitian(3, 7) + 1e-11 * ginibre_matrix(3, 8), (ginibre_matrix(3, 9),)
    ),
    **{
        f"random_d{d}_{n}ch": lambda d=d, n=n: random_model(d, 40 + d, n)
        for d in range(1, 7)
        for n in (0, 1, 3)
    },
}


@pytest.mark.parametrize("name", sorted(KRON_CASES))
def test_superoperator_matches_kron_formula(name):
    model = KRON_CASES[name]()
    assert np.max(np.abs(build_superoperator(model) - kron_superoperator(model))) <= 1e-13


class TestSelfCheck:
    """The build's check against the direct map, at rates whose norms overflow."""

    def huge_model(self):
        return get_model("truncated_oscillator", {"d": 4, "gamma": 1e300})

    def test_huge_generator_passes(self):
        model = self.huge_model()
        _check_against_direct_map(model, build_superoperator(model))

    def test_disagreement_at_huge_scale_fails(self):
        model = self.huge_model()
        gen = build_superoperator(model).copy()
        gen[5, 2] += 1e-6 * np.max(np.abs(gen))
        with pytest.raises(NumericsError):
            _check_against_direct_map(model, gen)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_fails(self, bad):
        model = get_model("driven_qubit")
        gen = build_superoperator(model).copy()
        gen[1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            _check_against_direct_map(model, gen)


class TestCertifiedSolve:
    """The direct solve reproduces the SVD rule's outcomes and state."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-9])
    def test_weak_decay_gives_the_ground_state(self, eps):
        model = LindbladModel(np.diag([0.5, -0.5]), (PAULI_Z, math.sqrt(eps) * SIGMA_MINUS))
        assert_allclose(steady_state(model), np.diag([0.0, 1.0]), atol=1e-9)

    @pytest.mark.parametrize("eps", [1e-10, 1e-12, 0.0])
    def test_weaker_decay_is_degenerate(self, eps):
        model = LindbladModel(np.diag([0.5, -0.5]), (PAULI_Z, math.sqrt(eps) * SIGMA_MINUS))
        with pytest.raises(DegenerateSteadyStateError) as excinfo:
            steady_state(model)
        assert excinfo.value.null_dimension == 2

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_the_svd_state_on_random_models(self, d):
        for seed in range(8):
            model = random_model(d, seed, 1 + seed % 3)
            direct = steady_state(model)
            by_svd = _svd_solve(build_superoperator(model), d, 1e-10)
            assert np.max(np.abs(direct - by_svd)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 5])
    def test_absurd_tolerance_still_finds_no_null_space(self, d):
        # a generic null direction leaves a roundoff-sized smallest singular value
        with pytest.raises(NoSteadyStateError):
            steady_state(random_model(d, 5, 2), tol=1e-22)
