import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from entrodyn.dynamics import IntegratorConfig, LindbladModel, propagate
from entrodyn.entropy_bounds import (
    EIG_FLOOR,
    _entropies,
    bound_report,
    log_inequality_check,
    maximally_mixed_bound,
    stack_size,
    steady_state_bound,
    trace_square_audit,
    von_neumann_entropy,
)
from entrodyn.errors import (
    BadDimensionError,
    DimMismatchError,
    NoChannelsError,
    NotDensityError,
    NotHermitianError,
    ZeroChannelError,
)
from entrodyn.models import PAULI_Z, SIGMA_MINUS, get_model, list_models
from entrodyn.operators import (
    adjoint,
    frobenius_norm_sq,
    ginibre_matrix,
    ginibre_state,
    gue_hermitian,
    maximally_mixed,
)

PLUS = np.full((2, 2), 0.5, dtype=complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)
EXCITED = np.diag([1.0, 0.0]).astype(complex)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def single_channel_model(channel, hamiltonian=None):
    d = channel.shape[0]
    h = np.zeros((d, d)) if hamiltonian is None else hamiltonian
    return LindbladModel(h, (np.asarray(channel, dtype=complex),))


def random_unitary(d, seed):
    q, r = np.linalg.qr(ginibre_matrix(d, seed))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(PLUS) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(maximally_mixed(2)) - math.log(2)) <= 1e-12

    def test_diagonal_example(self):
        expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert abs(von_neumann_entropy(np.diag([0.75, 0.25])) - expected) <= 1e-12

    def test_rejects_non_density(self):
        with pytest.raises(NotDensityError):
            von_neumann_entropy(np.diag([0.9, 0.3]))

    @given(seed=seeds, d=st.sampled_from([2, 3, 4]))
    @settings(deadline=None, max_examples=50)
    def test_unitary_invariance(self, seed, d):
        rho = ginibre_state(d, seed)
        u = random_unitary(d, seed + 1)
        rotated = u @ rho @ adjoint(u)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(rho)) <= 1e-10

    @given(seed=seeds, d=st.sampled_from([2, 3, 4]))
    @settings(deadline=None, max_examples=50)
    def test_range(self, seed, d):
        s = von_neumann_entropy(ginibre_state(d, seed))
        assert 0.0 <= s <= math.log(d) + 1e-9

    @pytest.mark.parametrize("d", [2, 3, 8, 17, 64])
    def test_a_state_has_the_same_entropy_alone_as_in_any_stack(self, d):
        # Rows of every support size, with eigenvalues at, below and just above
        # EIG_FLOOR after the support, descending as hermitian_eig returns them.
        rng = np.random.default_rng(d)
        n = stack_size(d)
        lam = np.zeros((n, d))
        for row, k in zip(lam, rng.integers(1, d + 1, n)):
            weights = rng.random(k) ** rng.integers(1, 6)
            row[:k] = weights / weights.sum()
            row[k:] = rng.choice([0.0, -1e-16, 1e-15, EIG_FLOOR, 2 * EIG_FLOOR], d - k)
        lam = -np.sort(-lam, axis=1)
        alone = np.concatenate([_entropies(row[None]) for row in lam])
        for size in sorted({1, 3, 64, n}):
            stacked = np.concatenate([_entropies(lam[i:i + size]) for i in range(0, n, size)])
            assert np.array_equal(stacked.view(np.uint64), alone.view(np.uint64))
        assert np.all(alone >= 0.0)


class TestExactRate:
    def test_no_channels_is_exactly_zero(self):
        model = LindbladModel(gue_hermitian(3, seed=2))
        assert bound_report(model, ginibre_state(3, seed=3)).rate_exact == 0.0

    def test_dephasing_fixed_point(self):
        model = get_model("dephasing")
        assert abs(bound_report(model, maximally_mixed(2)).rate_exact) <= 1e-12

    def test_pure_state_saturates(self):
        model = get_model("amplitude_damping")
        assert bound_report(model, EXCITED).rate_exact == math.inf

    def test_matches_finite_differences_along_trajectory(self):
        model = get_model("dephasing")
        rho0 = 0.7 * PLUS + 0.3 * maximally_mixed(2)
        dt = 1e-4
        traj = propagate(model, rho0, IntegratorConfig(dt=dt, t_max=0.02, record_stride=1))
        entropies = [rep.entropy for rep in traj.reports]
        for k in range(1, len(entropies) - 1):
            fd = (entropies[k + 1] - entropies[k - 1]) / (2 * dt)
            rate = traj.reports[k].rate_exact
            assert abs(fd - rate) <= max(1e-4, 1e-3 * abs(rate))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_brute_force_matrix_log(self, d):
        # independent route: build ln(rho) explicitly and take the two traces
        for i in range(20):
            channel = ginibre_matrix(d, seed=7000 + i)
            model = single_channel_model(channel, hamiltonian=gue_hermitian(d, 7100 + i))
            rho = ginibre_state(d, seed=7200 + i)
            w, v = np.linalg.eigh(rho)
            log_rho = (v * np.log(w)) @ v.conj().T
            op_dag = adjoint(channel)
            expected = float(
                (
                    np.trace(op_dag @ channel @ rho @ log_rho)
                    - np.trace(channel @ rho @ op_dag @ log_rho)
                ).real
            )
            assert abs(bound_report(model, rho).rate_exact - expected) <= 1e-9


class TestRateLowerBound:
    def test_no_channels(self):
        model = LindbladModel(np.zeros((2, 2)))
        assert bound_report(model, PLUS).rate_lower_bound == 0.0

    def test_identity_channel_formula(self):
        # -d S + 1 - tr(rho^2), derived from |I|_F^2 = d and tr(rho) = 1
        for d, seed in ((2, 0), (3, 1), (4, 2)):
            rho = ginibre_state(d, seed)
            expected = (
                -d * von_neumann_entropy(rho) + 1.0 - float(np.trace(rho @ rho).real)
            )
            model = single_channel_model(np.identity(d, dtype=complex))
            assert abs(bound_report(model, rho).rate_lower_bound - expected) <= 1e-10

    def test_dephasing_value_at_maximally_mixed(self):
        model = get_model("dephasing")
        expected = -2.0 * math.log(2) + 0.5
        rep = bound_report(model, maximally_mixed(2))
        assert abs(rep.rate_lower_bound - expected) <= 1e-12
        # the exact rate (zero here) respects the bound
        assert rep.rate_exact >= rep.rate_lower_bound

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bound_holds_on_random_states(self, d):
        for i in range(100):
            channel = gue_hermitian(d, 100 + i) if i % 2 else ginibre_matrix(d, 100 + i)
            model = single_channel_model(channel, hamiltonian=gue_hermitian(d, 200 + i))
            rho = ginibre_state(d, 300 + i)
            rep = bound_report(model, rho)
            if math.isfinite(rep.rate_exact):
                assert rep.rate_exact >= rep.rate_lower_bound - 1e-8


class TestMonotonicityThreshold:
    def test_maximally_mixed_value(self):
        for d in (2, 3, 4):
            model = single_channel_model(ginibre_matrix(d, seed=d))
            expected = 1.0 / d - 1.0 / d**2
            value = bound_report(model, maximally_mixed(d)).threshold_general
            assert abs(value - expected) <= 1e-12

    def test_dark_state_gives_zero(self):
        model = get_model("amplitude_damping")
        assert abs(bound_report(model, GROUND).threshold_general) <= 1e-14

    def test_single_channel_at_most_one(self):
        for d in (2, 3, 4):
            for i in range(30):
                model = single_channel_model(ginibre_matrix(d, seed=1000 + i))
                rep = bound_report(model, ginibre_state(d, seed=2000 + i))
                assert rep.threshold_general <= 1.0 + 1e-10

    def test_errors(self):
        # the floor form raises; the per-state report leaves the threshold out
        with pytest.raises(NoChannelsError):
            steady_state_bound(LindbladModel(np.zeros((2, 2))), PLUS)
        with pytest.raises(ZeroChannelError):
            steady_state_bound(single_channel_model(np.zeros((2, 2))), PLUS)
        rep = bound_report(single_channel_model(np.zeros((2, 2))), PLUS)
        assert rep.threshold_general is None
        assert not rep.monotone_guaranteed


def variance_form(channel, rho):
    return bound_report(single_channel_model(channel), rho).threshold_variance


class TestVariance:
    # Var[L] / |L|_F^2 read from the report's threshold_variance
    def test_identity_has_no_fluctuation(self):
        assert abs(variance_form(np.identity(2), ginibre_state(2, seed=0))) <= 1e-12

    def test_sigma_z_maximally_mixed(self):
        # Var = 1 over |Z|_F^2 = 2
        assert abs(variance_form(PAULI_Z, maximally_mixed(2)) - 0.5) <= 1e-12

    def test_eigenstate_has_zero_variance(self):
        assert abs(variance_form(PAULI_Z, EXCITED)) <= 1e-12

    def test_rejects_nonhermitian(self):
        assert variance_form(SIGMA_MINUS, PLUS) is None
        mixed = LindbladModel(np.zeros((2, 2)), (PAULI_Z, SIGMA_MINUS))
        assert bound_report(mixed, maximally_mixed(2)).threshold_variance is None

    def test_threshold_examples(self):
        assert abs(variance_form(PAULI_Z, maximally_mixed(2)) - 0.5) <= 1e-12
        assert abs(variance_form(PAULI_Z, EXCITED)) <= 1e-12
        # multi-channel: sum_j Var[L_j] / sum_j |L_j|_F^2 = 3 / 6 at I/2
        rep = bound_report(get_model("depolarizing"), maximally_mixed(2))
        assert abs(rep.threshold_variance - 0.5) <= 1e-12

    def test_threshold_scale_invariance(self):
        for gamma in (0.3, 1.0, 7.5):
            scaled = math.sqrt(gamma) * np.asarray(PAULI_Z)
            assert abs(variance_form(scaled, maximally_mixed(2)) - 0.5) <= 1e-12

    def test_threshold_zero_channel(self):
        assert variance_form(np.zeros((2, 2)), PLUS) is None

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_variance_threshold_below_general_for_psd_channels(self, d):
        # the trace-square replacement is valid for PSD channels, so the
        # variance form can only tighten the threshold
        for i in range(25):
            g = ginibre_matrix(d, seed=4000 + i)
            psd = g @ adjoint(g)
            rho = ginibre_state(d, seed=5000 + i)
            rep = bound_report(single_channel_model(psd), rho)
            assert rep.threshold_variance <= rep.threshold_general + 1e-10


class TestTraceSquareAudit:
    def test_psd_channel_holds(self):
        audit = trace_square_audit(np.diag([1.0, 0.0]), ginibre_state(2, seed=6))
        assert audit.holds

    def test_canned_counterexample(self):
        audit = trace_square_audit(PAULI_Z, maximally_mixed(2))
        assert abs(audit.lhs - 0.5) <= 1e-12
        assert abs(audit.rhs) <= 1e-12
        assert not audit.holds

    def test_identity_channel(self):
        rho = ginibre_state(3, seed=13)
        audit = trace_square_audit(np.identity(3), rho)
        assert abs(audit.lhs - float(np.trace(rho @ rho).real)) <= 1e-12
        assert abs(audit.rhs - 1.0) <= 1e-12
        assert audit.holds

    def test_rejects_nonhermitian(self):
        with pytest.raises(NotHermitianError):
            trace_square_audit(SIGMA_MINUS, PLUS)

    def test_rejects_channel_of_another_dimension(self):
        with pytest.raises(DimMismatchError):
            trace_square_audit(PAULI_Z, maximally_mixed(3))


class TestRateBoundAtEntropy:
    # the bound is affine in S: -sum_j |L_j|_F^2 S + sum_j gain_j
    def test_nonnegative_at_zero(self):
        for i in range(20):
            model = single_channel_model(ginibre_matrix(3, seed=700 + i))
            rho = ginibre_state(3, seed=800 + i)
            assert sum(steady_state_bound(model, rho).channel_gains) >= -1e-10

    def test_negative_at_log_dim_for_maximally_mixed(self):
        for d in (2, 3, 4):
            channel = gue_hermitian(d, seed=d + 40)
            model = single_channel_model(channel)
            weight = frobenius_norm_sq(channel)
            expected = weight * (1.0 / d - 1.0 / d**2 - math.log(d))
            value = bound_report(model, maximally_mixed(d)).rate_lower_bound
            assert abs(value - expected) <= 1e-10
            assert value < 0.0

    def test_root_is_the_threshold(self):
        model = single_channel_model(ginibre_matrix(3, seed=55))
        rho = ginibre_state(3, seed=56)
        rep = bound_report(model, rho)
        weight = float(model.channel_norms_sq.sum())
        assert abs(rep.rate_lower_bound - weight * (rep.threshold_general - rep.entropy)) <= 1e-10


class TestSteadyStateBound:
    def test_any_single_channel_at_maximally_mixed_qubit(self):
        for seed in (7, 8, 9):
            model = single_channel_model(ginibre_matrix(2, seed))
            assert abs(steady_state_bound(model, maximally_mixed(2)).entropy_floor - 0.25) <= 1e-12

    def test_amplitude_damping_floor_is_tight_zero(self):
        bound = steady_state_bound(get_model("amplitude_damping"), GROUND)
        assert abs(bound.entropy_floor) <= 1e-14

    def test_depolarizing_channel_breakdown(self):
        gamma = 1.0
        bound = steady_state_bound(get_model("depolarizing"), maximally_mixed(2))
        assert_allclose(bound.channel_gains, [gamma / 2] * 3, atol=1e-12)
        assert abs(bound.total_channel_weight - 6 * gamma) <= 1e-12
        assert abs(bound.entropy_floor - 0.25) <= 1e-12

    def test_floor_equals_ratio_and_stays_in_range(self):
        for i in range(20):
            model = single_channel_model(ginibre_matrix(3, seed=60 + i))
            rho = ginibre_state(3, seed=90 + i)
            bound = steady_state_bound(model, rho)
            ratio = sum(bound.channel_gains) / bound.total_channel_weight
            assert abs(bound.entropy_floor_raw - ratio) <= 1e-12 * max(1.0, abs(ratio))
            assert 0.0 <= bound.entropy_floor <= 1.0 + 1e-9

    def test_consistency_with_closed_form(self):
        for d in (2, 3, 4):
            model = single_channel_model(gue_hermitian(d, seed=d))
            value = steady_state_bound(model, maximally_mixed(d)).entropy_floor
            assert abs(value - maximally_mixed_bound(d)) <= 1e-12


class TestMaximallyMixedBound:
    def test_values(self):
        assert maximally_mixed_bound(2) == 0.25
        assert abs(maximally_mixed_bound(3) - 2.0 / 9.0) <= 1e-15
        assert abs(maximally_mixed_bound(10) - 0.09) <= 1e-15

    def test_strictly_decreasing(self):
        values = [maximally_mixed_bound(d) for d in range(2, 33)]
        assert np.all(np.diff(values) < 0)

    def test_rejects_small_dimension(self):
        with pytest.raises(BadDimensionError):
            maximally_mixed_bound(1)


class TestLogInequality:
    def test_maximally_mixed_value(self):
        for d in (2, 3, 5):
            expected = math.log(d) - 1.0 + 1.0 / d
            assert abs(log_inequality_check(maximally_mixed(d)) - expected) <= 1e-12

    def test_pure_state_touches_zero(self):
        assert abs(log_inequality_check(PLUS)) <= 1e-12

    def test_random_sweep(self):
        seed = 0
        for d in (2, 3, 4):
            for _ in range(100):
                assert log_inequality_check(ginibre_state(d, seed)) >= -1e-10
                seed += 1


class TestBoundReport:
    def test_dephasing_at_maximally_mixed(self):
        rep = bound_report(get_model("dephasing"), maximally_mixed(2), time=1.5)
        assert rep.time == 1.5
        assert abs(rep.entropy - math.log(2)) <= 1e-12
        assert abs(rep.rate_exact) <= 1e-12
        assert rep.threshold_general == pytest.approx(0.25)
        assert rep.threshold_variance == pytest.approx(0.5)
        assert not rep.monotone_guaranteed  # ln 2 > 1/4
        assert not rep.log_floor_hit

    def test_amplitude_damping_mixed_state(self):
        rep = bound_report(get_model("amplitude_damping"), maximally_mixed(2))
        assert math.isfinite(rep.rate_exact)
        assert rep.rate_exact >= rep.rate_lower_bound - 1e-8
        assert rep.threshold_variance is None  # sigma_minus is not Hermitian

    def test_no_channels(self):
        rep = bound_report(LindbladModel(gue_hermitian(2, seed=1)), ginibre_state(2, seed=2))
        assert rep.rate_exact == 0.0
        assert rep.rate_lower_bound == 0.0
        assert rep.threshold_general is None
        assert rep.threshold_variance is None
        assert not rep.monotone_guaranteed

    def test_saturated_rate_sets_flag(self):
        rep = bound_report(get_model("amplitude_damping"), EXCITED)
        assert rep.rate_exact == math.inf
        assert rep.log_floor_hit

    def test_matches_standalone_functions(self):
        model = get_model("depolarizing")
        rho = ginibre_state(2, seed=31)
        rep = bound_report(model, rho)
        assert rep.threshold_general == pytest.approx(
            steady_state_bound(model, rho).entropy_floor_raw, abs=1e-12
        )
        gains = steady_state_bound(model, rho).channel_gains
        expected = -6.0 * von_neumann_entropy(rho) + sum(gains)
        assert rep.rate_lower_bound == pytest.approx(expected, abs=1e-12)

    def test_gain_is_nonnegative_on_densities(self):
        for i in range(30):
            channel = ginibre_matrix(3, seed=21 + i)
            rho = ginibre_state(3, seed=51 + i)
            gains = steady_state_bound(single_channel_model(channel), rho).channel_gains
            assert gains[0] >= -1e-10

    @pytest.mark.parametrize("channels", [(), (SIGMA_MINUS,)], ids=["no_channel", "one_channel"])
    def test_rejects_a_state_of_another_dimension(self, channels):
        with pytest.raises(DimMismatchError):
            bound_report(LindbladModel(np.zeros((2, 2)), channels), maximally_mixed(3))


def state_basis_reference(model, rho):
    """Per channel gain, tr(L^dag L rho) and Re tr(L rho) by the state-basis formulas."""
    first = np.array([np.trace(adjoint(c) @ c @ rho).real for c in model.channels])
    second = np.array([np.trace(c @ rho @ adjoint(c) @ rho).real for c in model.channels])
    means = np.array([np.trace(c @ rho).real for c in model.channels])
    return first - second, first, means


def sandwich_reference(channel, rho):
    """tr((sqrt(rho) L sqrt(rho))^2) and tr(L rho)^2 with sqrt(rho) built explicitly."""
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(v)
    sandwiched = sqrt_rho @ channel @ sqrt_rho
    return np.trace(sandwiched @ sandwiched).real, np.trace(channel @ rho).real ** 2


def kernel_states(d, seed):
    """Full-rank, rank d - 1 and pure states of dimension d.

    ``negative`` is a rank d - 1 state whose last eigenvalue is -1e-9, inside
    the gate, so that lam and max(lam, 0) differ.
    """
    u = random_unitary(d, seed)
    states = {"full": ginibre_state(d, seed + 2)}
    for kind, last in (("deficient", 0.0), ("negative", -1e-9)):
        lam = np.linspace(1.0, 0.2, d)
        lam[-1] = 0.0
        lam = lam / lam.sum()
        lam[-1] = last
        rho = (u * lam) @ adjoint(u)
        states[kind] = 0.5 * (rho + adjoint(rho))
    ket = ginibre_matrix(d, seed + 1)[:, 0]
    states["pure"] = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    return states


def kernel_models():
    """Presets, random non-Hermitian models with 1-3 channels and Hermitian ones, d = 2..5."""
    models = {spec.name: get_model(spec.name) for spec in list_models()}
    for d in (2, 3, 4, 5):
        for count in (1, 2, 3):
            channels = tuple(ginibre_matrix(d, 40 * d + 10 * count + j) for j in range(count))
            models[f"ginibre_d{d}_x{count}"] = LindbladModel(gue_hermitian(d, d), channels)
        hermitian = tuple(gue_hermitian(d, 500 + 10 * d + j) for j in range(2))
        models[f"hermitian_d{d}"] = LindbladModel(np.zeros((d, d)), hermitian)
    return [pytest.param(name, model, 3000 + 10 * i, id=name)
            for i, (name, model) in enumerate(models.items())]


class TestEigenbasisKernel:
    """The eigenbasis sums against the direct state-basis formulas they replace."""

    @staticmethod
    def close(value, expected):
        assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected)), (value, expected)

    @pytest.mark.parametrize("name, model, seed", kernel_models())
    def test_matches_state_basis_formulas(self, name, model, seed):
        saturated, weight = 0, float(model.channel_norms_sq.sum())
        for kind, rho in kernel_states(model.dim, seed).items():
            gains, first, means = state_basis_reference(model, rho)
            rep = bound_report(model, rho)
            saturated += rep.rate_exact == math.inf
            self.close(rep.rate_lower_bound, -weight * von_neumann_entropy(rho) + gains.sum())
            self.close(rep.threshold_general, gains.sum() / weight)
            if model.channels_hermitian:
                self.close(rep.threshold_variance, (first - means**2).sum() / weight)
            else:
                assert rep.threshold_variance is None
            for got, expected in zip(steady_state_bound(model, rho).channel_gains, gains):
                self.close(got, expected)
            audited = list(model.channels) if model.channels_hermitian else []
            for channel in audited + [gue_hermitian(model.dim, seed + len(kind))]:
                audit = trace_square_audit(channel, rho)
                lhs, rhs = sandwich_reference(channel, rho)
                self.close(audit.lhs, lhs)
                self.close(audit.rhs, rhs)
        if name == "amplitude_damping" or name.startswith("ginibre"):
            assert saturated  # the pure state's null space is fed
