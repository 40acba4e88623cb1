"""The dense RK4 propagator against the direct step loop and the exact propagator."""

import math

import numpy as np
import pytest

from entrodyn import dynamics
from entrodyn.dynamics import (
    DENSE_MAX_DIM,
    DENSE_MIN_STEPS,
    IntegratorConfig,
    LindbladModel,
    _recorded_steps,
    _rk4_propagator,
    _step,
    build_superoperator,
    final_state,
    unvec,
    vec,
)
from entrodyn.models import get_model, named_state
from entrodyn.operators import adjoint, ginibre_matrix, ginibre_state, gue_hermitian


def random_two_channel_model():
    channels = (ginibre_matrix(3, 201), ginibre_matrix(3, 202))
    return LindbladModel(gue_hermitian(3, 200), channels, label="rand_two_channel")


def direct_recorded_steps(model, rho0, cfg):
    """Reference: the stepwise RK4 loop, Hermitized at the records only."""
    state = 0.5 * (rho0 + adjoint(rho0))
    out = [(0, state)]
    n, stride = cfg.n_steps, cfg.record_stride
    for start in range(0, n, stride):
        stop = min(start + stride, n)
        for _ in range(start, stop):
            state = _step(model, state, cfg.dt)
        state = 0.5 * (state + adjoint(state))
        out.append((stop, state))
    return out


def exact_final_state(model, rho0, t):
    """exp(t L) vec(rho0) from the eigendecomposition of the superoperator."""
    eigvals, eigvecs = np.linalg.eig(build_superoperator(model))
    coeffs = np.linalg.solve(eigvecs, vec(rho0))
    return unvec(eigvecs @ (np.exp(t * eigvals) * coeffs), model.dim)


def observed_orders(model, rho0, t_max, dts):
    """log2(err(dt) / err(dt/2)) of final_state against the exact propagator."""
    exact = exact_final_state(model, rho0, t_max)
    errs = [
        float(np.linalg.norm(final_state(model, rho0, IntegratorConfig(dt=dt, t_max=t_max)) - exact))
        for dt in dts
    ]
    return [float(np.log2(coarse / fine)) for coarse, fine in zip(errs, errs[1:])]


AGREEMENT_MODELS = {
    "depolarizing": lambda: get_model("depolarizing"),
    "driven_qubit": lambda: get_model("driven_qubit"),
    "amplitude_damping": lambda: get_model("amplitude_damping"),
    "oscillator_d16": lambda: get_model("truncated_oscillator", {"d": DENSE_MAX_DIM}),
    "random_d3_two_channels": random_two_channel_model,
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_MODELS))
@pytest.mark.parametrize("stride", [1, 7, 250])
def test_dense_path_agrees_with_direct_steps(name, stride):
    model = AGREEMENT_MODELS[name]()
    assert model.dim <= DENSE_MAX_DIM
    rho0 = ginibre_state(model.dim, seed=300)
    cfg = IntegratorConfig(dt=1e-3, t_max=2.0, record_stride=stride)
    dense = list(_recorded_steps(model, rho0, cfg))
    direct = direct_recorded_steps(model, rho0, cfg)
    assert [k for k, _ in dense] == [k for k, _ in direct]
    for (_, got), (_, want) in zip(dense, direct):
        assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("stride", [1, 7, 250])
def test_above_dense_max_dim_takes_the_direct_path(stride):
    d = DENSE_MAX_DIM + 1
    model = get_model("truncated_oscillator", {"d": d})
    rho0 = ginibre_state(d, seed=301)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.5, record_stride=stride)
    taken = list(_recorded_steps(model, rho0, cfg))
    reference = direct_recorded_steps(model, rho0, cfg)
    assert len(taken) == len(reference)
    for (k, got), (k_ref, want) in zip(taken, reference):
        assert k == k_ref
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stride", [1, 7, 250])
def test_short_run_at_dense_max_dim_takes_the_direct_path(stride):
    d = DENSE_MAX_DIM
    model = get_model("truncated_oscillator", {"d": d})
    rho0 = ginibre_state(d, seed=302)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.06, record_stride=stride)
    assert cfg.n_steps < DENSE_MIN_STEPS
    taken = list(_recorded_steps(model, rho0, cfg))
    reference = direct_recorded_steps(model, rho0, cfg)
    assert [k for k, _ in taken] == [k for k, _ in reference]
    prop = _rk4_propagator(model, cfg.dt)
    v, done = vec(reference[0][1]), 0
    for (k, got), (_, want) in zip(taken, reference):
        assert np.array_equal(got, want)
        for _ in range(done, k):
            v = prop @ v
        dense = unvec(v, d)
        v, done = vec(0.5 * (dense + adjoint(dense))), k
        assert np.max(np.abs(got - unvec(v, d))) <= 1e-13


@pytest.mark.parametrize("d", [12, 14, DENSE_MAX_DIM])
def test_propagator_is_built_from_the_break_even_step_count(monkeypatch, d):
    builds = []
    monkeypatch.setattr(
        dynamics, "_rk4_propagator", lambda *args: builds.append(args) or _rk4_propagator(*args)
    )
    model = get_model("truncated_oscillator", {"d": d})
    first_dense = math.ceil(DENSE_MIN_STEPS * (d / DENSE_MAX_DIM) ** 6)
    for n_steps, built in ((first_dense - 1, 0), (first_dense, 1)):
        cfg = IntegratorConfig(dt=1e-3, t_max=n_steps * 1e-3, record_stride=n_steps)
        assert cfg.n_steps == n_steps
        final_state(model, ginibre_state(d, seed=303), cfg)
        assert len(builds) == built


@pytest.mark.parametrize("d", [4, DENSE_MAX_DIM + 1])
def test_fourth_order_against_exact_propagator(d):
    # A full-rank start: from "plus" the d=17 oscillator loses positivity at dt=0.02.
    model = get_model("truncated_oscillator", {"d": d})
    orders = observed_orders(model, ginibre_state(d, seed=3), 0.5, (0.02, 0.01, 0.005))
    assert orders == pytest.approx([4.0, 4.0], abs=0.5)


@pytest.mark.parametrize("name", ["dephasing", "amplitude_damping", "depolarizing", "driven_qubit"])
def test_qubit_presets_fourth_order_against_exact_propagator(name):
    orders = observed_orders(get_model(name), named_state("plus", 2), 1.0, (0.1, 0.05, 0.025))
    assert orders == pytest.approx([4.0, 4.0], abs=0.5)
