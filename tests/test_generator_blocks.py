"""The sector blocks of the generator, assembled from the operators, against the dense oracle."""

import numpy as np
import pytest

from entrodyn import dynamics
from entrodyn.dynamics import (
    IntegratorConfig,
    LindbladModel,
    _components,
    _generator_blocks,
    _sectors,
    final_state,
)
from entrodyn.models import get_model, list_models
from entrodyn.operators import ginibre_matrix, ginibre_state, gue_hermitian
from entrodyn.steady_state import steady_state
from oracles import PEAK_MB, build_superoperator, diagonal_channel_model, traced_peak_mb


def random_dense_model(seed, channels):
    return LindbladModel(
        gue_hermitian(3, seed), tuple(ginibre_matrix(3, 10 * seed + j) for j in range(channels))
    )


ORACLE_CASES = {
    **{spec.name: lambda name=spec.name: get_model(name) for spec in list_models()},
    **{
        f"oscillator_d{d}": lambda d=d: get_model("truncated_oscillator", {"d": d})
        for d in range(2, 25)
    },
    **{
        f"random_d3_{n}ch_{seed}": lambda seed=seed, n=n: random_dense_model(seed, n)
        for seed in range(3)
        for n in (1, 2, 3)
    },
    "hamiltonian_only": lambda: LindbladModel(gue_hermitian(4, 7)),
    "inline_d1": lambda: LindbladModel(np.array([[0.3]]), (np.array([[0.5j]]),)),
    "zero": lambda: LindbladModel(np.zeros((3, 3))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_blocks_are_the_dense_generator(name):
    model = ORACLE_CASES[name]()
    gen = build_superoperator(model)
    inside = np.zeros(gen.shape, dtype=bool)
    for idx, blocks in _generator_blocks(model, _sectors(model)):
        cut = gen[idx[:, :, None], idx[:, None, :]]
        # bit for bit, the sign of zero included
        assert np.array_equal(cut.view(np.float64), blocks.view(np.float64))
        inside[idx[:, :, None], idx[:, None, :]] = True
    assert np.all(gen[~inside] == 0)
    assert np.all(inside.diagonal())  # every index lies in a block


@pytest.mark.parametrize("d", [16, 24])
def test_oscillator_sectors_are_the_components_of_the_exact_pattern(d):
    model = get_model("truncated_oscillator", {"d": d})
    pattern = build_superoperator(model) != 0
    label = _components(*np.nonzero(pattern), d * d)
    exact = sorted(tuple(np.flatnonzero(label == k)) for k in np.unique(label))
    sectors = sorted(tuple(block) for idx in _sectors(model) for block in idx)
    assert sectors == exact and len(sectors) == 2 * d - 1


def test_dense_channel_is_one_block_without_a_sweep(monkeypatch):
    def refused(*args):
        raise AssertionError("a dense channel's edges were swept")

    monkeypatch.setattr(dynamics, "_components", refused)
    sparse = np.diag(np.arange(1.0, 41.0))
    for model in (random_dense_model(4, 1),
                  LindbladModel(np.zeros((40, 40)), (sparse, ginibre_matrix(40, seed=3)))):
        (idx,) = _sectors(model)
        assert np.array_equal(idx, np.arange(model.dim**2)[None])


def test_d64_oscillator_never_builds_the_dense_generator(monkeypatch):
    builds = []
    original = dynamics._rk4_propagator
    monkeypatch.setattr(
        dynamics, "_rk4_propagator", lambda *args: builds.append(args) or original(*args)
    )
    model = get_model("truncated_oscillator", {"d": 64})
    rho, peak = traced_peak_mb(steady_state, model)
    assert peak < PEAK_MB
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    cfg = IntegratorConfig(dt=1e-3, t_max=4e-3)
    state, peak = traced_peak_mb(final_state, model, ginibre_state(64, seed=5), cfg)
    assert peak < PEAK_MB
    assert len(builds) == 1 and np.all(np.isfinite(state))


def test_d64_diagonal_channel_never_builds_the_dense_generator():
    # G is diagonal: the propagator advances a stack of 4096 blocks of one
    model = diagonal_channel_model(64)
    cfg = IntegratorConfig(dt=1e-3, t_max=4e-3)
    state, peak = traced_peak_mb(final_state, model, ginibre_state(64, seed=5), cfg)
    assert peak < PEAK_MB
    assert np.all(np.isfinite(state))
