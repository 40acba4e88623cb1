"""The blocked RK4 propagator against the direct step loop and the exact propagator."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from entrodyn import dynamics
from entrodyn.dynamics import (
    MAX_BLOCK,
    MIN_PROPAGATOR_STEPS,
    IntegratorConfig,
    LindbladModel,
    _check_against_direct_map,
    _generator_blocks,
    _recorded_steps,
    _rk4_propagator,
    _sectors,
    _step,
    final_state,
    propagate,
)
from entrodyn.models import get_model, named_state
from entrodyn.operators import adjoint, ginibre_matrix, ginibre_state, gue_hermitian
from oracles import (build_superoperator, dense_model, diagonal_channel_model,
                     level_block_model, over_cap_model, records, sector_model, unvec, vec)


def random_two_channel_model():
    channels = (ginibre_matrix(3, 201), ginibre_matrix(3, 202))
    return LindbladModel(gue_hermitian(3, 200), channels, label="rand_two_channel")


def largest_block(model):
    return max(idx.shape[1] for idx in _sectors(model))


def propagator(model, dt):
    blocks = _generator_blocks(model, _sectors(model))
    _check_against_direct_map(model, blocks)
    return _rk4_propagator(blocks, dt, model.dim)


def direct_recorded_steps(model, rho0, cfg):
    """Reference: the stepwise RK4 loop from rho0's Hermitian part, never projected.

    Each record is the Hermitian part of the state at its step.
    """
    state = 0.5 * (rho0 + adjoint(rho0))
    out = [(0, state)]
    n, stride = cfg.n_steps, cfg.record_stride
    for start in range(0, n, stride):
        stop = min(start + stride, n)
        for _ in range(start, stop):
            state = _step(model, state, cfg.dt)
        out.append((stop, 0.5 * (state + adjoint(state))))
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
    "dephasing": lambda: get_model("dephasing"),
    "depolarizing": lambda: get_model("depolarizing"),
    "driven_qubit": lambda: get_model("driven_qubit"),
    "amplitude_damping": lambda: get_model("amplitude_damping"),
    "oscillator": lambda: get_model("truncated_oscillator"),
    # odd d: (d + 1) / 2 blocks of d, the sectors n - m = k and k - d paired, no block of d / 2
    "oscillator_d15": lambda: get_model("truncated_oscillator", {"d": 15}),
    "oscillator_d16": lambda: get_model("truncated_oscillator", {"d": 16}),
    "oscillator_d32": lambda: get_model("truncated_oscillator", {"d": 32, "gamma": 0.2}),
    "random_d3_two_channels": random_two_channel_model,
    # sectors in a shuffled basis, so each block's indices and its partner's are scattered
    "sector_d7": lambda: sector_model(7, 71),
    "dense_d4": lambda: dense_model(4, 210),
    # G is diagonal: a stack of d (d + 1) / 2 blocks of one, a diagonal entry or a pair
    "diagonal_d16": lambda: diagonal_channel_model(16),
    "diagonal_d24": lambda: diagonal_channel_model(24),
    "diagonal_d64": lambda: diagonal_channel_model(64),
    # a dense channel on levels 0-7 of 24: three size groups, 60 blocks of 2, 16 of 9, 1 of 64
    "mixed_sizes_d24": lambda: level_block_model(8),
}


# model by model, so one model's stride-1 reference serves all its strides
AGREEMENT_CASES = [(stride, name) for name in sorted(AGREEMENT_MODELS) for stride in (1, 7, 250)]
STRIDE_ONE = {}  # the stride-1 reference of the model last run, and of no other


@pytest.mark.parametrize("stride, name", AGREEMENT_CASES,
                         ids=[f"{stride}-{name}" for stride, name in AGREEMENT_CASES])
def test_dense_path_agrees_with_direct_steps(monkeypatch, name, stride):
    # "dense": the propagator path, a stack of G's blocks per size
    model = AGREEMENT_MODELS[name]()
    assert largest_block(model) <= MAX_BLOCK
    builds = []
    monkeypatch.setattr(
        dynamics, "_rk4_propagator", lambda *args: builds.append(args) or _rk4_propagator(*args)
    )
    rho0 = ginibre_state(model.dim, seed=300)
    cfg = IntegratorConfig(dt=1e-3, t_max=1.0 if model.dim > 16 else 2.0, record_stride=stride)
    taken = records(_recorded_steps(model, rho0, cfg))
    if name not in STRIDE_ONE:
        STRIDE_ONE.clear()
        STRIDE_ONE[name] = direct_recorded_steps(model, rho0, replace(cfg, record_stride=1))
    # the reference never projects the state, so its records at stride 1 are those of
    # every stride: step 0, the multiples of the stride and the last step
    n = cfg.n_steps
    ks = [0] + [min(start + stride, n) for start in range(0, n, stride)]
    direct = [STRIDE_ONE[name][k] for k in ks]
    assert len(builds) == 1
    assert [k for k, _ in taken] == [k for k, _ in direct]
    for (_, got), (_, want) in zip(taken, direct):
        assert np.max(np.abs(got - want)) <= 1e-12


def assert_records_exactly_hermitian(monkeypatch, model, stride, builds):
    """Run 500 steps from a Ginibre state; check the build count and exact Hermiticity.

    ``builds`` is 1 where the propagator advances the state, 0 where the direct map
    steps it; every record must equal its adjoint bit for bit.
    """
    built = []
    monkeypatch.setattr(
        dynamics, "_rk4_propagator", lambda *args: built.append(args) or _rk4_propagator(*args)
    )
    cfg = IntegratorConfig(dt=1e-3, t_max=0.5, record_stride=stride)
    taken = records(_recorded_steps(model, ginibre_state(model.dim, seed=308), cfg))
    assert len(built) == builds
    assert len(taken) == -(-cfg.n_steps // stride) + 1
    for _, state in taken:
        assert np.array_equal(state, adjoint(state))


@pytest.mark.parametrize(
    "name", ["depolarizing", "amplitude_damping", "oscillator_d16", "oscillator_d32",
             "diagonal_d16", "mixed_sizes_d24"]
)
@pytest.mark.parametrize("stride", [1, 7, 250])
def test_records_are_exactly_hermitian_on_multi_block_models(monkeypatch, name, stride):
    # G has several blocks, so the block order differs from rho.ravel()
    model = AGREEMENT_MODELS[name]()
    assert largest_block(model) < model.dim**2
    assert_records_exactly_hermitian(monkeypatch, model, stride, builds=1)


@pytest.mark.parametrize("name, builds", [("driven_qubit", 1), ("dense_d4", 1), ("dense_d17", 0)])
@pytest.mark.parametrize("stride", [1, 7, 250])
def test_records_are_exactly_hermitian_on_one_block_models(monkeypatch, name, builds, stride):
    # G is one block of d^2 in rho.ravel() order, paired with itself: the propagator advances it
    # up to MAX_BLOCK entries, and above that (dense_d17) the direct map steps rho
    model = dense_model(17, 220) if name == "dense_d17" else AGREEMENT_MODELS[name]()
    assert largest_block(model) == model.dim**2
    assert (largest_block(model) <= MAX_BLOCK) == (builds == 1)
    assert_records_exactly_hermitian(monkeypatch, model, stride, builds)


def test_record_stops_stay_lazy():
    # 10^15 steps: the record stops come from a range, so the first stacks come at once
    cfg = IntegratorConfig(dt=1e-3, t_max=1e12)
    assert cfg.n_steps == 10**15
    start = time.perf_counter()
    stacks = list(itertools.islice(
        _recorded_steps(get_model("depolarizing"), named_state("plus", 2), cfg), 2))
    assert time.perf_counter() - start < 5.0
    assert [ks for ks, _ in stacks] == [[0], [1, 2]]
    assert [states.shape for _, states in stacks] == [(1, 2, 2), (2, 2, 2)]


def counted_powers(monkeypatch):
    """Patch matrix_power as dynamics reaches it; list each call's exponent."""
    calls, real = [], np.linalg.matrix_power
    monkeypatch.setattr(dynamics.np.linalg, "matrix_power",
                        lambda a, n: calls.append(n) or real(a, n))
    return calls


def remainder_config(stride):
    """Two full chunks of ``stride`` steps and a remainder chunk of 37."""
    n = 2 * stride + 37
    cfg = IntegratorConfig(dt=1e-3, t_max=n * 1e-3, record_stride=stride)
    assert cfg.n_steps == n
    return cfg


POWER_MODELS = ("dephasing", "amplitude_damping", "depolarizing", "driven_qubit", "dense_d4",
                "oscillator_d16")


@pytest.mark.parametrize("name", POWER_MODELS)
@pytest.mark.parametrize("stride", [250, 1000])
def test_cached_power_agrees_with_direct_steps(monkeypatch, name, stride):
    model = AGREEMENT_MODELS[name]()
    calls = counted_powers(monkeypatch)
    rho0 = ginibre_state(model.dim, seed=305)
    cfg = remainder_config(stride)
    taken = records(_recorded_steps(model, rho0, cfg))
    direct = direct_recorded_steps(model, rho0, cfg)
    assert stride in calls  # the records at the stride came from its power
    assert [k for k, _ in taken] == [k for k, _ in direct]
    for (_, got), (_, want) in zip(taken, direct):
        assert np.max(np.abs(got - want)) <= 1e-12


# Powers taken for chunks of the stride and of the remainder 37, one per size group
# (smallest size first) for each chunk length. A chunk of k uses one when
# k > size * (k.bit_length() + k.bit_count() - 2): depolarizing's stack of 2 x 2 blocks,
# driven_qubit's one 4 x 4 block and diagonal_d16's blocks of one take both
# (37 > 4 * 7 >= size * 7), dense_d4's 16 x 16 block and the d=16 oscillator's groups
# of 8 x 8 and 16 x 16 blocks only the stride (37 < 8 * 7, 250 > 16 * 12).
@pytest.mark.parametrize(
    "name, stride, powers",
    [("depolarizing", 250, [250, 37]), ("driven_qubit", 1000, [1000, 37]),
     ("dense_d4", 250, [250]), ("oscillator_d16", 250, [250, 250]),
     ("oscillator_d16", 1000, [1000, 1000]), ("depolarizing", 1, []), ("oscillator_d16", 1, []),
     # near break-even: the d=32 oscillator's one 16 x 16 block powers (250 > 16 * 12),
     # its 32 x 32 blocks do not (250 < 32 * 12), nor dense_d16's one block (250 < 256 * 12)
     ("oscillator_d32", 250, [250]), ("dense_d16", 250, []), ("diagonal_d16", 250, [250, 37])],
)
def test_one_power_per_accepted_chunk_length(monkeypatch, name, stride, powers):
    model = dense_model(16, 260) if name == "dense_d16" else AGREEMENT_MODELS[name]()
    builds = []
    monkeypatch.setattr(
        dynamics, "_rk4_propagator", lambda *args: builds.append(args) or _rk4_propagator(*args)
    )
    calls = counted_powers(monkeypatch)
    cfg = remainder_config(stride) if stride > 1 else IntegratorConfig(1e-3, 0.2, 1)
    list(_recorded_steps(model, ginibre_state(model.dim, seed=306), cfg))
    assert len(builds) == 1  # the propagator ran, with or without powers
    assert calls == powers


@pytest.mark.parametrize(
    "name, permuted",
    [("depolarizing", True), ("driven_qubit", False), ("dense_d4", False),
     ("amplitude_damping", True), ("oscillator_d16", True), ("oscillator_d32", True),
     ("diagonal_d16", True)],
)
def test_state_is_permuted_only_where_blocking_saves_work(monkeypatch, name, permuted):
    # Each size group of _sectors is one stack: depolarizing's two blocks of 2,
    # amplitude_damping's 2 and one of its two conjugate 1s, diagonal_d16's 136 of one
    # (16 diagonal entries and one of each transposed pair), the oscillators' blocks of
    # d and one of d / 2. driven_qubit and dense_d4 are one block of d^2, in rho.ravel() order.
    model = AGREEMENT_MODELS[name]()
    stacks, real = [], dynamics._powered
    monkeypatch.setattr(dynamics, "_powered",
                        lambda stack, size: stacks.append(stack.shape) or real(stack, size))
    advance = propagator(model, 1e-3)
    assert stacks == [(len(idx), idx.shape[1], idx.shape[1]) for idx in _sectors(model)]
    assert (stacks[-1][1] < model.dim**2) == permuted
    rho = want = ginibre_state(model.dim, seed=304)
    for _ in range(3):
        want = _step(model, want, 1e-3)
    ((_, got),) = records([([3], advance(rho, [3]))])
    assert got.shape == (model.dim, model.dim)
    assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("stride", [1, 7, 250])
def test_above_dense_max_dim_takes_the_direct_path(stride):
    # a dense G at d=17 is one block of 289 > MAX_BLOCK entries; so is the largest of the
    # over-cap model's four size groups at d=24
    dense, over_cap = dense_model(17, 220), over_cap_model()
    assert largest_block(dense) == 17 * 17 > MAX_BLOCK
    assert largest_block(over_cap) == 17 * 17 < over_cap.dim**2
    for model in (dense, over_cap):
        rho0 = ginibre_state(model.dim, seed=301)
        cfg = IntegratorConfig(dt=1e-3, t_max=0.4, record_stride=stride)
        # long enough that only the block size can refuse the propagator
        assert cfg.n_steps >= MIN_PROPAGATOR_STEPS * (largest_block(model) / MAX_BLOCK) ** 3
        taken = records(_recorded_steps(model, rho0, cfg))
        reference = direct_recorded_steps(model, rho0, cfg)
        assert len(taken) == len(reference)
        for (k, got), (k_ref, want) in zip(taken, reference):
            assert k == k_ref
            assert np.array_equal(got, want)


@pytest.mark.parametrize("run", [final_state, propagate])
def test_over_cap_stack_is_refused_before_any_block_is_built(monkeypatch, run):
    model = over_cap_model()
    # packed: 10 blocks of 2, 7 of 18, one of one and one of 289 > MAX_BLOCK, whose
    # channel entries pass the pre-check on the channel's nonzeros
    sectors = _sectors(model)
    assert [(len(idx), idx.shape[1]) for idx in sectors] == [(1, 1), (10, 2), (7, 18), (1, 289)]
    assert np.count_nonzero(model.channels[0]) ** 2 <= MAX_BLOCK * model.dim**2

    def refused(*args):
        raise AssertionError("a block of the over-cap stack was built")

    monkeypatch.setattr(dynamics, "_generator_blocks", refused)
    monkeypatch.setattr(dynamics, "_check_against_direct_map", refused)
    rho0 = ginibre_state(model.dim, seed=307)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.4, record_stride=50)
    # long enough that only the block size can refuse the propagator
    assert cfg.n_steps >= MIN_PROPAGATOR_STEPS * (largest_block(model) / MAX_BLOCK) ** 3
    reference = [state for _, state in direct_recorded_steps(model, rho0, cfg)]
    if run is final_state:
        states, reference = [final_state(model, rho0, cfg)], reference[-1:]
    else:
        states = propagate(model, rho0, cfg).states
    assert len(states) == len(reference)
    for got, want in zip(states, reference):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stride", [1, 7, 250])
def test_short_run_at_dense_max_dim_takes_the_direct_path(stride):
    d = 16
    model = dense_model(d, 230)
    assert largest_block(model) == MAX_BLOCK
    rho0 = ginibre_state(d, seed=302)
    cfg = IntegratorConfig(dt=1e-3, t_max=0.06, record_stride=stride)
    assert cfg.n_steps < MIN_PROPAGATOR_STEPS
    taken = records(_recorded_steps(model, rho0, cfg))
    reference = direct_recorded_steps(model, rho0, cfg)
    assert [k for k, _ in taken] == [k for k, _ in reference]
    advance = propagator(model, cfg.dt)
    rho, done = reference[0][1], 0
    for (k, got), (_, want) in zip(taken, reference):
        assert np.array_equal(got, want)
        ((_, dense),) = records([([k], advance(rho, [k - done]))])
        rho, done = 0.5 * (dense + adjoint(dense)), k
        assert np.max(np.abs(got - rho)) <= 1e-13


@pytest.mark.parametrize(
    "model",
    [dense_model(12, 240), dense_model(14, 250), dense_model(16, 260),
     get_model("truncated_oscillator", {"d": 64})],
    ids=["12", "14", "16", "oscillator_d64"],  # dense models of dimension d, or the oscillator
)
def test_propagator_is_built_from_the_break_even_step_count(monkeypatch, model):
    builds = []
    monkeypatch.setattr(
        dynamics, "_rk4_propagator", lambda *args: builds.append(args) or _rk4_propagator(*args)
    )
    d = model.dim
    first = math.ceil(MIN_PROPAGATOR_STEPS * (largest_block(model) / MAX_BLOCK) ** 3)
    for n_steps, built in ((first - 1, 0), (first, 1)):
        # t_max = dt is refused, so 1.4 dt rounds to one step
        cfg = IntegratorConfig(dt=1e-3, t_max=(n_steps + 0.4) * 1e-3, record_stride=n_steps)
        assert cfg.n_steps == n_steps
        final_state(model, ginibre_state(d, seed=303), cfg)
        assert len(builds) == built


@pytest.mark.parametrize("d", [4, 17])
def test_fourth_order_against_exact_propagator(d):
    # A full-rank start: from "plus" the d=17 oscillator loses positivity at dt=0.02.
    model = get_model("truncated_oscillator", {"d": d})
    orders = observed_orders(model, ginibre_state(d, seed=3), 0.5, (0.02, 0.01, 0.005))
    assert orders == pytest.approx([4.0, 4.0], abs=0.5)


@pytest.mark.parametrize("name", ["dephasing", "amplitude_damping", "depolarizing", "driven_qubit"])
def test_qubit_presets_fourth_order_against_exact_propagator(name):
    orders = observed_orders(get_model(name), named_state("plus", 2), 1.0, (0.1, 0.05, 0.025))
    assert orders == pytest.approx([4.0, 4.0], abs=0.5)
