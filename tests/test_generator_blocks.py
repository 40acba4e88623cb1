"""The sector blocks of the generator, assembled from the operators, against the dense oracle."""

import numpy as np
import pytest

from entrodyn import dynamics
from entrodyn.dynamics import (
    IntegratorConfig,
    LindbladModel,
    _apply,
    _components,
    _generator_blocks,
    _pairs,
    _sectors,
    final_state,
    liouvillian_rhs,
)
from entrodyn.models import get_model, list_models
from entrodyn.operators import ginibre_matrix, ginibre_state, gue_hermitian
from entrodyn.steady_state import steady_state
from oracles import (PEAK_MB, build_superoperator, dense_model, diagonal_channel_model,
                     level_block_model, over_cap_model, sector_model, traced_peak_mb)


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


def transposed(d):
    """T as an index map: entry i, the index of rho[a, b], to that of rho[b, a].

    The same map in rho.ravel() and in the oracle's column-stacked vec(rho), and it
    carries one order into the other.
    """
    return np.arange(d * d).reshape(d, d).T.ravel()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_blocks_are_the_dense_generator(name):
    model = ORACLE_CASES[name]()
    d = model.dim
    gen = build_superoperator(model)
    flip = transposed(d)
    inside = np.zeros(gen.shape, dtype=bool)
    blocks_by_size = _generator_blocks(model, _sectors(model))
    for idx, blocks, _ in blocks_by_size:
        # rho[a, b] is entry a*d + b of rho.ravel(), which the blocks index, and entry
        # flip[a*d + b] = b*d + a of the oracle's vec(rho)
        mirror = flip[idx]
        cut = gen[mirror[:, :, None], mirror[:, None, :]]
        # bit for bit, the sign of zero included (as floats, -0.0 == 0.0)
        assert np.array_equal(cut.view(np.uint64), blocks.view(np.uint64))
        # the sectors left out are the conjugates of those kept, as values: conj(0) is -0j,
        # so where the entries are zero the signs of zero differ
        assert np.array_equal(gen[idx[:, :, None], idx[:, None, :]], np.conj(blocks))
        inside[idx[:, :, None], idx[:, None, :]] = True
        inside[mirror[:, :, None], mirror[:, None, :]] = True
    assert np.all(gen[~inside] == 0)
    assert np.all(inside.diagonal())  # every index lies in a block or its mirror
    # _apply takes and returns what liouvillian_rhs does: a stack, or one matrix
    stack = np.stack([gue_hermitian(d, seed) for seed in range(3)])
    for states in (stack, stack[0]):
        applied, direct = _apply(blocks_by_size, states), liouvillian_rhs(model, states)
        assert applied.shape == direct.shape == states.shape
        err = np.linalg.norm(applied - direct, axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.linalg.norm(direct, axis=(-2, -1)))


@pytest.mark.parametrize("d", [16, 24])
def test_oscillator_sectors_are_the_components_of_the_exact_pattern(d):
    # the 2d - 1 sectors n - m = k: k = 0 alone, and one of k, -k beside one of d - k, k - d
    model = get_model("truncated_oscillator", {"d": d})
    pattern = build_superoperator(model) != 0
    label = _components(*np.nonzero(pattern), d * d)
    exact = {tuple(np.flatnonzero(label == k)) for k in np.unique(label)}
    assert len(exact) == 2 * d - 1
    blocks = [block for idx in _sectors(model) for block in idx]
    assert sorted(len(block) for block in blocks) == [d // 2] + [d] * (d // 2)
    kept = [tuple(np.flatnonzero(label == k)) for block in blocks for k in np.unique(label[block])]
    assert sorted(sum(kept, ())) == sorted(np.concatenate(blocks).tolist())  # each kept whole
    flip = transposed(d)
    assert exact == set(kept) | {tuple(sorted(flip[list(part)])) for part in kept}
    # ascending sizes: the block of d / 2, then k = 0 (it holds index 0) and the pairs
    assert [len(np.unique(label[block])) for block in blocks] == [1, 1] + [2] * (d // 2 - 1)


def exact_labels(model):
    """Components of G's exact pattern, read off the direct map on each unit matrix."""
    d = model.dim
    rows, cols = [], []
    for start in range(0, d * d, 256):
        units = np.zeros((min(256, d * d - start), d * d), dtype=np.complex128)
        units[np.arange(len(units)), np.arange(start, start + len(units))] = 1.0
        # column j of G is the map on unit matrix j, flattened
        images = liouvillian_rhs(model, units.reshape(-1, d, d))
        j, i = np.nonzero(images.reshape(len(units), d * d))
        rows.append(i)
        cols.append(j + start)
    return _components(np.concatenate(rows), np.concatenate(cols), d * d)


LAYOUT_CASES = {
    **{spec.name: lambda name=spec.name: get_model(name) for spec in list_models()},
    **{
        f"oscillator_d{d}": lambda d=d: get_model("truncated_oscillator", {"d": d})
        for d in range(2, 34)
    },
    **{f"sector_d{d}": lambda d=d: sector_model(d, 10 * d) for d in range(3, 9)},
    "over_cap": over_cap_model,
    "level_block_8_d24": lambda: level_block_model(8),
    "diagonal_d64": lambda: diagonal_channel_model(64),
    "dense_d4": lambda: dense_model(4, 210),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_sectors_pack_one_of_each_conjugate_pair(name):
    model = LAYOUT_CASES[name]()
    d = model.dim
    label, flip = exact_labels(model), transposed(d)
    sectors = _sectors(model)
    sizes = [idx.shape[1] for idx in sectors]
    assert sizes == sorted(set(sizes))  # one array per size, ascending
    assert any(idx[0, 0] == 0 for idx in sectors)  # index 0 is entry [0, 0] of its array
    home = np.full(d * d, -1)  # the block of each index
    blocks = [block for idx in sectors for block in idx]
    for n, block in enumerate(blocks):
        assert np.all(np.diff(block) > 0)
        assert np.all(home[block] == -1)
        home[block] = n
        assert len(np.unique(label[block])) <= 2
    kept = []
    order = np.argsort(label, kind="stable")
    for members in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
        own, partner = set(home[members].tolist()), set(home[flip[members]].tolist())
        # it or its partner lies whole in one block and the other in none; where entries
        # cancel (depolarizing's rho[0, 1] and rho[1, 0]) the two may share it
        assert any(len(homes) == 1 and -1 not in homes for homes in (own, partner))
        assert own == partner or -1 in own | partner
        if -1 not in own:
            kept.append(len(members))
    kept = np.array(kept)
    packed = np.array([len(block) for block in blocks])
    assert packed.sum() == kept.sum()
    assert np.sum(packed**2) <= 2 * np.sum(kept**2)
    assert np.sum(packed**3) <= 4 * np.sum(kept**3)


@pytest.mark.parametrize("name", sorted(LAYOUT_CASES))
def test_blocks_mark_the_rows_whose_partner_no_block_holds(name):
    model = LAYOUT_CASES[name]()
    blocks = _generator_blocks(model, _sectors(model))
    inside = np.concatenate([idx.ravel() for idx, _, _ in blocks])
    flip = transposed(model.dim)
    for idx, _, twice in blocks:
        assert twice.dtype == bool and twice.shape == idx.shape
        assert np.array_equal(twice, ~np.isin(flip[idx], inside))


def most_pairs(sizes, cap):
    """The most disjoint pairs of ``sizes`` whose sums are at most cap, by brute force."""
    if len(sizes) < 2:
        return 0
    first, rest = sizes[0], sizes[1:]
    return max([most_pairs(rest, cap)] + [1 + most_pairs(rest[:j] + rest[j + 1:], cap)
                                          for j, size in enumerate(rest) if first + size <= cap])


def test_pairs_packs_the_most_pairs_within_the_largest_size():
    rng = np.random.default_rng(25)
    for _ in range(400):
        sizes = rng.integers(1, 7, size=rng.integers(1, 9)).tolist()
        mate = _pairs(sizes)
        assert all(mate[mate[i]] == i for i in range(len(sizes)))
        paired = [i for i in range(len(sizes)) if mate[i] != i]
        assert all(sizes[i] + sizes[mate[i]] <= max(sizes) for i in paired)
        assert len(paired) == 2 * most_pairs(sizes, max(sizes))


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
    # G is diagonal: the propagator advances a stack of 2080 blocks of one (64 diagonal
    # entries and one of each of the 2016 transposed pairs)
    model = diagonal_channel_model(64)
    cfg = IntegratorConfig(dt=1e-3, t_max=4e-3)
    state, peak = traced_peak_mb(final_state, model, ginibre_state(64, seed=5), cfg)
    assert peak < PEAK_MB
    assert np.all(np.isfinite(state))
