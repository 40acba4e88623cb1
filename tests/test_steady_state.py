import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from entrodyn import dynamics
from entrodyn.dynamics import (
    IntegratorConfig,
    LindbladModel,
    _check_against_direct_map,
    _components,
    _generator_blocks,
    _sectors,
    final_state,
    liouvillian_rhs,
)
from entrodyn.entropy_bounds import steady_state_bound, von_neumann_entropy
from entrodyn.errors import (DegenerateSteadyStateError, NoSteadyStateError, NotDensityError,
                             NumericsError)
from entrodyn.models import PAULI_Z, SIGMA_MINUS, get_model, named_state
from entrodyn.operators import ginibre_matrix, ginibre_state, gue_hermitian, maximally_mixed
from entrodyn.steady_state import _steady_solve, _svd_solve, long_time_entropy, steady_state
from oracles import build_superoperator, diagonal_channel_model, sector_model, unvec, vec

UNIQUE_PRESETS = ("amplitude_damping", "depolarizing", "driven_qubit", "truncated_oscillator")


def blocks_of(model):
    return _generator_blocks(model, _sectors(model))


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
    _check_against_direct_map(model, blocks_of(model))  # raises on self-check failure
    gen = build_superoperator(model)
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
    for channel in model.channels:
        sq = channel.conj().T @ channel
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
    """The blocks' check against the direct map, at rates whose norms overflow."""

    def huge_model(self):
        return get_model("truncated_oscillator", {"d": 4, "gamma": 1e300})

    def test_huge_generator_passes(self):
        model = self.huge_model()
        _check_against_direct_map(model, blocks_of(model))

    def test_disagreement_at_huge_scale_fails(self):
        model = self.huge_model()
        blocks = blocks_of(model)
        mats = blocks[-1][1]
        mats[0, 1, 0] += 1e-6 * max(np.max(np.abs(m)) for _, m, _ in blocks)
        with pytest.raises(NumericsError):
            _check_against_direct_map(model, blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_fails(self, bad):
        model = get_model("driven_qubit")
        blocks = blocks_of(model)
        blocks[0][1][0, 1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError):
            _check_against_direct_map(model, blocks)

    @pytest.mark.parametrize("name, params", [("depolarizing", {}),
                                              ("truncated_oscillator", {"d": 5})])
    def test_one_draw_and_one_direct_map_per_check(self, monkeypatch, name, params):
        model = get_model(name, params)
        blocks = blocks_of(model)
        calls = {"default_rng": [], "liouvillian_rhs": []}
        for owner, attr in ((np.random, "default_rng"), (dynamics, "liouvillian_rhs")):
            original = getattr(owner, attr)
            monkeypatch.setattr(owner, attr, lambda *args, original=original, attr=attr:
                                calls[attr].append(args) or original(*args))
        _check_against_direct_map(model, blocks)
        assert len(calls["default_rng"]) == len(calls["liouvillian_rhs"]) == 1
        assert calls["liouvillian_rhs"][0][1].shape == (10, model.dim, model.dim)

    @pytest.mark.parametrize("d", [16, 64])
    def test_one_entry_off_by_a_millionth_of_the_peak_fails(self, d):
        # 30 seeded entries, drawn uniformly over all blocks' entries, each raised alone
        model = get_model("truncated_oscillator", {"d": d})
        blocks = blocks_of(model)
        mats = [m for _, m, _ in blocks]  # changed in place, as the blocks' own arrays
        peak = max(np.max(np.abs(m)) for m in mats)
        ends = np.cumsum([m.size for m in mats])
        for at in np.random.default_rng(d).integers(ends[-1], size=30):
            g = int(np.searchsorted(ends, at, side="right"))
            entry = np.unravel_index(at - ends[g] + mats[g].size, mats[g].shape)
            kept = mats[g][entry]
            mats[g][entry] += 1e-6 * peak
            with pytest.raises(NumericsError):
                _check_against_direct_map(model, blocks)
            mats[g][entry] = kept

    def test_entry_missing_across_blocks_fails(self):
        # Splitting a sector in two drops the entries that join its halves;
        # the dense probes see them missing.
        model = get_model("truncated_oscillator", {"d": 5})
        # three blocks of 5: n - m = 0; one of +-1 beside +-4, of +-2 beside +-3
        sectors = _sectors(model)
        (idx,) = sectors
        assert idx.shape == (3, 5) and np.array_equal(idx[0], np.arange(0, 25, 6))
        # the diagonal entries of rho, the block of index 0, cut in two
        split = [idx[1:], idx[:1, :2], idx[:1, 2:]]
        _check_against_direct_map(model, _generator_blocks(model, sectors))
        with pytest.raises(NumericsError, match="a block entry is missing or wrong$"):
            _check_against_direct_map(model, _generator_blocks(model, split))


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
            by_svd, _, _ = _svd_solve(blocks_of(model), d, 1e-10)
            assert np.max(np.abs(direct - by_svd)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 4])
    def test_both_solves_return_the_spectrum_of_their_state(self, d):
        # and its residual, measured on the blocks: the dense generator's
        # product to the roundoff of either product
        for seed in range(4):
            model = random_model(d, seed, 2)
            gen = build_superoperator(model)
            for rho, spectra, residual in (_steady_solve(model, 1e-10),
                                           _svd_solve(blocks_of(model), d, 1e-10)):
                (lam,), (vecs,) = spectra.eigenvalues, spectra.eigenvectors
                assert np.max(np.abs((vecs * lam) @ vecs.conj().T - rho)) <= 1e-12
                expected = np.linalg.norm(gen @ vec(rho))
                assert abs(residual - expected) <= 1e-14 * np.max(np.abs(gen))

    @pytest.mark.parametrize("d", [3, 5])
    def test_absurd_tolerance_still_finds_no_null_space(self, d):
        # a generic null direction leaves a roundoff-sized smallest singular value
        with pytest.raises(NoSteadyStateError):
            steady_state(random_model(d, 5, 2), tol=1e-22)


def one_block(gen):
    """A d=2 generator given as one block of size 4 on rho.ravel(), no row paired."""
    return [(np.arange(4)[None], np.asarray(gen, dtype=np.complex128)[None],
             np.zeros((1, 4), dtype=bool))]


class TestSvdSolveGuards:
    """Each guard on the state that the SVD extracts, given one hand-built block."""

    def test_traceless_null_vector(self):
        # the null vector is rho[0, 1], off the diagonal
        with pytest.raises(NotDensityError, match="extracted null vector is traceless"):
            _svd_solve(one_block(np.diag([1.0, 0.0, 1.0, 1.0])), 2, 1e-10)

    def test_null_vector_that_is_no_density(self):
        v = np.diag([2.0, -1.0]).ravel() / math.sqrt(5.0)
        with pytest.raises(NotDensityError, match="negative eigenvalue -1.000e[+]00"):
            _svd_solve(one_block(np.identity(4) - np.outer(v, v)), 2, 1e-10)

    def test_state_that_g_does_not_annihilate(self):
        # G v = 0, but the Hermitian part of v is another state, which e_2 moves
        v = np.array([1.0, 1j, 0.0, 1.0]) / math.sqrt(3.0)
        gen = np.identity(4) - np.outer(v, v.conj())
        gen[2, 2] += 5.0
        with pytest.raises(NoSteadyStateError, match="generator residual 1.514e[+]00"):
            _svd_solve(one_block(gen), 2, 1e-10)

def bfs_labels(pattern):
    """Reference: smallest index of each index's component, by breadth-first search."""
    n = len(pattern)
    neighbours = [set() for _ in range(n)]
    for i, j in zip(*np.nonzero(pattern)):
        neighbours[i].add(j)
        neighbours[j].add(i)
    label = [-1] * n
    for start in range(n):
        if label[start] < 0:
            label[start] = start
            queue = [start]
            while queue:
                for j in neighbours[queue.pop()]:
                    if label[j] < 0:
                        label[j] = start
                        queue.append(j)
    return np.array(label)


def permuted_blocks(sizes, seed):
    """A pattern that is block diagonal in shuffled indices; each block is connected."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    perm = rng.permutation(n)
    pattern = np.zeros((n, n), dtype=bool)
    start = 0
    for size in sizes:
        members = perm[start:start + size]
        for k in range(1, size):  # a random spanning tree, entries in either orientation
            i, j = members[k], members[rng.integers(k)]
            pattern[(i, j) if rng.random() < 0.5 else (j, i)] = True
        extra = rng.random((size, size)) < 0.2
        pattern[np.ix_(members, members)] |= extra
        start += size
    return pattern, perm


class TestComponents:
    """The labelling against a plain breadth-first search."""

    @pytest.mark.parametrize("seed", range(6))
    def test_permuted_block_diagonal_patterns(self, seed):
        rng = np.random.default_rng(100 + seed)
        sizes = [int(s) for s in rng.choice([1, 1, 2, 3, 5, 9], size=12)]
        pattern, _ = permuted_blocks(sizes, seed)
        label = _components(*np.nonzero(pattern), len(pattern))
        assert np.array_equal(label, bfs_labels(pattern))
        assert sorted(np.unique(label, return_counts=True)[1]) == sorted(sizes)

    def test_dense_pattern_is_one_block(self):
        assert np.array_equal(_components(*np.nonzero(np.ones((7, 7))), 7), np.zeros(7))
        # dense but for row and column 0, which meet the rest in one entry
        pattern = np.ones((7, 7), dtype=bool)
        pattern[0] = pattern[:, 0] = False
        pattern[0, 5] = True
        assert np.array_equal(_components(*np.nonzero(pattern), 7), np.zeros(7))

    def test_patterns_that_need_several_sweeps(self):
        # in the path 0 - 2 - 1, index 1 is below its only neighbour, so the
        # first sweep leaves it a root of its own; a path through shuffled
        # indices has many such local minima
        path = np.zeros((3, 3), dtype=bool)
        path[0, 2] = path[1, 2] = True
        assert np.array_equal(_components(*np.nonzero(path), 3), np.zeros(3))
        order = np.random.default_rng(7).permutation(60)
        chain = np.zeros((90, 90), dtype=bool)
        chain[order[1:], order[:-1]] = True
        expected = bfs_labels(chain)
        assert np.array_equal(_components(*np.nonzero(chain), 90), expected)
        assert np.count_nonzero(expected == 0) == 60 and len(set(expected)) == 31

    def test_no_entries_leaves_singletons(self):
        assert np.array_equal(_components(*np.nonzero(np.zeros((4, 4))), 4), np.arange(4))


def full_direct_solve(model):
    """Reference: column 0 of the full inverse of the trace-substituted generator."""
    d = model.dim
    gen = build_superoperator(model)
    m = gen / np.max(np.abs(gen))
    m[0] = vec(np.identity(d))
    rho = unvec(np.linalg.inv(m)[:, 0], d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def component_count(model):
    """Connected components of the dense generator's nonzero pattern."""
    return len(np.unique(_components(*np.nonzero(build_superoperator(model)), model.dim**2)))


class TestBlockSolve:
    """The block-by-block solves against full references."""

    @pytest.mark.parametrize("d", range(2, 13))
    def test_oscillator_matches_the_full_inverse(self, d):
        model = get_model("truncated_oscillator", {"d": d, "gamma": 0.3})
        assert np.max(np.abs(steady_state(model) - full_direct_solve(model))) <= 1e-12

    @pytest.mark.parametrize("d", range(3, 9))
    def test_shuffled_sector_models_match_the_full_inverse(self, d):
        for seed in range(3):
            model = sector_model(d, 10 * d + seed)
            assert component_count(model) > 1
            assert any(np.any(np.diff(block) != 1) for idx in _sectors(model) for block in idx)
            rho = steady_state(model)
            assert np.max(np.abs(rho - full_direct_solve(model))) <= 1e-12
            # the block SVD gives the full SVD's null vector
            gen = build_superoperator(model)
            null = unvec(np.conj(np.linalg.svd(gen)[2][-1]), d)
            null = 0.5 * (null + null.conj().T)
            by_blocks, _, _ = _svd_solve(blocks_of(model), d, 1e-10)
            assert np.max(np.abs(by_blocks - null / np.trace(null).real)) <= 1e-12

    @pytest.mark.parametrize("factor, certified", [(0.9, True), (1.1, False)])
    def test_certificate_uses_the_full_inverse_norm(self, monkeypatch, factor, certified):
        # the block of index 0 holds only 70% of this |M^-1|_F, so a certificate
        # that missed the other blocks would still pass at factor 1.1
        model = get_model("truncated_oscillator", {"d": 6})
        gen = build_superoperator(model)
        m = gen / np.max(np.abs(gen))
        frob = np.linalg.norm(m)
        m[0] = vec(np.identity(6))
        tol = factor / (frob * np.linalg.norm(np.linalg.inv(m)))
        svd_calls = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd_calls.append(a) or original(*a, **k))
        try:
            steady_state(model, tol)
        except (DegenerateSteadyStateError, NoSteadyStateError):
            assert not certified
        assert (not svd_calls) == certified

    @pytest.mark.parametrize("d", [48, 64])
    def test_large_oscillator_relaxes_to_zero_quanta(self, d):
        # d / 2 blocks of d and one of d / 2, each pair of conjugate sectors inverted once
        rho = steady_state(get_model("truncated_oscillator", {"d": d, "gamma": 0.5}))
        ground = np.zeros((d, d))
        ground[d - 1, d - 1] = 1.0
        assert np.max(np.abs(rho - ground)) <= 1e-12

    def test_near_degenerate_oscillator_counts_as_the_full_svd(self):
        model = get_model("truncated_oscillator", {"d": 6, "gamma": 1e-12})
        svals = np.linalg.svd(build_superoperator(model), compute_uv=False)
        expected = int(np.count_nonzero(svals <= 1e-10 * svals[0]))
        with pytest.raises(DegenerateSteadyStateError) as excinfo:
            steady_state(model)
        assert excinfo.value.null_dimension == expected == 6

    @pytest.mark.parametrize("gamma", [1.0, 1e-12])
    def test_oscillator_solves_no_matrix_above_d(self, monkeypatch, gamma):
        d = 24
        largest = []
        for name in ("inv", "svd"):
            original = getattr(np.linalg, name)

            def recorded(a, *args, _original=original, **kwargs):
                largest.append(max(np.shape(a)[-2:]))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        model = get_model("truncated_oscillator", {"d": d, "gamma": gamma})
        if gamma == 1.0:
            steady_state(model)
        else:
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(model)
        assert largest and max(largest) == d
        assert component_count(model) == 2 * d - 1


def unique_steady_models():
    """Every model with a unique steady state that this module solves."""
    yield from (get_model(name) for name in UNIQUE_PRESETS)
    yield from (get_model("truncated_oscillator", {"d": d, "gamma": 0.3}) for d in range(2, 13))
    yield from (sector_model(d, 10 * d + seed) for d in range(3, 9) for seed in range(3))
    yield from (random_model(d, seed, 1 + seed % 3) for d in range(2, 7) for seed in range(8))


class TestTraceSectors:
    """The steady solve runs on G's own blocks: what that rests on."""

    def test_the_block_of_index_zero_holds_the_whole_diagonal(self):
        # G preserves the trace, so a block with part of the diagonal is singular;
        # with one null direction, one block holds all of it
        count = 0
        for model in unique_steady_models():
            d = model.dim
            (holder,) = [block for idx in _sectors(model) for block in idx if 0 in block]
            assert set(range(0, d * d, d + 1)) <= set(holder.tolist())
            count += 1
        assert count == 73

    @pytest.mark.parametrize("model, expected", [
        (get_model("dephasing"), 2),
        (diagonal_channel_model(8), 8),
        (LindbladModel(np.diag([0.5, -0.5]), (PAULI_Z, 0.0 * SIGMA_MINUS)), 2),
        # decay 1 -> 0 and 3 -> 2: rho[0, 2] is stationary too, in a block of 2 whose
        # conjugate, rho[2, 0] with rho[3, 1], is not built but counts
        (LindbladModel(np.zeros((4, 4)), (np.diag([1.0, 0.0, 1.0], 1),)), 4),
    ], ids=["dephasing", "diagonal_d8", "zero_decay", "stationary_coherence"])
    def test_diagonal_over_several_blocks_counts_as_the_full_svd(self, model, expected):
        svals = np.linalg.svd(build_superoperator(model), compute_uv=False)
        with pytest.raises(DegenerateSteadyStateError) as excinfo:
            steady_state(model)
        assert excinfo.value.null_dimension == expected
        assert np.count_nonzero(svals <= 1e-10 * svals[0]) == expected
