"""Lindblad generator, its blocks on rho.ravel() and fixed-step time propagation.

The generator is ``d rho/dt = -i[H, rho] + sum_j D[L_j] rho`` with
``D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L)/2`` and hbar = 1; all
rates and times are dimensionless. Its one form is K rho + rho K^dag + sum_j
L_j rho L_j^dag, K = -iH - sum_j L_j^dag L_j / 2 (``LindbladModel.no_jump``).
Propagation uses a classical fixed-step fourth-order Runge-Kutta scheme so
trajectories are bit-reproducible.

The generator G acts on rho.ravel(), the row-major order in which every state
is stored: entry a*d + b is rho[a, b]. It is used as dense blocks over its
sectors, read off the model's operators (:func:`_sectors`,
:func:`_generator_blocks`) and checked against the direct generator before any
use; the steady state and the RK4 propagator both run on them. Of each pair of
sectors that transposing rho swaps, one is built: the other holds its conjugate
entries. The sectors are packed in pairs up to the largest one's size, and the
blocks of each size form one stack, which the propagator advances where no
block is larger than ``MAX_BLOCK``. Each record is the Hermitian part of the
RK4 state; integration continues from the state itself.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import entropy_bounds
from .errors import (BadParamsError, ConfigError, DimMismatchError, NotHermitianError,
                     NumericsError, PositivityLostError)
from .operators import (STRICT_GATE, adjoint, as_operator, density_spectra, frobenius_norm_sq,
                        hermitian_eig, hermitian_part, hermiticity_defect, is_hermitian)

# The RK4 propagator advances the blocks of _sectors (one of each conjugate pair of G's
# sectors, packed two to a block no larger than the largest sector, s) only where
# s <= MAX_BLOCK (a dense G is one block of d^2, so d <= 16). Its stacks, n blocks of size
# s' per size, then hold sum n s'^2 <= s sum n s' <= MAX_BLOCK d^2 entries, as at most d^2
# rows are kept. Runs of fewer than MIN_PROPAGATOR_STEPS * (s/256)^3 steps step directly
# too (the build is three s x s products per block). Measured for one dense block, s = d^2
# (tests/oracles.dense_model), BLAS on one thread, 2-core x86-64 VM, medians of 40
# interleaved rounds in each of three runs (direct step vs propagated step, build,
# break-even): d=14 67-93 vs 15-20 us, 5.8-7.8 ms, 108-112 steps (quartiles 103-119);
# d=16 66-70 vs 25-28 us, 9.6-11 ms, 232-244 (quartiles 223-255). 250 steps at d=16 and
# 112.2 at d=14 lie inside both quartile ranges, just above both median ranges.
# Past MAX_BLOCK no run repays it: at d=20 direct 76-114 vs 82-103 us.
MAX_BLOCK = 256
MIN_PROPAGATOR_STEPS = 250

# Largest |H|_F^2 + sum_j |L_j|_F^2: derived numbers, at most 32x it, stay finite.
MAX_SCALE = np.finfo(np.float64).max / 64


def _finite(value) -> bool:
    """math.isfinite(value), but False for an int past the float range, where it overflows."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """A Hamiltonian plus decoherence channels on one Hilbert space.

    The Hamiltonian must be Hermitian to within 1e-10 relative, and its
    Hermitian part is stored; channel operators may be arbitrary complex
    matrices of the same dimension. Stored arrays are frozen copies, so models
    are safe to share. Derived once per model: ``no_jump`` (K = -iH - sum_j
    herm(L_j^dag L_j) / 2, herm the Hermitian part), ``channel_norms_sq`` (each
    |L_j|_F^2) and ``channels_hermitian`` (every channel Hermitian). A
    Hamiltonian or channel whose squared Frobenius norm is not finite, or a
    model whose scale |H|_F^2 + sum_j |L_j|_F^2 exceeds ``MAX_SCALE``, raises
    BadParamsError.
    Both terms Hermitian, K^dag is iH - sum_j herm(L_j^dag L_j) / 2 exactly, so the
    generator's entries on rho transposed are its entries' conjugates (:func:`_sectors`).
    """

    hamiltonian: np.ndarray
    channels: tuple[np.ndarray, ...] = ()
    label: str = ""
    no_jump: np.ndarray = field(init=False, repr=False)
    channel_norms_sq: np.ndarray = field(init=False, repr=False)
    channels_hermitian: bool = field(init=False, repr=False)

    def __post_init__(self):
        h = as_operator(self.hamiltonian)
        chans = tuple(as_operator(c) for c in self.channels)
        for c in chans:
            if c.shape != h.shape:
                raise DimMismatchError(
                    f"channel shape {c.shape} does not match hamiltonian {h.shape}"
                )
        # An overflow to inf is rejected just below, so numpy need not warn.
        with np.errstate(over="ignore"):
            h_norm_sq = frobenius_norm_sq(h)
            norms = np.array([frobenius_norm_sq(c) for c in chans], dtype=np.float64)
        if not (math.isfinite(h_norm_sq) and np.all(np.isfinite(norms))):
            raise BadParamsError("hamiltonian or channel has a non-finite Frobenius norm")
        scale = sum(norms.tolist(), h_norm_sq)  # Python floats overflow to inf silently
        if scale > MAX_SCALE:
            raise BadParamsError(f"model scale {scale:.3e} exceeds {MAX_SCALE:.3e}; rescale time")
        if hermiticity_defect(h) > 1e-10 * max(1.0, math.sqrt(h_norm_sq)):
            raise NotHermitianError("hamiltonian is not Hermitian within 1e-10 relative")
        chans = tuple(_frozen_copy(c) for c in chans)
        norms.setflags(write=False)
        object.__setattr__(self, "hamiltonian", _frozen_copy(hermitian_part(h)))
        object.__setattr__(self, "channels", chans)
        decay = sum((0.5 * hermitian_part(adjoint(c) @ c) for c in chans), np.zeros_like(h))
        object.__setattr__(self, "no_jump", _frozen_copy(-1j * self.hamiltonian - decay))
        object.__setattr__(self, "channel_norms_sq", norms)
        object.__setattr__(self, "channels_hermitian", all(is_hermitian(c) for c in chans))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration settings.

    ``t_max`` is interpreted as ``round(t_max / dt)`` steps of exactly ``dt``.
    States are recorded at step 0, every ``record_stride`` steps and the last
    step. Each record is the Hermitian part of the RK4 state (integration
    continues from the state itself), gated on positivity and trace drift at
    ``operators.STRICT_GATE``; the trace is never renormalized.
    """

    dt: float
    t_max: float
    record_stride: int = 1

    def __post_init__(self):
        for name in ("dt", "t_max", "record_stride"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and _finite(value) and value > 0):
                raise ConfigError(f"{name} must be a positive finite number")
        if not self.dt < self.t_max:
            raise ConfigError("dt must be smaller than t_max")
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigError("t_max / dt overflows; the step count must be finite")
        if int(self.record_stride) != self.record_stride:
            raise ConfigError("record_stride must be an integer >= 1")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.dt)


@dataclass(eq=False)
class TrajectoryRecord:
    """Recorded states and per-time bound reports along one trajectory."""

    times: np.ndarray
    states: list[np.ndarray]
    reports: list["entropy_bounds.BoundReport"]
    trace_errors: np.ndarray
    min_eigs: np.ndarray


def liouvillian_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Full generator K rho + rho K^dag + sum_j L_j rho L_j^dag, of one state or of a stack."""
    state = np.asarray(rho, dtype=np.complex128)
    if state.shape[-2:] != model.hamiltonian.shape:
        raise DimMismatchError(f"state {state.shape} vs model dim {model.dim}")
    k = model.no_jump
    out = k @ state + state @ adjoint(k)
    for c in model.channels:
        out += c @ state @ adjoint(c)
    return out


def _sectors(model: LindbladModel) -> list[np.ndarray]:
    """The blocks of G that both solvers build, one (count, size) array per size.

    G maps rho[c, e] into rho[a, b] with weight delta_be K[a, c] + delta_ac
    conj(K[b, e]) + sum_j conj(L_j[b, e]) L_j[a, c], K = ``model.no_jump``, so its
    sectors are the connected components of the edges that K's one pattern makes on
    either side of rho and each channel's pairs of nonzeros make. This covers the
    exact pattern: a sector is a component of it or, where entries cancel, coarser.
    T, rho[a, b] -> rho[b, a], maps a sector C onto one whose entries are C's
    conjugates, G[T i, T j] = conj(G[i, j]), since H and each L^dag L are stored
    exactly Hermitian; of C and T(C) the one with the smaller first index is kept
    (a self-paired C once), and :func:`_generator_blocks` marks the rows that
    stand for their partner's too.
    The kept sectors are packed in pairs (:func:`_pairs`), so a block holds at
    most twice the entries and four times the cube of its sectors' sizes.
    Indices ascend within a block, blocks of one size by their first index, so
    index 0 is entry [0, 0] of its array.
    """
    d = model.dim
    if any(np.count_nonzero(chan) == d * d for chan in model.channels):
        return [np.arange(d * d)[None]]  # a dense channel joins every pair: one block, no sweep
    cell = np.arange(d * d).reshape(d, d)  # cell[a, b] is the index of rho[a, b]
    a, c = np.nonzero(model.no_jump)  # K[a, c]: rho[a, x] to rho[c, x], rho[x, a] to rho[x, c]
    edges = [(cell[a], cell[c]), (cell[:, a], cell[:, c])]
    for rows, cols in (np.nonzero(chan) for chan in model.channels):
        edges.append((cell[rows[:, None], rows], cell[cols[:, None], cols]))
    label = _components(*(np.concatenate([x[i].ravel() for x in edges]) for i in (0, 1)), d * d)
    kept = np.flatnonzero(label <= label[cell.T.ravel()[label]])  # label of T(sector) is larger
    first, sector, sizes = np.unique(label[kept], return_inverse=True, return_counts=True)
    mate = np.array(_pairs(sizes.tolist()))
    lead = np.minimum(first, first[mate])[sector]  # the first index of each entry's block
    width = np.where(mate == np.arange(mate.size), sizes, sizes + sizes[mate])[sector]
    order = np.lexsort((lead, width))
    kept, width = kept[order], width[order]
    cuts = np.flatnonzero(np.diff(width)) + 1
    return [part.reshape(-1, size) for part, size in zip(np.split(kept, cuts), width[np.r_[0, cuts]])]


def _pairs(sizes: list[int]) -> list[int]:
    """mate[i], the sector packed beside sector i of ``sizes`` (i itself if none).

    Sorted largest first (stably), the largest sector left joins the smallest left
    where both fit within the largest size, and stays alone otherwise: the rule
    that packs the most pairs. Sizes s1 and s2 so packed have
    (s1 + s2)^2 <= 2 (s1^2 + s2^2) and (s1 + s2)^3 <= 4 (s1^3 + s2^3).
    """
    order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
    mate, lo, hi = list(range(len(sizes))), 0, len(sizes) - 1
    while lo < hi:
        i, j = order[lo], order[hi]
        if sizes[i] + sizes[j] <= sizes[order[0]]:
            mate[i], mate[j] = j, i
            hi -= 1
        lo += 1
    return mate


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Smallest index in each of 0..n-1's connected component, edges (rows[i], cols[i]).

    Each sweep lowers every label to the smallest across its edges, then jumps
    pointers (label[label]) until they settle; the labels stop changing once
    each component carries its smallest index.
    """
    label = np.arange(n)
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, rows, label[cols])
        np.minimum.at(lowered, cols, label[rows])
        while not np.array_equal(lowered[lowered], lowered):
            lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def _generator_blocks(model: LindbladModel, sectors: list[np.ndarray]) -> list[tuple]:
    """(index, blocks, twice) per block size, blocks[i] = G[index[i]][:, index[i]].

    Indices are into rho.ravel(), so index a*d + b is rho[a, b].
    G is 0 outside these blocks and their conjugates, rho transposed (:func:`_sectors`):
    twice[i, j] marks a row whose partner, rho[b, a] for rho[a, b], lies in no
    block, so it stands for both, and G's norms and counts take it twice.

    Entries are summed in the order of the tests' dense oracle (K, K^dag, then
    each channel), so they equal its entries bit for bit at transposed indices (the
    oracle stacks rho's columns); callers run the self-check on them. K and K^dag
    meet only on G's diagonal, where their sum commutes, so G[T i, T j] =
    conj(G[i, j]) holds exactly (see :func:`_sectors`).
    """
    d, k, out = model.dim, model.no_jump, []
    held = np.zeros(d * d, dtype=bool)
    held[np.concatenate([idx.ravel() for idx in sectors])] = True
    for idx in sectors:
        a, b = idx // d, idx % d  # row i of a block is rho[a[i], b[i]], and so is column i
        blocks = np.zeros(idx.shape + idx.shape[1:], dtype=np.complex128)
        n, i, j = np.nonzero(b[:, :, None] == b[:, None, :])
        blocks[n, i, j] += k[a[n, i], a[n, j]]
        n, i, j = np.nonzero(a[:, :, None] == a[:, None, :])
        blocks[n, i, j] += np.conj(k[b[n, i], b[n, j]])  # K^dag[b[j], b[i]]
        for chan in model.channels:  # einsum's complex product, as in the tests' oracle
            blocks += np.einsum("nik,nik->nik", np.conj(chan[b[:, :, None], b[:, None, :]]),
                                chan[a[:, :, None], a[:, None, :]])
        out.append((idx, blocks, ~held[b * d + a]))
    return out


def _apply(blocks: list[tuple], states: np.ndarray) -> np.ndarray:
    """G applied to a Hermitian d x d matrix or a stack of them, as :func:`liouvillian_rhs`.

    The rows left out are the conjugates of the rows marked twice (:func:`_generator_blocks`).
    """
    d = states.shape[-1]
    v = states.reshape(-1, d * d).T
    out = np.empty_like(v)
    for idx, mats, twice in blocks:
        out[idx] = mats @ v[idx]
        out[idx[twice] % d * d + idx[twice] // d] = np.conj(out[idx[twice]])
    return out.T.reshape(states.shape)


def _magnitudes(blocks: list[tuple]) -> tuple[float, float, float]:
    """Largest |entry| of G (1 for a zero G); |G|_F and largest column norm in its units."""
    rel = [np.abs(mats) for _, mats, _ in blocks]
    peak = max(float(x.max(initial=0.0)) for x in rel) or 1.0
    if peak < 1.0 / MAX_SCALE:  # its reciprocal, which scales the self-check's probes, overflows
        raise BadParamsError(f"generator scale {peak:.3e} is below 1/MAX_SCALE = "
                             f"{1.0 / MAX_SCALE:.3e}; rescale time")
    for x in rel:
        x /= peak
    col_sq = [np.einsum("nij,nij->nj", x, x) for x in rel]  # a column's sector is its row's
    frob_sq = sum(float(sq.sum() + sq[twice].sum()) for sq, (_, _, twice) in zip(col_sq, blocks))
    return peak, math.sqrt(frob_sq), math.sqrt(max(float(sq.max(initial=0.0)) for sq in col_sq))


def _check_against_direct_map(model: LindbladModel, blocks: list[tuple]) -> tuple:
    """Check G's blocks against :func:`liouvillian_rhs` on random Hermitian matrices.

    Returns :func:`_magnitudes` (peak, |G|_F, largest column norm). Each probe is the
    Hermitian part of a complex Gaussian matrix (as :func:`_apply` needs), |p|_F = 1 / peak,
    so its entries are of order 1 / (d peak): an entry off by delta peak, or missing between
    blocks, leaves a residual of order delta / d against the tolerance 1e-10 |G|_F / peak.
    All 10 go through one stacked pass: one draw, one block product, one direct map.
    """
    d = model.dim
    peak, frob, col = _magnitudes(blocks)
    real, imag = np.random.default_rng(0).standard_normal((2, 10, d, d))
    probes = hermitian_part(real + 1j * imag)
    probes = probes / np.linalg.norm(probes, axis=(1, 2), keepdims=True) / peak  # units of peak
    residual = _apply(blocks, probes) - liouvillian_rhs(model, probes)
    # NaN fails the comparison
    if not np.all(np.linalg.norm(residual, axis=(1, 2)) <= 1e-10 * max(1.0 / peak, frob)):
        raise NumericsError("generator blocks disagree with the direct generator; "
                            "a block entry is missing or wrong")
    return peak, frob, col


def _step(model: LindbladModel, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step: a fixed linear map of the state."""
    k1 = liouvillian_rhs(model, state)
    k2 = liouvillian_rhs(model, state + (0.5 * dt) * k1)
    k3 = liouvillian_rhs(model, state + (0.5 * dt) * k2)
    k4 = liouvillian_rhs(model, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _powered(mat: np.ndarray, size: int):
    """``apply(v, k)``: mat^k @ v, mat a stack of size x size matrices.

    A chunk of k >= 2 steps applies one cached ``matrix_power(mat, k)``, built
    at most once per k, when k exceeds ``size`` times its k.bit_length() +
    k.bit_count() - 2 products (each costs at most ``size`` products with v).
    A power with a non-finite entry is cached as None and its chunk steps, as
    any other chunk does: a growing mode that v does not excite would otherwise
    turn inf * 0 into NaN.
    """
    powers = {}

    def apply(v: np.ndarray, steps: int) -> np.ndarray:
        if steps >= 2 and steps > size * (steps.bit_length() + steps.bit_count() - 2):
            if steps not in powers:
                with np.errstate(over="ignore", invalid="ignore"):
                    power = np.linalg.matrix_power(mat, steps)
                powers[steps] = power if np.all(np.isfinite(power)) else None
            if powers[steps] is not None:
                return powers[steps] @ v
        for _ in range(steps):
            v = mat @ v
        return v

    return apply


def _rk4_propagator(blocks: list[tuple], dt: float, d: int):
    """``advance(rho, chunks)``: the records after each chunk of :func:`_step`s; None if not finite.

    Classical RK4 of a linear generator L is exactly sum_{k<=4} (dt L)^k / k!,
    taken per block by Horner's rule. Each size group of blocks advances as one
    stack, as :func:`_apply` applies G: one matmul per step, or one cached power
    P^k per chunk (:func:`_powered`, within about 1e-14 relative of stepping).
    Only the blocks of :func:`_sectors` advance: for rho Hermitian, each entry
    left out is the conjugate of its transposed entry, written from it, as
    :func:`_apply` writes it. A group's state is gathered from rho.ravel() once
    and stays in block order for a whole stack of records (raw RK4 states).
    """
    groups = []
    for idx, mats, twice in blocks:
        a, eye = mats * dt, np.identity(idx.shape[1], dtype=np.complex128)
        prop = eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)
        if not np.all(np.isfinite(prop)):
            return None
        partner = idx[twice] % d * d + idx[twice] // d  # rho[b, a] for rho[a, b]
        groups.append((idx, twice, partner, _powered(prop, idx.shape[1])))

    def advance(rho: np.ndarray, chunks: list[int]) -> np.ndarray:
        states = np.empty((len(chunks), d * d), dtype=np.complex128)
        for idx, twice, partner, apply in groups:
            out = np.empty((1 + len(chunks), *idx.shape, 1), dtype=np.complex128)  # row 0 is rho
            out[0, ..., 0] = rho.ravel()[idx]
            for i, steps in enumerate(chunks):
                out[i + 1] = apply(out[i], steps)
            states[:, idx] = out[1:, ..., 0]
            states[:, partner] = np.conj(out[1:, twice, 0])
        return states.reshape(-1, d, d)

    return advance


def _recorded_steps(model: LindbladModel, rho0, cfg: IntegratorConfig):
    """Yield (ks, states), stacks of the records at 0, each ``cfg.record_stride`` and the end.

    Stacks hold 1, 2, 4, ... records up to ``entropy_bounds.stack_size``, the first only
    step 0's, rho0's Hermitian part, where integration starts; their stops come from a
    ``range``. Each later record is the Hermitian part of the RK4 state, and integration
    continues from the state itself (the health gate finds an overflow). The steps apply
    :func:`_rk4_propagator` (within 1e-12 of stepping) unless a block would be larger
    than ``MAX_BLOCK`` (checked on the sectors' shapes, before any block is built),
    the run is too short to repay the build (``MIN_PROPAGATOR_STEPS``), it overflows or
    G is too small to self-check (below 1 / ``MAX_SCALE``). Callers gate rho0.
    """
    states = hermitian_part(as_operator(rho0)[None])
    n, stride, d = cfg.n_steps, int(cfg.record_stride), model.dim

    def advance(rho: np.ndarray, chunks: list[int]) -> np.ndarray:  # the direct map
        out = np.empty((len(chunks), d, d), dtype=np.complex128)
        for record, steps in zip(out, chunks):
            for _ in range(steps):
                rho = record[:] = _step(model, rho, cfg.dt)
        return out

    # A channel with m nonzeros puts m^2 entries of G in its sectors, which hold at most
    # their largest size times d^2: past MAX_BLOCK d^2 a block is larger than MAX_BLOCK,
    # so its edges are not worth seeking.
    if max((np.count_nonzero(c) ** 2 for c in model.channels), default=0) <= MAX_BLOCK * d * d:
        sectors = _sectors(model)
        size = sectors[-1].shape[1]
        if size <= MAX_BLOCK and n >= MIN_PROPAGATOR_STEPS * (size / MAX_BLOCK) ** 3:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    blocks = _generator_blocks(model, sectors)
                    _check_against_direct_map(model, blocks)
                    advance = _rk4_propagator(blocks, cfg.dt, d) or advance
            except BadParamsError:
                pass
    yield [0], states
    starts, size, raw = range(0, n, stride), 1, states
    while starts:
        size = min(2 * size, entropy_bounds.stack_size(d))
        chunk, starts = starts[:size], starts[size:]
        ks = [min(start + stride, n) for start in chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            raw = advance(raw[-1], [k - start for k, start in zip(ks, chunk)])
            states = hermitian_part(raw)
        yield ks, states


def _health_check(states, times, spectra=None):
    """Gate states at ``times`` (finite, positivity, trace drift); first failure raises.

    Returns (trace errors, smallest eigenvalues, spectra), the last ``spectra`` if given.
    """
    trace_tol, positivity_tol = STRICT_GATE["trace_tol"], STRICT_GATE["positivity_tol"]
    finite = np.isfinite(states).all(axis=(1, 2))
    n = len(states) if finite.all() else int(np.argmin(finite))
    with np.errstate(over="ignore", invalid="ignore"):  # a state overflowing here fails below
        spectra = hermitian_eig(states[:n]) if spectra is None else spectra
        trace_errs = np.abs(np.trace(states[:n], axis1=1, axis2=2) - 1.0)
    min_eigs = spectra.eigenvalues[:, -1]
    bad = np.flatnonzero((min_eigs < -positivity_tol) | (trace_errs > trace_tol))
    if bad.size and min_eigs[bad[0]] < -positivity_tol:
        raise PositivityLostError(times[bad[0]], float(min_eigs[bad[0]]), positivity_tol)
    if bad.size:
        raise NumericsError(f"trace drift {trace_errs[bad[0]]:.3e} exceeds "
                            f"{trace_tol:.1e} at t={times[bad[0]]:.6g}; reduce dt")
    if n < len(states):
        raise NumericsError(f"state diverged to non-finite entries by t={times[n]:.6g}; reduce dt")
    return trace_errs, min_eigs, spectra


def _gated_stacks(model: LindbladModel, rho0, cfg: IntegratorConfig):
    """Yield (times, states, reports, trace_errors, min_eigs) for each stack of records.

    rho0's input gate decomposes record 0, its Hermitian part; each later stack of
    :func:`_recorded_steps` passes :func:`_health_check` (one ``eigh``; a stack's first
    failure raises first). These ``STRICT_GATE`` spectra, at least as strict as
    ``ENTROPY_GATE``, are bounded as they are. Nothing is kept across stacks.
    """
    spectra = density_spectra(as_operator(rho0)[None], **STRICT_GATE)
    for ks, stack in _recorded_steps(model, rho0, cfg):
        times = [k * cfg.dt for k in ks]
        *gate, spectra = _health_check(stack, times, spectra if ks == [0] else None)
        yield times, stack, entropy_bounds.bound_reports(model, times, spectra), *gate


def propagate(model: LindbladModel, rho0, cfg: IntegratorConfig) -> TrajectoryRecord:
    """Integrate the master equation and record states with bound reports.

    Records at step multiples of ``cfg.record_stride`` plus the final step, each gated
    on positivity and trace drift at ``operators.STRICT_GATE``: the stacks of
    :func:`_gated_stacks`, held whole. A failing run stops within about twice the records
    before its failure.
    """
    times, states, reports, *gates = zip(*_gated_stacks(model, rho0, cfg))
    return TrajectoryRecord(np.asarray(list(chain(*times))), list(chain(*states)),
                            list(chain(*reports)), *map(np.concatenate, gates))


def final_state(model: LindbladModel, rho0, cfg: IntegratorConfig) -> np.ndarray:
    """Propagate without intermediate recording; rho0 is gated, the last state health-checked."""
    density_spectra(as_operator(rho0)[None], **STRICT_GATE)
    for ks, states in _recorded_steps(model, rho0, cfg):
        pass
    _health_check(states[-1:], [ks[-1] * cfg.dt])
    return states[-1]


def convergence_order_check(model: LindbladModel, rho0, cfg: IntegratorConfig) -> float | None:
    """Richardson estimate of the integrator's convergence order.

    Runs to the same final time with steps dt, dt/2 and dt/4 and infers the
    order from the error ratio against the dt/4 reference. Returns None when
    the errors are too small to resolve (e.g. a zero generator integrates
    exactly), rather than a meaningless number.
    """
    if cfg.n_steps < 2:
        raise ConfigError("order estimation needs at least two coarse steps")
    base = replace(cfg, t_max=cfg.n_steps * cfg.dt)
    coarse = final_state(model, rho0, base)
    mid = final_state(model, rho0, replace(base, dt=base.dt / 2))
    ref = final_state(model, rho0, replace(base, dt=base.dt / 4))
    err_coarse = float(np.linalg.norm(coarse - ref))
    err_mid = float(np.linalg.norm(mid - ref))
    if err_coarse < 1e-13 or err_mid < 1e-14:
        return None
    ratio = err_coarse / err_mid
    # err(dt)/err(dt/2) against the dt/4 reference tends to 2^p + 1 at order p.
    if ratio <= 1.0:
        return None
    return math.log2(ratio - 1.0)
