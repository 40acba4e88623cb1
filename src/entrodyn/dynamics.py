"""Lindblad generator, its superoperator and fixed-step time propagation.

The generator is ``d rho/dt = -i[H, rho] + sum_j D[L_j] rho`` with
``D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L)/2`` and hbar = 1; all
rates and times are dimensionless. Propagation uses a classical fixed-step
fourth-order Runge-Kutta scheme so trajectories are bit-reproducible.

Vectorization stacks columns: ``vec(A X B) = kron(B.T, A) @ vec(X)``. The
generator G on vec(rho) is used as dense blocks over its sectors, read off the
model's operators (:func:`_sectors`, :func:`_generator_blocks`); the steady
state and the RK4 propagator both run on them, and no d^2 x d^2 matrix is
formed unless G is one block. The blocks are cross-checked against the direct
generator on random states before any use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import entropy_bounds
from .errors import (BadParamsError, ConfigError, DimMismatchError, NotHermitianError,
                     NumericsError, PositivityLostError)
from .operators import (SpectralDecomposition, adjoint, as_operator, assert_density,
                        frobenius_norm_sq, gram_state, hermitian_eig, hermitian_part,
                        hermiticity_defect, is_hermitian)

# Recorded states must hold |tr(rho) - 1| within this drift; the trace is never renormalized.
TRACE_DRIFT_TOL = 1e-9

# Recorded states may dip this far below zero in their smallest eigenvalue.
POSITIVITY_TOL = 1e-8

# Largest block of G, in entries of rho, that the RK4 propagator advances; runs
# of fewer than MIN_PROPAGATOR_STEPS * (s/256)^3 steps, s the largest block, step
# directly too (the build is three s x s products per block). Measured for one
# dense block, s = d^2, BLAS on one thread, 2-core x86-64 VM (direct step vs
# matvec, build, break-even): d=2 113 vs 1.9 us, 1.0 ms, 9 steps; d=14 105 vs
# 12 us, 5.1 ms, 55; d=16 105 vs 18 us, 9.6 ms, 110; d=20 187 vs 110 us, 40 ms, 510.
MAX_BLOCK = 256
MIN_PROPAGATOR_STEPS = 110

# Largest |H|_F^2 + sum_j |L_j|_F^2: derived numbers, at most 32x it, stay finite.
MAX_SCALE = np.finfo(np.float64).max / 64


def _frozen_copy(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """A Hamiltonian plus decoherence channels on one Hilbert space.

    The Hamiltonian must be Hermitian to within 1e-10 relative; channel
    operators may be arbitrary complex matrices of the same dimension.
    Stored arrays are frozen copies, so models are safe to share. Derived
    once per model: ``channel_adjoints`` (each L_j^dag), ``channel_squares``
    (each L_j^dag L_j), ``channel_norms_sq`` (each |L_j|_F^2) and
    ``channels_hermitian`` (every channel Hermitian). A Hamiltonian or channel
    whose squared Frobenius norm is not finite, or a model whose scale
    |H|_F^2 + sum_j |L_j|_F^2 exceeds ``MAX_SCALE``, raises BadParamsError.
    """

    hamiltonian: np.ndarray
    channels: tuple[np.ndarray, ...] = ()
    label: str = ""
    channel_adjoints: tuple[np.ndarray, ...] = field(init=False, repr=False)
    channel_squares: tuple[np.ndarray, ...] = field(init=False, repr=False)
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
        object.__setattr__(self, "hamiltonian", _frozen_copy(h))
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "channel_adjoints",
                           tuple(_frozen_copy(np.ascontiguousarray(adjoint(c))) for c in chans))
        object.__setattr__(self, "channel_squares",
                           tuple(_frozen_copy(adjoint(c) @ c) for c in chans))
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
    step. Each recorded state is replaced by its Hermitian part and gated on
    positivity (``POSITIVITY_TOL``) and trace drift (``TRACE_DRIFT_TOL``); the
    trace is never renormalized, so drift stays an integrator diagnostic.
    """

    dt: float
    t_max: float
    record_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError("dt must be positive and finite")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ConfigError("t_max must be positive and finite")
        if not self.dt < self.t_max:
            raise ConfigError("dt must be smaller than t_max")
        if not math.isfinite(self.t_max / self.dt):
            raise ConfigError("t_max / dt overflows; the step count must be finite")
        if int(self.record_stride) != self.record_stride or self.record_stride < 1:
            raise ConfigError("record_stride must be an integer >= 1")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_max / self.dt)))


@dataclass(eq=False)
class TrajectoryRecord:
    """Recorded states and per-time bound reports along one trajectory."""

    times: np.ndarray
    states: list[np.ndarray]
    reports: list["entropy_bounds.BoundReport"]
    trace_errors: np.ndarray
    min_eigs: np.ndarray


def liouvillian_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Full generator -i[H, rho] + sum_j D[L_j] rho, of one state or of each of a stack."""
    state = np.asarray(rho, dtype=np.complex128)
    if state.shape[-2:] != model.hamiltonian.shape:
        raise DimMismatchError(f"state {state.shape} vs model dim {model.dim}")
    h = model.hamiltonian
    out = -1j * (h @ state - state @ h)
    for c, c_dag, sq in zip(model.channels, model.channel_adjoints, model.channel_squares):
        out += c @ state @ c_dag - 0.5 * (sq @ state + state @ sq)
    return out


def vec(x) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x, dtype=np.complex128).reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(v, dtype=np.complex128).reshape((d, d), order="F")


def _decay_terms(model: LindbladModel) -> tuple[np.ndarray, np.ndarray]:
    """K = -iH - sum_j L_j^dag L_j / 2 (acting from the left) and R = iH - sum_j L_j^dag L_j / 2."""
    half_decay = sum((0.5 * sq for sq in model.channel_squares), np.zeros_like(model.hamiltonian))
    return -1j * model.hamiltonian - half_decay, 1j * model.hamiltonian - half_decay


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """The d^2 x d^2 matrix on vec(rho): kron(I, K) + kron(R.T, I) + sum_j kron(conj(L_j), L_j).

    The jump terms are one einsum over the stacked channels; K and R.T are
    added into strided block diagonals, so no Kronecker product is formed. The
    package runs on :func:`_generator_blocks`; this is the tests' oracle.
    """
    d = model.dim
    k, r = _decay_terms(model)
    chans = np.array(model.channels, dtype=np.complex128).reshape(-1, d, d)
    # entry (b*d + a, e*d + c) of kron(conj(L), L) is conj(L)[b, e] L[a, c]
    gen4 = np.einsum("jbe,jac->baec", np.conj(chans), chans)
    idx = np.arange(d)
    gen4[idx, :, idx, :] += k
    gen4[:, idx, :, idx] += r.T
    return gen4.reshape(d * d, d * d)


def _sectors(model: LindbladModel) -> list[np.ndarray]:
    """Blocks of G (and of M, G with the trace row), as one (count, size) index array per size.

    G maps rho[c, e] into rho[a, b] with weight delta_be K[a, c] +
    delta_ac R[e, b] + sum_j conj(L_j[b, e]) L_j[a, c], so the blocks are the
    connected components of the edges that K, R and each channel's pairs of
    nonzeros make, plus the trace row's, which joins rho's diagonal. This covers
    G's exact pattern: a block is a component of it or, where entries cancel,
    coarser. Indices ascend within a block and blocks of one size by their
    first index, so index 0 is entry [0, 0] of its array.
    """
    d = model.dim
    if any(np.count_nonzero(chan) == d * d for chan in model.channels):
        return [np.arange(d * d)[None]]  # a dense channel joins every pair: one block, no sweep
    cell = np.arange(d * d).reshape(d, d)  # cell[b, a] is the vec index of rho[a, b]
    k, r = _decay_terms(model)
    (a, c), (e, b) = np.nonzero(k), np.nonzero(r)
    edges = [(cell[:, a], cell[:, c]), (cell[b], cell[e]), (0 * cell[0], cell.diagonal())]
    for rows, cols in (np.nonzero(chan) for chan in model.channels):
        edges.append((cell[rows[:, None], rows], cell[cols[:, None], cols]))
    label = _components(*(np.concatenate([x[i].ravel() for x in edges]) for i in (0, 1)), d * d)
    order = np.argsort(label, kind="stable")
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    # sorted(set()), not np.unique: a process's first plain np.unique costs ~15 ms
    return [order[starts[sizes == size][:, None] + np.arange(size)]
            for size in sorted(set(sizes.tolist()))]


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
    """(index, blocks) per sector size, blocks[i] = G[index[i]][:, index[i]]; G is 0 elsewhere.

    Entries are summed in :func:`build_superoperator`'s order (channels, K, R),
    so they equal its entries bit for bit; callers run the self-check on them.
    """
    d, (k, r), out = model.dim, _decay_terms(model), []
    for idx in sectors:
        a, b = idx % d, idx // d  # row i of a block is rho[a[i], b[i]], and so is column i
        blocks = np.zeros(idx.shape + idx.shape[1:], dtype=np.complex128)
        for chan in model.channels:  # einsum's complex product, as in build_superoperator
            blocks += np.einsum("nik,nik->nik", np.conj(chan[b[:, :, None], b[:, None, :]]),
                                chan[a[:, :, None], a[:, None, :]])
        n, i, j = np.nonzero(b[:, :, None] == b[:, None, :])
        blocks[n, i, j] += k[a[n, i], a[n, j]]
        n, i, j = np.nonzero(a[:, :, None] == a[:, None, :])
        blocks[n, i, j] += r[b[n, j], b[n, i]]
        out.append((idx, blocks))
    return out


def _apply(blocks: list[tuple], v: np.ndarray) -> np.ndarray:
    """G @ v for v of shape (d^2, k), G given by its blocks."""
    out = np.empty_like(v)
    for idx, mats in blocks:
        out[idx] = mats @ v[idx]
    return out


def _magnitudes(blocks: list[tuple]) -> tuple[float, float, float]:
    """Largest |entry| of G (1 for a zero G); |G|_F and largest column norm in its units."""
    rel = [np.abs(mats) for _, mats in blocks]
    peak = max(float(x.max(initial=0.0)) for x in rel) or 1.0
    if peak < 1.0 / MAX_SCALE:  # its reciprocal, which scales the self-check's probes, overflows
        raise BadParamsError(f"generator scale {peak:.3e} is below 1/MAX_SCALE = "
                             f"{1.0 / MAX_SCALE:.3e}; rescale time")
    for x in rel:
        x /= peak
    col_sq = np.concatenate([np.einsum("nij,nij->nj", x, x).ravel() for x in rel])
    return peak, math.sqrt(float(col_sq.sum())), math.sqrt(float(col_sq.max(initial=0.0)))


def _check_against_direct_map(model: LindbladModel, blocks: list[tuple]) -> tuple:
    """Check G's blocks against :func:`liouvillian_rhs` on random states; return its _magnitudes.

    The probes are dense, so an entry missing between blocks shows as a residual.
    All 10 go through one stacked pass: one draw, one block product, one direct map.
    """
    peak, frob, col = _magnitudes(blocks)
    d = model.dim
    real, imag = np.random.default_rng(0).standard_normal((2, 10, d, d))
    probes = gram_state(real + 1j * imag) / peak  # units of peak
    # vec of each probe is a row of its transpose; unvec undoes it the same way
    applied = _apply(blocks, probes.swapaxes(1, 2).reshape(10, d * d).T)
    residual = applied.T.reshape(10, d, d).swapaxes(1, 2) - liouvillian_rhs(model, probes)
    # NaN fails the comparison
    if not np.all(np.linalg.norm(residual, axis=(1, 2)) <= 1e-10 * max(1.0 / peak, frob)):
        raise NumericsError("superoperator disagrees with the direct generator; "
                            "vectorization convention broken")
    return peak, frob, col


def _step(model: LindbladModel, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step: a fixed linear map of the state."""
    k1 = liouvillian_rhs(model, state)
    k2 = liouvillian_rhs(model, state + (0.5 * dt) * k1)
    k3 = liouvillian_rhs(model, state + (0.5 * dt) * k2)
    k4 = liouvillian_rhs(model, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_propagator(blocks: list[tuple], dt: float, d: int):
    """``advance(rho, k)``: k :func:`_step` maps of a d x d rho, block by block; None if not finite.

    For a linear generator L, classical RK4 is exactly the polynomial
    sum_{k<=4} (dt L)^k / k!, evaluated per block by Horner's rule. The blocks
    are zero-padded to the largest and stacked, one matmul per step, on the
    state in block order, gathered from rho and scattered back through one
    index per call. When the stack holds d^4 / 2 entries or more (one block, or
    a few large ones), the blocks' maps fill one d^2 x d^2 matrix on vec(rho).
    """
    props = []
    for idx, mats in blocks:
        a, eye = mats * dt, np.identity(idx.shape[1], dtype=np.complex128)
        props.append((idx, eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)))
        if not np.all(np.isfinite(props[-1][1])):
            return None
    count, size = sum(len(idx) for idx, _ in blocks), blocks[-1][0].shape[1]
    if count * size * size >= d**4 / 2:
        full = np.zeros((d * d, d * d), dtype=np.complex128)
        for idx, prop in props:
            full[idx[:, :, None], idx[:, None, :]] = prop
        return lambda rho, steps: unvec(
            functools.reduce(lambda w, _: full @ w, range(steps), vec(rho)), d)
    stack = np.zeros((count, size, size), dtype=np.complex128)
    pos, row = np.empty(d * d, dtype=np.intp), 0  # pos[a*d + b]: where rho[a, b] sits in the stack
    for idx, prop in props:
        n, s = idx.shape
        stack[row:row + n, :s, :s] = prop
        pos[idx % d * d + idx // d] = size * np.arange(row, row + n)[:, None] + np.arange(s)
        row += n

    def advance(rho: np.ndarray, steps: int) -> np.ndarray:
        state = np.zeros(count * size, dtype=np.complex128)
        state[pos] = rho.ravel()  # the padding stays zero while the state is finite
        state = state.reshape(count, size, 1)
        for _ in range(steps):
            state = stack @ state
        return state.ravel().take(pos).reshape(d, d)

    return advance


def _recorded_steps(model: LindbladModel, rho0, cfg: IntegratorConfig):
    """Yield (k, state) at step 0, at multiples of ``cfg.record_stride`` and at the last step.

    Each yielded state is replaced by its Hermitian part, which is exactly
    Hermitian, and integration continues from it. An unstable ``dt`` may
    overflow between records; the health gate reports that. The steps apply
    the blocked RK4 propagator, :func:`_step`'s map in another order of
    arithmetic, unless G has a block above ``MAX_BLOCK``, the run is too short
    to repay the build (``MIN_PROPAGATOR_STEPS``), the propagator overflows
    (huge rates) or G is too small to self-check (below 1 / ``MAX_SCALE``);
    the last keeps an exactly stationary state finite.
    """
    state = hermitian_part(assert_density(rho0, hermiticity_tol=1e-9,
                                          positivity_tol=POSITIVITY_TOL, trace_tol=1e-9))
    n, stride, d = cfg.n_steps, int(cfg.record_stride), model.dim

    def advance(rho: np.ndarray, steps: int) -> np.ndarray:  # the direct map
        return functools.reduce(lambda x, _: _step(model, x, cfg.dt), range(steps), rho)

    # Blocks of at most MAX_BLOCK hold at most MAX_BLOCK d^2 entries of G, and a channel
    # with m nonzeros fills m^2: a dense channel's d^4 edges are not worth seeking.
    if max((np.count_nonzero(c) ** 2 for c in model.channels), default=0) <= MAX_BLOCK * d * d:
        sectors = _sectors(model)
        size = max(idx.shape[1] for idx in sectors)
        if size <= MAX_BLOCK and n >= MIN_PROPAGATOR_STEPS * (size / MAX_BLOCK) ** 3:
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    blocks = _generator_blocks(model, sectors)
                    _check_against_direct_map(model, blocks)
                    advance = _rk4_propagator(blocks, cfg.dt, d) or advance
            except BadParamsError:
                pass
    yield 0, state
    for start in range(0, n, stride):
        stop = min(start + stride, n)
        with np.errstate(over="ignore", invalid="ignore"):
            state = hermitian_part(advance(state, stop - start))
        yield stop, state


def _health_check(states, times) -> tuple[np.ndarray, np.ndarray, SpectralDecomposition]:
    """Gate states at ``times`` (finite, positivity, trace drift); first failure raises."""
    finite = np.isfinite(states).all(axis=(1, 2))
    n = len(states) if finite.all() else int(np.argmin(finite))
    with np.errstate(over="ignore", invalid="ignore"):  # a state overflowing here fails below
        spectra = hermitian_eig(states[:n])
        trace_errs = np.abs(np.trace(states[:n], axis1=1, axis2=2) - 1.0)
    min_eigs = spectra.eigenvalues[:, -1]
    bad = np.flatnonzero((min_eigs < -POSITIVITY_TOL) | (trace_errs > TRACE_DRIFT_TOL))
    if bad.size and min_eigs[bad[0]] < -POSITIVITY_TOL:
        raise PositivityLostError(times[bad[0]], float(min_eigs[bad[0]]), POSITIVITY_TOL)
    if bad.size:
        raise NumericsError(f"trace drift {trace_errs[bad[0]]:.3e} exceeds "
                            f"{TRACE_DRIFT_TOL:.1e} at t={times[bad[0]]:.6g}; reduce dt")
    if n < len(states):
        raise NumericsError(f"state diverged to non-finite entries by t={times[n]:.6g}; reduce dt")
    return trace_errs, min_eigs, spectra


def propagate(model: LindbladModel, rho0, cfg: IntegratorConfig) -> TrajectoryRecord:
    """Integrate the master equation and record states with bound reports.

    Records at step multiples of ``cfg.record_stride`` plus the final step.
    Every recorded state is gated on positivity (within ``POSITIVITY_TOL``)
    and trace drift (within ``TRACE_DRIFT_TOL``), a stack at a time with one
    ``eigh``. Stacks hold 1, 2, 4, ... records up to ``stack_size``, so a
    failing run stops within about twice the records before its failure; a
    non-finite state ends its stack, so an earlier failure still raises first.
    """
    rows, times, states, size = [], [], [], 1
    for k, state in _recorded_steps(model, rho0, cfg):
        times.append(k * cfg.dt)
        states.append(state)
        if len(states) == size or k == cfg.n_steps or not np.all(np.isfinite(state)):
            stack = np.stack(states)
            trace_errs, min_eigs, spectra = _health_check(stack, times)
            # These spectra stand in for entropy_bounds.gated_spectra: records are exactly
            # Hermitian, and positivity 1e-8 and trace 1e-9 are stricter than its 1e-6/1e-6.
            reports = entropy_bounds.bound_reports(model, times, spectra)
            rows += zip(times, stack, reports, trace_errs.tolist(), min_eigs.tolist())
            times, states, size = [], [], min(2 * size, entropy_bounds.stack_size(model.dim))
    times, states, reports, trace_errors, min_eigs = zip(*rows)
    return TrajectoryRecord(np.asarray(times), list(states), list(reports),
                            np.asarray(trace_errors), np.asarray(min_eigs))


def final_state(model: LindbladModel, rho0, cfg: IntegratorConfig) -> np.ndarray:
    """Propagate without intermediate recording; health checks run at the end only."""
    for k, state in _recorded_steps(model, rho0, cfg):
        pass
    _health_check(state[None], [k * cfg.dt])
    return state


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
