"""Lindblad generator, its superoperator and fixed-step time propagation.

The generator is ``d rho/dt = -i[H, rho] + sum_j D[L_j] rho`` with
``D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L)/2`` and hbar = 1; all
rates and times are dimensionless. Propagation uses a classical fixed-step
fourth-order Runge-Kutta scheme so trajectories are bit-reproducible.

Vectorization uses the column-stacking convention throughout: ``vec(X)``
stacks the columns of X, so ``vec(A X B) = kron(B.T, A) @ vec(X)``. Mixing
stacking conventions is the classic silent-corruption bug for this kind of
code, so the superoperator builder cross-checks the assembled matrix against
the direct generator on random states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import entropy_bounds
from .errors import (
    BadParamsError,
    ConfigError,
    DimMismatchError,
    NotHermitianError,
    NumericsError,
    PositivityLostError,
)
from .operators import (
    SpectralDecomposition,
    adjoint,
    as_operator,
    assert_density,
    frobenius_norm_sq,
    ginibre_state,
    hermitian_eig,
    hermitian_part,
    hermiticity_defect,
    is_hermitian,
)

# Recorded states must hold |tr(rho) - 1| within this drift; the trace is never renormalized.
TRACE_DRIFT_TOL = 1e-9

# Recorded states may dip this far below zero in their smallest eigenvalue.
POSITIVITY_TOL = 1e-8

# Largest dimension advanced by the dense RK4 propagator, one d^2 x d^2 matvec
# per step; above it each step applies the direct generator four times. Runs
# shorter than DENSE_MIN_STEPS * (d/16)^6 steps also step directly: the build
# costs three d^2 x d^2 products. Measured with BLAS on one thread on a 2-core
# x86-64 VM (direct step vs matvec, build, break-even): d=2 113 vs 1.9 us,
# 1.0 ms, 9 steps; d=14 105 vs 12 us, 5.1 ms, 55; d=16 105 vs 18 us, 9.6 ms,
# 110 (130 with Kronecker products); d=20 187 vs 110 us, 40 ms, 510.
DENSE_MAX_DIM = 16
DENSE_MIN_STEPS = 110

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
        object.__setattr__(
            self,
            "channel_adjoints",
            tuple(_frozen_copy(np.ascontiguousarray(adjoint(c))) for c in chans),
        )
        object.__setattr__(
            self, "channel_squares", tuple(_frozen_copy(adjoint(c) @ c) for c in chans)
        )
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
    """Full generator -i[H, rho] + sum_j (L_j rho L_j^dag - {L_j^dag L_j, rho}/2)."""
    state = np.asarray(rho, dtype=np.complex128)
    if state.shape != model.hamiltonian.shape:
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


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """Assemble the d^2 x d^2 matrix acting on vec(rho).

    kron(I, K) + kron(R.T, I) + sum_j kron(conj(L_j), L_j), where
    K = -iH - sum_j L_j^dag L_j / 2 multiplies rho from the left and
    R = iH - sum_j L_j^dag L_j / 2 from the right. The jump terms are one
    einsum over the stacked channels; K and R.T are added into strided block
    diagonals, O(d^3) each, so no Kronecker product is formed. Nothing is
    checked here: each caller in the package runs :func:`_check_against_direct_map`,
    which also returns the magnitudes the steady-state solve reuses.
    """
    d, h = model.dim, model.hamiltonian
    half_decay = sum((0.5 * sq for sq in model.channel_squares), np.zeros((d, d), complex))
    chans = np.array(model.channels, dtype=np.complex128).reshape(-1, d, d)
    # entry (b*d + a, e*d + c) of kron(conj(L), L) is conj(L)[b, e] L[a, c]
    gen4 = np.einsum("jbe,jac->baec", np.conj(chans), chans)
    idx = np.arange(d)
    gen4[idx, :, idx, :] += -1j * h - half_decay
    gen4[:, idx, :, idx] += (1j * h - half_decay).T
    return gen4.reshape(d * d, d * d)


def _magnitudes(gen: np.ndarray) -> tuple[float, float, float]:
    """Largest |entry| (1 for a zero matrix); |G|_F and largest column norm in its units."""
    rel = np.abs(gen)
    peak = float(rel.max(initial=0.0)) or 1.0
    if peak < 1.0 / MAX_SCALE:  # its reciprocal, which scales the self-check's probes, overflows
        raise BadParamsError(f"generator scale {peak:.3e} is below 1/MAX_SCALE = "
                             f"{1.0 / MAX_SCALE:.3e}; rescale time")
    rel /= peak
    col_sq = np.einsum("ij,ij->j", rel, rel)
    return peak, math.sqrt(float(col_sq.sum())), math.sqrt(float(col_sq.max(initial=0.0)))


def _check_against_direct_map(model: LindbladModel, gen: np.ndarray) -> tuple[float, float, float]:
    """Check gen against :func:`liouvillian_rhs` on random states; return its _magnitudes."""
    peak, frob, col = _magnitudes(gen)
    probes = [ginibre_state(model.dim, seed) / peak for seed in range(10)]  # units of peak
    applied = gen @ np.stack([vec(rho) for rho in probes], axis=1)
    for rho, column in zip(probes, applied.T):
        residual = unvec(column, model.dim) - liouvillian_rhs(model, rho)
        if not float(np.linalg.norm(residual)) <= 1e-10 * max(1.0 / peak, frob):  # NaN fails
            raise NumericsError(
                "superoperator disagrees with the direct generator; "
                "vectorization convention broken"
            )
    return peak, frob, col


def _step(model: LindbladModel, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step: a fixed linear map of the state."""
    k1 = liouvillian_rhs(model, state)
    k2 = liouvillian_rhs(model, state + (0.5 * dt) * k1)
    k3 = liouvillian_rhs(model, state + (0.5 * dt) * k2)
    k4 = liouvillian_rhs(model, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_propagator(model: LindbladModel, dt: float) -> np.ndarray:
    """The map of one :func:`_step` as a d^2 x d^2 matrix on vec(rho).

    For a linear generator L, classical RK4 is exactly the polynomial
    sum_{k<=4} (dt L)^k / k!; it is evaluated here by Horner's rule.
    """
    a = build_superoperator(model)
    _check_against_direct_map(model, a)
    a *= dt  # in place: no second d^2 x d^2 matrix stays alive
    eye = np.identity(a.shape[0], dtype=np.complex128)
    return eye + a @ (eye + a @ (eye + a @ (eye + a / 4) / 3) / 2)


def _recorded_steps(model: LindbladModel, rho0, cfg: IntegratorConfig):
    """Yield (k, state) at step 0, at multiples of ``cfg.record_stride`` and at the last step.

    Each yielded state is replaced by its Hermitian part, which is exactly
    Hermitian, and integration continues from it. An unstable ``dt`` may
    overflow between records; the health gate reports that. Up to
    ``DENSE_MAX_DIM`` the steps multiply vec(rho) by the RK4 propagator, the
    same map as :func:`_step` in a different order of arithmetic. Runs too
    short to repay the propagator's build (``DENSE_MIN_STEPS``), propagators
    that overflow (huge rates) and generators too small to self-check (below
    1 / ``MAX_SCALE``) use :func:`_step`; the second keeps an exactly
    stationary state finite.
    """
    state = assert_density(
        rho0, hermiticity_tol=1e-9, positivity_tol=POSITIVITY_TOL, trace_tol=1e-9
    )
    state = hermitian_part(state)
    n, stride, d = cfg.n_steps, int(cfg.record_stride), model.dim
    prop = None
    if d <= DENSE_MAX_DIM and n >= DENSE_MIN_STEPS * (d / DENSE_MAX_DIM) ** 6:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                prop = _rk4_propagator(model, cfg.dt)
        except BadParamsError:
            pass
        if prop is not None and not np.all(np.isfinite(prop)):
            prop = None
    yield 0, state
    for start in range(0, n, stride):
        stop = min(start + stride, n)
        with np.errstate(over="ignore", invalid="ignore"):
            if prop is None:
                for _ in range(start, stop):
                    state = _step(model, state, cfg.dt)
            else:
                v = vec(state)
                for _ in range(start, stop):
                    v = prop @ v
                state = unvec(v, d)
            state = hermitian_part(state)
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
            reports = entropy_bounds.bound_reports(model, stack, times, spectra)
            rows += zip(times, stack, reports, trace_errs.tolist(), min_eigs.tolist())
            times, states, size = [], [], min(2 * size, entropy_bounds.stack_size(model.dim))
    times, states, reports, trace_errors, min_eigs = zip(*rows)
    return TrajectoryRecord(
        np.asarray(times), list(states), list(reports),
        np.asarray(trace_errors), np.asarray(min_eigs),
    )


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
