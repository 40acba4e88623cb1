"""Lindblad generator and fixed-step time propagation with physicality safeguards.

The generator is ``d rho/dt = -i[H, rho] + sum_j D[L_j] rho`` with
``D[L] rho = L rho L^dag - (L^dag L rho + rho L^dag L)/2`` and hbar = 1; all
rates and times are dimensionless. Propagation uses a classical fixed-step
fourth-order Runge-Kutta scheme so trajectories are bit-reproducible.
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
    hermitian_eig,
    hermiticity_defect,
    is_hermitian,
)

# Recorded states must hold |tr(rho) - 1| within this drift; the trace is never renormalized.
TRACE_DRIFT_TOL = 1e-9

# Recorded states may dip this far below zero in their smallest eigenvalue.
POSITIVITY_TOL = 1e-8


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
    whose squared Frobenius norm is not finite raises BadParamsError.
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


def _step(model: LindbladModel, state: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step: a fixed linear map of the state."""
    k1 = liouvillian_rhs(model, state)
    k2 = liouvillian_rhs(model, state + (0.5 * dt) * k1)
    k3 = liouvillian_rhs(model, state + (0.5 * dt) * k2)
    k4 = liouvillian_rhs(model, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _recorded_steps(model: LindbladModel, rho0, cfg: IntegratorConfig):
    """Yield (k, state) at step 0, at multiples of ``cfg.record_stride`` and at the last step.

    Each yielded state is replaced by its Hermitian part, which is exactly
    Hermitian, and integration continues from it. An unstable ``dt`` may
    overflow between records; the health gate reports that.
    """
    state = assert_density(
        rho0, hermiticity_tol=1e-9, positivity_tol=POSITIVITY_TOL, trace_tol=1e-9
    )
    state = 0.5 * (state + adjoint(state))
    n, stride = cfg.n_steps, int(cfg.record_stride)
    yield 0, state
    for start in range(0, n, stride):
        stop = min(start + stride, n)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(start, stop):
                state = _step(model, state, cfg.dt)
            state = 0.5 * (state + adjoint(state))
        yield stop, state


def _health_check(state: np.ndarray, t: float) -> tuple[float, float, SpectralDecomposition]:
    """Gate a recorded state; returns (trace_err, min_eig, spectrum)."""
    if not np.all(np.isfinite(state)):
        raise NumericsError(f"state diverged to non-finite entries by t={t:.6g}; reduce dt")
    spectrum = hermitian_eig(state)
    min_eig = float(spectrum.eigenvalues[-1])
    if min_eig < -POSITIVITY_TOL:
        raise PositivityLostError(t, min_eig, POSITIVITY_TOL)
    trace_err = abs(complex(np.trace(state)) - 1.0)
    if trace_err > TRACE_DRIFT_TOL:
        raise NumericsError(
            f"trace drift {trace_err:.3e} exceeds {TRACE_DRIFT_TOL:.1e} at t={t:.6g}; reduce dt"
        )
    return trace_err, min_eig, spectrum


def propagate(model: LindbladModel, rho0, cfg: IntegratorConfig) -> TrajectoryRecord:
    """Integrate the master equation and record states with bound reports.

    Records at step multiples of ``cfg.record_stride`` plus the final step.
    Every recorded state is gated on positivity (within ``POSITIVITY_TOL``)
    and trace drift (within ``TRACE_DRIFT_TOL``).
    """
    rows = []
    for k, state in _recorded_steps(model, rho0, cfg):
        t = k * cfg.dt
        trace_err, min_eig, spectrum = _health_check(state, t)
        report = entropy_bounds.bound_report(model, state, t, spectrum=spectrum)
        rows.append((t, state, report, trace_err, min_eig))
    times, states, reports, trace_errors, min_eigs = zip(*rows)
    return TrajectoryRecord(
        np.asarray(times), list(states), list(reports),
        np.asarray(trace_errors), np.asarray(min_eigs),
    )


def final_state(model: LindbladModel, rho0, cfg: IntegratorConfig) -> np.ndarray:
    """Propagate without intermediate recording; health checks run at the end only."""
    for k, state in _recorded_steps(model, rho0, cfg):
        pass
    _health_check(state, k * cfg.dt)
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
