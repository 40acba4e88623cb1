"""Von Neumann entropy, its exact rate, and the bound/threshold family.

Everything is in nats (natural logarithm), so the entropy of a d-dimensional
state lives in [0, ln d]. The recurring per-channel quantity

    gain(L, rho) = tr(L^dag L rho) - tr(L rho L^dag rho)

is nonnegative for valid densities and feeds three results evaluated here:

* a lower bound on dS/dt:  sum_j [ -|L_j|_F^2 S + gain_j ],
* the monotonicity threshold  sum_j gain_j / sum_j |L_j|_F^2, below which the
  entropy is guaranteed non-decreasing (at most 1 for a single channel),
* the long-time entropy floor, i.e. the same ratio evaluated at a steady
  state, which lower-bounds the entropy that survives the decoherence.

For Hermitian channels the threshold numerator can be related to the
observable variance by replacing tr((sqrt(rho) L sqrt(rho))^2) with
tr(L rho)^2; that replacement is only valid for positive semidefinite L, so
it is exposed here as an audit rather than an assertion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BadDimensionError,
    DimMismatchError,
    NoChannelsError,
    NotDensityError,
    ZeroChannelError,
)
from .operators import (
    SpectralDecomposition,
    adjoint,
    as_operator,
    hermitian_eig,
    hermiticity_defect,
    require_hermitian,
    trace_product,
)

if TYPE_CHECKING:
    from .dynamics import LindbladModel

# Eigenvalues at or below this floor are treated as exactly zero under the log.
EIG_FLOOR = 1e-14

# Channel weight pushed onto the numerical null space that saturates the rate.
NULL_LEAK_TOL = 1e-10

# Sentinel for a divergent exact rate (rank-deficient state fed by a channel).
RATE_SATURATED = math.inf

# Gate tolerances for states handed to entropy evaluations. Looser than the
# construction-time tolerances so integrator output passes without massaging.
_HERMITICITY_GATE = 1e-8
_POSITIVITY_GATE = 1e-6
_TRACE_GATE = 1e-6


def _density_spectrum(rho, spectrum: SpectralDecomposition | None = None) -> SpectralDecomposition:
    """Validate the density invariants; return ``spectrum`` or a new one (descending)."""
    arr = as_operator(rho)
    if hermiticity_defect(arr) > _HERMITICITY_GATE:
        raise NotDensityError("state is not Hermitian within 1e-8")
    dec = hermitian_eig(arr) if spectrum is None else spectrum
    lam = dec.eigenvalues
    if abs(float(lam.sum()) - 1.0) > _TRACE_GATE:
        raise NotDensityError(f"state trace {lam.sum():.6f} is not 1")
    if float(lam[-1]) < -_POSITIVITY_GATE:
        raise NotDensityError(f"state has negative eigenvalue {lam[-1]:.3e}")
    return dec


def _entropy(lam: np.ndarray) -> float:
    support = lam[lam > EIG_FLOOR]
    value = float(-(support * np.log(support)).sum())
    return value if value > 0.0 else 0.0


def von_neumann_entropy(rho) -> float:
    """-tr(rho ln rho) with the 0 ln 0 = 0 convention.

    Eigenvalues at or below ``EIG_FLOOR`` are treated as exactly zero.
    """
    return _entropy(_density_spectrum(rho).eigenvalues)


def _gains(channels, squares, rho) -> tuple[np.ndarray, np.ndarray]:
    """Per channel j: gain(L_j, rho) and its first term tr(L_j^dag L_j rho).

    ``squares`` holds each L_j^dag L_j. Every bound, threshold and floor is a
    ratio or affine function of these.
    """
    state = as_operator(rho)
    if channels[0].shape != state.shape:
        raise DimMismatchError(f"channel {channels[0].shape} vs state {state.shape}")
    first = np.array([trace_product(sq, state).real for sq in squares])
    second = np.array([trace_product(c @ state @ adjoint(c), state).real for c in channels])
    return first - second, first


def channel_gain(channel, rho) -> float:
    """tr(L^dag L rho) - tr(L rho L^dag rho), the shared bound numerator."""
    op = as_operator(channel)
    gains, _ = _gains((op,), (adjoint(op) @ op,), rho)
    return float(gains[0])


def _exact_rate(model: "LindbladModel", dec: SpectralDecomposition) -> float:
    if not model.channels:
        return 0.0
    if model.hamiltonian.shape[0] != dec.eigenvalues.shape[0]:
        raise DimMismatchError(f"state dim {dec.eigenvalues.shape[0]} vs model dim {model.dim}")
    lam = dec.eigenvalues
    basis = dec.eigenvectors
    basis_dag = adjoint(basis)
    null_mask = lam <= EIG_FLOOR
    log_lam = np.log(np.maximum(lam, EIG_FLOOR))
    lam_clipped = np.maximum(lam, 0.0)
    total = 0.0
    for channel in model.channels:
        in_basis = basis_dag @ channel @ basis
        weights = np.abs(in_basis) ** 2  # weights[j, k] = |<u_j| L |u_k>|^2
        if null_mask.any():
            leak = float(np.sum(weights[null_mask] * lam_clipped))
            if leak > NULL_LEAK_TOL:
                return RATE_SATURATED
        total += float(np.sum(weights * lam[None, :] * (log_lam[None, :] - log_lam[:, None])))
    return total


def entropy_rate_exact(model: "LindbladModel", rho) -> float:
    """Exact dS/dt under the model at the given state.

    The Hamiltonian contributes nothing, so only channels enter:
    sum_j [ tr(L_j^dag L_j rho ln rho) - tr(L_j rho L_j^dag ln rho) ],
    evaluated spectrally with eigenvalues floored at ``EIG_FLOOR``. When a
    channel feeds weight above ``NULL_LEAK_TOL`` onto the numerical null space of
    rho the true rate diverges, and ``math.inf`` is returned instead of a
    clamped finite number.
    """
    return _exact_rate(model, _density_spectrum(rho))


def rate_lower_bound(model: "LindbladModel", rho) -> float:
    """Lower bound on dS/dt: sum_j [ -|L_j|_F^2 S(rho) + gain(L_j, rho) ]."""
    return bound_report(model, rho).rate_lower_bound


@dataclass(frozen=True)
class TraceSquareAudit:
    """One instance of the tr(A^2) <= tr(A)^2 replacement, A = sqrt(rho) L sqrt(rho)."""

    lhs: float
    rhs: float
    holds: bool


def trace_square_audit(
    channel, rho, *, spectrum: SpectralDecomposition | None = None
) -> TraceSquareAudit:
    """Check tr((sqrt(rho) L sqrt(rho))^2) <= tr(L rho)^2 on one instance.

    The replacement is guaranteed only for positive semidefinite L. For
    sign-indefinite Hermitian L it can fail (e.g. the z Pauli matrix against
    I/2 gives lhs 1/2 vs rhs 0), so outcomes are recorded, never raised; the
    check allows 1e-10 of rounding. ``spectrum`` is the decomposition of
    ``rho`` if the caller has it.
    """
    op = require_hermitian(channel, what="channel")
    dec = _density_spectrum(rho, spectrum)
    lam = np.clip(dec.eigenvalues, 0.0, None)
    sqrt_rho = (dec.eigenvectors * np.sqrt(lam)) @ adjoint(dec.eigenvectors)
    sandwiched = sqrt_rho @ op @ sqrt_rho
    lhs = trace_product(sandwiched, sandwiched).real
    rhs = trace_product(op, as_operator(rho)).real ** 2
    return TraceSquareAudit(lhs, rhs, lhs <= rhs + 1e-10)


@dataclass(frozen=True)
class SteadyStateBound:
    """Long-time entropy floor evaluated at a steady state.

    ``entropy_floor`` is clamped at zero; the raw ratio (which can dip
    marginally below zero from numerical noise at exact steady states) is
    kept alongside.
    """

    entropy_floor: float
    entropy_floor_raw: float
    channel_gains: tuple[float, ...]
    total_channel_weight: float


def steady_state_bound(model: "LindbladModel", rho_inf) -> SteadyStateBound:
    """Evaluate the long-time entropy floor sum_j gain_j / sum_j |L_j|_F^2."""
    if not model.channels:
        raise NoChannelsError("model has no decoherence channels")
    weight = float(model.channel_norms_sq.sum())
    if weight <= 0.0:
        raise ZeroChannelError("every channel has zero Frobenius norm")
    gains, _ = _gains(model.channels, model.channel_squares, rho_inf)
    raw = float(gains.sum()) / weight
    return SteadyStateBound(max(0.0, raw), raw, tuple(gains.tolist()), weight)


def maximally_mixed_bound(d: int) -> float:
    """Entropy floor when the steady state is I/d: (d - 1) / d^2.

    Maximal at d = 2 (value 1/4) and strictly decreasing afterwards.
    """
    if d < 2:
        raise BadDimensionError("the floor needs dimension d >= 2")
    return (d - 1) / (d * d)


def log_inequality_check(rho, *, spectrum: SpectralDecomposition | None = None) -> float:
    """Smallest eigenvalue of (-ln rho - I + rho).

    Nonnegative for every density matrix (the scalar bound -ln x >= 1 - x
    applied to the spectrum); eigenvalues are floored at ``EIG_FLOOR`` under
    the log. A return value below -1e-10 on a full-rank state indicates a
    broken eigendecomposition. ``spectrum`` is the decomposition of ``rho``
    if the caller has it.
    """
    lam = _density_spectrum(rho, spectrum).eigenvalues
    values = -np.log(np.maximum(lam, EIG_FLOOR)) - 1.0 + lam
    return float(values.min())


@dataclass(frozen=True)
class BoundReport:
    """All per-state entropy/bound quantities evaluated at one time point.

    ``rate_exact`` is ``math.inf`` when the rate saturates on a state with a
    fed null space (then ``log_floor_hit`` is set). Thresholds are None when
    the model has no channels, or only zero-norm channels, to compare
    against; ``threshold_variance`` additionally requires every channel to be
    Hermitian.
    """

    time: float
    entropy: float
    rate_exact: float
    rate_lower_bound: float
    threshold_general: float | None
    threshold_variance: float | None
    monotone_guaranteed: bool
    log_floor_hit: bool


def bound_report(
    model: "LindbladModel",
    rho,
    time: float = 0.0,
    *,
    spectrum: SpectralDecomposition | None = None,
) -> BoundReport:
    """Aggregate entropy, exact rate, rate bound and thresholds at one state.

    Everything derives from one validated spectrum of ``rho`` and one vector
    of channel gains. ``spectrum`` is the decomposition of ``rho`` if the
    caller has it.
    """
    dec = _density_spectrum(rho, spectrum)
    entropy = _entropy(dec.eigenvalues)
    if not model.channels:
        return BoundReport(time, entropy, 0.0, 0.0, None, None, False, False)
    rate = _exact_rate(model, dec)
    gains, first = _gains(model.channels, model.channel_squares, rho)
    weight = float(model.channel_norms_sq.sum())
    gain = float(gains.sum())
    lower = -weight * entropy + gain
    threshold = gain / weight if weight > 0.0 else None
    threshold_var = None
    if weight > 0.0 and model.channels_hermitian:
        # Var[L_j] = tr(L_j^2 rho) - tr(L_j rho)^2, with L_j^2 = L_j^dag L_j.
        state = as_operator(rho)
        means = np.array([trace_product(c, state).real for c in model.channels])
        threshold_var = float((first - means * means).sum()) / weight
    monotone = threshold is not None and entropy <= threshold
    return BoundReport(
        time=time,
        entropy=entropy,
        rate_exact=rate,
        rate_lower_bound=lower,
        threshold_general=threshold,
        threshold_variance=threshold_var,
        monotone_guaranteed=monotone,
        log_floor_hit=math.isinf(rate),
    )
