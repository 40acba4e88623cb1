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

from .errors import BadDimensionError, DimMismatchError, NoChannelsError, ZeroChannelError
from .operators import (
    SpectralDecomposition,
    adjoint,
    as_operator,
    density_spectra,
    require_hermitian,
)

if TYPE_CHECKING:
    from .dynamics import LindbladModel

# Eigenvalues at or below this floor are treated as exactly zero under the log.
EIG_FLOOR = 1e-14

# Channel weight pushed onto the numerical null space that saturates the rate.
NULL_LEAK_TOL = 1e-10

# Sentinel for a divergent exact rate (rank-deficient state fed by a channel).
RATE_SATURATED = math.inf

# Matrix entries per stack passed to bound_reports and the audits: 256 KB per
# temporary. Per recorded state (one BLAS thread, 2-core x86-64 VM), d=2/8/32:
# 8/20/236 us at 2^14 entries, no faster at 2^16; d=32 324 us at 2^12.
STACK_ENTRIES = 2**14

# Gate tolerances for states handed to entropy evaluations. Looser than the
# construction-time tolerances so integrator output passes without massaging.
_HERMITICITY_GATE = 1e-8
_POSITIVITY_GATE = 1e-6
_TRACE_GATE = 1e-6


def stack_size(d: int) -> int:
    """Most d x d states per stack: ``STACK_ENTRIES // d^2``, at least one."""
    return max(1, STACK_ENTRIES // d**2)


def gated_spectra(states) -> SpectralDecomposition:
    """:func:`density_spectra` of a stack at the entropy-evaluation gates."""
    return density_spectra(states, hermiticity_tol=_HERMITICITY_GATE, trace_tol=_TRACE_GATE,
                           positivity_tol=_POSITIVITY_GATE)


def _one(rho) -> tuple[np.ndarray, SpectralDecomposition]:
    """A state as a stack of one, and its gated spectrum."""
    states = as_operator(rho)[None]
    return states, gated_spectra(states)


def _entropies(lam: np.ndarray) -> np.ndarray:
    """-sum lam ln lam per row over its prefix above EIG_FLOOR, added as for one state."""
    support = np.count_nonzero(lam > EIG_FLOOR, axis=-1)
    terms = lam * np.log(np.maximum(lam, EIG_FLOOR))
    out = np.zeros(len(lam))
    for m in np.unique(support):
        out[support == m] = -terms[support == m, :m].sum(axis=-1)
    return np.where(out > 0.0, out, 0.0)


def von_neumann_entropy(rho) -> float:
    """-tr(rho ln rho) with the 0 ln 0 = 0 convention.

    Eigenvalues at or below ``EIG_FLOOR`` are treated as exactly zero.
    """
    return float(_entropies(_one(rho)[1].eigenvalues)[0])


def _gains(channels, squares, states) -> tuple[np.ndarray, np.ndarray]:
    """Per state and channel j, as (n, channels) arrays: gain(L_j, rho), tr(L_j^dag L_j rho).

    ``squares`` holds each L_j^dag L_j. Every bound, threshold and floor is a
    ratio or affine function of these.
    """
    if channels[0].shape != states.shape[1:]:
        raise DimMismatchError(f"channel {channels[0].shape} vs state {states.shape[1:]}")
    first = np.stack([np.einsum("ij,nji->n", sq, states).real for sq in squares], axis=1)
    second = [np.einsum("nij,nji->n", c @ states @ adjoint(c), states).real for c in channels]
    return first - np.stack(second, axis=1), first


def _exact_rates(model: "LindbladModel", dec: SpectralDecomposition) -> np.ndarray:
    """Exact dS/dt per state: sum_j [tr(L_j^dag L_j rho ln rho) - tr(L_j rho L_j^dag ln rho)].

    A channel that feeds rho's null space above ``NULL_LEAK_TOL`` gives ``RATE_SATURATED``.
    """
    lam, vecs = dec.eigenvalues, dec.eigenvectors
    if model.channels and model.dim != lam.shape[-1]:
        raise DimMismatchError(f"state dim {lam.shape[-1]} vs model dim {model.dim}")
    log_lam = np.log(np.maximum(lam, EIG_FLOOR))
    log_ratio = log_lam[:, None, :] - log_lam[:, :, None]
    # leak_weight[n, j, k] = lam_k on the null rows j of state n
    leak_weight = (lam <= EIG_FLOOR)[:, :, None] * np.maximum(lam, 0.0)[:, None, :]
    total, saturated = np.zeros(len(lam)), np.zeros(len(lam), dtype=bool)
    for channel in model.channels:
        weights = np.abs(adjoint(vecs) @ channel @ vecs) ** 2  # |<u_j| L |u_k>|^2
        saturated |= np.sum(weights * leak_weight, axis=(1, 2)) > NULL_LEAK_TOL
        total += np.sum(weights * lam[:, None, :] * log_ratio, axis=(1, 2))
    return np.where(saturated, RATE_SATURATED, total)


@dataclass(frozen=True)
class TraceSquareAudit:
    """One instance of the tr(A^2) <= tr(A)^2 replacement, A = sqrt(rho) L sqrt(rho)."""

    lhs: float
    rhs: float
    holds: bool


def trace_square_audits(channels, states, spectra) -> tuple[np.ndarray, ...]:
    """lhs, rhs, holds of :func:`trace_square_audit`, given Hermitian channels and gated spectra."""
    lam = np.clip(spectra.eigenvalues, 0.0, None)
    sqrt_rho = (spectra.eigenvectors * np.sqrt(lam)[:, None, :]) @ adjoint(spectra.eigenvectors)
    sandwiched = sqrt_rho @ channels @ sqrt_rho
    lhs = np.einsum("nij,nji->n", sandwiched, sandwiched).real
    rhs = np.einsum("nij,nji->n", channels, states).real ** 2
    return lhs, rhs, lhs <= rhs + 1e-10


def trace_square_audit(channel, rho) -> TraceSquareAudit:
    """Check tr((sqrt(rho) L sqrt(rho))^2) <= tr(L rho)^2 on one instance.

    The replacement is guaranteed only for positive semidefinite L. For
    sign-indefinite Hermitian L it can fail (e.g. the z Pauli matrix against
    I/2 gives lhs 1/2 vs rhs 0), so outcomes are recorded, never raised; the
    check allows 1e-10 of rounding.
    """
    lhs, rhs, holds = trace_square_audits(require_hermitian(channel, "channel")[None], *_one(rho))
    return TraceSquareAudit(float(lhs[0]), float(rhs[0]), bool(holds[0]))


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
    gains = _gains(model.channels, model.channel_squares, as_operator(rho_inf)[None])[0][0]
    raw = float(gains.sum()) / weight
    return SteadyStateBound(max(0.0, raw), raw, tuple(gains.tolist()), weight)


def maximally_mixed_bound(d: int) -> float:
    """Entropy floor when the steady state is I/d: (d - 1) / d^2.

    Maximal at d = 2 (value 1/4) and strictly decreasing afterwards.
    """
    if d < 2:
        raise BadDimensionError("the floor needs dimension d >= 2")
    return (d - 1) / (d * d)


def log_inequality_checks(spectra) -> np.ndarray:
    """:func:`log_inequality_check` of each state of a stack, from its :func:`gated_spectra`."""
    lam = spectra.eigenvalues
    return (-np.log(np.maximum(lam, EIG_FLOOR)) - 1.0 + lam).min(axis=-1)


def log_inequality_check(rho) -> float:
    """Smallest eigenvalue of (-ln rho - I + rho).

    Nonnegative for every density matrix (the scalar bound -ln x >= 1 - x
    applied to the spectrum); eigenvalues are floored at ``EIG_FLOOR`` under
    the log. A return value below -1e-10 on a full-rank state indicates a
    broken eigendecomposition.
    """
    return float(log_inequality_checks(_one(rho)[1])[0])


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


def bound_reports(model: "LindbladModel", states, times, spectra) -> list[BoundReport]:
    """:func:`bound_report` of each state of a stack, from its :func:`gated_spectra` and gains."""
    entropy = _entropies(spectra.eigenvalues)
    if not model.channels:
        return [BoundReport(t, s, 0.0, 0.0, None, None, False, False)
                for t, s in zip(times, entropy.tolist())]
    rate = _exact_rates(model, spectra)
    gains, first = _gains(model.channels, model.channel_squares, states)
    weight = float(model.channel_norms_sq.sum())
    gain = gains.sum(axis=1)
    lower = -weight * entropy + gain
    threshold = threshold_var = [None] * len(states)
    if weight > 0.0:
        threshold = (gain / weight).tolist()
    if weight > 0.0 and model.channels_hermitian:
        # Var[L_j] = tr(L_j^2 rho) - tr(L_j rho)^2, with L_j^2 = L_j^dag L_j.
        means = np.stack([np.einsum("ij,nji->n", c, states).real for c in model.channels], 1)
        threshold_var = ((first - means * means).sum(axis=1) / weight).tolist()
    rows = zip(times, entropy.tolist(), rate.tolist(), lower.tolist(), threshold, threshold_var)
    return [BoundReport(t, s, r, low, th, var, th is not None and s <= th, math.isinf(r))
            for t, s, r, low, th, var in rows]


def bound_report(model: "LindbladModel", rho, time: float = 0.0) -> BoundReport:
    """Aggregate entropy, exact rate, rate bound and thresholds at one state."""
    states, spectra = _one(rho)
    return bound_reports(model, states, [time], spectra)[0]
