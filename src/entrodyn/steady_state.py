"""Vectorized generator construction and steady-state extraction.

Vectorization uses the column-stacking convention throughout: ``vec(X)``
stacks the columns of X, so ``vec(A X B) = kron(B.T, A) @ vec(X)``. Mixing
stacking conventions is the classic silent-corruption bug for this kind of
code, so the builder cross-checks the assembled matrix against the direct
generator on random states.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import IntegratorConfig, LindbladModel, final_state, liouvillian_rhs
from .entropy_bounds import von_neumann_entropy
from .errors import (
    DegenerateSteadyStateError,
    NoSteadyStateError,
    NotDensityError,
    NumericsError,
)
from .operators import adjoint, assert_density, ginibre_state


def vec(x) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(x, dtype=np.complex128).reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(v, dtype=np.complex128).reshape((d, d), order="F")


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """Assemble the d^2 x d^2 matrix acting on vec(rho).

    -i (kron(I, H) - kron(H.T, I))
    + sum_j [ kron(conj(L_j), L_j)
              - kron(I, L_j^dag L_j)/2 - kron((L_j^dag L_j).T, I)/2 ]

    The result is checked against :func:`liouvillian_rhs` on random states.
    """
    d = model.dim
    eye = np.identity(d, dtype=np.complex128)
    h = model.hamiltonian
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for channel, sq in zip(model.channels, model.channel_squares):
        gen = gen + (
            np.kron(np.conj(channel), channel)
            - 0.5 * np.kron(eye, sq)
            - 0.5 * np.kron(sq.T, eye)
        )
    _check_against_direct_map(model, gen)
    return gen


def _check_against_direct_map(model: LindbladModel, gen: np.ndarray) -> None:
    scale = max(1.0, float(np.linalg.norm(gen)))
    for seed in range(10):
        rho = ginibre_state(model.dim, seed)
        residual = unvec(gen @ vec(rho), model.dim) - liouvillian_rhs(model, rho)
        if float(np.linalg.norm(residual)) > 1e-10 * scale:
            raise NumericsError(
                "superoperator disagrees with the direct generator; "
                "vectorization convention broken"
            )


def steady_state(model: LindbladModel, tol: float = 1e-10) -> np.ndarray:
    """Unique fixed point of the generator, via SVD null-space extraction.

    Singular values at or below ``tol`` times the largest count as null
    directions. A null space of dimension zero raises NoSteadyStateError
    (impossible for a true generator; the cutoff is misconfigured) and
    dimension above one raises DegenerateSteadyStateError carrying the
    dimension, since picking a point of a fixed-point manifold silently
    would fabricate a long-time bound.
    """
    gen = build_superoperator(model)
    _, svals, vh = np.linalg.svd(gen)
    smax = float(svals[0]) if svals.size else 0.0
    if smax == 0.0:
        raise DegenerateSteadyStateError(svals.size)
    null_dim = int(np.count_nonzero(svals <= tol * smax))
    if null_dim == 0:
        raise NoSteadyStateError(
            f"no null direction within tol={tol:g} of the largest singular value"
        )
    if null_dim > 1:
        raise DegenerateSteadyStateError(null_dim)
    rho = unvec(np.conj(vh[-1]), model.dim)
    rho = 0.5 * (rho + adjoint(rho))
    trace = float(np.trace(rho).real)
    if abs(trace) < 1e-12:
        raise NotDensityError("extracted null vector is traceless; cannot normalize")
    rho = rho / trace
    try:
        assert_density(rho, hermiticity_tol=1e-10, positivity_tol=1e-8, trace_tol=1e-10)
    except NotDensityError as exc:
        raise NotDensityError(f"extracted steady state fails validation: {exc}") from exc
    residual = float(np.linalg.norm(gen @ vec(rho)))
    if residual > 10.0 * tol * max(1.0, smax):
        raise NoSteadyStateError(
            f"extracted state has generator residual {residual:.3e}; tighten tol"
        )
    return rho


def long_time_entropy(model: LindbladModel, rho0, t_long: float, cfg: IntegratorConfig) -> float:
    """Entropy of the propagated state at t_long (overrides cfg.t_max)."""
    run_cfg = replace(cfg, t_max=float(t_long))
    return von_neumann_entropy(final_state(model, rho0, run_cfg))
