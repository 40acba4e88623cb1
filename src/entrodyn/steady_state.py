"""Steady states from the null space of the vectorized generator.

The generator matrix and the column-stacking ``vec``/``unvec`` convention
live in :mod:`entrodyn.dynamics`, next to the direct map they are checked
against.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import (
    IntegratorConfig,
    LindbladModel,
    build_superoperator,
    final_state,
    unvec,
    vec,
)
from .entropy_bounds import von_neumann_entropy
from .errors import DegenerateSteadyStateError, NoSteadyStateError, NotDensityError
from .operators import adjoint, assert_density


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
