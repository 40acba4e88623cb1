"""Steady states: one direct solve, certified against the SVD null-space rule.

The generator matrix and ``vec``/``unvec`` live in :mod:`entrodyn.dynamics`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dynamics import (
    IntegratorConfig,
    LindbladModel,
    _check_against_direct_map,
    build_superoperator,
    final_state,
    unvec,
    vec,
)
from .entropy_bounds import von_neumann_entropy
from .errors import DegenerateSteadyStateError, NoSteadyStateError, NotDensityError
from .operators import assert_density, hermitian_part


def steady_state(model: LindbladModel, tol: float = 1e-10) -> np.ndarray:
    """Unique fixed point of the generator G, certified against the SVD rule.

    The rule counts singular values of G at or below ``tol`` times the largest
    as null directions. None raises NoSteadyStateError (the cutoff is
    misconfigured); more than one raises DegenerateSteadyStateError with the
    dimension, rather than silently picking a point of a fixed-point manifold.

    The state solves M x = e_0, M being G with row 0 replaced by the trace
    row vec(I)^T (QuTiP's direct method). Row replacement is rank one, so
    sigma_{n-1}(G) >= sigma_n(M) >= 1/|M^-1|_F, and |G|_F >= sigma_max >= c,
    G's largest column norm: 1/|M^-1|_F > tol |G|_F proves at most one null
    direction, |G vec(rho)| <= tol c |rho|_F one (norms in units of G's
    largest |entry|, so none overflows). Otherwise a full SVD counts them.
    """
    gen = build_superoperator(model)
    peak, frob, col = _check_against_direct_map(model, gen)
    m = gen / peak
    m[0] = vec(np.identity(model.dim))
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        minv = None
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the tests
        if minv is not None and tol * frob * float(np.linalg.norm(minv)) < 1.0:
            rho = _normalized(minv[:, 0], model.dim)
            # a density has |rho|_F <= 1, so rho also passes _svd_solve's residual gate
            if float(np.linalg.norm(gen @ vec(rho / peak))) <= tol * col * np.linalg.norm(rho):
                return _validated(rho)
    return _svd_solve(gen, model.dim, tol)


def _svd_solve(gen: np.ndarray, d: int, tol: float) -> np.ndarray:
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
    rho = _validated(_normalized(np.conj(vh[-1]), d))
    residual = float(np.linalg.norm(gen @ vec(rho)))
    if residual > 10.0 * tol * max(1.0, smax):
        raise NoSteadyStateError(
            f"extracted state has generator residual {residual:.3e}; tighten tol"
        )
    return rho


def _normalized(v: np.ndarray, d: int) -> np.ndarray:
    rho = hermitian_part(unvec(v, d))
    trace = float(np.trace(rho).real)
    if abs(trace) < 1e-12:
        raise NotDensityError("extracted null vector is traceless; cannot normalize")
    return rho / trace


def _validated(rho: np.ndarray) -> np.ndarray:
    try:
        return assert_density(rho, hermiticity_tol=1e-10, positivity_tol=1e-8, trace_tol=1e-10)
    except NotDensityError as exc:
        raise NotDensityError(f"extracted steady state fails validation: {exc}") from exc


def long_time_entropy(model: LindbladModel, rho0, t_long: float, cfg: IntegratorConfig) -> float:
    """Entropy of the propagated state at t_long (overrides cfg.t_max)."""
    run_cfg = replace(cfg, t_max=float(t_long))
    return von_neumann_entropy(final_state(model, rho0, run_cfg))
