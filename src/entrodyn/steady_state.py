"""Steady states: a direct solve block by block, certified against the SVD rule.

The generator's blocks, on rho.ravel(), live in :mod:`entrodyn.dynamics`.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dynamics import (IntegratorConfig, LindbladModel, _apply, _check_against_direct_map,
                       _generator_blocks, _sectors, final_state)
from .entropy_bounds import von_neumann_entropy
from .errors import DegenerateSteadyStateError, NoSteadyStateError, NotDensityError
from .operators import STRICT_GATE, SpectralDecomposition, density_spectra, hermitian_part


def steady_state(model: LindbladModel, tol: float = 1e-10) -> np.ndarray:
    """Unique fixed point of the generator G, certified against the SVD rule.

    The rule counts singular values of G at or below ``tol`` times the largest
    as null directions. None raises NoSteadyStateError (the cutoff is
    misconfigured); more than one raises DegenerateSteadyStateError with the
    dimension, rather than silently picking a point of a fixed-point manifold.

    The state solves M x = e_0, M being G with row 0 replaced by the trace
    row I.ravel() (QuTiP's direct method). Row replacement is rank one, so
    sigma_{n-1}(G) >= sigma_n(M) >= 1/|M^-1|_F, and |G|_F >= sigma_max >= c,
    G's largest column norm: 1/|M^-1|_F > tol |G|_F proves at most one null
    direction, |G rho|_F <= tol c |rho|_F one (norms in units of G's
    largest |entry|, so none overflows). Otherwise an SVD counts them.

    Both solves run on G's own blocks (see :func:`entrodyn.dynamics._sectors`);
    no d^2 x d^2 matrix is formed. G preserves the trace, so a block holding
    part of rho's diagonal is singular, and a unique steady state's block, that
    of index 0, holds the whole diagonal. M's row 0 is the trace row restricted
    to that block (where the diagonal spans several, a singular block is left
    and the SVD counts), so M is block diagonal in G's blocks: M^-1 is their
    inverses, |M^-1|_F^2 the sum of their |B^-1|_F^2 and x column 0 of the
    inverse of the block of index 0, and G's singular values are the union of
    its blocks'. A model with a conserved quantity, such as n - m for the
    oscillator, splits into its sectors; a dense G is one block. The sector
    that transposing rho maps a built one onto is its conjugate, with the same
    singular values and conjugate inverse, and is never built: each norm and
    count takes the rows of a built sector that stands for both twice.
    """
    return _steady_solve(model, tol)[0]


def _steady_solve(model: LindbladModel,
                  tol: float) -> tuple[np.ndarray, SpectralDecomposition, float]:
    """:func:`steady_state` with its gates' spectrum (a stack of one) and |G rho|_F."""
    d = model.dim
    blocks = _generator_blocks(model, _sectors(model))
    peak, frob, col = _check_against_direct_map(model, blocks)
    x = np.zeros(d * d, dtype=np.complex128)
    inv_sq = 0.0  # |M^-1|_F^2
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the tests
        try:
            for idx, mats, twice in blocks:
                scaled = mats / peak
                holds_zero = idx[0, 0] == 0  # index 0 leads the first block of its size
                if holds_zero:
                    scaled[0, 0] = idx[0] % (d + 1) == 0  # the trace row: 1 on rho's diagonal
                inverses = np.linalg.inv(scaled)
                if holds_zero:
                    x[idx[0]] = inverses[0, :, 0]
                inv_sq += float(np.vdot(inverses, inverses).real)
                twice_rows = inverses[twice]  # M^-1 holds the conjugate sectors' rows too
                inv_sq += float(np.vdot(twice_rows, twice_rows).real)
        except np.linalg.LinAlgError:
            inv_sq = math.inf
        if tol * frob * math.sqrt(inv_sq) < 1.0:
            rho = _normalized(x, d)
            # a density has |rho|_F <= 1, so rho also passes _svd_solve's residual gate
            residual = np.linalg.norm(_apply(blocks, rho / peak))
            if residual <= tol * col * np.linalg.norm(rho):
                return rho, density_spectra(rho[None], **STRICT_GATE), peak * float(residual)
    return _svd_solve(blocks, d, tol)


def _svd_solve(blocks: list[tuple], d: int,
               tol: float) -> tuple[np.ndarray, SpectralDecomposition, float]:
    decomposed = []
    for idx, mats, twice in blocks:
        if idx.shape[1] == 1:  # a 1 x 1 block's singular value is |g|, its right vector 1
            svals, vh = np.abs(mats[:, 0]), np.ones_like(mats)
        else:
            svals, vh = np.linalg.svd(mats)[1:]
        # a singular value counts twice where its right vector lies in a sector that does
        weights = 1.0 + np.einsum("nkj,nj->nk", np.abs(vh) ** 2, twice)
        decomposed.append((idx, svals, vh, weights))
    svals = np.concatenate([s.ravel() for _, s, _, _ in decomposed])
    smax = float(svals.max())
    if smax == 0.0:
        raise DegenerateSteadyStateError(d * d)
    cutoff = tol * smax
    weights = np.concatenate([w.ravel() for _, _, _, w in decomposed])
    null_dim = round(float(weights[svals <= cutoff].sum()))
    if null_dim == 0:
        raise NoSteadyStateError(f"no null direction within tol={tol:g} of the largest "
                                 "singular value")
    if null_dim > 1:
        raise DegenerateSteadyStateError(null_dim)
    idx, svals, vh, _ = next(item for item in decomposed if item[1].min() <= cutoff)
    block, pos = np.unravel_index(np.argmin(svals), svals.shape)
    null = np.zeros(d * d, dtype=np.complex128)
    null[idx[block]] = np.conj(vh[block, pos])
    rho = _normalized(null, d)
    spectra = density_spectra(rho[None], **STRICT_GATE)
    residual = float(np.linalg.norm(_apply(blocks, rho)))
    if residual > 10.0 * tol * max(1.0, smax):
        raise NoSteadyStateError(f"extracted state has generator residual {residual:.3e}; "
                                 "tighten tol")
    return rho, spectra, residual


def _normalized(v: np.ndarray, d: int) -> np.ndarray:
    rho = hermitian_part(v.reshape(d, d))
    trace = float(np.trace(rho).real)
    if abs(trace) < 1e-12:
        raise NotDensityError("extracted null vector is traceless; cannot normalize")
    return rho / trace


def long_time_entropy(model: LindbladModel, rho0, t_long: float, cfg: IntegratorConfig) -> float:
    """Entropy of the propagated state at t_long (overrides cfg.t_max)."""
    return von_neumann_entropy(final_state(model, rho0, replace(cfg, t_max=float(t_long))))
