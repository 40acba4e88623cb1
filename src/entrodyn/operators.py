"""Dense complex matrix core shared by every other module.

Operators are plain complex128 numpy arrays; a density matrix is any operator
that passes :func:`assert_density`. Throughout the package the squared
Frobenius norm means ``tr(A^dag A) = sum_ij |a_ij|^2``.

Random ensembles are drawn from numpy's default PCG64 bit generator, seeded
per call, so repeated calls with the same seed are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DimMismatchError,
    EigFailureError,
    NotDensityError,
    NotHermitianError,
)

# Relative defect below which a matrix is accepted as Hermitian.
HERMITICITY_RTOL = 1e-8


def as_operator(a) -> np.ndarray:
    """Coerce input to a square complex matrix."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise DimMismatchError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(a)).T


def frobenius_norm_sq(a) -> float:
    """Squared Frobenius norm, tr(A^dag A)."""
    return float(np.sum(np.abs(np.asarray(a)) ** 2))


def hermiticity_defect(a) -> float:
    """Frobenius norm of A - A^dag."""
    arr = np.asarray(a)
    return float(np.linalg.norm(arr - adjoint(arr)))


def is_hermitian(a) -> bool:
    arr = np.asarray(a)
    scale = max(1.0, float(np.linalg.norm(arr)))
    return hermiticity_defect(arr) <= HERMITICITY_RTOL * scale


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    arr = as_operator(a)
    if not is_hermitian(arr):
        raise NotHermitianError(
            f"{what} is not Hermitian (defect {hermiticity_defect(arr):.3e})"
        )
    return arr


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues sorted descending."""

    eigenvalues: np.ndarray  # real, descending
    eigenvectors: np.ndarray  # unitary; column j pairs with eigenvalues[j]


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitianError when the input fails the Hermiticity gate and
    EigFailureError when the backend does not converge. Eigenvectors of
    degenerate eigenvalues are an arbitrary orthonormal choice.
    """
    arr = require_hermitian(a)
    try:
        w, v = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(str(exc)) from exc
    return SpectralDecomposition(w[::-1].copy(), v[:, ::-1].copy())


def trace_product(a, b) -> complex:
    """tr(A @ B) without forming the product."""
    lhs = np.asarray(a)
    rhs = np.asarray(b)
    if lhs.shape[1] != rhs.shape[0] or lhs.shape[0] != rhs.shape[1]:
        raise DimMismatchError(f"cannot trace product of {lhs.shape} and {rhs.shape}")
    return complex(np.einsum("ij,ji->", lhs, rhs))


def maximally_mixed(d: int) -> np.ndarray:
    """The maximum-entropy state I/d."""
    if d < 1:
        raise BadDimensionError("dimension must be at least 1")
    return np.identity(d, dtype=np.complex128) / d


def assert_density(
    rho,
    *,
    hermiticity_tol: float = 1e-10,
    positivity_tol: float = 1e-10,
    trace_tol: float = 1e-10,
) -> np.ndarray:
    """Validate the three density-matrix invariants and return the array.

    Tolerances are absolute: ``|rho - rho^dag|_F <= hermiticity_tol``,
    smallest eigenvalue ``>= -positivity_tol``, ``|tr(rho) - 1| <= trace_tol``.
    """
    arr = as_operator(rho)
    defect = hermiticity_defect(arr)
    if defect > hermiticity_tol:
        raise NotDensityError(f"not Hermitian: defect {defect:.3e} > {hermiticity_tol:.1e}")
    trace_err = abs(complex(np.trace(arr)) - 1.0)
    if trace_err > trace_tol:
        raise NotDensityError(f"trace error {trace_err:.3e} > {trace_tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (arr + adjoint(arr)))[0])
    if min_eig < -positivity_tol:
        raise NotDensityError(f"negative eigenvalue {min_eig:.3e} < -{positivity_tol:.1e}")
    return arr


def _complex_gaussian(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def ginibre_matrix(d: int, seed: int) -> np.ndarray:
    """Square matrix of iid complex normal entries, deterministic in seed."""
    if d < 1:
        raise BadDimensionError("dimension must be at least 1")
    return _complex_gaussian(d, np.random.default_rng(seed))


def ginibre_state(d: int, seed: int) -> np.ndarray:
    """Random full-rank density matrix G G^dag / tr(G G^dag)."""
    g = ginibre_matrix(d, seed)
    rho = g @ adjoint(g)
    rho = 0.5 * (rho + adjoint(rho))
    return rho / float(np.trace(rho).real)


def gue_hermitian(d: int, seed: int) -> np.ndarray:
    """Random Hermitian matrix (G + G^dag)/2, deterministic in seed."""
    g = ginibre_matrix(d, seed)
    return 0.5 * (g + adjoint(g))
