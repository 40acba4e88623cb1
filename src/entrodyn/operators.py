"""Dense complex matrix core shared by every other module.

Operators are plain complex128 numpy arrays; a density matrix is any operator
that passes :func:`density_spectra`, the one density gate, at one of its two
tolerance sets. Throughout the package the squared Frobenius norm means
``tr(A^dag A) = sum_ij |a_ij|^2``.
The Hermiticity, eigen and gate functions and :func:`gram_state` also act on
each matrix of a stack. :func:`hermitian_eig` does not gate its input; callers
pass exactly Hermitian matrices, and :func:`require_hermitian` is the check.

Random ensembles are drawn from numpy's default PCG64 bit generator, one seed per
matrix, so a seed always gives the same matrix, alone or in a stack.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensionError,
    DimMismatchError,
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
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def frobenius_norm_sq(a) -> float:
    """Squared Frobenius norm, tr(A^dag A)."""
    return float(np.sum(np.abs(np.asarray(a)) ** 2))


def hermiticity_defect(a):
    """Frobenius norm of A - A^dag."""
    arr = np.asarray(a)
    return np.linalg.norm(arr - adjoint(arr), axis=(-2, -1))


def is_hermitian(a):
    arr = np.asarray(a)
    scale = np.maximum(1.0, np.linalg.norm(arr, axis=(-2, -1)))
    return hermiticity_defect(arr) <= HERMITICITY_RTOL * scale


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    arr = as_operator(a)
    if not is_hermitian(arr):
        raise NotHermitianError(f"{what} is not Hermitian (defect {hermiticity_defect(arr):.3e})")
    return arr


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix (or of each of a stack), eigenvalues descending."""

    eigenvalues: np.ndarray  # real, descending along the last axis
    eigenvectors: np.ndarray  # unitary; column j pairs with eigenvalues[..., j]


def hermitian_eig(a) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack by one ``eigh``.

    The input is not checked: ``eigh`` reads one triangle, so pass an exactly
    Hermitian matrix (:func:`hermitian_part`). A backend that does not converge
    raises ``numpy.linalg.LinAlgError``. Eigenvectors of degenerate eigenvalues
    are an arbitrary orthonormal choice.
    """
    w, v = np.linalg.eigh(a)
    return SpectralDecomposition(w[..., ::-1].copy(), v[..., ::-1].copy())


def maximally_mixed(d: int) -> np.ndarray:
    """The maximum-entropy state I/d."""
    if d < 1:
        raise BadDimensionError("dimension must be at least 1")
    return np.identity(d, dtype=np.complex128) / d


def density_spectra(
    states, *, hermiticity_tol: float, trace_tol: float, positivity_tol: float
) -> SpectralDecomposition:
    """Gate each density of a stack and return the spectra of their Hermitian parts.

    Tolerances are absolute: ``|rho - rho^dag|_F <= hermiticity_tol``,
    ``|tr(rho) - 1| <= trace_tol``, smallest eigenvalue ``>= -positivity_tol``.
    The first state failing a check, checked in that order, raises
    NotDensityError; non-finite or overflowing values fail without a numpy warning.
    """
    arr = np.asarray(states, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # each check below fails on NaN
        defect = hermiticity_defect(arr)
        bad = np.flatnonzero(~(defect <= hermiticity_tol))
        if bad.size:
            raise NotDensityError(f"not Hermitian: defect {defect[bad[0]]:.3e} "
                                  f"> {hermiticity_tol:.1e}")
        trace_err = np.abs(np.trace(arr, axis1=-2, axis2=-1) - 1.0)
        bad = np.flatnonzero(~(trace_err <= trace_tol))
        if bad.size:
            raise NotDensityError(f"trace error {trace_err[bad[0]]:.3e} > {trace_tol:.1e}")
        dec = hermitian_eig(hermitian_part(arr))  # entries near the float limit overflow to NaN
    low = dec.eigenvalues[:, -1]
    bad = np.flatnonzero(~(low >= -positivity_tol))
    if bad.size:
        raise NotDensityError(f"negative eigenvalue {low[bad[0]]:.3e} < -{positivity_tol:.1e}")
    return dec


# The two tolerance sets of density_spectra, passed as density_spectra(x, **STRICT_GATE).
# STRICT_GATE gates the integrator's initial state, its records and an extracted steady
# state; ENTROPY_GATE, looser so integrator output passes unmassaged, gates the states of
# entropy evaluations. STRICT_GATE is at least as strict on every key.
STRICT_GATE = {"hermiticity_tol": 1e-9, "trace_tol": 1e-9, "positivity_tol": 1e-8}
ENTROPY_GATE = {"hermiticity_tol": 1e-8, "trace_tol": 1e-6, "positivity_tol": 1e-6}


def ginibre_matrix(d: int, seed: int) -> np.ndarray:
    """Square matrix of iid complex normal entries, deterministic in seed."""
    if d < 1:
        raise BadDimensionError("dimension must be at least 1")
    rng = np.random.default_rng(seed)
    real, imag = rng.standard_normal((2, d, d))  # one call: the same stream as two
    return real + 1j * imag


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash constants ``init * mult**k mod 2**32``, k < n, as a column."""
    return np.array([init * pow(mult, k, 2**32) % 2**32 for k in range(n)], np.uint32)[:, None]


def _seed_states(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` per seed, hashed in wrapping uint32."""
    words = np.array([(s.bit_length() + 31) // 32 or 1 for s in seeds])
    size = max(4, int(words.max(initial=0)))
    entropy = np.frombuffer(b"".join(s.to_bytes(4 * size, "little") for s in seeds), "<u4")
    entropy = entropy.reshape(-1, size).T
    hash_a = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * size + 1)

    def hashmix(value, h):  # one hash per row of h[:-1]: xor it, multiply by the next
        value = (value ^ h[:-1]) * h[1:]
        return value ^ (value >> 16)

    def mix(x, y):
        z = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return z ^ (z >> 16)

    with np.errstate(over="ignore"):
        pool = hashmix(entropy[:4], hash_a[:5])  # words past a seed's own are zero, as numpy pads
        for src in range(4):  # cross-mix: the three hashes of one source word are one op
            dst = [i for i in range(4) if i != src]
            pool[dst] = mix(pool[dst], hashmix(pool[src], hash_a[4 + 3 * src:8 + 3 * src]))
        for src in range(4, size):  # seeds >= 2**128 mix in their remaining words
            more = words > src
            pool[:, more] = mix(pool[:, more], hashmix(entropy[src, more], hash_a[4 * src:][:5]))
        state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_constants(0x8B51F9DD, 0x58F38DED, 9))
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def ginibre_matrices(d: int, seeds: Sequence[int]) -> np.ndarray:
    """:func:`ginibre_matrix` over a sequence of seeds >= 0, stacked bit for bit, in one pass."""
    from numpy.random.bit_generator import ISeedSequence  # not at import: it costs ~10 ms

    class SeedState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, np.uint64)
            return self.state

    buf = np.empty((len(seeds), 2, d, d))
    for state, out in zip(_seed_states(seeds), buf):
        np.random.Generator(np.random.PCG64(SeedState(state))).standard_normal(out=out)
    return buf[:, 0] + 1j * buf[:, 1]


def hermitian_part(a) -> np.ndarray:
    """(A + A^dag) / 2, exactly Hermitian."""
    return 0.5 * (a + adjoint(a))


def gram_state(g) -> np.ndarray:
    """The density G G^dag / tr(G G^dag), Hermitized."""
    rho = hermitian_part(g @ adjoint(g))
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def ginibre_state(d: int, seed: int) -> np.ndarray:
    """Random full-rank density matrix G G^dag / tr(G G^dag)."""
    return gram_state(ginibre_matrix(d, seed))


def gue_hermitian(d: int, seed: int) -> np.ndarray:
    """Random Hermitian matrix (G + G^dag)/2, deterministic in seed."""
    return hermitian_part(ginibre_matrix(d, seed))
