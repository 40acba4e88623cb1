"""Reference implementations, inputs and measurements that several test modules share."""

import tracemalloc

import numpy as np

from entrodyn.dynamics import LindbladModel
from entrodyn.operators import adjoint, ginibre_matrix, gue_hermitian, hermitian_part


def vec(x) -> np.ndarray:
    """Column-stack a matrix into a vector: vec(A X B) = kron(B.T, A) vec(X)."""
    return np.asarray(x, dtype=np.complex128).reshape(-1, order="F")


def unvec(v, d: int) -> np.ndarray:
    """Inverse of :func:`vec` for a d x d matrix."""
    return np.asarray(v, dtype=np.complex128).reshape((d, d), order="F")


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """The d^2 x d^2 matrix on vec(rho): kron(I, K) + kron(R.T, I) + sum_j kron(conj(L_j), L_j).

    K = -iH - sum_j herm(L_j^dag L_j) / 2 is formed here from the model's H and
    channels, not read from ``model.no_jump``, and R = K^dag. K and R.T are
    added into strided block diagonals, then each channel's jump term, one
    einsum each, so no Kronecker product is formed.
    ``dynamics._generator_blocks`` sums its entries in the same order, but indexes
    rho.ravel(): its blocks equal this matrix's entries at transposed indices
    (rho[a, b] is entry b*d + a here, a*d + b there) bit for bit.
    """
    d, h = model.dim, model.hamiltonian
    decay = sum((0.5 * hermitian_part(adjoint(c) @ c) for c in model.channels), np.zeros_like(h))
    k = -1j * h - decay
    r = adjoint(k)
    gen4 = np.zeros((d, d, d, d), dtype=np.complex128)
    idx = np.arange(d)
    gen4[idx, :, idx, :] += k
    gen4[:, idx, :, idx] += r.T
    for chan in model.channels:
        # entry (b*d + a, e*d + c) of kron(conj(L), L) is conj(L)[b, e] L[a, c]
        gen4 += np.einsum("be,ac->baec", np.conj(chan), chan)
    return gen4.reshape(d * d, d * d)


def diagonal_channel_model(d: int) -> LindbladModel:
    """H and one Hermitian L, both diagonal: the decoherence that measures an observable.

    G is diagonal, so each entry of rho is a sector of one: the propagator
    advances a stack of d (d + 1) / 2 blocks of one (the diagonal and one of
    each transposed pair), and the steady solve finds d singular blocks and a
    null space of dimension d. No block is larger than one.
    """
    return LindbladModel(np.diag(np.linspace(0.0, 1.0, d)), (np.diag(np.linspace(0.2, 1.0, d)),),
                         label=f"diagonal_d{d}")


def dense_model(d, seed):
    """One channel and a Hamiltonian with no zero entry: G is one block of d^2."""
    return LindbladModel(gue_hermitian(d, seed), (ginibre_matrix(d, seed + 1),))


def level_block_model(levels: int) -> LindbladModel:
    """H diagonal at d=24 and one channel, a dense Ginibre block on levels 0 to levels - 1.

    With m = levels, G's sectors are one of m^2 (rho[a, b] with a, b < m), 2 (24 - m)
    of m (the rest of a row or a column of rho) and (24 - m)^2 of one. Of each
    conjugate pair one is kept; the packing joins each sector of m to one of one,
    and the ones left two by two. On levels 0-7 the blocks are 60 of 2, 16 of 9 and
    one of 64: three size groups, 5632 entries of G in all.
    """
    chan = np.zeros((24, 24), dtype=np.complex128)
    chan[:levels, :levels] = ginibre_matrix(levels, 270)
    return LindbladModel(np.diag(np.linspace(0.0, 1.0, 24)), (chan,),
                         label=f"level_block_{levels}_d24")


def over_cap_model():
    """:func:`level_block_model` on levels 0-16: blocks of 1, 2, 18 and 289 > MAX_BLOCK.

    G is not one dense block (289 < 24^2), and the channel's 289^2 entries of G
    pass the pre-check on its nonzeros (at most MAX_BLOCK d^2 = 147 456).
    """
    return level_block_model(17)


def sector_model(d, seed):
    """A random model conserving n - m, in a shuffled basis."""
    rng = np.random.default_rng(seed)
    lower = np.diag(rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1), -1)
    raise_ = 0.4 * np.diag(rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1), 1)
    ops = (np.diag(rng.normal(size=d)), lower, raise_, np.diag(rng.normal(size=d)))
    p = np.identity(d)[rng.permutation(d)]
    h, *channels = (p @ op @ p.T for op in ops)
    return LindbladModel(h, tuple(channels))


def records(stacks) -> list:
    """The (k, state) pair of each record in stacks of (ks, states), as ``_recorded_steps`` yields."""
    return [(k, state) for ks, states in stacks for k, state in zip(ks, states)]


# Traced peak allowed for a d=64 model: the d^2 x d^2 generator alone is 268 MB.
PEAK_MB = 64


def traced_peak_mb(fn, *args):
    """(fn(*args), the peak of the memory traced above the start of the call, in MB).

    numpy reports its buffers to tracemalloc, so every array the call holds
    at once counts.
    """
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        out = fn(*args)
        return out, (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
