"""Reference implementations, inputs and measurements that several test modules share."""

import tracemalloc

import numpy as np

from entrodyn.dynamics import LindbladModel, _decay_terms


def build_superoperator(model: LindbladModel) -> np.ndarray:
    """The d^2 x d^2 matrix on vec(rho): kron(I, K) + kron(R.T, I) + sum_j kron(conj(L_j), L_j).

    The jump terms are one einsum over the stacked channels; K and R.T are
    added into strided block diagonals, so no Kronecker product is formed.
    ``dynamics._generator_blocks`` sums its entries in the same order, so the
    blocks equal this matrix's entries bit for bit.
    """
    d = model.dim
    k, r = _decay_terms(model)
    chans = np.array(model.channels, dtype=np.complex128).reshape(-1, d, d)
    # entry (b*d + a, e*d + c) of kron(conj(L), L) is conj(L)[b, e] L[a, c]
    gen4 = np.einsum("jbe,jac->baec", np.conj(chans), chans)
    idx = np.arange(d)
    gen4[idx, :, idx, :] += k
    gen4[:, idx, :, idx] += r.T
    return gen4.reshape(d * d, d * d)


def diagonal_channel_model(d: int) -> LindbladModel:
    """H and one Hermitian L, both diagonal: the decoherence that measures an observable.

    G is diagonal, so each entry of rho is a block of one: the propagator
    advances a stack of d^2 blocks of one, and the steady solve finds d
    singular blocks and a null space of dimension d. No block is larger than one.
    """
    return LindbladModel(np.diag(np.linspace(0.0, 1.0, d)), (np.diag(np.linspace(0.2, 1.0, d)),),
                         label=f"diagonal_d{d}")


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
