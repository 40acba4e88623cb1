import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import entrodyn
from entrodyn.errors import (
    BadDimensionError,
    NotDensityError,
)
from entrodyn.operators import (
    adjoint,
    density_spectra,
    frobenius_norm_sq,
    ginibre_matrices,
    ginibre_matrix,
    ginibre_state,
    gue_hermitian,
    hermitian_eig,
    is_hermitian,
    maximally_mixed,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


def test_adjoint_identity_is_self_adjoint():
    eye = np.identity(2, dtype=complex)
    assert np.array_equal(adjoint(eye), eye)


def test_adjoint_sigma_minus_is_sigma_plus():
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.array_equal(adjoint(SIGMA_MINUS), sigma_plus)


def test_adjoint_entrywise():
    a = ginibre_matrix(3, seed=11)
    dag = adjoint(a)
    for i in range(3):
        for j in range(3):
            assert dag[i, j] == np.conj(a[j, i])


@given(seed=seeds, d=dims)
@settings(deadline=None, max_examples=50)
def test_adjoint_involution(seed, d):
    a = ginibre_matrix(d, seed)
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_frobenius_examples():
    assert frobenius_norm_sq(np.identity(2)) == 2.0
    assert frobenius_norm_sq(np.diag([1.0, -1.0])) == 2.0
    assert frobenius_norm_sq(np.array([[0, 2j], [0, 0]])) == 4.0


@given(seed=seeds, d=dims)
@settings(deadline=None, max_examples=50)
def test_frobenius_adjoint_invariant(seed, d):
    a = ginibre_matrix(d, seed)
    lhs = frobenius_norm_sq(a)
    rhs = frobenius_norm_sq(adjoint(a))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def test_frobenius_matches_trace_form():
    a = ginibre_matrix(4, seed=3)
    assert_allclose(frobenius_norm_sq(a), np.einsum("ij,ji->", adjoint(a), a).real, rtol=1e-12)


def test_hermitian_eig_diagonal():
    dec = hermitian_eig(np.diag([0.75, 0.25]).astype(complex))
    assert_allclose(dec.eigenvalues, [0.75, 0.25])
    assert_allclose(np.abs(dec.eigenvectors), np.identity(2), atol=1e-12)


def test_hermitian_eig_sigma_x():
    dec = hermitian_eig(SIGMA_X)
    assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)


@given(seed=seeds, d=st.integers(min_value=2, max_value=6))
@settings(deadline=None, max_examples=50)
def test_hermitian_eig_invariants(seed, d):
    a = gue_hermitian(d, seed)
    dec = hermitian_eig(a)
    scale = max(1.0, np.linalg.norm(a))
    recon = (dec.eigenvectors * dec.eigenvalues) @ adjoint(dec.eigenvectors)
    assert np.linalg.norm(a - recon) <= 1e-10 * scale
    gram = adjoint(dec.eigenvectors) @ dec.eigenvectors
    assert np.linalg.norm(gram - np.identity(d)) <= 1e-10
    assert np.all(np.diff(dec.eigenvalues) <= 0)  # descending
    # trace equals the eigenvalue sum
    assert abs(np.trace(a).real - dec.eigenvalues.sum()) <= 1e-10 * scale


def test_ginibre_spectrum_is_a_probability_vector():
    dec = hermitian_eig(ginibre_state(4, seed=5))
    assert np.all(dec.eigenvalues >= 0.0)
    assert np.all(dec.eigenvalues <= 1.0)
    assert abs(dec.eigenvalues.sum() - 1.0) <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_psd_product_trace_inequality(d):
    # tr(AB) <= tr(A) tr(B) for PSD A, B; 100 random pairs per dimension.
    for i in range(100):
        g1 = ginibre_matrix(d, seed=10_000 + 2 * i + d)
        g2 = ginibre_matrix(d, seed=10_001 + 2 * i + d)
        a = g1 @ adjoint(g1)
        b = g2 @ adjoint(g2)
        lhs = np.einsum("ij,ji->", a, b).real
        rhs = np.trace(a).real * np.trace(b).real
        assert lhs <= rhs + 1e-10


def test_ginibre_state_dimension_one():
    assert_allclose(ginibre_state(1, seed=123), [[1.0]])


def test_ginibre_state_deterministic():
    assert np.array_equal(ginibre_state(3, seed=77), ginibre_state(3, seed=77))


def test_ginibre_state_full_rank_qubit():
    dec = hermitian_eig(ginibre_state(2, seed=42))
    assert np.all(dec.eigenvalues > 0.0)


def test_ginibre_validity_sweep():
    # 1000 seeds across small dimensions, validated at 1e-10.
    seed = 0
    for d in (2, 3, 4):
        for _ in range(334):
            density_spectra(
                ginibre_state(d, seed)[None],
                hermiticity_tol=1e-10,
                positivity_tol=1e-10,
                trace_tol=1e-10,
            )
            seed += 1


# Seeds of 1 to 32 uint32 words: SeedSequence mixes in words past the fourth one by one.
WORD_BOUNDARY_SEEDS = [2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128, 10**300]


@pytest.mark.parametrize("seeds", [
    [*range(3000), *WORD_BOUNDARY_SEEDS],
    [2**128, 5, 10**300, 2**32, 0, 2**128 - 1, 2**160 + 7, 2**64 - 1, 1],  # word counts mixed
], ids=["sweep", "interleaved"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_ginibre_matrices_is_the_per_seed_stack_bit_for_bit(d, seeds):
    expected = np.stack([ginibre_matrix(d, s) for s in seeds])
    assert np.array_equal(ginibre_matrices(d, seeds), expected)


def test_import_and_presets_leave_numpy_random_unloaded():
    # numpy.random takes 10-15 ms to import; only a random draw should pay for it. The
    # library never needs the CLI or its argparse: this is all the benchmark's set-up probe runs.
    code = ("import sys, entrodyn\n"
            "for spec in entrodyn.list_models():\n"
            "    entrodyn.get_model(spec.name)\n"
            "print([m in sys.modules for m in ('numpy.random', 'entrodyn.cli', 'argparse')])")
    src = str(Path(entrodyn.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[False, False, False]"


def test_gue_hermitian_exact_and_deterministic():
    m = gue_hermitian(4, seed=8)
    assert np.array_equal(m, adjoint(m))
    assert np.array_equal(m, gue_hermitian(4, seed=8))
    assert abs(np.trace(m).imag) == 0.0
    assert gue_hermitian(1, seed=1).imag == 0.0


def test_assert_density_rejects_bad_inputs():
    tols = {"hermiticity_tol": 1e-10, "positivity_tol": 1e-10, "trace_tol": 1e-10}
    with pytest.raises(NotDensityError):
        density_spectra(np.array([[[0.5, 1.0], [0.0, 0.5]]]), **tols)  # not Hermitian
    with pytest.raises(NotDensityError):
        density_spectra(np.diag([0.9, 0.3])[None], **tols)  # trace 1.2
    with pytest.raises(NotDensityError):
        density_spectra(np.diag([1.2, -0.2])[None], **tols)  # negative eigenvalue
    density_spectra(maximally_mixed(5)[None], **tols)


def test_maximally_mixed_requires_positive_dim():
    with pytest.raises(BadDimensionError):
        maximally_mixed(0)
    with pytest.raises(BadDimensionError):
        ginibre_matrix(0, 1)


def test_is_hermitian_relative_scale():
    big = 1e6 * np.identity(3) + 1e-4 * np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
    assert is_hermitian(big)  # defect tiny relative to the norm
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def test_top_level_exports():
    import types

    import entrodyn

    exported = sorted(
        name for name, value in vars(entrodyn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == [
        "BoundReport", "EIG_FLOOR", "IntegratorConfig", "LindbladModel", "ModelSpec",
        "SteadyStateBound", "TraceSquareAudit", "TrajectoryRecord", "adjoint",
        "bound_report", "convergence_order_check", "final_state",
        "frobenius_norm_sq", "get_model", "ginibre_matrix", "ginibre_state", "gue_hermitian",
        "liouvillian_rhs", "list_models", "log_inequality_check", "long_time_entropy",
        "maximally_mixed", "maximally_mixed_bound", "named_state", "propagate", "steady_state",
        "steady_state_bound", "trace_square_audit", "von_neumann_entropy",
    ]
    assert len(exported) == 29
