"""Weighted arithmetic and geometric means and the bracket term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.errors import (
    BadBounds,
    DimensionMismatch,
    NotPositiveSemidefinite,
    SingularMatrix,
    WeightOutOfRange,
)
from opineq.linalg import eigh, hermitize, loewner_gap, op_norm
from opineq.means import arithmetic_mean, bracket_term, geometric_mean
from opineq.sampler import sample_constrained


def test_arithmetic_mean_basic():
    A = np.diag([1.0, 2.0])
    B = np.diag([3.0, 6.0])
    np.testing.assert_allclose(
        np.real(arithmetic_mean(A, B, 0.25)), np.diag([1.5, 3.0]), atol=1e-14
    )
    np.testing.assert_allclose(np.real(arithmetic_mean(A, B, 0.0)), A, atol=1e-14)
    np.testing.assert_allclose(np.real(arithmetic_mean(A, B, 1.0)), B, atol=1e-14)


def test_geometric_mean_commuting_is_scalar_formula():
    A = np.diag([1.0, 4.0])
    B = np.diag([9.0, 16.0])
    for nu in (0.0, 0.25, 0.5, 0.8, 1.0):
        expected = np.diag([1.0 ** (1 - nu) * 9.0 ** nu, 4.0 ** (1 - nu) * 16.0 ** nu])
        np.testing.assert_allclose(np.real(geometric_mean(A, B, nu)), expected, atol=1e-12)


def test_geometric_mean_scalar_matrices():
    I2 = np.eye(2)
    for nu in (0.0, 0.3, 0.5, 1.0):
        G = geometric_mean(4.0 * I2, I2, nu)
        np.testing.assert_allclose(np.real(G), 4.0 ** (1.0 - nu) * I2, atol=1e-12)


def test_geometric_mean_weight_convention():
    """The weight sits on the second argument: A #_1 B = B."""
    A = sample_constrained(3, 1.0, 2.0, seed=5)
    B = sample_constrained(3, 3.0, 4.0, seed=6)
    np.testing.assert_allclose(geometric_mean(A, B, 1.0), B, atol=1e-10)
    np.testing.assert_allclose(geometric_mean(A, B, 0.0), A, atol=1e-10)


def test_geometric_mean_half_symmetric():
    A = sample_constrained(4, 0.5, 2.0, seed=11)
    B = sample_constrained(4, 1.0, 3.0, seed=12)
    np.testing.assert_allclose(
        geometric_mean(A, B, 0.5), geometric_mean(B, A, 0.5), atol=1e-10
    )


def test_geometric_mean_idempotent():
    A = sample_constrained(3, 1.0, 5.0, seed=2)
    np.testing.assert_allclose(geometric_mean(A, A, 0.37), A, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_am_gm_property(n, seed, nu):
    A = sample_constrained(n, 0.5, 3.0, seed=seed)
    B = sample_constrained(n, 0.8, 4.0, seed=seed + 1)
    nabla = arithmetic_mean(A, B, nu)
    sharp = geometric_mean(A, B, nu)
    assert loewner_gap(sharp, nabla) >= -1e-9 * (1.0 + op_norm(nabla))


def test_bracket_term_frozen_example():
    I2 = np.eye(2)
    out = bracket_term(4.0 * I2, I2, 1.0, 4.0, 0.5)
    np.testing.assert_allclose(np.real(out), 3.0 * I2, atol=1e-12)


def test_bracket_term_reduces_at_trivial_weight():
    A = sample_constrained(3, 2.0, 4.0, seed=8)
    B = sample_constrained(3, 0.5, 1.0, seed=9)
    # r = min(nu, 1-nu) = 0 at the endpoints: no inverse correction
    np.testing.assert_allclose(bracket_term(A, B, 0.5, 4.0, 0.0), A, atol=1e-12)
    np.testing.assert_allclose(bracket_term(A, B, 0.5, 4.0, 1.0), B, atol=1e-12)


def test_bracket_term_stack_mixes_trivial_and_live_weights():
    """On a stack, rows with nu in {0, 1} (r = 0) have arithmetic_mean's
    bits, not hermitized, and the other rows match the single-matrix call;
    with and without the operands' spectra."""
    nu = np.array([0.0, 0.3, 1.0, 0.5])
    A = np.stack([sample_constrained(3, 2.0, 4.0, seed=60 + i) for i in range(4)])
    B = np.stack([sample_constrained(3, 0.5, 1.0, seed=70 + i) for i in range(4)])
    for X in (A, B):  # off Hermitian in the last bits: hermitize would change them
        X[:, 0, 1] += 1e-13j
        X[:, 1, 0] -= 3e-13j
    m, M = np.full(4, 0.5), np.array([4.0, 4.5, 5.0, 4.0])
    for spectra in (None, (eigh(A), eigh(B))):
        out = bracket_term(A, B, m, M, nu, spectra)
        for i in range(4):
            if nu[i] in (0.0, 1.0):
                want = arithmetic_mean(A[i], B[i], nu[i])
                assert out[i].tobytes() == want.tobytes(), i
                assert out[i].tobytes() != hermitize(want).tobytes(), i
            else:
                alone = bracket_term(A[i], B[i], m[i], M[i], nu[i])
                np.testing.assert_allclose(out[i], alone, rtol=0, atol=1e-12)
                assert op_norm(out[i] - arithmetic_mean(A[i], B[i], nu[i])) > 1e-6


def test_bracket_term_dominates_arithmetic_mean():
    """The inverse-defect correction is PSD, so bracket >= nabla."""
    A = sample_constrained(4, 2.0, 4.0, seed=21)
    B = sample_constrained(4, 0.5, 1.0, seed=22)
    for nu in (0.1, 0.4, 0.5, 0.9):
        fat = bracket_term(A, B, 0.5, 4.0, nu)
        plain = arithmetic_mean(A, B, nu)
        assert loewner_gap(plain, fat) >= -1e-10 * (1.0 + op_norm(fat))


def test_bracket_term_bad_bounds():
    I2 = np.eye(2)
    with pytest.raises(BadBounds):
        bracket_term(I2, I2, -1.0, 4.0, 0.5)
    with pytest.raises(BadBounds):
        bracket_term(I2, I2, 4.0, 1.0, 0.5)


def test_mean_errors():
    I2 = np.eye(2)
    with pytest.raises(WeightOutOfRange):
        geometric_mean(I2, I2, 1.5)
    with pytest.raises(DimensionMismatch):
        geometric_mean(I2, np.eye(3), 0.5)
    with pytest.raises(SingularMatrix):
        geometric_mean(np.diag([0.0, 1.0]), I2, 0.5)
    with pytest.raises(NotPositiveSemidefinite):  # A^{1/2} is gated before A^{-1/2}
        geometric_mean(np.diag([-1.0, 1.0]), I2, 0.5)


def test_geometric_mean_congruence_invariance():
    """T* (A # B) T = (T* A T) # (T* B T) for invertible T (nu = 1/2)."""
    rng = np.random.default_rng(31)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T += 3.0 * np.eye(3)  # keep it comfortably invertible
    A = sample_constrained(3, 1.0, 2.0, seed=41)
    B = sample_constrained(3, 2.0, 5.0, seed=42)
    lhs = T.conj().T @ geometric_mean(A, B, 0.5) @ T
    rhs = geometric_mean(
        hermitize(T.conj().T @ A @ T), hermitize(T.conj().T @ B @ T), 0.5
    )
    np.testing.assert_allclose(lhs, rhs, atol=1e-8 * op_norm(rhs))
