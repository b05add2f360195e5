"""Eigendecomposition, matrix powers, Loewner gap, norms."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonHermitianInput,
    NotPositiveSemidefinite,
    SingularMatrix,
)
from opineq.linalg import (
    eigh,
    hermitize,
    is_psd,
    loewner_gap,
    matrix_power,
    op_norm,
    require_hermitian,
    spectral_norm,
)


def random_hermitian(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitize(scale * (X + X.conj().T) / 2.0)


def random_psd(n, seed, shift=0.0):
    H = random_hermitian(n, seed)
    return hermitize(H @ H.conj().T + shift * np.eye(n))


def test_eigh_2x2_exact():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    w, U = eigh(A)
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-13)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(2), atol=1e-13)
    np.testing.assert_allclose((U * w) @ U.conj().T, A, atol=1e-12)


def test_eigh_matches_mpmath():
    """Eigenvalues against an independent 30-digit reference."""
    for n in (1, 2, 3, 5, 8):
        A = random_hermitian(n, 100 + n)
        w, _ = eigh(A)
        with mpmath.workdps(30):
            ref = mpmath.eighe(mpmath.matrix(A.tolist()), eigvals_only=True)
            w_ref = np.sort([float(e) for e in ref])
        np.testing.assert_allclose(w, w_ref, atol=1e-14 * (1 + np.abs(w_ref).max()))


def test_eigh_ascending_and_orthonormal():
    A = random_hermitian(7, 3)
    w, U = eigh(A)
    assert np.all(np.diff(w) >= -1e-14)
    np.testing.assert_allclose(U.conj().T @ U, np.eye(7), atol=1e-12)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        eigh(np.zeros((2, 3)))


def _psd_stack(seed, T=5, n=3):
    return np.stack([random_psd(n, seed + i, shift=0.1) for i in range(T)])


def test_eigh_stack_of_one_has_lapack_bits_on_the_matrix():
    """A stack of one gives np.linalg.eigh's bits on the 2-D matrix."""
    A = random_hermitian(4, 31)
    w1, V1 = np.linalg.eigh(A)
    w, V = eigh(A[None])
    assert (w.shape, V.shape) == ((1, 4), (1, 4, 4))
    assert w[0].tobytes() == w1.tobytes() and V[0].tobytes() == V1.tobytes()


@pytest.mark.parametrize("t", [0.5, [0.0, 1.0, 0.5, -1.0, 2.0]])
def test_matrix_power_on_a_stack_is_each_single_call(t):
    S = _psd_stack(40)
    exps = np.broadcast_to(np.asarray(t, dtype=float), (len(S),))
    ref = np.stack([matrix_power(M, float(e)) for M, e in zip(S, exps)])
    for spectrum in (None, eigh(S)):
        assert matrix_power(S, t, spectrum).tobytes() == ref.tobytes()


_MIXED_EXPONENTS = (0.0, 1.0, 0.5, -1.0, 2.0, 3.0, -0.5, 1.5, 3.7)


def _power_per_value(S, t):
    """matrix_power's policy applied one distinct exponent at a time, each
    as a Python float, in ascending order: the reference for the one-pass
    exponent stack."""
    out = np.empty_like(S)
    w, U = np.linalg.eigh(S)
    for value in sorted(set(t.tolist())):
        rows = t == value
        if value == 0.0:
            out[rows] = np.eye(S.shape[-1])
            continue
        if value == 1.0:
            out[rows] = S[rows]
            continue
        wr = w[rows]
        lam_min, lam_max = wr[:, 0], np.maximum(wr[:, -1], 0.0)
        if value == round(value) and value > 0:
            pw = wr ** value
        elif value < 0:
            if (lam_min <= 1e-12 * lam_max).any():
                raise SingularMatrix(value)
            pw = wr ** value
        else:
            if (lam_min < -1e-10 * (1.0 + lam_max)).any():
                raise NotPositiveSemidefinite(value)
            pw = np.maximum(wr, 0.0) ** value
        out[rows] = hermitize((U[rows] * pw[:, None, :]) @ U[rows].conj().swapaxes(-1, -2))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_one_exponent_pass_is_the_per_value_powers(n):
    """A stack mixing shortcut, fast-path and general exponents gets, row
    by row, the bits of raising each distinct exponent on its own rows."""
    t = np.array(_MIXED_EXPONENTS * 3)
    S = _psd_stack(70, T=len(t), n=n)
    ref = _power_per_value(S, t)
    for spectrum in (None, eigh(S)):
        assert matrix_power(S, t, spectrum).tobytes() == ref.tobytes()
    for value in _MIXED_EXPONENTS:  # one exponent, alone and in a stack
        assert matrix_power(S, value).tobytes() == _power_per_value(S, np.full(len(t), value)).tobytes()
        assert matrix_power(S[4], value).tobytes() == _power_per_value(S[4:5], np.array([value]))[0].tobytes()


@pytest.mark.parametrize("bad, exponents", [
    (np.diag([1e-14, 1.0]), (-0.5, 0.5, 3.0)),           # singular under a negative power
    (np.diag([-0.5, 1.0]), (1.5, -1.0, 2.0)),            # indefinite under a fractional power
    (np.diag([-0.5, 1.0]), (-1.0, 0.5)),                 # indefinite under a negative power
    (np.diag([-0.5, 1.0]), (3.0, 0.5, 1.5)),             # an integer power needs no gate
])
def test_one_exponent_pass_raises_the_per_value_gate(bad, exponents):
    """Row 0 is bad; the stack raises what the per-value powers raise,
    and passes where they pass."""
    S = _psd_stack(80, T=len(exponents), n=2)
    S[0] = bad
    t = np.array(exponents)
    try:
        ref = _power_per_value(S, t)
    except (SingularMatrix, NotPositiveSemidefinite) as exc:
        with pytest.raises(type(exc)):
            matrix_power(S, t)
    else:
        assert matrix_power(S, t).tobytes() == ref.tobytes()
    # the same with a second bad row of the other kind
    S[1] = np.diag([1e-14, 1.0]) if bad[0, 0] < 0 else np.diag([-0.5, 1.0])
    try:
        _power_per_value(S, t)
    except (SingularMatrix, NotPositiveSemidefinite) as exc:
        with pytest.raises(type(exc)):
            matrix_power(S, t)
    else:
        matrix_power(S, t)


def test_norms_and_projections_on_a_stack_are_each_single_call():
    S = _psd_stack(50)
    X = S @ S[::-1]  # products of positive matrices: not Hermitian
    assert op_norm(S).tolist() == [op_norm(M) for M in S]
    assert spectral_norm(X).tolist() == [spectral_norm(M) for M in X]
    assert hermitize(X).tobytes() == np.stack([hermitize(M) for M in X]).tobytes()
    assert require_hermitian(S).tobytes() == S.tobytes()


@pytest.mark.parametrize("gate, bad, call, value", [
    (NonHermitianInput, np.array([[1.0, 1.0], [0.0, 2.0]]), require_hermitian, ""),
    (NotPositiveSemidefinite, np.diag([-0.5, 1.0]), lambda S: matrix_power(S, 0.5), "-5.000e-01"),
    (SingularMatrix, np.diag([1e-14, 1.0]), lambda S: matrix_power(S, -1.0), "1.000e-14"),
])
def test_a_stack_fails_a_gate_on_the_one_bad_matrix(gate, bad, call, value):
    """Only matrix k fails: the stack raises that gate's class, with the
    message matrix k raises alone."""
    S = _psd_stack(60, n=2)
    k = 3
    S[k] = bad
    with pytest.raises(gate) as alone:
        call(S[k])
    with pytest.raises(gate) as stacked:
        call(S)
    assert value in str(stacked.value)
    assert str(stacked.value) == str(alone.value)


def test_eigh_memo_does_not_cache_a_failed_gate():
    bad = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]]))
    for M in bad:
        for _ in range(2):
            with pytest.raises(NonHermitianInput):
                eigh(M)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_eigh_reconstruction_property(n, seed):
    A = random_hermitian(n, seed)
    w, U = eigh(A)
    R = (U * w) @ U.conj().T
    denom = max(np.linalg.norm(A), 1e-30)
    assert np.linalg.norm(R - A) / denom <= 1e-10


def test_matrix_power_half_frozen():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    S = matrix_power(A, 0.5)
    expected = np.array([[1.3660254037844386, 0.3660254037844386],
                         [0.3660254037844386, 1.3660254037844386]])
    np.testing.assert_allclose(np.real(S), expected, atol=1e-12)
    np.testing.assert_allclose(S @ S, A, atol=1e-12)


def test_matrix_power_identity_cases():
    A = random_psd(4, 0, shift=0.1)
    np.testing.assert_allclose(matrix_power(A, 1.0), A, atol=1e-14)
    np.testing.assert_allclose(matrix_power(A, 0.0), np.eye(4), atol=1e-14)


def test_matrix_power_laws():
    A = random_psd(5, 7, shift=0.2)
    X = matrix_power(A, 0.3) @ matrix_power(A, 0.7)
    np.testing.assert_allclose(X, A, atol=1e-10 * op_norm(A))
    Ainv = matrix_power(A, -1.0)
    np.testing.assert_allclose(Ainv @ A, np.eye(5), atol=1e-9)


def test_matrix_power_integer_on_indefinite():
    H = np.diag([-2.0, 3.0])
    np.testing.assert_allclose(np.real(matrix_power(H, 2)), np.diag([4.0, 9.0]), atol=1e-12)


def test_matrix_power_fractional_requires_psd():
    H = np.diag([-2.0, 3.0])
    with pytest.raises(NotPositiveSemidefinite):
        matrix_power(H, 0.5)


def test_matrix_power_negative_requires_invertible():
    S = np.diag([0.0, 1.0])
    with pytest.raises(SingularMatrix):
        matrix_power(S, -1.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_matrix_power_rejects_a_non_finite_exponent(t):
    """A NaN, +inf or -inf exponent raises ConfigInvalid, as a non-finite p
    does in CaseParams, on a matrix and on any entry of a stack's exponents,
    instead of a NaN matrix, an OverflowError or a singular limit."""
    D = np.diag([1.0, 4.0])
    with pytest.raises(ConfigInvalid, match="finite exponent"):
        matrix_power(D, t)
    with pytest.raises(ConfigInvalid, match="finite exponent"):
        matrix_power(np.stack([D, D]), t)
    with pytest.raises(ConfigInvalid, match="finite exponent"):
        matrix_power(np.stack([D, D]), np.array([2.0, t]))


def test_loewner_gap_values():
    I2 = np.eye(2)
    assert loewner_gap(I2, 2 * I2) == pytest.approx(1.0, abs=1e-13)
    assert loewner_gap(2 * I2, I2) == pytest.approx(-1.0, abs=1e-13)
    assert is_psd(np.diag([0.0, 1.0]))
    assert not is_psd(np.diag([-1e-3, 1.0]))


def test_gates_and_gaps_give_one_value_per_matrix():
    """is_psd and loewner_gap give a Python bool and float for a single
    matrix and, on a stack, an array with each matrix's value; the norms
    give a Python float for a single matrix."""
    S = _psd_stack(70, T=4)
    S[1] -= 2.0 * np.eye(3)  # an indefinite matrix among positive ones
    P = _psd_stack(80, T=4)
    for M, N in zip(S, P):
        assert type(is_psd(M)) is bool and type(loewner_gap(M, N)) is float
        assert type(op_norm(M)) is float and type(spectral_norm(M @ N)) is float
    flags, gaps = is_psd(S), loewner_gap(S, P)
    assert (flags.dtype, gaps.dtype, flags.shape, gaps.shape) == (bool, float, (4,), (4,))
    assert flags.tolist() == [is_psd(M) for M in S] == [True, False, True, True]
    assert gaps.tolist() == [loewner_gap(M, N) for M, N in zip(S, P)]
    assert is_psd(S, tol=1e3).tolist() == [True] * 4
    with pytest.raises(DimensionMismatch):
        loewner_gap(S, P[:3])


def test_empty_stacks_give_empty_results_and_empty_matrices_are_rejected():
    E = np.zeros((0, 3, 3))
    w, U = eigh(E)
    assert w.shape == (0, 3) and U.shape == (0, 3, 3)
    assert matrix_power(E, 0.5).shape == matrix_power(E, [], None).shape == (0, 3, 3)
    assert op_norm(E).shape == spectral_norm(E).shape == is_psd(E).shape == (0,)
    assert loewner_gap(E, E).shape == (0,)
    for call in (eigh, hermitize, op_norm, spectral_norm, is_psd, lambda M: matrix_power(M, 2.0)):
        for M in (np.zeros((0, 0)), np.zeros((2, 0, 0))):
            with pytest.raises(DimensionMismatch):
                call(M)


def test_op_norm_and_spectral_norm():
    assert op_norm(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, abs=1e-13)
    # non-Hermitian: largest singular value
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert spectral_norm(N) == pytest.approx(1.0, abs=1e-12)
    A = random_psd(4, 5)
    B = random_psd(4, 6)
    ref = np.linalg.norm(A @ B, ord=2)
    assert spectral_norm(A @ B) == pytest.approx(ref, rel=1e-10)


def test_require_hermitian():
    with pytest.raises(NonHermitianInput):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    require_hermitian(np.array([[1.0, 2.0], [2.0, 5.0]]))
    # exactly Hermitian but not finite: NaN fails M == M*, and an infinity
    # placed symmetrically passes it, yet both still raise
    inf = np.inf
    for bad in ([[np.nan, 0.0], [0.0, 1.0]], [[1.0, inf], [inf, 1.0]], [[inf, 0.0], [0.0, 1.0]],
                [[1.0, complex(0, inf)], [complex(0, -inf), 1.0]]):
        for M in (np.array(bad, dtype=complex), np.stack([np.eye(2), np.array(bad, dtype=complex)])):
            with pytest.raises(NonHermitianInput):
                require_hermitian(M)
            with pytest.raises(NonHermitianInput):
                eigh(M)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6),
       st.floats(min_value=0.05, max_value=1.0))
def test_power_monotone_on_unit_interval(n, seed, p):
    """X <= Y with both PSD implies X^p <= Y^p for 0 < p <= 1."""
    rng = np.random.default_rng(seed)
    X = random_psd(n, seed, shift=0.05)
    D = random_psd(n, seed + 1)
    Y = hermitize(X + D)
    g = loewner_gap(matrix_power(X, p), matrix_power(Y, p))
    assert g >= -1e-9 * (1.0 + op_norm(Y))


def test_power_monotone_fails_at_p2():
    """The classical p = 2 counterexample: squaring is not order-preserving."""
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    B = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert loewner_gap(A, B) >= -1e-13          # A <= B
    assert loewner_gap(A @ A, B @ B) < -0.1     # but A^2 </= B^2


def test_large_matrix_accuracy():
    A = random_hermitian(32, 9, scale=3.0)
    w, U = eigh(A)
    R = (U * w) @ U.conj().T
    assert np.linalg.norm(R - A) / np.linalg.norm(A) <= 1e-10
