"""Dense Hermitian matrix arithmetic.

Eigendecomposition (LAPACK, through numpy), real matrix powers through the
spectral calculus, the Loewner-order gap, and operator norms.  Everything
downstream (means, maps, the inequality checker) routes matrix functions
through :func:`eigh`, so the accuracy contract lives here: reconstruction
within 1e-10 relative Frobenius error.

:func:`eigh` is memoized on the matrix's content (its dimension and
complex128 bytes), with the last EIGH_CACHE_SIZE distinct matrices kept.
A case decomposes the same operand from several places (containment
check, powers, norms), and the tightness search rebuilds the same operands
across steps; each repeat is a cache hit that returns the bits a fresh
LAPACK call would.  Cached arrays are read-only, so no caller can corrupt
an entry, and a matrix that fails the Hermitian gate raises on every call.
The memo is per process: each worker keeps its own.

Matrices are plain ``numpy.ndarray`` values in ``complex128``.  Real input
is accepted anywhere and promoted.  Every function here also takes a stack
of square matrices, shape (T, n, n), and acts on each matrix as it would
alone, to the bit: the gates judge each matrix on its own, and stacked
LAPACK and matmul calls return, slice by slice, what single calls return.
A stack of more than one matrix is decomposed by one LAPACK call and does
not pass through the memo, which keeps single matrices only.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitianInput,
    NotPositiveSemidefinite,
    SingularMatrix,
)

# Tolerance policy (scale-invariant):
HERM_TOL = 1e-12          # symmetry:  |A - A*| <= HERM_TOL * (1 + max|entry|)
PSD_TOL = 1e-10           # eigenvalue counts as >= 0 when lam >= -PSD_TOL*(1+lam_max)
SINGULAR_TOL = 1e-12      # negative powers need lam_min > SINGULAR_TOL * lam_max

EIGH_CACHE_SIZE = 128     # distinct matrices whose decomposition eigh keeps


class SpectralDecomposition(NamedTuple):
    """Eigenvalues sorted ascending, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_matrix(A) -> np.ndarray:
    """Coerce to a square complex128 array without copying when possible."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def as_square(A) -> np.ndarray:
    """as_matrix, also accepting a (T, n, n) stack."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def require_hermitian(A) -> np.ndarray:
    """Validate the Hermitian-symmetry invariant, of each matrix of a stack,
    and return the matrix."""
    M = as_square(A)
    flat = M.shape[:-2] + (-1,)
    scale = 1.0 + (np.maximum.reduce(abs(M).reshape(flat), axis=-1) if M.size else 0.0)
    dev = np.maximum.reduce(abs(M - M.conj().swapaxes(-1, -2)).reshape(flat), axis=-1)
    # written so that a NaN or infinite entry fails it too
    if not _all(dev <= HERM_TOL * scale):
        raise NonHermitianInput(
            f"matrix has a non-finite entry or deviates from Hermitian symmetry "
            f"beyond {HERM_TOL:g}*(1+max|entry|)"
        )
    return M


def hermitize(A) -> np.ndarray:
    """Project onto the Hermitian part, (A + A*)/2.

    Used after products like U diag U* whose rounding errors are not exactly
    symmetric; keeps every intermediate inside the Hermitian invariant.
    A stack of square matrices is projected matrix by matrix.
    """
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {M.shape}")
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def eigh(A) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (eigenvalues (T, n), eigenvectors (T, n, n)).

    LAPACK's Hermitian solver (``numpy.linalg.eigh``) behind the Hermitian
    gate, so non-Hermitian and non-finite input raises NonHermitianInput.
    Eigenvalues come back sorted ascending with matching columns.  A single
    matrix, alone or as a stack of one, goes through the memo, and its
    arrays are read-only: they may be shared with earlier callers that
    passed a matrix with the same entries (see the module docstring).
    """
    M = as_square(A)
    if M.ndim == 2:
        return _eigh_of_bytes(M.shape[0], M.tobytes())
    if len(M) == 1:
        w, V = _eigh_of_bytes(M.shape[1], M[0].tobytes())
        return SpectralDecomposition(w[None], V[None])
    return SpectralDecomposition(*np.linalg.eigh(require_hermitian(M)))


@functools.lru_cache(maxsize=EIGH_CACHE_SIZE)
def _eigh_of_bytes(n: int, data: bytes) -> SpectralDecomposition:
    M = np.frombuffer(data, dtype=np.complex128).reshape(n, n)
    w, V = np.linalg.eigh(require_hermitian(M))
    w.flags.writeable = False
    V.flags.writeable = False
    return SpectralDecomposition(w, V)


def matrix_power(A, t, spectrum: Optional[SpectralDecomposition] = None) -> np.ndarray:
    """Real power A^t through the spectral calculus.

    Policy: nonnegative-integer t works for any Hermitian input; fractional
    t >= 0 requires PSD (eigenvalues within -1e-10*(1+lam_max) are clamped
    to zero, below that raises NotPositiveSemidefinite); t < 0 additionally
    requires lam_min > 1e-12 * lam_max, else SingularMatrix.  t in {0, 1}
    needs no decomposition.

    On a stack, t is one exponent for every matrix or an array of one per
    matrix.  `spectrum` is eigh(A) when the caller already has it.
    """
    M = as_square(A)
    if isinstance(t, float) or np.ndim(t) == 0:
        return _power(M, float(t), spectrum)
    t = np.asarray(t, dtype=float)
    exponents = set(t.tolist())
    if len(exponents) == 1:
        return _power(M, exponents.pop(), spectrum)
    out = np.empty_like(M)
    for shortcut in (0.0, 1.0):
        rows = t == shortcut
        if rows.any():
            out[rows] = _power(M[rows], shortcut, None)
    rest = (t != 0.0) & (t != 1.0)
    if rest.any():
        w, U = eigh(M[rest]) if spectrum is None else (spectrum[0][rest], spectrum[1][rest])
        t = t[rest]
        pw = np.empty_like(w)
        # each distinct exponent as a Python float: numpy computes w ** 0.5,
        # w ** -1.0 and w ** 2.0 differently when the exponent is an array
        for value in sorted(exponents - {0.0, 1.0}):
            rows = t == value
            pw[rows] = _power_values(w[rows], value)
        out[rest] = _compose(U, pw)
    return out


def _power(M: np.ndarray, t: float, spectrum) -> np.ndarray:
    """M^t, one exponent for every matrix."""
    if t == 0.0 or t == 1.0:
        M = require_hermitian(M)
        return np.broadcast_to(identity(M.shape[-1]), M.shape).copy() if t == 0.0 else M.copy()
    w, U = eigh(M) if spectrum is None else spectrum
    return _compose(U, _power_values(w, t))


def _power_values(w: np.ndarray, t: float) -> np.ndarray:
    """w ** t under matrix_power's policy; w holds ascending eigenvalues
    along its last axis, one row per matrix."""
    if t == round(t) and t > 0:
        return w ** t
    if w.ndim == 1:
        lam_min, lam_max = float(w[0]), max(float(w[-1]), 0.0)
    else:
        lam_min, lam_max = w[:, 0], np.maximum(w[:, -1], 0.0)
    if t < 0:
        bad = lam_min <= SINGULAR_TOL * lam_max
        if _any(bad):
            raise SingularMatrix(
                f"negative power {t} of a matrix with lam_min={_first(lam_min, bad):.3e}"
            )
        return w ** t
    bad = lam_min < -PSD_TOL * (1.0 + lam_max)
    if _any(bad):
        raise NotPositiveSemidefinite(
            f"fractional power {t} of a matrix with lam_min={_first(lam_min, bad):.3e}"
        )
    return np.maximum(w, 0.0) ** t


def _any(flags) -> bool:
    """Whether any matrix's flag is set: one bool, or an array of them."""
    return flags.any() if isinstance(flags, np.ndarray) else bool(flags)


def _all(flags) -> bool:
    return flags.all() if isinstance(flags, np.ndarray) else bool(flags)


def _first(values, bad):
    """The value of the first matrix that failed a gate."""
    return values if np.ndim(values) == 0 else values[bad][0]


def _compose(U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """hermitize(U diag(w) U*), over a stack too."""
    return hermitize((U * w[..., None, :]) @ U.conj().swapaxes(-1, -2))


def loewner_gap(A, B) -> float:
    """lambda_min(B - A): nonnegative exactly when A <= B in Loewner order."""
    MA = as_matrix(A)
    MB = as_matrix(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"shapes {MA.shape} and {MB.shape} differ")
    w, _ = eigh(hermitize(MB - MA))
    return float(w[0])


def op_norm(A):
    """Operator (spectral) norm of a Hermitian matrix: max |lambda_i|; an
    array of norms for a stack."""
    w, _ = eigh(A)
    if w.ndim == 1:
        return float(max(abs(w[0]), abs(w[-1])))
    return np.maximum(abs(w[:, 0]), abs(w[:, -1]))


def spectral_norm(X):
    """Operator norm of an arbitrary (possibly non-Hermitian) matrix; an
    array of norms for a stack.

    Computed as sqrt(lambda_max(X* X)); needed for products like A B of two
    positive matrices, which are not Hermitian.
    """
    M = np.asarray(X, dtype=np.complex128)
    if M.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix, got shape {M.shape}")
    w, _ = eigh(hermitize(M.conj().swapaxes(-1, -2) @ M))
    if w.ndim == 1:
        return float(np.sqrt(max(w[-1], 0.0)))
    return np.sqrt(np.maximum(w[:, -1], 0.0))


def is_psd(A, tol: float = PSD_TOL) -> bool:
    w, _ = eigh(A)
    return w[0] >= -tol * (1.0 + max(float(w[-1]), 0.0))
