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
is accepted anywhere and promoted.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def require_hermitian(A) -> np.ndarray:
    """Validate the Hermitian-symmetry invariant and return the matrix."""
    M = as_matrix(A)
    scale = 1.0 + (np.max(np.abs(M)) if M.size else 0.0)
    # written so that a NaN or infinite entry fails it too
    if not np.max(np.abs(M - M.conj().T)) <= HERM_TOL * scale:
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
    """Full eigendecomposition of a Hermitian matrix.

    LAPACK's Hermitian solver (``numpy.linalg.eigh``) behind the Hermitian
    gate, so non-Hermitian and non-finite input raises NonHermitianInput.
    Eigenvalues come back sorted ascending with matching columns.  Both
    arrays are read-only: they may be shared with earlier callers that
    passed a matrix with the same entries (see the module docstring).
    """
    M = as_matrix(A)
    return _eigh_of_bytes(M.shape[0], M.tobytes())


@functools.lru_cache(maxsize=EIGH_CACHE_SIZE)
def _eigh_of_bytes(n: int, data: bytes) -> SpectralDecomposition:
    M = np.frombuffer(data, dtype=np.complex128).reshape(n, n)
    w, V = np.linalg.eigh(require_hermitian(M))
    w.flags.writeable = False
    V.flags.writeable = False
    return SpectralDecomposition(w, V)


def matrix_power(A, t: float) -> np.ndarray:
    """Real power A^t through the spectral calculus.

    Policy: nonnegative-integer t works for any Hermitian input; fractional
    t >= 0 requires PSD (eigenvalues within -1e-10*(1+lam_max) are clamped
    to zero, below that raises NotPositiveSemidefinite); t < 0 additionally
    requires lam_min > 1e-12 * lam_max, else SingularMatrix.
    """
    t = float(t)
    if t in (0.0, 1.0):
        M = require_hermitian(A)
        return identity(M.shape[0]) if t == 0.0 else M.copy()
    w, U = eigh(A)
    if t == round(t) and t > 0:
        pw = w ** t
    else:
        lam_max = float(w[-1])
        if t < 0:
            if w[0] <= SINGULAR_TOL * max(lam_max, 0.0):
                raise SingularMatrix(
                    f"negative power {t} of a matrix with lam_min={w[0]:.3e}"
                )
            pw = w ** t
        else:
            floor = -PSD_TOL * (1.0 + max(lam_max, 0.0))
            if w[0] < floor:
                raise NotPositiveSemidefinite(
                    f"fractional power {t} of a matrix with lam_min={w[0]:.3e}"
                )
            pw = np.clip(w, 0.0, None) ** t
    return hermitize((U * pw) @ U.conj().T)


def loewner_gap(A, B) -> float:
    """lambda_min(B - A): nonnegative exactly when A <= B in Loewner order."""
    MA = as_matrix(A)
    MB = as_matrix(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"shapes {MA.shape} and {MB.shape} differ")
    w, _ = eigh(hermitize(MB - MA))
    return float(w[0])


def op_norm(A) -> float:
    """Operator (spectral) norm of a Hermitian matrix: max |lambda_i|."""
    w, _ = eigh(A)
    return float(max(abs(w[0]), abs(w[-1])))


def spectral_norm(X) -> float:
    """Operator norm of an arbitrary (possibly non-Hermitian) matrix.

    Computed as sqrt(lambda_max(X* X)); needed for products like A B of two
    positive matrices, which are not Hermitian.
    """
    M = np.asarray(X, dtype=np.complex128)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {M.shape}")
    w, _ = eigh(hermitize(M.conj().T @ M))
    return float(np.sqrt(max(w[-1], 0.0)))


def is_psd(A, tol: float = PSD_TOL) -> bool:
    w, _ = eigh(A)
    return w[0] >= -tol * (1.0 + max(float(w[-1]), 0.0))
