"""Dense Hermitian matrix arithmetic.

Eigendecomposition (LAPACK, through numpy), real matrix powers through the
spectral calculus, the Loewner-order gap, and operator norms.  Everything
downstream (means, maps, the inequality checker) routes matrix functions
through :func:`eigh`, so the accuracy contract lives here: reconstruction
within 1e-10 relative Frobenius error.

Matrices are plain ``numpy.ndarray`` values in ``complex128``.  Real input
is accepted anywhere and promoted.  Every function here also takes a stack
of square matrices, shape (T, n, n), and acts on each matrix as it would
alone, to the bit: the gates judge each matrix on its own, and stacked
LAPACK and matmul calls return, slice by slice, what single calls return.
There is one implementation per operation, the stacked one: matrix_power
lifts a single matrix to a stack of one, and the norms and gates read each
matrix's extreme eigenvalues as w[..., 0] and w[..., -1].  What comes back
per matrix (a norm, a gap, a PSD flag) is a Python float or bool for a
single matrix and an array for a stack.  A parameter is a Python float for
every matrix, or on a stack an array of T values, which per_matrix shapes
to scale the stack.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    NonHermitianInput,
    NotPositiveSemidefinite,
    SingularMatrix,
)

# Tolerance policy (scale-invariant):
HERM_TOL = 1e-12          # symmetry:  |A - A*| <= HERM_TOL * (1 + max|entry|)
PSD_TOL = 1e-10           # eigenvalue counts as >= 0 when lam >= -PSD_TOL*(1+lam_max)
SINGULAR_TOL = 1e-12      # negative powers need lam_min > SINGULAR_TOL * lam_max


class SpectralDecomposition(NamedTuple):
    """Eigenvalues sorted ascending, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square(A) -> np.ndarray:
    """Coerce a square matrix, or a (T, n, n) stack of them, to complex128
    without copying when possible; T may be 0, n may not."""
    M = np.asarray(A, dtype=np.complex128)
    if M.ndim not in (2, 3) or M.shape[-1] != M.shape[-2] or M.shape[-1] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def as_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """as_square of both, which must have the same shape."""
    MA, MB = as_square(A), as_square(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"shapes {MA.shape} and {MB.shape} differ")
    return MA, MB


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def require_hermitian(A) -> np.ndarray:
    """Validate the Hermitian-symmetry invariant, of each matrix of a stack,
    and return the matrix."""
    M = as_square(A)
    # most matrices come out of hermitize or compose exactly Hermitian, so
    # their deviation is 0 and the test below cannot fail; NaN fails M == M*
    # and takes the full test, as do infinite entries
    if (M == M.conj().swapaxes(-1, -2)).all() and np.isfinite(M).all():
        return M
    flat = M.shape[:-2] + (M.shape[-1] ** 2,)
    scale = 1.0 + np.maximum.reduce(abs(M).reshape(flat), axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        dev = np.maximum.reduce(abs(M - M.conj().swapaxes(-1, -2)).reshape(flat), axis=-1)
    # written so that a NaN or infinite entry fails it too
    if not (dev <= HERM_TOL * scale).all():
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
    M = as_square(A)
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def eigh(A) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack (eigenvalues (T, n), eigenvectors (T, n, n)).

    LAPACK's Hermitian solver (``numpy.linalg.eigh``) behind the Hermitian
    gate, so non-Hermitian and non-finite input raises NonHermitianInput.
    Eigenvalues come back sorted ascending with matching columns.  A stack
    is one LAPACK call.
    """
    return SpectralDecomposition(*np.linalg.eigh(require_hermitian(A)))


def matrix_power(A, t, spectrum: Optional[SpectralDecomposition] = None) -> np.ndarray:
    """Real power A^t through the spectral calculus.

    Policy: nonnegative-integer t works for any Hermitian input; fractional
    t >= 0 requires PSD (eigenvalues within -1e-10*(1+lam_max) are clamped
    to zero, below that raises NotPositiveSemidefinite); t < 0 additionally
    requires lam_min > 1e-12 * lam_max, else SingularMatrix.  t in {0, 1}
    needs no decomposition.  A non-finite t raises ConfigInvalid.

    On a stack, t is one exponent for every matrix or an array of one per
    matrix; either way the powers are one pass over the stack (see
    _power_values), so a matrix gets the same bits alone and in any stack.
    `spectrum` is eigh(A) when the caller already has it.
    """
    M = as_square(A)
    if M.ndim == 2:  # a single matrix is a stack of one
        if spectrum is not None:
            spectrum = SpectralDecomposition(spectrum[0][None], spectrum[1][None])
        return matrix_power(M[None], t, spectrum)[0]
    t = np.full(len(M), float(t)) if np.ndim(t) == 0 else np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ConfigInvalid(f"power needs a finite exponent, got {t[~np.isfinite(t)][0]}")
    values = set(t.tolist())
    if not values & {0.0, 1.0}:
        w, U = eigh(M) if spectrum is None else spectrum
        return compose(U, _power_values(w, t, values))
    # A^0 = I and A^1 = A need no decomposition, only the Hermitian gate
    out = np.where(per_matrix(t == 0.0), identity(M.shape[-1]), require_hermitian(M))
    rest = (t != 0.0) & (t != 1.0)
    if rest.any():
        w, U = eigh(M[rest]) if spectrum is None else rows_of(spectrum, rest)
        out[rest] = compose(U, _power_values(w, t[rest], values - {0.0, 1.0}))
    return out


# Exponents numpy computes by a special function when given as a Python
# float (w ** 0.5 by sqrt, w ** -1.0 by reciprocal, w ** 2.0 by square);
# those can differ in the last bit from the general power.
_FAST_POWERS = frozenset((0.5, -1.0, 2.0))


def _power_values(w: np.ndarray, t: np.ndarray, values: set) -> np.ndarray:
    """w ** t under matrix_power's policy: w holds one row of ascending
    eigenvalues per matrix, t one exponent per row, never 0 or 1, and
    values the set of them.  Each gate judges the rows of the exponents it
    applies to.  One np.power call raises each row to its exponent, except
    that the rows of a _FAST_POWERS value take numpy's scalar call, alone
    or in any stack."""
    lam_min, lam_max = w[:, 0], np.maximum(w[:, -1], 0.0)
    if min(values, default=0.0) < 0:
        bad = lam_min <= SINGULAR_TOL * lam_max
        if max(values) > 0:
            bad &= t < 0
        if bad.any():
            raise SingularMatrix(
                f"negative power {t[bad][0]} of a matrix with lam_min={lam_min[bad][0]:.3e}"
            )
    base = w
    fractional = {v for v in values if v > 0 and v != round(v)}
    if fractional:
        # fractional powers read the eigenvalues clamped at 0
        clamp = True if fractional == values else (t > 0) & (t != np.floor(t))
        bad = clamp & (lam_min < -PSD_TOL * (1.0 + lam_max))
        if bad.any():
            raise NotPositiveSemidefinite(
                f"fractional power {t[bad][0]} of a matrix with lam_min={lam_min[bad][0]:.3e}"
            )
        base = np.maximum(w, 0.0) if clamp is True else np.where(clamp[:, None], np.maximum(w, 0.0), w)
    fast = values & _FAST_POWERS
    if len(values) == 1 and fast:
        return base ** fast.pop()
    out = np.power(base, t[:, None])
    for value in fast:
        rows = t == value
        out[rows] = base[rows] ** value
    return out


def compose(U: np.ndarray, w: np.ndarray) -> np.ndarray:
    """hermitize(U diag(w) U*), over a stack too."""
    return hermitize((U * w[..., None, :]) @ U.conj().swapaxes(-1, -2))


def per_matrix(x):
    """A scalar, or one value per matrix of a stack shaped to scale it."""
    return x if np.ndim(x) == 0 else x[:, None, None]


def rows_of(spectrum, rows) -> SpectralDecomposition:
    """The chosen rows of a stack's spectrum."""
    return SpectralDecomposition(spectrum[0][rows], spectrum[1][rows])


def _each(values):
    """A Python scalar for a single matrix, the array for a stack."""
    return values.item() if values.ndim == 0 else values


def loewner_gap(A, B):
    """lambda_min(B - A): nonnegative exactly when A <= B in Loewner order;
    an array of gaps for a stack."""
    MA, MB = as_pair(A, B)
    w, _ = eigh(hermitize(MB - MA))
    return _each(w[..., 0])


def op_norm(A):
    """Operator (spectral) norm of a Hermitian matrix: max |lambda_i|; an
    array of norms for a stack."""
    w, _ = eigh(A)
    return _each(np.maximum(abs(w[..., 0]), abs(w[..., -1])))


def spectral_norm(X):
    """Operator norm of a square, possibly non-Hermitian, matrix; an array
    of norms for a stack.

    Computed as sqrt(lambda_max(X* X)); needed for products like A B of two
    positive matrices, which are not Hermitian.
    """
    M = as_square(X)
    w, _ = eigh(hermitize(M.conj().swapaxes(-1, -2) @ M))
    return _each(np.sqrt(np.maximum(w[..., -1], 0.0)))


def is_psd(A, tol: float = PSD_TOL):
    """lambda_min >= -tol * (1 + max(lambda_max, 0)): a bool, or an array of
    them for a stack."""
    w, _ = eigh(A)
    return _each(w[..., 0] >= -tol * (1.0 + np.maximum(w[..., -1], 0.0)))
