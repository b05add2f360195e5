"""Weighted operator means and the bracket expression.

Convention: the weight nu attaches to the SECOND argument in both means,

    arithmetic_mean(A, B, nu) = (1 - nu) A + nu B
    geometric_mean(A, B, nu)  = A^{1/2} (A^{-1/2} B A^{-1/2})^nu A^{1/2}

so the arithmetic-geometric inequality holds with matching weights and the
scalar case collapses to a^{1-nu} b^nu.  The unsubscripted means inside
bracket_term use nu = 1/2.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import BadBounds, DimensionMismatch, WeightOutOfRange
from .linalg import SpectralDecomposition, as_square, eigh, hermitize, matrix_power


def _check_pair(A, B):
    MA = as_square(A)
    MB = as_square(B)
    if MA.shape != MB.shape:
        raise DimensionMismatch(f"shapes {MA.shape} and {MB.shape} differ")
    return MA, MB


def _check_nu(nu):
    """nu as a Python float, or as a float array with one weight per matrix
    of a stack."""
    if isinstance(nu, float) or np.ndim(nu) == 0:
        nu = float(nu)
        if not 0.0 <= nu <= 1.0:
            raise WeightOutOfRange(f"nu must be in [0, 1], got {nu}")
        return nu
    nu = np.asarray(nu, dtype=float)
    bad = ~((0.0 <= nu) & (nu <= 1.0))
    if np.count_nonzero(bad):
        raise WeightOutOfRange(f"nu must be in [0, 1], got {nu[bad][0]}")
    return nu


def _per_matrix(x):
    """A scalar, or one value per matrix of a stack shaped to scale it."""
    return x if isinstance(x, float) or np.ndim(x) == 0 else x[:, None, None]


def arithmetic_mean(A, B, nu) -> np.ndarray:
    """(1 - nu) A + nu B."""
    MA, MB = _check_pair(A, B)
    nu = _check_nu(nu)
    return _per_matrix(1.0 - nu) * MA + _per_matrix(nu) * MB


def geometric_mean(A, B, nu, spectrum: Optional[SpectralDecomposition] = None) -> np.ndarray:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^nu A^{1/2}.

    A must be positive definite (SingularMatrix otherwise); B positive
    semidefinite (NotPositiveSemidefinite surfaces from the inner power).
    On stacks nu may hold one weight per matrix; `spectrum` is eigh(A) when
    the caller already has it.
    """
    MA, MB = _check_pair(A, B)
    nu = _check_nu(nu)
    if spectrum is None:
        spectrum = eigh(MA)
    Ah = matrix_power(MA, 0.5, spectrum)
    Aih = matrix_power(MA, -0.5, spectrum)
    inner = hermitize(Aih @ MB @ Aih)
    core = matrix_power(inner, nu)
    return hermitize(Ah @ core @ Ah)


def bracket_term(A, B, m, M, nu, spectra: Optional[tuple] = None) -> np.ndarray:
    """A nabla_nu B + 2 r M m (A^{-1} nabla B^{-1} - A^{-1} # B^{-1}).

    The enlarged left-hand side of the squared/power reverse inequalities;
    r = min{nu, 1 - nu}, and the unsubscripted nabla and # carry weight 1/2.
    Dominates A nabla_nu B because the subtracted pair is an AM-GM defect of
    (A^{-1}, B^{-1}), which is positive semidefinite.  On stacks m, M and nu
    may hold one value per matrix; `spectra` is (eigh(A), eigh(B)) when the
    caller already has them.
    """
    if np.ndim(m) == 0 and np.ndim(M) == 0:
        m, M = float(m), float(M)
        if not 0.0 < m <= M:
            raise BadBounds(f"need 0 < m <= M, got m={m}, M={M}")
    else:
        m, M = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(M, dtype=float))
        bad = ~((0.0 < m) & (m <= M))
        if bad.any():
            raise BadBounds(f"need 0 < m <= M, got m={m[bad][0]}, M={M[bad][0]}")
    nu = _check_nu(nu)
    MA, MB = _check_pair(A, B)
    base = arithmetic_mean(MA, MB, nu)
    if np.ndim(nu) == 0:
        r = min(nu, 1.0 - nu)
        if r == 0.0:
            return base
    else:
        r = np.minimum(nu, 1.0 - nu)
        live = r != 0.0
        if not live.all():  # rows with r = 0 keep the arithmetic mean
            out = base.copy()
            if live.any():
                out[live] = bracket_term(
                    MA[live], MB[live], _rows(m, live), _rows(M, live), nu[live],
                    None if spectra is None else (_rows(spectra[0], live), _rows(spectra[1], live)),
                )
            return out
    sA, sB = spectra if spectra is not None else (None, None)
    Ai = matrix_power(MA, -1.0, sA)
    Bi = matrix_power(MB, -1.0, sB)
    defect = arithmetic_mean(Ai, Bi, 0.5) - geometric_mean(Ai, Bi, 0.5)
    return hermitize(base + _per_matrix(2.0 * r * M * m) * defect)


def _rows(x, rows):
    """The chosen rows of a per-matrix array or of a stack's spectrum; a
    scalar stays as it is."""
    if isinstance(x, SpectralDecomposition):
        return SpectralDecomposition(x[0][rows], x[1][rows])
    return x if np.ndim(x) == 0 else x[rows]
