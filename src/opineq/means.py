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

from .errors import BadBounds, WeightOutOfRange
from .linalg import SpectralDecomposition, as_pair, eigh, hermitize, matrix_power, per_matrix, rows_of


def _check_nu(nu):
    """nu as a float array: 0-d for one weight, or one weight per matrix of
    a stack."""
    nu = np.asarray(nu, dtype=float)
    bad = ~((0.0 <= nu) & (nu <= 1.0))
    if bad.any():
        raise WeightOutOfRange(f"nu must be in [0, 1], got {nu[bad][0]}")
    return nu


def arithmetic_mean(A, B, nu) -> np.ndarray:
    """(1 - nu) A + nu B."""
    MA, MB = as_pair(A, B)
    nu = _check_nu(nu)
    return per_matrix(1.0 - nu) * MA + per_matrix(nu) * MB


def geometric_mean(A, B, nu, spectrum: Optional[SpectralDecomposition] = None) -> np.ndarray:
    """A^{1/2} (A^{-1/2} B A^{-1/2})^nu A^{1/2}.

    A must be positive definite (SingularMatrix otherwise); B positive
    semidefinite (NotPositiveSemidefinite surfaces from the inner power).
    On stacks nu may hold one weight per matrix; `spectrum` is eigh(A) when
    the caller already has it.
    """
    MA, MB = as_pair(A, B)
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
    m, M = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(M, dtype=float))
    bad = ~((0.0 < m) & (m <= M))
    if bad.any():
        raise BadBounds(f"need 0 < m <= M, got m={m[bad][0]}, M={M[bad][0]}")
    nu = _check_nu(nu)
    MA, MB = as_pair(A, B)
    out = arithmetic_mean(MA, MB, nu)
    r = np.minimum(nu, 1.0 - nu)
    # rows with r = 0 keep the arithmetic mean; on a single matrix the 0-d
    # mask indexes a stack of one
    live = r != 0.0
    if not live.any():
        return out
    sA, sB = (None, None) if spectra is None else (rows_of(s, live) for s in spectra)
    Ai = matrix_power(MA[live], -1.0, sA)
    Bi = matrix_power(MB[live], -1.0, sB)
    defect = arithmetic_mean(Ai, Bi, 0.5) - geometric_mean(Ai, Bi, 0.5)
    out[live] = hermitize(out[live] + per_matrix((2.0 * r * M * m)[live]) * defect)
    return out
