"""Independent scalar oracles used to cross-check closed forms.

Kept deliberately dumb: a golden-section minimizer and the secant-ratio
objective, and the constants of the paper's displays transcribed afresh,
with no shared code paths into the package under test; the sampler's
reference draws, scalar Box-Muller and Gram-Schmidt Haar frames,
which share only the generator's scalar `next_float` stream with it; the
block-diagonal maps as index copies and the other map kinds one matrix at a
time; and both sides of a few registry statements, one case at a time,
through plain ``np.linalg.eigh`` and the textbook formulas, the norm
statements' through ``np.linalg.norm``.
"""

import math

import numpy as np

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, lo, hi, tol=1e-13, max_iter=200):
    """Minimize a unimodal function on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if abs(b - a) < tol * (1.0 + abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def secant_ratio_min(m, M, nu):
    """min over [m, M] of (secant line of x^nu through the endpoints) / x^nu.

    The independent characterization of the weighted reverse constant.
    """

    def ratio(t):
        secant = m ** nu + (M ** nu - m ** nu) * (t - m) / (M - m)
        return secant / t ** nu

    _, val = golden_section_min(ratio, m, M)
    # guard against a flat or endpoint-minimal objective
    return min(val, ratio(m), ratio(M))


def kantorovich_of(t):
    """K(t) = (1 + t)^2 / (4 t)."""
    return (1.0 + t) ** 2 / (4.0 * t)


def abstract_constant(m, mp, Mp, M, nu, p):
    """The constant of the abstract's display,
    (K(h) / (4^{2/p - 1} K^{r1}(sqrt(h'))))^p, with h = M/m, h' = M'/m',
    r = min{nu, 1 - nu} and r1 = min{2r, 1 - 2r}."""
    r = min(nu, 1.0 - nu)
    r1 = min(2.0 * r, 1.0 - 2.0 * r)
    h = M / m
    h_inner = Mp / mp
    divisor = 4.0 ** (2.0 / p - 1.0) * kantorovich_of(math.sqrt(h_inner)) ** r1
    return (kantorovich_of(h) / divisor) ** p


def gauss_pair(rng):
    """Scalar Box-Muller on two next_float draws, u1 = 1 - float so log(u1)
    is finite; returns (rad*cos, rad*sin)."""
    u1 = 1.0 - rng.next_float()
    u2 = rng.next_float()
    rad = math.sqrt(-2.0 * math.log(u1))
    return rad * math.cos(2.0 * math.pi * u2), rad * math.sin(2.0 * math.pi * u2)


def gauss(rng, count):
    """`count` normals, `count` even, one scalar pair at a time."""
    return [z for _ in range(count // 2) for z in gauss_pair(rng)]


def haar_gram_schmidt(n, rng):
    """Haar unitary by two passes of modified Gram-Schmidt on the columns of
    a complex Gaussian matrix (real parts first, then imaginary).  Each
    column is normalized to a real, positive length, which is the phase
    normalization of the triangular factor that makes the law Haar."""
    g = gauss(rng, 2 * n * n)
    Q = (np.array(g[: n * n]) + 1j * np.array(g[n * n:])).reshape(n, n) / math.sqrt(2.0)
    for _pass in range(2):
        for j in range(n):
            for i in range(j):
                Q[:, j] -= (Q[:, i].conj() @ Q[:, j]) * Q[:, i]
            Q[:, j] /= np.linalg.norm(Q[:, j])
    return Q


def pinch(M, blocks):
    """The pinching of M: zeros, then each diagonal block copied through
    its index set."""
    out = np.zeros_like(M)
    for block in blocks:
        idx = np.asarray(block)
        out[np.ix_(idx, idx)] = M[np.ix_(idx, idx)]
    return out


def diagonal_part(M):
    """The diagonal of M as a complex diagonal matrix."""
    return np.diag(np.diag(M)).astype(np.complex128)


def trace_average(M):
    """tr(M)/n times the identity."""
    n = M.shape[0]
    return (np.trace(M) / n) * np.eye(n, dtype=np.complex128)


def compression(M, V):
    """V* M V."""
    return V.conj().T @ M @ V


def unitary_mixture(M, terms):
    """sum_j w_j U_j M U_j*, the terms added one at a time onto zeros."""
    out = np.zeros_like(M)
    for w, U in terms:
        out += w * (U @ M @ U.conj().T)
    return out


def map_image(kind, payload, M):
    """The image of one complex matrix M under a catalog map of the given
    kind and payload."""
    if kind == "identity":
        return M.copy()
    if kind == "diagonal":
        return diagonal_part(M)
    if kind == "pinching":
        return pinch(M, payload)
    if kind == "trace_average":
        return trace_average(M)
    if kind == "compression":
        return compression(M, payload)
    if kind == "unitary_mixture":
        return unitary_mixture(M, payload)
    raise KeyError(kind)


def _hermitian(X):
    return (X + X.conj().T) / 2.0


def power(M, t):
    """M^t for a positive Hermitian M, by the spectral theorem."""
    w, U = np.linalg.eigh(_hermitian(M))
    return _hermitian((U * np.maximum(w, 0.0) ** t) @ U.conj().T)


def geometric_mean(A, B, nu):
    """A #_nu B = A^{1/2} (A^{-1/2} B A^{-1/2})^nu A^{1/2}."""
    root, inv_root = power(A, 0.5), power(A, -0.5)
    return _hermitian(root @ power(inv_root @ B @ inv_root, nu) @ root)


def statement_sides(ineq_id, A, B, nu, p, blocks, m, M):
    """(lhs, rhs) of a registry statement lhs <= rhs, constant included on
    the right: amgm, choi and ando under the pinching over `blocks`, and
    thm1.1-phi-outside under the identity map (nu = 1/2, common bounds
    m, M)."""
    if ineq_id == "amgm":
        return geometric_mean(A, B, nu), (1.0 - nu) * A + nu * B
    if ineq_id == "choi":
        return power(pinch(A, blocks), -1.0), pinch(power(A, -1.0), blocks)
    if ineq_id == "ando":
        mean_of_images = geometric_mean(pinch(A, blocks), pinch(B, blocks), nu)
        return pinch(geometric_mean(A, B, nu), blocks), mean_of_images
    if ineq_id == "thm1.1-phi-outside":
        c = ((M + m) ** 2 / (4.0 ** (2.0 / p) * M * m)) ** p
        return power((A + B) / 2.0, p), c * power(geometric_mean(A, B, 0.5), p)
    raise KeyError(ineq_id)


def norm_sides(ineq_id, A, B, nu, p, alpha, kind, payload, m, M):
    """(lhs, rhs) of a norm statement lhs <= rhs as two numbers, through
    np.linalg.norm(., 2): the lemma 2.2 bounds, and norm-refinement under
    the catalog map of the given kind and payload with outer bounds m, M."""
    norm = lambda X: float(np.linalg.norm(X, 2))
    if ineq_id == "lemma2.2-i":
        return norm(A @ B), 0.25 * norm(A + B) ** 2
    if ineq_id == "lemma2.2-ii":
        return norm(power(A, alpha) + power(B, alpha)), norm(power(A + B, alpha))
    if ineq_id == "norm-refinement":
        r = min(nu, 1.0 - nu)
        Ai, Bi = np.linalg.inv(A), np.linalg.inv(B)
        plain = (1.0 - nu) * A + nu * B
        bracket = plain + 2.0 * r * M * m * ((Ai + Bi) / 2.0 - geometric_mean(Ai, Bi, 0.5))
        return tuple(norm(power(map_image(kind, payload, X), p)) for X in (plain, bracket))
    raise KeyError(ineq_id)


def loewner_gap(lhs, rhs):
    """lambda_min(rhs - lhs)."""
    w, _ = np.linalg.eigh(_hermitian(rhs - lhs))
    return float(w[0])
