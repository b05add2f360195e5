"""Independent scalar oracles used to cross-check closed forms.

Kept deliberately dumb: a golden-section minimizer and the secant-ratio
objective, with no shared code paths into the package under test; and the
sampler's reference draws, scalar Box-Muller and Gram-Schmidt Haar frames,
which share only the generator's scalar `next_float` stream with it.
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


def gauss_pair(rng):
    """Scalar Box-Muller on two next_float draws, u1 = 1 - float so log(u1)
    is finite; returns (rad*cos, rad*sin)."""
    u1 = 1.0 - rng.next_float()
    u2 = rng.next_float()
    rad = math.sqrt(-2.0 * math.log(u1))
    return rad * math.cos(2.0 * math.pi * u2), rad * math.sin(2.0 * math.pi * u2)


def gauss(rng, count):
    """`count` normals, one scalar pair at a time; an odd count draws a whole
    pair and keeps its first value."""
    out = []
    while len(out) < count:
        out.extend(gauss_pair(rng))
    return out[:count]


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
