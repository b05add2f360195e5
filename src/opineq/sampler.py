"""Seeded generation of Hermitian instances inside spectral hypotheses.

All randomness flows from SplitMix64, a 64-bit counter-based generator with
an exactly specified integer recurrence, so its streams are reproducible
bit-for-bit across runs and platforms:

    state' = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state'
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Doubles in [0, 1) take the top 53 bits.  Gaussians (numpy Box-Muller) and
Haar frames (LAPACK QR) may move in their last bits on another numpy/BLAS
build; the integer and uniform streams do not.  Child
seeds derive as ``mix64(parent XOR fnv1a64(label))``, where mix64 is the
finalizer above applied once and fnv1a64 hashes the label string; this is
the splitting rule used for per-trial and per-component streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SandwichBounds
from .errors import BadBounds, OpineqError
from .linalg import eigh, hermitize

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_UNIT = 1.0 / (1 << 53)

# Absolute slack allowed when re-checking that sampled spectra landed inside
# their hypothesis intervals.
CONTAINMENT_SLACK = 1e-10


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def derive_seed(parent: int, *labels) -> int:
    """Child seed for a named substream: mix64(parent XOR fnv1a64(label))."""
    return mix64((parent & _MASK) ^ fnv1a64("/".join(str(x) for x in labels)))


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK
        return mix64(self.state)

    def next_block(self, count: int) -> np.ndarray:
        """`count` calls of next_u64 at once (uint64 arrays wrap mod 2^64)."""
        z = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + self.state
        self.state = (self.state + count * _GOLDEN) & _MASK
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        return z

    def next_float(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * _UNIT

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_float()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (modulo draw; bias is negligible for
        the tiny ranges used here and keeps the stream exactly specified)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def gauss(self, count: int) -> np.ndarray:
        """Box-Muller on float pairs (u1, u2), u1 = 1 - float so log(u1) is
        finite: rad*cos, rad*sin per pair; an odd count drops a last sine."""
        u = (self.next_block(count + count % 2) >> 11) * _UNIT
        rad, theta = u[::2], u[1::2]
        np.sqrt(-2.0 * np.log(1.0 - rad), out=rad)
        theta *= 2.0 * math.pi
        cos = np.cos(theta)
        np.multiply(rad, np.sin(theta), out=theta)
        rad *= cos
        return u[:count]


def haar_unitary(n: int, rng: SplitMix64) -> np.ndarray:
    """Haar-distributed unitary (Mezzadri, Notices AMS 54, 2007).

    QR of a complex Gaussian matrix (real parts first, then imaginary), with
    column j of Q times the phase d/|d| of d = R[j, j]: R's diagonal is then
    positive, so Q is the Gram-Schmidt factor and its law is Haar.
    """
    g = rng.gauss(2 * n * n)
    Q, R = np.linalg.qr((g[: n * n] + 1j * g[n * n:]).reshape(n, n))
    d = R.diagonal()
    Q *= d / abs(d)
    return Q


def sample_constrained(
    n: int, lo: float, hi: float, seed: int, force_endpoints: bool = False
) -> np.ndarray:
    """Random Hermitian matrix with spectrum inside [lo, hi].

    Q diag(lambda) Q* with lambda i.i.d. uniform in [lo, hi] (sorted) and Q
    Haar; with force_endpoints and n >= 2 the extreme eigenvalues are pinned
    to lo and hi exactly.  A degenerate interval returns lo*I for any seed.
    """
    if n < 1:
        raise BadBounds(f"need n >= 1, got {n}")
    if not 0.0 < lo <= hi:
        raise BadBounds(f"need 0 < lo <= hi, got lo={lo}, hi={hi}")
    if lo == hi:
        return lo * np.eye(n, dtype=np.complex128)
    rng = SplitMix64(seed)
    lam = np.sort(lo + (hi - lo) * ((rng.next_block(n) >> 11) * _UNIT))
    if force_endpoints and n >= 2:
        lam[[0, -1]] = lo, hi
    Q = haar_unitary(n, rng)
    return hermitize((Q * lam) @ Q.conj().T)


@dataclass(frozen=True)
class Instance:
    """A Hermitian pair satisfying the spectral hypothesis of some bounds."""

    A: np.ndarray
    B: np.ndarray
    bounds: SandwichBounds
    seed: int
    n: int


def verify_instance(inst: Instance, slack: float = CONTAINMENT_SLACK) -> float:
    """Worst containment violation of the instance spectra (0 if inside).

    Raises if the violation exceeds `slack`; the verifier refuses to check
    unverified instances.
    """
    worst = 0.0
    for X, (lo, hi) in ((inst.A, inst.bounds.a_interval()), (inst.B, inst.bounds.b_interval())):
        w, _ = eigh(X)
        worst = max(worst, lo - float(w[0]), float(w[-1]) - hi)
    if worst > slack:
        raise OpineqError(
            f"instance spectrum escaped its hypothesis interval by {worst:.3e}"
        )
    return max(worst, 0.0)


def sample_instance(
    bounds: SandwichBounds, n: int, seed: int, force_endpoints: bool = False
) -> Instance:
    """Sample (A, B) inside the intervals prescribed by the bounds kind."""
    alo, ahi = bounds.a_interval()
    blo, bhi = bounds.b_interval()
    A = sample_constrained(n, alo, ahi, derive_seed(seed, "A"), force_endpoints)
    B = sample_constrained(n, blo, bhi, derive_seed(seed, "B"), force_endpoints)
    inst = Instance(A=A, B=B, bounds=bounds, seed=seed, n=n)
    verify_instance(inst)
    return inst


def build_from_spectrum(lam, frame_seed: int) -> np.ndarray:
    """Hermitian matrix with the given eigenvalues and a seeded Haar frame.

    Used by the tightness search, which steers eigenvalue placements
    explicitly instead of drawing them.
    """
    lam = np.sort(np.asarray(lam, dtype=float))
    Q = haar_unitary(lam.size, SplitMix64(frame_seed))
    return hermitize((Q * lam) @ Q.conj().T)
