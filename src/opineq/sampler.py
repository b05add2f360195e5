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
        """`count` calls of next_u64 at once."""
        z = _mix_rows(self.state, count)
        self.skip(count)
        return z

    def skip(self, count: int) -> None:
        """Leave the state of `count` next_u64 calls without making them."""
        self.state = (self.state + count * _GOLDEN) & _MASK

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
        """`count` normals by Box-Muller; an odd count drops a last sine."""
        return _box_muller(self.next_block(count + count % 2))[:count]


def _mix_rows(states, count: int) -> np.ndarray:
    """`count` next_u64 outputs of a SplitMix64 at each state, along the last
    axis: the mix64 finalizer of state + k*GOLDEN, k = 1..count (uint64
    arrays wrap mod 2^64).  `states` is one int, or a uint64 column."""
    z = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + states
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _box_muller(z: np.ndarray) -> np.ndarray:
    """Normals from integer pairs along the last axis: floats (u1, u2) from
    the top 53 bits, u1 = 1 - float so log(u1) is finite, then rad*cos and
    rad*sin per pair."""
    u = (z >> 11) * _UNIT
    rad, theta = u[..., ::2], u[..., 1::2]
    np.sqrt(-2.0 * np.log(1.0 - rad), out=rad)
    theta *= 2.0 * math.pi
    cos = np.cos(theta)
    np.multiply(rad, np.sin(theta), out=theta)
    rad *= cos
    return u


def _haar(g: np.ndarray, n: int) -> np.ndarray:
    """Haar unitaries from 2n^2 normals along the last axis (Mezzadri,
    Notices AMS 54, 2007): QR of the complex Gaussian matrix (real parts
    first, then imaginary), with column j of Q times the phase d/|d| of
    d = R[j, j], so R's diagonal is positive and Q's law is Haar."""
    Z = (g[..., : n * n] + 1j * g[..., n * n:]).reshape(g.shape[:-1] + (n, n))
    Q, R = np.linalg.qr(Z)
    d = R.diagonal(0, -2, -1)
    Q *= (d / abs(d))[..., None, :]
    return Q


def _compose(Q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """hermitize(Q diag(lam) Q*), over a stack too."""
    return hermitize((Q * lam[..., None, :]) @ Q.conj().swapaxes(-1, -2))


def haar_unitary(n: int, rng: SplitMix64) -> np.ndarray:
    """Haar-distributed unitary from the next 2n^2 normals of `rng`."""
    return _haar(rng.gauss(2 * n * n), n)


def haar_stack(n: int, states) -> np.ndarray:
    """Stack of haar_unitary(n, rng) for SplitMix64 generators at the given
    states, each slice bit-identical to its single draw; all frames share one
    finalizer pass and one batched QR."""
    z = _mix_rows(np.array([[s] for s in states], dtype=np.uint64), 2 * n * n)
    return _haar(_box_muller(z), n)


def sample_stack(n: int, lo, hi, seeds, force_endpoints: bool = False) -> np.ndarray:
    """Stack of sample_constrained(n, lo[i], hi[i], seeds[i], force_endpoints),
    each slice bit-identical to its single draw.  Each live row takes n
    eigenvalues, then 2n^2 frame normals, from its own stream; all rows share
    one finalizer pass, one batched QR and one batched product."""
    if n < 1:
        raise BadBounds(f"need n >= 1, got {n}")
    for a, b in zip(lo, hi):
        if not 0.0 < a <= b:
            raise BadBounds(f"need 0 < lo <= hi, got lo={a}, hi={b}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = lo[:, None, None] * np.eye(n, dtype=np.complex128)
    live = lo < hi
    if live.any():
        lo, hi = lo[live, None], hi[live, None]
        z = _mix_rows(np.array([[s & _MASK] for s in seeds], dtype=np.uint64)[live], n + 2 * n * n)
        lam = np.sort(lo + (hi - lo) * ((z[:, :n] >> 11) * _UNIT))
        if force_endpoints and n >= 2:
            lam[:, 0], lam[:, -1] = lo[:, 0], hi[:, 0]
        out[live] = _compose(_haar(_box_muller(z[:, n:]), n), lam)
    return out


def sample_constrained(
    n: int, lo: float, hi: float, seed: int, force_endpoints: bool = False
) -> np.ndarray:
    """Random Hermitian matrix with spectrum inside [lo, hi].

    Q diag(lambda) Q* with lambda i.i.d. uniform in [lo, hi] (sorted) and Q
    Haar; with force_endpoints and n >= 2 the extreme eigenvalues are pinned
    to lo and hi exactly.  A degenerate interval returns lo*I for any seed.
    """
    return sample_stack(n, [lo], [hi], [seed], force_endpoints)[0]


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
    wA, _ = eigh(inst.A)
    wB, _ = eigh(inst.B)
    return float(verify_instances([inst], wA[None], wB[None], slack)[0])


def verify_instances(instances, wA: np.ndarray, wB: np.ndarray,
                     slack: float = CONTAINMENT_SLACK) -> np.ndarray:
    """verify_instance over a stack: wA and wB hold the ascending eigenvalues
    of the instances' A and B, one row per instance.  Returns the worst
    violation per instance; raises for the first instance past `slack`."""
    worst = []
    for inst, a_min, a_max, b_min, b_max in zip(
        instances, wA[:, 0].tolist(), wA[:, -1].tolist(), wB[:, 0].tolist(), wB[:, -1].tolist()
    ):
        (a_lo, a_hi), (b_lo, b_hi) = inst.bounds.a_interval(), inst.bounds.b_interval()
        worst.append(max(0.0, a_lo - a_min, a_max - a_hi, b_lo - b_min, b_max - b_hi))
        if worst[-1] > slack:
            raise OpineqError(
                f"instance spectrum escaped its hypothesis interval by {worst[-1]:.3e}"
            )
    return np.array(worst)


def sample_instance(
    bounds: SandwichBounds, n: int, seed: int, force_endpoints: bool = False
) -> Instance:
    """Sample (A, B) inside the intervals prescribed by the bounds kind."""
    inst = stack_instances([bounds], n, [seed], force_endpoints)[0]
    verify_instance(inst)
    return inst


def stack_instances(bounds, n: int, seeds, force_endpoints: bool = False) -> list[Instance]:
    """Unverified instances for bounds[i] and seeds[i], all drawn as one
    stack; the pair of seed s takes A from derive_seed(s, "A") and B from
    derive_seed(s, "B").  A stack holds 2 * len(seeds) * n^2 * 16 bytes."""
    iv = np.array([b.a_interval() + b.b_interval() for b in bounds], dtype=float).reshape(-1, 2)
    labelled = [derive_seed(s, label) for s in seeds for label in "AB"]
    AB = sample_stack(n, iv[:, 0], iv[:, 1], labelled, force_endpoints)
    return [
        Instance(A=AB[2 * i], B=AB[2 * i + 1], bounds=b, seed=s, n=n)
        for i, (b, s) in enumerate(zip(bounds, seeds))
    ]


def build_from_spectrum(lam, frame_seed: int) -> np.ndarray:
    """Hermitian matrix with the given eigenvalues and a seeded Haar frame.

    Used by the tightness search, which steers eigenvalue placements
    explicitly instead of drawing them.
    """
    lam = np.sort(np.asarray(lam, dtype=float))
    return _compose(haar_unitary(lam.size, SplitMix64(frame_seed)), lam)
