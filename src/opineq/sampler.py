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

Every draw is made on a stack, one stream per row; a single draw is a
stack of one (haar_unitary of haar_stack, sample_constrained of
sample_stack, sample_instance of stack_instances), so it has the bits of
its slice of any stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SandwichBounds
from .errors import BadBounds, DimensionMismatch, OpineqError
from .linalg import compose, eigh

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_FNV_OFFSET, _FNV_PRIME = 0xCBF29CE484222325, 0x100000001B3
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
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def derive_seed(parent: int, *labels) -> int:
    """Child seed for a named substream: mix64(parent XOR fnv1a64(label)),
    the label being the labels joined by "/"."""
    return mix64((parent & _MASK) ^ fnv1a64("/".join(str(x) for x in labels)))


def derive_seeds(parents, label) -> np.ndarray:
    """derive_seed(parent, label) for each parent, as a uint64 array.
    `label` is one string for every parent or a list of one per parent;
    each distinct label is hashed once, and mix64 runs over the array."""
    if isinstance(label, str):
        h = np.uint64(fnv1a64(label))
    else:
        hashes = {text: fnv1a64(text) for text in set(label)}
        h = np.array([hashes[text] for text in label], dtype=np.uint64)
    return _mix(_u64(parents) ^ h)


def trial_seeds(parent: int, prefixes, trials) -> np.ndarray:
    """derive_seed(parent, prefixes[i] + str(trials[i])) for each i, as a
    uint64 array, for trials >= 0: each distinct prefix is hashed once, and
    the hashes are continued over the trials' decimal digits all at once,
    the most significant first."""
    hashes = {text: fnv1a64(text) for text in set(prefixes)}
    h = np.array([hashes[text] for text in prefixes], dtype=np.uint64)
    t = np.array(trials, dtype=np.uint64)
    digits = np.maximum(t, 1)  # 0 is written with one digit too
    for power in reversed([10 ** k for k in range(len(str(max(trials, default=0))))]):
        h = np.where(digits >= power, (h ^ (t // power % 10 + ord("0"))) * _FNV_PRIME, h)
    return _mix(h ^ np.uint64(parent & _MASK))


def _u64(values) -> np.ndarray:
    """Integers mod 2^64 as a uint64 array; a uint64 array is itself."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        return values
    return np.array([int(v) & _MASK for v in values], dtype=np.uint64)


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        # mix64 of the new state, inlined: this is the search's most frequent call
        z = self.state = (self.state + _GOLDEN) & _MASK
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

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


class DrawnFloats:
    """Floats drawn ahead from a SplitMix64 stream (see float_rows), read
    as the stream would give them: next_float returns them in order, and
    uniform and log_uniform are SplitMix64's own, on these floats."""

    uniform = SplitMix64.uniform
    log_uniform = SplitMix64.log_uniform

    def __init__(self, floats):
        self.next_float = iter(floats).__next__


def float_rows(states, count: int) -> list:
    """The first `count` next_float() values of a SplitMix64 at each state,
    one list per state, all from one finalizer pass."""
    return ((_mix_rows(_u64(states)[:, None], count) >> 11) * _UNIT).tolist()


def _mix_rows(states, count: int) -> np.ndarray:
    """`count` next_u64 outputs of a SplitMix64 at each state, along the last
    axis: the mix64 finalizer of state + k*GOLDEN, k = 1..count (uint64
    arrays wrap mod 2^64).  `states` is a uint64 column."""
    return _mix(np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN + states)


def _mix(z: np.ndarray) -> np.ndarray:
    """mix64 of each entry of a uint64 array, in place."""
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


def haar_unitary(n: int, rng: SplitMix64) -> np.ndarray:
    """Haar-distributed unitary from the next 2n^2 normals of `rng`: a stack
    of one."""
    Q = haar_stack(n, [rng.state])[0]
    rng.skip(2 * n * n)
    return Q


def haar_stack(n: int, states) -> np.ndarray:
    """Haar unitaries, one per SplitMix64 state, each from the next 2n^2
    normals of its stream; all frames share one finalizer pass and one
    batched QR."""
    z = _mix_rows(np.array(states, dtype=np.uint64)[:, None], 2 * n * n)
    return _haar(_box_muller(z), n)


def sample_stack(n: int, lo, hi, seeds, force_endpoints: bool = False) -> np.ndarray:
    """Stack of sample_constrained(n, lo[i], hi[i], seeds[i], force_endpoints),
    each slice bit-identical to its single draw.  Each live row takes n
    eigenvalues, then 2n^2 frame normals, from its own stream; all rows share
    one finalizer pass, one batched QR and one batched product."""
    if n < 1:
        raise BadBounds(f"need n >= 1, got {n}")
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bad = ~((0.0 < lo) & (lo <= hi))
    if bad.any():
        raise BadBounds(f"need 0 < lo <= hi, got lo={lo[bad][0]}, hi={hi[bad][0]}")
    out = lo[:, None, None] * np.eye(n, dtype=np.complex128)
    live = lo < hi
    if live.any():
        lo, hi = lo[live, None], hi[live, None]
        z = _mix_rows(_u64(seeds)[live, None], n + 2 * n * n)
        lam = np.sort(lo + (hi - lo) * ((z[:, :n] >> 11) * _UNIT))
        if force_endpoints and n >= 2:
            lam[:, 0], lam[:, -1] = lo[:, 0], hi[:, 0]
        out[live] = compose(_haar(_box_muller(z[:, n:]), n), lam)
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

    def __post_init__(self):
        if not np.shape(self.A) == np.shape(self.B) == (self.n, self.n):
            raise DimensionMismatch(
                f"instance n = {self.n}, but A is {np.shape(self.A)} and B {np.shape(self.B)}"
            )


def verify_instance(inst: Instance, slack: float = CONTAINMENT_SLACK) -> float:
    """Worst containment violation of the instance spectra (0 if inside).

    Raises if the violation exceeds `slack`; the verifier refuses to check
    unverified instances.
    """
    w, _ = eigh(np.stack([inst.A, inst.B]))
    return float(verify_instances([inst], w[:1], w[1:], slack)[0])


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
    labelled = np.stack([derive_seeds(seeds, "A"), derive_seeds(seeds, "B")], axis=-1).ravel()
    AB = sample_stack(n, iv[:, 0], iv[:, 1], labelled, force_endpoints)
    return [
        Instance(A=AB[2 * i], B=AB[2 * i + 1], bounds=b, seed=s, n=n)
        for i, (b, s) in enumerate(zip(bounds, seeds))
    ]


def build_from_spectra(lams, frame_seeds) -> np.ndarray:
    """Stack of Hermitian matrices, row i with the eigenvalues lams[i] and
    the Haar frame haar_unitary(n, SplitMix64(frame_seeds[i])).  Each slice
    has the bits of its single build; all frames are one haar_stack.

    Used by the tightness search, which steers eigenvalue placements
    explicitly instead of drawing them.
    """
    lam = np.sort(np.asarray(lams, dtype=float), axis=-1)
    return compose(haar_stack(lam.shape[-1], [SplitMix64(s).state for s in frame_seeds]), lam)
