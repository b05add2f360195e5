"""Positive unital linear maps: catalog, application, certification.

Catalog kinds: identity, trace_average, compression (V* . V with isometric
V), pinching (block-diagonal restriction), unitary_mixture (convex
combination of unitary conjugations), diagonal (entrywise diagonal
restriction, the finest pinching).  Compression maps n x n inputs to k x k;
all other kinds preserve the dimension.  Every kind sends PSD to PSD and
the identity to the identity of the output dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch, MalformedSpec, UnknownKind
from .linalg import as_matrix, eigh, identity, op_norm
from .sampler import SplitMix64, derive_seed, haar_stack, sample_constrained

MAP_KINDS = (
    "identity",
    "trace_average",
    "compression",
    "pinching",
    "unitary_mixture",
    "diagonal",
)

STRUCT_TOL = 1e-12   # isometry / unitarity / weight-sum certificate
RESIDUAL_TOL = 1e-9  # unitality / positivity / linearity residuals


@dataclass(frozen=True)
class MapSpec:
    kind: str
    n: int
    payload: Any = None  # per-kind; see module docstring

    def __post_init__(self):
        _structural_check(self)

    @property
    def out_dim(self) -> int:
        if self.kind == "compression":
            return self.payload.shape[1]
        return self.n

    def describe(self) -> str:
        if self.kind == "compression":
            return f"compression({self.n}->{self.out_dim})"
        if self.kind == "pinching":
            return f"pinching({'|'.join(str(len(b)) for b in self.payload)})"
        if self.kind == "unitary_mixture":
            return f"unitary_mixture(x{len(self.payload)})"
        return self.kind


def _unitary_residual(V: np.ndarray, k: int) -> float:
    """max |V* V - I_k|; an entry large enough to overflow gives inf, which
    fails the tolerance like NaN does."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(V.conj().T @ V - np.eye(k)))


def _structural_check(phi: MapSpec):
    """Certify a spec when it is constructed; the comparisons are written so
    that NaN fails them."""
    if phi.kind not in MAP_KINDS:
        raise UnknownKind(f"unknown map kind {phi.kind!r}")
    if phi.n < 1:
        raise MalformedSpec(f"map dimension must be >= 1, got {phi.n}")
    if phi.kind == "compression":
        V = phi.payload
        if not isinstance(V, np.ndarray) or V.ndim != 2 or V.shape[0] != phi.n:
            raise MalformedSpec("compression payload must be an n x k array")
        k = V.shape[1]
        if not 1 <= k <= phi.n:
            raise MalformedSpec(f"compression rank {k} outside [1, {phi.n}]")
        resid = _unitary_residual(V, k)
        if not resid <= STRUCT_TOL:
            raise MalformedSpec(f"compression columns not isometric: residual {resid:.3e}")
    elif phi.kind == "pinching":
        seen = sorted(i for b in phi.payload for i in b)
        if len(seen) != phi.n or seen != list(range(phi.n)):
            raise MalformedSpec("pinching blocks must partition the index set")
    elif phi.kind == "unitary_mixture":
        terms = phi.payload
        if not terms:
            raise MalformedSpec("unitary_mixture needs at least one term")
        total = 0.0
        for w, U in terms:
            if not w > 0.0:
                raise MalformedSpec(f"mixture weight {w} is not positive")
            total += w
            U = np.asarray(U)
            if U.shape != (phi.n, phi.n):
                raise MalformedSpec("mixture unitary has the wrong shape")
            resid = _unitary_residual(U, phi.n)
            if not resid <= STRUCT_TOL:
                raise MalformedSpec(f"mixture factor not unitary: residual {resid:.3e}")
        if not abs(total - 1.0) <= STRUCT_TOL:
            raise MalformedSpec(f"mixture weights sum to {total!r}, not 1")


def apply_map(phi: MapSpec, A) -> np.ndarray:
    """Apply the map; linear, PSD-preserving, unital by construction."""
    M = as_matrix(A)
    if M.shape[0] != phi.n:
        raise DimensionMismatch(
            f"map expects dimension {phi.n}, matrix has {M.shape[0]}"
        )
    if phi.kind == "identity":
        return M.copy()
    if phi.kind == "trace_average":
        return (np.trace(M) / phi.n) * identity(phi.n)
    if phi.kind == "compression":
        V = phi.payload
        return V.conj().T @ M @ V
    if phi.kind == "pinching":
        out = np.zeros_like(M)
        for block in phi.payload:
            idx = np.asarray(block)
            out[np.ix_(idx, idx)] = M[np.ix_(idx, idx)]
        return out
    if phi.kind == "unitary_mixture":
        out = np.zeros_like(M)
        for w, U in phi.payload:
            out += w * (U @ M @ U.conj().T)
        return out
    if phi.kind == "diagonal":
        return np.diag(np.diag(M)).astype(np.complex128)
    raise UnknownKind(f"unknown map kind {phi.kind!r}")


def apply_maps(phis, X) -> np.ndarray:
    """Each matrix of the stack X under its own map, re-stacked; the maps
    must share one output dimension.  A single matrix takes the one map."""
    if X.ndim == 2:
        (phi,) = phis
        return apply_map(phi, X)
    return np.stack([apply_map(phi, M) for phi, M in zip(phis, X)])


@dataclass(frozen=True)
class MapValidation:
    unitality_residual: float
    worst_positivity_gap: float
    linearity_residual: float
    passed: bool


def validate_map(phi: MapSpec, trials: int = 20, seed: int = 0) -> MapValidation:
    """Certify unitality, positivity on random PSD inputs, and linearity."""
    if trials < 1:
        raise MalformedSpec(f"need trials >= 1, got {trials}")
    k = phi.out_dim
    unital = op_norm(apply_map(phi, identity(phi.n)) - identity(k))
    rng = SplitMix64(derive_seed(seed, "validate", phi.kind))
    worst_pos = np.inf
    lin = 0.0
    for t in range(trials):
        P = sample_constrained(phi.n, 0.5, 2.0, rng.next_u64())
        w, _ = eigh(apply_map(phi, P))
        worst_pos = min(worst_pos, float(w[0]))
        X = sample_constrained(phi.n, 0.5, 2.0, rng.next_u64())
        Y = sample_constrained(phi.n, 0.5, 2.0, rng.next_u64())
        c = rng.uniform(-2.0, 2.0)
        resid = op_norm(
            apply_map(phi, X + c * Y) - apply_map(phi, X) - c * apply_map(phi, Y)
        )
        lin = max(lin, resid)
    pos_residual = max(0.0, -worst_pos)
    passed = max(unital, pos_residual, lin) <= RESIDUAL_TOL
    return MapValidation(unital, float(worst_pos), lin, passed)


def random_map(n: int, kind: str, seed: int) -> MapSpec:
    """Deterministic map spec for (n, kind, seed); passes validate_map."""
    return random_maps(n, (kind,), (seed,))[0]


def random_maps(n: int, kinds, seeds) -> list[MapSpec]:
    """random_map(n, kinds[i], seeds[i]) for each i, with every Haar frame
    of every map drawn as one stack (sampler.haar_stack).

    Each map's stream derive_seed(seed, "map", kind, n) gives, in order, the
    compression rank (n >= 2) or the mixture's count and raw weights, or the
    pinching's cut bits; its frames follow, 2n^2 outputs each.
    """
    for kind in kinds:
        if kind not in MAP_KINDS:
            raise UnknownKind(f"unknown map kind {kind!r}")
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    plans = []    # (kind, payload so far, frame indices into the stack)
    states = []   # SplitMix64 state at the start of each frame
    for kind, seed in zip(kinds, seeds):
        rng = SplitMix64(derive_seed(seed, "map", kind, n))
        if kind in ("identity", "trace_average", "diagonal"):
            plans.append((kind, None, ()))
        elif kind == "compression":
            k = rng.randint(1, n - 1) if n >= 2 else 1
            plans.append((kind, k, (len(states),)))
            states.append(rng.state)
        elif kind == "pinching":
            blocks: list[tuple[int, ...]] = []
            current = [0]
            for i in range(1, n):
                if rng.next_u64() & 1:
                    blocks.append(tuple(current))
                    current = [i]
                else:
                    current.append(i)
            blocks.append(tuple(current))
            plans.append((kind, tuple(blocks), ()))
        else:  # unitary_mixture
            count = rng.randint(2, 3)
            raw = [rng.uniform(0.2, 1.0) for _ in range(count)]
            total = sum(raw)
            weights = [w / total for w in raw]
            # nudge the last weight so the sum is exactly 1 in floating point
            weights[-1] = 1.0 - sum(weights[:-1])
            plans.append((kind, weights, tuple(range(len(states), len(states) + count))))
            for _ in range(count):
                states.append(rng.state)
                rng.skip(2 * n * n)
    Q = haar_stack(n, states) if states else None
    specs = []
    for kind, payload, frames in plans:
        if kind == "compression":
            payload = Q[frames[0]][:, :payload].copy()
        elif kind == "unitary_mixture":
            payload = tuple((w, Q[f]) for w, f in zip(payload, frames))
        specs.append(MapSpec(kind, n, payload))
    return specs
