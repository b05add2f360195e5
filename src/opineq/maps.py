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
from functools import cached_property
from typing import Any

import numpy as np

from .errors import DimensionMismatch, MalformedSpec, UnknownKind
from .linalg import as_matrix, eigh, identity, op_norm
from .sampler import SplitMix64, derive_seed, derive_seeds, haar_stack, sample_constrained

MAP_KINDS = (
    "identity",
    "trace_average",
    "compression",
    "pinching",
    "unitary_mixture",
    "diagonal",
)

_MASKED = ("identity", "pinching", "diagonal")  # the block-diagonal kinds: masked copies

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

    @cached_property
    def _kept(self) -> np.ndarray:
        """Mask of the entries whose row and column share a block: one block
        for identity, the payload's for pinching, n of one for diagonal."""
        block = np.zeros(self.n, dtype=int) if self.kind == "identity" else np.arange(self.n)
        if self.kind == "pinching":
            for b, idx in enumerate(self.payload):
                block[list(idx)] = b
        return block[:, None] == block


def _certify_frames(kind: str, V: np.ndarray) -> None:
    """The isometry certificate of a stack of compression payloads or of
    mixture factors, all of one shape: max |V* V - I| of each matrix must
    be within STRUCT_TOL.  An entry large enough to overflow gives inf,
    which fails like NaN does."""
    with np.errstate(over="ignore", invalid="ignore"):
        resid = np.max(abs(V.conj().swapaxes(-1, -2) @ V - np.eye(V.shape[-1])), axis=(-2, -1))
    bad = ~(resid <= STRUCT_TOL)
    if bad.any():
        what = "compression columns not isometric" if kind == "compression" else "mixture factor not unitary"
        raise MalformedSpec(f"{what}: residual {resid[bad][0]:.3e}")


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
        _certify_frames(phi.kind, V[None])
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
            _certify_frames(phi.kind, U[None])
        if not abs(total - 1.0) <= STRUCT_TOL:
            raise MalformedSpec(f"mixture weights sum to {total!r}, not 1")


def apply_map(phi: MapSpec, A) -> np.ndarray:
    """Apply the map; linear, PSD-preserving, unital by construction.  The
    matrix is a stack of one for apply_maps."""
    return apply_maps([phi], as_matrix(A)[None])[0]


def apply_maps(phis, X) -> np.ndarray:
    """Each matrix of the (T, n, n) stack X under its own map, re-stacked:
    one map per matrix, all sharing one output dimension (see map_plan)."""
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim != 3 or len(phis) != len(X):
        raise DimensionMismatch(f"need one map per matrix, got {len(phis)} for shape {X.shape}")
    return map_plan(phis, X.shape[-1])(X)


def map_plan(phis, n: int):
    """apply_maps for the maps phis of dimension n, grouped once: the
    returned function maps a (T, n, n) stack, matrix i under phis[i], or S
    such stacks at once as (S, T, n, n).

    The block-diagonal kinds run as one masked copy over their stacked
    masks (each spec's mask is made once), the trace averages as one
    batched trace, and the compressions as one batched V* M V product.
    Unitary mixtures run term by term: for each term index j, one batched
    U M U* product over the maps that have a j-th term, added in term order
    onto zeros, so each result has the bits of summing its own terms one at
    a time."""
    for phi in phis:
        if phi.n != n:
            raise DimensionMismatch(f"map expects dimension {phi.n}, matrix has {n}")
    dims = {phi.out_dim for phi in phis} or {n}
    if len(dims) > 1:
        raise DimensionMismatch(f"maps with output dimensions {sorted(dims)} cannot share a stack")
    k = dims.pop()
    rows: dict = {}
    for i, phi in enumerate(phis):
        rows.setdefault("masked" if phi.kind in _MASKED else phi.kind, []).append(i)
    steps = [(_row_index(idx, len(phis)), _kind_step(kind, [phis[i] for i in idx], k))
             for kind, idx in rows.items()]
    if len(steps) == 1:  # one kind's step maps every matrix
        return steps[0][1]

    def apply(X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[:-2] + (k, k), dtype=np.complex128)
        for idx, step in steps:
            out[..., idx, :, :] = step(X[..., idx, :, :])
        return out

    return apply


def _kind_step(kind: str, group: list, k: int):
    """The function that maps a stack under the maps of one kind's group."""
    if kind == "masked":
        mask = np.stack([phi._kept for phi in group])
        return lambda X: np.where(mask, X, 0)
    if kind == "trace_average":
        return lambda X: (np.trace(X, axis1=-2, axis2=-1) / k)[..., None, None] * identity(k)
    if kind == "compression":
        V = np.stack([phi.payload for phi in group])
        Vh = V.conj().swapaxes(-1, -2)
        return lambda X: Vh @ X @ V
    # unitary_mixture: sum_j w_j U_j M U_j*, its terms differing in number
    # from map to map
    payloads = [phi.payload for phi in group]
    terms = []
    for j in range(max(len(t) for t in payloads)):
        has = [i for i, t in enumerate(payloads) if len(t) > j]
        U = np.stack([payloads[i][j][1] for i in has])
        w = np.array([payloads[i][j][0] for i in has])[:, None, None]
        terms.append((_row_index(has, len(payloads)), w, U, U.conj().swapaxes(-1, -2)))

    def mixture(X: np.ndarray) -> np.ndarray:
        out = np.zeros_like(X)
        for has, w, U, Uh in terms:
            out[..., has, :, :] += w * (U @ X[..., has, :, :] @ Uh)
        return out

    return mixture


def _row_index(idx: list, count: int):
    """The index of the rows idx of a stack of count: a slice when it
    takes them all, so that reading and writing them copies nothing."""
    return slice(None) if len(idx) == count else idx


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
    pinching's cut bits; its frames follow, 2n^2 outputs each.  The frames
    are certified as MapSpec certifies them, one stack per kind and rank,
    so the specs are made without certifying each again.
    """
    for kind in kinds:
        if kind not in MAP_KINDS:
            raise UnknownKind(f"unknown map kind {kind!r}")
    if n < 1:
        raise DimensionMismatch(f"need n >= 1, got {n}")
    plans = []    # (kind, payload so far, frame indices into the stack)
    states = []   # SplitMix64 state at the start of each frame
    batches: dict = {}  # (kind, columns the payload keeps) -> frame indices, one certificate each
    streams = derive_seeds(seeds, [f"map/{kind}/{n}" for kind in kinds]).tolist()
    for kind, stream in zip(kinds, streams):
        rng = SplitMix64(stream)
        if kind in ("identity", "trace_average", "diagonal"):
            plans.append((kind, None, ()))
        elif kind == "compression":
            k = rng.randint(1, n - 1) if n >= 2 else 1
            plans.append((kind, k, (len(states),)))
            batches.setdefault((kind, k), []).append(len(states))
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
            frames = range(len(states), len(states) + count)
            plans.append((kind, weights, frames))
            batches.setdefault((kind, n), []).extend(frames)
            for _ in range(count):
                states.append(rng.state)
                rng.skip(2 * n * n)
    Q = haar_stack(n, states) if states else None
    for (kind, k), idx in batches.items():
        _certify_frames(kind, Q[idx, :, :k])
    specs = []
    for kind, payload, frames in plans:
        if kind == "compression":
            payload = Q[frames[0]][:, :payload].copy()
        elif kind == "unitary_mixture":
            payload = tuple((w, Q[f]) for w, f in zip(payload, frames))
        specs.append(_certified(kind, n, payload) if frames else MapSpec(kind, n, payload))
    return specs


def _certified(kind: str, n: int, payload) -> MapSpec:
    """A MapSpec whose frames random_maps has certified: made without
    __init__, so that __post_init__ does not certify it a second time."""
    spec = object.__new__(MapSpec)
    spec.__dict__.update(kind=kind, n=n, payload=payload)
    return spec
