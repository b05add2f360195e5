"""Positive unital linear maps: structure, certification, invariants."""

import numpy as np
import pytest

from opineq.errors import DimensionMismatch, MalformedSpec, UnknownKind
from opineq.linalg import loewner_gap, matrix_power, op_norm
from opineq.maps import (
    MAP_KINDS,
    MapSpec,
    apply_map,
    map_plan,
    random_map,
    random_maps,
    validate_map,
)
from opineq.means import geometric_mean
from opineq.sampler import SplitMix64, derive_seed, haar_unitary, sample_constrained

from . import oracles


def test_trace_average_example():
    phi = MapSpec("trace_average", 4)
    out = apply_map(phi, np.diag([1.0, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(np.real(out), 2.5 * np.eye(4), atol=1e-14)


def test_identity_and_diagonal():
    A = sample_constrained(3, 1.0, 2.0, seed=1)
    np.testing.assert_allclose(apply_map(MapSpec("identity", 3), A), A, atol=1e-15)
    D = apply_map(MapSpec("diagonal", 3), A)
    np.testing.assert_allclose(np.diag(np.diag(A)), D, atol=1e-15)


def test_compression_reduces_dimension():
    phi = random_map(4, "compression", seed=9)
    assert phi.out_dim < 4
    A = sample_constrained(4, 1.0, 3.0, seed=10)
    out = apply_map(phi, A)
    assert out.shape == (phi.out_dim, phi.out_dim)
    # unital: V* I V = I_k
    np.testing.assert_allclose(
        apply_map(phi, np.eye(4)), np.eye(phi.out_dim), atol=1e-12
    )


def test_pinching_zeroes_off_blocks():
    phi = MapSpec("pinching", 3, ((0, 1), (2,)))
    A = np.arange(9, dtype=float).reshape(3, 3)
    A = (A + A.T) / 2
    out = np.real(apply_map(phi, A))
    assert out[0, 2] == 0.0 and out[2, 0] == 0.0
    np.testing.assert_allclose(out[:2, :2], A[:2, :2], atol=1e-15)


def test_all_kinds_pass_certification():
    for n in (2, 3, 5):
        for kind in MAP_KINDS:
            phi = random_map(n, kind, seed=1000 + n)
            report = validate_map(phi, trials=10, seed=3)
            assert report.passed, (kind, n, report)
            assert report.unitality_residual <= 1e-9
            assert report.worst_positivity_gap >= -1e-9
            assert report.linearity_residual <= 1e-9


def test_validate_map_takes_integer_counts():
    phi = MapSpec("identity", 2)
    for kwargs in ({"trials": 2.5}, {"trials": "3"}, {"trials": True}, {"trials": 0},
                   {"seed": 1.5}, {"seed": "0"}, {"seed": False}):
        with pytest.raises(MalformedSpec):
            validate_map(phi, **kwargs)
    assert validate_map(phi, trials=1, seed=2**64 + 1).passed


def test_random_map_deterministic():
    a = random_map(4, "unitary_mixture", seed=77)
    b = random_map(4, "unitary_mixture", seed=77)
    assert len(a.payload) == len(b.payload)
    for (wa, Ua), (wb, Ub) in zip(a.payload, b.payload):
        assert wa == wb
        np.testing.assert_array_equal(Ua, Ub)
    c = random_map(4, "unitary_mixture", seed=78)
    assert any(
        not np.array_equal(Ua, Uc) for (_, Ua), (_, Uc) in zip(a.payload, c.payload)
    )


def test_mixture_weights_sum_exactly():
    phi = random_map(3, "unitary_mixture", seed=5)
    assert sum(w for w, _ in phi.payload) == 1.0


def test_malformed_specs_rejected():
    with pytest.raises(UnknownKind):
        apply_map(MapSpec("nonsense", 2), np.eye(2))
    bad_isometry = np.ones((3, 2))
    with pytest.raises(MalformedSpec):
        apply_map(MapSpec("compression", 3, bad_isometry), np.eye(3))
    with pytest.raises(MalformedSpec):
        apply_map(MapSpec("pinching", 3, ((0,), (0, 2))), np.eye(3))  # overlap
    U = np.eye(2)
    with pytest.raises(MalformedSpec):
        apply_map(MapSpec("unitary_mixture", 2, ((0.4, U), (0.4, U))), np.eye(2))
    with pytest.raises(DimensionMismatch):
        apply_map(MapSpec("identity", 2), np.eye(3))


def test_choi_inequality_invariant():
    """Phi(A)^{-1} <= Phi(A^{-1}) for every catalog map."""
    for kind in MAP_KINDS:
        phi = random_map(3, kind, seed=201)
        A = sample_constrained(3, 0.5, 4.0, seed=202)
        lhs = matrix_power(apply_map(phi, A), -1.0)
        rhs = apply_map(phi, matrix_power(A, -1.0))
        assert loewner_gap(lhs, rhs) >= -1e-9 * (1.0 + op_norm(rhs)), kind


def test_ando_inequality_invariant():
    """Phi(A #_nu B) <= Phi(A) #_nu Phi(B) for every catalog map."""
    for kind in MAP_KINDS:
        phi = random_map(3, kind, seed=301)
        A = sample_constrained(3, 1.0, 2.0, seed=302)
        B = sample_constrained(3, 0.5, 5.0, seed=303)
        for nu in (0.25, 0.5, 0.9):
            lhs = apply_map(phi, geometric_mean(A, B, nu))
            rhs = geometric_mean(apply_map(phi, A), apply_map(phi, B), nu)
            assert loewner_gap(lhs, rhs) >= -1e-9 * (1.0 + op_norm(rhs)), (kind, nu)


def test_unitality_exact_on_identity():
    for kind in MAP_KINDS:
        phi = random_map(5, kind, seed=401)
        out = apply_map(phi, np.eye(5))
        k = phi.out_dim
        assert op_norm(out - np.eye(k)) <= 1e-12


def _map_drawn_alone(n, kind, seed):
    """The map of (n, kind, seed) drawn one number at a time: the scalars,
    then each frame by haar_unitary, from one SplitMix64 stream."""
    rng = SplitMix64(derive_seed(seed, "map", kind, n))
    if kind == "compression":
        k = rng.randint(1, n - 1) if n >= 2 else 1
        return MapSpec(kind, n, haar_unitary(n, rng)[:, :k].copy())
    if kind == "unitary_mixture":
        raw = [rng.uniform(0.2, 1.0) for _ in range(rng.randint(2, 3))]
        weights = [w / sum(raw) for w in raw]
        weights[-1] = 1.0 - sum(weights[:-1])
        return MapSpec(kind, n, tuple((w, haar_unitary(n, rng)) for w in weights))
    return random_map(n, kind, seed)


@pytest.mark.parametrize("kind", ["compression", "unitary_mixture"])
@pytest.mark.parametrize("corrupt", [lambda Q: Q * (1.0 + 1e-9), lambda Q: Q * np.nan,
                                     lambda Q: Q * 1e300])
def test_random_maps_certify_each_drawn_frame(monkeypatch, kind, corrupt):
    """random_maps certifies its frames in one batch per kind and rank; a
    frame that is not isometric, NaN or overflowing fails it, wherever it
    sits in the batch, as MapSpec's own certificate would."""
    from opineq import maps

    n = 3
    kinds = ["identity", kind, "pinching", kind, kind]
    seeds = [derive_seed(5, "corrupt", t) for t in range(len(kinds))]
    honest = maps.haar_stack

    for victim in range(2):
        def corrupted_stack(n, states):
            Q = honest(n, states).copy()
            Q[victim] = corrupt(Q[victim])
            return Q

        monkeypatch.setattr(maps, "haar_stack", corrupted_stack)
        with pytest.raises(MalformedSpec):
            random_maps(n, kinds, seeds)
    monkeypatch.undo()
    random_maps(n, kinds, seeds)
    # a spec built from the corrupted payload fails MapSpec's own check
    good = random_map(n, kind, seeds[1])
    payload = (corrupt(good.payload) if kind == "compression"
               else tuple((w, corrupt(U)) for w, U in good.payload))
    with pytest.raises(MalformedSpec):
        MapSpec(kind, n, payload)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_random_maps_stack_is_each_single_draw(n):
    """A block's maps drawn as one stack are, trial by trial and for every
    kind, the bits of random_map and of the map drawn one number at a time."""
    kinds = [MAP_KINDS[t % len(MAP_KINDS)] for t in range(3 * len(MAP_KINDS))]
    seeds = [derive_seed(11, "block", n, t) for t in range(len(kinds))]
    for kind, seed, got in zip(kinds, seeds, random_maps(n, kinds, seeds)):
        for ref in (random_map(n, kind, seed), _map_drawn_alone(n, kind, seed)):
            assert (got.kind, got.n, got.describe()) == (ref.kind, ref.n, ref.describe())
            if kind == "compression":
                np.testing.assert_array_equal(got.payload, ref.payload)
            elif kind == "unitary_mixture":
                for (wg, Ug), (wr, Ur) in zip(got.payload, ref.payload):
                    assert wg == wr
                    np.testing.assert_array_equal(Ug, Ur)
            else:
                assert got.payload == ref.payload


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_block_diagonal_maps_match_index_copy_oracle(n):
    """Identity, diagonal and every pinching random_map draws keep M's bits,
    negative zeros included, and put +0 elsewhere, as index copies do."""
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M.real[::2, 1::2] = -0.0
    M.imag[1::2, ::2] = -0.0
    M.imag[0, 0] = -0.0
    cases = [(MapSpec("identity", n), M.copy()), (MapSpec("diagonal", n), oracles.diagonal_part(M))]
    blocks = {random_map(n, "pinching", seed).payload for seed in range(64)}
    if n <= 5:  # every split into contiguous blocks is drawn
        assert len(blocks) == 2 ** (n - 1)
    cases += [(MapSpec("pinching", n, b), oracles.pinch(M, b)) for b in sorted(blocks)]
    for phi, ref in cases:
        got = apply_map(phi, M)
        assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
        assert got.tobytes() == ref.tobytes(), phi.describe()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_apply_maps_is_apply_map_slice_by_slice(n):
    """A stack under mixed maps of every kind, applied by one map_plan, has,
    slice by slice, the bits apply_map gives each matrix alone and the bits
    of the one-matrix oracle (tests/oracles.py), negative zeros included;
    stacks are split by output dimension, as the verifier splits them, and
    mix unitary mixtures of two and three terms."""
    kinds = [MAP_KINDS[t % len(MAP_KINDS)] for t in range(8 * len(MAP_KINDS))]
    phis = random_maps(n, kinds, [derive_seed(3, "apply", n, t) for t in range(len(kinds))])
    rng = np.random.default_rng(n)
    X = rng.standard_normal((len(phis), n, n)) + 1j * rng.standard_normal((len(phis), n, n))
    X.real[:, ::2, 1::2] = -0.0
    X.imag[:, 1::2, ::2] = -0.0
    by_dim: dict = {}
    for i, phi in enumerate(phis):
        by_dim.setdefault(phi.out_dim, []).append(i)
    seen = set()
    for k, rows in by_dim.items():
        got = map_plan([phis[i] for i in rows], n)(X[rows])
        assert (got.dtype, got.shape) == (np.complex128, (len(rows), k, k))
        for i, G in zip(rows, got):
            ref = apply_map(phis[i], X[i])
            assert G.tobytes() == ref.tobytes(), phis[i].describe()
            want = oracles.map_image(phis[i].kind, phis[i].payload, X[i])
            assert (want.dtype, want.shape) == (G.dtype, G.shape)
            assert G.tobytes() == want.tobytes(), phis[i].describe()
            seen.add(phis[i].kind)
    assert seen == set(MAP_KINDS)
    assert {len(phi.payload) for phi in phis if phi.kind == "unitary_mixture"} == {2, 3}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_apply_map_maps_each_matrix_of_a_stack(n):
    """apply_map on a (T, n, n) stack gives (T, k, k), each slice with the
    bits of the one-matrix call, for every kind; an empty stack gives an
    empty result."""
    rng = np.random.default_rng(100 + n)
    X = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
    X.real[:, ::2, 1::2] = -0.0
    for kind in MAP_KINDS:
        phi = random_map(n, kind, seed=5)
        k = phi.out_dim
        got = apply_map(phi, X)
        assert (got.dtype, got.shape) == (np.complex128, (7, k, k)), kind
        for M, G in zip(X, got):
            assert G.tobytes() == apply_map(phi, M).tobytes(), phi.describe()
        assert apply_map(phi, X[:0]).shape == (0, k, k)


def test_map_plan_checks_the_dimension():
    with pytest.raises(DimensionMismatch):
        map_plan([MapSpec("identity", 3)] * 2, 2)


def test_map_plan_takes_one_output_dimension():
    assert map_plan([], 3)(np.zeros((0, 3, 3))).shape == (0, 3, 3)
    V = random_map(3, "compression", 5)
    assert V.out_dim < 3
    for phis in ([V, MapSpec("identity", 3)], [MapSpec("identity", 3), V]):
        with pytest.raises(DimensionMismatch, match="output dimensions"):
            map_plan(phis, 3)


@pytest.mark.parametrize("phis", [
    [MapSpec("identity", 2), MapSpec("trace_average", 2)],
    [MapSpec("identity", 2), MapSpec("diagonal", 2)],
    [MapSpec("identity", 2)] * 4,
])
def test_map_plan_needs_one_matrix_per_map(phis):
    """A stack whose map axis does not hold one matrix per map is refused,
    for plans of mixed kinds and of one kind alike, never mapped from
    uninitialised rows or numpy's broadcast error."""
    X = np.stack([np.eye(2, dtype=np.complex128)] * 3)
    plan = map_plan(phis, 2)
    with pytest.raises(DimensionMismatch, match="one matrix per map"):
        plan(X)
    with pytest.raises(DimensionMismatch, match="one matrix per map"):
        plan(np.stack([X, X]))
    assert plan(np.stack([np.eye(2)] * len(phis))).shape == (len(phis), 2, 2)
