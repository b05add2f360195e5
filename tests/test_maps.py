"""Positive unital linear maps: structure, certification, invariants."""

import numpy as np
import pytest

from opineq.errors import DimensionMismatch, MalformedSpec, UnknownKind
from opineq.linalg import loewner_gap, matrix_power, op_norm
from opineq.maps import (
    MAP_KINDS,
    MapSpec,
    apply_map,
    random_map,
    random_maps,
    validate_map,
)
from opineq.means import geometric_mean
from opineq.sampler import SplitMix64, derive_seed, haar_unitary, sample_constrained


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
