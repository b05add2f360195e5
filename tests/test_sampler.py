"""Seeded RNG, Haar frames, constrained-spectrum sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import sampler
from opineq.constants import SandwichBounds
from opineq.errors import BadBounds, DimensionMismatch, OpineqError
from opineq.linalg import eigh, hermitize
from opineq.sampler import (
    Instance,
    SplitMix64,
    derive_seed,
    fnv1a64,
    haar_unitary,
    mix64,
    sample_constrained,
    sample_instance,
    verify_instance,
)

from . import oracles


def test_splitmix_reference_vector():
    """First outputs for seed 0 match the published SplitMix64 stream."""
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_float_range():
    rng = SplitMix64(123)
    xs = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert 0.40 < sum(xs) / len(xs) < 0.60


def test_uniform_log_uniform_randint():
    rng = SplitMix64(5)
    for _ in range(200):
        assert 2.0 <= rng.uniform(2.0, 3.0) <= 3.0
        v = rng.log_uniform(0.1, 10.0)
        assert 0.1 <= v <= 10.0
        assert rng.randint(3, 5) in (3, 4, 5)
    with pytest.raises(ValueError):
        rng.randint(5, 3)


def test_derive_seed_label_sensitivity():
    assert derive_seed(42, "A") != derive_seed(42, "B")
    assert derive_seed(42, "A") == derive_seed(42, "A")
    assert derive_seed(42, "x", 1) != derive_seed(42, "x", 2)
    assert derive_seed(1, "x") != derive_seed(2, "x")
    # label joining is positional, not concatenative
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_mix64_fnv_basics():
    assert mix64(0) == 0
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") != fnv1a64("b")


def test_haar_unitary_is_unitary():
    for n in (1, 2, 5, 8):
        U = haar_unitary(n, SplitMix64(n))
        np.testing.assert_allclose(U @ U.conj().T, np.eye(n), atol=1e-12)


def _column(states) -> np.ndarray:
    return np.array(states, dtype=np.uint64)[:, None]


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 3])
def test_next_block_is_the_next_u64_stream(seed):
    """The row mixer at one state is bit-identical to repeated next_u64,
    across the 2^64 wrap too, and skip leaves the same final state."""
    for count in (0, 1, 5):
        scalar, skipped = SplitMix64(seed), SplitMix64(seed)
        out = sampler._mix_rows(_column([seed]), count)[0]
        assert out.dtype == np.uint64 and out.shape == (count,)
        assert [int(z) for z in out] == [scalar.next_u64() for _ in range(count)]
        skipped.skip(count)
        assert skipped.state == scalar.state


@pytest.mark.parametrize("pairs", [0, 1, 2, 7, 8, 33])
def test_gauss_matches_scalar_box_muller(pairs):
    """Box-Muller on each row of the mixer is within 1 ulp of the scalar
    loop on the same stream; zero pairs give empty rows."""
    seeds = (0, 3, 2**64 - 3)
    z = sampler._box_muller(sampler._mix_rows(_column(seeds), 2 * pairs))
    assert z.shape == (len(seeds), 2 * pairs)
    for row, seed in zip(z, seeds):
        np.testing.assert_array_max_ulp(row, np.array(oracles.gauss(SplitMix64(seed), 2 * pairs)), maxulp=1)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
def test_haar_unitary_matches_gram_schmidt_oracle(n):
    """QR plus phase fix gives the two-pass Gram-Schmidt unitary of the same
    seed, up to rounding, and consumes the same stream."""
    for seed in range(10):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        U = haar_unitary(n, rng)
        assert np.abs(U - oracles.haar_gram_schmidt(n, ref)).max() <= 1e-12
        assert rng.state == ref.state


def test_sample_constrained_eigenvalues_are_the_uniform_stream():
    """The eigenvalue block is bit-identical to n scalar uniform draws, and
    the frame is drawn from the generator state they leave."""
    for n, lo, hi, seed in ((1, 0.5, 2.0, 1), (3, 1.0, 3.0, 7), (16, 0.1, 9.0, 2**64 - 3)):
        A = sample_constrained(n, lo, hi, seed)
        rng = SplitMix64(seed)
        lam = np.sort([rng.uniform(lo, hi) for _ in range(n)])
        Q = haar_unitary(n, rng)
        np.testing.assert_array_equal(A, hermitize((Q * lam) @ Q.conj().T))


@pytest.mark.parametrize("count", [0, 1, 5, 34])
def test_row_mixer_is_next_block_per_state(count):
    """Row i of the mixer is repeated next_u64 of a generator at states[i],
    and the rows of a longer block continue from the state skip leaves."""
    states = [0, 42, 2**64 - 3, 2**63 + 1]
    rows = sampler._mix_rows(_column(states), 2 * count)
    assert rows.shape == (len(states), 2 * count)
    for row, state in zip(rows, states):
        rng, skipped = SplitMix64(state), SplitMix64(state)
        assert [int(z) for z in row] == [rng.next_u64() for _ in range(2 * count)]
        skipped.skip(count)
        assert skipped.state == (state + count * 0x9E3779B97F4A7C15) % 2**64
        np.testing.assert_array_equal(row[count:], sampler._mix_rows(_column([skipped.state]), count)[0])


@pytest.mark.parametrize("master", [-7, 0, 12345, 2**64 - 1, 2**64 + 3])
def test_seed_columns_are_derive_seed(master):
    """The suite's case seeds and their children, derived as uint64
    columns, are derive_seed's integers for every id, n and trial; trials
    run to three digits."""
    from opineq.verifier import registry_ids

    cases = [(ineq_id, t) for ineq_id in registry_ids() for t in range(121)]
    for n in (1, 2, 16):
        column = sampler.trial_seeds(master, [f"{i}/{n}/" for i, _ in cases], [t for _, t in cases])
        assert column.dtype == np.uint64
        seeds = [derive_seed(master, i, n, t) for i, t in cases]
        assert column.tolist() == seeds
    for label in ("bounds", "instance", "map", "A", "B"):
        assert sampler.derive_seeds(column, label).tolist() == [derive_seed(s, label) for s in seeds]
    labels = [f"map/{kind}/{n}" for kind in ("identity", "pinching", "compression")] * 3
    parents = [master, -1, 2**64 + 5, 0, 2**63, 7, 1, 2, 3]
    assert sampler.derive_seeds(parents, labels).tolist() == [
        derive_seed(p, label) for p, label in zip(parents, labels)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
@pytest.mark.parametrize("force_endpoints", [False, True])
def test_sample_stack_is_the_single_draws(n, force_endpoints):
    """Each slice of one mixed stack, degenerate rows included, equals the
    single draw of its own seed bit for bit."""
    lo = [1.0, 2.0, 0.5, 0.3, 1.5, 7.0, 1.0]
    hi = [3.0, 2.0, 4.0, 0.3, 9.0, 7.5, 1.0 + 2**-40]
    seeds = [0, 1, 2**64 - 3, 5, 2**64 - 3, 123456789, 2**63]
    stack = sampler.sample_stack(n, lo, hi, seeds, force_endpoints)
    assert stack.shape == (len(seeds), n, n)
    for X, a, b, seed in zip(stack, lo, hi, seeds):
        np.testing.assert_array_equal(X, sample_constrained(n, a, b, seed, force_endpoints))
        if a == b:
            np.testing.assert_array_equal(X, a * np.eye(n))
    assert sampler.sample_stack(n, [], [], [], force_endpoints).shape == (0, n, n)
    assert sampler.haar_stack(n, []).shape == (0, n, n)
    assert sampler.build_from_spectra(np.zeros((0, n)), []).shape == (0, n, n)


def test_sample_constrained_containment():
    A = sample_constrained(5, 1.0, 3.0, seed=7)
    w, _ = eigh(A)
    assert w[0] >= 1.0 - 1e-10 and w[-1] <= 3.0 + 1e-10
    np.testing.assert_allclose(A, A.conj().T, atol=1e-13)


def test_sample_constrained_force_endpoints():
    A = sample_constrained(3, 2.0, 5.0, seed=42, force_endpoints=True)
    w, _ = eigh(A)
    assert abs(w[0] - 2.0) <= 1e-10
    assert abs(w[-1] - 5.0) <= 1e-10


def test_sample_constrained_degenerate_interval():
    A = sample_constrained(4, 2.0, 2.0, seed=9)
    np.testing.assert_array_equal(np.real(A), 2.0 * np.eye(4))


def test_sample_constrained_deterministic():
    A = sample_constrained(4, 1.0, 2.0, seed=33)
    B = sample_constrained(4, 1.0, 2.0, seed=33)
    np.testing.assert_array_equal(A, B)
    C = sample_constrained(4, 1.0, 2.0, seed=34)
    assert not np.array_equal(A, C)
    # seeds are taken mod 2^64, as SplitMix64 takes them
    np.testing.assert_array_equal(sample_constrained(4, 1.0, 2.0, seed=-1),
                                  sample_constrained(4, 1.0, 2.0, seed=2**64 - 1))
    np.testing.assert_array_equal(sample_constrained(4, 1.0, 2.0, seed=2**64 + 33), A)


def test_sample_constrained_errors():
    with pytest.raises(BadBounds):
        sample_constrained(0, 1.0, 2.0, seed=1)
    with pytest.raises(BadBounds):
        sample_constrained(2, -1.0, 2.0, seed=1)
    with pytest.raises(BadBounds):
        sample_constrained(2, 3.0, 2.0, seed=1)


def test_sample_instance_sandwich():
    b = SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0)
    inst = sample_instance(b, 3, seed=11)
    wa, _ = eigh(inst.A)
    wb, _ = eigh(inst.B)
    assert wa[0] >= 2.0 - 1e-10 and wa[-1] <= 4.0 + 1e-10
    assert wb[0] >= 1.0 - 1e-10 and wb[-1] <= 1.5 + 1e-10
    assert verify_instance(inst) <= 1e-10


def test_sample_instance_reverse_ando():
    b = SandwichBounds.reverse_ando(1.0, 1.2, 2.0, 2.5)
    inst = sample_instance(b, 2, seed=12)
    wa, _ = eigh(inst.A)
    wb, _ = eigh(inst.B)
    assert wa[0] >= 1.0 - 1e-10 and wa[-1] <= 1.44 + 1e-10
    assert wb[0] >= 4.0 - 1e-10 and wb[-1] <= 6.25 + 1e-10


def test_verify_instance_rejects_escaped_spectrum():
    b = SandwichBounds.common(1.0, 2.0)
    bad = Instance(A=3.0 * np.eye(2), B=np.eye(2), bounds=b, seed=0, n=2)
    with pytest.raises(OpineqError):
        verify_instance(bad)


_I2 = np.eye(2)


@pytest.mark.parametrize(
    "A, B, n",
    [
        (np.array([2.0, 0.0]), 2.0 * _I2, 2),
        (2.0 * _I2[None], 2.0 * _I2, 2),
        (2.0 * _I2, 2.0 * _I2, 3),
        (2.0 * _I2, 2.0 * np.eye(3), 2),
    ],
    ids=["1-D-A", "stack-of-one-A", "n-disagrees-with-matrices", "A-and-B-differ-in-size"],
)
def test_instance_requires_an_n_by_n_pair(A, B, n):
    with pytest.raises(DimensionMismatch):
        Instance(A=A, B=B, bounds=SandwichBounds.common(1.0, 3.0), seed=0, n=n)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=1.0, max_value=20.0),
)
def test_sample_constrained_property(n, seed, lo, ratio):
    hi = lo * ratio
    A = sample_constrained(n, lo, hi, seed=seed)
    w, _ = eigh(A)
    assert w[0] >= lo - 1e-9 * (1 + hi)
    assert w[-1] <= hi + 1e-9 * (1 + hi)
