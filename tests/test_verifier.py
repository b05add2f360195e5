"""Registry structure, per-case checking, scalar oracles, comparisons."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.constants import CaseParams, SandwichBounds, kantorovich
from opineq.errors import (
    ConfigInvalid,
    DegenerateInterval,
    HypothesisNotMet,
    IncompatibleEntries,
    NonHermitianInput,
    NonPositiveArgument,
    UnknownInequality,
    WeightOutOfRange,
)
from opineq.maps import MapSpec, random_map
from opineq.sampler import Instance, sample_instance
from opineq import verifier
from opineq.verifier import (
    REGISTRY,
    InequalityCase,
    check_block,
    check_case,
    compare_constants,
    get_entry,
    registry_ids,
    scalar_F_check,
    scalar_lemma_gap,
)

from . import oracles

I2 = np.eye(2)


def make_case(ineq_id, A, B, bounds, phi=None, **params):
    n = A.shape[0]
    inst = Instance(A=A.astype(np.complex128), B=B.astype(np.complex128),
                    bounds=bounds, seed=0, n=n)
    return InequalityCase(ineq_id=ineq_id, instance=inst, phi=phi,
                         params=CaseParams(**params))


def test_registry_inventory():
    ids = registry_ids()
    assert len(ids) == 44
    assert len(set(ids)) == 44
    # spot-check the id families
    for expected in (
        "amgm", "lin", "lin-squared-phi-inside", "lin-power-phi-outside",
        "lh", "lh-p2-demo", "thm1.1-phi-inside", "thm1.2-phi-outside",
        "thm1.3-phi-inside", "choi", "lemma2.2-i", "lemma2.2-ii",
        "lemma2.2-iii", "lemma2.3", "thm2.4-phi-inside", "cor2.6-phi-outside",
        "thm2.7-phi-inside", "norm-refinement", "zhang-phi-inside",
        "zhang-refined-phi-outside", "thm2.9-phi-inside",
        "thm2.9-proof-phi-inside", "thm2.10-phi-outside", "eq217", "ando",
        "lee", "lee-printed", "seo", "thm3.3", "thm3.3-hprime", "thm3.4",
    ):
        assert expected in ids, expected
    informational = {i for i in ids if not REGISTRY[i].asserted}
    assert informational == {
        "lh-p2-demo", "lee-printed", "thm3.3",
        "thm2.9-proof-phi-inside", "thm2.9-proof-phi-outside",
    }
    with pytest.raises(UnknownInequality):
        get_entry("nosuch")


def test_amgm_worked_example():
    case = make_case("amgm", 4.0 * I2, I2, SandwichBounds.common(1.0, 4.0), nu=0.5)
    v = check_case(case)
    assert v.gap == pytest.approx(0.5, abs=1e-12)
    assert v.relative_gap == pytest.approx(0.5 / 3.5, abs=1e-12)
    assert v.holds


def test_thm24_worked_example():
    # scalar pair A = 4I, B = I inside sandwich (1, 1.5, 2, 4); nu = 1/2
    # collapses the inner correction (r1 = 0): LHS = 9, RHS = K(4)^2 * 4
    case = make_case(
        "thm2.4-phi-inside", 4.0 * I2, I2,
        SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0),
        phi=MapSpec("identity", 2), nu=0.5, p=2.0,
    )
    v = check_case(case)
    assert v.lhs_norm == pytest.approx(9.0, abs=1e-10)
    assert v.rhs_norm == pytest.approx(9.765625, abs=1e-10)
    assert v.gap == pytest.approx(0.765625, abs=1e-10)


def test_lin_worked_example():
    # A = 4I, B = I: LHS = (A+B)/2 = 2.5 I, RHS = K(4) sqrt(4) I = 3.125 I
    case = make_case("lin", 4.0 * I2, I2, SandwichBounds.common(1.0, 4.0),
                     phi=MapSpec("identity", 2))
    v = check_case(case)
    assert v.lhs_norm == pytest.approx(2.5, abs=1e-12)
    assert v.rhs_norm == pytest.approx(3.125, abs=1e-12)
    assert v.gap == pytest.approx(0.625, abs=1e-12)


def test_lemma22_iii_tight_constant():
    A = sample_instance(SandwichBounds.common(1.0, 2.0), 3, seed=1).A
    B = sample_instance(SandwichBounds.common(0.5, 3.0), 3, seed=2).B
    case = InequalityCase(
        ineq_id="lemma2.2-iii",
        instance=Instance(A=A, B=B, bounds=SandwichBounds.common(0.5, 3.0), seed=0, n=3),
        phi=None,
        params=CaseParams(),
    )
    v = check_case(case)
    # t = ||A^{1/2} B^{-1/2}||^2 is exactly the least admissible multiplier
    assert abs(v.gap) <= 1e-8
    assert v.holds


def test_gates_reject_wrong_hypotheses():
    common = SandwichBounds.common(1.0, 4.0)
    sandwich = SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0)
    with pytest.raises(HypothesisNotMet):
        check_case(make_case("thm2.4-phi-inside", 4.0 * I2, I2, common,
                             phi=MapSpec("identity", 2), p=2.0))
    with pytest.raises(HypothesisNotMet):
        check_case(make_case("lin", 4.0 * I2, I2, sandwich,
                             phi=MapSpec("identity", 2)))
    with pytest.raises(HypothesisNotMet):
        check_case(make_case("thm2.7-phi-inside", 4.0 * I2, I2, sandwich,
                             phi=MapSpec("identity", 2), p=1.0))  # needs p >= 2
    with pytest.raises(HypothesisNotMet):
        check_case(make_case("lh", 4.0 * I2, I2, sandwich, p=2.0))  # lh stops at p = 1
    with pytest.raises(HypothesisNotMet):  # map dimension mismatch
        check_case(make_case("lin", 4.0 * I2, I2, common, phi=MapSpec("identity", 3)))
    with pytest.raises(HypothesisNotMet):  # thm3.4 needs separated square-bounds
        check_case(make_case("thm3.4", I2, 4.0 * I2,
                             SandwichBounds.reverse_ando(1.0, 2.0, 1.5, 3.0),
                             phi=MapSpec("identity", 2)))


def test_lin_family_rejects_powers_it_does_not_state():
    """lin is stated at p = 1 and lin-squared at p = 2; their constants ignore
    p, so any other power would check a statement the paper never makes."""
    common = SandwichBounds.common(1.0, 4.0)
    A = np.diag([1.0, 4.0])
    B = np.diag([4.0, 1.0])
    trace = MapSpec("trace_average", 2)
    with pytest.raises(HypothesisNotMet, match="p = 1"):
        check_case(make_case("lin", A, B, common, phi=trace, p=3.0))
    with pytest.raises(HypothesisNotMet, match="p = 2"):
        check_case(make_case("lin-squared-phi-inside", A, B, common, phi=trace, p=3.0))
    assert check_case(make_case("lin", A, B, common, phi=trace, p=1.0)).holds
    assert check_case(make_case("lin-squared-phi-inside", A, B, common, phi=trace, p=2.0)).holds
    with pytest.raises(IncompatibleEntries):
        compare_constants("lin-squared", "lin", common, CaseParams(p=3.0))


def test_non_finite_entry_is_an_error_not_a_failure():
    A = np.array([[2.0, np.nan], [np.nan, 3.0]])
    case = make_case("amgm", A, I2, SandwichBounds.common(1.0, 4.0), nu=0.5)
    with pytest.raises(NonHermitianInput):
        check_case(case)


def test_mutation_hook_flips_verdict():
    case = make_case("amgm", 4.0 * I2, I2, SandwichBounds.common(1.0, 4.0), nu=0.5)
    assert check_case(case).holds
    v = check_case(replace(case, scale=0.5))  # RHS 2.5 < LHS 2
    assert not v.holds
    assert v.gap < 0
    # the scale multiplies the row's constant, which thm3.3 places on the left:
    # K^{1/2}(3/2) sqrt(6) ~ 2.4999 against 2.5
    mean_case = make_case("thm3.3-hprime", 3.0 * I2, 2.0 * I2,
                          SandwichBounds.sandwich_B_low(1.0, 2.0, 3.0, 4.0), nu=0.5)
    assert check_case(mean_case).holds
    assert check_case(replace(mean_case, scale=0.5)).holds
    v = check_case(replace(mean_case, scale=2.0))
    assert not v.holds
    assert v.gap < 0


@pytest.mark.parametrize("ineq_id", ["lin", "choi", "ando"])
def test_map_entry_without_a_map_is_a_hypothesis_error(ineq_id):
    """A map-using entry given no map (as a replay payload with "map": null
    builds) is refused by name, not crashed on."""
    case = make_case(ineq_id, 2.0 * I2, I2, SandwichBounds.common(1.0, 4.0), phi=None)
    with pytest.raises(HypothesisNotMet, match=f"{ineq_id} needs a positive linear map"):
        check_case(case)


def test_refuted_reverse_refinement_counterexample():
    """The K(h)^{-r}-strengthened reverse fails on scalar matrices.

    A = I, B = 4I with square-bounds (1, 1.01) and (2, 2.02): both sides
    of the claimed bound are 2*Phi-images, the true ratio is 1, but the
    claimed constant is ~0.80 < 1.
    """
    case = make_case(
        "thm3.4", I2, 4.0 * I2,
        SandwichBounds.reverse_ando(1.0, 1.01, 2.0, 2.02),
        phi=MapSpec("identity", 2), nu=0.5,
    )
    v = check_case(case)
    assert not v.holds
    assert v.relative_gap < -1e-3
    assert v.confirmed is True
    # the unstrengthened reverse holds on the identical instance
    seo = check_case(make_case(
        "seo", I2, 4.0 * I2,
        SandwichBounds.reverse_ando(1.0, 1.01, 2.0, 2.02),
        phi=MapSpec("identity", 2), nu=0.5,
    ))
    assert seo.holds


def test_failing_verdict_is_confirmed_only_past_rounding():
    """`confirmed` is None on a pass, False on a failure inside the rounding
    allowance, True on a genuine one, for Loewner and norm entries alike."""
    case = make_case("amgm", I2, I2, SandwichBounds.common(1.0, 4.0), nu=0.5)
    assert check_case(case).confirmed is None
    noise = check_case(replace(case, scale=1.0 - 1e-15), tol=0.0)
    assert not noise.holds
    assert noise.confirmed is False
    assert check_case(replace(case, scale=0.5), tol=0.0).confirmed is True
    norm_case = make_case("lemma2.2-i", I2, I2, SandwichBounds.common(1.0, 4.0))
    assert check_case(replace(norm_case, scale=1.0 - 1e-15), tol=0.0).confirmed is False
    assert check_case(replace(norm_case, scale=0.5)).confirmed is True


def test_admit_resolves_what_a_row_reads():
    """A weight the entry fixes reads 1/2 and an alpha it does not read
    reads 1, in the verdict and its echo alike; entries that read alpha
    (and a free weight) get the values they were given."""
    common = SandwichBounds.common(1.0, 4.0)
    inst = sample_instance(common, 2, 3)
    phi = MapSpec("identity", 2)
    given = check_case(InequalityCase("lin", inst, phi, CaseParams(nu=0.3, alpha=1.7)))
    resolved = check_case(InequalityCase("lin", inst, phi, CaseParams(nu=0.5, alpha=1.0)))
    assert given.gap.hex() == resolved.gap.hex()
    assert given.relative_gap.hex() == resolved.relative_gap.hex()
    assert given.params["nu"] == 0.5 and given.params["alpha"] == 1.0
    assert given == resolved
    sandwich = SandwichBounds.sandwich_B_low(1.0, 1.5, 3.0, 4.0)
    for ineq_id, bounds, p, echo_nu in (("thm2.10-phi-inside", sandwich, 4.0, 0.3),
                                        ("lemma2.2-ii", common, 1.0, 0.5)):
        case = InequalityCase(ineq_id, sample_instance(bounds, 2, 5), phi,
                              CaseParams(nu=0.3, p=p, alpha=1.7))
        v = check_case(case)
        assert (v.params["alpha"], v.params["nu"]) == (1.7, echo_nu), ineq_id
        assert v.gap != check_case(replace(case, params=CaseParams(nu=0.3, p=p))).gap, ineq_id


def test_printed_outer_ratio_variant_fails_where_inner_holds():
    """K^r(h) in the mean comparison over-claims; K^r(h') is the sound form."""
    A = 3.0 * I2
    B = 2.0 * I2
    bounds = SandwichBounds.sandwich_B_low(1.0, 2.0, 3.0, 4.0)
    bad = check_case(make_case("thm3.3", A, B, bounds, nu=0.5))
    good = check_case(make_case("thm3.3-hprime", A, B, bounds, nu=0.5))
    assert not bad.holds
    assert good.holds


def test_scalar_lemma_gap_values():
    # hand value at x = 4, nu = 3/8
    expected = 1.75 - (9.0 / 8.0) ** 0.25 * 4.0 ** 0.375
    assert scalar_lemma_gap(4.0, 0.375) == pytest.approx(expected, abs=1e-14)
    # exact equality at the five special weights
    for x in (0.04, 0.7, 1.0, 9.0, 55.0):
        for nu in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(scalar_lemma_gap(x, nu)) <= 1e-12, (x, nu)
    with pytest.raises(NonPositiveArgument):
        scalar_lemma_gap(0.0, 0.5)
    with pytest.raises(WeightOutOfRange):
        scalar_lemma_gap(1.0, 1.5)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=0.0, max_value=1.0))
def test_scalar_lemma_gap_nonnegative(x, nu):
    assert scalar_lemma_gap(x, nu) >= -1e-11 * (1.0 + x)


def test_scalar_F_check_example():
    rep = scalar_F_check(1.0, 4.0, 0.5, 1001)
    assert rep.passed
    assert rep.max_value == pytest.approx(1.5, abs=1e-12)
    assert rep.mu0 == pytest.approx(1.5, abs=1e-14)
    assert rep.endpoint_residual_lo <= 1e-12
    assert rep.endpoint_residual_hi <= 1e-12


def test_scalar_F_check_random_intervals():
    for m, M, nu in ((0.5, 2.0, 0.3), (1.0, 10.0, 0.7), (2.0, 3.0, 0.5)):
        assert scalar_F_check(m, M, nu, 997).passed


def test_scalar_F_check_errors():
    with pytest.raises(DegenerateInterval):
        scalar_F_check(2.0, 2.0, 0.5, 100)
    with pytest.raises(WeightOutOfRange):
        scalar_F_check(1.0, 4.0, 0.0, 100)
    with pytest.raises(NonPositiveArgument):
        scalar_F_check(-1.0, 4.0, 0.5, 100)
    with pytest.raises(ConfigInvalid):
        scalar_F_check(1.0, 4.0, 0.5, 2)


def test_compare_constants_examples():
    # the strengthened reverse against the plain one at h = 4: K(4)^{-1/2}
    ratio = compare_constants("thm3.4", "seo", SandwichBounds.common(1.0, 4.0),
                              CaseParams(nu=0.5))
    assert ratio == pytest.approx(0.8, abs=1e-13)
    # bracket p >= 2 family against the 4^{2/p-1}-free baseline, h' = 2
    ratio = compare_constants(
        "thm2.7", "thm1.1",
        SandwichBounds.sandwich_B_low(1.0, 1.0, 2.0, 4.0),
        CaseParams(nu=0.25, p=2.0),
    )
    assert ratio == pytest.approx(0.970563, abs=5e-7)
    assert ratio == pytest.approx(1.0 / kantorovich(math.sqrt(2.0)), rel=1e-12)


def test_compare_constants_suffix_and_errors():
    b = SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0)
    full = compare_constants("thm2.7-phi-inside", "thm1.1-phi-outside", b,
                             CaseParams(nu=0.25, p=2.0))
    bare = compare_constants("thm2.7", "thm1.1", b, CaseParams(nu=0.25, p=2.0))
    assert full == bare
    with pytest.raises(UnknownInequality):
        compare_constants("thm2.7", "nosuch", b, CaseParams(p=2.0))
    with pytest.raises(IncompatibleEntries):
        compare_constants("lee", "thm2.7", b, CaseParams())


def test_norm_form_entries_report_scalars():
    A = sample_instance(SandwichBounds.common(1.0, 2.0), 3, seed=3).A
    B = sample_instance(SandwichBounds.common(1.0, 2.0), 3, seed=4).B
    inst = Instance(A=A, B=B, bounds=SandwichBounds.common(1.0, 2.0), seed=0, n=3)
    for ineq_id, params in (
        ("lemma2.2-i", {}),
        ("lemma2.2-ii", {"alpha": 1.5}),
        ("norm-refinement", {"nu": 0.3, "p": 1.0}),
    ):
        phi = random_map(3, "pinching", seed=6) if ineq_id == "norm-refinement" else None
        case = InequalityCase(ineq_id=ineq_id, instance=inst, phi=phi,
                             params=CaseParams(**params))
        v = check_case(case)
        assert v.holds, ineq_id
        assert v.gap == pytest.approx(v.rhs_norm - v.lhs_norm, abs=1e-12)


def test_every_entry_checks_one_sampled_case():
    """Each registry entry accepts a case built the way the suite builds them."""
    from opineq.suite import SuiteConfig, _draw_chunk

    cfg = SuiteConfig(trials=1, seed=123)
    for ineq_id in registry_ids():
        (case,) = _draw_chunk(cfg, 3, [(ineq_id, 0)])
        v = check_case(case)
        assert np.isfinite(v.gap), ineq_id
        assert np.isfinite(v.relative_gap), ineq_id


def _mixed_group(n):
    """Cases of every registry id at dimension n, as the suite builds them,
    over weights that include the nu in {0, 1} shortcut."""
    from opineq.suite import SuiteConfig, _draw_chunk

    cfg = SuiteConfig(trials=18, seed=77, nu_grid=(0.0, 0.3, 1.0, 0.5, 0.75))
    return [case for ineq_id in registry_ids()
            for case in _draw_chunk(cfg, n, [(ineq_id, t) for t in range(cfg.trials)])]


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_check_block_is_check_case_row_by_row(n):
    """One check_block over every id gives, case by case, the bits of
    check_case: stacks mix ids, compression widths, weights (nu in {0, 1}
    included) and powers (p in {0.5, 2}, and the -1 power of the bracket)."""
    cases = _mixed_group(n)
    widths = {c.phi.out_dim for c in cases if c.phi is not None and c.phi.kind == "compression"}
    assert n < 3 or len(widths) >= 2
    assert {c.params.nu for c in cases} >= {0.0, 1.0}
    assert {c.params.p for c in cases} >= {0.5, 2.0}
    assert any(get_entry(c.ineq_id).sides is verifier._reverse_bracket
               and 0.0 < c.params.nu < 1.0 for c in cases)
    cases = [replace(case, scale=1.0 + 0.01 * (i % 3)) for i, case in enumerate(cases)]
    stacked = check_block(cases)
    for case, got in zip(cases, stacked):
        alone = check_case(case)
        assert got.gap.hex() == alone.gap.hex(), case.ineq_id
        assert got.relative_gap.hex() == alone.relative_gap.hex(), case.ineq_id
        assert (got.holds, got.confirmed) == (alone.holds, alone.confirmed), case.ineq_id
        assert got == alone


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("ineq_id", ["amgm", "choi", "ando", "thm1.1-phi-outside"])
def test_check_case_gap_matches_an_independent_oracle(ineq_id, n):
    """check_case's gap is lambda_min(c rhs - lhs) of the same case computed
    one matrix at a time by tests/oracles.py, which shares no code with
    opineq."""
    m, M = 0.5, 3.0
    bounds = SandwichBounds.common(m, M)
    blocks = ((0,), tuple(range(1, n)))
    for seed, (nu, p) in enumerate([(0.3, 2.0), (0.5, 3.5), (0.8, 2.0), (1.0, 3.5)]):
        inst = sample_instance(bounds, n, seed)
        phi = MapSpec("identity", n) if ineq_id == "thm1.1-phi-outside" else MapSpec("pinching", n, blocks)
        case = InequalityCase(ineq_id, inst, None if ineq_id == "amgm" else phi,
                              CaseParams(nu=nu, p=p if ineq_id == "thm1.1-phi-outside" else 1.0))
        lhs, rhs = oracles.statement_sides(ineq_id, inst.A, inst.B, nu, p, blocks, m, M)
        want = oracles.loewner_gap(lhs, rhs)
        got = check_case(case).gap
        assert abs(got - want) <= 1e-9 * (1.0 + np.linalg.norm(rhs, 2)), (seed, got, want)


def test_check_block_stacks_real_and_complex_pairs_as_check_case(monkeypatch):
    """Real and complex pairs of one dimension share a stack, promoted to
    complex128 as check_case promotes them, with check_case's bits."""
    rng = np.random.default_rng(5)
    cases = []
    for i in range(8):
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        A, B = ((Q * rng.uniform(0.6, 2.9, 3)) @ Q.T for _ in range(2))
        A, B = (0.5 * (X + X.T) for X in (A, B))
        if i % 2:
            A, B = A.astype(np.complex128), B.astype(np.complex128)
        inst = Instance(A=A, B=B, bounds=SandwichBounds.common(0.5, 3.0), seed=i, n=3)
        cases.append(InequalityCase(("amgm", "lemma2.2-i")[i % 4 // 2], inst, None, CaseParams(nu=0.3)))
    sizes = []
    check_stack = verifier._check_stack

    def spy(rows, tol):
        sizes.append(len(rows))
        return check_stack(rows, tol)

    monkeypatch.setattr(verifier, "_check_stack", spy)
    stacked = check_block(cases)
    assert sizes == [4, 4]
    assert stacked == [check_case(case) for case in cases]


def test_check_block_sends_a_group_of_one_through_check_case(monkeypatch):
    """A group of exactly one case is checked by a check_case call, and a
    larger group by none.  perfbench's verifier.accept_ratio divides by the
    check_case calls a pass makes; without this call a traced pass whose
    groups all hold several cases divides by zero."""
    bounds = SandwichBounds.common(0.5, 3.0)
    lone = make_case("amgm", np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), bounds, nu=0.3)
    pair = [make_case("choi", np.diag([1.0, 2.0 + k]), I2, bounds, phi=MapSpec("identity", 2))
            for k in range(2)]
    seen = []
    real = verifier.check_case

    def spy(case, tol=verifier.DEFAULT_TOL):
        seen.append(case.ineq_id)
        return real(case, tol)

    monkeypatch.setattr(verifier, "check_case", spy)
    verdicts = check_block([pair[0], lone, pair[1]])
    assert seen == ["amgm"]
    assert verdicts[1] == real(lone)


def test_check_block_splits_groups_larger_than_a_stack(monkeypatch):
    """A group past the stack cap runs as several stacks with the same rows."""
    cases = _mixed_group(3)
    whole = check_block(cases)
    monkeypatch.setattr(verifier, "STACK_BYTES", 16 * 3 * 3 * 4)
    assert verifier.stack_rows(3) == 4
    assert check_block(cases) == whole


def test_reverse_power_stack_takes_four_lapack_calls(monkeypatch):
    """A stack of reverse AM-GM rows decomposes A and B (one stack), the
    mean's inner matrix, both blocks (raised to p as one stack) and D with
    both sides (one stack that also gives the norms): four LAPACK calls."""
    from opineq.suite import SuiteConfig, _draw_chunk

    chunk = [("thm1.1-phi-inside", t) for t in range(12)]
    cases = [case for case in _draw_chunk(SuiteConfig(trials=12, seed=3), 3, chunk) if case.phi.out_dim == 3]
    assert len(cases) >= 4 and {c.params.p for c in cases} == {2.0, 3.5}
    calls = []
    lapack = np.linalg.eigh

    def counting_eigh(M):
        calls.append(len(M))
        return lapack(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    stacked = check_block(cases)
    assert len(calls) == 4
    monkeypatch.undo()
    assert stacked == [check_case(case) for case in cases]
