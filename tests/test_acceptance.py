"""End-to-end acceptance gate.

Eight criteria.  Criterion 1 is split in two.  The sound asserted entries
must show zero failures.  The strengthened reverse-Ando refinement (registry
id thm3.4) must show its refutation: the inequality as stated is
numerically false (its constant drops below the true ratio on scalar
instances passing every hypothesis), and the registry asserts statements as
printed rather than silently repairing them.  test_criterion1_refuted_entry
checks that the entry stays asserted, that the selftest reports its
violations, that they are bounded by what the unstrengthened constant
allows, and that the worst one replays exactly from the report alone.  See
the README for the counterexample.
"""

import math
import time

import numpy as np
import pytest

from opineq.constants import (
    CaseParams,
    SandwichBounds,
    generalized_kantorovich,
    kantorovich,
    weights,
)
from opineq.io import obj_to_instance, obj_to_map
from opineq.linalg import eigh, hermitize, matrix_power
from opineq.maps import MAP_KINDS, random_map
from opineq.sampler import SplitMix64, derive_seed, sample_instance
from opineq.suite import SuiteConfig, run_suite
from opineq.verifier import (
    REGISTRY,
    InequalityCase,
    check_case,
    compare_constants,
    registry_ids,
    scalar_lemma_gap,
)

from .oracles import secant_ratio_min

REFUTED = "thm3.4"


@pytest.fixture(scope="module")
def selftest_runs():
    """The two full acceptance runs: identical config, different parallelism."""
    t0 = time.perf_counter()
    serial = run_suite(SuiteConfig(seed=42, workers=1))
    t1 = time.perf_counter()
    parallel = run_suite(SuiteConfig(seed=42, workers=4))
    t2 = time.perf_counter()
    return {
        "serial": serial,
        "parallel": parallel,
        "serial_seconds": t1 - t0,
        "parallel_seconds": t2 - t1,
    }


def test_criterion1_full_registry_soundness(selftest_runs):
    """Every asserted inequality except the refuted one: zero failures over
    n in {2, 3, 5} x 100 trials, at relative_gap >= -1e-9, within budget."""
    report = selftest_runs["serial"]
    assert len(report.cases) == 44 * 3 * 100
    by_id = {s["id"]: s for s in report.summary}
    asserted = [i for i in registry_ids() if REGISTRY[i].asserted and i != REFUTED]
    bad = {i: by_id[i]["failures"] for i in asserted if by_id[i]["failures"]}
    assert not bad, f"asserted inequalities failed: {bad}"
    for i in asserted:
        worst = by_id[i]["worst_relative_gap"]
        assert worst >= -1e-9, (i, worst)
    budget = min(selftest_runs["serial_seconds"], selftest_runs["parallel_seconds"])
    assert budget <= 300.0, f"selftest took {budget:.0f}s"


def test_criterion1_refuted_entry(selftest_runs):
    """The strengthened reverse-Ando refinement, asserted as stated, is
    reported as refuted.

    Random sampling under the statement's own hypotheses finds instances
    where the claimed constant exceeds the true ratio (the K(h)^{-r}
    strengthening of an already-sharp bound).  The entry stays asserted so
    the suite reports the refutation instead of hiding it: its failures are
    the only asserted failures, and so the only reason the selftest exits 1.

    Each violation is bounded by the strengthening itself.  The baseline
    `seo` holds, so LHS <= K(h)^r * RHS and the relative gap cannot drop
    below -(K(h)^r - 1), with h = m2^2 / M1^2.  At nu in {0, 1} the factor is
    1 and the entry coincides with `seo`, so no violation may sit there.
    """
    report = selftest_runs["serial"]
    assert REGISTRY[REFUTED].asserted
    by_id = {s["id"]: s for s in report.summary}
    summary = by_id[REFUTED]
    assert summary["failures"] > 0, f"{REFUTED} was not refuted: {summary}"
    assert summary["worst_relative_gap"] < -1e-3, summary
    assert report.asserted_failures == summary["failures"]

    rows = [row for row in report.cases if row["id"] == REFUTED]
    for row in rows:
        nu = row["params"]["nu"]
        b = row["params"]["bounds"]
        r, _ = weights(nu)
        slack = kantorovich(b["m2"] ** 2 / b["M1"] ** 2) ** r - 1.0
        assert row["relative_gap"] >= -slack - 1e-9, (row["seed"], nu, slack)
        if not row["holds"]:
            assert nu not in (0.0, 1.0), row["seed"]
            assert "replay" in row, row["seed"]

    worst = min(rows, key=lambda row: row["relative_gap"])
    assert worst["relative_gap"] == summary["worst_relative_gap"]
    prm = worst["params"]
    case = InequalityCase(
        ineq_id=REFUTED,
        instance=obj_to_instance(worst["replay"]["instance"]),
        phi=obj_to_map(worst["replay"]["map"]),
        params=CaseParams(nu=prm["nu"], p=prm["p"], alpha=prm["alpha"]),
    )
    assert check_case(case).relative_gap == worst["relative_gap"]


def test_criterion2_scalar_lemma_oracle():
    """Scalar refinement slack on a 200 x 11 log-grid, with exact zeros."""
    t0 = time.perf_counter()
    xs = np.logspace(-2.0, 2.0, 200)
    nus = [i / 10.0 for i in range(11)]
    for x in xs:
        for nu in nus:
            assert scalar_lemma_gap(float(x), nu) >= -1e-12, (x, nu)
        for nu in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs(scalar_lemma_gap(float(x), nu)) <= 1e-12, (x, nu)
        # hand derivation at nu = 1/4: both sides reduce to (3 + x)/4
        r, r1 = weights(0.25)
        rhs = 2.0 * r * ((1.0 + x) / 2.0 - math.sqrt(x)) + kantorovich(
            math.sqrt(x)
        ) ** r1 * x ** 0.25
        assert rhs == pytest.approx((3.0 + x) / 4.0, rel=1e-13)
    assert time.perf_counter() - t0 < 1.0


def test_criterion3_generalized_kantorovich_oracle():
    """Closed form vs golden-section secant minimum on 500 random triples."""
    t0 = time.perf_counter()
    assert generalized_kantorovich(1.0, 4.0, 0.5).K == pytest.approx(
        2.0 * math.sqrt(2.0) / 3.0, abs=1e-12
    )
    rng = SplitMix64(2024)
    for _ in range(500):
        m = rng.log_uniform(0.05, 5.0)
        M = m * rng.log_uniform(1.02, 50.0)
        nu = rng.uniform(0.01, 0.99)
        closed = generalized_kantorovich(m, M, nu).K
        assert closed == pytest.approx(secant_ratio_min(m, M, nu), abs=1e-10)
    assert time.perf_counter() - t0 < 5.0


def _random_sandwich(rng):
    m = rng.log_uniform(0.2, 2.0)
    h = rng.uniform(1.5, 20.0)
    M = m * h
    hp = 1.0 + rng.uniform(0.02, 0.98) * (h - 1.0)
    mp = m * (h / hp) ** rng.next_float()
    return SandwichBounds.sandwich_B_low(m, mp, mp * hp, M)


def test_criterion4_refinement_ratios():
    """Each refinement's constant never exceeds its baseline's, with
    equality exactly at the degenerate weights."""
    rng = SplitMix64(7)
    for _ in range(100):
        b = _random_sandwich(rng)
        prm = CaseParams(nu=rng.next_float(), p=rng.uniform(2.0, 6.0))
        assert compare_constants("thm2.7", "thm1.1", b, prm) <= 1.0 + 1e-12
    for _ in range(100):
        b = _random_sandwich(rng)
        prm = CaseParams(nu=rng.next_float(), p=rng.uniform(4.0, 7.0))
        assert compare_constants("thm2.9", "zhang", b, prm) <= 1.0 + 1e-12
    for _ in range(100):
        m1 = rng.log_uniform(0.5, 1.5)
        M1 = m1 * rng.log_uniform(1.0, 2.5)
        m2 = M1 * rng.log_uniform(1.05, 2.2)
        b = SandwichBounds.reverse_ando(m1, M1, m2, m2 * rng.log_uniform(1.0, 2.5))
        prm = CaseParams(nu=rng.next_float())
        assert compare_constants("thm3.4", "seo", b, prm) <= 1.0 + 1e-12

    # equality holds exactly when the strengthening exponent vanishes
    b = SandwichBounds.sandwich_B_low(1.0, 1.4, 2.1, 4.0)
    for nu_eq in (0.0, 0.5, 1.0):  # r1 = 0
        prm = CaseParams(nu=nu_eq, p=2.0)
        assert compare_constants("thm2.7", "thm1.1", b, prm) == pytest.approx(1.0, abs=1e-14)
    assert compare_constants("thm2.7", "thm1.1", b, CaseParams(nu=0.25, p=2.0)) < 1.0 - 1e-6
    for nu_eq in (0.0, 1.0):  # r = 0
        assert compare_constants("thm2.9", "zhang", b, CaseParams(nu=nu_eq, p=4.0)) == 1.0
    assert compare_constants("thm2.9", "zhang", b, CaseParams(nu=0.5, p=4.0)) < 1.0 - 1e-6
    rb = SandwichBounds.reverse_ando(1.0, 1.1, 1.5, 2.0)
    for nu_eq in (0.0, 1.0):
        assert compare_constants("thm3.4", "seo", rb, CaseParams(nu=nu_eq)) == 1.0
    assert compare_constants("thm3.4", "seo", rb, CaseParams(nu=0.5)) < 1.0 - 1e-6

    # the candidate improvements of ROADMAP item 7(b): (refinement, baseline,
    # bounds kind, p range, the weights where the strengthening exponent
    # vanishes)
    candidates = (
        ("thm2.4", "lin-squared", "sandwich_B_low", (2.0, 2.0), (0.0, 0.5, 1.0)),  # r1 = 0
        ("cor2.6", "lin-power", "sandwich_B_low", (0.05, 2.0), (0.0, 0.5, 1.0)),  # r1 = 0
        ("zhang-refined", "zhang", "sandwich_A_low", (4.0, 7.0), (0.0, 1.0)),  # r = 0
        ("thm1.3", "thm1.1", "sandwich_A_low", (2.0, 6.0), (0.0, 1.0)),  # r = 0
        ("thm3.3-hprime", "thm3.3", "sandwich_B_low", (1.0, 1.0), (0.0, 1.0)),  # r = 0
    )
    for better, base, kind, (p_lo, p_hi), nus_eq in candidates:
        for _ in range(100):
            s = _random_sandwich(rng)
            b = SandwichBounds(kind, m=s.m, mp=s.mp, Mp=s.Mp, M=s.M)
            prm = CaseParams(nu=rng.next_float(), p=rng.uniform(p_lo, p_hi))
            assert compare_constants(better, base, b, prm) <= 1.0 + 1e-12, (better, b, prm)
        b = SandwichBounds(kind, m=1.0, mp=1.4, Mp=2.1, M=4.0)
        for p in (p_lo, p_hi):
            for nu_eq in nus_eq:
                assert compare_constants(better, base, b, CaseParams(nu=nu_eq, p=p)) == 1.0
            assert compare_constants(better, base, b, CaseParams(nu=0.25, p=p)) < 1.0 - 1e-6


def test_criterion5_norm_refinement():
    """||Phi(A nabla_nu B)^p|| <= ||Phi(bracket)^p|| + 1e-9 when r > 0."""
    rng = SplitMix64(99)
    kinds = ("common", "sandwich_B_low", "sandwich_A_low")
    checked = 0
    for i in range(500):
        kind = kinds[i % 3]
        if kind == "common":
            m = rng.log_uniform(0.3, 3.0)
            bounds = SandwichBounds.common(m, m * rng.uniform(1.5, 20.0))
        else:
            b = _random_sandwich(rng)
            bounds = b if kind == "sandwich_B_low" else SandwichBounds.sandwich_A_low(
                b.m, b.mp, b.Mp, b.M
            )
        n = 2 + (i % 2)
        inst = sample_instance(bounds, n, seed=derive_seed(4242, "c5", i))
        phi = random_map(n, MAP_KINDS[i % len(MAP_KINDS)], seed=i)
        params = CaseParams(nu=rng.uniform(0.05, 0.95), p=rng.uniform(1.0, 3.0))
        case = InequalityCase(ineq_id="norm-refinement", instance=inst,
                             phi=phi, params=params)
        v = check_case(case)
        assert v.lhs_norm <= v.rhs_norm + 1e-9, (i, v)
        checked += 1
    assert checked == 500


def test_criterion6_mutation_sensitivity():
    """Deflating the base reverse constant by 5% must be caught."""
    common = dict(
        ids=("lin",), dims=(2,), trials=6, seed=5,
        fixed_bounds=SandwichBounds.common(1.0, 1.5), force_endpoints=True,
    )
    mutated = run_suite(SuiteConfig(mutate={"lin": 0.95}, **common))
    failures = [row for row in mutated.cases if not row["holds"]]
    assert len(failures) >= 1
    assert any(row["params"]["map"] == "trace_average" for row in failures)
    control = run_suite(SuiteConfig(**common))
    assert all(row["holds"] for row in control.cases)


def test_criterion7_determinism(selftest_runs):
    """Byte-identical reports from repeated runs and across parallelism."""
    serial = selftest_runs["serial"]
    parallel = selftest_runs["parallel"]
    assert serial.config_hash == parallel.config_hash
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()
    # a fresh rerun of a sub-config is also byte-identical
    cfg = SuiteConfig(ids=("lin", "seo"), dims=(2, 3), trials=5, seed=42)
    assert run_suite(cfg).to_json() == run_suite(cfg).to_json()


def test_criterion8_linalg_accuracy():
    """Reconstruction within 1e-10 relative Frobenius on 1000 Hermitian
    matrices up to n = 32, and the square-root round-trip within 1e-9."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(1000):
        n = (i % 32) + 1
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = hermitize((X + X.conj().T) / 2.0 * rng.uniform(0.1, 10.0))
        w, U = eigh(A)
        R = (U * w) @ U.conj().T
        denom = max(np.linalg.norm(A), 1e-30)
        err = np.linalg.norm(R - A) / denom
        worst = max(worst, err)
        assert err <= 1e-10, (i, n, err)
    for i in range(200):
        n = (i % 16) + 1
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = hermitize(X @ X.conj().T)
        S = matrix_power(H, 0.5)
        denom = max(np.linalg.norm(H), 1e-30)
        assert np.linalg.norm(S @ S - H) / denom <= 1e-9, (i, n)
