"""Suite runner: determinism, parallel invariance, mutation, search."""

import json
import math
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from opineq import maps, sampler, suite, verifier
from opineq.cli import main
from opineq.constants import CaseParams, SandwichBounds
from opineq.errors import ConfigInvalid, HypothesisNotMet, OpineqError, UnknownInequality
from opineq.io import dumps_canonical, map_to_obj
from opineq.sampler import SplitMix64, derive_seed, sample_constrained, sample_instance
from opineq.suite import (
    Report,
    SuiteConfig,
    _draw_bounds,
    _draw_chunk,
    run_suite,
    tightness_search,
)
from opineq.verifier import get_entry


def small_config(**kw):
    defaults = dict(ids=("amgm", "lin", "thm2.4-phi-inside", "seo"),
                    dims=(2, 3), trials=4, seed=9)
    defaults.update(kw)
    return SuiteConfig(**defaults)


def test_empty_run():
    rep = run_suite(small_config(trials=0))
    assert rep.cases == ()
    assert all(s["trials"] == 0 and s["failures"] == 0 for s in rep.summary)
    assert all(s["worst_relative_gap"] is None for s in rep.summary)
    assert rep.asserted_failures == 0


def test_reruns_are_byte_identical():
    cfg = small_config()
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_workers_do_not_change_output():
    r1 = run_suite(small_config(workers=1))
    r3 = run_suite(small_config(workers=3))
    assert r1.config_hash == r3.config_hash
    assert r1.to_json() == r3.to_json()


def test_config_hash_tracks_content_not_workers():
    base = small_config()
    assert base.config_hash() == small_config(workers=5).config_hash()
    assert SuiteConfig().config_hash() == SuiteConfig(ids=verifier.registry_ids()).config_hash()
    # one change per field: a field the hash misses fails here
    changed = {
        "ids": ("amgm", "lin"),
        "dims": (2,),
        "trials": 5,
        "seed": 10,
        "tol": 1e-8,
        "force_endpoints": True,
        "fixed_bounds": SandwichBounds.common(1.0, 2.0),
        "nu_grid": (0.3,),
        "p_grid": (2.0,),
        "alpha_grid": (1.5,),
        "mutate": {"lin": 0.9},
    }
    assert set(changed) == {f.name for f in fields(SuiteConfig)} - {"workers"}
    for name, value in changed.items():
        assert small_config(**{name: value}).config_hash() != base.config_hash(), name


def test_report_schema():
    rep = run_suite(small_config(trials=2))
    obj = json.loads(rep.to_json())
    assert set(obj) == {"config_hash", "cases", "summary"}
    assert len(obj["cases"]) == 4 * 2 * 2
    for row in obj["cases"]:
        assert set(row) >= {"id", "seed", "n", "params", "gap", "relative_gap", "holds"}
        assert set(row["params"]) == {"nu", "p", "alpha", "map", "bounds"}
    for s in obj["summary"]:
        assert set(s) == {"id", "trials", "failures", "worst_relative_gap"}
    csv_text = rep.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "id,seed,n,params,gap,relative_gap,holds"
    assert len(lines) == 1 + len(obj["cases"])


def test_failing_cases_carry_replay_payload():
    cfg = small_config(ids=("lin",), dims=(2,), trials=3,
                      fixed_bounds=SandwichBounds.common(1.0, 2.0),
                      force_endpoints=True, mutate={"lin": 0.7})
    rep = run_suite(cfg)
    failing = [row for row in rep.cases if not row["holds"]]
    assert failing
    for row in failing:
        assert "replay" in row
        assert row["replay"]["instance"]["n"] == 2
        assert row["replay"]["map"] is not None
    passing_cfg = small_config(ids=("lin",), dims=(2,), trials=3,
                               fixed_bounds=SandwichBounds.common(1.0, 2.0),
                               force_endpoints=True)
    for row in run_suite(passing_cfg).cases:
        assert "replay" not in row


def test_mutation_only_touches_target_id():
    cfg = small_config(mutate={"lin": 0.6})
    rep = run_suite(cfg)
    by_id = {s["id"]: s for s in rep.summary}
    assert by_id["lin"]["failures"] > 0
    assert by_id["amgm"]["failures"] == 0
    assert by_id["thm2.4-phi-inside"]["failures"] == 0


@pytest.mark.parametrize("repeated", [
    dict(ids=("lin", "amgm", "lin")),
    dict(dims=(2, 3, 2)),
    dict(ids=("amgm", "amgm"), dims=(2, 2)),
])
def test_config_rejects_repeated_ids_and_dims(repeated):
    """A repeated id or dimension would check each of its draws twice."""
    with pytest.raises(ConfigInvalid, match="must not repeat"):
        run_suite(small_config(**repeated))


def test_config_validation_errors():
    with pytest.raises(ConfigInvalid):
        run_suite(small_config(trials=-1))
    with pytest.raises(ConfigInvalid):
        run_suite(small_config(workers=0))
    with pytest.raises(ConfigInvalid):
        run_suite(small_config(dims=()))
    # a bool would run as 0 or 1 but hash as true or false
    for bad in (dict(trials=2.0), dict(trials=True), dict(workers=2.0), dict(seed=1.5), dict(seed="1")):
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            run_suite(small_config(**bad))
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigInvalid, match="tol"):
            run_suite(small_config(tol=tol))
    with pytest.raises(UnknownInequality):
        run_suite(small_config(ids=("nosuch",)))
    with pytest.raises(ConfigInvalid):
        run_suite(small_config(mutate={"lin": -1.0}))
    with pytest.raises(ConfigInvalid):
        # seo needs reverse-Ando bounds; common fixed bounds cannot serve it
        run_suite(small_config(fixed_bounds=SandwichBounds.common(1.0, 2.0)))
    with pytest.raises(ConfigInvalid, match="M1 < m2"):
        # thm3.4's hypothesis separates the intervals
        run_suite(small_config(ids=("thm3.4",),
                               fixed_bounds=SandwichBounds.reverse_ando(1.0, 2.0, 1.5, 3.0)))


def test_fixed_bounds_flow_through():
    cfg = small_config(ids=("lin",), dims=(2,), trials=2,
                      fixed_bounds=SandwichBounds.common(1.0, 3.0))
    rep = run_suite(cfg)
    for row in rep.cases:
        assert row["params"]["bounds"] == {"kind": "common", "m": 1.0, "M": 3.0}


@pytest.mark.parametrize("force_endpoints", [False, True])
def test_block_instances_are_sample_instance_and_verified_once(monkeypatch, force_endpoints):
    """A chunk's stacked draw gives, case by case, the instance that
    sample_instance draws for the case's bounds and instance seed (and, in
    a chunk that mixes ids, the map random_map draws at the case's seed);
    and a suite run verifies each case's containment exactly once."""
    cfg = small_config(ids=("thm2.7-phi-inside", "seo", "amgm"), force_endpoints=force_endpoints)
    for ineq_id in cfg.ids:
        entry = get_entry(ineq_id)
        for n in cfg.dims:
            for trial, case in enumerate(_draw_chunk(cfg, n, [(ineq_id, t) for t in range(cfg.trials)])):
                case_seed = derive_seed(cfg.seed, ineq_id, n, trial)
                bounds = _draw_bounds(entry, entry.kinds[trial % len(entry.kinds)],
                                      SplitMix64(derive_seed(case_seed, "bounds")))
                instance_seed = derive_seed(case_seed, "instance")
                ref = sample_instance(bounds, n, instance_seed, force_endpoints)
                got = case.instance
                assert (got.bounds, got.seed, got.n) == (bounds, ref.seed, n)
                np.testing.assert_array_equal(got.A, ref.A)
                np.testing.assert_array_equal(got.B, ref.B)
                for X, label, (lo, hi) in ((got.A, "A", bounds.a_interval()),
                                           (got.B, "B", bounds.b_interval())):
                    single = sample_constrained(n, lo, hi, derive_seed(ref.seed, label),
                                                force_endpoints)
                    np.testing.assert_array_equal(X, single)

    # one chunk that mixes ids, with and without maps, out of id and trial order
    n = 3
    chunk = [("amgm", 1), ("thm2.7-phi-inside", 0), ("seo", 3), ("amgm", 0), ("thm2.7-phi-inside", 2)]
    for (ineq_id, trial), case in zip(chunk, _draw_chunk(cfg, n, chunk)):
        entry = get_entry(ineq_id)
        case_seed = derive_seed(cfg.seed, ineq_id, n, trial)
        bounds = _draw_bounds(entry, entry.kinds[trial % len(entry.kinds)],
                              SplitMix64(derive_seed(case_seed, "bounds")))
        ref = sample_instance(bounds, n, derive_seed(case_seed, "instance"), force_endpoints)
        assert (case.ineq_id, case.instance.bounds, case.instance.seed) == (ineq_id, bounds, ref.seed)
        np.testing.assert_array_equal(case.instance.A, ref.A)
        np.testing.assert_array_equal(case.instance.B, ref.B)
        if entry.uses_phi:
            ref_phi = maps.random_map(n, maps.MAP_KINDS[trial % len(maps.MAP_KINDS)],
                                      derive_seed(case_seed, "map"))
            assert dumps_canonical(map_to_obj(case.phi)) == dumps_canonical(map_to_obj(ref_phi))
        else:
            assert case.phi is None

    seen = []
    real = sampler.verify_instances

    def counting(instances, *args, **kwargs):
        seen.extend(inst.seed for inst in instances)
        return real(instances, *args, **kwargs)

    monkeypatch.setattr(sampler, "verify_instances", counting)
    monkeypatch.setattr(verifier, "verify_instances", counting)
    report = run_suite(cfg)
    assert sorted(seen) == sorted(row["seed"] for row in report.cases)
    assert len(seen) == len(report.cases) == 3 * 2 * 4


def test_groups_that_span_several_chunks_give_the_same_report(monkeypatch):
    """With stacks of 5 cases at n = 3 (11 at n = 2), a group of three ids
    and 7 trials is cut into chunks that mix ids and end mid-block; the
    report is byte-identical to the one-stack run, serially and with two
    workers."""
    cfg = SuiteConfig(ids=("thm2.4-phi-inside", "amgm", "thm2.7-phi-inside", "thm2.10-phi-inside"),
                      dims=(2, 3), trials=7, seed=5)
    whole = run_suite(cfg).to_json()
    assert len(suite._chunks(cfg)) == 4
    monkeypatch.setattr(verifier, "STACK_BYTES", 16 * 3 * 3 * 5)
    assert (verifier.stack_rows(3), verifier.stack_rows(2)) == (5, 11)
    chunks = suite._chunks(cfg)
    assert [(n, len(cases)) for n, cases in chunks] == [
        (2, 11), (2, 10), (3, 5), (3, 5), (3, 5), (3, 5), (3, 1), (2, 7), (3, 5), (3, 2)]
    assert len({ineq_id for ineq_id, _ in chunks[1][1]}) == 2
    assert run_suite(cfg).to_json() == whole
    assert run_suite(replace(cfg, workers=2)).to_json() == whole


def _escape_at(monkeypatch, trial):
    """Make every chunk's instance at index `trial` escape its hypothesis
    interval (the trial of that number where a chunk holds one block)."""
    real = suite.stack_instances

    def escaping(bounds, n, seeds, force_endpoints=False):
        instances = real(bounds, n, seeds, force_endpoints)
        instances[trial] = replace(instances[trial], A=10.0 * instances[trial].A)
        return instances

    monkeypatch.setattr(suite, "stack_instances", escaping)


def test_stack_errors_keep_their_class_and_name_the_case(monkeypatch, capsys):
    """An error inside a stack is raised as the parent's class (exit 2), for
    the first failing case of the group, named by id, n and trial."""
    cfg = SuiteConfig(ids=("amgm", "thm1.1-phi-inside"), dims=(2, 3), trials=3, p_grid=(300.0,))
    with pytest.raises(ConfigInvalid,
                       match=r"^thm1.1-phi-inside, n = 2, trial 0: constant is not finite at p = 300"):
        run_suite(cfg)
    assert main(["verify", "--ineq", "thm1.1-phi-inside,amgm", "--n", "2,3", "--trials", "3",
                 "--p", "300"]) == 2
    assert "error: thm1.1-phi-inside, n = 2, trial 0: constant is not finite" in capsys.readouterr().err

    _escape_at(monkeypatch, 2)
    with pytest.raises(OpineqError) as info:
        run_suite(SuiteConfig(ids=("lemma2.2-i", "amgm"), dims=(2,), trials=4, seed=3))
    assert type(info.value) is OpineqError
    assert str(info.value).startswith("lemma2.2-i, n = 2, trial 2: instance spectrum escaped")
    assert main(["verify", "--ineq", "amgm", "--n", "2", "--trials", "4"]) == 2
    assert "error: amgm, n = 2, trial 2: instance spectrum escaped" in capsys.readouterr().err


def test_stack_error_of_two_failing_cases_is_the_earlier_case(monkeypatch):
    """check_block checks every case's hypothesis and constant before any
    stack, so on its own it raises trial 3's overflowing constant first; the
    suite re-checks the cases in trial order and raises trial 1's escaped
    spectrum, as checking them one at a time does."""
    cfg = SuiteConfig(ids=("thm1.1-phi-inside",), dims=(2,), trials=4, p_grid=(2.0, 2.0, 2.0, 300.0))
    _escape_at(monkeypatch, 1)
    cases = _draw_chunk(cfg, 2, [("thm1.1-phi-inside", t) for t in range(cfg.trials)])
    with pytest.raises(ConfigInvalid, match="constant is not finite at p = 300"):
        verifier.check_block(cases)
    with pytest.raises(OpineqError, match=r"^thm1.1-phi-inside, n = 2, trial 1: instance spectrum"):
        run_suite(cfg)


def test_search_amgm_reaches_equality():
    rec = tightness_search("amgm", budget=1000, seed=0)
    assert rec.evaluations == 1000
    assert rec.best_gap < 1e-6
    assert rec.holds


def test_search_scalar_lemma_special_weight():
    rec = tightness_search("scalar-lemma", budget=300, seed=0, nu=0.25)
    assert abs(rec.best_gap) <= 1e-12
    assert rec.params["nu"] == 0.25


def test_search_scalar_lemma_free_weight():
    rec = tightness_search("scalar-lemma", budget=300, seed=1)
    assert rec.best_gap >= -1e-12
    assert rec.best_gap <= 1e-6


def test_search_scalar_lemma_honours_tol():
    """At tol = 0 a negative scalar slack, rounding noise included, does not
    hold, as on the operator entries."""
    rec = tightness_search("scalar-lemma", budget=300, seed=1, tol=0.0)
    assert rec.best_gap < 0.0
    assert not rec.holds
    assert tightness_search("scalar-lemma", budget=300, seed=1).holds


def test_search_sound_statement_stays_nonnegative():
    rec = tightness_search("thm2.4-phi-inside", budget=300, seed=1)
    assert rec.holds
    assert rec.best_relative_gap >= -1e-9


def test_search_finds_confirmed_violation_on_refuted_entry():
    rec = tightness_search("thm3.4", budget=300, seed=0)
    assert not rec.holds
    assert rec.best_relative_gap < -1e-3
    assert rec.confirmed is True


def test_search_does_not_confirm_rounding_noise():
    """amgm is an identity at nu in {0, 1}; a negative gap there at tol = 0
    is rounding noise, which the certificate must not confirm."""
    rec = tightness_search("amgm", budget=60, seed=0, n=2, tol=0.0)
    assert not rec.holds
    assert rec.confirmed is False


def test_search_leaves_identity_plateau():
    """A walk that reaches a gap within tol of zero restarts, so it is not
    steered by rounding noise on a plateau of identities."""
    rec = tightness_search("thm3.4", budget=120, seed=4, n=2)
    assert not rec.holds
    assert rec.confirmed is True


def test_search_lin_stays_at_its_stated_power():
    """The search's p moves leave lin's domain p = 1 and are rejected."""
    rec = tightness_search("lin", budget=300, seed=0, n=2)
    assert rec.holds
    assert rec.params["p"] == 1.0


def test_search_rejects_bad_budget():
    with pytest.raises(ConfigInvalid):
        tightness_search("amgm", budget=0, seed=0)
    with pytest.raises(UnknownInequality):
        tightness_search("nosuch", budget=10, seed=0)
    for bad in (dict(budget=2.5), dict(budget=120.0), dict(seed=0.5)):
        with pytest.raises(ConfigInvalid, match="must be an integer"):
            tightness_search("amgm", **bad)


def _forced_move(move, seed):
    """A stream whose first move draw picks `move`; later draws are seed's."""
    class Forced(SplitMix64):
        def randint(self, lo, hi):
            if (lo, hi) == (0, len(suite._MOVES) - 1):
                return suite._MOVES.index(move)
            return super().randint(lo, hi)
    return Forced(seed)


def test_search_alpha_move_keeps_alpha_in_range_and_p_at_least_2alpha():
    """The alpha move redraws alpha in [1, 2] and lifts p to 2 alpha where
    it fell below, so thm2.10's hypothesis p >= 2 alpha still holds."""
    entry = get_entry("thm2.10-phi-inside")
    moved = 0
    for seed in range(40):
        st = suite._fresh_state(entry, 2, SplitMix64(derive_seed(seed, "fresh")))
        if seed % 2:
            st = replace(st, p=st.p + 1.0)
        new = suite._mutate_state(entry, st, 2, _forced_move("alpha", seed))
        assert 1.0 <= new.alpha <= 2.0
        assert new.p >= 2.0 * new.alpha
        assert new.p == max(st.p, 2.0 * new.alpha)
        assert replace(new, alpha=st.alpha, p=st.p) == st
        moved += new.alpha != st.alpha
    assert moved == 40


def test_search_alpha_move_leaves_entry_without_alpha_unchanged():
    entry = get_entry("lin")
    assert not entry.needs_alpha
    st = suite._fresh_state(entry, 2, SplitMix64(3))
    rng = _forced_move("alpha", 3)
    assert suite._mutate_state(entry, st, 2, rng) == st
    assert rng.state == SplitMix64(3).state


def test_search_lane_move_on_an_all_rejected_batch():
    """A batch the hypothesis rejects whole moves nothing and picks nothing,
    but counts as a step of the lane."""
    entry = get_entry("thm2.7-phi-inside")
    lane = suite._Lane(0, SplitMix64(7), budget=50)
    lane.state = suite._fresh_state(entry, 2, SplitMix64(8))
    lane.current_val, lane.steps = 0.25, 3
    state, rng_state = lane.state, lane.rng.state
    batch = [suite._mutate_state(entry, state, 2, SplitMix64(i)) for i in range(4)]
    assert lane.move(batch, [None] * len(batch), 1e-9) is None
    assert lane.steps == 4
    assert (lane.state, lane.current_val, lane.rng.state) == (state, 0.25, rng_state)


def test_search_rejects_bad_dimension_and_tol():
    for n in (0, -1):
        with pytest.raises(ConfigInvalid, match="n must be"):
            tightness_search("amgm", budget=5, seed=0, n=n)
    for tol in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigInvalid, match="tol"):
            tightness_search("amgm", budget=5, seed=0, tol=tol)


def test_search_same_record_with_cold_and_warm_memo():
    """Two searches in one process give the same record."""
    cold = tightness_search("thm3.4", budget=120, seed=1, n=2)
    warm = tightness_search("thm3.4", budget=120, seed=1, n=2)
    assert cold == warm


def test_search_decomposes_each_distinct_matrix_once(monkeypatch):
    """Candidates are decomposed as stacks, and the search reuses the
    operands it built across steps: 120 evaluations stay within 830 LAPACK
    calls."""
    calls = []
    lapack = np.linalg.eigh

    def counting_eigh(M):
        calls.append(1)
        return lapack(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    tightness_search("thm2.7-phi-inside", budget=120, seed=1, n=2)
    assert 0 < len(calls) <= 830


@pytest.mark.parametrize("budget", [1, 2, 15, 16, 17, 49, 50, 51, 120, 121, 400, 2000])
def test_search_evaluations_equal_budget(budget):
    """No lane steps past its share of the budget, and a candidate the
    hypothesis rejects still counts (lin rejects every p move off p = 1)."""
    for ineq_id in ("lin", "thm3.4", "amgm"):
        assert tightness_search(ineq_id, budget=budget, seed=3, n=2).evaluations == budget


@pytest.mark.parametrize("budget", [120, 400])
@pytest.mark.parametrize("ineq_id", ["thm3.4", "thm2.7-phi-outside", "lin", "choi"])
def test_search_record_does_not_depend_on_lanes_per_step(monkeypatch, ineq_id, budget):
    """A stack that fits one lane's batch makes the lanes step one at a time;
    the record is the one the lanes give stepping together."""
    lockstep = tightness_search(ineq_id, budget=budget, seed=2, n=2)
    monkeypatch.setattr(verifier, "STACK_BYTES", 16 * 2 * 2 * suite.SEARCH_BATCH)
    assert verifier.stack_rows(2) // suite.SEARCH_BATCH == 1
    one_at_a_time = tightness_search(ineq_id, budget=budget, seed=2, n=2)
    assert one_at_a_time == lockstep
    assert one_at_a_time.best_gap.hex() == lockstep.best_gap.hex()
    assert one_at_a_time.best_relative_gap.hex() == lockstep.best_relative_gap.hex()


def test_search_best_pick_tie_order():
    """The best pick is the lowest relative gap; on a tie, the lowest lane,
    then that lane's earliest step, then the first proposed."""
    picks = [(-0.5, 2, 0, 3), (-0.5, 1, 4, 0), (-0.5, 1, 3, 9), (-0.5, 1, 3, 7), (-0.4, 0, 0, 0)]
    ranked = sorted(picks, key=lambda p: suite._rank((SimpleNamespace(relative_gap=p[0]), *p[1:])))
    assert ranked == [(-0.5, 1, 3, 7), (-0.5, 1, 3, 9), (-0.5, 1, 4, 0), (-0.5, 2, 0, 3), (-0.4, 0, 0, 0)]


@pytest.mark.parametrize("ineq_id", ["lin", "thm2.7-phi-outside", "choi", "lemma2.2-i"])
def test_search_batch_is_check_case_candidate_by_candidate(ineq_id):
    """A batch's verdicts have check_case's bits on the same candidates;
    the batch mixes map output dimensions and holds candidates the
    hypothesis gate drops (a power outside the entry's domain)."""
    entry = get_entry(ineq_id)
    n = 3
    rng = SplitMix64(derive_seed(5, "batch", ineq_id))
    batch = []
    for i in range(2 * suite.SEARCH_BATCH):
        st = suite._fresh_state(entry, n, rng)
        if i % 4 == 1:
            st = replace(st, p=0.25)  # outside every domain but choi's and lemma2.2-i's
        st = replace(st, map_kind=("compression", "pinching", "identity")[i % 3], map_seed=i)
        batch.append(st)
    verdicts = suite._check_batch(entry, batch, n, 1e-9, {})
    dims, dropped = set(), 0
    for st, got in zip(batch, verdicts):
        phi = maps.random_map(n, st.map_kind, st.map_seed) if entry.uses_phi else None
        A, B = sampler.build_from_spectra(
            [st.lamA, st.lamB], [st.frameA, st.frameA if st.aligned else st.frameB])
        case = verifier.InequalityCase(
            ineq_id, sampler.Instance(A=A, B=B, bounds=st.bounds, seed=st.frameA, n=n), phi,
            CaseParams(nu=st.nu, p=st.p, alpha=st.alpha))
        try:
            alone = verifier.check_case(case)
        except HypothesisNotMet:
            assert got is None
            dropped += 1
            continue
        dims.add(None if phi is None else phi.out_dim)
        assert got.gap.hex() == alone.gap.hex()
        assert got.relative_gap.hex() == alone.relative_gap.hex()
        assert (got.holds, got.confirmed) == (alone.holds, alone.confirmed)
        assert got == alone
    if ineq_id in ("lin", "thm2.7-phi-outside"):
        assert dropped >= suite.SEARCH_BATCH // 2
        assert len(dims) >= 2


@pytest.mark.parametrize("ineq_id", ["thm3.4", "thm3.3", "lee-printed"])
def test_search_refutes_must_violate_entries_at_every_seed(ineq_id):
    for seed in range(40):
        rec = tightness_search(ineq_id, budget=120, seed=seed, n=2)
        assert not rec.holds, seed


def test_search_lapack_calls(monkeypatch):
    """Batched candidates are decomposed as stacks: a search of thm2.7's
    inside form makes at most 200 LAPACK calls for 120 evaluations."""
    calls = []
    lapack = np.linalg.eigh

    def counting_eigh(M):
        calls.append(1)
        return lapack(M)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    rec = tightness_search("thm2.7-phi-inside", budget=120, seed=1, n=2)
    assert rec.evaluations == 120
    assert 0 < len(calls) <= 200


def test_search_admits_each_candidate_once(monkeypatch):
    """Each search candidate passes verifier.admit once: the search screens
    it, and check_rows takes the admitted rows as they are.  Only a lone
    chunk, which goes through check_case, is admitted a second time."""
    admitted, lone = [], []
    real_admit, real_check_case = verifier.admit, verifier.check_case

    def admit_spy(case):
        admitted.append(case.ineq_id)
        return real_admit(case)

    def check_case_spy(case, tol=verifier.DEFAULT_TOL):
        lone.append(case.ineq_id)
        return real_check_case(case, tol)

    monkeypatch.setattr(verifier, "admit", admit_spy)
    monkeypatch.setattr(suite, "admit", admit_spy)
    monkeypatch.setattr(verifier, "check_case", check_case_spy)
    evaluations = 0
    for ineq_id in ("lin", "thm2.7-phi-inside", "choi", "amgm"):
        evaluations += tightness_search(ineq_id, budget=120, seed=1, n=2).evaluations
    assert evaluations == 480
    assert len(admitted) == evaluations + len(lone)


def test_benchmark_configs_reach_check_case(monkeypatch):
    """The sweep config, the n = 16 config and the search over every id each
    call verifier.check_case (through the lone-row route of check_rows, or
    for a failing case): perfbench's verifier.accept_ratio divides by these
    calls.  ROADMAP item 9 has the benchmark count check_rows instead; this
    test goes with the lone-row route then."""
    calls = []
    real_check_case = verifier.check_case

    def check_case_spy(case, tol=verifier.DEFAULT_TOL):
        calls.append(case.ineq_id)
        return real_check_case(case, tol)

    monkeypatch.setattr(verifier, "check_case", check_case_spy)
    monkeypatch.setattr(suite, "check_case", check_case_spy)
    counts = []
    for cfg in (SuiteConfig(trials=6, seed=1), SuiteConfig(dims=(16,), trials=1, seed=1)):
        run_suite(cfg)
        counts.append(len(calls))
        calls.clear()
    for ineq_id in verifier.registry_ids():
        tightness_search(ineq_id, budget=120, seed=1, n=2)
    counts.append(len(calls))
    assert min(counts) > 0, counts
