"""Suite runner and tightness search.

run_suite turns a SuiteConfig into a Report deterministically: every case
is constructed from seeds derived by name from the master seed, so the
report depends only on the configuration (the worker count splits the
computation but never enters a seed or the config hash).  Its unit is the
chunk, up to stack_rows(n) cases of one verifier.stack_key: drawn as one
stack, checked by one check_block call, and one task under --workers.

tightness_search drives the relative gap of one inequality toward zero
from above by random-restart coordinate moves over everything the
hypothesis leaves free: eigenvalue placements inside their intervals,
eigenvector frames (including aligning the two frames so the pair
commutes), the bounds themselves, the map, and the exponents.  Each restart
segment is a lane with its own stream, and the lanes climb in lockstep: a
step proposes SEARCH_BATCH candidates in each of as many live lanes as fill
one stack, builds their new matrices and maps as stacks, passes each
through verifier.admit once, checks the admitted ones as one check_rows
call, and moves each lane to its best.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from .constants import CaseParams, SandwichBounds
from .errors import ConfigInvalid, HypothesisNotMet, OpineqError
from .io import dumps_canonical, instance_to_obj, map_to_obj
from .maps import MAP_KINDS, random_maps
from .sampler import Instance, SplitMix64, build_from_spectra, derive_seed, stack_instances
from .verifier import (
    ALPHA_GRID,
    DEFAULT_TOL,
    NU_GRID,
    InequalityCase,
    RegistryEntry,
    admit,
    check_block,
    check_case,
    check_rows,
    get_entry,
    registry_ids,
    require_hypothesis,
    scalar_lemma_gap,
    stack_key,
    stack_rows,
)

DEFAULT_DIMS = (2, 3, 5)
DEFAULT_TRIALS = 100


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigInvalid(f"tol must be finite and >= 0, got {tol}")


def _require_int(name: str, value, least: Optional[int] = None) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigInvalid(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a suite run (and hence its report).

    ids=None means the full registry.  trials counts cases per (id, n)
    pair.  nu_grid / p_grid / alpha_grid, when given, replace the built-in
    parameter grids; fixed_bounds replaces the per-case bounds draw.
    mutate maps registry ids to factors applied to the row's constant —
    a deliberate fault injection used to prove the checker notices.
    workers runs chunks in parallel without affecting the output.
    """

    ids: Optional[tuple[str, ...]] = None
    dims: tuple[int, ...] = DEFAULT_DIMS
    trials: int = DEFAULT_TRIALS
    seed: int = 42
    tol: float = DEFAULT_TOL
    force_endpoints: bool = False
    fixed_bounds: Optional[SandwichBounds] = None
    nu_grid: Optional[tuple[float, ...]] = None
    p_grid: Optional[tuple[float, ...]] = None
    alpha_grid: Optional[tuple[float, ...]] = None
    mutate: dict = field(default_factory=dict)
    workers: int = 1

    def resolved_ids(self) -> tuple[str, ...]:
        if self.ids is None:
            return registry_ids()
        return tuple(self.ids)

    def validate(self) -> None:
        _require_int("trials", self.trials, 0)
        _require_int("workers", self.workers, 1)
        _require_int("seed", self.seed)
        _require_tol(self.tol)
        for n in self.dims:
            _require_int("dimensions", n, 1)
        ids = self.resolved_ids()
        for name, values in (("ids", ids), ("dims", self.dims)):
            if not values:
                raise ConfigInvalid(f"{name} must be nonempty")
            if len(set(values)) != len(values):
                raise ConfigInvalid(f"{name} must not repeat, got {list(values)}")
        for grid_name in ("nu_grid", "p_grid", "alpha_grid"):
            grid = getattr(self, grid_name)
            if grid is not None and len(grid) == 0:
                raise ConfigInvalid(f"{grid_name} must be nonempty when given")
            for value in grid or ():
                CaseParams(**{grid_name.removesuffix("_grid"): value})  # raises on a value out of range
        for ineq_id in ids:
            get_entry(ineq_id)  # raises UnknownInequality
        for key in self.mutate:
            get_entry(key)
            if not self.mutate[key] > 0.0:
                raise ConfigInvalid(f"mutate factor for {key} must be > 0")
        if self.fixed_bounds is not None:
            # every entry's hypothesis, at the first trial's parameters
            for ineq_id in ids:
                entry = get_entry(ineq_id)
                try:
                    require_hypothesis(entry, self.fixed_bounds, _case_params(self, entry, 0))
                except HypothesisNotMet as exc:
                    raise ConfigInvalid(str(exc)) from exc

    def hash_payload(self) -> dict:
        """Every field but workers, which never changes the report; ids
        resolved, fixed_bounds as its dict."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "workers"}
        payload["ids"] = self.resolved_ids()
        if self.fixed_bounds is not None:
            payload["fixed_bounds"] = self.fixed_bounds.to_dict()
        return payload

    def config_hash(self) -> str:
        return hashlib.sha256(dumps_canonical(self.hash_payload()).encode()).hexdigest()


def _draw_bounds(entry: RegistryEntry, kind: str, rng: SplitMix64) -> SandwichBounds:
    """Random hypothesis bounds of the requested kind.

    Outer condition number h is uniform in [1.5, 20]; the inner sandwich
    ratio h' sits strictly inside (1, h) with the inner interval placed
    log-uniformly between the outer endpoints.
    """
    if kind == "reverse_ando":
        m1 = rng.log_uniform(0.5, 1.5)
        M1 = m1 * rng.log_uniform(1.0, 2.5)
        if entry.separated:
            m2 = M1 * rng.log_uniform(1.05, 2.2)
        else:
            m2 = rng.log_uniform(0.5, 1.5)
        M2 = m2 * rng.log_uniform(1.0, 2.5)
        return SandwichBounds.reverse_ando(m1, M1, m2, M2)
    m = rng.log_uniform(0.3, 3.0)
    h = rng.uniform(1.5, 20.0)
    M = m * h
    if kind == "common":
        return SandwichBounds.common(m, M)
    hp = 1.0 + rng.uniform(0.02, 0.98) * (h - 1.0)
    mp = m * (h / hp) ** rng.next_float()
    Mp = mp * hp
    if kind == "sandwich_B_low":
        return SandwichBounds.sandwich_B_low(m, mp, Mp, M)
    return SandwichBounds.sandwich_A_low(m, mp, Mp, M)


def _case_params(cfg: SuiteConfig, entry: RegistryEntry, trial: int) -> CaseParams:
    """The trial's value from each grid, whether or not the entry reads it:
    verifier.admit, not the suite, resolves a weight the entry fixes and an
    alpha it does not read."""
    nu_grid = cfg.nu_grid if cfg.nu_grid is not None else NU_GRID
    alpha_grid = cfg.alpha_grid if cfg.alpha_grid is not None else ALPHA_GRID
    alpha = alpha_grid[trial % len(alpha_grid)]
    p_grid = cfg.p_grid if cfg.p_grid is not None else _p_grid(entry, alpha)
    return CaseParams(nu=nu_grid[trial % len(nu_grid)], p=p_grid[trial % len(p_grid)], alpha=alpha)


def _p_grid(entry: RegistryEntry, alpha: float) -> tuple[float, ...]:
    """The entry's powers; the "2a" grid is (2 alpha, 2 alpha + 1.5)."""
    return (2.0 * alpha, 2.0 * alpha + 1.5) if entry.p_grid == "2a" else entry.p_grid


def _chunks(cfg: SuiteConfig) -> list[tuple[int, list[tuple[str, int]]]]:
    """The run's chunks (n, [(id, trial), ...]): the cases of each stack_key
    group, in id and trial order, cut into runs of stack_rows(n)."""
    groups: dict = {}
    for ineq_id in cfg.resolved_ids():
        entry = get_entry(ineq_id)
        for n in cfg.dims:
            groups.setdefault(stack_key(entry, n), []).extend((ineq_id, t) for t in range(cfg.trials))
    return [
        (n, cases[lo:lo + stack_rows(n)])
        for (_, _, n), cases in groups.items()
        for lo in range(0, len(cases), stack_rows(n))
    ]


def _draw_chunk(cfg: SuiteConfig, n: int, cases: list[tuple[str, int]]) -> list[InequalityCase]:
    """The chunk's cases in order, not yet verified (check_block verifies
    each).  Case (id, trial) takes every draw from derive_seed(cfg.seed, id,
    n, trial); the chunk makes one stack_instances call, and one random_maps
    call for the cases whose entry reads a map."""
    entries = [get_entry(ineq_id) for ineq_id, _ in cases]
    seeds = [derive_seed(cfg.seed, ineq_id, n, t) for ineq_id, t in cases]
    bounds = [
        cfg.fixed_bounds if cfg.fixed_bounds is not None else _draw_bounds(
            entry, entry.kinds[t % len(entry.kinds)], SplitMix64(derive_seed(s, "bounds")))
        for entry, (_, t), s in zip(entries, cases, seeds)
    ]
    instances = stack_instances(
        bounds, n, [derive_seed(s, "instance") for s in seeds], cfg.force_endpoints
    )
    mapped = [i for i, entry in enumerate(entries) if entry.uses_phi]
    phis = dict(zip(mapped, random_maps(n, [MAP_KINDS[cases[i][1] % len(MAP_KINDS)] for i in mapped],
                                        [derive_seed(seeds[i], "map") for i in mapped])))
    return [
        InequalityCase(ineq_id=entry.ineq_id, instance=instance, phi=phis.get(i),
                       params=_case_params(cfg, entry, t), scale=cfg.mutate.get(entry.ineq_id, 1.0))
        for i, (entry, (_, t), instance) in enumerate(zip(entries, cases, instances))
    ]


def _run_chunk(cfg: SuiteConfig, chunk: tuple[int, list[tuple[str, int]]]) -> list[dict]:
    """The chunk's report rows: drawn by _draw_chunk, checked by check_block."""
    n, cases = chunk
    drawn = _draw_chunk(cfg, n, cases)
    try:
        verdicts = check_block(drawn, cfg.tol)
    except OpineqError:
        _raise_first_failure(cfg, n, cases, drawn)
        raise
    out = []
    for (ineq_id, trial), case, verdict in zip(cases, drawn, verdicts):
        row = {
            "id": ineq_id,
            "seed": case.instance.seed,
            "n": n,
            "trial": trial,
            "params": verdict.params,
            "gap": verdict.gap,
            "relative_gap": verdict.relative_gap,
            "holds": verdict.holds,
        }
        if not verdict.holds:
            row["replay"] = {
                "instance": instance_to_obj(case.instance),
                "map": None if case.phi is None else map_to_obj(case.phi),
            }
        out.append(row)
    return out


def _raise_first_failure(cfg: SuiteConfig, n: int, cases: list, drawn: list) -> None:
    """Re-check the cases one at a time and raise the first one's error, of
    its own class, naming its id, n and trial."""
    for (ineq_id, trial), case in zip(cases, drawn):
        try:
            check_case(case, cfg.tol)
        except OpineqError as exc:
            message = str(exc).removeprefix(f"{ineq_id}: ")
            raise type(exc)(f"{ineq_id}, n = {n}, trial {trial}: {message}") from exc


@dataclass(frozen=True)
class Report:
    config_hash: str
    cases: tuple
    summary: tuple
    asserted_failures: int

    def to_obj(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "cases": list(self.cases),
            "summary": list(self.summary),
        }

    def to_json(self) -> str:
        return dumps_canonical(self.to_obj())

    def to_csv(self) -> str:
        buf = _io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "seed", "n", "params", "gap", "relative_gap", "holds"])
        for row in self.cases:
            writer.writerow(
                [
                    row["id"],
                    row["seed"],
                    row["n"],
                    json.dumps(row["params"], sort_keys=True, separators=(",", ":")),
                    repr(row["gap"]),
                    repr(row["relative_gap"]),
                    int(row["holds"]),
                ]
            )
        return buf.getvalue()

    def total_failures(self) -> int:
        return sum(s["failures"] for s in self.summary)


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute the configured suite and aggregate a deterministic report."""
    cfg.validate()
    chunks = _chunks(cfg)
    if cfg.workers > 1 and len(chunks) > 1:
        serial_cfg = replace(cfg, workers=1)
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_chunk, itertools.repeat(serial_cfg), chunks, chunksize=1))
    else:
        results = [_run_chunk(cfg, chunk) for chunk in chunks]
    cases = [row for rows in results for row in rows]
    cases.sort(key=lambda row: (row["id"], row["n"], row["trial"]))
    by_id: dict = {ineq_id: [] for ineq_id in sorted(cfg.resolved_ids())}
    for row in cases:
        del row["trial"]
        by_id[row["id"]].append(row)
    summary = []
    asserted_failures = 0
    for ineq_id, rows in by_id.items():
        failures = sum(1 for row in rows if not row["holds"])
        if failures and get_entry(ineq_id).asserted:
            asserted_failures += failures
        summary.append(
            {
                "id": ineq_id,
                "trials": len(rows),
                "failures": failures,
                "worst_relative_gap": min((row["relative_gap"] for row in rows), default=None),
            }
        )
    return Report(
        config_hash=cfg.config_hash(),
        cases=tuple(cases),
        summary=tuple(summary),
        asserted_failures=asserted_failures,
    )


# ---------------------------------------------------------------------------
# Tightness search
# ---------------------------------------------------------------------------

NU_SPECIALS = (0.0, 0.25, 0.5, 0.75, 1.0)
SEARCH_BATCH = 16  # candidates a search lane proposes per step


@dataclass(frozen=True)
class SearchRecord:
    """Outcome of a tightness search.

    best_relative_gap is the smallest value seen; params describes the case
    that attained it.  `confirmed` is set only when the best value is a
    candidate violation (below -tol): it is that case's Verdict.confirmed,
    True when the violation survives a direct evaluation of the quadratic
    form at its computed lambda_min eigenvector, past a rounding allowance,
    so it does not rest on the eigensolver's accuracy (see
    verifier.check_case).
    """

    ineq_id: str
    evaluations: int
    best_gap: float
    best_relative_gap: float
    holds: bool
    params: dict
    confirmed: Optional[bool] = None


def _search_scalar_lemma(budget: int, seed: int, nu: Optional[float], tol: float) -> SearchRecord:
    rng = SplitMix64(derive_seed(seed, "scalar-lemma"))
    best = math.inf
    best_params: dict = {}
    evals = 0
    for i in range(max(budget, 1)):
        if nu is not None:
            v = nu
        elif i % 3 == 0:
            v = NU_SPECIALS[rng.randint(0, len(NU_SPECIALS) - 1)]
        else:
            v = rng.next_float()
        x = 1.0 if i % 7 == 0 else rng.log_uniform(1e-2, 1e2)
        g = scalar_lemma_gap(x, v)
        evals += 1
        if g < best:
            best = g
            best_params = {"x": x, "nu": v}
    return SearchRecord(
        ineq_id="scalar-lemma",
        evaluations=evals,
        best_gap=best,
        best_relative_gap=best,
        holds=best >= -tol,
        params=best_params,
    )


def _place(rng: SplitMix64, lo: float, hi: float, n: int) -> tuple[float, ...]:
    """One eigenvalue placement inside [lo, hi]: a corner or a random cloud."""
    mode = rng.randint(0, 3)
    if mode == 0:
        return (lo,) * n
    if mode == 1:
        return (hi,) * n
    if mode == 2:
        half = n // 2
        return (lo,) * (n - half) + (hi,) * half
    return tuple(rng.uniform(lo, hi) for _ in range(n))


@dataclass
class _SearchState:
    bounds: SandwichBounds
    lamA: tuple
    lamB: tuple
    frameA: int
    frameB: int
    aligned: bool
    nu: float
    p: float
    alpha: float
    map_kind: str
    map_seed: int


def _fresh_state(entry: RegistryEntry, n: int, rng: SplitMix64) -> _SearchState:
    kind = entry.kinds[rng.randint(0, len(entry.kinds) - 1)]
    bounds = _draw_bounds(entry, kind, rng)
    alo, ahi = bounds.a_interval()
    blo, bhi = bounds.b_interval()
    alpha = rng.uniform(1.0, 2.0) if entry.needs_alpha else 1.0
    if entry.nu_mode == "grid":
        nu = NU_SPECIALS[rng.randint(0, 4)] if rng.next_u64() & 1 else rng.next_float()
    else:
        nu = 0.5
    return _SearchState(
        bounds=bounds,
        lamA=_place(rng, alo, ahi, n),
        lamB=_place(rng, blo, bhi, n),
        frameA=rng.next_u64(),
        frameB=rng.next_u64(),
        aligned=bool(rng.next_u64() & 1),
        nu=nu,
        p=min(_p_grid(entry, alpha)),
        alpha=alpha,
        map_kind=MAP_KINDS[rng.randint(0, len(MAP_KINDS) - 1)],
        map_seed=rng.next_u64(),
    )


_MOVES = ("bounds", "lamA", "lamB", "frameA", "frameB", "align", "nu", "p", "alpha", "map")


def _mutate_state(entry: RegistryEntry, st: _SearchState, n: int, rng: SplitMix64) -> _SearchState:
    move = _MOVES[rng.randint(0, len(_MOVES) - 1)]
    st = replace(st)
    if move == "bounds":
        kind = entry.kinds[rng.randint(0, len(entry.kinds) - 1)]
        st.bounds = _draw_bounds(entry, kind, rng)
        alo, ahi = st.bounds.a_interval()
        blo, bhi = st.bounds.b_interval()
        st.lamA = _place(rng, alo, ahi, n)
        st.lamB = _place(rng, blo, bhi, n)
    elif move == "lamA":
        alo, ahi = st.bounds.a_interval()
        st.lamA = _place(rng, alo, ahi, n)
    elif move == "lamB":
        blo, bhi = st.bounds.b_interval()
        st.lamB = _place(rng, blo, bhi, n)
    elif move == "frameA":
        st.frameA = rng.next_u64()
    elif move == "frameB":
        st.frameB = rng.next_u64()
        st.aligned = False
    elif move == "align":
        st.aligned = not st.aligned
    elif move == "nu" and entry.nu_mode == "grid":
        st.nu = NU_SPECIALS[rng.randint(0, 4)] if rng.next_u64() & 1 else rng.next_float()
    elif move == "p":
        lo = min(_p_grid(entry, st.alpha))
        st.p = lo if rng.next_u64() & 1 else lo + 1.5 * rng.next_float()
    elif move == "alpha" and entry.needs_alpha:
        st.alpha = rng.uniform(1.0, 2.0)
        st.p = max(st.p, min(_p_grid(entry, st.alpha)))
    elif move == "map":
        st.map_kind = MAP_KINDS[rng.randint(0, len(MAP_KINDS) - 1)]
        st.map_seed = rng.next_u64()
    return st


def _operand_keys(entry: RegistryEntry, st: _SearchState) -> tuple:
    """The keys of a state's operands: (spectrum, frame seed) for A and for B,
    and (kind, seed) for its map when the entry reads one.  A matrix key and
    a map key never collide."""
    keys = (st.lamA, st.frameA), (st.lamB, st.frameA if st.aligned else st.frameB)
    return keys + ((st.map_kind, st.map_seed),) if entry.uses_phi else keys


def _built(operands: dict, keys: list, build) -> list:
    """The operand of each key: taken from `operands` when it holds the key,
    else built; all new ones come from one build(*columns) call over the new
    keys' columns, and are added to `operands`."""
    new = [key for key in dict.fromkeys(keys) if key not in operands]
    if new:
        operands.update(zip(new, build(*zip(*new))))
    return [operands[key] for key in keys]


def _check_batch(entry: RegistryEntry, batch: list, n: int, tol: float, operands: dict) -> list:
    """The batch's verdicts in order, None for a candidate its hypothesis
    rejects.  verifier.admit screens each candidate once, and the rows it
    admits are checked as one check_rows call."""
    size = len(batch)
    keys = [_operand_keys(entry, st) for st in batch]
    pairs = _built(operands, [k[0] for k in keys] + [k[1] for k in keys], build_from_spectra)
    phis = _built(operands, [k[2] for k in keys],
                  lambda kinds, seeds: random_maps(n, kinds, seeds)) if entry.uses_phi else [None] * size
    rows, admitted = [], []
    for i, st in enumerate(batch):
        case = InequalityCase(
            ineq_id=entry.ineq_id,
            instance=Instance(A=pairs[i], B=pairs[size + i], bounds=st.bounds, seed=st.frameA, n=n),
            phi=phis[i],
            params=CaseParams(nu=st.nu, p=st.p, alpha=st.alpha),
        )
        try:
            rows.append(admit(case))
        except HypothesisNotMet:
            continue
        admitted.append(i)
    verdicts = [None] * size
    for i, verdict in zip(admitted, check_rows(rows, tol)):
        verdicts[i] = verdict
    return verdicts


@dataclass
class _Lane:
    """One restart segment of a search: its own stream, its share of the
    budget, and the hill-climb's walk inside it."""

    index: int
    rng: SplitMix64
    budget: int
    evals: int = 0
    steps: int = 0
    state: Optional[_SearchState] = None
    current_val: float = math.inf

    def propose(self, entry: RegistryEntry, n: int, nu: Optional[float]) -> list:
        """The step's candidates: fresh states after a restart, mutations of
        the current state otherwise; never past the lane's budget."""
        size = min(SEARCH_BATCH, self.budget - self.evals)
        batch = [
            _fresh_state(entry, n, self.rng) if self.state is None
            else _mutate_state(entry, self.state, n, self.rng)
            for _ in range(size)
        ]
        if nu is not None:
            for candidate in batch:
                candidate.nu = nu
        self.evals += size
        return batch

    def move(self, batch: list, verdicts: list, tol: float) -> Optional[tuple]:
        """Climb to the batch's lowest relative gap (the first proposed on a
        tie) and return that pick as (verdict, lane, step, position), or None
        when the hypothesis rejected the whole batch."""
        step = self.steps
        self.steps += 1
        scored = [(v.relative_gap, i) for i, v in enumerate(verdicts) if v is not None]
        if not scored:
            return None
        _, pick = min(scored)
        verdict = verdicts[pick]
        # hill-climb on the relative gap; rare uphill accepts escape plateaus
        if verdict.relative_gap <= self.current_val or self.rng.next_float() < 0.1:
            self.state = batch[pick]
            self.current_val = verdict.relative_gap
            # a gap within tol of zero is a tight case (often an identity, as
            # at nu in {0, 1}): its sign is rounding noise, so do not climb on
            if abs(self.current_val) <= tol:
                self.state, self.current_val = None, math.inf
        return verdict, self.index, step, pick


def _rank(pick: tuple) -> tuple:
    """The order of a search's picks: the lowest relative gap first, then on
    a tie the lowest lane, that lane's earliest step, the first proposed.
    No part of it depends on which lanes stepped together."""
    verdict, lane, step, position = pick
    return verdict.relative_gap, lane, step, position


def tightness_search(
    ineq_id: str,
    budget: int = 2000,
    seed: int = 0,
    n: int = 2,
    nu: Optional[float] = None,
    tol: float = DEFAULT_TOL,
) -> SearchRecord:
    """Hunt for the smallest relative gap an inequality attains.

    The special id "scalar-lemma" searches the scalar refinement slack over
    (x, nu) instead of operator instances; pass nu to pin the weight, which
    only an entry with a free weight (or the scalar lemma) accepts.

    The budget is split into restart segments of max(50, budget // 8)
    evaluations, the last one shorter, and each segment is a lane: a walk
    from fresh states with its own stream, derive_seed(seed, "search",
    ineq_id, n, k) for lane k.  Each lane step proposes SEARCH_BATCH
    candidates, fresh states after the lane's restart and mutations of its
    current state otherwise, and moves to the lowest relative gap (the first
    proposed on a tie) under the hill-climb's rules.  A step checks the
    candidates of as many live lanes as fill one stack, max(1, stack_rows(n)
    // SEARCH_BATCH) of them: verifier.admit screens each candidate once,
    and the ones it admits are checked as one check_rows call.  A candidate
    its hypothesis rejects still counts as an evaluation, and no lane steps
    past its share, so `evaluations` equals the budget.  The best pick is
    the least under _rank, so the record does not depend on how many lanes
    step together.

    Most mutations move one coordinate, so between steps the search keeps
    each lane's current matrices and maps, and only those, to reuse them;
    both builders are pure functions of their arguments, so reuse changes no
    result.
    """
    _require_int("budget", budget, 1)
    _require_int("seed", seed)
    _require_int("n", n, 1)
    _require_tol(tol)
    if ineq_id == "scalar-lemma":
        return _search_scalar_lemma(budget, seed, nu, tol)
    entry = get_entry(ineq_id)
    if nu is not None and entry.nu_mode != "grid":
        raise ConfigInvalid(
            f"{ineq_id} does not leave its weight free (nu_mode {entry.nu_mode!r}); nu cannot be set"
        )
    restart_every = max(50, budget // 8)
    lanes = [
        _Lane(k, SplitMix64(derive_seed(seed, "search", ineq_id, n, k)), min(restart_every, budget - lo))
        for k, lo in enumerate(range(0, budget, restart_every))
    ]
    width = max(1, stack_rows(n) // SEARCH_BATCH)
    operands: dict = {}
    best = None
    while live := [lane for lane in lanes if lane.evals < lane.budget]:
        stepping = live[:width]
        batches = [lane.propose(entry, n, nu) for lane in stepping]
        verdicts = _check_batch(entry, [st for batch in batches for st in batch], n, tol, operands)
        start = 0
        for lane, batch in zip(stepping, batches):
            pick = lane.move(batch, verdicts[start:start + len(batch)], tol)
            start += len(batch)
            if pick is not None and (best is None or _rank(pick) < _rank(best)):
                best = pick
        kept = {key for lane in live if lane.state is not None for key in _operand_keys(entry, lane.state)}
        operands = {key: operands[key] for key in kept}
    verdict = best[0] if best is not None else None
    return SearchRecord(
        ineq_id=ineq_id,
        evaluations=sum(lane.evals for lane in lanes),
        best_gap=verdict.gap if verdict is not None else math.inf,
        best_relative_gap=verdict.relative_gap if verdict is not None else math.inf,
        holds=verdict is None or bool(verdict.relative_gap >= -tol),
        params=verdict.params if verdict is not None else {},
        confirmed=verdict.confirmed if verdict is not None else None,
    )
