"""Suite runner and tightness search.

run_suite turns a SuiteConfig into a Report deterministically: every case
is constructed from seeds derived by name from the master seed, so the
report depends only on the configuration (the worker count splits the
computation but never enters a seed or the config hash).

tightness_search drives the relative gap of one inequality toward zero
from above by random-restart coordinate moves over everything the
hypothesis leaves free: eigenvalue placements inside their intervals,
eigenvector frames (including aligning the two frames so the pair
commutes), the bounds themselves, the map, and the exponents.  Each step
proposes a batch of SEARCH_BATCH candidates, builds their matrices and maps
as stacks, passes each through verifier.admit once and checks the admitted
ones as one check_rows call, and moves to the best.
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
    stack_rows,
)

DEFAULT_DIMS = (2, 3, 5)
DEFAULT_TRIALS = 100


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigInvalid(f"tol must be finite and >= 0, got {tol}")


@dataclass(frozen=True)
class SuiteConfig:
    """Everything that determines a suite run (and hence its report).

    ids=None means the full registry.  trials counts cases per (id, n)
    pair.  nu_grid / p_grid / alpha_grid, when given, replace the built-in
    parameter grids; fixed_bounds replaces the per-case bounds draw.
    mutate maps registry ids to factors applied to the row's constant —
    a deliberate fault injection used to prove the checker notices.
    workers parallelizes the run without affecting the output.
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
        if self.trials < 0:
            raise ConfigInvalid(f"trials must be >= 0, got {self.trials}")
        if self.workers < 1:
            raise ConfigInvalid(f"workers must be >= 1, got {self.workers}")
        _require_tol(self.tol)
        if not self.dims:
            raise ConfigInvalid("dims must be nonempty")
        for n in self.dims:
            if not isinstance(n, int) or n < 1:
                raise ConfigInvalid(f"dimensions must be integers >= 1, got {n!r}")
        ids = self.resolved_ids()
        for name, values in (("ids", ids), ("dims", self.dims)):
            if len(set(values)) != len(values):
                raise ConfigInvalid(f"{name} must not repeat, got {list(values)}")
        for grid_name in ("nu_grid", "p_grid", "alpha_grid"):
            grid = getattr(self, grid_name)
            if grid is not None and len(grid) == 0:
                raise ConfigInvalid(f"{grid_name} must be nonempty when given")
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
    nu_grid = cfg.nu_grid if cfg.nu_grid is not None else NU_GRID
    alpha_grid = cfg.alpha_grid if cfg.alpha_grid is not None else ALPHA_GRID
    nu = nu_grid[trial % len(nu_grid)] if entry.nu_mode == "grid" else 0.5
    alpha = alpha_grid[trial % len(alpha_grid)] if entry.needs_alpha else 1.0
    p_grid = cfg.p_grid if cfg.p_grid is not None else _p_grid(entry, alpha)
    return CaseParams(nu=nu, p=p_grid[trial % len(p_grid)], alpha=alpha)


def _p_grid(entry: RegistryEntry, alpha: float) -> tuple[float, ...]:
    """The entry's powers; the "2a" grid is (2 alpha, 2 alpha + 1.5)."""
    return (2.0 * alpha, 2.0 * alpha + 1.5) if entry.p_grid == "2a" else entry.p_grid


def _block_cases(cfg: SuiteConfig, entry: RegistryEntry, n: int) -> list[InequalityCase]:
    """The block's cases in trial order, their instances and their maps'
    frames each drawn as one stack.  They are not verified here: check_block
    verifies each before checking it."""
    seeds = [derive_seed(cfg.seed, entry.ineq_id, n, t) for t in range(cfg.trials)]
    bounds = [
        cfg.fixed_bounds if cfg.fixed_bounds is not None else _draw_bounds(
            entry, entry.kinds[t % len(entry.kinds)], SplitMix64(derive_seed(s, "bounds")))
        for t, s in enumerate(seeds)
    ]
    instances = stack_instances(
        bounds, n, [derive_seed(s, "instance") for s in seeds], cfg.force_endpoints
    )
    phis = random_maps(
        n, [MAP_KINDS[t % len(MAP_KINDS)] for t in range(cfg.trials)],
        [derive_seed(s, "map") for s in seeds],
    ) if entry.uses_phi else [None] * cfg.trials
    return [
        InequalityCase(ineq_id=entry.ineq_id, instance=instance, phi=phi,
                       params=_case_params(cfg, entry, t))
        for t, (instance, phi) in enumerate(zip(instances, phis))
    ]


def _groups(cfg: SuiteConfig) -> list[tuple[tuple[str, int], ...]]:
    """The (id, n) blocks grouped by the code that computes their sides: the
    entry's sides function and form, and n.  Each group is checked as stacks
    and is one task under --workers."""
    groups: dict = {}
    for ineq_id in cfg.resolved_ids():
        entry = get_entry(ineq_id)
        for n in cfg.dims:
            groups.setdefault((entry.sides, entry.outside, n), []).append((ineq_id, n))
    return [tuple(blocks) for blocks in groups.values()]


def _run_group(cfg: SuiteConfig, blocks: tuple[tuple[str, int], ...]) -> list[dict]:
    """Report rows of a group's blocks.  Blocks are drawn one at a time and
    checked once about a stack's worth of cases is pending, so a group holds
    at most one stack plus one block of instances."""
    out, pending = [], []
    for ineq_id, n in blocks:
        cases = _block_cases(cfg, get_entry(ineq_id), n)
        pending += [(ineq_id, n, trial, case) for trial, case in enumerate(cases)]
        if len(pending) >= stack_rows(n):
            out += _check_pending(cfg, pending)
            pending = []
    return out + _check_pending(cfg, pending)


def _check_pending(cfg: SuiteConfig, pending: list) -> list[dict]:
    cases = [case for _, _, _, case in pending]
    scales = [cfg.mutate.get(ineq_id, 1.0) for ineq_id, _, _, _ in pending]
    try:
        verdicts = check_block(cases, cfg.tol, scales)
    except OpineqError:
        _raise_first_failure(cfg, pending)
        raise
    out = []
    for (ineq_id, n, trial, case), verdict in zip(pending, verdicts):
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


def _raise_first_failure(cfg: SuiteConfig, pending: list) -> None:
    """Re-check the cases one at a time and raise the first one's error, of
    its own class, naming its id, n and trial."""
    for ineq_id, n, trial, case in pending:
        try:
            check_case(case, cfg.tol, cfg.mutate.get(ineq_id, 1.0))
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
    ids = cfg.resolved_ids()
    groups = _groups(cfg)
    if cfg.workers > 1 and len(groups) > 1:
        serial_cfg = replace(cfg, workers=1)
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_run_group, itertools.repeat(serial_cfg), groups, chunksize=1))
    else:
        results = [_run_group(cfg, g) for g in groups]
    cases = [row for block in results for row in block]
    cases.sort(key=lambda row: (row["id"], row["n"], row["trial"]))
    for row in cases:
        del row["trial"]
    summary = []
    asserted_failures = 0
    for ineq_id in sorted(ids):
        rows = [row for row in cases if row["id"] == ineq_id]
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
SEARCH_BATCH = 16  # candidates a search step proposes and checks as one check_rows call


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


def _search_scalar_lemma(budget: int, seed: int, nu: Optional[float]) -> SearchRecord:
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
        holds=best >= -DEFAULT_TOL,
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


def _built(operands: dict, keys: list, build) -> list:
    """The operand of each key: taken from `operands` when the search built
    it since the last restart, else built; all new ones come from one
    build(*columns) call over the new keys' columns.  Keys are (spectrum,
    frame seed) for matrices and (kind, seed) for maps, so they never
    collide."""
    new = [key for key in dict.fromkeys(keys) if key not in operands]
    if new:
        operands.update(zip(new, build(*zip(*new))))
    return [operands[key] for key in keys]


def _check_batch(entry: RegistryEntry, batch: list, n: int, tol: float, operands: dict) -> list:
    """The batch's verdicts in order, None for a candidate its hypothesis
    rejects.  verifier.admit screens each candidate once, and the rows it
    admits are checked as one check_rows call."""
    size = len(batch)
    pairs = _built(operands, [(st.lamA, st.frameA) for st in batch]
                   + [(st.lamB, st.frameA if st.aligned else st.frameB) for st in batch],
                   build_from_spectra)
    phis = _built(operands, [(st.map_kind, st.map_seed) for st in batch],
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

    Each step proposes SEARCH_BATCH candidates, fresh states after a restart
    and mutations of the current state otherwise; verifier.admit screens
    each once, and the ones it admits are checked as one check_rows call.
    The batch's lowest relative gap (the first on a tie) is the step's move.
    A candidate its hypothesis rejects still counts as an evaluation, and a
    batch never straddles a restart or the end of the budget, so
    `evaluations` equals the budget.

    Most mutations move one coordinate, so the search keeps the matrices
    and maps it built since the last restart and reuses them; both builders
    are pure functions of their arguments, so reuse changes no result.
    """
    if budget < 1:
        raise ConfigInvalid(f"budget must be >= 1, got {budget}")
    if not isinstance(n, int) or n < 1:
        raise ConfigInvalid(f"n must be an integer >= 1, got {n!r}")
    _require_tol(tol)
    if ineq_id == "scalar-lemma":
        return _search_scalar_lemma(budget, seed, nu)
    entry = get_entry(ineq_id)
    if nu is not None and entry.nu_mode != "grid":
        raise ConfigInvalid(
            f"{ineq_id} does not leave its weight free (nu_mode {entry.nu_mode!r}); nu cannot be set"
        )
    rng = SplitMix64(derive_seed(seed, "search", ineq_id, n))
    restart_every = max(50, budget // 8)
    best_val = math.inf
    best_verdict = None
    state = None
    current_val = math.inf
    operands: dict = {}
    evals = 0
    while evals < budget:
        if evals % restart_every == 0:
            state = None
        if state is None:
            operands.clear()
            current_val = math.inf
        size = min(SEARCH_BATCH, budget - evals, restart_every - evals % restart_every)
        batch = [
            _fresh_state(entry, n, rng) if state is None else _mutate_state(entry, state, n, rng)
            for _ in range(size)
        ]
        if nu is not None:
            for candidate in batch:
                candidate.nu = nu
        verdicts = _check_batch(entry, batch, n, tol, operands)
        evals += size
        scored = [(v.relative_gap, i) for i, v in enumerate(verdicts) if v is not None]
        if not scored:
            continue
        _, pick = min(scored)  # a tie goes to the first proposed
        verdict = verdicts[pick]
        # hill-climb on the relative gap; rare uphill accepts escape plateaus
        if verdict.relative_gap <= current_val or rng.next_float() < 0.1:
            state = batch[pick]
            current_val = verdict.relative_gap
            # a gap within tol of zero is a tight case (often an identity, as
            # at nu in {0, 1}): its sign is rounding noise, so do not climb on
            if abs(current_val) <= tol:
                state = None
        if verdict.relative_gap < best_val:
            best_val = verdict.relative_gap
            best_verdict = verdict
    return SearchRecord(
        ineq_id=ineq_id,
        evaluations=evals,
        best_gap=best_verdict.gap if best_verdict is not None else math.inf,
        best_relative_gap=best_val,
        holds=bool(best_val >= -tol),
        params=best_verdict.params if best_verdict is not None else {},
        confirmed=best_verdict.confirmed if best_verdict is not None else None,
    )
