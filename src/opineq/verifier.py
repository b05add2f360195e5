"""The inequality registry and the per-instance checker.

Every displayed inequality is one row of ``_TABLE``, keyed by its base name.
A row holds the whole statement: the bounds kinds its spectral hypothesis
accepts, its parameter domain, its constant (a scalar formula from
``constants``), and a ``sides`` function that builds both sides of the
inequality without the constant; ``check_block`` multiplies the constant
onto the side the row names.  It also says how the suite exercises the
entry.  Adding an inequality means adding one row.

Where a theorem states two conclusions — the map of the mean versus the
mean of the map images — its row has ``both_forms`` set and becomes two
registry entries, suffixed ``-phi-inside`` (right side built from
Phi(A #_nu B)) and ``-phi-outside`` (right side built from
Phi(A) #_nu Phi(B)).

`asserted` marks the entries whose soundness the suite enforces; entries
with asserted=False are computed and reported for diagnosis only.  Three
families are informational by design:

* ``lh-p2-demo`` — the power-monotonicity implication at p = 2, which is
  known to fail and is recorded to demonstrate the caveat;
* ``thm3.3`` (outer-ratio variant) and ``thm2.9-proof`` / ``lee-printed`` —
  printed forms whose constant disagrees with the variant that actually
  holds; both variants are computed so the discrepancy stays visible.

``thm3.4`` is asserted as stated even though random testing refutes it (see
the README); an honest failing verdict is more useful than a silently
weakened check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import constants as C
from .constants import CaseParams, SandwichBounds, kantorovich, weights
from .errors import (
    HypothesisNotMet,
    IncompatibleEntries,
    NonPositiveArgument,
    UnknownInequality,
    WeightOutOfRange,
    ConfigInvalid,
    DegenerateInterval,
    NonHermitianInput,
)
from .linalg import SpectralDecomposition, eigh, hermitize, matrix_power, op_norm, per_matrix, spectral_norm
from .maps import MapSpec, map_plan
from .means import arithmetic_mean, bracket_term, geometric_mean
from .sampler import Instance, verify_instances

DEFAULT_TOL = 1e-9
CERT_ROUNDING = 16.0  # multiple of n * eps * (||lhs|| + ||rhs||) a certified violation must clear
STACK_BYTES = 1 << 19  # bytes of one (T, n, n) operand stack; check_block splits larger groups

NU_GRID = tuple(i / 10.0 for i in range(11))
ALPHA_GRID = (1.0, 1.25, 1.5, 2.0)


class Operands(NamedTuple):
    """What a row's `sides` function reads, for a stack of T cases (T = 1
    included): the pairs (T, n, n) with their spectra, the maps (as one
    maps.map_plan, None where the entry reads no map) and bounds (a list of
    T), the resolved exponents (arrays of T), and the displayed form."""

    A: np.ndarray
    B: np.ndarray
    sA: SpectralDecomposition
    sB: SpectralDecomposition
    phi: Optional[Callable]
    bounds: list
    nu: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    outside: bool


@dataclass(frozen=True)
class RegistryEntry:
    """One inequality: its hypothesis, constant and sides, and how the
    suite exercises it.

    kinds: the bounds kinds the spectral hypothesis accepts.
    sides: Operands -> (lhs, rhs), (T, k, k) stacks with one matrix per
    case, checked as lhs <= c * rhs in Loewner order; a norm inequality
    returns its norms as (T, 1, 1) stacks, for which that order is the
    order of the numbers.  The sides never carry the constant c.
    constant: (bounds, params) -> the scalar c the statement places in
    front of one side.
    domain: (bounds, params) -> None, or the clause of the power range the
    case violates.
    constant_left: c multiplies the left side instead of the right.
    nu_mode: "grid" (the weight is a free parameter), "half" (the display
    fixes nu = 1/2), or "any" (nu does not enter; echoed only).
    p_grid: powers exercised by the default suite — the minimal admissible
    power and minimal + 1.5 where a minimum exists, a documented two-point
    grid for interval-constrained powers.  "2a" means {2 alpha, 2 alpha + 1.5}.
    both_forms: the table row expands into -phi-inside and -phi-outside
    entries; `outside` marks the latter.
    separated: the hypothesis asks M1 < m2 of reverse-Ando bounds, and the
    suite draws them so.
    """

    ineq_id: str
    summary: str
    kinds: tuple[str, ...]
    sides: Callable[[Operands], tuple]
    constant: Callable = C._c_one
    domain: Optional[Callable] = None
    constant_left: bool = False
    uses_phi: bool = True
    nu_mode: str = "grid"
    p_grid: tuple | str = (1.0,)
    needs_alpha: bool = False
    asserted: bool = True
    both_forms: bool = False
    outside: bool = False
    separated: bool = False


ALL_KINDS = C.BOUND_KINDS
COMMON = ("common",)
SANDWICH = C.SANDWICH
A_LOW = ("sandwich_A_low",)
REVERSE = ("reverse_ando",)


# --- domains: None when the case is inside, else the violated clause -------

def _p_is(value):
    return lambda bounds, prm: None if prm.p == value else f"p = {value:g}, got p = {prm.p:g}"


def _p_at_least(lo):
    return lambda bounds, prm: None if prm.p >= lo else f"p >= {lo:g}, got p = {prm.p:g}"


def _p_up_to(hi):
    return lambda bounds, prm: (
        None if 0.0 < prm.p <= hi else f"0 < p <= {hi:g}, got p = {prm.p:g}"
    )


def _p_positive(bounds, prm):
    return None if prm.p > 0.0 else f"p > 0, got p = {prm.p:g}"


def _p_at_least_2alpha(bounds, prm):
    if prm.p >= 2.0 * prm.alpha:
        return None
    return f"p >= 2*alpha, got p = {prm.p:g}, alpha = {prm.alpha:g}"


# --- sides ------------------------------------------------------------------
# Each takes the Operands of a stack (T, n, n) with arrays of T values and
# returns its two sides as stacks, a norm row's as (T, 1, 1) stacks of its
# norms.  Scalar arithmetic runs per case in Python floats, as it would alone.

def _squares(norms):
    return np.array([float(v) ** 2 for v in norms])


def _phi(x, *Xs):
    """The maps applied once to the stacks Xs, which come back mapped."""
    return tuple(x.phi(np.array(Xs)))  # np.stack's copy, with less overhead per array


def _amgm(x):
    return geometric_mean(x.A, x.B, x.nu, x.sA), arithmetic_mean(x.A, x.B, x.nu)


def _power_monotone(x):
    PA, PB = matrix_power(x.A, x.p, x.sA), matrix_power(x.B, x.p, x.sB)
    # the lower operand's power on the left: B's where B is the lower bound
    swap = per_matrix(np.array([b.kind == "sandwich_B_low" for b in x.bounds]))
    return np.where(swap, PB, PA), np.where(swap, PA, PB)


def _choi(x):
    pa, pai = _phi(x, x.A, matrix_power(x.A, -1.0, x.sA))
    return matrix_power(pa, -1.0), pai


def _lemma22_i(x):
    return per_matrix(spectral_norm(x.A @ x.B)), per_matrix(0.25 * _squares(op_norm(x.A + x.B)))


def _lemma22_ii(x):
    a = x.alpha
    lhs = op_norm(matrix_power(x.A, a, x.sA) + matrix_power(x.B, a, x.sB))
    return per_matrix(lhs), per_matrix(op_norm(matrix_power(x.A + x.B, a)))


def _lemma22_iii(x):
    t = _squares(spectral_norm(matrix_power(x.A, 0.5, x.sA) @ matrix_power(x.B, -0.5, x.sB)))
    return x.A, per_matrix(t) * x.B


def _lemma23(x):
    r, r1 = zip(*(weights(nu) for nu in x.nu.tolist()))
    Ai = matrix_power(x.A, -1.0, x.sA)
    Bi = matrix_power(x.B, -1.0, x.sB)
    Si = eigh(Ai)
    defect = arithmetic_mean(Ai, Bi, 0.5) - geometric_mean(Ai, Bi, 0.5, Si)
    k = np.array([kantorovich(math.sqrt(b.hp)) ** e for b, e in zip(x.bounds, r1)])
    scaled = per_matrix(k) * geometric_mean(Ai, Bi, x.nu, Si)
    lhs = per_matrix(np.array([2.0 * v for v in r])) * defect + scaled
    return lhs, arithmetic_mean(Ai, Bi, x.nu)


def _map_domination(x):
    """Phi(A #_nu B) against Phi(A) #_nu Phi(B), from one application of the maps."""
    mapped_mean, pa, pb = _phi(x, geometric_mean(x.A, x.B, x.nu, x.sA), x.A, x.B)
    return mapped_mean, geometric_mean(pa, pb, x.nu)


def _reverse_domination(x):
    mapped_mean, mean_of_maps = _map_domination(x)
    return mean_of_maps, mapped_mean


def _outer(x):
    m, M = zip(*(b.outer() for b in x.bounds))
    return np.array(m), np.array(M)


def _norm_refinement(x):
    m, M = _outer(x)
    plain, fat = _phi(x, arithmetic_mean(x.A, x.B, x.nu), bracket_term(x.A, x.B, m, M, x.nu, (x.sA, x.sB)))
    return per_matrix(op_norm(matrix_power(plain, x.p))), per_matrix(op_norm(matrix_power(fat, x.p)))


def _reverse_power(x, left):
    """Phi^p(left) against (mean block)^p, the mean block taken in the entry's form."""
    if x.outside:
        mapped_left, pa, pb = _phi(x, left, x.A, x.B)
        blocks = np.array([mapped_left, geometric_mean(pa, pb, x.nu)])
    else:
        blocks = x.phi(np.array([left, geometric_mean(x.A, x.B, x.nu, x.sA)]))
    # both blocks raised to p as one stack
    p = np.tile(x.p, 2)
    return tuple(matrix_power(blocks.reshape((-1,) + blocks.shape[-2:]), p).reshape(blocks.shape))


def _reverse_am(x):
    return _reverse_power(x, arithmetic_mean(x.A, x.B, x.nu))


def _reverse_bracket(x):
    m, M = _outer(x)
    return _reverse_power(x, bracket_term(x.A, x.B, m, M, x.nu, (x.sA, x.sB)))


# --- the table --------------------------------------------------------------
# Each row: id, summary, bounds kinds, sides, constant, domain, then where the
# constant sits (right unless constant_left) and how the suite exercises it.

_TABLE: dict[str, RegistryEntry] = {row.ineq_id: row for row in (
    RegistryEntry("amgm", "weighted arithmetic-geometric mean inequality A #_nu B <= A nabla_nu B",
                  ALL_KINDS, _amgm, uses_phi=False),
    RegistryEntry("lin", "reverse AM-GM under a positive unital map: Phi(A nabla B) <= K(h) Phi(A # B)",
                  COMMON, _reverse_am, C._c_lin_power, _p_is(1.0), nu_mode="half"),
    RegistryEntry("lin-squared", "squared reverse AM-GM with constant K(h)^2",
                  COMMON, _reverse_am, C._c_lin_power, _p_is(2.0), nu_mode="half", p_grid=(2.0,),
                  both_forms=True),
    RegistryEntry("lin-power", "reverse AM-GM at powers 0 < p <= 2 with constant K(h)^p",
                  COMMON, _reverse_am, C._c_lin_power, _p_up_to(2.0), nu_mode="half", p_grid=(0.5, 2.0),
                  both_forms=True),
    RegistryEntry("lh", "power monotonicity: X <= Y implies X^p <= Y^p for 0 < p <= 1",
                  SANDWICH, _power_monotone, domain=_p_up_to(1.0), uses_phi=False, nu_mode="any",
                  p_grid=(0.5, 1.0)),
    RegistryEntry("lh-p2-demo", "power monotonicity tried at p = 2 (recorded counterexample feed, not asserted)",
                  SANDWICH, _power_monotone, uses_phi=False, nu_mode="any", p_grid=(2.0,), asserted=False),
    RegistryEntry("thm1.1", "reverse AM-GM at powers p >= 2 with constant ((M+m)^2 / (4^{2/p} M m))^p",
                  COMMON, _reverse_am, C._c_thm11, _p_at_least(2.0), nu_mode="half", p_grid=(2.0, 3.5),
                  both_forms=True),
    RegistryEntry("thm1.2", "bracket reverse inequality at any p > 0, constant max{K(h), (M+m)^2/(4^{2/p}Mm)}^p",
                  COMMON, _reverse_bracket, C._c_thm12, _p_positive, p_grid=(0.5, 2.0), both_forms=True),
    RegistryEntry("thm1.3", "separated-spectra reverse inequality, constant (K(h)/(4^{2/p-1} K^r(h')))^p, p >= 2",
                  A_LOW, _reverse_am, C._c_thm13, _p_at_least(2.0), p_grid=(2.0, 3.5), both_forms=True),
    RegistryEntry("choi", "map of the inverse dominates the inverse of the map: Phi(A)^{-1} <= Phi(A^{-1})",
                  ALL_KINDS, _choi, nu_mode="any"),
    RegistryEntry("lemma2.2-i", "norm bound ||A B|| <= (1/4) ||A + B||^2 for positive A, B",
                  ALL_KINDS, _lemma22_i, uses_phi=False, nu_mode="any"),
    RegistryEntry("lemma2.2-ii", "norm bound ||A^a + B^a|| <= ||(A + B)^a||, exercised for a >= 1",
                  ALL_KINDS, _lemma22_ii, uses_phi=False, nu_mode="any", needs_alpha=True),
    RegistryEntry("lemma2.2-iii", "A <= t B at t = ||A^{1/2} B^{-1/2}||^2 (the norm criterion, checked at its tight constant)",
                  ALL_KINDS, _lemma22_iii, uses_phi=False, nu_mode="any"),
    RegistryEntry("lemma2.3", "scalar refinement transferred to inverses: 2r(AM-GM defect) + K^{r1}(sqrt(h')) (A^{-1} #_nu B^{-1}) <= A^{-1} nabla_nu B^{-1}",
                  SANDWICH, _lemma23, uses_phi=False),
    RegistryEntry("thm2.4", "squared bracket reverse inequality with constant (K(h)/K^{r1}(sqrt(h')))^2",
                  SANDWICH, _reverse_bracket, C._c_cor26, _p_is(2.0), p_grid=(2.0,), both_forms=True),
    RegistryEntry("cor2.6", "bracket reverse inequality at 0 < p <= 2 with constant (K(h)/K^{r1}(sqrt(h')))^p",
                  SANDWICH, _reverse_bracket, C._c_cor26, _p_up_to(2.0), p_grid=(0.5, 2.0), both_forms=True),
    RegistryEntry("thm2.7", "bracket reverse inequality at p >= 2 with constant (K(h)/(4^{2/p-1} K^{r1}(sqrt(h'))))^p",
                  SANDWICH, _reverse_bracket, C._c_thm27, _p_at_least(2.0), p_grid=(2.0, 3.5),
                  both_forms=True),
    RegistryEntry("norm-refinement", "operator-norm refinement: ||Phi^p(A nabla_nu B)|| <= ||Phi^p(bracket)||, p >= 1",
                  COMMON + SANDWICH, _norm_refinement, domain=_p_at_least(1.0), p_grid=(1.0, 2.5)),
    RegistryEntry("zhang", "reverse AM-GM at p >= 4 with constant (K(h)(M^2+m^2)/(4^{2/p} M m))^p",
                  COMMON, _reverse_am, C._c_zhang, _p_at_least(4.0), nu_mode="half", p_grid=(4.0, 5.5),
                  both_forms=True),
    RegistryEntry("zhang-refined", "separated-spectra sharpening of the p >= 4 reverse with divisor K^r(h')",
                  A_LOW, _reverse_am, C._c_zhang_refined, _p_at_least(4.0), p_grid=(4.0, 5.5),
                  both_forms=True),
    RegistryEntry("thm2.9", "bracket form of the p >= 4 reverse with divisor K^r(h') (displayed constant)",
                  SANDWICH, _reverse_bracket, C._c_zhang_refined, _p_at_least(4.0), p_grid=(4.0, 5.5),
                  both_forms=True),
    RegistryEntry("thm2.9-proof", "bracket form of the p >= 4 reverse with the proof-side divisor K^{r1}(sqrt(h'))",
                  SANDWICH, _reverse_bracket, C._c_thm29_proof, _p_at_least(4.0), p_grid=(4.0, 5.5),
                  asserted=False, both_forms=True),
    RegistryEntry("thm2.10", "alpha-interpolated bracket reverse, constant (K^{-r1 a/2}(sqrt(h')) K^{a/2}(h)(M^a+m^a))^{2p/a}/(16 M^p m^p)",
                  SANDWICH, _reverse_bracket, C._c_thm210, _p_at_least_2alpha, p_grid="2a",
                  needs_alpha=True, both_forms=True),
    RegistryEntry("eq217", "map of the geometric mean is dominated: Phi(A # B) <= Phi(A) # Phi(B)",
                  ALL_KINDS, _map_domination, nu_mode="half"),
    RegistryEntry("ando", "weighted map domination: Phi(A #_nu B) <= Phi(A) #_nu Phi(B)",
                  ALL_KINDS, _map_domination),
    RegistryEntry("lee", "reverse of the geometric-mean domination, constant (m+M)/(2 sqrt(mM)) in the cross ratios",
                  REVERSE, _reverse_domination, C._c_lee, nu_mode="half"),
    RegistryEntry("lee-printed", "the same reverse with the constant exactly as printed, (sqrt(M)+sqrt(m))/(2 sqrt(Mm))",
                  REVERSE, _reverse_domination, C._c_lee_printed, nu_mode="half", asserted=False),
    RegistryEntry("seo", "weighted reverse of the map domination with constant K(m, M, nu)^{-1}",
                  REVERSE, _reverse_domination, C._c_seo),
    RegistryEntry("thm3.3", "mean comparison A nabla_nu B >= K^r(h) (A #_nu B) with the outer ratio, as printed",
                  SANDWICH, _amgm, C._c_thm33, constant_left=True, uses_phi=False, asserted=False),
    RegistryEntry("thm3.3-hprime", "mean comparison A nabla_nu B >= K^r(h') (A #_nu B) with the inner ratio",
                  SANDWICH, _amgm, C._c_thm33_hprime, constant_left=True, uses_phi=False),
    RegistryEntry("thm3.4", "claimed sharpening of the weighted reverse by the extra factor K(h)^{-r}",
                  REVERSE, _reverse_domination, C._c_thm34, separated=True),
)}


def _forms(row: RegistryEntry) -> tuple[RegistryEntry, ...]:
    if not row.both_forms:
        return (row,)
    return (
        replace(row, ineq_id=f"{row.ineq_id}-phi-inside",
                summary=row.summary + " (right side from the mapped mean)"),
        replace(row, ineq_id=f"{row.ineq_id}-phi-outside",
                summary=row.summary + " (right side from the mean of map images)", outside=True),
    )


REGISTRY: dict[str, RegistryEntry] = {
    entry.ineq_id: entry for row in _TABLE.values() for entry in _forms(row)
}


def registry_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def get_entry(ineq_id: str) -> RegistryEntry:
    try:
        return REGISTRY[ineq_id]
    except KeyError:
        raise UnknownInequality(f"no registry entry named {ineq_id!r}") from None


def require_hypothesis(
    entry: RegistryEntry, bounds: SandwichBounds, params: CaseParams, comparison: bool = False
) -> None:
    """Raise HypothesisNotMet unless the bounds kind, a separated entry's
    M1 < m2 on reverse-Ando bounds, and the domain admit the case.

    comparison=True also admits `common` bounds everywhere (h' := h) and
    sandwich bounds for entries stated on common bounds (read through the
    outer pair), so constants can be compared on shared bounds.
    """
    widened = comparison and (
        bounds.kind == "common" or (bounds.kind in SANDWICH and entry.kinds == COMMON)
    )
    if bounds.kind not in entry.kinds and not widened:
        raise HypothesisNotMet(
            f"{entry.ineq_id} expects bounds of kind {'/'.join(entry.kinds)}, got {bounds.kind}"
        )
    if entry.separated and bounds.kind == "reverse_ando" and bounds.M1 >= bounds.m2:
        raise HypothesisNotMet(
            f"{entry.ineq_id} requires M1 < m2, got M1 = {bounds.M1:g}, m2 = {bounds.m2:g}"
        )
    clause = entry.domain(bounds, params) if entry.domain is not None else None
    if clause is not None:
        raise HypothesisNotMet(f"{entry.ineq_id} requires {clause}")


def _constant(
    entry: RegistryEntry, bounds: SandwichBounds, params: CaseParams, comparison: bool = False
) -> float:
    """The row's constant, once its hypothesis admits the case.

    A constant that overflows or is not finite (a huge p or bound) raises
    ConfigInvalid: such a case cannot be evaluated, which is not a verdict.
    """
    require_hypothesis(entry, bounds, params, comparison)
    try:
        c = entry.constant(bounds, params)
    except OverflowError:
        c = math.inf
    if not math.isfinite(c):
        raise ConfigInvalid(
            f"{entry.ineq_id}: constant is not finite at p = {params.p:g}, bounds {bounds.to_dict()}"
        )
    return c


def bound_constant(ineq_id: str, bounds: SandwichBounds, params: CaseParams) -> float:
    """Scalar multiplier the inequality places in front of one side (the
    right side unless the entry sets constant_left).

    Accepts registry ids and the bare base names of two-form entries, on the
    entry's own bounds kinds or in comparison mode (see require_hypothesis).
    """
    entry = REGISTRY.get(ineq_id) or _TABLE.get(ineq_id)
    if entry is None:
        raise UnknownInequality(f"no registry entry named {ineq_id!r}")
    return _constant(entry, bounds, params, comparison=True)


@dataclass(frozen=True)
class InequalityCase:
    """One inequality on one instance.  scale multiplies the row's constant,
    on whichever side it sits: the suite's mutation hook, which breaks an
    inequality on purpose to prove the checker notices."""

    ineq_id: str
    instance: Instance
    phi: MapSpec
    params: CaseParams
    scale: float = 1.0


@dataclass(frozen=True)
class Verdict:
    """One case's outcome.  `confirmed` is None when the case holds; on a
    failure it says whether the solver-independent certificate (see
    check_case) backs the violation."""

    ineq_id: str
    lhs_norm: float
    rhs_norm: float
    gap: float
    relative_gap: float
    holds: bool
    seed: int
    params: dict
    confirmed: Optional[bool] = None


def check_case(case: InequalityCase, tol: float = DEFAULT_TOL) -> Verdict:
    """Evaluate one inequality on one instance, as a stack of one case
    (see check_block)."""
    return _check_stack([admit(case)], tol)[0]


def stack_rows(n: int) -> int:
    """Cases of dimension n that one stack holds (see STACK_BYTES)."""
    return max(1, STACK_BYTES // (16 * n * n))


def stack_key(entry: RegistryEntry, n: int) -> tuple:
    """The stack a case of dimension n joins: its entry's sides function and
    form, and n (check_rows adds the map's output dimension)."""
    return entry.sides, entry.outside, n


class _Row(NamedTuple):
    """One case past the per-case gates: its entry, resolved parameters and
    scaled constant."""

    case: InequalityCase
    entry: RegistryEntry
    params: CaseParams
    c: float


def check_block(cases, tol: float = DEFAULT_TOL) -> list[Verdict]:
    """Evaluate many cases, one verdict per case in order.

    Cases whose sides are computed by the same code (the same `sides`
    function and form, the same dimension n, and the same map output
    dimension, since compression rows shrink to k) are evaluated
    together as (T, n, n) stacks of at most stack_rows(n) cases.  Every
    verdict is bit-identical to the one the case gets alone: each gate
    judges each case on its own, a matrix takes its exponent with the bits
    it gets alone (see linalg.matrix_power), and stacked LAPACK and matmul
    calls return what single calls return.
    When several cases fail, the error is the first raised in evaluation
    order, which need not be the first failing case's: every case's
    hypothesis and constant are checked before any stack is evaluated.

    A case's hypothesis and constant are checked first, then the containment
    of its spectra in the hypothesis intervals (one decomposition of A and
    of B per case serves the containment and every power of A and B), then
    the sides.  A side, or their difference, that overflows raises
    ConfigInvalid naming the case.  Every entry, a norm inequality as the
    1 x 1 case, takes the gap lambda_min(D) of D = hermitize(rhs - lhs).
    A failing verdict carries a certificate that does not trust the
    eigensolver: x is the computed lambda_min eigenvector of D, and the
    Rayleigh quotient x*Dx / x*x, an upper bound on lambda_min(D) for any
    x, is evaluated directly.  `confirmed` is True when that value is below
    -tol * (1 + ||rhs||) by more than the rounding allowance
    CERT_ROUNDING * n * eps * (||lhs|| + ||rhs||), with CERT_ROUNDING = 16
    and n the dimension.
    """
    return check_rows([admit(case) for case in cases], tol)


def check_rows(rows, tol: float = DEFAULT_TOL) -> list[Verdict]:
    """check_block for cases that have passed admit: one verdict per row in
    order, the rows grouped and stacked as check_block describes."""
    groups: dict = {}
    for i, row in enumerate(rows):
        phi = row.case.phi
        key = stack_key(row.entry, row.case.instance.n) + (None if phi is None else phi.out_dim,)
        groups.setdefault(key, []).append(i)
    verdicts: list = [None] * len(rows)
    for members in groups.values():
        size = stack_rows(rows[members[0]].case.instance.n)
        for lo in range(0, len(members), size):
            chunk = members[lo:lo + size]
            if len(chunk) == 1:
                # a lone case goes through check_case: perfbench's verifier.accept_ratio divides by its calls
                verdicts[chunk[0]] = check_case(rows[chunk[0]].case, tol)
                continue
            for i, verdict in zip(chunk, _check_stack([rows[i] for i in chunk], tol)):
                verdicts[i] = verdict
    return verdicts


def admit(case: InequalityCase) -> _Row:
    """The per-case gates check_block runs before any stack: the hypothesis,
    a finite constant, a map of the instance's dimension where the entry
    needs one.  Raises the first gate's error, else returns the case's row
    for check_rows.  It is the one place a case's parameters are resolved,
    for the constant, the sides and the echo: a weight the entry fixes reads
    1/2 and an alpha it does not read reads 1."""
    entry = get_entry(case.ineq_id)
    prm = case.params
    params = CaseParams(nu=prm.nu if entry.nu_mode == "grid" else 0.5, p=prm.p,
                        alpha=prm.alpha if entry.needs_alpha else 1.0)
    c = _constant(entry, case.instance.bounds, params) * case.scale
    if entry.uses_phi and case.phi is None:
        raise HypothesisNotMet(f"{entry.ineq_id} needs a positive linear map, got none")
    if case.phi is not None and case.phi.n != case.instance.n:
        raise HypothesisNotMet(
            f"map dimension {case.phi.n} does not match instance dimension {case.instance.n}"
        )
    return _Row(case, entry, params, c)


def _check_stack(rows: list, tol: float) -> list[Verdict]:
    """Verdicts for rows that share one sides function, form and dimension,
    evaluated as one (T, n, n) stack."""
    sides, outside = rows[0].entry.sides, rows[0].entry.outside
    insts = [row.case.instance for row in rows]
    prm = [row.params for row in rows]
    T = len(rows)
    # A over B as one stack: one LAPACK call decomposes both
    AB = np.array([inst.A for inst in insts] + [inst.B for inst in insts])
    A, B = AB[:T], AB[T:]
    nu = np.array([q.nu for q in prm])
    p, alpha = np.array([q.p for q in prm]), np.array([q.alpha for q in prm])
    w, U = eigh(AB)
    sA, sB = SpectralDecomposition(w[:T], U[:T]), SpectralDecomposition(w[T:], U[T:])
    verify_instances(insts, sA[0], sB[0])
    phi = map_plan([row.case.phi for row in rows], A.shape[-1]) if rows[0].entry.uses_phi else None
    left = [row.entry.constant_left for row in rows]
    c = [row.c for row in rows]
    # an overflowing side is reported by the check below, not as a warning;
    # A and B have passed the Hermitian gate, so a side that fails it holds
    # a non-finite intermediate, such as an overflowed power
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lhs, rhs = sides(Operands(
                A, B, sA, sB, phi, [inst.bounds for inst in insts], nu, p, alpha, outside,
            ))
        except NonHermitianInput:
            if T > 1:  # alone, the row that overflows names itself
                return [verdict for row in rows for verdict in _check_stack([row], tol)]
            lhs = rhs = np.full((1, 1, 1), np.nan)
        lhs = _scaled(lhs, c, left)
        rhs = _scaled(rhs, c, [not x for x in left])
        # D = hermitize(rhs - lhs), lhs and rhs as one stack: one LAPACK call
        # gives D's lambda_min and eigenvectors and both sides' norms
        S = np.array([hermitize(rhs - lhs), lhs, rhs])
    finite = np.isfinite(S).all(axis=(0, 2, 3))
    if not finite.all():
        row = rows[int(np.argmin(finite))]
        raise ConfigInvalid(
            f"{row.entry.ineq_id}: a side overflows at p = {row.params.p:g}, "
            f"bounds {row.case.instance.bounds.to_dict()}"
        )
    w, V = eigh(S.reshape((-1,) + S.shape[-2:]))
    w = w.reshape(3, T, -1)
    gap = w[0, :, 0]
    lhs_norm, rhs_norm = np.maximum(abs(w[1:, :, 0]), abs(w[1:, :, -1]))
    relative_gap = gap / (1.0 + rhs_norm)
    verdicts = []
    for i, row, g, rg, ln, rn in zip(
        range(T), rows, gap.tolist(), relative_gap.tolist(), lhs_norm.tolist(), rhs_norm.tolist(),
    ):
        inst, phi = row.case.instance, row.case.phi
        holds = rg >= -tol
        confirmed = None
        if not holds:
            x = V[i][:, 0]
            certified = np.vdot(x, S[0, i] @ x).real / np.vdot(x, x).real
            allowance = CERT_ROUNDING * inst.n * np.finfo(float).eps * (ln + rn)
            confirmed = bool(certified < -tol * (1.0 + rn) - allowance)
        echo = {
            **row.params.to_dict(),
            "map": phi.describe() if phi is not None else "none",
            "bounds": inst.bounds.to_dict(),
        }
        verdicts.append(Verdict(row.entry.ineq_id, ln, rn, g, rg, holds, inst.seed, echo, confirmed))
    return verdicts


def _scaled(X, c: list, rows: list):
    """X with the chosen rows multiplied by their constant c."""
    if not any(rows):
        return X
    return np.where(np.reshape(rows, (-1, 1, 1)), np.reshape(c, (-1, 1, 1)) * X, X)


def scalar_lemma_gap(x: float, nu: float) -> float:
    """Slack of the scalar refinement behind the bracket lemmas.

    Returns (1 - nu) + nu x - 2 r ((1+x)/2 - sqrt(x)) - K^{r1}(sqrt(x)) x^nu,
    which is nonnegative for every x > 0 and nu in [0, 1], and identically
    zero at nu in {0, 1/4, 1/2, 3/4, 1}.
    """
    if x <= 0.0:
        raise NonPositiveArgument(f"need x > 0, got {x}")
    r, r1 = weights(nu)
    root = math.sqrt(x)
    return (
        (1.0 - nu)
        + nu * x
        - 2.0 * r * ((1.0 + x) / 2.0 - root)
        - kantorovich(root) ** r1 * x ** nu
    )


@dataclass(frozen=True)
class FCheckReport:
    max_value: float
    mu0: float
    max_deviation: float
    endpoint_residual_lo: float
    endpoint_residual_hi: float
    passed: bool


def scalar_F_check(m: float, M: float, nu: float, grid_size: int) -> FCheckReport:
    """Grid check that F(t) = nu t^{1-nu} + (1-nu) lambda0 t^{-nu} attains
    its maximum mu0 at both endpoints of [m, M]."""
    if m <= 0.0:
        raise NonPositiveArgument(f"need m > 0, got {m}")
    if m >= M:
        raise DegenerateInterval(f"need m < M, got m={m}, M={M}")
    if not 0.0 < nu < 1.0:
        raise WeightOutOfRange(f"need nu strictly inside (0, 1), got {nu}")
    if grid_size < 3:
        raise ConfigInvalid(f"need grid_size >= 3, got {grid_size}")
    gk = C.generalized_kantorovich(m, M, nu)
    ts = np.linspace(m, M, grid_size)
    F = nu * ts ** (1.0 - nu) + (1.0 - nu) * gk.lambda0 * ts ** (-nu)
    fmax = float(np.max(F))
    tol = 1e-9 * (1.0 + gk.mu0)
    report = FCheckReport(
        max_value=fmax,
        mu0=gk.mu0,
        max_deviation=abs(fmax - gk.mu0),
        endpoint_residual_lo=abs(float(F[0]) - gk.mu0),
        endpoint_residual_hi=abs(float(F[-1]) - gk.mu0),
        passed=bool(
            abs(fmax - gk.mu0) <= tol
            and abs(float(F[0]) - gk.mu0) <= tol
            and abs(float(F[-1]) - gk.mu0) <= tol
        ),
    )
    return report


def compare_constants(
    id_a: str, id_b: str, bounds: SandwichBounds, params: CaseParams
) -> float:
    """bound_constant(id_a) / bound_constant(id_b) on a shared hypothesis."""
    try:
        ca = bound_constant(id_a, bounds, params)
        cb = bound_constant(id_b, bounds, params)
    except HypothesisNotMet as exc:
        raise IncompatibleEntries(
            f"cannot compare {id_a} and {id_b} on {bounds.kind} bounds: {exc}"
        ) from exc
    return ca / cb
