"""Kantorovich constants, weights, bounds carriers, bound constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq.constants import (
    BOUND_FIELDS,
    CaseParams,
    SandwichBounds,
    generalized_kantorovich,
    kantorovich,
    weights,
)
from opineq.errors import (
    BadBounds,
    ConfigInvalid,
    DegenerateInterval,
    HypothesisNotMet,
    NonPositiveArgument,
    UnknownInequality,
    WeightOutOfRange,
)

from opineq.verifier import bound_constant

from . import oracles
from .oracles import secant_ratio_min


def test_kantorovich_values():
    assert kantorovich(1.0) == 1.0
    assert kantorovich(2.0) == pytest.approx(1.125, abs=1e-15)
    assert kantorovich(4.0) == pytest.approx(25.0 / 16.0, abs=1e-15)
    with pytest.raises(NonPositiveArgument):
        kantorovich(0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_kantorovich_symmetry_and_lower_bound(h):
    assert kantorovich(h) == pytest.approx(kantorovich(1.0 / h), rel=1e-12)
    assert kantorovich(h) >= 1.0 - 1e-15


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=1.001, max_value=2.0))
def test_kantorovich_increasing_above_one(h, factor):
    assert kantorovich(h * factor) > kantorovich(h)


def test_weights_table():
    assert weights(0.5) == (0.5, 0.0)
    assert weights(0.25) == (0.25, 0.5)
    assert weights(0.0) == (0.0, 0.0)
    assert weights(1.0) == (0.0, 0.0)
    r, r1 = weights(0.375)
    assert r == pytest.approx(0.375)
    assert r1 == pytest.approx(0.25)
    with pytest.raises(WeightOutOfRange):
        weights(1.2)


def test_generalized_kantorovich_hand_values():
    gk = generalized_kantorovich(1.0, 4.0, 0.5)
    assert gk.K == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-14)
    assert gk.K == pytest.approx(0.9428090415820634, abs=1e-15)
    assert gk.mu0 == pytest.approx(1.5, abs=1e-14)
    assert gk.lambda0 == pytest.approx(2.0, abs=1e-14)


def test_generalized_kantorovich_half_closed_form():
    for m, M in ((1.0, 4.0), (0.3, 2.0), (2.0, 50.0)):
        gk = generalized_kantorovich(m, M, 0.5)
        closed = 2.0 * (m * M) ** 0.25 / (math.sqrt(m) + math.sqrt(M))
        assert gk.K == pytest.approx(closed, rel=1e-13)


def test_generalized_kantorovich_companion_identities():
    # K = lambda0^(1-nu) / mu0  and the secant-coefficient form
    for m, M, nu in ((1.0, 4.0, 0.5), (0.5, 3.0, 0.3), (2.0, 9.0, 0.8)):
        gk = generalized_kantorovich(m, M, nu)
        assert gk.K == pytest.approx(gk.lambda0 ** (1.0 - nu) / gk.mu0, rel=1e-12)
        b = (M ** nu - m ** nu) / (M - m)
        a = m ** nu - b * m
        coeff = a ** (1 - nu) * b ** nu / ((1 - nu) ** (1 - nu) * nu ** nu)
        assert gk.K == pytest.approx(coeff, rel=1e-12)


def test_generalized_kantorovich_endpoints_and_errors():
    assert generalized_kantorovich(1.0, 4.0, 0.0).K == 1.0
    assert generalized_kantorovich(1.0, 4.0, 1.0).K == 1.0
    # limiting companions: logarithmic mean at nu = 0
    gk0 = generalized_kantorovich(1.0, 4.0, 0.0)
    assert gk0.mu0 == pytest.approx(3.0 / math.log(4.0), rel=1e-13)
    with pytest.raises(NonPositiveArgument):
        generalized_kantorovich(0.0, 4.0, 0.5)
    with pytest.raises(DegenerateInterval):
        generalized_kantorovich(2.0, 2.0, 0.5)
    with pytest.raises(BadBounds):
        generalized_kantorovich(4.0, 1.0, 0.5)
    with pytest.raises(WeightOutOfRange):
        generalized_kantorovich(1.0, 4.0, 1.5)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=1.01, max_value=40.0),
    st.floats(min_value=0.02, max_value=0.98),
)
def test_generalized_kantorovich_vs_secant_oracle(m, ratio, nu):
    M = m * ratio
    gk = generalized_kantorovich(m, M, nu)
    assert gk.K == pytest.approx(secant_ratio_min(m, M, nu), abs=1e-10)
    assert 0.0 < gk.K <= 1.0 + 1e-15


def test_sandwich_bounds_validation():
    b = SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0)
    assert b.h == 4.0
    assert b.hp == pytest.approx(2.0 / 1.5)
    assert b.a_interval() == (2.0, 4.0)
    assert b.b_interval() == (1.0, 1.5)
    assert b.outer() == (1.0, 4.0)
    a = SandwichBounds.sandwich_A_low(1.0, 1.5, 2.0, 4.0)
    assert a.a_interval() == (1.0, 1.5)
    assert a.b_interval() == (2.0, 4.0)
    r = SandwichBounds.reverse_ando(1.0, 1.5, 2.0, 2.5)
    assert r.a_interval() == (1.0, 2.25)
    assert r.b_interval() == (4.0, 6.25)
    with pytest.raises(BadBounds):
        SandwichBounds.common(-1.0, 4.0)
    with pytest.raises(BadBounds):
        SandwichBounds.sandwich_B_low(1.0, 2.0, 2.0, 4.0)  # needs m' < M'
    with pytest.raises(BadBounds):
        SandwichBounds("nonsense", m=1.0, M=2.0)
    with pytest.raises(BadBounds):
        SandwichBounds.common(1.0, 4.0).hp  # no inner interval
    # a bound is an int or float, numpy scalars included, never a bool or string
    for m in (True, np.True_, "1", 1 + 0j):
        with pytest.raises(BadBounds):
            SandwichBounds("common", m=m, M=4.0)
    for m, M in ((1, 4), (np.float32(1.0), np.int64(4)), (np.float64(1.0), 4.0)):
        assert SandwichBounds("common", m=m, M=M).h == 4.0


def test_sandwich_bounds_roundtrip():
    for b in (
        SandwichBounds.common(0.5, 3.0),
        SandwichBounds.sandwich_A_low(1.0, 1.25, 3.0, 4.0),
        SandwichBounds.reverse_ando(1.0, 1.2, 2.0, 2.5),
    ):
        assert SandwichBounds.from_dict(b.to_dict()) == b


_GOOD_BOUNDS = {
    "common": {"m": 1.0, "M": 4.0},
    "sandwich_B_low": {"m": 1.0, "mp": 1.5, "Mp": 2.0, "M": 4.0},
    "sandwich_A_low": {"m": 1.0, "mp": 1.5, "Mp": 2.0, "M": 4.0},
    "reverse_ando": {"m1": 1.0, "M1": 1.2, "m2": 1.5, "M2": 2.0},
}
_ORDER_VIOLATIONS = {
    "common": [{"m": 0.0}, {"m": 5.0}],
    "sandwich_B_low": [{"m": 0.0}, {"m": 1.6}, {"mp": 2.0}, {"M": 1.9}],
    "sandwich_A_low": [{"m": 0.0}, {"m": 1.6}, {"mp": 2.0}, {"M": 1.9}],
    "reverse_ando": [{"m1": 0.0}, {"m1": 1.3}, {"m2": 0.0}, {"m2": 2.5}],
}


def _bad_bounds():
    """(kind, fields) with one field missing, one field of another kind
    set, or one order clause broken."""
    for kind, good in _GOOD_BOUNDS.items():
        for name in good:
            yield kind, {k: v for k, v in good.items() if k != name}
        for name in BOUND_FIELDS:
            if name not in good:
                yield kind, {**good, name: 1.5}
        for change in _ORDER_VIOLATIONS[kind]:
            yield kind, {**good, **change}


@pytest.mark.parametrize("kind, fields", list(_bad_bounds()))
def test_bounds_missing_stray_or_disordered_fields_raise(kind, fields):
    with pytest.raises(BadBounds):
        SandwichBounds(kind, **fields)
    with pytest.raises(BadBounds):
        SandwichBounds.from_dict({"kind": kind, **fields})


def test_case_params_validation():
    p = CaseParams(nu=0.3, p=2.0, alpha=1.5)
    assert p.to_dict() == {"nu": 0.3, "p": 2.0, "alpha": 1.5}
    with pytest.raises(WeightOutOfRange):
        CaseParams(nu=-0.1)
    with pytest.raises(ConfigInvalid):
        CaseParams(p=-1.0)
    with pytest.raises(ConfigInvalid):
        CaseParams(alpha=2.5)
    # each field is an int or float, numpy scalars included, never a bool or string
    for bad in (True, "0.5", None):
        with pytest.raises(WeightOutOfRange):
            CaseParams(nu=bad)
    for field in ("p", "alpha"):
        for bad in (True, np.True_, "1", None):
            with pytest.raises(ConfigInvalid):
                CaseParams(**{field: bad})
    assert CaseParams(nu=np.float64(0.25), p=np.int64(2), alpha=1).to_dict() == {
        "nu": 0.25, "p": 2, "alpha": 1}


def test_bound_constant_examples():
    common14 = SandwichBounds.common(1.0, 4.0)
    assert bound_constant("lin", common14, CaseParams()) == pytest.approx(25.0 / 16.0)
    assert bound_constant("lin-squared-phi-inside", common14, CaseParams(p=2.0)) == pytest.approx(
        (25.0 / 16.0) ** 2
    )
    # p = 2: ((M+m)^2 / (4 M m))^2 = K(h)^2
    assert bound_constant("thm1.1-phi-outside", common14, CaseParams(p=2.0)) == pytest.approx(
        2.44140625
    )
    sw = SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0)
    # nu = 1/2 makes r1 = 0, so thm2.4's constant collapses to K(h)^2
    assert bound_constant("thm2.4", sw, CaseParams(nu=0.5, p=2.0)) == pytest.approx(2.44140625)
    # seo on reverse bounds: 1 / K((m2/M1)^2, (M2/m1)^2, nu)
    rb = SandwichBounds.reverse_ando(1.0, 1.0, 2.0, 4.0)
    got = bound_constant("seo", rb, CaseParams(nu=0.5))
    assert got == pytest.approx(1.0 / generalized_kantorovich(4.0, 16.0, 0.5).K, rel=1e-13)
    # degenerate ratios m2/M1 = M2/m1 collapse to 1 by the continuity limit
    flat = SandwichBounds.reverse_ando(1.0, 1.0, 2.0, 2.0)
    assert bound_constant("seo", flat, CaseParams(nu=0.5)) == 1.0


def test_bound_constant_gates():
    common14 = SandwichBounds.common(1.0, 4.0)
    with pytest.raises(HypothesisNotMet):
        bound_constant("thm1.1", common14, CaseParams(p=1.0))  # needs p >= 2
    with pytest.raises(HypothesisNotMet):
        bound_constant("thm2.4", common14, CaseParams(p=1.0))  # squared level only
    with pytest.raises(HypothesisNotMet):
        bound_constant("zhang", common14, CaseParams(p=2.0))  # needs p >= 4
    with pytest.raises(HypothesisNotMet):
        bound_constant("thm2.10", common14, CaseParams(p=2.0, alpha=1.5))  # p >= 2 alpha
    with pytest.raises(HypothesisNotMet):
        bound_constant(
            "thm3.4",
            SandwichBounds.reverse_ando(1.0, 2.0, 1.5, 3.0),  # M1 >= m2
            CaseParams(nu=0.5),
        )
    with pytest.raises(HypothesisNotMet):
        bound_constant("lee", SandwichBounds.sandwich_B_low(1, 1.5, 2, 4), CaseParams())
    with pytest.raises(UnknownInequality):
        bound_constant("nosuch", common14, CaseParams())


def test_bound_constant_comparison_mode():
    # sandwich data feeds common-gated constants through the outer pair
    sw = SandwichBounds.sandwich_B_low(1.0, 1.5, 2.0, 4.0)
    assert bound_constant("thm1.1", sw, CaseParams(p=2.0)) == pytest.approx(2.44140625)
    # common data feeds sandwich constants with h' := h
    common14 = SandwichBounds.common(1.0, 4.0)
    v = bound_constant("thm2.4", common14, CaseParams(nu=0.25, p=2.0))
    expected = (kantorovich(4.0) / kantorovich(2.0) ** 0.5) ** 2
    assert v == pytest.approx(expected, rel=1e-13)


NU_GRID_11 = tuple(i / 10.0 for i in range(11))


@pytest.mark.parametrize("orientation", ["sandwich_B_low", "sandwich_A_low"])
def test_abstract_constant_matches_oracle(orientation):
    """Both thm2.7 forms carry the abstract's constant
    (K(h) / (4^{2/p-1} K^{r1}(sqrt(h'))))^p, transcribed independently."""
    for m, mp, Mp, M in ((0.5, 1.2, 3.0, 9.0), (1.0, 1.0, 1.5, 2.0)):
        bounds = SandwichBounds(orientation, m=m, mp=mp, Mp=Mp, M=M)
        for nu in NU_GRID_11:
            for p in (2.0, 2.5, 3.5, 8.0):
                want = oracles.abstract_constant(m, mp, Mp, M, nu, p)
                for ineq_id in ("thm2.7-phi-inside", "thm2.7-phi-outside"):
                    got = bound_constant(ineq_id, bounds, CaseParams(nu=nu, p=p))
                    assert got == pytest.approx(want, rel=1e-14), (ineq_id, nu, p)


def test_shared_constant_formulas_match_oracle():
    """Rows that share one constant formula still carry their own displays:
    lin is K(h) at p = 1, lin-squared K(h)^2, thm2.4 (K(h)/K^{r1}(sqrt(h')))^2
    and thm3.4 the seo constant times K(h)^{-r} with h = (m2/M1)^2."""
    K = oracles.kantorovich_of
    common = SandwichBounds.common(0.5, 3.0)
    sandwich = SandwichBounds.sandwich_A_low(0.5, 1.2, 3.0, 9.0)
    reverse = SandwichBounds.reverse_ando(1.0, 1.2, 2.0, 2.5)
    for nu in NU_GRID_11:
        r = min(nu, 1.0 - nu)
        r1 = min(2.0 * r, 1.0 - 2.0 * r)
        at_1 = CaseParams(nu=nu, p=1.0)
        at_2 = CaseParams(nu=nu, p=2.0)
        assert bound_constant("lin", common, at_1) == pytest.approx(K(6.0), rel=1e-14)
        for form in ("lin-squared-phi-inside", "lin-squared-phi-outside"):
            assert bound_constant(form, common, at_2) == pytest.approx(K(6.0) ** 2, rel=1e-14)
        thm24 = (K(18.0) / K(math.sqrt(2.5)) ** r1) ** 2
        for form in ("thm2.4-phi-inside", "thm2.4-phi-outside"):
            assert bound_constant(form, sandwich, at_2) == pytest.approx(thm24, rel=1e-14)
        thm34 = bound_constant("seo", reverse, at_1) * K((2.0 / 1.2) ** 2) ** (-r)
        assert bound_constant("thm3.4", reverse, at_1) == pytest.approx(thm34, rel=1e-14)
