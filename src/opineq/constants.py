"""Scalar constants: Kantorovich K(h), its weighted generalization
K(m, M, nu) with the mu0/lambda0 companions, the exponents r and r1, and
the formulas of the per-inequality bound constants (the registry table in
`verifier` pairs each with its entry's hypothesis and sides).

Also home to the two scalar hypothesis carriers, SandwichBounds and
CaseParams, shared by the sampler and the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import (
    BadBounds,
    ConfigInvalid,
    DegenerateInterval,
    NonPositiveArgument,
    WeightOutOfRange,
)

BOUND_KINDS = ("common", "sandwich_B_low", "sandwich_A_low", "reverse_ando")
BOUND_FIELDS = ("m", "mp", "Mp", "M", "m1", "M1", "m2", "M2")


@dataclass(frozen=True)
class SandwichBounds:
    """Scalar spectral hypothesis attached to an instance.

    kind = common:        0 < m <= A, B <= M                      (m, M)
    kind = sandwich_B_low: 0 < m <= B <= m' < M' <= A <= M        (m, mp, Mp, M)
    kind = sandwich_A_low: 0 < m <= A <= m' < M' <= B <= M        (m, mp, Mp, M)
    kind = reverse_ando:  0 < m1^2 <= A <= M1^2, 0 < m2^2 <= B <= M2^2
    """

    kind: str
    m: Optional[float] = None
    mp: Optional[float] = None
    Mp: Optional[float] = None
    M: Optional[float] = None
    m1: Optional[float] = None
    M1: Optional[float] = None
    m2: Optional[float] = None
    M2: Optional[float] = None

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise BadBounds(f"unknown bounds kind {self.kind!r}")
        for name in BOUND_FIELDS:
            v = getattr(self, name)
            if v is not None and not math.isfinite(v):
                raise BadBounds(f"bound {name} must be finite, got {v}")
        if self.kind == "common":
            if self.m is None or self.M is None:
                raise BadBounds("common bounds need m and M")
            if not (0.0 < self.m <= self.M):
                raise BadBounds(f"need 0 < m <= M, got m={self.m}, M={self.M}")
        elif self.kind in ("sandwich_B_low", "sandwich_A_low"):
            vals = (self.m, self.mp, self.Mp, self.M)
            if any(v is None for v in vals):
                raise BadBounds("sandwich bounds need m, mp, Mp, M")
            if not (0.0 < self.m <= self.mp < self.Mp <= self.M):
                raise BadBounds(
                    f"need 0 < m <= m' < M' <= M, got {self.m}, {self.mp}, "
                    f"{self.Mp}, {self.M}"
                )
        else:
            vals = (self.m1, self.M1, self.m2, self.M2)
            if any(v is None for v in vals):
                raise BadBounds("reverse_ando bounds need m1, M1, m2, M2")
            if not (0.0 < self.m1 <= self.M1 and 0.0 < self.m2 <= self.M2):
                raise BadBounds(
                    f"need 0 < m1 <= M1 and 0 < m2 <= M2, got "
                    f"{self.m1}, {self.M1}, {self.m2}, {self.M2}"
                )

    @classmethod
    def common(cls, m: float, M: float) -> "SandwichBounds":
        return cls("common", m=float(m), M=float(M))

    @classmethod
    def sandwich_B_low(cls, m, mp, Mp, M) -> "SandwichBounds":
        return cls("sandwich_B_low", m=float(m), mp=float(mp), Mp=float(Mp), M=float(M))

    @classmethod
    def sandwich_A_low(cls, m, mp, Mp, M) -> "SandwichBounds":
        return cls("sandwich_A_low", m=float(m), mp=float(mp), Mp=float(Mp), M=float(M))

    @classmethod
    def reverse_ando(cls, m1, M1, m2, M2) -> "SandwichBounds":
        return cls("reverse_ando", m1=float(m1), M1=float(M1), m2=float(m2), M2=float(M2))

    @property
    def h(self) -> float:
        """Outer condition ratio M/m (common and sandwich kinds)."""
        if self.kind == "reverse_ando":
            raise BadBounds("h = M/m is not defined for reverse_ando bounds")
        return self.M / self.m

    @property
    def hp(self) -> float:
        """Inner condition ratio M'/m' (sandwich kinds)."""
        if self.kind not in ("sandwich_B_low", "sandwich_A_low"):
            raise BadBounds("h' = M'/m' needs sandwich bounds")
        return self.Mp / self.mp

    def a_interval(self) -> tuple[float, float]:
        if self.kind == "common":
            return (self.m, self.M)
        if self.kind == "sandwich_B_low":
            return (self.Mp, self.M)
        if self.kind == "sandwich_A_low":
            return (self.m, self.mp)
        return (self.m1 ** 2, self.M1 ** 2)

    def b_interval(self) -> tuple[float, float]:
        if self.kind == "common":
            return (self.m, self.M)
        if self.kind == "sandwich_B_low":
            return (self.m, self.mp)
        if self.kind == "sandwich_A_low":
            return (self.Mp, self.M)
        return (self.m2 ** 2, self.M2 ** 2)

    def outer(self) -> tuple[float, float]:
        """The (m, M) pair entering K(h) and the bracket term."""
        if self.kind == "reverse_ando":
            raise BadBounds("reverse_ando bounds have no outer (m, M) pair")
        return (self.m, self.M)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in BOUND_FIELDS:
            v = getattr(self, f)
            if v is not None:
                d[f] = v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SandwichBounds":
        kind = d.get("kind")
        fields = {k: d[k] for k in BOUND_FIELDS if k in d}
        return cls(kind, **fields)


@dataclass(frozen=True)
class CaseParams:
    """Per-case exponents: the mean weight nu, the outer power p, and the
    interpolation exponent alpha (only one theorem family uses alpha)."""

    nu: float = 0.5
    p: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.nu <= 1.0:
            raise WeightOutOfRange(f"nu must be in [0, 1], got {self.nu}")
        # alpha before p: an entry may derive p from alpha (p = 2 alpha)
        if not 1.0 <= self.alpha <= 2.0:
            raise ConfigInvalid(f"alpha must be in [1, 2], got {self.alpha}")
        if not 0.0 <= self.p < math.inf:
            raise ConfigInvalid(f"p must be finite and >= 0, got {self.p}")

    def to_dict(self) -> dict:
        return {"nu": self.nu, "p": self.p, "alpha": self.alpha}


def kantorovich(h: float) -> float:
    """K(h) = (1+h)^2 / (4h); >= 1 with equality iff h = 1, and K(h) = K(1/h)."""
    if h <= 0.0:
        raise NonPositiveArgument(f"Kantorovich constant needs h > 0, got {h}")
    return (1.0 + h) ** 2 / (4.0 * h)


def weights(nu: float) -> tuple[float, float]:
    """(r, r1) = (min{nu, 1-nu}, min{2r, 1-2r})."""
    if not 0.0 <= nu <= 1.0:
        raise WeightOutOfRange(f"nu must be in [0, 1], got {nu}")
    r = min(nu, 1.0 - nu)
    r1 = min(2.0 * r, 1.0 - 2.0 * r)
    return r, r1


class GeneralizedKantorovich(NamedTuple):
    K: float
    mu0: float
    lambda0: float


def generalized_kantorovich(m: float, M: float, nu: float) -> GeneralizedKantorovich:
    """The nu-weighted reverse constant K(m, M, nu) with its companions.

    Closed form::

        K(m,M,nu) = (m M^nu - M m^nu) / ((nu-1)(M-m))
                    * ((nu-1)/nu * (M^nu - m^nu) / (m M^nu - M m^nu))^nu

    together with mu0 = nu (M-m)/(M^nu - m^nu) and
    lambda0 = nu/(1-nu) * (M^{1-nu} - m^{1-nu}) / (m^{-nu} - M^{-nu}).
    Equals the minimum over [m, M] of (secant of x^nu through the interval
    endpoints) / x^nu, so 0 < K <= 1.

    nu = 0 or 1 returns K = 1 (the continuity limit; the closed form is 0/0
    there), with mu0 and lambda0 also taken as limits.
    """
    if m <= 0.0:
        raise NonPositiveArgument(f"need m > 0, got {m}")
    if m == M:
        raise DegenerateInterval("K(m, M, nu) needs m < M")
    if m > M:
        raise BadBounds(f"need m < M, got m={m}, M={M}")
    if not 0.0 <= nu <= 1.0:
        raise WeightOutOfRange(f"nu must be in [0, 1], got {nu}")
    if nu == 0.0:
        lim = (M - m) / math.log(M / m)
        return GeneralizedKantorovich(1.0, lim, lim)
    if nu == 1.0:
        return GeneralizedKantorovich(
            1.0, 1.0, m * M * math.log(M / m) / (M - m)
        )
    mu0 = nu * (M - m) / (M ** nu - m ** nu)
    lambda0 = (nu / (1.0 - nu)) * (M ** (1 - nu) - m ** (1 - nu)) / (
        m ** (-nu) - M ** (-nu)
    )
    lead = (m * M ** nu - M * m ** nu) / ((nu - 1.0) * (M - m))
    inner = ((nu - 1.0) / nu) * (M ** nu - m ** nu) / (m * M ** nu - M * m ** nu)
    K = lead * inner ** nu
    return GeneralizedKantorovich(K, mu0, lambda0)


# ---------------------------------------------------------------------------
# Per-inequality bound constants.
#
# Each `_c_*` function evaluates one registry entry's constant from its
# bounds and case parameters; the registry table in `verifier` pairs it
# with the entry's hypothesis and sides.  The two displayed conclusions of a
# theorem (map of the mean vs. mean of the map images) share one constant.
# Besides an entry's own bounds kinds, comparisons also evaluate constants on
# `common` bounds, reading h' := h (the degenerate sandwich m = m', M' = M)
# and, for the reverse-Ando family, reading (m, M) as the relevant
# condition data directly (h := M/m).
# ---------------------------------------------------------------------------

SANDWICH = ("sandwich_B_low", "sandwich_A_low")


def _hp_of(bounds: SandwichBounds) -> float:
    if bounds.kind in SANDWICH:
        return bounds.hp
    return bounds.h  # common bounds: h' := h


def _c_lin_power(bounds, prm):
    return kantorovich(bounds.h) ** prm.p


def _c_thm11(bounds, prm):
    m, M = bounds.outer()
    return ((M + m) ** 2 / (4.0 ** (2.0 / prm.p) * M * m)) ** prm.p


def _c_thm12(bounds, prm):
    m, M = bounds.outer()
    alpha = max(
        (M + m) ** 2 / (4.0 * M * m),
        (M + m) ** 2 / (4.0 ** (2.0 / prm.p) * M * m),
    )
    return alpha ** prm.p


def _c_thm13(bounds, prm):
    r, _ = weights(prm.nu)
    K = kantorovich(bounds.h)
    Kp = kantorovich(_hp_of(bounds))
    return (K / (4.0 ** (2.0 / prm.p - 1.0) * Kp ** r)) ** prm.p


def _c_cor26(bounds, prm):
    _, r1 = weights(prm.nu)
    return (
        kantorovich(bounds.h) / kantorovich(math.sqrt(_hp_of(bounds))) ** r1
    ) ** prm.p


def _c_thm27(bounds, prm):
    _, r1 = weights(prm.nu)
    K = kantorovich(bounds.h)
    Ks = kantorovich(math.sqrt(_hp_of(bounds)))
    return (K / (4.0 ** (2.0 / prm.p - 1.0) * Ks ** r1)) ** prm.p


def _c_zhang(bounds, prm):
    m, M = bounds.outer()
    K = kantorovich(bounds.h)
    return (K * (M * M + m * m) / (4.0 ** (2.0 / prm.p) * M * m)) ** prm.p


def _c_zhang_refined(bounds, prm):
    m, M = bounds.outer()
    r, _ = weights(prm.nu)
    K = kantorovich(bounds.h)
    Kp = kantorovich(_hp_of(bounds))
    return (K * (M * M + m * m) / (4.0 ** (2.0 / prm.p) * M * m * Kp ** r)) ** prm.p


def _c_thm29_proof(bounds, prm):
    m, M = bounds.outer()
    _, r1 = weights(prm.nu)
    K = kantorovich(bounds.h)
    Ks = kantorovich(math.sqrt(_hp_of(bounds)))
    return (K * (M * M + m * m) / (4.0 ** (2.0 / prm.p) * M * m * Ks ** r1)) ** prm.p


def _c_thm210(bounds, prm):
    a = prm.alpha
    m, M = bounds.outer()
    _, r1 = weights(prm.nu)
    K = kantorovich(bounds.h)
    Ks = kantorovich(math.sqrt(_hp_of(bounds)))
    num = (Ks ** (-r1 * a / 2.0) * K ** (a / 2.0) * (M ** a + m ** a)) ** (2.0 * prm.p / a)
    return num / (16.0 * M ** prm.p * m ** prm.p)


def _reverse_ratios(bounds: SandwichBounds) -> tuple[float, float]:
    """(m2/M1, M2/m1): the unsquared cross ratios of a reverse-Ando pair.

    In comparison mode (m, M) bound the condition operator directly, so the
    ratios are (sqrt(m), sqrt(M)).
    """
    if bounds.kind == "reverse_ando":
        return (bounds.m2 / bounds.M1, bounds.M2 / bounds.m1)
    return (math.sqrt(bounds.m), math.sqrt(bounds.M))


def _gk_inv(lo: float, hi: float, nu: float) -> float:
    if lo == hi:
        return 1.0  # continuity limit of K(m, M, nu) as M -> m
    return 1.0 / generalized_kantorovich(lo, hi, nu).K


def _c_lee(bounds, prm):
    mm, MM = _reverse_ratios(bounds)
    return (mm + MM) / (2.0 * math.sqrt(mm * MM))


def _c_lee_printed(bounds, prm):
    mm, MM = _reverse_ratios(bounds)
    return (math.sqrt(MM) + math.sqrt(mm)) / (2.0 * math.sqrt(MM * mm))


def _c_seo(bounds, prm):
    if bounds.kind == "reverse_ando":
        mm, MM = _reverse_ratios(bounds)
        return _gk_inv(mm ** 2, MM ** 2, prm.nu)
    return _gk_inv(bounds.m, bounds.M, prm.nu)


def _c_thm33(bounds, prm):
    r, _ = weights(prm.nu)
    return kantorovich(bounds.h) ** r


def _c_thm33_hprime(bounds, prm):
    r, _ = weights(prm.nu)
    return kantorovich(_hp_of(bounds)) ** r


def _c_thm34(bounds, prm):
    r, _ = weights(prm.nu)
    # comparison mode pins h := M/m
    h = bounds.m2 ** 2 / bounds.M1 ** 2 if bounds.kind == "reverse_ando" else bounds.h
    return _c_seo(bounds, prm) * kantorovich(h) ** (-r)


def _c_one(bounds, prm):
    return 1.0
