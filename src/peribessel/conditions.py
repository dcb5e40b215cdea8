"""Arithmetic predicates on the index tuples (s, t, p, q, n).

Covers the Lebesgue-conjugate exponent, the continuous-embedding conditions
between H^s_p and H^t_q, and the four Strichartz-type hypotheses under which
the multiplier space between H^s_p and H^(-t)_q is described by an
intersection of two spaces.  Those four cases are a strict gate plus the two
embedding conditions, applied to the tuple (s, t, p, q') and to its dual
(t, s, q', p), the indices of the adjoint multiplier.

Comparisons are exact: integers and :class:`fractions.Fraction` inputs stay in
rational arithmetic, conjugate exponents are always computed as exact
rationals, and float smoothness/integrability values are compared with zero
tolerance (Python compares Fraction against float exactly).  Boundary cases
such as s = n/p are therefore decided by the stated strict/non-strict
inequalities, never by a fuzz factor; callers who care about boundaries
should pass exact rationals such as Fraction("4/3").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

_STRICHARTZ_TAGS = ("strich-1", "strich-2", "strich-3", "strich-4")
_EMBEDDING_TAGS = ("emb-1", "emb-2")


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a hypothesis check: which case held, or why none did."""

    holds: bool
    case_tag: str
    detail: str

    def __post_init__(self):
        if self.holds == (self.case_tag == "none"):
            raise ValueError("case_tag must be 'none' exactly when holds is false")
        if self.case_tag not in _STRICHARTZ_TAGS + _EMBEDDING_TAGS + ("none",):
            raise ValueError(f"unknown case tag {self.case_tag!r}")


def _exact(x):
    """Integers and rationals become Fraction; floats are kept as-is."""
    if isinstance(x, bool):
        raise TypeError("boolean is not a valid exponent or smoothness index")
    if isinstance(x, Rational):
        return Fraction(x)
    return x


def conjugate_exponent(p) -> Fraction:
    """The Lebesgue conjugate p' with 1/p + 1/p' = 1, for p in (1, inf).

    Always returns a Fraction: integers and rationals directly, floats via
    their exact binary value.  A correctly-rounded float division would still
    lose up to (p-1)/2 ulp on the round trip, so the exact route is what makes
    the involution identity hold with no error at all.
    """
    p = _exact(p)
    if isinstance(p, float):
        if not math.isfinite(p):
            raise ValueError(f"conjugate exponent requires finite p, got {p}")
        p = Fraction(p)
    if not p > 1:
        raise ValueError(f"conjugate exponent requires p > 1, got {p}")
    return p / (p - 1)


def _fmt(value) -> str:
    """Compact rendering for verdict details; huge exact fractions go decimal."""
    if isinstance(value, Fraction) and value.denominator > 10 ** 6:
        return repr(float(value))
    return str(value)


def _check_range(name: str, value, low, strict_low: bool = True):
    if strict_low:
        if not value > low:
            raise ValueError(f"{name} must be > {low}, got {value}")
    else:
        if not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def embedding_holds(s, t, p, q, n: int) -> ConditionVerdict:
    """Whether H^s_p embeds continuously into H^t_q on the n-torus.

    Condition 1: p <= q and s - n/p >= t - n/q.  Condition 2: p >= q and
    s >= t.  Condition 1 is checked first, so ties report 'emb-1'.
    """
    s, t, p, q = map(_exact, (s, t, p, q))
    _check_range("p", p, 1)
    _check_range("q", q, 1)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")

    s_gap, t_gap = s - Fraction(n) / p, t - Fraction(n) / q
    exponents, smoothness = f"p = {_fmt(p)}, q = {_fmt(q)}", f"s = {_fmt(s)}, t = {_fmt(t)}"
    gaps = f"s - n/p = {_fmt(s_gap)}, t - n/q = {_fmt(t_gap)}"
    if p <= q and s_gap >= t_gap:
        return ConditionVerdict(True, "emb-1", f"p <= q, s - n/p >= t - n/q: {exponents}, {gaps}")
    if p >= q and s >= t:
        return ConditionVerdict(True, "emb-2", f"p >= q, s >= t: {exponents}, {smoothness}")
    if p <= q:
        detail = f"condition 1: p <= q but s - n/p < t - n/q: {exponents}, {gaps}"
    else:
        detail = f"condition 2: p >= q but s < t: {exponents}, {smoothness}"
    return ConditionVerdict(False, "none", detail)


def strichartz_case(s, t, p, q, n: int) -> ConditionVerdict:
    """Evaluate the four Strichartz-type hypotheses for the multiplier
    description between H^s_p and H^(-t)_q.

    With q' the conjugate of q, cases 1 and 2 are the gate s > n/p plus
    :func:`embedding_holds` conditions 1 and 2 on (s, t, p, q'), examined when
    s >= t.  Cases 3 and 4 are the same on the dual tuple (t, s, q', p), the
    indices of the adjoint M_conj(u) : H^t_q' -> H^(-s)_p', examined when
    t >= s.  For s = t both branches are examined in that order and the first
    satisfied case is reported.  Strict and non-strict inequalities are
    exactly as stated.
    """
    s, t, p, q = map(_exact, (s, t, p, q))
    _check_range("s", s, 0, strict_low=False)
    _check_range("t", t, 0, strict_low=False)
    _check_range("p", p, 1)
    _check_range("q", q, 1)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")

    qc = conjugate_exponent(q)
    failures = []
    for (a, b, x, y), (a_sym, b_sym, x_sym, y_sym), tags in (
        ((s, t, p, qc), ("s", "t", "p", "q'"), _STRICHARTZ_TAGS[:2]),
        ((t, s, qc, p), ("t", "s", "q'", "p"), _STRICHARTZ_TAGS[2:]),
    ):
        if a < b:
            continue
        branch, bound = f"{a_sym} >= {b_sym} branch", Fraction(n) / x
        if not a > bound:
            failures.append(
                f"{branch}: {a_sym} = {_fmt(a)} <= n/{x_sym} = {_fmt(bound)} "
                "(strict inequality required)"
            )
            continue
        gate = f"{a_sym} > n/{x_sym} = {_fmt(bound)}"
        source, target = f"H^{a_sym}_{x_sym}", f"H^{b_sym}_{y_sym}"
        verdict = embedding_holds(a, b, x, y, n)
        reason = f"embedding_holds({a_sym}, {b_sym}, {x_sym}, {y_sym}) gives {verdict.detail}"
        if verdict.holds:
            tag = tags[_EMBEDDING_TAGS.index(verdict.case_tag)]
            return ConditionVerdict(True, tag, f"{gate} and {source} embeds in {target}; {reason}")
        failures.append(f"{branch}: {gate} holds but {source} does not embed in {target}; {reason}")
    return ConditionVerdict(False, "none", "; ".join(failures))
