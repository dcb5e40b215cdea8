import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribessel import ConditionVerdict, conjugate_exponent, embedding_holds, strichartz_case

rationals = st.fractions(min_value=Fraction(0), max_value=Fraction(5))
exponents = st.fractions(min_value=Fraction(11, 10), max_value=Fraction(8))


def test_conjugate_exponent_values():
    assert conjugate_exponent(2) == 2
    assert conjugate_exponent(4) == Fraction(4, 3)
    assert conjugate_exponent(1.5) == pytest.approx(3.0, rel=1e-15)


def test_conjugate_exponent_exact_for_fractions():
    assert conjugate_exponent(Fraction(4, 3)) == 4
    assert isinstance(conjugate_exponent(Fraction(4, 3)), Fraction)


def test_conjugate_exponent_rejects_endpoint():
    for bad in (1, 1.0, 0.5, Fraction(1)):
        with pytest.raises(ValueError):
            conjugate_exponent(bad)
    with pytest.raises(ValueError, match="finite"):
        conjugate_exponent(float("inf"))


@pytest.mark.parametrize("predicate", [embedding_holds, strichartz_case])
def test_predicates_reject_bad_arguments(predicate):
    with pytest.raises(TypeError, match="boolean"):
        predicate(1, 1, True, 2, 1)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        predicate(1, 1, 2, 2, 0)


@given(st.floats(min_value=1.0 + 1e-6, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_conjugate_involution_floats(p):
    assert abs(float(conjugate_exponent(conjugate_exponent(p))) - p) <= 1e-14 * p


@given(exponents)
@settings(max_examples=100, deadline=None)
def test_conjugate_involution_exact(p):
    assert conjugate_exponent(conjugate_exponent(p)) == p


class TestVerdict:
    def test_tag_must_match_holds(self):
        with pytest.raises(ValueError):
            ConditionVerdict(True, "none", "")
        with pytest.raises(ValueError):
            ConditionVerdict(False, "emb-1", "")

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            ConditionVerdict(True, "emb-7", "")


class TestEmbedding:
    def test_identical_spaces(self):
        verdict = embedding_holds(1, 1, 2, 2, 1)
        assert verdict.holds and verdict.case_tag == "emb-1"

    def test_smoothness_for_integrability(self):
        verdict = embedding_holds(1, 0, 2, 6, 2)
        assert verdict.holds and verdict.case_tag == "emb-1"

    def test_fails_both_conditions(self):
        verdict = embedding_holds(0, 1, 2, 2, 1)
        assert not verdict.holds and verdict.case_tag == "none"
        assert "condition" in verdict.detail

    def test_case_two(self):
        verdict = embedding_holds(2, 1, 4, 2, 3)
        assert verdict.holds and verdict.case_tag == "emb-2"

    def test_rejects_exponent_range(self):
        with pytest.raises(ValueError):
            embedding_holds(1, 1, 1, 2, 1)
        with pytest.raises(ValueError):
            embedding_holds(1, 1, 2, Fraction(1), 1)

    @pytest.mark.parametrize(
        "s, t, p",
        [(2, 1, 3), (2, 1, 20), (0, 1, 3), (0, 1, 20)],
        ids=["emb-1", "emb-2", "cond-1", "cond-2"],
    )
    def test_detail_renders_float_conjugates_compactly(self, s, t, p):
        # q' of the float 1.1 is an exact fraction with a 15-digit denominator
        detail = embedding_holds(s, t, p, conjugate_exponent(1.1), 1).detail
        assert "q = 10.999999999999991" in detail
        assert not re.search(r"\d{7,}/\d{7,}", detail)

    @given(rationals, rationals, exponents, exponents, st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_s_and_t(self, s, t, p, q, n):
        base = embedding_holds(s, t, p, q, n).holds
        if base:
            assert embedding_holds(s + 1, t, p, q, n).holds
            assert embedding_holds(s, t - 1, p, q, n).holds


class TestStrichartz:
    def test_balanced_l2_case(self):
        verdict = strichartz_case(1, 1, 2, 2, 1)
        assert verdict.holds
        assert verdict.case_tag == "strich-1"

    @pytest.mark.parametrize(
        "s, t, p, q, opening, embedding",
        [
            (Fraction(11, 10), 1, 2, Fraction(3, 2), "s >= t", "H^s_p does not embed in H^t_q'"),
            (Fraction(9, 10), 1, 4, 4, "t >= s", "H^t_q' does not embed in H^s_p"),
        ],
    )
    def test_refusal_names_branch_and_embedding(self, s, t, p, q, opening, embedding):
        detail = strichartz_case(s, t, p, q, 1).detail
        assert detail.startswith(f"{opening} branch") and embedding in detail

    def test_gate_violation(self):
        verdict = strichartz_case(0.4, 0.1, 2, 2, 1)
        assert not verdict.holds
        assert "strict" in verdict.detail

    def test_case_two(self):
        verdict = strichartz_case(2, 0, 4, 2, 3)
        assert verdict.holds and verdict.case_tag == "strich-2"

    def test_boundary_equality_fails(self):
        # s = n/p exactly: the gate is strict, so exact rationals must refuse
        verdict = strichartz_case(Fraction(1, 2), Fraction(0), 2, 2, 1)
        assert not verdict.holds

    def test_float_boundary_also_exact(self):
        assert not strichartz_case(0.5, 0.0, 2.0, 2.0, 1).holds
        assert strichartz_case(0.5000001, 0.0, 2.0, 2.0, 1).holds

    def test_t_branch(self):
        verdict = strichartz_case(0.4, 1, 2, 2, 1)
        assert verdict.holds and verdict.case_tag == "strich-3"

    def test_rejects_negative_smoothness(self):
        with pytest.raises(ValueError):
            strichartz_case(-0.5, 1, 2, 2, 1)

    # every tag, gate and embedding refusals, and the float boundaries of both
    # gates; a tie s = t examines the s >= t branch first
    @pytest.mark.parametrize(
        "s, t, p, q, n, tag",
        [
            (1, 1, 2, 2, 1, "strich-1"),
            (Fraction(1, 1000), 0, 2, 2, 1, "none"),
            (2, 0, 4, 2, 3, "strich-2"),
            (3, 3, 4, 4, 3, "strich-2"),
            (2, 2, 3, 4, 1, "strich-2"),
            (Fraction(2, 5), 1, 2, 2, 1, "strich-3"),
            (1, Fraction(3, 2), 4, Fraction(4, 3), 2, "strich-3"),
            (1, 2, 2, 3, 1, "strich-3"),
            (0, 2, 2, Fraction(3, 2), 1, "strich-4"),
            (1, 1, 2, Fraction(3, 2), 1, "strich-4"),
            (1, 2, 1.1, 3, 1, "strich-4"),
            (2, 1, 3, 1.1, 1, "strich-1"),
            (Fraction(11, 10), 1, 2, Fraction(3, 2), 1, "none"),
            (Fraction(9, 10), 1, 4, 4, 1, "none"),
            (Fraction(2, 5), Fraction(1, 10), 2, 2, 1, "none"),
            (Fraction(3, 2), 1, Fraction(4, 3), 4, 2, "none"),
            (0, 0, 2, 2, 1, "none"),
            (Fraction(1, 2), 0, 2, 2, 1, "none"),
            (0, Fraction(1, 2), 2, 2, 1, "none"),
            (0.5, 0.0, 2.0, 2.0, 1, "none"),
            (0.5000001, 0.0, 2.0, 2.0, 1, "strich-1"),
            (0.0, 0.5, 2.0, 2.0, 1, "none"),
            (0.0, 0.5000001, 2.0, 2.0, 1, "strich-3"),
        ],
    )
    def test_truth_table(self, s, t, p, q, n, tag):
        verdict = strichartz_case(s, t, p, q, n)
        assert (verdict.holds, verdict.case_tag) == (tag != "none", tag)

    @given(rationals, rationals, exponents, exponents, st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_swap_symmetry(self, s, t, p, q, n):
        direct = strichartz_case(s, t, p, q, n)
        mirrored = strichartz_case(t, s, conjugate_exponent(q), conjugate_exponent(p), n)
        assert direct.holds == mirrored.holds
