import copy
import dataclasses
import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from credalbox import (
    CERTAIN,
    IMPOSSIBLE,
    VACUOUS,
    Interval,
    ProbInterval,
    dominates,
    intersect,
)
from credalbox.intervals import _unchecked
from support import full_interval_checks, interval_close, prob_intervals, utility_intervals


class _Float(float):
    pass


# floats of every kind, and numbers and non-numbers that are not floats:
# ints too big for a float, a Decimal NaN that refuses to be compared,
# strings that compare with each other, and a float subclass
ENDPOINTS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.integers(-2, 2),
    st.sampled_from([10 ** 400, -10 ** 400, True, False, Fraction(1, 3),
                     Decimal("0.5"), Decimal("NaN"), "0.5", "1", None, [0.5],
                     _Float(0.5)]),
)


def outcome(make):
    """None when make() returns, else the type and text of what it raised."""
    try:
        make()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestConstruction:
    def test_orders_endpoints(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("nan"))

    def test_prob_interval_stays_in_unit_range(self):
        with pytest.raises(ValueError):
            ProbInterval(-0.1, 0.5)
        with pytest.raises(ValueError):
            ProbInterval(0.5, 1.1)

    @given(ENDPOINTS, ENDPOINTS)
    def test_interval_raises_as_the_full_checks(self, lo, hi):
        assert outcome(lambda: Interval(lo, hi)) == outcome(
            lambda: full_interval_checks(lo, hi, prob=False))

    @given(ENDPOINTS, ENDPOINTS)
    def test_prob_interval_raises_as_the_full_checks(self, lo, hi):
        assert outcome(lambda: ProbInterval(lo, hi)) == outcome(
            lambda: full_interval_checks(lo, hi, prob=True))

    @pytest.mark.parametrize("lo, hi, message", [
        (math.nan, 0.5, "interval endpoints must not be NaN"),
        (0.5, 0.25, "lower endpoint 0.5 exceeds upper endpoint 0.25"),
        (-0.5, 0.25, "probability interval [-0.5, 0.25] escapes [0, 1]"),
        (0.5, math.inf, "probability interval [0.5, inf] escapes [0, 1]"),
    ])
    def test_prob_interval_messages(self, lo, hi, message):
        with pytest.raises(ValueError) as caught:
            ProbInterval(lo, hi)
        assert str(caught.value) == message

    @pytest.mark.parametrize("lo, hi, message", [
        (math.nan, 0.5, "interval endpoints must not be NaN"),
        (0.5, math.nan, "interval endpoints must not be NaN"),
        (2.0, 1.0, "lower endpoint 2.0 exceeds upper endpoint 1.0"),
    ])
    def test_interval_messages(self, lo, hi, message):
        with pytest.raises(ValueError) as caught:
            Interval(lo, hi)
        assert str(caught.value) == message

    def test_width_and_midpoint(self):
        iv = Interval(-16.8, 10.0)
        assert iv.width == pytest.approx(26.8)
        assert iv.midpoint == pytest.approx(-3.4)

    def test_contains_and_degenerate(self):
        iv = Interval(0.0, 1.0)
        assert iv.contains(0.0) and iv.contains(1.0) and iv.contains(0.5)
        assert not iv.contains(1.0000001)
        assert Interval(7.0, 7.0).is_degenerate()
        assert not iv.is_degenerate()

    def test_str_form(self):
        assert str(Interval(-5.5, 0.0)) == "[-5.5, 0]"

    def test_named_constants(self):
        assert VACUOUS == ProbInterval(0.0, 1.0)
        assert CERTAIN == ProbInterval(1.0, 1.0)
        assert IMPOSSIBLE == ProbInterval(0.0, 0.0)


class TestSlots:
    """Both interval classes are slotted frozen dataclasses; slots keep
    every behaviour the plain dataclasses had."""

    @pytest.mark.parametrize("make", [Interval, ProbInterval])
    def test_no_instance_dict(self, make):
        iv = make(0.25, 0.5)
        assert not hasattr(iv, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.lo = 0.0

    @pytest.mark.parametrize("make", [Interval, ProbInterval])
    def test_equality_and_hash(self, make):
        assert make(0.25, 0.5) == make(0.25, 0.5)
        assert make(0.25, 0.5) != make(0.25, 0.75)
        assert hash(make(0.0, 0.5)) == hash(make(-0.0, 0.5))
        assert len({make(0.25, 0.5), make(0.25, 0.5), make(0.5, 0.5)}) == 2
        # a ProbInterval is not equal to an Interval of the same endpoints
        assert Interval(0.25, 0.5) != ProbInterval(0.25, 0.5)

    def test_prob_interval_keeps_its_endpoints_in_the_base_slots(self):
        # slots of its own would shadow Interval's, which _unchecked writes
        assert ProbInterval.__slots__ == ()
        assert "lo" not in vars(ProbInterval) and "hi" not in vars(ProbInterval)
        iv = _unchecked(ProbInterval, 0.25, 0.5)
        assert (iv.lo, iv.hi) == (0.25, 0.5)
        assert iv == ProbInterval(0.25, 0.5)
        assert repr(iv) == repr(ProbInterval(0.25, 0.5))

    def test_repr(self):
        assert repr(Interval(-1.5, 2.0)) == "Interval(lo=-1.5, hi=2.0)"
        assert repr(ProbInterval(-0.0, 0.5)) == "ProbInterval(lo=-0.0, hi=0.5)"

    @pytest.mark.parametrize("iv", [Interval(-1.5, 2.0), ProbInterval(-0.0, 0.5),
                                    VACUOUS])
    def test_copy_and_pickle(self, iv):
        for again in (copy.copy(iv), copy.deepcopy(iv),
                      pickle.loads(pickle.dumps(iv))):
            assert type(again) is type(iv) and again == iv
            assert math.copysign(1.0, again.lo) == math.copysign(1.0, iv.lo)

    def test_replace_runs_the_checks(self):
        got = dataclasses.replace(ProbInterval(0.25, 0.5), hi=0.75)
        assert type(got) is ProbInterval and got == ProbInterval(0.25, 0.75)
        assert dataclasses.replace(Interval(-1.0, 1.0), lo=-2.0) == Interval(-2.0, 1.0)
        with pytest.raises(ValueError) as caught:
            dataclasses.replace(ProbInterval(0.25, 0.5), hi=1.5)
        assert str(caught.value) == "probability interval [0.25, 1.5] escapes [0, 1]"
        with pytest.raises(ValueError) as caught:
            dataclasses.replace(Interval(0.25, 0.5), lo=0.75)
        assert str(caught.value) == "lower endpoint 0.75 exceeds upper endpoint 0.5"


class TestDominates:
    def test_separated_intervals(self):
        assert dominates(Interval(0.0, 10.0), Interval(-3.0, -1.5))

    def test_overlapping_intervals(self):
        assert not dominates(Interval(-16.8, 10.0), Interval(-5.5, 0.0))

    def test_irreflexive_on_example(self):
        iv = Interval(3.0, 5.0)
        assert not dominates(iv, iv)

    def test_touching_endpoints_do_not_dominate(self):
        assert not dominates(Interval(5.0, 10.0), Interval(0.0, 5.0))

    @given(utility_intervals())
    def test_irreflexive(self, iv):
        assert not dominates(iv, iv)

    @given(st.lists(st.floats(-100.0, 100.0, allow_nan=False),
                    min_size=6, max_size=6, unique=True))
    def test_transitive_on_separated_chain(self, xs):
        xs = sorted(xs)
        a = Interval(xs[4], xs[5])
        b = Interval(xs[2], xs[3])
        c = Interval(xs[0], xs[1])
        assert dominates(a, b) and dominates(b, c)
        assert dominates(a, c)

    @given(utility_intervals(), utility_intervals())
    def test_asymmetric(self, a, b):
        if dominates(a, b):
            assert not dominates(b, a)


class TestComplement:
    def test_paper_style_bounds(self):
        got = ProbInterval(0.35, 1.0).complement()
        assert interval_close(got, 0.0, 0.65)

    def test_vacuous_is_self_complementary(self):
        assert VACUOUS.complement() == VACUOUS

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    def test_involution_exact_on_dyadic_grid(self, a, b):
        # on a power-of-two grid both subtractions are exact, so the
        # round trip must be bit-identical
        lo, hi = sorted((a / 2**20, b / 2**20))
        p = ProbInterval(lo, hi)
        assert p.complement().complement() == p

    @given(prob_intervals())
    def test_involution_within_one_rounding_step(self, p):
        # 1 - (1 - x) need not be exact in binary floating point
        # (x = 0.1 already breaks it); each subtraction rounds once,
        # so the round trip stays within 2^-53 of the start
        back = p.complement().complement()
        assert abs(back.lo - p.lo) <= 2.0**-53
        assert abs(back.hi - p.hi) <= 2.0**-53


class TestIntersect:
    def test_overlap(self):
        got = intersect(ProbInterval(0.2, 0.6), ProbInterval(0.4, 0.9))
        assert got == ProbInterval(0.4, 0.6)

    def test_disjoint_is_none(self):
        assert intersect(ProbInterval(0.0, 0.3), ProbInterval(0.5, 1.0)) is None

    def test_touching_is_a_point(self):
        got = intersect(ProbInterval(0.0, 0.5), ProbInterval(0.5, 1.0))
        assert got == ProbInterval(0.5, 0.5)

    @given(prob_intervals(), prob_intervals())
    def test_tightest_common_refinement(self, p, q):
        got = intersect(p, q)
        if got is not None:
            assert got.lo == max(p.lo, q.lo)
            assert got.hi == min(p.hi, q.hi)

    @given(prob_intervals(), prob_intervals())
    def test_none_exactly_when_disjoint(self, p, q):
        assert (intersect(p, q) is None) == (max(p.lo, q.lo) > min(p.hi, q.hi))

    @given(prob_intervals(), prob_intervals())
    def test_commutative(self, p, q):
        assert intersect(p, q) == intersect(q, p)
