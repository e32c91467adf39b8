import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import SampleCount, binomial_cdf, binomial_sf, clopper_pearson
from credalbox import confidence
from support import (
    falling_binomial_cdf,
    oracle_betacf,
    oracle_bisect,
    oracle_binomial_cdf,
    oracle_binomial_sf,
    oracle_clopper_pearson,
    outcome,
)


def cp(x, n, conf):
    return clopper_pearson(SampleCount(x, n), conf)


class TestClosedForms:
    def test_zero_successes_pins_lower_at_zero(self):
        for n in (1, 5, 10, 40):
            assert cp(0, n, 0.95).lo == 0.0

    def test_all_successes_pins_upper_at_one(self):
        for n in (1, 4, 17):
            assert cp(n, n, 0.99).hi == 1.0

    def test_all_successes_lower_matches_closed_form(self):
        got = cp(4, 4, 0.99)
        assert abs(got.lo - 0.005 ** 0.25) <= 1e-8
        assert got.lo == pytest.approx(0.2659, abs=5e-5)

    def test_all_successes_at_lower_confidence(self):
        got = cp(4, 4, 0.75)
        assert abs(got.lo - 0.125 ** 0.25) <= 1e-8

    def test_no_successes_upper_matches_closed_form(self):
        got = cp(0, 10, 0.95)
        assert abs(got.hi - (1.0 - 0.025 ** 0.1)) <= 1e-8
        assert got.hi == pytest.approx(0.3085, abs=5e-5)

    def test_lower_endpoint_vanishes_as_confidence_grows(self):
        near_one = cp(5, 5, 0.9999)
        assert abs(near_one.lo - 0.00005 ** 0.2) <= 1e-8
        assert near_one.lo < cp(5, 5, 0.99).lo


class TestTailEquations:
    # the defining property: each endpoint puts exactly (1-c)/2 of
    # binomial tail mass beyond the observed count
    @pytest.mark.parametrize("x,n,conf", [
        (3, 14, 0.99),
        (7, 20, 0.95),
        (1, 9, 0.9),
        (12, 13, 0.99),
        (10, 20, 0.5),
    ])
    def test_endpoints_solve_their_tails(self, x, n, conf):
        tail = (1.0 - conf) / 2.0
        got = cp(x, n, conf)
        assert abs(binomial_sf(x, n, got.lo) - tail) <= 1e-8
        assert abs(binomial_cdf(x, n, got.hi) - tail) <= 1e-8

    def test_three_of_fourteen_upper_value(self):
        # P[Bin(14, p) <= 3] = .005 has its root near .589; this pins
        # the implemented two-sided convention
        got = cp(3, 14, 0.99)
        assert got.hi == pytest.approx(0.589183, abs=5e-6)
        assert abs(binomial_cdf(3, 14, got.hi) - 0.005) <= 1e-8


class TestIntervalShape:
    @pytest.mark.parametrize("x,n", [(3, 14), (0, 5), (5, 5), (7, 20)])
    def test_nested_in_confidence(self, x, n):
        narrow = cp(x, n, 0.8)
        mid = cp(x, n, 0.9)
        wide = cp(x, n, 0.99)
        assert wide.lo <= mid.lo <= narrow.lo
        assert narrow.hi <= mid.hi <= wide.hi

    @pytest.mark.parametrize("x,n", [(3, 14), (0, 10), (10, 10), (6, 9)])
    def test_reflection_symmetry(self, x, n):
        conf = 0.95
        a = cp(x, n, conf)
        b = cp(n - x, n, conf)
        assert abs(a.lo - (1.0 - b.hi)) <= 1e-8
        assert abs(a.hi - (1.0 - b.lo)) <= 1e-8

    def test_monotone_in_successes(self):
        n, conf = 12, 0.95
        intervals = [cp(x, n, conf) for x in range(n + 1)]
        for prev, cur in zip(intervals, intervals[1:]):
            assert cur.lo >= prev.lo - 1e-12
            assert cur.hi >= prev.hi - 1e-12

    def test_interval_contains_the_sample_proportion(self):
        for x, n in [(0, 7), (3, 14), (10, 10), (9, 20)]:
            got = cp(x, n, 0.95)
            assert got.lo - 1e-12 <= x / n <= got.hi + 1e-12


class TestValidation:
    def test_confidence_must_be_interior(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                cp(3, 14, bad)

    def test_sample_count_bounds(self):
        with pytest.raises(ValueError):
            SampleCount(-1, 10)
        with pytest.raises(ValueError):
            SampleCount(11, 10)
        with pytest.raises(ValueError):
            SampleCount(0, 0)

    @pytest.mark.parametrize("successes, trials, message", [
        (3.5, 10, "successes must be an int, got 3.5"),
        (True, 2, "successes must be an int, got True"),
        ("3", 10, "successes must be an int, got '3'"),
        (3, 10.0, "trials must be an int, got 10.0"),
        (0, True, "trials must be an int, got True"),
        (None, None, "successes must be an int, got None"),
    ])
    def test_sample_count_takes_ints_only(self, successes, trials, message):
        with pytest.raises(ValueError) as exc:
            SampleCount(successes, trials)
        assert str(exc.value) == message

    def test_tail_helpers_validate_inputs(self):
        for tail in (binomial_cdf, binomial_sf):
            with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
                tail(3, 0, 0.5)
            with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 1.5$"):
                tail(3, 10, 1.5)


class TestTailHelpers:
    def test_cdf_edges(self):
        assert binomial_cdf(-1, 10, 0.5) == 0.0
        assert binomial_cdf(10, 10, 0.5) == 1.0
        assert binomial_cdf(3, 10, 0.0) == 1.0
        assert binomial_cdf(3, 10, 1.0) == 0.0

    def test_sf_edges(self):
        assert binomial_sf(0, 10, 0.5) == 1.0
        assert binomial_sf(11, 10, 0.5) == 0.0
        assert binomial_sf(3, 10, 0.0) == 0.0
        assert binomial_sf(3, 10, 1.0) == 1.0

    @pytest.mark.parametrize("k,n,p", [
        (3, 10, 0.4), (0, 6, 0.2), (5, 6, 0.9), (7, 14, 0.5),
    ])
    def test_cdf_and_sf_are_complementary(self, k, n, p):
        assert binomial_cdf(k, n, p) + binomial_sf(k + 1, n, p) == pytest.approx(
            1.0, abs=1e-12)

    def test_cdf_matches_direct_expansion(self):
        # tiny case checked by hand: Bin(2, .5), P[X <= 1] = 3/4
        assert binomial_cdf(1, 2, 0.5) == pytest.approx(0.75, abs=1e-12)
        assert binomial_sf(2, 2, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_cdf_matches_its_falling_form_bit_for_bit(self):
        # binomial_cdf is the survival function of the failures at 1 - p;
        # the incomplete beta of 1 - p it was computed from, edge cases
        # and messages included, is the oracle
        ps = [0.0, -0.0, 5e-324, 2.0 ** -54, 2.0 ** -53, 1e-9, 0.3, 0.5,
              0.77, 1 - 2.0 ** -53, 1.0, -0.5, 1.5, math.nan]
        for n in [-1, 0, *range(1, 61), 1000, 10**6]:
            for k in [-2, -1, 0, 1, n // 2, n - 1, n, n + 1, 1.5]:
                for p in ps:
                    assert outcome(lambda: binomial_cdf(k, n, p)) == \
                        outcome(lambda: falling_binomial_cdf(k, n, p)), (k, n, p)

    def test_terms_sum_to_one(self):
        total = math.fsum(
            binomial_cdf(k, 9, 0.3) - binomial_cdf(k - 1, 9, 0.3)
            for k in range(10)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


@st.composite
def tail_cases(draw):
    """(k, n, p) with n <= 400, k from just below 0 to just above n and
    p strictly inside (0, 1)."""
    n = draw(st.integers(1, 400))
    k = draw(st.integers(-1, n + 1))
    p = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    return k, n, p


class TestTailOracle:
    # the incomplete-beta tails against term-by-term log-gamma sums
    @settings(max_examples=200, deadline=None)
    @given(tail_cases())
    def test_cdf_matches_tail_sum(self, case):
        k, n, p = case
        assert abs(binomial_cdf(k, n, p) - oracle_binomial_cdf(k, n, p)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(tail_cases())
    def test_sf_matches_tail_sum(self, case):
        k, n, p = case
        assert abs(binomial_sf(k, n, p) - oracle_binomial_sf(k, n, p)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(tail_cases())
    def test_cdf_and_sf_partition_the_mass(self, case):
        k, n, p = case
        assert abs(binomial_cdf(k, n, p) + binomial_sf(k + 1, n, p) - 1.0) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 400).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n))),
        st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 0.999]))
    def test_endpoints_match_oracle_bisection(self, count, conf):
        x, n = count
        got = cp(x, n, conf)
        lo, hi = oracle_clopper_pearson(x, n, conf, confidence.BISECTION_TOL)
        assert abs(got.lo - lo) <= confidence.BISECTION_TOL
        assert abs(got.hi - hi) <= confidence.BISECTION_TOL


class TestContinuedFraction:
    def test_tails_at_extreme_p(self):
        # 1 - p rounds to 1.0 here; the tails still sit at their limits
        assert binomial_cdf(3, 10**6, 1e-300) == 1.0
        assert binomial_sf(3, 10**6, 1e-300) == 0.0

    def test_continued_fraction_cap_raises(self, monkeypatch):
        monkeypatch.setattr(confidence, "_CF_MAX_STEPS", 3)
        with pytest.raises(ValueError, match="did not converge"):
            binomial_sf(50_000, 100_000, 0.5)


def cp_bits(x, n, conf):
    """The endpoints of cp(x, n, conf) as float.hex strings."""
    iv = cp(x, n, conf)
    return iv.lo.hex(), iv.hi.hex()


def betacf_bits(fn, a, b, x):
    """fn(a, b, x) as a float.hex string, or its ValueError's type and text."""
    got = outcome(lambda: fn(a, b, x))
    return got.hex() if isinstance(got, float) else got


def loop_cp_bits(x, n, conf):
    """cp_bits with the continued fraction run by its loop-form oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confidence, "_betacf", oracle_betacf)
        return cp_bits(x, n, conf)


class TestWrittenOutContinuedFraction:
    # the runtime writes the even and the odd step out in sequence; the
    # loop form in tests/support.py is the oracle, bit for bit
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 3e4), st.floats(1.0, 3e4),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_betacf_matches_the_loop_bit_for_bit(self, a, b, x):
        assert betacf_bits(confidence._betacf, a, b, x) == \
            betacf_bits(oracle_betacf, a, b, x)

    @pytest.mark.parametrize("a, b, x", [
        (1.0, 1.0, 1.0),     # d is 0 before the first step
        (0.5, 2.5, 0.625),   # d is 0 after the even numerator of step 1
        (1.5, 12.5, 0.9375),  # c is 0 after the odd numerator of step 1
        (1.0, 7.0, 0.5),     # d is 0 after the odd numerator of step 2
        (7.5, 14.5, 0.5),    # d is 0 after the even numerator of step 3
    ])
    def test_tiny_guards_match_the_loop(self, a, b, x):
        assert betacf_bits(confidence._betacf, a, b, x) == \
            betacf_bits(oracle_betacf, a, b, x)

    def test_cap_raises_the_loop_text(self, monkeypatch):
        monkeypatch.setattr(confidence, "_CF_MAX_STEPS", 3)
        args = (50_000.0, 50_001.0, 0.5)
        got = outcome(lambda: confidence._betacf(*args))
        assert got == outcome(lambda: oracle_betacf(*args))
        assert got[0] is ValueError and "did not converge in 3 steps" in got[1]

    @pytest.mark.parametrize("conf", [0.9, 0.95, 0.99])
    def test_every_small_count_matches_the_loop(self, conf):
        for n in range(1, 61):
            for x in range(n + 1):
                assert cp_bits(x, n, conf) == loop_cp_bits(x, n, conf), (x, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(61, 30_000).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n))),
        st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]))
    def test_drawn_counts_match_the_loop(self, count, conf):
        x, n = count
        assert cp_bits(x, n, conf) == loop_cp_bits(x, n, conf)


def bisect_cp_bits(x, n, conf):
    """cp_bits with the bracket forced to [0, 1]: plain bisection, which
    evaluates every midpoint.  It defines the lower endpoint; the upper
    is one minus the lower endpoint for n - x, which falling_upper_bits
    checks against its own definition."""
    def plain(fn, target, bracket=(0.0, 1.0)):
        return oracle_bisect(fn, target, True, confidence.BISECTION_TOL)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confidence, "_bisect", plain)
        return cp_bits(x, n, conf)


def falling_upper_bits(x, n, conf):
    """The upper endpoint of cp(x, n, conf) by its definition, as a
    float.hex string: plain bisection of the falling P[X <= x] on
    [0, 1], raised to the lower endpoint as clopper_pearson raises it."""
    got = cp(x, n, conf)
    if x == n:
        return got.hi.hex()
    tail = (1.0 - conf) / 2.0
    hi = oracle_bisect(lambda p: binomial_cdf(x, n, p), tail, False,
                       confidence.BISECTION_TOL)
    return max(hi, got.lo).hex()


@contextmanager
def counted_tails():
    """A monkeypatch under which the confidence module's tails count
    their calls into the dict it yields, keyed by tail."""
    calls = {binomial_sf: 0, binomial_cdf: 0}

    def counted(tail):
        def wrapper(k, n, p):
            calls[tail] += 1
            return tail(k, n, p)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confidence, "binomial_sf", counted(binomial_sf))
        patch.setattr(confidence, "binomial_cdf", counted(binomial_cdf))
        yield patch, calls


def endpoint_evaluations(x, n, conf):
    """Tail evaluations cp(x, n, conf) makes for each endpoint it does
    not pin at 0 or 1, counted per call of the endpoint solver: P[X >= x]
    for the lower, then P[X >= n - x] at 1 - p for the upper."""
    counts = []
    solve = confidence._lower_endpoint
    with counted_tails() as (patch, calls):
        def spy(*args):
            before = sum(calls.values())
            got = solve(*args)
            counts.append(sum(calls.values()) - before)
            return got

        patch.setattr(confidence, "_lower_endpoint", spy)
        cp(x, n, conf)
    assert len(counts) == (x > 0) + (x < n)
    return counts


GRID_CONFIDENCES = [1e-6, 0.5, 0.9, 0.95, 0.99, 1 - 1e-12]
# counts with a point to certify outside (0, 1), so that side falls back
# to its end of [0, 1]: the first above the root of P[X >= n] that gives
# its upper endpoint at 1e-6, the second below its lower root at 0.95
OUTSIDE_COUNTS = [(0, 31_622_776_601), (1, 6_416_912_539)]
# a few counts far above the drawn ones; at n = 10**16 and 10**20 the
# tails' rounding error outgrows any margin, and plain bisection runs;
# the last is one whose upper root, solved on the falling tail, rounded to 1
FIXED_COUNTS = [(x, n) for n in (10**6, 10**12) for x in (1, n // 2, n - 1)] + [
    (x, n) for n in (10**16, 10**20) for x in (1, n - 1)] + OUTSIDE_COUNTS + [
    (1_297_206, 1_297_207)]


def certification_points(x, n, conf):
    """(point, tails evaluated) for each _certified call cp(x, n, conf)
    makes, the point being root + offset."""
    points = []
    certified = confidence._certified
    with counted_tails() as (patch, calls):
        def spy(fn, target, root, offset, margin):
            before = sum(calls.values())
            got = certified(fn, target, root, offset, margin)
            points.append((root + offset, sum(calls.values()) - before))
            return got

        patch.setattr(confidence, "_certified", spy)
        cp(x, n, conf)
    return points


def solve_points(x, n, conf):
    """cp_bits(x, n, conf) and, for each endpoint solve it makes, its k,
    its target and the points where it evaluated the tail, in order."""
    solves = []
    solve = confidence._lower_endpoint

    def solve_spy(k, n, target, z):
        solves.append((k, target, []))
        return solve(k, n, target, z)

    def tail_spy(k, n, p):
        solves[-1][2].append(p)
        return binomial_sf(k, n, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(confidence, "_lower_endpoint", solve_spy)
        patch.setattr(confidence, "binomial_sf", tail_spy)
        return cp_bits(x, n, conf), solves


class TestCertifiedBisection:
    # Newton finds each root, two certified points bracket it, and the
    # bisection is replayed between them: bit for bit plain bisection.
    # The upper endpoint, solved as one minus a lower one, also matches
    # plain bisection of the falling P[X <= x] to the bit

    @pytest.mark.parametrize("conf", GRID_CONFIDENCES)
    def test_every_small_count_matches_plain_bisection(self, conf):
        for n in range(1, 61):
            for x in range(n + 1):
                bits = cp_bits(x, n, conf)
                assert bits == bisect_cp_bits(x, n, conf), (x, n)
                assert bits[1] == falling_upper_bits(x, n, conf), (x, n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(61, 30_000).flatmap(
        lambda n: st.tuples(st.integers(0, n), st.just(n))),
        st.sampled_from(GRID_CONFIDENCES) | st.floats(1e-9, 1.0, exclude_max=True))
    def test_drawn_counts_match_plain_bisection(self, count, conf):
        x, n = count
        bits = cp_bits(x, n, conf)
        assert bits == bisect_cp_bits(x, n, conf)
        assert bits[1] == falling_upper_bits(x, n, conf)
        assert max(endpoint_evaluations(x, n, conf)) <= 40

    @pytest.mark.parametrize("x, n", FIXED_COUNTS)
    @pytest.mark.parametrize("conf", [0.95, 1 - 1e-12])
    def test_large_counts_match_plain_bisection(self, x, n, conf):
        # at 1 - 1e-12 the upper root of n - 1 of 10**6 lies about 5e-19
        # below 1, far inside the last float step; it is solved as one
        # minus the lower root for 1 of 10**6, near 5e-19
        bits = cp_bits(x, n, conf)
        assert bits == bisect_cp_bits(x, n, conf)
        assert bits[1] == falling_upper_bits(x, n, conf)
        assert max(endpoint_evaluations(x, n, conf)) <= 40

    @pytest.mark.parametrize("count, conf", zip(OUTSIDE_COUNTS, [1e-6, 0.95]))
    def test_a_point_outside_the_unit_interval_is_not_evaluated(self, count, conf):
        points = certification_points(*count, conf)
        assert [tails for point, tails in points if not 0.0 < point < 1.0] == [0]

    def test_each_side_is_certified_by_at_most_one_tail(self):
        for n in range(1, 61):
            for x in range(n + 1):
                points = certification_points(x, n, 0.95)
                assert len(points) == 2 * ((x > 0) + (x < n)), (x, n)
                assert all(tails <= 1 for _, tails in points), (x, n)

    def test_half_of_ten_to_the_sixteen_fails_as_bisection_does(self):
        # the continued fraction gives up at the first midpoint, 0.5
        want = outcome(lambda: bisect_cp_bits(5 * 10**15, 10**16, 0.95))
        assert want[0] is ValueError and "I_0.5(" in want[1]
        assert outcome(lambda: cp_bits(5 * 10**15, 10**16, 0.95)) == want

    @pytest.mark.parametrize("margin", [2.0, 1e300])
    def test_uncertified_sides_fall_back_to_plain_bisection(self, monkeypatch, margin):
        # a margin of 2 leaves no point below the target certifiable, so
        # that side falls back to its end of [0, 1]: 0 for the lower
        # endpoint and, mirrored, for the upper one's solve at n - x; one
        # of 1e300 puts both certified points outside [0, 1] at once
        brackets = []
        replay = confidence._bisect

        def spy(fn, target, bracket=(0.0, 1.0)):
            brackets.append(bracket)
            return replay(fn, target, bracket)

        monkeypatch.setattr(confidence, "_CERT_MARGIN", margin)
        monkeypatch.setattr(confidence, "_bisect", spy)
        for x, n, conf in [(3, 14, 0.99), (7, 20, 0.95), (1, 9, 0.9)]:
            brackets.clear()
            got = cp_bits(x, n, conf)
            lower, upper = brackets
            if margin == 2.0:
                assert lower[0] == 0.0 and 0.0 < lower[1] < 1.0
                assert upper[0] == 0.0 and 0.0 < upper[1] < 1.0
            else:
                assert lower == upper == (0.0, 1.0)
            assert got == bisect_cp_bits(x, n, conf)

    @pytest.mark.parametrize("guess", [2.0 ** -1074, 1.0 - 2.0 ** -53])
    def test_a_refused_newton_step_bisects_its_bracket(self, monkeypatch, guess):
        # from a guess of 2**-1074 the tail is 0 once k >= 2, so no
        # Newton step is taken; from 1 - 2**-53 the step leaves (0, 1)
        # unless k = n.  Either way the second point evaluated is the
        # middle of the bracket the first one gave, and no bit moves
        monkeypatch.setattr(confidence, "_wilson_lower", lambda x, n, z: guess)
        for x, n in [(1, 1), (1, 10), (3, 14), (9, 10), (7, 20), (500, 1000),
                     (1, 10**6)]:
            for conf in [1e-6, 0.5, 0.95, 1 - 1e-12]:
                bits, solves = solve_points(x, n, conf)
                assert bits == bisect_cp_bits(x, n, conf), (x, n, conf)
                for k, target, points in solves:
                    below = binomial_sf(k, n, guess) < target
                    middle = 0.5 * (guess + 1.0) if below else 0.5 * guess
                    refused = k >= 2 if guess < 0.5 else k < n
                    assert (points[1] == middle) == refused, (k, n, conf)

    def test_continued_fraction_cap_still_raises(self, monkeypatch):
        # the first tail evaluated is at the Wilson-score guess for the
        # lower endpoint, which the message names
        monkeypatch.setattr(confidence, "_CF_MAX_STEPS", 3)
        with pytest.raises(ValueError, match="did not converge in 3 steps") as exc:
            cp(50_000, 100_000, 0.95)
        assert str(exc.value).startswith("incomplete beta I_0.4969")

    @pytest.mark.parametrize("conf", GRID_CONFIDENCES)
    def test_evaluations_per_endpoint(self, conf):
        counts = [count for n in range(1, 61) for x in range(n + 1)
                  for count in endpoint_evaluations(x, n, conf)]
        assert max(counts) <= 40
        if conf == 0.95:
            assert sum(counts) / len(counts) <= 10
