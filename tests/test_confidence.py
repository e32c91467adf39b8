import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import SampleCount, binomial_cdf, binomial_sf, clopper_pearson
from credalbox import confidence
from support import oracle_binomial_cdf, oracle_binomial_sf, oracle_clopper_pearson


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
