"""Exact binomial confidence intervals by direct tail inversion.

The two-sided interval at confidence level c puts (1-c)/2 of tail
probability on each side: the lower endpoint is the p solving
P[X >= x] = (1-c)/2 and the upper the p solving P[X <= x] = (1-c)/2,
with the endpoints pinned to 0 and 1 when x is 0 or n.  Each binomial
tail is a regularized incomplete beta, P[X >= k] = I_p(k, n-k+1),
evaluated by the Lentz continued fraction (Numerical Recipes, section
6.4).  One tail costs a few lgamma calls and a loop whose length grows
only like the square root of n p (1-p), not n + 1 log-gamma terms.  The
tails are inverted by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .intervals import ProbInterval

#: bisection stops once the bracket is narrower than this
BISECTION_TOL = 1e-10

#: the continued fraction stops once a step moves it by about one ulp
_CF_EPS = 3e-16
#: smallest magnitude the Lentz denominators may take
_CF_TINY = 1e-300
#: steps allowed before the continued fraction gives up
_CF_MAX_STEPS = 100_000


@dataclass(frozen=True)
class SampleCount:
    """Successes out of trials, both non-negative with successes <= trials.

    Both are ints: a bool, a float (3.5, or 10.0) or any other type is
    refused with a ValueError that names the field.
    """

    successes: int
    trials: int

    def __post_init__(self):
        for field, value in (("successes", self.successes), ("trials", self.trials)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{field} must be an int, got {value!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials!r}")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(
                f"successes {self.successes!r} must lie in [0, {self.trials}]"
            )


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta by the modified Lentz
    method; it converges fast for x < (a+1)/(a+b+2)."""
    tiny = _CF_TINY
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if -tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_STEPS + 1):
        m2 = 2 * m
        # the even partial numerator of step m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        # then the odd one, whose step decides convergence
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -tiny < d < tiny:
            d = tiny
        c = 1.0 + aa / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        step = d * c
        h *= step
        if abs(step - 1.0) < _CF_EPS:
            return h
    raise ValueError(
        f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge "
        f"in {_CF_MAX_STEPS} steps"
    )


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 < x <= 1."""
    if x == 1.0:  # binomial_cdf passes 1 - p, which is 1.0 for p <= 2**-54
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return min(1.0, _betai(n - k, k + 1, 1.0 - p))


def binomial_sf(k: int, n: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return min(1.0, _betai(k, n - k + 1, p))


def _bisect(fn, target: float, increasing: bool, tol: float) -> float:
    """Root of fn(p) = target for fn monotone on [0, 1] in the given
    direction, to a bracket narrower than tol."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (fn(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(count: SampleCount, confidence: float) -> ProbInterval:
    """Two-sided exact binomial interval at the given confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie strictly inside (0, 1), got {confidence!r}"
        )
    x, n = count.successes, count.trials
    tail = (1.0 - confidence) / 2.0
    if x == 0:
        lo = 0.0
    else:
        lo = _bisect(lambda p: binomial_sf(x, n, p), tail, True, BISECTION_TOL)
    if x == n:
        hi = 1.0
    else:
        hi = _bisect(lambda p: binomial_cdf(x, n, p), tail, False, BISECTION_TOL)
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, lo), 1.0)
    return ProbInterval(lo, hi)
