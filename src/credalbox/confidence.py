"""Exact binomial confidence intervals by direct tail inversion.

The two-sided interval at confidence level c puts (1-c)/2 of tail
probability on each side: the lower endpoint is the p solving
P[X >= x] = (1-c)/2 and the upper the p solving P[X <= x] = (1-c)/2,
with the endpoints pinned to 0 and 1 when x is 0 or n.  The upper
endpoint comes by symmetry: P[X <= x] at p is the chance of n - x or
more failures, P[X' >= n - x] at 1 - p, so it is one minus the lower
endpoint for n - x of n.  Every bisection midpoint is a dyadic
rational, so 1 - mid is exact and the two solves agree to the bit.
Each tail is a regularized incomplete beta, P[X >= k] = I_p(k, n-k+1),
evaluated by the Lentz continued fraction (Numerical Recipes, section
6.4).  One tail costs a few lgamma calls and a loop whose length grows
only like the square root of n p (1-p), not n + 1 log-gamma terms.

Bisection of the rising tail on [0, 1] to BISECTION_TOL defines the
answer.  It is found in five to ten tail evaluations instead of 34:
safeguarded Newton steps on the log tail (Numerical Recipes, section
9.4, rtsafe), whose derivative is the beta density, find the root from
a Wilson-score guess; one point on each side of it is then certified,
its tail missing the target by a relative margin well above the tail's
rounding error; and the bisection is replayed, evaluating only the
midpoints between the two certified points.  Every midpoint outside
them would have moved the bracket the same way, so the endpoints are
bit-identical to plain bisection.
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

#: Newton steps allowed; the root found by then only places the points
#: to certify, so stopping early costs evaluations, never bits
_NEWTON_STEPS = 60
#: least relative margin by which a certified point's tail misses the
#: target
_CERT_MARGIN = 1e-9
#: the margin is also at least this many times 2**-52 times the summed
#: magnitudes of the tail's log-gamma and log terms.  That sum bounded
#: the tail's relative rounding error within a factor of about one
#: against 50-digit arithmetic up to n = 10**9, and a certified point
#: needs a margin of twice the error
_CERT_ULPS = 16.0


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
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and 0 < x < 1."""
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _check_binomial(n: int, p: float) -> None:
    """Refuse fewer than one trial, or a p outside [0, 1]."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p): n - k or more failures, whose
    chance is 1 - p."""
    _check_binomial(n, p)
    return binomial_sf(n - k, n, 1.0 - p)


def binomial_sf(k: int, n: int, p: float) -> float:
    """P[X >= k] for X ~ Binomial(n, p)."""
    _check_binomial(n, p)
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    return min(1.0, _betai(k, n - k + 1, p))


def _bisect(fn, target: float, bracket: tuple[float, float] = (0.0, 1.0)) -> float:
    """Root of fn(p) = target for fn rising on [0, 1], to a bracket
    narrower than BISECTION_TOL: both endpoints solve a rising tail.

    bracket = (below, above) holds two certified points: a midpoint at
    or below `below` moves lo, and one at or above `above` moves hi,
    without a call to fn.  The caller certifies them so that fn would
    have moved the bracket the same way; with the default (0, 1) every
    midpoint is evaluated.
    """
    below, above = bracket
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        elif fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _normal_quantile(tail: float) -> float:
    """z with P[Z > z] = tail for 0 < tail <= 1/2, to about 4.5e-4
    (Abramowitz & Stegun 26.2.23); only a starting guess needs it."""
    s = math.sqrt(-2.0 * math.log(tail))
    return s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))


def _wilson_lower(x: int, n: int, z: float) -> float:
    """Lower Wilson score bound for x of n at normal quantile z, written
    without the cancellation of its textbook form."""
    z2 = z * z
    return x * x * (1.0 + z2 / n) / ((n + z2) * (
        x + 0.5 * z2 + z * math.sqrt(x * (n - x) / n + 0.25 * z2)))


def _certified(fn, target: float, root: float, offset: float,
               margin: float) -> float:
    """root + offset if it lies in (0, 1) and the rising fn there misses
    target by more than margin * target on that side of the root; else
    the side's end of [0, 1], which certifies nothing."""
    p = root + offset
    if 0.0 < p < 1.0:
        miss = fn(p) - target
        if (miss if offset > 0.0 else -miss) > margin * target:
            return p
    return 0.0 if offset < 0.0 else 1.0


def _lower_endpoint(k: int, n: int, target: float, z: float) -> float:
    """The p where P[X >= k] for X ~ Binomial(n, p), 0 < k <= n, rises
    through target: _bisect of the tail to BISECTION_TOL.

    The tail rises at the Beta(k, n-k+1) density.  Newton steps on log
    P[X >= k] against log p, from the Wilson-score guess at normal
    quantile z, stop once a step is below a quarter of the tolerance; a
    step that would leave the bracket the evaluations so far give, or
    [0, 1] itself, bisects that bracket instead.
    """
    def fn(p):
        return binomial_sf(k, n, p)

    a, b = k, n - k + 1
    lg_a, lg_b, lg_ab = math.lgamma(a), math.lgamma(b), math.lgamma(a + b)
    if _CERT_ULPS * 2.0 ** -52 * (lg_ab + lg_a + lg_b) >= 1.0:
        # the tail's rounding error may reach the tail itself (from
        # about n = 5 * 10**12), so no point below the target can be
        # certified
        return _bisect(fn, target)
    log_coef = lg_ab - lg_a - lg_b
    log_target = math.log(target)
    # the guess for k = n at a confidence near 0 is 1
    p = min(max(_wilson_lower(k, n, z), 2.0 ** -1074), 1.0 - 2.0 ** -53)
    lo, hi = 0.0, 1.0
    for _ in range(_NEWTON_STEPS):
        value = fn(p)
        if value < target:
            lo = p
        else:
            hi = p
        log_p, log_1mp = math.log(p), math.log1p(-p)
        log_density = log_coef + (a - 1.0) * log_p + (b - 1.0) * log_1mp
        nxt = -1.0  # outside every bracket: bisect unless Newton steps
        if value > 0.0:
            log_value = math.log(value)
            # d log fn / d log p
            slope = math.exp(log_density + log_p - log_value)
            if slope > 0.0:
                nxt = math.exp(log_p + (log_target - log_value) / slope)
        if not (lo <= nxt <= hi and 0.0 < nxt < 1.0):
            nxt = 0.5 * (lo + hi)
        step = abs(nxt - p)
        p = nxt
        if step < 0.25 * BISECTION_TOL:
            break
    margin = max(_CERT_MARGIN, _CERT_ULPS * 2.0 ** -52 * (
        lg_ab + lg_a + lg_b - a * log_p - b * log_1mp))
    # where the density moves fn by twice the margin (at most 1), and a
    # few floats more, since near 1 a float step can move fn by more
    offset = (math.exp(min(math.log(2.0 * margin * target) - log_density, 0.0))
              + step + 4.0 * math.ulp(p))
    below = _certified(fn, target, p, -offset, margin)
    above = _certified(fn, target, p, offset, margin)
    return _bisect(fn, target, (below, above))


def clopper_pearson(count: SampleCount, confidence: float) -> ProbInterval:
    """Two-sided exact binomial interval at the given confidence level."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence must lie strictly inside (0, 1), got {confidence!r}"
        )
    x, n = count.successes, count.trials
    tail = (1.0 - confidence) / 2.0
    z = _normal_quantile(tail)
    try:
        lo = 0.0 if x == 0 else _lower_endpoint(x, n, tail, z)
        hi = 1.0 if x == n else 1.0 - _lower_endpoint(n - x, n, tail, z)
    except OverflowError as exc:
        raise ValueError(
            f"count {x} of {n} is beyond float arithmetic: {exc}"
        ) from None
    hi = max(hi, lo)
    return ProbInterval(lo, hi)
