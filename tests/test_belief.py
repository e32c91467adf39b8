import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import belief
from credalbox import (
    MassFunction,
    TotalConflictError,
    bel,
    dempster_combine,
    discount,
    discount_threshold,
    pl,
)
from support import oracle_discount_threshold, outcome

FRAME = ("G", "not-G")


def binary(g, ng, theta=0.0):
    masses = {}
    if g:
        masses[frozenset({"G"})] = g
    if ng:
        masses[frozenset({"not-G"})] = ng
    if theta:
        masses[frozenset(FRAME)] = theta
    return MassFunction(FRAME, masses)


def _weights(rng, n, floor=0.05):
    raw = [floor + rng.random() for _ in range(n)]
    total = math.fsum(raw)
    return [x / total for x in raw]


def random_binary(rng, floor=0.05):
    # keeping every focal element off zero bounds conflict away from 1
    raw = [floor + rng.random() for _ in range(3)]
    total = sum(raw)
    return binary(raw[0] / total, raw[1] / total, raw[2] / total)


def exact_combination(m1, m2) -> dict:
    """Dempster's rule in rational arithmetic on the float masses."""
    acc = {}
    for a, va in m1.masses.items():
        for b, vb in m2.masses.items():
            if a & b:
                acc[a & b] = acc.get(a & b, 0) + Fraction(va) * Fraction(vb)
    total = sum(acc.values())
    return {focal: float(w / total) for focal, w in acc.items()}


@st.composite
def mass_functions(draw, frame):
    """Valid mass functions on frame: weights spread over many orders of
    magnitude, so that pairs of them reach conflicts near 1, and a sum
    off 1 by up to 0.9e-9, as the mass check allows."""
    subsets = [frozenset(c) for k in range(1, len(frame) + 1)
               for c in itertools.combinations(frame, k)]
    focal = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=4,
                          unique=True))
    raw = [draw(st.one_of(st.floats(0.0, 1.0),
                          st.integers(1, 300).map(lambda k: 10.0 ** -k)))
           for _ in focal]
    total = math.fsum(raw)
    if total == 0.0:
        raw, total = [1.0] * len(raw), float(len(raw))
    scale = 1.0 + draw(st.floats(-0.9e-9, 0.9e-9))
    return MassFunction(frame, {f: x / total * scale for f, x in zip(focal, raw)})


class TestMassFunction:
    def test_frame_size_limits(self):
        with pytest.raises(ValueError):
            MassFunction(("only",), {frozenset({"only"}): 1.0})
        frame = tuple(f"x{i}" for i in range(9))
        with pytest.raises(ValueError):
            MassFunction(frame, {frozenset(frame): 1.0})

    def test_frame_atoms_distinct(self):
        with pytest.raises(ValueError):
            MassFunction(("G", "G"), {frozenset({"G"}): 1.0})

    def test_masses_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            binary(0.5, 0.4)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MassFunction(FRAME, {frozenset({"G"}): 1.2,
                                 frozenset({"not-G"}): -0.2})

    def test_non_finite_mass_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"mass for \['G'\] is not finite"):
                MassFunction(FRAME, {frozenset({"G"}): bad,
                                     frozenset({"not-G"}): 1.0})

    def test_empty_focal_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            MassFunction(FRAME, {frozenset(): 0.5, frozenset({"G"}): 0.5})

    def test_repeated_focal_set_rejected(self):
        with pytest.raises(ValueError, match=r"^focal set \['G'\] appears twice$"):
            MassFunction(FRAME, {"G": 0.5, frozenset({"G"}): 0.5})

    def test_focal_set_outside_frame_rejected(self):
        with pytest.raises(ValueError):
            MassFunction(FRAME, {frozenset({"Z"}): 1.0})

    def test_zero_mass_focal_sets_dropped(self):
        m = MassFunction(FRAME, {frozenset({"G"}): 1.0,
                                 frozenset({"not-G"}): 0.0})
        assert m == binary(1.0, 0.0)
        assert frozenset({"not-G"}) not in m.masses

    def test_string_focal_keys_accepted(self):
        m = MassFunction(FRAME, {"G": 0.4, frozenset(FRAME): 0.6})
        assert m.mass({"G"}) == 0.4

    def test_vacuous_and_bayesian(self):
        v = MassFunction.vacuous(FRAME)
        assert v.mass(FRAME) == 1.0
        assert not v.is_bayesian()
        assert binary(0.7, 0.3).is_bayesian()
        assert not binary(0.5, 0.3, 0.2).is_bayesian()


class TestDiscount:
    def test_half_rate(self):
        m = discount(binary(0.6, 0.4), 0.5)
        assert m.mass({"G"}) == pytest.approx(0.3)
        assert m.mass({"not-G"}) == pytest.approx(0.2)
        assert m.mass(FRAME) == pytest.approx(0.5)

    def test_zero_rate_is_identity(self):
        m = binary(0.6, 0.3, 0.1)
        assert discount(m, 0.0) == m

    def test_full_rate_is_vacuous(self):
        assert discount(binary(0.6, 0.4), 1.0) == MassFunction.vacuous(FRAME)

    def test_rate_out_of_range(self):
        with pytest.raises(ValueError):
            discount(binary(1.0, 0.0), -0.1)
        with pytest.raises(ValueError):
            discount(binary(1.0, 0.0), 1.5)

    def test_discounted_masses_still_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(50):
            m = discount(random_binary(rng), rng.random())
            assert sum(m.masses.values()) == pytest.approx(1.0)


class TestDempsterCombine:
    def test_two_vouchers(self):
        got = dempster_combine(binary(0.7, 0.3), binary(0.6, 0.4))
        assert got.mass({"G"}) == pytest.approx(0.42 / 0.54)
        assert got.mass({"not-G"}) == pytest.approx(0.12 / 0.54)

    def test_vacuous_is_identity(self):
        m = binary(0.55, 0.25, 0.2)
        assert dempster_combine(m, MassFunction.vacuous(FRAME)) == m
        assert dempster_combine(MassFunction.vacuous(FRAME), m) == m

    def test_total_conflict(self):
        with pytest.raises(TotalConflictError):
            dempster_combine(binary(1.0, 0.0), binary(0.0, 1.0))

    def test_frame_mismatch(self):
        other = MassFunction(("A", "B"), {frozenset({"A"}): 1.0})
        with pytest.raises(ValueError, match="frame"):
            dempster_combine(binary(1.0, 0.0), other)

    def test_commutative(self):
        rng = random.Random(11)
        for _ in range(100):
            m1, m2 = random_binary(rng), random_binary(rng)
            a = dempster_combine(m1, m2)
            b = dempster_combine(m2, m1)
            for key in a.masses:
                assert a.mass(key) == pytest.approx(b.mass(key), abs=1e-12)

    def test_associative(self):
        rng = random.Random(13)
        for _ in range(60):
            m1, m2, m3 = (random_binary(rng) for _ in range(3))
            a = dempster_combine(dempster_combine(m1, m2), m3)
            b = dempster_combine(m1, dempster_combine(m2, m3))
            for key in a.masses | b.masses:
                assert a.mass(key) == pytest.approx(b.mass(key), abs=1e-9)

    def test_bayesian_closed_under_combination(self):
        rng = random.Random(17)
        for _ in range(50):
            g = 0.3 + 0.4 * rng.random()
            point = binary(g, 1.0 - g)
            other = random_binary(rng)
            assert dempster_combine(point, other).is_bayesian()

    @pytest.mark.parametrize("draw_eps", [
        # 1 minus the conflict cancels to a normaliser that left nine in
        # ten of these pairs' masses missing 1 by more than 1e-9
        lambda rng: rng.uniform(1e-10, 3e-9),
        # conflicts from 1 - 2e-3 up: where 1 - conflict would still pass,
        # its rounding would cost the combination digits
        lambda rng: 10.0 ** rng.uniform(-10.0, -3.0),
    ], ids=["near-cutoff", "log-spread"])
    def test_drawn_high_conflicts_combine_or_refuse(self, draw_eps):
        rng = random.Random(29)
        refused = 0
        for _ in range(2000):
            e1, e2 = draw_eps(rng), draw_eps(rng)
            m1, m2 = binary(1.0 - e1, e1), binary(e2, 1.0 - e2)
            conflict = sum(Fraction(va) * Fraction(vb)
                           for a, va in m1.masses.items()
                           for b, vb in m2.masses.items() if not a & b)
            try:
                got = dempster_combine(m1, m2)
            except TotalConflictError:
                refused += 1
                assert conflict > 1 - 1e-9 - 1e-15
                continue
            assert conflict < 1 - 1e-9 + 1e-15
            want = exact_combination(m1, m2)
            assert set(got.masses) == set(want)
            for focal, mass in got.masses.items():
                assert mass == pytest.approx(want[focal], rel=1e-12)
        assert 0 < refused < 200

    def test_slack_in_the_sums_is_not_passed_on(self):
        # each mass function may miss 1 by 1e-9; divided by 1 - conflict,
        # 2/3 agreeing weight that is 7e-10 high sums to 1 + 1.05e-9
        third = 0.3333333335656062
        m2 = MassFunction(FRAME, {"G": third, "not-G": third, FRAME: third})
        got = dempster_combine(binary(1.0, 0.0), m2)
        assert got == binary(1.0, 0.0)

    @pytest.mark.parametrize("tiny", [0.0, 1e-200], ids=["no-pair", "underflow"])
    def test_empty_agreement_is_total_conflict(self, tiny):
        # masses may miss 1 by up to 1e-9, so a conflict of 1 - 1.6e-9
        # passes the cutoff while no pair of focal sets meets, or the one
        # pair that meets weighs tiny**2, which underflows to 0
        frame = ("a", "b", "c")
        big = 0.9999999992
        m1 = MassFunction(frame, {"a": big, "b": tiny})
        m2 = MassFunction(frame, {"c": big, "b": tiny})
        with pytest.raises(TotalConflictError, match="total conflict"):
            dempster_combine(m1, m2)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_valid_pairs_combine_or_refuse(self, data):
        frame = ("a", "b", "c")[:data.draw(st.integers(2, 3))]
        m1, m2 = (data.draw(mass_functions(frame)) for _ in range(2))
        try:
            got = dempster_combine(m1, m2)
        except TotalConflictError:
            return
        assert isinstance(got, MassFunction)

    def test_three_atom_frame(self):
        frame = ("a", "b", "c")
        m1 = MassFunction(frame, {frozenset({"a", "b"}): 0.6,
                                  frozenset(frame): 0.4})
        m2 = MassFunction(frame, {frozenset({"b", "c"}): 0.5,
                                  frozenset(frame): 0.5})
        got = dempster_combine(m1, m2)
        # no conflict: every intersection is non-empty
        assert got.mass({"b"}) == pytest.approx(0.3)
        assert got.mass({"a", "b"}) == pytest.approx(0.3)
        assert got.mass({"b", "c"}) == pytest.approx(0.2)
        assert got.mass(frame) == pytest.approx(0.2)


class TestBelPl:
    def test_point_belief_after_combination(self):
        m = dempster_combine(binary(0.7, 0.3), binary(0.6, 0.4))
        assert bel(m, {"G"}) == pytest.approx(0.42 / 0.54)
        assert pl(m, {"G"}) == pytest.approx(0.42 / 0.54)

    def test_vacuous_is_maximally_open(self):
        vacuous = MassFunction.vacuous(FRAME)
        assert (bel(vacuous, {"G"}), pl(vacuous, {"G"})) == (0.0, 1.0)

    def test_partial_support(self):
        m = binary(0.5, 0.0, 0.5)
        assert (bel(m, {"G"}), pl(m, {"G"})) == (0.5, 1.0)

    def test_bel_pl_duality(self):
        rng = random.Random(19)
        for _ in range(50):
            m = random_binary(rng)
            assert bel(m, {"G"}) == pytest.approx(1.0 - pl(m, {"not-G"}))

    def test_belief_never_exceeds_plausibility(self):
        rng = random.Random(23)
        events = [{"G"}, {"not-G"}, set(FRAME)]
        for _ in range(50):
            m = random_binary(rng, floor=0.0)
            for event in events:
                assert 0.0 <= bel(m, event) <= pl(m, event)

    def test_whole_frame(self):
        m = binary(0.2, 0.3, 0.5)
        assert bel(m, FRAME) == pytest.approx(1.0)
        assert pl(m, FRAME) == pytest.approx(1.0)


class TestDiscountThreshold:
    def vouchers(self):
        return binary(0.7, 0.3), binary(0.6, 0.4)

    def belief_at(self, rate):
        m1, m2 = self.vouchers()
        return bel(dempster_combine(m1, discount(m2, rate)), {"G"})

    def test_crossing_rate(self):
        m1, m2 = self.vouchers()
        got = discount_threshold(m1, m2, {"G"}, 0.75)
        assert got == pytest.approx(3.0 / 13.0, abs=1e-12)
        assert self.belief_at(got) == pytest.approx(0.75, abs=1e-12)

    def test_at_most_three_combinations(self, monkeypatch):
        calls = []
        combine = belief._combine

        def spy(m1, m2):
            calls.append((m1, m2))
            return combine(m1, m2)

        monkeypatch.setattr(belief, "_combine", spy)
        m1, m2 = self.vouchers()
        discount_threshold(m1, m2, {"G"}, 0.75)
        assert 1 <= len(calls) <= 3

    def test_high_conflict_crossing(self):
        # a pooled belief of 0.83 at rate 0 that climbs to 0.9 by a rate
        # near 2e-9: a conflict of 1 - 3e-9 at the undiscounted end
        m1 = binary(0.9999999995, 0.0000000005)
        m2 = binary(0.0000000025, 0.9999999975)
        got = discount_threshold(m1, m2, {"G"}, 0.9)
        assert 0.0 < got < 3e-9
        assert got == pytest.approx(oracle_discount_threshold(m1, m2, {"G"}, 0.9),
                                    abs=1e-9)
        assert bel(dempster_combine(m1, discount(m2, got)), {"G"}) == \
            pytest.approx(0.9, abs=1e-12)

    def test_drawn_inputs_match_the_bisection_oracle(self):
        rng = random.Random(31)
        kinds = {}
        for _ in range(2400):
            m1, m2, event, target = threshold_inputs(rng)
            got = outcome(lambda: discount_threshold(m1, m2, event, target))
            want = outcome(lambda: oracle_discount_threshold(m1, m2, event, target))
            if isinstance(got, tuple) or isinstance(want, tuple):
                assert got == want, (m1, m2, event, target)
                kinds[got[0].__name__] = kinds.get(got[0].__name__, 0) + 1
                continue
            kinds["solved"] = kinds.get("solved", 0) + 1
            assert abs(got - want) <= 1e-9, (m1, m2, event, target)
            pooled = bel(dempster_combine(m1, discount(m2, got)), event)
            assert abs(pooled - target) <= 1e-12, (m1, m2, event, target)
        # every refusal and the solve itself are reached
        assert set(kinds) == {"solved", "ValueError", "TotalConflictError"}
        assert kinds["solved"] >= 1200

    def test_target_already_met_at_zero(self):
        m1, m2 = self.vouchers()
        undiscounted = self.belief_at(0.0)
        assert discount_threshold(m1, m2, {"G"}, undiscounted) == 0.0

    def test_target_met_only_at_full_discount(self):
        m1, m2 = self.vouchers()
        assert discount_threshold(m1, m2, {"G"}, 0.7) == 1.0

    def test_unreachable_target(self):
        m1, m2 = self.vouchers()
        with pytest.raises(ValueError, match="reachable"):
            discount_threshold(m1, m2, {"G"}, 0.8)

    def test_target_out_of_range(self):
        m1, m2 = self.vouchers()
        with pytest.raises(ValueError):
            discount_threshold(m1, m2, {"G"}, 1.2)

    def test_belief_moves_monotonically_here(self):
        rates = [i / 20.0 for i in range(21)]
        beliefs = [self.belief_at(r) for r in rates]
        for a, b in zip(beliefs, beliefs[1:]):
            assert b <= a + 1e-12

    def test_belief_is_monotone_in_the_rate(self):
        # discount_threshold bisects without probing the inside of [0, 1]
        rng = random.Random(11)
        frame = ("a", "b", "c")
        subsets = [frozenset(s) for s in
                   ({"a"}, {"b"}, {"c"}, {"a", "b"}, {"b", "c"}, set(frame))]
        for _ in range(200):
            m1, m2 = (MassFunction(frame, dict(zip(subsets, weights)))
                      for weights in (_weights(rng, 6), _weights(rng, 6)))
            event = rng.choice(subsets[:-1])
            beliefs = [bel(dempster_combine(m1, discount(m2, k / 16.0)), event)
                       for k in range(17)]
            steps = [b - a for a, b in zip(beliefs, beliefs[1:])]
            assert all(d <= 1e-12 for d in steps) or all(d >= -1e-12 for d in steps)


def threshold_inputs(rng):
    """Mass functions on a frame of 2 to 4 atoms, an event and a target
    for discount_threshold, with some faults: the two frames differ, the
    sources are in total conflict, the event names a stray atom, or the
    target lies outside [0, 1].  Most targets lie between the beliefs at
    the two ends, the rest anywhere in [0, 1]."""
    atoms = "abcd"

    def mass(frame):
        subsets = [frozenset(c) for k in range(1, len(frame) + 1)
                   for c in itertools.combinations(frame, k)]
        focal = rng.sample(subsets, rng.randint(1, min(4, len(subsets))))
        raw = [0.01 + rng.random() for _ in focal]
        total = math.fsum(raw)
        return MassFunction(frame, {f: x / total for f, x in zip(focal, raw)})

    frame = tuple(atoms[:rng.randint(2, 4)])
    m1, m2 = mass(frame), mass(frame)
    fault = rng.random()
    if fault < 0.03:
        m2 = mass(tuple(atoms[:rng.randint(2, 4)]))
    elif fault < 0.06:
        atom = rng.choice(frame)
        m1 = MassFunction(frame, {atom: 1.0})
        m2 = MassFunction(frame, {frozenset(frame) - {atom}: 1.0})
    event = frozenset(rng.sample(frame, rng.randint(1, len(frame))))
    if rng.random() < 0.03:
        event |= {"z"}
    pick = rng.random()
    if pick < 0.02:
        return m1, m2, event, rng.choice([-0.1, 1.5, math.nan])
    try:
        ends = bel(dempster_combine(m1, m2), event), bel(m1, event)
    except ValueError:
        return m1, m2, event, rng.random()
    if pick < 0.25:
        return m1, m2, event, rng.random()
    return m1, m2, event, ends[0] + rng.random() * (ends[1] - ends[0])
