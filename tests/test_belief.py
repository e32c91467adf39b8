import math
import random

import pytest

from credalbox import (
    MassFunction,
    TotalConflictError,
    bel,
    bel_pl_interval,
    dempster_combine,
    discount,
    discount_threshold,
    pl,
)

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
        iv = bel_pl_interval(m, {"G"})
        assert iv.lo == pytest.approx(0.42 / 0.54)
        assert iv.hi == pytest.approx(0.42 / 0.54)
        assert iv.width == pytest.approx(0.0, abs=1e-15)

    def test_vacuous_is_maximally_open(self):
        iv = bel_pl_interval(MassFunction.vacuous(FRAME), {"G"})
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_partial_support(self):
        m = binary(0.5, 0.0, 0.5)
        iv = bel_pl_interval(m, {"G"})
        assert (iv.lo, iv.hi) == (0.5, 1.0)

    def test_bel_pl_duality(self):
        rng = random.Random(19)
        for _ in range(50):
            m = random_binary(rng)
            assert bel(m, {"G"}) == pytest.approx(1.0 - pl(m, {"not-G"}))

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
        assert got == pytest.approx(3.0 / 13.0, abs=1e-6)
        assert self.belief_at(got) == pytest.approx(0.75, abs=1e-6)

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
