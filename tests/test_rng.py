import math
import statistics

import pytest

from ccarena.rng import _LCG_A, _LCG_C, DetRng, mix_seed


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DetRng(42)
        b = DetRng(42)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_spawn_streams_are_stable_and_distinct(self):
        base = DetRng(42)
        child_a = base.spawn(7)
        child_b = DetRng(42).spawn(7)
        other = DetRng(42).spawn(8)
        seq_a = [child_a.next_u64() for _ in range(50)]
        assert seq_a == [child_b.next_u64() for _ in range(50)]
        assert seq_a != [other.next_u64() for _ in range(50)]

    def test_mix_seed_spreads_small_inputs(self):
        outs = {mix_seed(s, salt) for s in range(4) for salt in range(4)}
        assert len(outs) == 16


class TestDistributions:
    def test_uniform_range_and_mean(self):
        rng = DetRng(1)
        xs = [rng.random() for _ in range(20_000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(statistics.fmean(xs) - 0.5) < 0.01

    def test_randrange_covers_support(self):
        rng = DetRng(2)
        seen = {rng.randrange(7) for _ in range(2_000)}
        assert seen == set(range(7))

    def test_normal_moments(self):
        rng = DetRng(3)
        xs = [rng.normal(50, 10) for _ in range(20_000)]
        assert abs(statistics.fmean(xs) - 50) < 0.3
        assert abs(statistics.pstdev(xs) - 10) < 0.3

    def test_exponential_moments(self):
        rng = DetRng(4)
        xs = [rng.exponential(100) for _ in range(20_000)]
        assert all(x >= 0 for x in xs)
        assert abs(statistics.fmean(xs) - 100) < 3.0

    def test_largest_uniform_stays_below_one(self):
        # the state one step before an all-ones draw: random() is at most
        # 1 - 2**-53, so exponential's log(1 - u) needs no clamp
        state = (2**64 - 1 - _LCG_C) * pow(_LCG_A, -1, 2**64) % 2**64
        rng = DetRng(0)
        rng._state = state
        assert rng.random() == 1 - 2**-53
        rng._state = state
        assert math.isfinite(rng.exponential(100.0))

    def test_exponential_zero_mean_degenerates(self):
        rng = DetRng(5)
        assert [rng.exponential(0) for _ in range(5)] == [0.0] * 5

    def test_uniform_ms_inclusive_bounds(self):
        rng = DetRng(6)
        samples = {rng.uniform_ms((3, 5)) for _ in range(500)}
        assert samples == {3, 4, 5}


class TestDrawsFollowTheRecipe:
    """Each draw equals the README recipe built from next_u64(): a uniform
    double is the top 53 bits / 2^53, an integer in [lo, hi] is
    lo + floor(u * (hi - lo + 1))."""

    @staticmethod
    def reference(rng):
        def uniform():
            return (rng.next_u64() >> 11) * 2.0 ** -53

        def integer(lo, hi):
            return lo + int(uniform() * (hi - lo + 1))
        return uniform, integer

    def test_every_draw_matches_the_reference(self):
        from ccarena.simkit import MAX_MS

        got_rng, ref_rng = DetRng(11).spawn(5), DetRng(11).spawn(5)
        uniform, integer = self.reference(ref_rng)
        bounds = [(0, 0), (7, 7), (3, 5), (10, 30), (0, MAX_MS), (MAX_MS - 9, MAX_MS)]
        for k in range(12_000):
            lo, hi = bounds[k % len(bounds)]
            assert got_rng.random() == uniform()
            assert got_rng.randrange(hi - lo + 1) == integer(0, hi - lo)
            assert got_rng.uniform_ms((lo, hi)) == integer(lo, hi)
        assert got_rng.next_u64() == ref_rng.next_u64()  # both consumed alike

    def test_empty_ranges_raise(self):
        rng = DetRng(1)
        with pytest.raises(ValueError):
            rng.uniform_ms((5, 4))
        with pytest.raises(ValueError):
            rng.randrange(0)

