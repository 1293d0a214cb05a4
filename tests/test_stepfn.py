import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgamma.stepfn import (
    StepFunction,
    gaps,
    oscillation,
    random_step_function,
    rearrange,
    segment,
    staircase_from_gaps,
    total_variation,
    transition_abscissae,
    truncate,
)

step_functions = st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.0, 10.0), min_size=n + 1, max_size=n + 1,
             unique=True).map(sorted),
    st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
)).filter(lambda bv: min(np.diff(bv[0])) > 1e-6).map(
    lambda bv: StepFunction(tuple(bv[0]), tuple(bv[1])))


def random_u(rng, n_max=20, levels=None):
    n = int(rng.integers(2, n_max + 1))
    bp = np.sort(rng.uniform(0, 10, n + 1))
    while np.min(np.diff(bp)) < 1e-6:
        bp = np.sort(rng.uniform(0, 10, n + 1))
    if levels is None:
        vals = rng.uniform(-5, 5, n)
    else:
        vals = rng.integers(0, levels + 1, n).astype(float)
    return StepFunction(tuple(bp), tuple(vals))


class TestStepFunction:
    def test_evaluation(self):
        u = StepFunction((0.0, 1.0, 3.0), (2.0, -1.0))
        assert u(0.5) == 2.0
        assert u(2.0) == -1.0
        # a breakpoint takes the right piece's value, and beyond either end the end piece's
        assert [u(x) for x in (0.0, 1.0, 3.0, -1.0, 4.0)] == [2.0, -1.0, -1.0, 2.0, -1.0]
        # NaN lies past every breakpoint, so it would read the last piece
        with pytest.raises(ValueError, match="NaN"):
            u(math.nan)

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError):
            StepFunction((0.0, 0.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            StepFunction((0.0, bad, 2.0, 3.0), (0.0, 0.3, 0.6))
        with pytest.raises(ValueError, match="finite"):
            StepFunction((0.0, 1.0, 2.0, 3.0), (0.0, bad, 0.6))

    def test_canonical_merges(self):
        u = StepFunction((0.0, 1.0, 2.0, 3.0), (1.0, 1.0, 2.0))
        c = u.canonical()
        assert c.values == (1.0, 2.0)
        assert c.breakpoints == (0.0, 2.0, 3.0)

    def test_json_round_trip(self):
        u = StepFunction((0.0, 1.5, 3.0), (1.0, -2.0))
        assert StepFunction.from_json(u.to_json()) == u

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("0.0,1.0\n1.5,-2.0\n3.0,\n")
        u = StepFunction.from_csv(path)
        assert u.breakpoints == (0.0, 1.5, 3.0)
        assert u.values == (1.0, -2.0)


class TestTruncate:
    def test_clamp(self):
        u = StepFunction((0, 1, 2, 3), (-1.0, 5.0, 2.0))
        assert truncate(u, 0.0, 3.0).values == (0.0, 3.0, 2.0)

    def test_identity_inside_band(self):
        u = StepFunction((0, 1, 2), (0.5, 1.5))
        assert truncate(u, 0.0, 2.0).values == u.values

    def test_rejects_bad_band(self):
        u = StepFunction((0, 1), (1.0,))
        with pytest.raises(ValueError):
            truncate(u, 2.0, 1.0)

    def test_oscillation_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = random_u(rng)
            assert oscillation(truncate(u, -1.0, 2.0)) <= 3.0 + 1e-12


class TestSegment:
    def test_floor(self):
        u = StepFunction((0, 1), (2.7,))
        assert segment(u, 1.0).values == (2.0,)

    def test_floor_negative(self):
        u = StepFunction((0, 1), (-0.3,))
        assert segment(u, 0.5).values == (-0.5,)

    def test_characterization(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = random_u(rng)
            delta = float(rng.choice([0.25, 1.0, 1.7]))
            s = segment(u, delta)
            diff = np.asarray(u.values) - np.asarray(s.values)
            assert np.all(diff >= -1e-9)
            assert np.all(diff < delta + 1e-9)

    def test_commutes_with_lattice_truncation(self):
        rng = np.random.default_rng(5)
        delta = 0.5
        for _ in range(100):
            u = random_u(rng)
            a = segment(truncate(u, -1.0, 2.0), delta)
            b = truncate(segment(u, delta), -1.0, 2.0)
            assert a.values == b.values


class TestRearrange:
    def test_sorting(self):
        u = StepFunction((0, 1, 2, 3), (3.0, 1.0, 2.0))
        assert rearrange(u).values == (1.0, 2.0, 3.0)

    def test_fixed_point(self):
        u = StepFunction((0, 1, 2.5, 3), (1.0, 2.0, 2.0))
        assert rearrange(u) == u.canonical()

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            u = random_u(rng)
            m = rearrange(u)
            assert rearrange(m) == m

    def test_level_set_measures(self):
        # measure tally oracle over 1000 random step functions
        rng = np.random.default_rng(7)
        for _ in range(1000):
            u = random_u(rng, levels=6)
            m = rearrange(u)
            for level in set(u.values):
                mu = sum(l for l, v in zip(u.lengths, u.values) if v == level)
                mm = sum(l for l, v in zip(m.lengths, m.values) if v == level)
                assert mu == pytest.approx(mm, abs=1e-9)

    def test_oscillation_invariant(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = random_u(rng)
            assert oscillation(rearrange(u)) == pytest.approx(oscillation(u), abs=1e-12)

    def test_tv_of_rearrangement_is_oscillation(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            u = random_u(rng)
            assert total_variation(rearrange(u)) == pytest.approx(
                oscillation(u), abs=1e-9)


class TestVariation:
    def test_monotone_staircase(self):
        u = staircase_from_gaps([1.0] * 5, 0.5)
        assert total_variation(u) == pytest.approx(5 * 0.5, abs=1e-12)

    def test_zigzag(self):
        u = StepFunction((0, 1, 2, 3), (0.0, 1.0, 0.0))
        assert total_variation(u) == 2.0

    def test_constant(self):
        assert oscillation(StepFunction((0, 1), (3.0,))) == 0.0


class TestGaps:
    def test_unit_staircase(self):
        u = StepFunction((0, 1, 2, 3, 4), (0.0, 1.0, 2.0, 3.0))
        assert gaps(u, 1.0) == (1.0, 1.0, 1.0)

    def test_skipped_level_gives_zero(self):
        # jump of 2*delta at x=2: level 2 has measure zero
        u = StepFunction((0, 1, 2, 3), (0.0, 1.0, 3.0))
        assert gaps(u, 1.0) == (1.0, 1.0, 0.0)

    def test_rejects_non_monotone(self):
        u = StepFunction((0, 1, 2), (1.0, 0.0))
        with pytest.raises(ValueError):
            gaps(u, 1.0)

    def test_rejects_off_lattice(self):
        u = StepFunction((0, 1, 2), (0.0, 0.7))
        with pytest.raises(ValueError):
            gaps(u, 0.5)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            l = rng.uniform(0.1, 2.0, n)
            l[rng.random(n) < 0.3] = 0.0
            if l[0] == 0.0:
                l[0] = 0.4
            delta = float(rng.choice([0.25, 1.0]))
            u = staircase_from_gaps(l, delta)
            assert np.allclose(gaps(u, delta), l, atol=1e-12)

    def test_transition_abscissae_start_at_domain(self):
        u = staircase_from_gaps([0.5, 1.5], 1.0, start=2.0)
        xs = transition_abscissae(u, 1.0)
        assert xs[0] == 2.0
        assert xs == (2.0, 2.5, 4.0)

    def test_transition_abscissae_match_piece_scan(self):
        # the per-level scan for the first piece at or above the level
        def scan(u, delta):
            ks = [round(v / delta) for v in u.values]
            xs = [u.breakpoints[0]]
            for target in range(ks[0] + 1, ks[-1] + 1):
                xs.append(next(x for x, k in zip(u.breakpoints, ks) if k >= target))
            return tuple(xs)

        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            delta = float(rng.choice([0.25, 1.0, 0.05]))
            levels = np.cumsum(rng.integers(0, 4, size=n)) - int(rng.integers(0, 5))
            bp = np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)], rng.uniform(0.1, 2.0, n)]))
            u = StepFunction(tuple(bp), tuple(delta * levels))
            assert transition_abscissae(u, delta) == scan(u, delta)


@given(step_functions)
@settings(max_examples=100, deadline=None)
def test_chain_pipeline_properties(u):
    delta = 0.5
    w = rearrange(segment(truncate(u, -1.0, 2.0), delta))
    assert w.is_nondecreasing()
    ks = [round(v / delta) for v in w.values]
    assert all(abs(v - k * delta) < 1e-9 for v, k in zip(w.values, ks))
    assert min(w.values) >= delta * math.floor(-1.0 / delta) - 1e-9
    assert max(w.values) <= delta * math.floor(2.0 / delta) + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_random_step_function_levels_and_piece_counts(seed):
    rng = random.Random(seed)
    for _ in range(20):
        u = random_step_function(rng, 20, levels=7)
        assert 2 <= len(u.values) <= 20
        assert set(u.values) <= set(range(7))
        v = random_step_function(rng, 10)
        assert 2 <= len(v.values) <= 10
        assert all(-3.0 <= x <= 3.0 for x in v.values)
        assert u.breakpoints[0] >= 0.0 and u.breakpoints[-1] <= 10.0
