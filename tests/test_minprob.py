import itertools
import json
import math
import random
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgamma.laws import ModelLaw, PackagedDyadicLaw, PiecewiseConstantLaw
from bvgamma import minprob
from bvgamma.minprob import (
    MinProblem,
    _certified_minimum,
    _log_terms,
    in_domain,
    log_cost,
    minimize,
    power_cost,
    random_length_tuple,
    telescopic_margin,
    window_sums,
)

length_tuples = st.integers(4, 16).flatmap(lambda n: st.lists(
    st.floats(0.0, 5.0), min_size=n, max_size=n))


@pytest.fixture
def no_polish(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified minimum needs no polish")
    monkeypatch.setattr(minprob, "_polish", refuse)


def _in_domain_convolve(lengths, k):
    """Window-sum form of the domain test: the oracle for in_domain."""
    lengths = np.asarray(lengths, dtype=float)
    if np.any(lengths < 0):
        return False
    if k >= len(lengths):
        return bool(np.any(lengths > 0))
    return bool(np.all(np.convolve(lengths, np.ones(k), mode="valid") > 0))


def _telescopic_margin_per_cost(lengths, a, b):
    """Margin with the window sums formed again for each cost: the oracle for
    telescopic_margin."""
    lengths = [float(x) for x in lengths]
    n = len(lengths)

    def logs(j):
        return [math.log(math.fsum(lengths[i:i + j])) for i in range(n - j + 1)]

    def terms(j):
        s_j, s_j1 = logs(j), logs(j + 1)
        return [2.0 * s_j1[i] - s_j[i] - s_j[i + 1] for i in range(n - j)]

    lhs = [t for j in range(a, b + 1) for t in terms(j)]
    s_a, s_b1 = logs(a), logs(b + 1)
    shift = (b - a) + 1
    rhs = [2.0 * s_b1[i] - s_a[i] - s_a[i + shift] for i in range(n - b)]
    return math.fsum(lhs) - math.fsum(rhs)


def _telescopic_margin_from_window_sums(lengths, a, b):
    """The margin from numpy's window_sums and _log_terms, the arrays MinProblem reads,
    and the sum of the magnitudes of its cost terms."""
    n = len(lengths)
    lhs = [t for j in range(a, b + 1)
           for t in _log_terms(window_sums(lengths, j), window_sums(lengths, j + 1))]
    s_a, s_b1 = window_sums(lengths, a), window_sums(lengths, b + 1)
    shift = (b - a) + 1
    rhs = (2.0 * np.log(s_b1) - np.log(s_a[: n - b])
           - np.log(s_a[shift: shift + n - b]))
    return math.fsum(lhs) - math.fsum(rhs), math.fsum(abs(t) for t in lhs)


def _loop_gradient(problem, lengths):
    """Gradient with one range-add per window: the oracle for value_and_grad."""
    lengths = np.asarray(lengths, dtype=float)
    grad = np.zeros(problem.n)
    for k, w in problem.law.steps:
        w = float(w)
        s_k = window_sums(lengths, k)
        s_k1 = window_sums(lengths, k + 1)
        diff = np.zeros(problem.n + 1)
        r1 = 2.0 / s_k1
        for i in range(len(s_k1)):
            diff[i] += w * r1[i]
            diff[i + k + 1] -= w * r1[i]
        rk = 1.0 / s_k
        for i in range(len(s_k1)):
            diff[i] -= w * rk[i]
            diff[i + k] += w * rk[i]
            diff[i + 1] -= w * rk[i + 1]
            diff[i + k + 1] += w * rk[i + 1]
        grad += np.cumsum(diff[:-1])
    return grad


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError:
        return ValueError


class TestWindowSums:
    def test_basic(self):
        assert tuple(window_sums((1, 1, 1), 2)) == (2.0, 2.0)
        assert tuple(window_sums((1, 0, 0, 1), 3)) == (1.0, 1.0)

    def test_rejects_large_window(self):
        with pytest.raises(ValueError):
            window_sums((1, 2), 3)

    @given(length_tuples, st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, lengths, k):
        n = len(lengths)
        if k + 1 > n:
            return
        s_k = window_sums(lengths, k)
        s_k1 = window_sums(lengths, k + 1)
        for i in range(n - k):
            assert s_k1[i] == pytest.approx(s_k[i] + lengths[i + k], abs=1e-12)

    def test_rows_of_a_stack_are_bitwise_their_own_sums(self):
        rng = np.random.default_rng(35)
        for n in range(1, 41):
            stack = rng.lognormal(0.0, 1.0, (5, n))
            stack[rng.random((5, n)) < 0.3] = 0.0
            for k in range(1, n + 1):
                sums = window_sums(stack, k)
                assert sums.shape == (5, n - k + 1)
                for row, expected in zip(sums, stack):
                    assert row.tobytes() == window_sums(expected, k).tobytes()


class TestDomain:
    def test_examples(self):
        assert in_domain((1, 0, 0, 1), 3)
        assert not in_domain((1, 0, 0, 1), 2)
        assert in_domain((1, 1, 1), 5)
        assert not in_domain((0, 0, 0), 5)

    def test_agrees_with_zero_run_scan(self):
        rng = np.random.default_rng(20)
        for _ in range(10_000):
            n = int(rng.integers(1, 12))
            l = rng.integers(0, 2, n).astype(float)
            k = int(rng.integers(1, 6))
            run = best = 0
            for x in l:
                run = run + 1 if x == 0 else 0
                best = max(best, run)
            assert in_domain(l, k) == (best < k if k <= n else l.sum() > 0)

    def test_matches_convolution_form(self):
        rng = np.random.default_rng(29)
        special = [0.0, 0.0, 1.0, 2.5, 1e-320, math.inf, math.nan, -1.0]
        for _ in range(20_000):
            n = int(rng.integers(0, 10))
            l = rng.choice(special, size=n, p=[0.3, 0.2, 0.2, 0.1, 0.06, 0.05, 0.05, 0.04])
            k = int(rng.integers(0, 12))
            assert _outcome(in_domain, l, k) is _outcome(_in_domain_convolve, l, k)


class TestRandomLengthTuple:
    def test_zero_run_rule_equals_in_domain(self):
        rng = np.random.default_rng(31)
        for _ in range(20_000):
            n = int(rng.integers(4, 25))
            a = int(rng.integers(1, 5))
            mask = rng.random(n) < rng.uniform(0.1, 0.9)
            lengths = np.where(mask, 0.0, rng.lognormal(0.0, 1.0, n))
            assert (b"\x01" * a not in mask.tobytes()) == in_domain(lengths, a)

    def test_mask_distribution_matches_exact_enumeration(self):
        # every (n, a) with n <= 8 and 1 <= a <= min(4, n - 1): the zero masks
        # drawn against 0.3^z 0.7^(n-z) / Z over the admissible masks, cells
        # expected below 5 times pooled into one; the chi-square statistics and
        # degrees of freedom add over the independent cases, and the bound is
        # the normal upper 5-sigma point of the total
        rng, twin = random.Random(35), random.Random(35)
        draws, chi2, dof = 3000, 0.0, 0
        for n in range(2, 9):
            for a in range(1, min(4, n - 1) + 1):
                exact = {}
                for mask in itertools.product((False, True), repeat=n):
                    if b"\x01" * a not in bytes(mask):
                        z = sum(mask)
                        exact[mask] = 0.3 ** z * 0.7 ** (n - z)
                total = math.fsum(exact.values())
                seen = Counter()
                for _ in range(draws):
                    l = random_length_tuple(rng, n, a)
                    want = [twin.lognormvariate(0.0, 1.0) for _ in range(n)]
                    for _ in range(n):
                        twin.random()
                    assert in_domain(l, a)
                    assert all(x == 0.0 or x == w for x, w in zip(l, want))
                    seen[tuple(x == 0.0 for x in l)] += 1
                assert set(seen) <= set(exact)
                expected = {m: draws * p / total for m, p in exact.items()}
                rare = [m for m in exact if expected[m] < 5]
                cells = [(seen[m], expected[m]) for m in exact if expected[m] >= 5]
                if rare:
                    cells.append((sum(seen[m] for m in rare), sum(expected[m] for m in rare)))
                chi2 += sum((o - e) ** 2 / e for o, e in cells)
                dof += len(cells) - 1
        assert dof > 200
        assert chi2 < dof + 5 * math.sqrt(2 * dof), (chi2, dof)

    def test_window_as_long_as_the_tuple_needs_one_positive_entry(self):
        rng = random.Random(36)
        for n in range(1, 4):
            for a in range(n, n + 3):
                masks = {tuple(x == 0.0 for x in random_length_tuple(rng, n, a))
                         for _ in range(300)}
                assert (True,) * n not in masks
                assert len(masks) == 2 ** n - 1
        for n, a in [(0, 1), (3, 0)]:
            with pytest.raises(ValueError):
                random_length_tuple(rng, n, a)


class TestLogCost:
    def test_all_equal(self):
        assert log_cost((1.0, 1.0, 1.0), 1) == pytest.approx(2 * math.log(4), abs=1e-14)

    def test_scale_invariant(self):
        rng = random.Random(21)
        for _ in range(50):
            l = random_length_tuple(rng, 10, 2)
            assert log_cost(7.3 * np.array(l), 2) == pytest.approx(log_cost(l, 2), rel=1e-12)

    def test_period3_beats_all_equal(self):
        pattern = np.tile([1.0, 0.0, 0.0], 4)
        assert log_cost(pattern, 3) == pytest.approx(3 * math.log(4), rel=1e-12)
        all_equal = log_cost(np.ones(12), 3)
        assert all_equal == pytest.approx(9 * math.log(16.0 / 9.0), rel=1e-12)
        assert log_cost(pattern, 3) < all_equal

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            log_cost((1.0, 0.0, 0.0, 1.0), 2)


class TestPowerCost:
    def test_all_equal_k1_p2(self):
        n = 7
        assert power_cost(np.ones(n), 1, 2.0) == pytest.approx(n - 1, abs=1e-12)

    def test_summands_nonnegative(self):
        rng = random.Random(22)
        for _ in range(200):
            n = rng.randrange(4, 16)
            k = rng.randrange(1, 4)
            l = random_length_tuple(rng, n, k)
            p = rng.uniform(1.01, 4.0)
            assert power_cost(l, k, p) >= -1e-12

    def test_limit_to_log_cost(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randrange(4, 12)
            k = rng.randrange(1, 3)
            l = np.array(random_length_tuple(rng, n, k))
            l = l / l.sum()
            a = power_cost(l, k, 1.0 + 1e-6)
            b = log_cost(l, k)
            assert a == pytest.approx(b, rel=1e-4, abs=1e-8)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            power_cost((1.0, 1.0), 1, 1.0)


class TestTelescopic:
    def test_equality_at_b_equals_a(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randrange(4, 20)
            a = rng.randrange(1, min(4, n - 1) + 1)
            l = random_length_tuple(rng, n, a)
            assert telescopic_margin(l, a, a) == 0.0

    def test_nonnegative_margins(self):
        rng = random.Random(25)
        for _ in range(5000):
            n = rng.randrange(4, 25)
            a = rng.randrange(1, min(4, n - 1) + 1)
            l = random_length_tuple(rng, n, a)
            b = rng.randrange(a, n)
            margin = telescopic_margin(l, a, b)
            assert margin >= -1e-10
            assert margin == _telescopic_margin_per_cost(l, a, b)
            # the Python window sums and logs agree with numpy's to rounding, relative to
            # the size of the costs: a margin can vanish exactly (a zero length makes a
            # merge exact), and one form may then read 0 where the other reads 1e-15
            reference, size = _telescopic_margin_from_window_sums(l, a, b)
            assert abs(margin - reference) <= 1e-12 * size, (l, a, b)

    def test_suite_ends_at_a_nonzero_equality_margin(self, monkeypatch):
        calls = []

        def margin(lengths, a, b):
            calls.append(a == b)
            return 1e-300 if a == b else 1.0

        monkeypatch.setattr(minprob, "telescopic_margin", margin)
        worst, witness = minprob.suite_telescope(random.Random(0), 1000)
        assert worst == 1e-300 and witness["reason"] == "b=a margin not exactly zero"
        assert calls.index(True) == len(calls) - 1

    def test_package_mean_bound(self):
        # summing the costs over a dyadic package bounds below by the
        # all-window AM-GM constant
        rng = np.random.default_rng(26)
        m = 2
        lo, hi = 2 ** (m - 1), 2 ** m - 1
        for _ in range(100):
            n = int(rng.integers(hi + 2, 20))
            l = rng.lognormal(0.0, 0.5, n)
            total = math.fsum(log_cost(l, j) for j in range(lo, hi + 1))
            assert total >= (n - 2 ** m + 1) * 2 * math.log(2) - 1e-9


class TestMinProblem:
    def test_requires_enough_variables(self):
        with pytest.raises(ValueError):
            MinProblem(n=3, law=ModelLaw(3))

    def test_objective_phi1_is_log_cost(self):
        pb = MinProblem(n=6, law=ModelLaw(1))
        l = np.array([1.0, 2.0, 0.5, 1.5, 1.0, 3.0])
        assert pb.objective(l) == pytest.approx(log_cost(l, 1), rel=1e-14)

    def test_homogeneous_degree_zero(self):
        pb = MinProblem(n=8, law=PackagedDyadicLaw((1, 1)))
        rng = np.random.default_rng(27)
        l = rng.lognormal(0.0, 1.0, 8)
        assert pb.objective(3.7 * l) == pytest.approx(pb.objective(l), rel=1e-12)

    def test_all_equal_psi2_per_variable(self):
        # sum_k 2 (n-k) log((k+1)/k) telescopes toward 2 m log 2 per variable
        n = 64
        pb = MinProblem(n=n, law=PackagedDyadicLaw((1, 1)))
        closed = math.fsum(
            2 * (n - k) * math.log((k + 1) / k) for k in range(1, 4))
        val = pb.objective(np.ones(n))
        assert val == pytest.approx(closed, rel=1e-12)
        assert val / n == pytest.approx(4 * math.log(2), rel=0.05)

    def test_gradient_matches_finite_differences(self):
        pb = MinProblem(n=7, law=PiecewiseConstantLaw((1, 0.5, 2)))
        rng = np.random.default_rng(28)
        l = rng.lognormal(0.0, 0.3, 7)
        grad = pb.gradient(l)
        eps = 1e-7
        for i in range(7):
            lp = l.copy(); lp[i] += eps
            lm = l.copy(); lm[i] -= eps
            fd = (pb.objective(lp) - pb.objective(lm)) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestValueAndGrad:
    LAWS = [ModelLaw(1), ModelLaw(3), PackagedDyadicLaw((1, 1)),
            PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)),
            PiecewiseConstantLaw((Fraction(1, 3), 0, Fraction(2, 7)))]

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_matches_per_cost_objective_and_loop_gradient(self, law):
        rng = random.Random(30)
        for _ in range(200):
            n = rng.randrange(law.steps[-1][0] + 1, 21)
            pb = MinProblem(n=n, law=law)
            l = random_length_tuple(rng, n, pb.min_index)
            value, grad = pb.value_and_grad(l)
            assert value == pb.objective(l)
            assert value == math.fsum(w * log_cost(l, k) for k, w in law.steps)
            assert grad.tobytes() == _loop_gradient(pb, l).tobytes()
            assert grad.tobytes() == pb.gradient(l).tobytes()

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    def test_rejects_wrong_length_and_zero_run(self, law):
        n = law.steps[-1][0] + 3
        pb = MinProblem(n=n, law=law)
        with pytest.raises(ValueError):
            pb.value_and_grad(np.ones(n + 1))
        run = np.ones(n)
        run[1:pb.min_index] = 0.0
        pb.value_and_grad(run)  # one zero short of the forbidden run
        run[pb.min_index] = 0.0
        with pytest.raises(ValueError):
            pb.value_and_grad(run)
        negative = np.ones(n)
        negative[1] = -1.0
        with pytest.raises(ValueError):
            pb.value_and_grad(negative)


class TestMinimize:
    def test_phi1_all_equal(self):
        for n in (2, 5, 8):
            res = minimize(MinProblem(n=n, law=ModelLaw(1)), starts=8, seed=0)
            exact = (n - 1) * math.log(4.0)
            assert res.value == pytest.approx(exact, rel=1e-10)
            assert np.max(np.abs(np.asarray(res.minimizer) - 1.0 / n)) < 1e-6

    def test_phi3_period3_pattern(self):
        pb = MinProblem(n=12, law=ModelLaw(3))
        res = minimize(pb, starts=16, seed=0)
        assert res.value == pytest.approx(3 * math.log(4.0), rel=1e-10)
        assert res.winning_seed.startswith("period-3")
        assert res.value < pb.objective(np.ones(12)) - 1.0

    def test_psi2_bounds(self):
        n = 32
        pb = MinProblem(n=n, law=PackagedDyadicLaw((1, 1)))
        res = minimize(pb, starts=8, seed=0)
        assert res.value >= (n - 4 + 1) * 4 * math.log(2) - 1e-9
        assert res.value <= pb.objective(np.ones(n)) + 1e-9
        assert abs(res.value - n * 4 * math.log(2)) / (n * 4 * math.log(2)) < 0.10

    def test_scale_invariance_of_result(self):
        pb = MinProblem(n=6, law=ModelLaw(2))
        a = minimize(pb, starts=6, seed=1)
        b = minimize(pb, starts=6, seed=1)
        assert a.value == b.value
        assert abs(float(np.sum(a.minimizer)) - 1.0) < 1e-12

    def test_minimizer_in_domain_and_consistent(self):
        pb = MinProblem(n=10, law=PiecewiseConstantLaw((0, 1, 1)))
        res = minimize(pb, starts=8, seed=2)
        assert in_domain(res.minimizer, pb.min_index)
        assert pb.objective(res.minimizer) == pytest.approx(res.value, abs=1e-10)

    def test_traces_monotone(self):
        # a two-step law has no certificate, so every start is polished
        pb = MinProblem(n=9, law=PiecewiseConstantLaw((1, 0, 1)))
        res = minimize(pb, starts=4, seed=3)
        assert res.certified is None
        for tag, trace in res.traces:
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-6 * np.maximum(1.0, np.abs(trace[:-1])))

    @pytest.mark.parametrize("w", [1e200, 1e300])
    def test_huge_weights_end_with_a_finite_upper_value(self, w):
        # the slope gd overflows, which once kept the line search halving t forever;
        # the minimum is homogeneous of degree 1 in the weights, so the value lies
        # between w times the unit law's minimum and w times the all-ones cost
        unit = MinProblem(n=8, law=PiecewiseConstantLaw((1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize(MinProblem(n=8, law=PiecewiseConstantLaw((w, w))), starts=4)
        low, high = minimize(unit, starts=4).value, unit.objective(np.ones(8))
        assert math.isfinite(res.value)
        assert low * w * (1 - 1e-12) <= res.value <= high * w * (1 + 1e-12)

    def test_json_serialization(self):
        res = minimize(MinProblem(n=5, law=ModelLaw(1)), starts=2, seed=0)
        doc = res.to_json()
        assert doc["value"] == res.value
        assert len(doc["minimizer"]) == 5
        assert doc["certified"] == res.certified is not None

    @pytest.mark.parametrize("n,law", [(12, ModelLaw(3)), (8, PackagedDyadicLaw((1, 1)))], ids=repr)
    def test_value_is_the_cost_of_the_minimizer(self, n, law):
        pb = MinProblem(n=n, law=law)
        res = minimize(pb, starts=4, seed=0)
        assert res.value == pb.objective(res.minimizer)

    @pytest.mark.parametrize("n,k", [(8, 1), (6, 2), (15, 3), (8, 4), (10, 5), (8, 3), (20, 6),
                                     (30, 7)])
    def test_certified_law_returns_its_pattern_unpolished(self, n, k, no_polish):
        pb = MinProblem(n=n, law=ModelLaw(k))
        res = minimize(pb, starts=16, seed=0)
        # the tag is the search's name for the pattern: period-3+2 at (8, 3),
        # period-6+2 at (20, 6), period-7+2 at (30, 7)
        assert res.starts == 1
        seeds = dict(minprob._pattern_seeds(pb))
        assert np.asarray(seeds[res.winning_seed]).tobytes() == _period_pattern(n, k).tobytes()
        assert res.certified is not None
        assert np.asarray(res.minimizer).tobytes() == (_period_pattern(n, k) / (n // k)).tobytes()
        assert res.value == pytest.approx((n // k - 1) * math.log(4.0), rel=1e-12)
        assert res.traces == [(res.winning_seed, [res.value])]

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_certified_value_is_the_closed_form(self, n):
        # the cost of the normalized pattern is one ulp off at these n
        res = minimize(MinProblem(n=n, law=ModelLaw(1)), starts=0)
        assert float.hex(res.value) == float.hex((n - 1) * math.log(4.0))

    def test_polish_reaches_the_phi1_minimum_from_smooth_starts(self):
        # minimize certifies phi1 without a search, so the descent is checked on its own
        pb = MinProblem(n=8, law=ModelLaw(1))
        rng = np.random.default_rng(34)
        values, args, _ = minprob._polish(pb, rng.lognormal(0.0, 1.0, (4, 8)))
        for value, arg in zip(values, args):
            assert value == pytest.approx(7 * math.log(4.0), rel=1e-10)
            assert np.max(np.abs(arg - 1.0 / 8)) < 1e-6

    @pytest.mark.parametrize("n", range(6, 20))
    def test_polished_entries_stay_positive(self, n):
        # from all ones, half the log coordinates of this law run off together; the row
        # stops once one reaches 300, so no entry underflows to 0 when normalized (a
        # ±600 clamp left 6 zeros at n = 12), and the final evaluation meets no zero run
        pb = MinProblem(n=n, law=PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)))
        (value,), (arg,), (trace,) = minprob._polish(pb, np.ones((1, n)))
        assert np.all(arg > 0) and math.fsum(arg) == pytest.approx(1.0, rel=1e-15)
        assert math.log(arg.max() / arg.min()) < 700
        assert value == pytest.approx(trace[-1], rel=1e-12)
        assert value == pytest.approx(pb.objective(arg), rel=1e-12)

    @pytest.mark.parametrize("law,n", [(PackagedDyadicLaw((1, 1)), 12), (ModelLaw(3), 10),
                                       (PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)), 12)],
                             ids=repr)
    def test_polished_row_does_not_depend_on_its_batch_mates(self, law, n):
        pb = MinProblem(n=n, law=law)
        rng = np.random.default_rng(36)
        seeds = [seed for _, seed in minprob._pattern_seeds(pb)]
        stack = rng.permutation(np.vstack(seeds + [rng.lognormal(0.0, 1.0, (8, n))]))
        values, args, traces = minprob._polish(pb, stack)
        assert len(values) == len(args) == len(traces) == len(seeds) + 8
        for start, value, arg, trace in zip(stack, values, args, traces):
            (alone,), (alone_arg,), (alone_trace,) = minprob._polish(pb, start[None])
            assert float.hex(value) == float.hex(alone)
            assert arg.tobytes() == alone_arg.tobytes()
            assert np.array(trace).tobytes() == np.array(alone_trace).tobytes()
            assert np.all(arg[start == 0] == 0.0)

    # minimize(MinProblem(n, law), starts=16, seed=0) as recorded with scipy's
    # L-BFGS-B polish: (law, n, value, winning seed, or None where only the value
    # is pinned)
    PINNED_SWEEPS = [
        (PackagedDyadicLaw((1, 1)), 8, 17.30410144105729, "period-1"),
        (PackagedDyadicLaw((1, 1)), 12, 28.394465139165806, "period-1"),
        (PackagedDyadicLaw((1, 1)), 16, 39.48481676889701, "period-1"),
        (PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)), 12, 6.251095664454465, None),
        (PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)), 18, 11.103125928374036, None),
        (PiecewiseConstantLaw((1, 0, 1)), 12, 20.34891647877116, None),
        (PiecewiseConstantLaw((0, 1, 1)), 10, 9.704060527839236, None),
    ]

    @pytest.mark.parametrize("law,n,value,seed", PINNED_SWEEPS, ids=repr)
    def test_pinned_sweeps(self, law, n, value, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = minimize(MinProblem(n=n, law=law), starts=16, seed=0)
        assert res.certified is None
        assert res.value == pytest.approx(value, rel=1e-12, abs=0)
        if seed is not None:
            assert res.winning_seed == seed

    # phi:3 rows that the search above reached before the certificate covered
    # every n; the certificate prints the same winning seeds
    CERTIFIED_SWEEPS = [
        (8, 1.3862943611198906, "period-3+2"),
        (10, 2.7725887222397816, "period-3+1"),
        (11, 2.7725887222397816, "period-3+2"),
        (13, 4.1588830833596715, "period-3+1"),
    ]

    @pytest.mark.parametrize("n,value,seed", CERTIFIED_SWEEPS)
    def test_certified_sweeps(self, n, value, seed, no_polish):
        res = minimize(MinProblem(n=n, law=ModelLaw(3)), starts=16, seed=0)
        assert res.certified is not None
        assert res.value == pytest.approx(value, rel=1e-12, abs=0)
        assert res.winning_seed == seed

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_tie_goes_to_the_sparser_start(self, monkeypatch, order):
        # a polished point with zeros on its start's support, as a ±600 clamp on the
        # log coordinates once gave the all-ones start: those zeros earn nothing in a tie
        pb = MinProblem(n=12, law=PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)))
        ones = np.ones(12)
        value, trace = 6.27, [6.27]
        dense = np.where(np.arange(12) % 2 == 0, 0.0, ones) / 6
        one_zero = np.where(np.arange(12) == 0, 0.0, ones)
        rows = [("one-zero", one_zero, one_zero / 11), ("ones", ones, dense)]
        rows = [rows[i] for i in order]
        monkeypatch.setattr(minprob, "_pattern_seeds", lambda pb: [r[:2] for r in rows])
        monkeypatch.setattr(minprob, "_polish", lambda pb, stack: (
            [value] * 2, [r[2] for r in rows], [trace] * 2))
        assert minimize(pb, starts=0).winning_seed == "one-zero"

    @pytest.mark.parametrize("law", [ModelLaw(2), PackagedDyadicLaw((1, 1))], ids=repr)
    @pytest.mark.parametrize("kwargs", [{"starts": -1}, {"seed": -1}, {"starts": 1.5},
                                        {"seed": 1.5}, {"seed": "1"}, {"starts": True},
                                        {"seed": False}], ids=repr)
    def test_rejects_a_negative_or_non_integer_starts_or_seed(self, law, kwargs):
        # ModelLaw(2) returns its certificate and psi:2 searches: both paths check; a
        # bool is an int to Python, but True as a start count is a caller's mistake
        with pytest.raises(ValueError, match="nonnegative integers"):
            minimize(MinProblem(n=8, law=law), **{"starts": 2, "seed": 0, **kwargs})

    def test_smooth_starts_are_random_lognormvariate_draws(self, monkeypatch):
        stacks = []
        polish = minprob._polish
        monkeypatch.setattr(minprob, "_polish", lambda pb, stack: stacks.append(stack)
                            or polish(pb, stack))
        pb = MinProblem(n=9, law=PackagedDyadicLaw((1, 1)))
        res = minimize(pb, starts=5, seed=7)
        seeds = [seed for _, seed in minprob._pattern_seeds(pb)]
        rng = random.Random(7)
        starts = [[rng.lognormvariate(0.0, 1.0) for _ in range(9)] for _ in range(5)]
        (stack,) = stacks
        assert stack.shape == (len(seeds) + 5, 9)
        assert stack.tobytes() == np.array(seeds + starts).tobytes()
        assert [tag for tag, _ in res.traces][len(seeds):] == [
            f"smooth-start-{s}" for s in range(5)]

    def test_rows_sum_each_window_size_once(self, monkeypatch):
        # psi:2 has steps 1, 2 and 3, so it reads window sizes 1 to 4
        calls = []
        sums = minprob.window_sums
        monkeypatch.setattr(minprob, "window_sums", lambda l, k: calls.append(k) or sums(l, k))
        pb = MinProblem(n=8, law=PackagedDyadicLaw((1, 1)))
        pb._rows(np.ones((3, 8)))
        assert sorted(calls) == [1, 2, 3, 4]

    def test_uncertified_law_polishes_every_start(self, monkeypatch):
        rows = []
        polish = minprob._polish
        monkeypatch.setattr(minprob, "_polish", lambda pb, starts: rows.append(len(starts))
                            or polish(pb, starts))
        pb = MinProblem(n=10, law=PiecewiseConstantLaw((1, 0, 1)))
        res = minimize(pb, starts=4, seed=0)
        assert res.certified is None
        # one batched polish whose rows are every pattern seed and every start
        assert rows == [len(list(minprob._pattern_seeds(pb))) + 4]
        assert rows == [res.starts] == [len(res.traces)]


def _window_poly(n_vars, start, size):
    """The window sum x_start + ... + x_{start+size-1}, as {exponents: coefficient}."""
    return {tuple(int(v == i) for v in range(n_vars)): 1 for i in range(start, start + size)}


def _poly_mul(p, q):
    out = Counter()
    for a, x in p.items():
        for b, y in q.items():
            out[tuple(i + j for i, j in zip(a, b))] += x * y
    return out


def _period_pattern(n, k):
    """Period-k 0/1 pattern with ones at i = n (mod k)."""
    pattern = np.zeros(n)
    pattern[n % k::k] = 1.0
    return pattern


def _jittered_pattern(rng, n, k):
    """The period-k pattern times lognormal(0, 0.1) factors, each entry then raised by
    1e-3 times a lognormal(0, 1) draw with probability 0.3, from the random.Random rng."""
    l = [p * rng.lognormvariate(0.0, 0.1) for p in _period_pattern(n, k).tolist()]
    return [x + 1e-3 * rng.lognormvariate(0.0, 1.0) if rng.random() < 0.3 else x for x in l]


class TestCertifiedMinimum:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_block_identity_has_nonnegative_coefficients(self, k):
        # prod_{r<k} S_{r,k+1} - S_{0,2k} prod_{1<=r<k} S_{r,k}, expanded in x_0..x_{2k-1}
        n_vars = 2 * k
        lhs = {(0,) * n_vars: 1}
        for r in range(k):
            lhs = _poly_mul(lhs, _window_poly(n_vars, r, k + 1))
        rhs = _window_poly(n_vars, 0, 2 * k)
        for r in range(1, k):
            rhs = _poly_mul(rhs, _window_poly(n_vars, r, k))
        diff = Counter(lhs)
        diff.subtract(rhs)
        assert min(diff.values()) >= 0
        assert sum(diff.values()) > 0  # the identity is strict for k >= 2

    def test_block_identity_for_threshold_3_matches_criterion_2(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x = rng.lognormal(0.0, 1.0, 6)
            x[rng.random(6) < 0.3] = 0.0
            t, u = window_sums(x, 3), window_sums(x, 4)
            lhs = u[0] * u[1] * u[2] - x.sum() * t[1] * t[2]
            rhs = x[0] * x[4] * t[2] + x[1] * x[5] * t[1] + x[0] * x[5] * u[1]
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12 * u[0] * u[1] * u[2])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_bound_holds_on_random_admissible_tuples(self, k):
        rng = random.Random(32 + k)
        with_zeros = 0
        for draw in range(2000):
            n = k * rng.randrange(2, 25 // k + 1)
            bound = _certified_minimum(MinProblem(n=n, law=ModelLaw(k)))[0]
            assert bound == (n // k - 1) * math.log(4.0)
            if draw % 2:
                l = random_length_tuple(rng, n, k)
            else:
                # near the minimum: a jittered period-k pattern with a light fill
                l = _jittered_pattern(rng, n, k)
            with_zeros += 0.0 in l
            assert log_cost(l, k) >= bound - 1e-12 * max(1.0, bound)
        # phi_1's domain has no zeros at all
        assert with_zeros >= 1000 if k > 1 else with_zeros == 0

    def test_merge_lemma_on_random_overlapping_windows(self):
        # S(A) S(B) - S(A|B) S(A&B) = S(A-B) S(B-A), exactly on integer entries
        rng = np.random.default_rng(37)
        for _ in range(2000):
            x = rng.integers(0, 4, 30).tolist()
            a0, c0 = sorted(rng.integers(0, 30, 2).tolist())
            c1, b1 = sorted(rng.integers(c0 + 1, 31, 2).tolist())
            A, B = set(range(a0, c1)), set(range(c0, b1))  # A & B = [c0, c1)
            if rng.random() < 0.5:
                A, B = B, A

            def S(idx):
                return sum(x[i] for i in idx)
            assert S(A) * S(B) - S(A | B) * S(A & B) == S(A - B) * S(B - A) >= 0

    @pytest.mark.parametrize("k", range(2, 10))
    def test_grouping_bound_when_k_does_not_divide_n(self, k):
        # log_cost(l, k) >= log_cost(C, 1) >= (m - 1) log 4, with C the m block
        # sums of l whose last block holds k + r entries
        rng = random.Random(38 + k)
        for draw in range(500):
            m, r = rng.randrange(1, 6), rng.randrange(1, k)
            n = m * k + r
            if draw % 2:
                l = random_length_tuple(rng, n, k)
            else:
                l = _jittered_pattern(rng, n, k)
            blocks = ([math.fsum(l[j * k:(j + 1) * k]) for j in range(m - 1)]
                      + [math.fsum(l[(m - 1) * k:])])
            bound = log_cost(blocks, 1) if m > 1 else 0.0
            assert bound >= (m - 1) * math.log(4.0) - 1e-12 * max(1.0, bound)
            assert log_cost(l, k) >= bound - 1e-12 * max(1.0, bound)

    def test_pattern_attains_certificate(self, no_polish):
        for k in range(1, 9):
            for n in range(k + 1, 41):
                pb = MinProblem(n=n, law=ModelLaw(k))
                value, pattern = _certified_minimum(pb)
                assert value == (n // k - 1) * math.log(4.0)
                assert np.asarray(pattern).tobytes() == _period_pattern(n, k).tobytes()
                # window sums of 1 and 2 make the pattern's cost exact
                assert log_cost(pattern, k) == value
                assert log_cost(np.asarray(pattern) / np.sum(pattern), k) == pytest.approx(
                    value, rel=1e-12)
                res = minimize(pb)
                assert res.certified is not None and float.hex(res.value) == float.hex(value)
                assert (np.asarray(res.minimizer).tobytes()
                        == (np.asarray(pattern) / (n // k)).tobytes())

    @pytest.mark.parametrize("w", [3, Fraction(7, 3), 0.3], ids=repr)
    def test_result_is_bitwise_the_numpy_pattern(self, w):
        # the certified result is built in pure Python; the oracle builds the
        # pattern with numpy and normalizes it by its sum
        for k in range(1, 9):
            for n in range(k + 1, 41):
                res = minimize(MinProblem(n=n, law=PiecewiseConstantLaw((0,) * (k - 1) + (w,))))
                p = np.zeros(n)
                p[n % k::k] = 1
                value = float(w) * (n // k - 1) * math.log(4.0)
                minimizer = (p / p.sum()).tolist()
                assert float.hex(res.value) == float.hex(value)
                assert [float.hex(x) for x in res.minimizer] == [float.hex(x) for x in minimizer]
                tag = f"period-{k}" + (f"+{n % k}" if n % k else "")
                expected = {"value": value, "minimizer": minimizer, "starts": 1,
                            "winning_seed": tag, "certified": "block-sum AM-GM bound",
                            "traces": [{"seed": tag, "objective": [value]}]}
                assert json.dumps(res.to_json()) == json.dumps(expected)

    def test_weight_scales_the_minimum(self):
        value, pattern = _certified_minimum(MinProblem(n=12, law=PiecewiseConstantLaw((0, 0, 2.5))))
        assert value == 2.5 * 3 * math.log(4.0)
        assert np.asarray(pattern).tobytes() == _period_pattern(12, 3).tobytes()

    @pytest.mark.parametrize("n,law", [
        (8, PackagedDyadicLaw((1, 1))), (9, PiecewiseConstantLaw((1, 0, 1))),
    ], ids=repr)
    def test_no_certificate(self, n, law):
        assert _certified_minimum(MinProblem(n=n, law=law)) is None
