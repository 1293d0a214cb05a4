import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bvgamma.laws import ModelLaw, PackagedDyadicLaw, PiecewiseConstantLaw
from bvgamma.minprob import (
    MinProblem,
    in_domain,
    log_cost,
    minimize,
    power_cost,
    telescopic_margin,
    window_sums,
)

length_tuples = st.integers(4, 16).flatmap(lambda n: st.lists(
    st.floats(0.0, 5.0), min_size=n, max_size=n))


def random_admissible(rng, n, k):
    while True:
        l = rng.lognormal(0.0, 1.0, n)
        l[rng.random(n) < 0.3] = 0.0
        if in_domain(l, k):
            return l


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
    lengths = np.asarray(lengths, dtype=float)
    n = len(lengths)

    def terms(j):
        s_j, s_j1 = window_sums(lengths, j), window_sums(lengths, j + 1)
        return 2.0 * np.log(s_j1) - np.log(s_j[:-1]) - np.log(s_j[1:])

    lhs = [t for j in range(a, b + 1) for t in terms(j)]
    s_a, s_b1 = window_sums(lengths, a), window_sums(lengths, b + 1)
    shift = (b - a) + 1
    rhs = (2.0 * np.log(s_b1) - np.log(s_a[: n - b])
           - np.log(s_a[shift: shift + n - b]))
    return math.fsum(lhs) - math.fsum(rhs)


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


class TestLogCost:
    def test_all_equal(self):
        assert log_cost((1.0, 1.0, 1.0), 1) == pytest.approx(2 * math.log(4), abs=1e-14)

    def test_scale_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            l = random_admissible(rng, 10, 2)
            assert log_cost(7.3 * l, 2) == pytest.approx(log_cost(l, 2), rel=1e-12)

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
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(4, 16))
            k = int(rng.integers(1, 4))
            l = random_admissible(rng, n, k)
            p = float(rng.uniform(1.01, 4.0))
            assert power_cost(l, k, p) >= -1e-12

    def test_limit_to_log_cost(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, 3))
            l = random_admissible(rng, n, k)
            l = l / l.sum()
            a = power_cost(l, k, 1.0 + 1e-6)
            b = log_cost(l, k)
            assert a == pytest.approx(b, rel=1e-4, abs=1e-8)

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            power_cost((1.0, 1.0), 1, 1.0)


class TestTelescopic:
    def test_equality_at_b_equals_a(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(4, 20))
            a = int(rng.integers(1, min(4, n - 1) + 1))
            l = random_admissible(rng, n, a)
            assert telescopic_margin(l, a, a) == 0.0

    def test_nonnegative_margins(self):
        rng = np.random.default_rng(25)
        for _ in range(5000):
            n = int(rng.integers(4, 25))
            a = int(rng.integers(1, min(4, n - 1) + 1))
            l = random_admissible(rng, n, a)
            b = int(rng.integers(a, n))
            margin = telescopic_margin(l, a, b)
            assert margin >= -1e-10
            assert margin == _telescopic_margin_per_cost(l, a, b)

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
        rng = np.random.default_rng(30)
        for _ in range(200):
            n = int(rng.integers(law.steps[-1][0] + 1, 21))
            pb = MinProblem(n=n, law=law)
            l = random_admissible(rng, n, pb.min_index)
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
            assert np.max(np.abs(res.minimizer - 1.0 / n)) < 1e-6

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
        pb = MinProblem(n=8, law=ModelLaw(1))
        res = minimize(pb, starts=4, seed=3)
        for tag, trace in res.traces:
            diffs = np.diff(np.asarray(trace))
            assert np.all(diffs <= 1e-6 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_json_serialization(self):
        res = minimize(MinProblem(n=5, law=ModelLaw(1)), starts=2, seed=0)
        doc = res.to_json()
        assert doc["value"] == res.value
        assert len(doc["minimizer"]) == 5
