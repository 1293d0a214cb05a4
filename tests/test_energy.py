import math

import numpy as np
import pytest
from scipy import integrate

from bvgamma import energy
from bvgamma.energy import (
    _measure_above,
    geometric_constant,
    hostility,
    lambda_quad,
    lambda_step,
    lambda_strip,
)
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
)
from bvgamma.minprob import in_domain, log_cost
from bvgamma.stepfn import (
    StepFunction,
    gaps,
    rearrange,
    staircase_from_gaps,
    transition_abscissae,
)


class TestRectInteraction:
    """The interaction of the unit squares [0,1] and [2,3], read off lambda_step.

    Values 0, delta, 2*delta: only the outer pair jumps by more than delta, so
    the energy is 2 * delta * int_0^1 int_2^3 (y - x)^-2 dy dx.
    """

    @staticmethod
    def _energy(delta):
        u = StepFunction((0.0, 1.0, 2.0, 3.0), (0.0, delta, 2.0 * delta))
        return lambda_step(ModelLaw(1), u, delta).value

    def test_against_2d_quadrature(self):
        oracle, _ = integrate.dblquad(
            lambda y, x: (y - x) ** -2, 0.0, 1.0, lambda x: 2.0, lambda x: 3.0)
        value = self._energy(1.0)
        assert value == pytest.approx(2.0 * math.log(4.0 / 3.0), abs=1e-12)
        assert value == pytest.approx(2.0 * oracle, rel=1e-9)

    def test_linear_in_delta(self):
        assert self._energy(2.0) == pytest.approx(2.0 * self._energy(1.0), rel=1e-14)


class TestHostility:
    def test_constant_is_zero(self):
        u = StepFunction((0, 1, 2), (3.0, 3.0))
        assert hostility(1.0, u, 1).value == 0.0

    def test_two_piece_example(self):
        u = StepFunction((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0))
        # only the outer pair (values 0 and 2) exceeds k=1
        res = hostility(1.0, u, 1)
        assert res.value == pytest.approx(2.0 * math.log(4.0 / 3.0), rel=1e-12)

    def test_adjacent_divergence(self):
        u = StepFunction((0, 1, 2), (0.0, 2.0))
        assert hostility(1.0, u, 1).value == math.inf

    def test_rejects_non_integer(self):
        u = StepFunction((0, 1, 2), (0.0, 0.5))
        with pytest.raises(ValueError):
            hostility(1.0, u, 1)

    def test_rejects_threshold_below_one(self):
        u = StepFunction((0, 1, 2), (0.0, 1.0))
        with pytest.raises(ValueError):
            hostility(1.0, u, 0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_delta(self, delta):
        # 0 * inf would turn a divergent arrangement into NaN
        u = StepFunction((0, 1, 2), (0.0, 2.0))
        with pytest.raises(ValueError, match="delta"):
            hostility(delta, u, 1)

    def test_rearrangement_never_increases(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            bp = np.sort(rng.uniform(0, 10, n + 1))
            if np.min(np.diff(bp)) < 1e-6:
                continue
            u = StepFunction(tuple(bp), tuple(rng.integers(0, 7, n).astype(float)))
            k = int(rng.integers(1, 6))
            fu = hostility(1.0, u, k).value
            fm = hostility(1.0, rearrange(u), k).value
            if math.isinf(fm):
                assert math.isinf(fu)
            elif not math.isinf(fu):
                assert fu - fm >= -1e-10


class TestLambdaStep:
    def test_two_step_staircase_zero(self):
        u = StepFunction((0, 1, 2), (0.0, 1.0))
        assert lambda_step(ModelLaw(1), u, 1.0).value == 0.0

    def test_adjacent_double_jump_diverges(self):
        u = StepFunction((0, 1, 2), (0.0, 2.0))
        assert lambda_step(ModelLaw(1), u, 1.0).value == math.inf

    def test_rejects_nonpositive_delta(self):
        u = StepFunction((0, 1, 2), (0.0, 1.0))
        with pytest.raises(ValueError):
            lambda_step(ModelLaw(1), u, 0.0)

    def test_linearity_in_the_law(self):
        u = StepFunction((0.0, 1.0, 2.5, 4.0), (0.0, 2.0, 5.0))
        a = PiecewiseConstantLaw((1, 1))
        b = PiecewiseConstantLaw((0, 0, 2))
        combined = PiecewiseConstantLaw((1, 1, 2))
        va = lambda_step(a, u, 1.0).value
        vb = lambda_step(b, u, 1.0).value
        vc = lambda_step(combined, u, 1.0).value
        assert vc == pytest.approx(va + vb, rel=1e-14)

    def test_agrees_with_hostility(self):
        rng = np.random.default_rng(12)
        delta = 0.5
        for _ in range(100):
            n = int(rng.integers(2, 9))
            bp = np.sort(rng.uniform(0, 10, n + 1))
            if np.min(np.diff(bp)) < 1e-6:
                continue
            levels = rng.integers(0, 7, n).astype(float)
            u = StepFunction(tuple(bp), tuple(levels))
            ud = StepFunction(tuple(bp), tuple(levels * delta))
            k = int(rng.integers(1, 4))
            v1 = lambda_step(ModelLaw(k), ud, delta).value
            v2 = hostility(delta, u, k).value
            assert v1 == v2


def _lambda_step_double_loop(law, u, delta):
    """One law call per pair of pieces: the oracle for lambda_step."""
    def snap(t):
        r = round(t)
        return float(r) if abs(t - r) <= 1e-9 * max(1.0, abs(t)) else t

    bp, vs = u.breakpoints, u.values
    total = 0.0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            w = float(law(snap(abs(vs[j] - vs[i]) / delta)))
            if w == 0.0:
                continue
            if j == i + 1:
                return math.inf
            total += 2.0 * w * delta * math.log(
                (bp[j] - bp[i]) * (bp[j + 1] - bp[i + 1])
                / ((bp[j] - bp[i + 1]) * (bp[j + 1] - bp[i])))
    return total


def _lattice_staircase(rng, pieces):
    """Monotone staircase on the lattice 1/20 with rises of 1..4 units."""
    bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, pieces))])
    levels = np.concatenate([[0], np.cumsum(rng.integers(1, 5, pieces - 1))])
    return StepFunction(tuple(bp), tuple(levels / 20.0))


class TestPairKernel:
    LAWS = [ModelLaw(3), PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)),
            PackagedDyadicLaw((1, 1, 1))]

    @staticmethod
    def _agree(got, want):
        if math.isinf(want) or math.isinf(got):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("delta", [0.5, 0.25, 0.2])
    @pytest.mark.parametrize("law", LAWS, ids=["phi:3", "pca", "psi:3"])
    def test_matches_double_loop_on_random_steps(self, law, delta):
        rng = np.random.default_rng(21)
        for trial in range(60):
            n = int(rng.integers(1, 25))
            bp = np.sort(rng.uniform(0, 10, n + 1))
            if np.min(np.diff(bp)) < 1e-6:
                continue
            if trial % 3 == 0:
                vs = 0.05 * np.cumsum(rng.integers(-4, 5, n))  # lattice walk
            elif trial % 3 == 1:
                vs = np.cumsum(rng.uniform(-0.2, 0.2, n))
            else:
                vs = rng.uniform(0.0, 2.0, n)
            u = StepFunction(tuple(bp), tuple(vs))
            self._agree(lambda_step(law, u, delta).value,
                        _lambda_step_double_loop(law, u, delta))

    @pytest.mark.parametrize("delta", [0.5, 0.25, 0.2])
    @pytest.mark.parametrize("law", LAWS, ids=["phi:3", "pca", "psi:3"])
    def test_matches_double_loop_on_lattice_staircase(self, law, delta):
        u = _lattice_staircase(np.random.default_rng(22), 300)
        want = _lambda_step_double_loop(law, u, delta)
        assert math.isfinite(want)
        self._agree(lambda_step(law, u, delta).value, want)

    def test_snaps_near_integer_ratios(self):
        # 0.3 / 0.1 evaluates to 3.0000000000000004, which phi:3 counts
        # unless the ratio is snapped to the threshold
        u = StepFunction((0, 1, 2, 3), (0.8, 0.9, 1.1))
        assert lambda_step(ModelLaw(3), u, 0.1).value == 0.0


def _lambda_strip_loop(law, u, delta):
    """Loop over transition abscissae: the oracle for lambda_strip."""
    xs = transition_abscissae(u, delta)
    n = len(xs) - 1
    total = 0.0
    for k, w in law.steps:
        if n < k + 1:
            continue
        for i in range(1, n - k + 1):
            num = xs[i + k] - xs[i - 1]
            d1 = xs[i + k - 1] - xs[i - 1]
            d2 = xs[i + k] - xs[i]
            if d1 <= 0 or d2 <= 0:
                return math.inf
            total += w * math.log(num * num / (d1 * d2))
    return delta * total


class TestLambdaStrip:
    def test_unit_gap_staircase(self):
        delta = 0.5
        u = staircase_from_gaps([1.0] * 5, delta)
        res = lambda_strip(ModelLaw(1), u, delta)
        assert res.value == pytest.approx(delta * 4 * math.log(4.0), rel=1e-14)

    def test_equals_delta_log_cost(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(3, 12))
            l = rng.uniform(0.05, 2.0, n)
            l[rng.random(n) < 0.2] = 0.0
            if l[0] == 0.0:
                l[0] = 0.3
            delta = float(rng.choice([0.5, 1.0]))
            u = staircase_from_gaps(l, delta)
            assert tuple(np.round(np.array(gaps(u, delta)) - l, 14)) == (0.0,) * n
            for k in range(1, 7):
                if n < k + 1 or not in_domain(l, k):
                    continue
                v1 = lambda_strip(ModelLaw(k), u, delta).value
                v2 = delta * log_cost(l, k)
                assert v1 == pytest.approx(v2, rel=1e-12)

    @pytest.mark.parametrize("law", [
        ModelLaw(1), ModelLaw(3), PiecewiseConstantLaw((0.5, 0, 2)),
        PackagedDyadicLaw((1, 1)), PackagedDyadicLaw((0, 0, 1)),
    ], ids=["phi1", "phi:3", "pca", "psi:2", "pca2"])
    def test_matches_loop_with_zero_gaps(self, law):
        rng = np.random.default_rng(15)
        kinds = set()
        for _ in range(3000):
            n = int(rng.integers(1, 14))
            l = rng.uniform(0.05, 2.0, n)
            l[rng.random(n) < 0.3] = 0.0
            if l[0] == 0.0:
                l[0] = 0.3
            delta = float(rng.choice([0.1, 0.5, 1.0]))
            u = staircase_from_gaps(l, delta)
            got = lambda_strip(law, u, delta).value
            want = _lambda_strip_loop(law, u, delta)
            if math.isinf(want) or want == 0.0:
                kinds.add(want)
                assert got == want
            else:
                kinds.add("finite")
                assert abs(got - want) <= 1e-14 * want
        # the all-inactive and +inf branches are both reached
        assert {0.0, math.inf} <= kinds

    def test_rejects_non_monotone(self):
        u = StepFunction((0, 1, 2), (1.0, 0.0))
        with pytest.raises(ValueError):
            lambda_strip(ModelLaw(1), u, 1.0)


class TestLambdaQuad:
    def test_constant_is_zero(self):
        res = lambda_quad(ModelLaw(1), lambda x: np.zeros_like(np.asarray(x)),
                          (0.0, 1.0), 0.1)
        assert res.value == 0.0

    def test_linear_profile_analytic(self):
        # for u(x) = x on (0,1) and the unit step law, the energy is
        # 2*(1 - delta + delta*log(delta)); direct calculus on |y-x| > delta
        delta = 0.05
        res = lambda_quad(ModelLaw(1), lambda x: np.asarray(x, dtype=float),
                          (0.0, 1.0), delta, tol=1e-4)
        exact = 2.0 * (1.0 - delta + delta * math.log(delta))
        assert res.value == pytest.approx(exact, rel=5e-3)

    def test_increases_as_delta_shrinks(self):
        vals = [lambda_quad(ModelLaw(1), lambda x: np.asarray(x, dtype=float),
                            (0.0, 1.0), d).value for d in (0.2, 0.1, 0.05)]
        assert vals[0] < vals[1] < vals[2] < 2.0

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (1.0, 0.0)])
    def test_rejects_empty_interval(self, interval):
        with pytest.raises(ValueError, match="empty interval"):
            lambda_quad(ModelLaw(1), lambda x: np.asarray(x, dtype=float), interval, 0.1)


def _measure_above_full_array(w, h, threshold):
    """Fractional formula applied to every segment: the oracle for _measure_above."""
    def frac(g0, g1):
        lo = np.minimum(g0, g1)
        hi = np.maximum(g0, g1)
        denom = hi - lo
        flat = denom == 0
        safe = np.where(flat, 1.0, denom)
        f = np.clip((hi - threshold) / safe, 0.0, 1.0)
        return np.where(flat, (g0 > threshold).astype(float), f)

    g0, g1 = w[:-1], w[1:]
    return h * float(np.sum(frac(g0, g1) + frac(-g0, -g1)))


class TestMeasureAbove:
    @pytest.mark.parametrize("kind", ["random", "plateau", "exact-threshold"])
    def test_matches_full_array_formula(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 3000))
            if kind == "random":
                t = abs(float(rng.normal()))
                w = rng.normal(size=n)
            elif kind == "plateau":
                # runs of equal values give segments with g0 == g1
                t = float(rng.integers(0, 4)) / 3.0
                w = np.repeat(np.round(rng.normal(size=n) * 3.0) / 3.0,
                              rng.integers(1, 4, size=n))
            else:
                # samples equal to +-threshold give segments with lo == threshold
                t = 0.1 * float(rng.integers(1, 5))
                w = rng.choice([2.0 * t, t, 0.5 * t, 0.0, -t, -2.0 * t], size=n)
            want = _measure_above_full_array(w, 1e-3, t)
            got = _measure_above(w, 1e-3, t)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_whole_segments(self):
        w = np.array([0.0, 2.0, 2.0, 0.0, -2.0, -2.0])
        # above 1 on [0.5, 2.5] and below -1 on [3.5, 5]
        assert _measure_above(w, 1.0, 1.0) == 3.5


def _inner_integral_allocating(law, w, h, delta, items):
    """Inner integral with fresh temporaries per shift: the oracle for the work array."""
    if items is not None:
        return math.fsum(wt * _measure_above(w, h, k * delta) for k, wt in items)
    vals = np.asarray(law(np.abs(w) / delta), dtype=float)
    return h * (float(np.sum(vals)) - 0.5 * (vals[0] + vals[-1]))


def _bump(x):
    return np.sin(np.pi * np.asarray(x)) ** 2


def _linear(x):
    return np.asarray(x, dtype=float)


class TestLambdaQuadWorkArray:
    """The shift loop writes every shift into one work array per grid level,
    and the law branch overwrites it; results must equal the allocating
    loop's bit for bit."""

    # the largest grids are 32768 points, except 16384 for the slower zeta law
    @pytest.mark.parametrize("law, u, delta", [
        (AffineThetaLaw(), _bump, 0.005),
        (AffineThetaLaw(), _linear, 0.002),
        (ModelLaw(1), _bump, 0.01),
        (DyadicAffineLaw(nodes=((-2, 0.1), (0, 0.5), (2, 1.5))), _bump, 0.01),
    ])
    def test_matches_allocating_inner_integral(self, monkeypatch, law, u, delta):
        got = lambda_quad(law, u, (0.0, 1.0), delta)
        monkeypatch.setattr(energy, "_inner_integral", _inner_integral_allocating)
        want = lambda_quad(law, u, (0.0, 1.0), delta)
        assert (got.value, got.error_estimate) == (want.value, want.error_estimate)


class TestLambdaQuadLinear:
    """u(x) = x on (0, 1) with the step law of threshold k: energy
    2 (1/k - delta + delta log(k delta)), with a jump of the inner integral
    at the shift k delta."""

    @pytest.mark.parametrize("k, delta", [(1, 0.1), (1, 0.05), (1, 0.01), (3, 0.1)])
    def test_error_estimate_covers_error(self, k, delta):
        tol = 1e-3
        res = lambda_quad(ModelLaw(k), lambda x: np.asarray(x, dtype=float),
                          (0.0, 1.0), delta, tol=tol)
        exact = 2.0 * (1.0 / k - delta + delta * math.log(k * delta))
        assert abs(res.value - exact) <= res.error_estimate
        assert res.error_estimate <= tol * max(1.0, abs(res.value))


def _shift_indices_ratio_1005(n, tol=None):
    """The fixed shift grid used for every tol before the grid was sized by tol."""
    js = list(range(1, min(64, n) + 1))
    j = js[-1]
    while j < n:
        j = max(j + 1, int(j * 1.005))
        js.append(min(j, n))
    return np.unique(np.asarray(js, dtype=int))


class TestShiftIndices:
    """The outer shift grid has ratio 1 + sqrt(tol)/2, which is 1.005 at tol = 1e-4."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 100, 8191, 8192, 131071, 131072,
                                   (1 << 21) - 1, 1 << 21])
    def test_tol_1e4_gives_the_fixed_grid(self, n):
        got = energy._shift_indices(n, 1e-4)
        want = _shift_indices_ratio_1005(n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("n", [1, 2, 100, 8192, 131072])
    def test_nodes_cover_every_shift_range(self, tol, n):
        js = energy._shift_indices(n, tol)
        ratio = 1.0 + math.sqrt(tol) / 2
        assert js[0] == 1 and js[-1] == n
        steps = np.diff(js)
        assert np.all(steps > 0)
        assert np.all(steps <= np.maximum(1.0, (ratio - 1.0) * js[:-1]))

    @pytest.mark.parametrize("law", [ModelLaw(1), AffineThetaLaw()])
    @pytest.mark.parametrize("delta", [0.1, 0.01])
    def test_agrees_with_fixed_grid_within_estimates(self, monkeypatch, law, delta):
        got = lambda_quad(law, _bump, (0.0, 1.0), delta)
        monkeypatch.setattr(energy, "_shift_indices", _shift_indices_ratio_1005)
        want = lambda_quad(law, _bump, (0.0, 1.0), delta)
        assert abs(got.value - want.value) <= got.error_estimate + want.error_estimate

    def test_tol_1e4_result_is_bit_identical(self, monkeypatch):
        got = lambda_quad(AffineThetaLaw(), _bump, (0.0, 1.0), 0.1, tol=1e-4)
        monkeypatch.setattr(energy, "_shift_indices", _shift_indices_ratio_1005)
        want = lambda_quad(AffineThetaLaw(), _bump, (0.0, 1.0), 0.1, tol=1e-4)
        assert (got.value, got.error_estimate) == (want.value, want.error_estimate)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            lambda_quad(ModelLaw(1), _linear, (0.0, 1.0), 0.1, tol=tol)


class TestGeometricConstant:
    def test_exact_dimensions(self):
        assert geometric_constant(1).value == 2.0
        assert geometric_constant(2).value == 4.0
        assert geometric_constant(3).value == pytest.approx(2.0 * math.pi, abs=1e-15)

    def test_low_dim_quadrature_oracles(self):
        g2, _ = integrate.quad(lambda t: abs(math.cos(t)), 0.0, 2.0 * math.pi)
        assert geometric_constant(2).value == pytest.approx(g2, abs=1e-10)
        g3, _ = integrate.quad(
            lambda t: abs(math.cos(t)) * math.sin(t), 0.0, math.pi)
        assert geometric_constant(3).value == pytest.approx(
            2.0 * math.pi * g3, abs=1e-10)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_closed_form_against_quadrature(self, d):
        # |S^(d-2)| * int_0^pi |cos t| sin^(d-2) t dt
        sphere = 2.0 * math.pi ** ((d - 1) / 2) / math.gamma((d - 1) / 2)
        body, _ = integrate.quad(
            lambda t: abs(math.cos(t)) * math.sin(t) ** (d - 2), 0.0, math.pi,
            points=(0.5 * math.pi,))
        res = geometric_constant(d)
        assert res.method == "exact"
        assert res.value == pytest.approx(sphere * body, rel=1e-12)


class TestChainMargin:
    @pytest.mark.parametrize("bigger,smaller,expected", [
        (math.inf, math.inf, 0.0),
        (math.inf, 2.0, math.inf),
        (2.0, math.inf, -math.inf),
        (3.0, 3.0, 0.0),
        (3.0, 1.0, 2.0),
    ])
    def test_divergence_convention(self, bigger, smaller, expected):
        assert energy._chain_margin(bigger, smaller) == expected

    def test_nan_stays_nan(self):
        assert math.isnan(energy._chain_margin(math.nan, 1.0))
        assert math.isnan(energy._chain_margin(1.0, math.nan))
