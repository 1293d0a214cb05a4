import functools
import math
import random

import mpmath
import numpy as np
import pytest
from scipy import integrate

from bvgamma import energy
from bvgamma.energy import (
    geometric_constant,
    hostility,
    lambda_quad,
    lambda_step,
)
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    TabulatedLaw,
    phi_eps,
)
from bvgamma.minprob import in_domain, log_cost
from bvgamma.stepfn import (
    StepFunction,
    random_step_function,
    rearrange,
    staircase_from_gaps,
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


def _snap(t):
    """The kernel's snap of near-integer jump ratios, so both count the same pairs."""
    r = round(t)
    return float(r) if abs(t - r) <= 1e-9 * max(1.0, abs(t)) else t


def _lambda_step_double_loop(law, u, delta):
    """One law call per pair of pieces: the oracle for lambda_step."""
    bp, vs = u.breakpoints, u.values
    total = 0.0
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            w = float(law(_snap(abs(vs[j] - vs[i]) / delta)))
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
    # step laws, a density from 1, a zeta law whose densities start at 1/8, and a
    # density from 0 beside an atom
    ORACLE_LAWS = {"phi:3": LAWS[0], "pca:[0,0,1,0.5,0.25]": LAWS[1], "psi:3": LAWS[2],
                   "phi1": ModelLaw(1), "theta": AffineThetaLaw(),
                   "zeta": DyadicAffineLaw(((-2, 0.25), (0, 0.5), (3, 1.75))),
                   "phieps": phi_eps(0.01)}

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

    @pytest.mark.parametrize("name", ORACLE_LAWS)
    def test_matches_mpmath_on_random_steps(self, name):
        law, finite = self.ORACLE_LAWS[name], 0
        for u, pair_logs in _oracle_steps():
            for delta in (0.2, 0.5, 2.0):
                got = lambda_step(law, u, delta).value
                want = _mp_step_energy(law, u, delta, pair_logs)
                if math.isinf(want):
                    assert got == want
                else:
                    assert abs(got - want) <= 1e-14 * want
                    finite += got > 0
        # every law but the quadratic head, positive on (0, 1], has positive finite cases
        assert finite > 0 or name == "phieps"

    def test_hostility_matches_mpmath(self):
        rng = random.Random(5)
        for _ in range(50):
            u = random_step_function(rng, 20, levels=7)
            k = rng.randrange(1, 6)
            want = 0.5 * _mp_step_energy(ModelLaw(k), u, 1.0, _mp_pair_logs(u.breakpoints))
            got = hostility(0.5, u, k).value
            assert got == want if math.isinf(want) else abs(got - want) <= 1e-14 * want

    @staticmethod
    def _count_keys(monkeypatch, cut, x, v, law):
        """(key evaluations, energy at delta = 1) with every cut found by ``cut``."""
        calls = 0

        def counting(key, *args):
            def counted(q):
                nonlocal calls
                calls += 1
                return key(q)
            return cut(counted, *args)
        with monkeypatch.context() as m:
            m.setattr(energy, "_cut", counting)
            value = energy._step_energy(x, v, law, 1.0)
        return calls, value

    @staticmethod
    def _bisect_cut(key, above, c, lo, hi, q):
        while lo < hi:  # the hint unused
            m = (lo + hi) // 2
            lo, hi = (lo, m) if above(key(m), c) else (m + 1, hi)
        return hi

    @pytest.mark.parametrize("law, levels", [(ModelLaw(3), 1),
                                             (PiecewiseConstantLaw((0, 0, 1, 0.5)), 2)],
                             ids=["phi:3", "pca"])
    def test_cuts_cost_log_of_their_move(self, monkeypatch, law, levels):
        # 0, 3, 0, 3, ... then a slow ramp from 0 to 6: each tooth moves the ramp's cut
        # by half its length, which a walk from the hint pays in full (2.4-2.8 P L log P
        # key evaluations) and a bisection of the whole run pays on every cut (1.7)
        ramp = [6.0 * i / 2000 for i in range(2000)]
        v = [0.0, 3.0] * 30 + ramp
        x = [float(i) for i in range(len(v) + 1)]
        calls, value = self._count_keys(monkeypatch, energy._cut, x, v, law)
        assert 0 < value < math.inf
        assert calls <= len(v) * levels * math.ceil(math.log2(len(v)))
        assert value == self._count_keys(monkeypatch, self._bisect_cut, x, v, law)[1]
        # on the ramp alone each cut moves by at most one: O(1) keys per cut, where a
        # bisection pays about 19 per piece and level
        calls, _ = self._count_keys(monkeypatch, energy._cut, x[:2001], ramp, law)
        assert calls <= 3 * len(ramp) * levels


def _mp_pair_logs(bp):
    """The 40-digit pair integrals T(i, j), i + 1 < j, of the pieces of breakpoints bp."""
    with mpmath.workdps(40):
        x = [mpmath.mpf(b) for b in bp]
        return {(i, j): mpmath.log((x[j] - x[i]) * (x[j + 1] - x[i + 1])
                                   / ((x[j] - x[i + 1]) * (x[j + 1] - x[i])))
                for i in range(len(x) - 1) for j in range(i + 2, len(x) - 1)}


def _mp_step_energy(law, u, delta, pair_logs):
    """The step energy in 40-digit arithmetic, one pair at a time: the law's measure
    below each pair's snapped ratio, times 2 delta T(i, j); +inf when an adjacent pair
    has positive weight."""
    atoms, densities = law.threshold_measure()

    def weight(t):
        parts = [mpmath.mpf(w) for s, w in atoms if s < t]
        for s0, s1, c, p in densities:
            if min(t, s1) > s0:
                q = mpmath.mpf(p) + 1
                parts.append(c * (mpmath.mpf(min(t, s1)) ** q - mpmath.mpf(s0) ** q) / q)
        return mpmath.fsum(parts)

    vs, total = u.values, []
    with mpmath.workdps(40):
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                w = weight(_snap(abs(vs[j] - vs[i]) / delta))
                if w and j == i + 1:
                    return math.inf
                if w:
                    total.append(w * pair_logs[i, j])
        return 2 * mpmath.mpf(delta) * mpmath.fsum(total)


@functools.lru_cache(maxsize=None)
def _oracle_steps():
    """(u, its pair integrals) for random step functions of 2..24 pieces from 0, of
    lengths in [0.05, 1]: monotone, lattice walks on 1/20 and uniform values, in turn."""
    rng, steps = np.random.default_rng(31), []
    for trial in range(36):
        n = int(rng.integers(2, 25))
        bp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
        if trial % 3 == 0:
            vs = np.cumsum(rng.uniform(0.0, 0.3, n))
        elif trial % 3 == 1:
            vs = 0.05 * np.cumsum(rng.integers(-4, 5, n))
        else:
            vs = rng.uniform(0.0, 2.0, n)
        u = StepFunction(tuple(bp), tuple(vs))
        steps.append((u, _mp_pair_logs(u.breakpoints)))
    return steps


def _closed_form(law, l, delta, tail):
    """(value, scale) of lambda_step on staircase_from_gaps(l, delta, start, tail=tail) by
    the paper's reduction (criterion 6 derives it): over the steps (k, w) with k + 1 <= N
    gaps, the sum of w delta (log_cost(l, k) + log(S_0k / S_(N-k)k) + 2 log((S_(N-k)k + tail)
    / L)), L the domain's length; +inf off the domain of the least such k, and 0 when
    there is none.

    The closed form cancels terms of order one when the energy is small, so it holds to
    a few ulps of ``scale``, the sum of the terms' sizes, not of the value.
    """
    n = len(l)
    active = [(k, w) for k, w in law.steps if k + 1 <= n]
    if not active:
        return 0.0, 0.0
    if not in_domain(l, active[0][0]):
        return math.inf, math.inf
    length, terms = math.fsum([*l, tail]), []
    for k, w in active:
        head, last = math.fsum(l[:k]), math.fsum(l[n - k:])
        terms += [w * delta * t for t in (
            log_cost(l, k), math.log(head / last),
            2.0 * math.log(math.fsum([*l[n - k:], tail]) / length))]
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


class TestStaircaseIdentity:
    """lambda_step's telescoped pair kernel against minprob.log_cost's window sums."""

    @pytest.mark.parametrize("law", [
        *(ModelLaw(k) for k in range(1, 7)), PiecewiseConstantLaw((0.5, 0, 2)),
        PackagedDyadicLaw((1, 1)), PackagedDyadicLaw((0, 0, 1)),
        PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)),
    ], ids=["phi1", "phi:2", "phi:3", "phi:4", "phi:5", "phi:6", "pca", "psi:2", "pca2",
            "pca5"])
    def test_matches_closed_form(self, law):
        rng = np.random.default_rng(15)
        kinds = set()
        for _ in range(3000):
            n = int(rng.integers(1, 14))
            l = rng.uniform(0.05, 2.0, n)
            l[rng.random(n) < 0.3] = 0.0
            if l[0] == 0.0:
                l[0] = 0.3
            delta = float(rng.choice([0.1, 0.2, 0.25, 0.5, 1.0]))
            start, tail = float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.05, 2.0))
            u = staircase_from_gaps(l, delta, start, tail=tail)
            got = lambda_step(law, u, delta).value
            want, scale = _closed_form(law, l.tolist(), delta, tail)
            if math.isinf(want) or want == 0.0:
                kinds.add(want)
                assert got == want
            else:
                kinds.add("finite")
                assert abs(got - want) <= 1e-12 * scale
        # the +inf, no-active-step and finite cases are all reached
        assert kinds == {0.0, math.inf, "finite"}


def _bump(x):
    return np.sin(np.pi * np.asarray(x)) ** 2


def _linear(x):
    return np.asarray(x, dtype=float)


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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            lambda_quad(ModelLaw(1), _linear, (0.0, 1.0), 0.1, tol=tol)

    def test_tight_tol_refines_the_grid(self):
        # the Gauss-Legendre part of the estimate shrinks with the grid too
        res = lambda_quad(AffineThetaLaw(), _bump, (0.0, 1.0), 0.1, tol=1e-7)
        assert abs(res.value - _bump_oracle(0.1, ramp=True)) <= res.error_estimate
        assert res.error_estimate <= 1e-7 * res.value

    def test_unreachable_tol_raises(self):
        with pytest.raises(RuntimeError, match="tol=1e-12 within 131072"):
            lambda_quad(ModelLaw(1), _bump, (0.0, 1.0), 0.1, tol=1e-12)


def _mp_energy(law, delta, breaks):
    """2 delta int_0^1 law(s/delta) (1 - s) / s^2 ds: the energy of u(x) = x on (0, 1),
    by mpmath between the law's breakpoints ``breaks`` (in units of delta)."""
    points = sorted({0.0, 1.0, *(b * delta for b in breaks if b * delta < 1.0)})
    with mpmath.workdps(30):
        val = mpmath.quad(
            lambda s: mpmath.mpf(float(law(float(s) / delta))) * (1 - s) / s ** 2, points)
    return float(2 * delta * val)


def _steps_linear(steps, delta):
    return math.fsum(2.0 * w * (1.0 / k - delta + delta * math.log(k * delta))
                     for k, w in steps if k * delta < 1.0)


_GAPPED_ZETA = DyadicAffineLaw(nodes=((-2, 0.1), (0, 0.5), (2, 1.5)))

# every law the CLI parses, with the energy of u(x) = x on (0, 1) at delta
_LINEAR_ORACLES = {
    "phi1": (ModelLaw(1), lambda d: _steps_linear([(1, 1.0)], d)),
    "phi:2": (ModelLaw(2), lambda d: _steps_linear([(2, 1.0)], d)),
    "phi:3": (ModelLaw(3), lambda d: _steps_linear([(3, 1.0)], d)),
    "psi:2": (PackagedDyadicLaw((1, 1)),
              lambda d: _steps_linear([(1, 1.0), (2, 1.0), (3, 1.0)], d)),
    "pca:[0,0,1,0.5,0.25]": (PiecewiseConstantLaw((0, 0, 1, 0.5, 0.25)),
                             lambda d: _steps_linear([(3, 1.0), (4, 0.5), (5, 0.25)], d)),
    "theta": (AffineThetaLaw(), lambda d: 2.0 * (
        math.log(2.0) - 2.0 * d + 2.0 * d * math.log(2.0) + d * math.log(d))),
    "zeta": (_GAPPED_ZETA,
             lambda d: _mp_energy(_GAPPED_ZETA, d, [2.0 ** z for z in range(-3, 3)])),
    "phieps:0.01": (phi_eps(0.01), lambda d: 2.0 / 1.01 * (
        0.01 * (1.0 - d / 2.0) + 1.0 - d + d * math.log(d))),
}


class TestLambdaQuadLinear:
    """u(x) = x on (0, 1) is its own interpolant, so only the Gauss-Legendre rule over
    the thresholds and rounding are left, both within the estimate: step law of
    threshold k, energy 2 (1/k - delta + delta log(k delta)), and every law the CLI
    parses against its closed form or an mpmath oracle."""

    @pytest.mark.parametrize("k, delta", [(1, 0.1), (1, 0.05), (1, 0.01), (3, 0.1)])
    def test_error_estimate_covers_error(self, k, delta):
        tol = 1e-3
        res = lambda_quad(ModelLaw(k), lambda x: np.asarray(x, dtype=float),
                          (0.0, 1.0), delta, tol=tol)
        exact = 2.0 * (1.0 / k - delta + delta * math.log(k * delta))
        assert abs(res.value - exact) <= res.error_estimate
        assert res.error_estimate <= tol * max(1.0, abs(res.value))

    @pytest.mark.parametrize("delta", [0.1, 0.05, 0.01, 0.001])
    @pytest.mark.parametrize("spec", list(_LINEAR_ORACLES))
    def test_every_cli_law(self, spec, delta):
        tol = 1e-3
        law, oracle = _LINEAR_ORACLES[spec]
        res = lambda_quad(law, _linear, (0.0, 1.0), delta, tol=tol)
        assert abs(res.value - oracle(delta)) <= res.error_estimate
        assert res.error_estimate <= tol * max(1.0, abs(res.value))

    @pytest.mark.parametrize("delta", [0.1, 0.001])
    @pytest.mark.parametrize("power", [1.5, 1.8, 3.0])
    def test_tabulated_power_head(self, power, delta):
        # the head density s^(power - 2) is singular at 0 for power < 2
        law = TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 1.0), origin_power=power)
        res = lambda_quad(law, _linear, (0.0, 1.0), delta)
        assert abs(res.value - _mp_energy(law, delta, [0.5, 1.0, 2.0])) <= res.error_estimate
        assert res.error_estimate <= 1e-3 * max(1.0, abs(res.value))


def _bump_oracle(delta, steps=(), ramp=False):
    """Energy of u(x) = sin^2(pi x) on (0, 1) as one mpmath integral over the shift s.

    u(x + s) - u(x) = c sin(t) with c = sin(pi s) and t = pi (2x + s), so the x in
    (0, 1 - s) where |u(x + s) - u(x)| > h fill t in (lo, hi) = (max(a, pi s), pi - a),
    a = asin(h / c), and its mirror about pi, with dx = dt / (2 pi).  A step law at
    threshold k sees the measure of that set at h = k delta; theta, the integral over
    h in (delta, 2 delta) divided by delta, which is a difference of the excesses
    int (|u(x + s) - u(x)| - h)_+ dx.  The energy is 2 int_0^1 delta / s^2 inner(s) ds.
    """
    d = mpmath.mpf(delta)

    def window(s, h):
        c = mpmath.sin(mpmath.pi * s)
        if h >= c:
            return c, None, None
        a = mpmath.asin(h / c)
        return c, max(a, mpmath.pi * s), mpmath.pi - a

    def measure(s, h):
        _, lo, hi = window(s, h)
        return 0 if lo is None or lo >= hi else (hi - lo) / mpmath.pi

    def excess(s, h):
        c, lo, hi = window(s, h)
        if lo is None or lo >= hi:
            return 0
        return (c * (mpmath.cos(lo) - mpmath.cos(hi)) - h * (hi - lo)) / mpmath.pi

    if ramp:
        levels = [d, 2 * d]

        def inner(s):
            return (excess(s, d) - excess(s, 2 * d)) / d
    else:
        levels = [k * d for k, _ in steps]

        def inner(s):
            return mpmath.fsum(w * measure(s, k * d) for k, w in steps)

    # the integrand has kinks where sin(pi s) = h and where sin(pi s)^2 = h
    points = {0.0, 1.0}
    for h in levels:
        if h < 1:
            for r in (mpmath.asin(h) / mpmath.pi, mpmath.asin(mpmath.sqrt(h)) / mpmath.pi):
                points |= {float(r), float(1 - r)}
    with mpmath.workdps(20):
        val = mpmath.quad(lambda s: d / s ** 2 * inner(s), sorted(points))
    return float(2 * val)


class TestLambdaQuadBump:
    """u(x) = sin^2(pi x): the interpolation error is left, and the grid-doubling part
    of the estimate must cover it."""

    @pytest.mark.parametrize("delta", [10.0 ** (-1 - i / 4) for i in range(9)])
    @pytest.mark.parametrize("law, kw", [
        (ModelLaw(1), {"steps": [(1, 1)]}),
        (ModelLaw(3), {"steps": [(3, 1)]}),
        (AffineThetaLaw(), {"ramp": True}),
    ], ids=["phi1", "phi:3", "theta"])
    def test_error_estimate_covers_error(self, law, kw, delta):
        res = lambda_quad(law, _bump, (0.0, 1.0), delta)
        assert abs(res.value - _bump_oracle(delta, **kw)) <= res.error_estimate
        assert res.error_estimate <= 1e-3 * max(1.0, abs(res.value))


def _plateau(x):
    return np.minimum(2.0 * np.asarray(x, dtype=float), 1.0)


def _six_runs(x):
    return np.sin(6.0 * np.pi * np.asarray(x))


class TestLambdaQuadEdgeProfiles:
    """Tied samples and many monotone runs, against values recorded from the shift-grid
    quadrature this kernel replaced: (law, profile, delta, value, error_estimate)."""

    @pytest.mark.parametrize("law, u, delta, old, old_est", [
        (ModelLaw(1), _plateau, 0.1, 1.680351006640033, 0.0010122361221306946),
        (AffineThetaLaw(), _plateau, 0.01, 1.3527691098534074, 0.0003128155504715953),
        (ModelLaw(1), _six_runs, 0.01, 23.83240016647694, 0.01985839731621561),
        (ModelLaw(3), _six_runs, 0.1, 6.781102143680071, 0.0016347519656096717),
        (AffineThetaLaw(), _six_runs, 0.1, 15.35031781779183, 0.0036420549798456274),
    ])
    def test_agrees_with_shift_grid(self, law, u, delta, old, old_est):
        res = lambda_quad(law, u, (0.0, 1.0), delta)
        assert abs(res.value - old) <= old_est + res.error_estimate

    @pytest.mark.parametrize("delta", [0.2, 0.1, 0.01])
    def test_plateau_closed_form(self, delta):
        # min(2x, 1) is its own interpolant on any even grid: pairs on the ramp give
        # 1/delta - 1 + log(delta), ramp-to-plateau pairs log((1 + delta) / (2 delta))
        res = lambda_quad(ModelLaw(1), _plateau, (0.0, 1.0), delta)
        exact = 2.0 * delta * (1.0 / delta - 1.0 + math.log((1.0 + delta) / 2.0))
        assert abs(res.value - exact) <= res.error_estimate <= 1e-12


def _crossing_oracle(xs, us, tau):
    """The crossing measure of the interpolant of (xs, us), by scipy quad over x.

    For each x the y-integral is solved segment by segment: on a segment,
    |U(y) - U(x)| > tau holds between consecutive roots of U(y) - U(x) = +-tau.
    The x-integral is split where U(x) +- tau meets a node value.
    """
    def inner(x0):
        u0 = float(np.interp(x0, xs, us))
        total = 0.0
        for k in range(len(xs) - 1):
            a, b = max(xs[k], x0), xs[k + 1]
            if b <= a:
                continue
            m = (us[k + 1] - us[k]) / (xs[k + 1] - xs[k])
            roots = [xs[k] + (u0 + o - us[k]) / m for o in (-tau, tau)] if m else []
            pts = sorted({a, b, *(r for r in roots if a < r < b)})
            for p, q in zip(pts, pts[1:]):
                if abs(us[k] + m * (0.5 * (p + q) - xs[k]) - u0) > tau:
                    total += 1.0 / (p - x0) - 1.0 / (q - x0)
        return total

    breaks = set(xs)
    for k in range(len(xs) - 1):
        m = (us[k + 1] - us[k]) / (xs[k + 1] - xs[k])
        for level in (*(us + tau), *(us - tau)):
            if m and xs[k] < xs[k] + (level - us[k]) / m < xs[k + 1]:
                breaks.add(xs[k] + (level - us[k]) / m)
    pts = sorted(breaks)
    return math.fsum(integrate.quad(inner, p, q, epsabs=0.0, epsrel=1e-12)[0]
                     for p, q in zip(pts, pts[1:]))


class TestCrossingMeasure:
    """The kernel against a segment-by-segment oracle on small piecewise-linear
    profiles with several runs and with tied samples at integer levels, where a
    threshold of 1 or 2 meets a plateau exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_segment_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        xs = np.sort(rng.uniform(0.0, 3.0, n))
        us = rng.integers(0, 4, n).astype(float)
        taus = (0.5, 1.0, 1.7, 2.0)
        got = energy._crossing_measure(energy._runs(xs, us), np.array(taus))
        assert got.shape == (4,)
        for tau, measure in zip(taus, got.tolist()):
            want = _crossing_oracle(xs, us, tau)
            assert abs(measure - want) <= 1e-9 * max(1.0, want)

    def test_constant_has_no_runs(self):
        xs = np.linspace(0.0, 1.0, 9)
        assert energy._runs(xs, np.full(9, 0.5)) == []
        assert energy._crossing_measure([], np.array([0.5, 1.0])).tolist() == [0.0, 0.0]


def _cut_one(v, y, slope, level):
    """The cut of the one-threshold kernel that the batched one replaced."""
    mid = 0.5 * (level[:-1] + level[1:])
    j = np.interp(mid, v, np.arange(len(v), dtype=float)).astype(int)
    lev = np.maximum(level, v[0])
    yj, vj, sj = y[j], v[j], slope[j]
    return yj + (lev[:-1] - vj) * sj, yj + (lev[1:] - vj) * sj


def _crossing_measure_one(runs, tau):
    """The crossing measure at one threshold, as the kernel computed it before it took
    all thresholds of a grid level at once."""
    total = 0.0
    for i, (xa, ua, sa, _) in enumerate(runs):
        for j, (_, _, sb, views) in enumerate(runs[i:]):
            for sign, (v, y, slope) in zip((1.0, -1.0), views[:1] if j == 0 else views):
                d = sign * sb
                pts = np.sort(np.concatenate([xa, np.interp(sa * d * (v - tau), sa * ua, xa)]))
                c1, c2 = _cut_one(v, y, slope, d * np.interp(pts, xa, ua) + tau)
                x1, x2, e = pts[:-1], pts[1:], y[-1]
                live = (np.minimum(c1, e) > x1) & (np.minimum(c2, e) > x2)
                h, x1, x2 = (x2 - x1)[live], x1[live], x2[live]
                total += sign * float(np.sum(
                    energy._inverse_integral(h, c1[live] - x1, c2[live] - x2)
                    - energy._inverse_integral(h, e - x1, e - x2)))
    return total


def _random_samples(rng, n):
    return np.sort(rng.uniform(0.0, 1.0, n)), rng.normal(0.0, 1.0, n)


def _plateau_samples(rng, n):
    # integer levels, so neighbours tie and thresholds 1, 2 meet plateaus exactly
    return np.linspace(0.0, 1.0, n), rng.integers(0, 4, n).astype(float)


def _constant_run_samples(rng, n):
    # a rise, a constant stretch of a third of the nodes, then a fall
    us = np.concatenate([np.linspace(0.0, 1.5, n // 3), np.full(n // 3, 1.5),
                         np.linspace(1.5, -0.5, n - 2 * (n // 3))])
    return np.linspace(0.0, 2.0, n), us + rng.normal(0.0, 1e-3, n) * (us != 1.5)


class TestBatchedCrossingMeasure:
    """The kernel on a vector of thresholds against the one-threshold kernel it replaced,
    threshold by threshold, on thresholds below, at and above the oscillation."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("samples", [_random_samples, _plateau_samples,
                                         _constant_run_samples])
    def test_matches_one_threshold_kernel(self, samples, seed):
        rng = np.random.default_rng(seed)
        xs, us = samples(rng, int(rng.integers(5, 25)))
        runs = energy._runs(xs, us)
        top = float(us.max() - us.min())
        taus = np.concatenate([rng.uniform(0.0, top, 20), [0.5, 1.0, 2.0],
                               top * np.array([0.999, 1.0, 1.5])])
        got = energy._crossing_measure(runs, taus)
        want = np.array([_crossing_measure_one(runs, tau) for tau in taus])
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        assert got[-2:].tolist() == [0.0, 0.0]

    def test_matches_on_a_level_of_theta_on_the_bump(self):
        # one grid level as lambda_quad evaluates it: 24 thresholds on 513 nodes
        xs = np.linspace(0.0, 1.0, 513)
        runs = energy._runs(xs, np.sin(np.pi * xs) ** 2)
        taus = 0.01 * (1.0 + np.random.default_rng(5).uniform(0.0, 1.0, 24))
        want = [_crossing_measure_one(runs, tau) for tau in taus]
        np.testing.assert_allclose(energy._crossing_measure(runs, taus), want,
                                   rtol=1e-13, atol=0)


# The shift-grid quadrature that lambda_quad used before the crossing kernel, kept
# here as an independent second method: it integrates the energy over integer
# shifts j h of a sampling grid, each shift by the measure of {|w| > threshold} (step
# laws) or the trapezoid of theta(|w| / delta) in closed form, and refines the grid
# until the grid doubling plus the shift quadrature's halving estimate is within tol.

def _measure_above(w, h, threshold):
    """Measure of {|w| > threshold} for the piecewise-linear interpolant of w.

    A segment with both ends above the threshold counts in full and one with
    neither end above counts nothing, so only the segments whose ends fall on
    either side of it need the interpolated fraction.
    """
    count = 0
    frac = 0.0
    for above, sign in ((w > threshold, 1.0), (w < -threshold, -1.0)):
        cross = np.flatnonzero(above[:-1] != above[1:])
        # segments hold 2 above ends when full and 1 when crossing
        ends = 2 * np.count_nonzero(above) - int(above[0]) - int(above[-1])
        count += (ends - len(cross)) // 2
        g0, g1 = sign * w[cross], sign * w[cross + 1]
        hi = np.maximum(g0, g1)
        frac += float(np.sum((hi - threshold) / (hi - np.minimum(g0, g1))))
    return h * (count + frac)


def _shift_indices(n, tol):
    """Shifts 1 to n, geometric of ratio 1 + sqrt(tol)/2 (squared step tol/4), steps >= 1."""
    ratio, js = 1.0 + math.sqrt(tol) / 2, [1]
    while js[-1] < n:
        js.append(min(n, max(js[-1] + 1, int(js[-1] * ratio))))
    return np.asarray(js)


def _halving_differences(s, f):
    """Trapezoid on all nodes minus trapezoid on every other node, per node pair."""
    cells = 0.5 * np.diff(s) * (f[:-1] + f[1:])
    m = len(cells) // 2 * 2
    coarse = 0.5 * (s[2:m + 1:2] - s[0:m:2]) * (f[0:m:2] + f[2:m + 1:2])
    return cells[0:m:2] + cells[1:m:2] - coarse


def _shift_grid_level(law, samples, h, delta, tol, shifts):
    """Energy on one sampling grid and the halving estimate of its shift quadrature;
    node pairs holding more than their share of the estimate are bisected."""
    items = getattr(law, "steps", None)

    def inner(w):
        if items is not None:
            return math.fsum(wt * _measure_above(w, h, k * delta) for k, wt in items)
        assert isinstance(law, AffineThetaLaw)
        vals = np.clip(np.abs(w) / delta - 1.0, 0.0, 1.0)
        return h * (float(np.sum(vals)) - 0.5 * (vals[0] + vals[-1]))

    def integrand(js):
        return np.array([inner(samples[j:] - samples[:-j]) * delta / (j * h) ** 2
                         for j in js])

    js = shifts(len(samples) - 1, tol)
    fvals = integrand(js)
    while True:
        val = 2.0 * float(np.trapezoid(fvals, js * h))
        diffs = 2.0 * _halving_differences(js * h, fvals)
        err = abs(float(np.sum(diffs)))
        target = 0.25 * tol * max(1.0, abs(val))
        pairs = 2 * np.flatnonzero(np.abs(diffs) > target / len(diffs))
        mids = np.concatenate([js[pairs] + js[pairs + 1], js[pairs + 1] + js[pairs + 2]]) // 2
        new = np.setdiff1d(mids, js)
        if err <= target or len(new) == 0:
            return val, err
        order = np.argsort(np.concatenate([js, new]))
        js = np.concatenate([js, new])[order]
        fvals = np.concatenate([fvals, integrand(new)])[order]


def _shift_grid_quad(law, u, delta, tol=1e-3, shifts=_shift_indices):
    """The shift-grid energy of u on (0, 1), as (value, error_estimate).  The grid
    starts at 2^13 points, or finer until a cell is 0.05 delta / Lip."""
    lip = float(np.max(np.abs(np.diff(u(np.linspace(0.0, 1.0, 4097)))))) * 4096
    n = 1 << 13
    while 1.0 / n > 0.05 * delta / lip:
        n *= 2
    prev = None
    while True:
        samples = np.asarray(u(np.linspace(0.0, 1.0, n + 1)), dtype=float)
        val, outer = _shift_grid_level(law, samples, 1.0 / n, delta, tol, shifts)
        if prev is not None:
            err = abs(val - prev) + outer
            if err <= tol * max(1.0, abs(val)):
                return val, err
        assert n < 1 << 21, "the reference did not reach tol"
        prev, n = val, 2 * n


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


def _shift_indices_ratio_1005(n, tol=None):
    """The fixed shift grid used for every tol before the grid was sized by tol."""
    js = list(range(1, min(64, n) + 1))
    j = js[-1]
    while j < n:
        j = max(j + 1, int(j * 1.005))
        js.append(min(j, n))
    return np.unique(np.asarray(js, dtype=int))


class TestShiftIndices:
    """The shift grid of the reference has ratio 1 + sqrt(tol)/2, which is 1.005 at
    tol = 1e-4, and lambda_quad agrees with the reference on the fixed 1.005 grid."""

    @pytest.mark.parametrize("tol", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("n", [1, 2, 100, 8192, 131072])
    def test_nodes_cover_every_shift_range(self, tol, n):
        js = _shift_indices(n, tol)
        ratio = 1.0 + math.sqrt(tol) / 2
        assert js[0] == 1 and js[-1] == n
        steps = np.diff(js)
        assert np.all(steps > 0)
        assert np.all(steps <= np.maximum(1.0, (ratio - 1.0) * js[:-1]))

    @pytest.mark.parametrize("law", [ModelLaw(1), AffineThetaLaw()])
    @pytest.mark.parametrize("delta", [0.1, 0.01])
    def test_agrees_with_fixed_grid_within_estimates(self, law, delta):
        got = lambda_quad(law, _bump, (0.0, 1.0), delta)
        want, want_est = _shift_grid_quad(law, _bump, delta,
                                          shifts=_shift_indices_ratio_1005)
        assert abs(got.value - want) <= got.error_estimate + want_est


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
