"""Each closed form in ``reference`` against mpmath quadrature on small cases.

    python3 -m pytest perfbench/test_reference.py
"""

import math
import random
from fractions import Fraction

import mpmath
import pytest

import reference as ref


def _linear_quad(law, delta):
    """2 int_0^1 (1 - s) law(s/delta) delta / s^2 ds by quadrature."""
    points = sorted({delta * k for k in range(1, 6) if delta * k < 1} | {1.0})
    return float(2 * mpmath.quad(lambda s: (1 - s) * law(s / delta) * delta / s ** 2, points))


@pytest.mark.parametrize("spec", ["phi1", "phi:3", "psi:2"])
@pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
def test_linear_step_closed_form(spec, delta):
    weights = ref.law_weights(spec)

    def law(t):
        return float(sum(w for k, w in enumerate(weights, start=1) if t > k))
    assert ref.linear_energy(spec, delta) == pytest.approx(_linear_quad(law, delta), rel=1e-12)


@pytest.mark.parametrize("delta", [0.01, 0.1, 0.3, 0.5])
def test_linear_theta_closed_form(delta):
    def law(t):
        return min(max(t - 1, 0), 1)
    assert ref.linear_energy("theta", delta) == pytest.approx(_linear_quad(law, delta), rel=1e-12)


@pytest.mark.parametrize("s", [0.05, 0.37, 0.5, 0.81])
@pytest.mark.parametrize("h", [0.02, 0.3, 0.7])
def test_bump_inner_closed_forms(s, h):
    """Measure and excess of |u(x+s) - u(x)| over h against a midpoint rule on x."""
    n = 200_000
    dx = (1 - s) / n
    diffs = [abs(math.sin(math.pi * (x + s)) ** 2 - math.sin(math.pi * x) ** 2)
             for x in ((i + 0.5) * dx for i in range(n))]
    measure = dx * sum(d > h for d in diffs)
    excess = dx * sum(d - h for d in diffs if d > h)
    assert float(ref.bump_measure(s, h)) == pytest.approx(measure, abs=2e-5)
    assert float(ref.bump_excess(s, h)) == pytest.approx(excess, abs=2e-6)


def _bump_step(level):
    """2 int_0^1 bump_measure(s, level) / s^2 ds (no delta factor)."""
    points = sorted({0.0, 1.0, *ref._bump_breaks(level)})
    return 2 * mpmath.quad(lambda s: ref.bump_measure(s, level) / s ** 2, points)


def test_bump_theta_is_the_average_of_step_laws():
    """theta = int_1^2 1{t > tau} dtau, so its energy averages the step energies."""
    delta = 0.2
    with mpmath.workdps(15):
        avg = mpmath.quad(lambda tau: delta * _bump_step(tau * delta), [1, 2],
                          method="gauss-legendre")
    assert ref.bump_energy("theta", delta) == pytest.approx(float(avg), rel=1e-8)


@pytest.mark.parametrize("spec", ["phi1", "psi:2"])
def test_bump_step_energy_is_stable_under_refinement(spec):
    """The breakpoints make the s-integral converge: more panels change nothing."""
    delta = 0.1
    weights = [(float(w), k * delta) for k, w in enumerate(ref.law_weights(spec), 1) if w]
    points = sorted({0.0, 1.0, *(p for _, h in weights for p in ref._bump_breaks(h))})
    fine = sorted(set(points) | {i / 40 for i in range(1, 40)})
    val = 2 * mpmath.quad(
        lambda s: delta / s ** 2 * sum(w * ref.bump_measure(s, h) for w, h in weights), fine)
    assert ref.bump_energy(spec, delta) == pytest.approx(float(val), rel=1e-10)


def test_bump_energy_tends_to_the_pointwise_limit():
    """As delta -> 0 the energy tends to 2 N(phi) TV(u) = 4 for phi1 on the bump."""
    assert ref.bump_energy("phi1", 1e-4) == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_psi_scale_factor(m):
    weights = ref.law_weights(f"psi:{m}")
    def law(t):
        return float(sum(w for k, w in enumerate(weights, start=1) if t > k))
    quad = mpmath.quad(lambda t: law(t) / t ** 2, list(range(1, len(weights) + 1)) + [mpmath.inf])
    h, k = ref.psi_bound(m)
    assert ref.step_scale_factor(weights) == h == ref.harmonic(2 ** m - 1)
    assert float(h) == pytest.approx(float(quad), rel=1e-12)
    assert k == pytest.approx(m * math.log(2) / float(quad), rel=1e-12)


@pytest.mark.parametrize("nodes", [
    [(0, 1.0)],
    [(-2, 0.1), (0, 0.5), (2, 1.5)],
    [(-3, 0.25), (-1, 0.25), (3, 2.0), (4, 2.5)],
])
def test_zeta_series_matches_quadrature(nodes):
    assert ref.zeta_scale_factor_series(nodes) == pytest.approx(
        ref.zeta_scale_factor_quad(nodes), rel=1e-12)


def test_zeta_single_node_is_a_rescaled_ramp():
    """One node (0, v): v * theta(2t), scale factor 2 v log 2."""
    assert ref.zeta_scale_factor_series([(0, 1.5)]) == pytest.approx(3 * math.log(2), rel=1e-15)


@pytest.mark.parametrize("n", [6, 9, 12])
def test_phi3_pattern_attains_the_block_bound(n):
    pattern = [1.0 if i % 3 == 0 else 0.0 for i in range(n)]
    lower, upper = ref.minimum_bounds("phi:3", n)
    assert lower == upper
    assert ref.log_cost(pattern, ref.law_weights("phi:3")) == pytest.approx(lower, rel=1e-14)


@pytest.mark.parametrize("spec,n", [("phi1", 8), ("phi:3", 9), ("psi:2", 8), ("psi:2", 16)])
def test_bounds_hold_on_random_tuples(spec, n):
    rng = random.Random(n)
    weights = ref.law_weights(spec)
    lower, upper = ref.minimum_bounds(spec, n)
    assert lower <= upper + 1e-12
    assert ref.log_cost([1.0] * n, weights) == pytest.approx(ref.all_equal_cost(weights, n))
    for _ in range(50):
        x = [rng.lognormvariate(0, 1) for _ in range(n)]
        assert ref.log_cost(x, weights) >= lower - 1e-12


def test_pair_log_matches_the_double_integral():
    xs = [0.0, 0.3, 1.1, 1.5, 2.8]
    for i, j in [(0, 2), (0, 3), (1, 3)]:
        quad = mpmath.quad(lambda x, y: 1 / (y - x) ** 2, [xs[i], xs[i + 1]], [xs[j], xs[j + 1]])
        assert ref.pair_log(xs, i, j) == pytest.approx(float(quad), rel=1e-12)


def test_step_energy_small_staircase():
    xs = [0.0, 1.0, 2.0, 3.5, 4.0]
    levels = [0, 1, 2, 3]  # values 0, 1/4, 1/2, 3/4 with unit 1/4
    unit, delta = Fraction(1, 4), Fraction(1, 4)
    weights = ref.law_weights("phi1")  # pairs with |v_j - v_i| > delta interact
    want = 2 * 0.25 * math.fsum(ref.pair_log(xs, i, j) for i, j in [(0, 2), (0, 3), (1, 3)])
    assert ref.step_energy(xs, levels, unit, weights, delta) == pytest.approx(want, rel=1e-15)
    # at delta = 1/8 adjacent pieces interact, and the energy diverges
    assert ref.step_energy(xs, levels, unit, weights, Fraction(1, 8)) == math.inf
