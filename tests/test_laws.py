import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    InteractionLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    ScaledLaw,
    TabulatedLaw,
    check_admissible,
    phi_eps,
)
from bvgamma.bounds import BoundReport, psi_bound
from bvgamma.energy import EnergyResult
from bvgamma.minprob import MinProblem, MinResult, minimize
from bvgamma.stepfn import StepFunction


def quad_scale_factor(law, nodes=()):
    """Independent quadrature oracle for the scale factor.

    The body starts at 0 (quadrature nodes are interior, so t = 0 is never
    evaluated).  The tail integral beyond the last node is taken with the
    substitution s = 1/t, which maps it to a bounded integral of law(1/s).
    """
    pts = sorted(set(nodes) | {1.0})
    body, _ = integrate.quad(lambda t: law(t) / t ** 2, 0.0, max(pts),
                             points=pts, limit=500)
    tail, _ = integrate.quad(lambda s: law(1.0 / s), 0.0, 1.0 / max(pts), limit=500)
    return body + tail


def _at(law, t):
    """law, which takes one number, at every entry of the array t."""
    t = np.asarray(t, dtype=float)
    return np.array([law(x) for x in t.ravel().tolist()]).reshape(t.shape)


def _dyadic_seq_rebuilt(nodes, z):
    """Node sequence from a table rebuilt per call: the oracle for ``increments``."""
    zmin, zmax = nodes[0][0], nodes[-1][0]
    vals = dict(nodes)
    table = np.maximum.accumulate([vals.get(i, 0.0) for i in range(zmin, zmax + 1)])
    zi = np.clip(np.asarray(z), zmin - 1, zmax)
    return np.where(zi < zmin, 0.0, table[np.clip(zi - zmin, 0, zmax - zmin)])


def _dyadic_law_rebuilt(nodes, t):
    """The dyadic affine law from the rebuilt sequence: the oracle for its evaluation."""
    t = np.asarray(t, dtype=float)
    z = np.floor(np.log2(np.where(t > 0, t, 1.0))).astype(int)
    lo, hi = _dyadic_seq_rebuilt(nodes, z), _dyadic_seq_rebuilt(nodes, z + 1)
    node = np.exp2(z)
    return np.where(t > 0, lo + (hi - lo) * (t - node) / node, 0.0)[()]


_DYADIC_NODES = [
    ((-2, 0.1), (0, 0.5), (2, 1.5)),
    ((-2, 0.1), (-1, 0.3), (0, 0.35), (2, 2.0)),
    tuple((z, min(1.0, 4.0 ** z)) for z in range(-6, 2)),
    ((3, 0.75),),
]


class TestEvaluate:
    def test_model_below_threshold(self):
        assert ModelLaw(1)(0.5) == 0.0

    def test_model_at_threshold_closed(self):
        # the law vanishes on the closed interval [0, k]
        assert ModelLaw(2)(2.0) == 0.0
        assert ModelLaw(2)(2.0 + 1e-12) == 1.0

    def test_theta_affine_piece(self):
        assert AffineThetaLaw()(1.5) == 0.5

    @pytest.mark.parametrize("law", [ModelLaw(1), PackagedDyadicLaw((1, 1)), AffineThetaLaw(),
                                     DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0))),
                                     phi_eps(0.1)], ids=repr)
    def test_nan_raises(self, law):
        # NaN lies below no threshold, so the measure below it would read 0
        with pytest.raises(ValueError, match="NaN"):
            law(math.nan)

    def test_pca_sum_of_steps(self):
        law = PiecewiseConstantLaw((1, 1, 1))
        # term-by-term: phi1(2.5) + phi2(2.5) + phi3(2.5) = 1 + 1 + 0
        assert law(2.5) == 2.0

    def test_pca_vanishes_on_unit_interval(self):
        for law in (PiecewiseConstantLaw((1, 2)), PackagedDyadicLaw((1, 1)),
                    AffineThetaLaw()):
            t = np.linspace(0.0, 1.0, 101)
            assert np.all(_at(law, t) == 0.0)

    def test_dyadic_affine_indicator_equals_theta(self):
        zeta = DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0)))
        theta = AffineThetaLaw()
        t = np.linspace(0.0, 16.0, 1001)
        assert np.max(np.abs(_at(zeta, t) - _at(theta, t))) == 0.0

    def test_dyadic_affine_nodes(self):
        law = DyadicAffineLaw(nodes=((-1, 0.25), (0, 0.5), (1, 1.0)))
        for z, v in law.nodes:
            assert law(2.0 ** z) == pytest.approx(v, abs=1e-15)
        assert law(0.0) == 0.0

    @given(st.floats(0.0, 64.0), st.floats(0.0, 64.0))
    @example(1.0, 2.0)
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        for law in (ModelLaw(3), PiecewiseConstantLaw((0.5, 0, 2)),
                    PackagedDyadicLaw((1, 0, 2)), AffineThetaLaw(),
                    DyadicAffineLaw(nodes=((-2, 0.1), (0, 0.5), (2, 1.5))),
                    phi_eps(0.25)):
            assert law(lo) <= law(hi) + 1e-12

    @pytest.mark.parametrize("t", [1.5, np.array(0.25), np.linspace(-1.0, 3.0, 41),
                                   np.linspace(0.0, 3.0, 12).reshape(3, 4)])
    def test_theta_matches_clipped_shift(self, t):
        want = np.clip(np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)
        assert _at(AffineThetaLaw(), t).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nodes", _DYADIC_NODES)
    def test_dyadic_affine_matches_per_call_table(self, nodes):
        law = DyadicAffineLaw(nodes=nodes)
        t = np.linspace(0.0, 16.0, 20001)
        assert _at(law, t).tobytes() == _dyadic_law_rebuilt(law.nodes, t).tobytes()
        zmin, zmax = law.nodes[0][0], law.nodes[-1][0]
        seq = [float(_dyadic_seq_rebuilt(law.nodes, z)) for z in range(zmin - 1, zmax + 2)]
        steps = [(z, b - a) for z, a, b in zip(range(zmin - 1, zmax + 1), seq, seq[1:])]
        assert law.increments() == [(z, d) for z, d in steps if d != 0.0]

    @pytest.mark.parametrize("nodes", _DYADIC_NODES)
    def test_dyadic_sequence_lookup_matches_clip_rule(self, nodes):
        # the law at 2^z is the node sequence: zero to the left, gaps held, constant right
        law = DyadicAffineLaw(nodes=nodes)
        zmin, zmax = law.nodes[0][0], law.nodes[-1][0]
        zs = range(zmin - 5, zmax + 6)
        want = [max([v for y, v in law.nodes if y <= z], default=0.0) for z in zs]
        assert _at(law, np.exp2(zs)).tolist() == want
        assert [law(2.0 ** z) for z in zs] == want
        rng = np.random.default_rng(11)
        t = np.exp2(rng.uniform(zmin - 5, zmax + 6, 4000))
        t[rng.random(4000) < 0.05] = 0.0
        t[rng.random(4000) < 0.05] *= -1.0
        assert _at(law, t).tobytes() == _dyadic_law_rebuilt(law.nodes, t).tobytes()
        for x in t[:200].tolist():
            got, want = law(x), _dyadic_law_rebuilt(law.nodes, x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestScaleFactor:
    def test_model(self):
        assert ModelLaw(1).scale_factor() == 1.0
        for k in range(1, 9):
            assert ModelLaw(k).scale_factor_exact() == Fraction(1, k)

    def test_psi2_harmonic(self):
        law = PiecewiseConstantLaw((1, 1, 1))
        assert law.scale_factor_exact() == Fraction(11, 6)

    @given(st.lists(st.one_of(st.integers(0, 40), st.fractions(0, 40, max_denominator=30),
                              st.integers(0, 40).map(float)), min_size=1, max_size=12)
           .filter(any))
    @example([0, 0, 0, 0, 0, 0, 1.0])
    @settings(max_examples=100, deadline=None)
    def test_exact_weights_give_the_exact_sum(self, weights):
        # read from the measure: the sum of w/k, rounded once for the float value
        cases = [(PiecewiseConstantLaw(tuple(weights)), enumerate(weights, start=1))]
        packages = weights[:6]
        if any(packages):
            cases.append((PackagedDyadicLaw(tuple(packages)),
                          [(k, a) for j, a in enumerate(packages, start=1)
                           for k in range(2 ** (j - 1), 2 ** j)]))
        for law, steps in cases:
            want = sum((Fraction(w) / k for k, w in steps), Fraction(0))
            assert law.scale_factor_exact() == want
            assert law.scale_factor() == float(want)

    def test_non_integral_float_weight_has_no_exact_value(self):
        law = PiecewiseConstantLaw((1, 0, 0.3))
        assert law.scale_factor_exact() is None
        assert law.scale_factor() == math.fsum([1.0, 0.3 / 3.0])

    @pytest.mark.parametrize("alpha, beta, want", [
        (3, 1, Fraction(11, 2)), (1, 0.5, Fraction(11, 12)), (2.0, 0.25, Fraction(11, 12))])
    def test_rescaled_psi2_scales_with_alpha_beta(self, alpha, beta, want):
        # alpha * beta * 11/6, and a vertical rescaling is the weight-scaled step law
        law = ScaledLaw(PackagedDyadicLaw((1, 1)), alpha, beta)
        assert want == Fraction(alpha) * Fraction(beta) * Fraction(11, 6)
        assert law.scale_factor_exact() == want
        assert law.scale_factor() == float(want)
        if beta == 1:
            assert PackagedDyadicLaw((alpha, alpha)).scale_factor_exact() == want

    @pytest.mark.parametrize("law", [
        AffineThetaLaw(),
        DyadicAffineLaw(nodes=((-2, 0.1), (0, 0.5), (2, 1.5))),
        phi_eps(0.01),
        TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 1.0)),
        ScaledLaw(AffineThetaLaw(), 2, 1),
    ], ids=lambda law: type(law).__name__)
    def test_density_laws_have_no_exact_value(self, law):
        assert law.scale_factor_exact() is None

    def test_theta_log2(self):
        assert AffineThetaLaw().scale_factor() == pytest.approx(math.log(2), abs=1e-15)
        oracle = quad_scale_factor(AffineThetaLaw(), nodes=(1.0, 2.0))
        assert AffineThetaLaw().scale_factor() == pytest.approx(oracle, rel=1e-9)

    def test_pca_quadrature_oracle(self):
        law = PiecewiseConstantLaw((0.5, 0, 2))
        oracle = quad_scale_factor(law, nodes=(1.0, 2.0, 3.0, 4.0))
        assert law.scale_factor() == pytest.approx(oracle, rel=1e-9)

    def test_rescaled_quadrature_oracle(self):
        law = ScaledLaw(ModelLaw(1), 2.0, 3.0)
        assert law.scale_factor() == pytest.approx(6.0, abs=1e-12)
        oracle = quad_scale_factor(law, nodes=(1.0 / 3.0, 1.0))
        assert law.scale_factor() == pytest.approx(oracle, rel=1e-9)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_law(self, alpha, beta):
        base = PiecewiseConstantLaw((1, 2))
        scaled = ScaledLaw(base, alpha, beta)
        assert scaled.scale_factor() == pytest.approx(
            alpha * beta * base.scale_factor(), rel=1e-12)

    def test_dyadic_series_vs_quadrature(self):
        law = DyadicAffineLaw(nodes=((-2, 0.1), (-1, 0.3), (0, 0.35), (2, 2.0)))
        nodes = tuple(2.0 ** z for z in range(-3, 3))
        oracle = quad_scale_factor(law, nodes=nodes)
        assert law.scale_factor() == pytest.approx(oracle, rel=1e-8)

    def test_tabulated_unbounded_diverges(self):
        law = TabulatedLaw(grid=(1.0, 2.0), samples=(1.0, 2.0), tail="extrapolate")
        assert law.scale_factor() == math.inf

    @pytest.mark.parametrize("power", [1.5, 2.0, 3.0])
    def test_tabulated_quadrature_oracle(self, power):
        # read from the threshold measure: power head, panel slopes, constant tail
        law = TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 0.4), origin_power=power)
        oracle = quad_scale_factor(law, nodes=(0.5, 1.0, 2.0))
        assert law.scale_factor() == pytest.approx(oracle, rel=1e-9)


def _measure_below(law, t):
    """mu((0, t)) read from the law's threshold measure, densities in closed form."""
    atoms, densities = law.threshold_measure()
    total = math.fsum(w for s, w in atoms if s < t)
    for s0, s1, c, p in densities:
        top = min(t, s1)
        if top > s0:
            total += c * (top ** (p + 1.0) - s0 ** (p + 1.0)) / (p + 1.0)
    return total


_over_measure_laws = pytest.mark.parametrize("law", [
    ModelLaw(3),
    PiecewiseConstantLaw((0.5, 0, 2)),
    PackagedDyadicLaw((1, 1)),
    AffineThetaLaw(),
    DyadicAffineLaw(nodes=((-2, 0.1), (0, 0.5), (2, 1.5))),
    ScaledLaw(PackagedDyadicLaw((1, 1)), 2.0, 1.5),
    ScaledLaw(AffineThetaLaw(), 0.5, 3.0),
    ScaledLaw(phi_eps(0.1), 2.0, 0.5),
    phi_eps(0.01),
    TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 1.0), origin_power=1.5),
    TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 0.4), tail="extrapolate"),
], ids=lambda law: type(law).__name__)


class TestThresholdMeasure:
    """Every law is the measure of the thresholds below its argument."""

    @_over_measure_laws
    def test_reproduces_the_law(self, law):
        t = np.concatenate([np.geomspace(1e-3, 20.0, 400), [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]])
        got = np.array([_measure_below(law, x) for x in t])
        assert np.allclose(got, _at(law, t), rtol=1e-12, atol=1e-14)

    @_over_measure_laws
    def test_pieces_are_sorted_and_disjoint(self, law):
        # the contract the exact sup of check_admissible relies on
        atoms, densities = law.threshold_measure()
        assert [s for s, _ in atoms] == sorted(s for s, _ in atoms)
        assert all(s0 < s1 and p > -1 for s0, s1, _, p in densities)
        assert all(a[1] <= b[0] for a, b in zip(densities, densities[1:]))
        assert not any(s0 < s < s1 for s, _ in atoms for s0, s1, _, _ in densities)

    def test_step_atoms_are_the_steps(self):
        law = PackagedDyadicLaw((Fraction(1, 2), 1))
        assert law.threshold_measure() == (((1.0, 0.5), (2.0, 1.0), (3.0, 1.0)), ())


    @_over_measure_laws
    def test_evaluates_the_mass_below_at_every_break(self, law):
        # at each atom (which mu((0, t)) leaves out), each piece end, past them and at t <= 0
        atoms, densities = law.threshold_measure()
        ends = {s for d in densities for s in d[:2] if s < math.inf}
        breaks = sorted({s for s, _ in atoms} | ends)
        t = np.array([-math.inf, -1.0, 0.0, *breaks, *(1.5 * s for s in breaks if s > 0), 1e9])
        want = np.array([_measure_below(law, x) for x in t])
        got = _at(law, t)
        np.testing.assert_array_max_ulp(got, want, maxulp=4)
        assert not np.any(got[t <= 0])
        # each value is a Python float, and a 2-D grid reads alike entry by entry
        assert all(type(law(x)) is float for x in t.tolist())
        grid = np.resize(t, (3, t.size))
        assert _at(law, grid).tobytes() == np.resize(got, grid.shape).tobytes()

_CLOSED_FORM_T = np.concatenate([np.linspace(0.0, 6.0, 601),
                                 np.random.default_rng(3).uniform(0.0, 6.0, 4000)])


class TestClosedForms:
    """Laws read from their threshold measure against their closed forms, to 4 ulp."""

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 1.0])
    def test_quadratic_head(self, eps):
        t, c = _CLOSED_FORM_T, 1.0 / (1.0 + eps)
        np.testing.assert_array_max_ulp(_at(phi_eps(eps), t), np.where(t > 1.0, c, c * eps * t * t), 4)

    @pytest.mark.parametrize("grid, samples, power, tail", [
        ((0.5, 1.0, 2.0), (0.2, 0.5, 1.0), 2.0, "constant"),
        ((0.5, 1.0, 2.0), (0.2, 0.5, 1.0), 3.0, "extrapolate"),
        ((0.5, 1.0, 2.0), (0.2, 0.5, 1.0), 1.5, "constant"),
        ((0.3, 0.7, 1.1, 2.9), (0.1, 0.2, 0.6, 0.65), 2.5, "extrapolate"),
    ])
    def test_tabulated(self, grid, samples, power, tail):
        # np.interp between samples, the power head below the grid, then either tail
        t, ts, vs = _CLOSED_FORM_T, np.array(grid), np.array(samples)
        want = np.where(t < ts[0], vs[0] * (t / ts[0]) ** power, np.interp(t, ts, vs))
        if tail == "extrapolate":
            slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
            want = np.where(t > ts[-1], vs[-1] + slope * (t - ts[-1]), want)
        np.testing.assert_array_max_ulp(_at(TabulatedLaw(grid, samples, power, tail), t), want, 4)

    @pytest.mark.parametrize("inner, alpha, beta", [
        (phi_eps(0.1), 0.5, 3.0),
        (phi_eps(0.01), 3.0, 0.5),
        (TabulatedLaw((0.5, 1.0, 2.0), (0.2, 0.5, 1.0)), 0.3, 2.0),
        (PackagedDyadicLaw((1, 1)), 2.0, 1.5),
        (PiecewiseConstantLaw((0.5, 0, 2)), 0.3, 0.7),
        # a ramp cancels at its foot, so the ramp laws take a power-of-two beta,
        # which rescales their thresholds exactly
        (AffineThetaLaw(), 0.3, 2.0),
        (DyadicAffineLaw(nodes=((-2, 0.1), (0, 0.5), (2, 1.5))), 3.0, 0.5),
    ], ids=lambda x: type(x).__name__ if isinstance(x, InteractionLaw) else str(x))
    def test_scaled(self, inner, alpha, beta):
        t = _CLOSED_FORM_T
        np.testing.assert_array_max_ulp(_at(ScaledLaw(inner, alpha, beta), t),
                                        alpha * _at(inner, beta * t), 4)


class TestRescale:
    def test_model_k_as_rescaled_phi1(self):
        k = 4
        law = ScaledLaw(ModelLaw(1), 1.0, 1.0 / k)
        assert law(k + 0.5) == 1.0
        assert law(k - 0.5) == 0.0

    def test_identity(self):
        law = ScaledLaw(AffineThetaLaw(), 1.0, 1.0)
        t = np.linspace(0, 4, 97)
        assert np.array_equal(_at(law, t), _at(AffineThetaLaw(), t))


class TestStructure:
    def test_min_support_index(self):
        assert PiecewiseConstantLaw((1, 0, 2)).steps[0][0] == 1
        assert PiecewiseConstantLaw((0, 0, 0, 5)).steps[0][0] == 4
        assert PackagedDyadicLaw((0, 1)).steps[0][0] == 2

    def test_expand_packaged(self):
        assert PackagedDyadicLaw((1,)).expand().weights == (1.0,)
        assert PackagedDyadicLaw((1, 1)).expand().weights == (1.0, 1.0, 1.0)
        assert PackagedDyadicLaw((0, 0, 1)).expand().weights == (
            0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)

    def test_steps(self):
        assert ModelLaw(3).steps == ((3, 1),)
        assert PiecewiseConstantLaw((1, 0, 2)).steps == ((1, 1), (3, 2))
        assert PackagedDyadicLaw((0, 1)).steps == ((2, 1), (3, 1))

    def test_fraction_weight_keeps_scale_factor_exact(self):
        law = PiecewiseConstantLaw((Fraction(1, 3), 0, Fraction(2, 7)))
        assert law.steps == ((1, Fraction(1, 3)), (3, Fraction(2, 7)))
        assert law.scale_factor_exact() == Fraction(1, 3) + Fraction(2, 21)

    def test_non_step_law_has_no_steps(self):
        with pytest.raises(TypeError):
            MinProblem(n=4, law=AffineThetaLaw())

    def test_packaged_evaluates_like_expansion(self):
        law = PackagedDyadicLaw((2, 0, 1))
        t = np.linspace(0, 10, 301)
        assert np.array_equal(_at(law, t), _at(law.expand(), t))

    @pytest.mark.parametrize("make, args, message", [
        (PiecewiseConstantLaw, (), "weight list must be nonempty"),
        (PackagedDyadicLaw, (), "package list must be nonempty"),
        (PiecewiseConstantLaw, (1, -1), "weights must be nonnegative"),
        (PackagedDyadicLaw, (1, -1), "package weights must be nonnegative"),
        (PiecewiseConstantLaw, (0, 0), "at least one weight must be positive"),
        (PackagedDyadicLaw, (0, 0), "at least one package weight must be positive"),
        (PackagedDyadicLaw, (1,) * 14, "package depth must be at most 13, got 14"),
        (PackagedDyadicLaw, (0,) * 39 + (1,), "package depth must be at most 13, got 40"),
        # the total mass, which the law reaches at large t, must be a float
        (PiecewiseConstantLaw, (1e308, 1e308),
         r"weights must sum to at most 1\.7976931348623157e\+308"),
        (PackagedDyadicLaw, (1e308, 1e308),
         r"package weights must sum to at most 1\.7976931348623157e\+308"),
        (PackagedDyadicLaw, (0, 1e308),
         r"weights must sum to at most 1\.7976931348623157e\+308"),
    ])
    def test_weight_check_messages(self, make, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make(args)

    @pytest.mark.parametrize("make, args, message", [
        (PiecewiseConstantLaw, (True,), "weight True is not a number"),
        (PackagedDyadicLaw, (False, 1), "package weight False is not a number"),
        (PiecewiseConstantLaw, (1, "a"), "weight 'a' is not a number"),
        (PiecewiseConstantLaw, (None,), "weight None is not a number"),
        (PackagedDyadicLaw, ([1],), r"package weight \[1\] is not a number"),
    ])
    def test_non_number_weight_is_named(self, make, args, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            make(args)

    def test_numpy_and_fraction_weights_are_numbers(self):
        law = PiecewiseConstantLaw((np.int64(1), np.float64(0.5), Fraction(1, 3)))
        assert law.steps == ((1, 1), (2, 0.5), (3, Fraction(1, 3)))
        assert PackagedDyadicLaw((np.int64(2),)).steps == ((1, 2),)

    @pytest.mark.parametrize("nodes, message", [
        (((-2.7, 0.25), (0, 0.5), (3, 1.75)), r"node index -2\.7 of node \[-2\.7, 0\.25\]"),
        (((-2, 0.25), (0, 0.5), (True, 1.75)), r"node index True of node \[True, 1\.75\]"),
        (((2.0, 1.0),), r"node index 2\.0 of node \[2\.0, 1\.0\]"),
        ((("1", 1.0),), r"node index '1' of node \['1', 1\.0\]"),
    ])
    def test_non_integer_node_index_is_named(self, nodes, message):
        # an index is not truncated (2.7 to 2) or read from a bool (True as 1)
        with pytest.raises(TypeError, match=f"^{message} is not an integer$"):
            DyadicAffineLaw(nodes=nodes)

    def test_numpy_node_index_is_an_integer(self):
        law = DyadicAffineLaw(nodes=((np.int64(1), 1.0), (np.int32(-1), 0.5)))
        assert law.nodes == ((-1, 0.5), (1, 1.0))
        assert all(type(z) is int for z, _ in law.nodes)

    @pytest.mark.parametrize("nodes, span", [(((-501, 1.0),), "-501..-501"),
                                             (((0, 0.5), (501, 1.0)), "0..501"),
                                             (((-1100, 5e-324),), "-1100..-1100")])
    def test_node_index_past_500_is_rejected(self, nodes, span):
        # past about -537 a threshold 2^z squares to 0, and past 1023 it overflows
        with pytest.raises(ValueError, match=f"^node indices must lie in \\[-500, 500\\], "
                                             f"got {span}$"):
            DyadicAffineLaw(nodes=nodes)
        law = DyadicAffineLaw(nodes=((-500, 0.5), (500, 1.0)))
        assert law.scale_factor() == pytest.approx(0.5 * 2.0 ** 500 * 2 * math.log(2), rel=1e-9)

    def test_deepest_package_law(self):
        law = PackagedDyadicLaw((1,) * 13)
        assert len(law.steps) == 2 ** 13 - 1
        # the exact scale factor prints: its terms are within the 4300-digit limit
        exact = law.scale_factor_exact()
        assert str(exact) == f"{exact.numerator}/{exact.denominator}"

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseConstantLaw((0, 0))
        with pytest.raises(ValueError):
            PackagedDyadicLaw((0,))

    @pytest.mark.parametrize("make, args", [
        (PiecewiseConstantLaw, (math.nan,)),
        (PiecewiseConstantLaw, (1, math.nan)),
        (PiecewiseConstantLaw, (math.inf,)),
        (PiecewiseConstantLaw, (10 ** 400,)),
        (PackagedDyadicLaw, (math.inf,)),
        (PackagedDyadicLaw, (1, math.nan)),
        (DyadicAffineLaw, ((0, 0.5), (1, math.inf))),
        (DyadicAffineLaw, ((0, math.nan), (1, 1.0))),
    ])
    def test_non_finite_parameters_rejected(self, make, args):
        # a NaN weight used to vanish from the steps, and an infinite or huge one to
        # overflow in the scale factor
        with pytest.raises(ValueError, match="must be finite"):
            make(args)


class TestPhiEps:
    def test_normalization_constant(self):
        for eps in (0.1, 0.5, 1.0):
            law = phi_eps(eps)
            assert law(2.0) == pytest.approx(1.0 / (1.0 + eps), rel=1e-9)

    def test_unit_scale_factor(self):
        assert phi_eps(0.5).scale_factor() == pytest.approx(1.0, abs=1e-15)
        oracle = quad_scale_factor(phi_eps(0.5), nodes=(1.0, 2.0))
        assert phi_eps(0.5).scale_factor() == pytest.approx(oracle, rel=1e-10)

    def test_positive_near_zero(self):
        law = phi_eps(0.01)
        t = np.linspace(0.01, 1.0, 100)
        assert np.all(_at(law, t) > 0)


class TestAdmissibility:
    """Each condition is decided from the threshold measure and names its piece."""

    def test_model_passes(self):
        rep = check_admissible(ModelLaw(1))
        assert rep.ok
        assert rep.bound == 1.0
        assert rep.quadratic_coefficient == 0.0

    def test_unbounded_fails_with_witness(self):
        law = TabulatedLaw(grid=(1.0, 2.0), samples=(1.0, 2.0), tail="extrapolate")
        rep = check_admissible(law)
        assert not rep.ok
        assert rep.bounded_witness == "density on (2, inf)"
        assert "bounded: fail (density on (2, inf))" in rep.summary()

    def test_phi_eps_passes(self):
        rep = check_admissible(phi_eps(0.1))
        assert rep.ok
        assert rep.quadratic_coefficient == pytest.approx(0.1 / 1.1, rel=1e-15)
        assert rep.bound == pytest.approx(1.0 / 1.1, rel=1e-15)

    def test_non_monotone_fails(self):
        law = TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(1.0, 0.2, 0.2))
        rep = check_admissible(law)
        assert not rep.ok
        assert rep.monotone_witness == "density on (0.5, 1)"

    def test_origin_power_below_two_is_not_quadratic(self):
        # law(t) = 0.2 (2t)^1.5 near 0, so law(t) / t^2 grows without bound
        law = TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 1.0), origin_power=1.5)
        rep = check_admissible(law)
        assert not rep.ok
        assert rep.quadratic_witness == "density on (0, 0.5)"
        assert "quadratic near 0: fail (density on (0, 0.5))" in rep.summary()

    def test_quadratic_coefficient_is_the_exact_sup(self):
        # the sup of law(t) / t^2 is law(1/32) / (1/32)^2 = 0.1 * 1024
        law = DyadicAffineLaw(nodes=((-5, 0.1), (-3, 0.4), (1, 1.0)))
        rep = check_admissible(law)
        assert rep.ok
        assert rep.quadratic_coefficient == pytest.approx(102.4, rel=1e-15)
        assert "(a=102.4)" in rep.summary()

    def test_quadratic_coefficient_at_an_interior_stationary_point(self):
        # on the ramp (1/2, 1) law(t) / t^2 peaks inside the piece; a fine grid
        # reaches the same sup from below
        law = DyadicAffineLaw(nodes=((-1, 0.159935), (0, 0.831142), (2, 1.186906)))
        a = check_admissible(law).quadratic_coefficient
        t = np.linspace(0.5, 1.0, 200001)
        grid_sup = float(np.max(_at(law, t) / t ** 2))
        assert grid_sup <= a <= grid_sup * (1 + 1e-10)


# each law and record with the repr the package has always printed; ten test
# parametrizations use ids=repr, so these strings are also test IDs
_RECORD_REPRS = [
    (lambda: ModelLaw(3), "ModelLaw(k=3)"),
    (lambda: ModelLaw(), "ModelLaw(k=1)"),
    (lambda: PiecewiseConstantLaw((0, 0, 2.5)), "PiecewiseConstantLaw(weights=(0, 0, 2.5))"),
    (lambda: PackagedDyadicLaw((1, 1)), "PackagedDyadicLaw(packages=(1, 1))"),
    (lambda: AffineThetaLaw(), "AffineThetaLaw()"),
    (lambda: DyadicAffineLaw(((0, 0.5), (-2, 0.25))),
     "DyadicAffineLaw(nodes=((-2, 0.25), (0, 0.5)))"),
    (lambda: ScaledLaw(ModelLaw(2), 0.5, 2.0),
     "ScaledLaw(inner=ModelLaw(k=2), alpha=0.5, beta=2.0)"),
    (lambda: TabulatedLaw((1, 2), (0.5, 1)),
     "TabulatedLaw(grid=(1.0, 2.0), samples=(0.5, 1.0), origin_power=2.0, tail='constant')"),
    (lambda: phi_eps(0.1), "QuadraticHeadLaw(eps=0.1)"),
    (lambda: check_admissible(TabulatedLaw((1, 2), (0.5, 1), tail="extrapolate")),
     "AdmissibilityReport(monotone_witness=None, quadratic_witness=None, bounded_witness="
     "'density on (2, inf)', quadratic_coefficient=0.5, bound=inf)"),
    (lambda: StepFunction((0, 1, 2), (0, 1)),
     "StepFunction(breakpoints=(0.0, 1.0, 2.0), values=(0.0, 1.0))"),
    (lambda: EnergyResult(1.5, "exact"), "EnergyResult(value=1.5, method='exact', error_estimate=0.0)"),
    (lambda: MinProblem(n=8, law=PackagedDyadicLaw((1, 1))),
     "MinProblem(n=8, law=PackagedDyadicLaw(packages=(1, 1)))"),
    (lambda: minimize(MinProblem(6, ModelLaw(3))),
     "MinResult(value=1.3862943611198906, minimizer=(0.5, 0.0, 0.0, 0.5, 0.0, 0.0), starts=1, "
     "winning_seed='period-3', traces=[('period-3', [1.3862943611198906])], "
     "certified='block-sum AM-GM bound')"),
    (lambda: psi_bound(2),
     "BoundReport(law_id='psi:2', scale_factor=1.8333333333333333, k_lower=0.7561605606108495, "
     "chain=[('package-telescopic-bound', 1.3862943611198906), ('harmonic-scale-factor', "
     "1.8333333333333333)], dimension_note='dimension-uniform', scale_factor_exact=Fraction(11, 6))"),
]

_FROZEN = [(lambda: ModelLaw(3), "k"), (lambda: PiecewiseConstantLaw((1, 2)), "weights"),
           (lambda: PackagedDyadicLaw((1, 1)), "packages"), (lambda: AffineThetaLaw(), "steps"),
           (lambda: DyadicAffineLaw(((0, 1.0),)), "nodes"),
           (lambda: ScaledLaw(ModelLaw(1), 2.0), "alpha"),
           (lambda: TabulatedLaw((1, 2), (0.5, 1)), "tail"), (lambda: phi_eps(0.5), "eps"),
           (lambda: StepFunction((0, 1), (2,)), "values"),
           (lambda: EnergyResult(1.0, "exact"), "value"),
           (lambda: MinProblem(8, ModelLaw(1)), "n")]


class TestRecords:
    """Laws, step functions and result records: value equality, repr, immutability."""

    @pytest.mark.parametrize("make, text", _RECORD_REPRS, ids=[t for _, t in _RECORD_REPRS])
    def test_repr(self, make, text):
        assert repr(make()) == text

    @pytest.mark.parametrize("make", [m for m, _ in _RECORD_REPRS[:9]] + [
        lambda: StepFunction((0, 1, 2), (0, 1)), lambda: EnergyResult(1.5, "exact", 0.1),
        lambda: MinProblem(8, PackagedDyadicLaw((1, 1)))])
    def test_equal_values_compare_and_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equality_reads_the_fields_and_the_class(self):
        assert ModelLaw(3) != ModelLaw(2)
        # the same steps, but another class
        assert ModelLaw(1) != PiecewiseConstantLaw((1,))
        assert StepFunction((0, 1), (2,)) == StepFunction((0.0, 1.0), (2.0,))
        assert StepFunction((0, 1), (2,)) != StepFunction((0, 1), (3,))
        assert ScaledLaw(ModelLaw(2), 2.0) == ScaledLaw(ModelLaw(2), 2.0, 1.0)
        assert PackagedDyadicLaw((1, 1)) != (1, 1)

    @pytest.mark.parametrize("make, name", _FROZEN, ids=[n for _, n in _FROZEN])
    def test_frozen_refuses_assignment(self, make, name):
        obj = make()
        before = repr(obj)
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            obj.extra = 0
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert repr(obj) == before

    def test_results_are_mutable_and_unhashable(self):
        rep = psi_bound(1)
        rep.k_lower = 2.0
        assert rep.k_lower == 2.0
        for rec in (rep, MinResult(1.0, (1.0,), 1, "x"), check_admissible(ModelLaw(1))):
            with pytest.raises(TypeError):
                hash(rec)

    def test_default_lists_are_fresh(self):
        a, b = MinResult(1.0, (1.0,), 1, "x"), MinResult(1.0, (1.0,), 1, "x")
        assert a.traces == b.traces == [] and a.traces is not b.traces
        a.traces.append(("x", [1.0]))
        assert b.traces == [] and a != b
        c, d = BoundReport("theta", 0.5, 1.0), BoundReport("theta", 0.5, 1.0)
        assert c.chain == d.chain == [] and c.chain is not d.chain
        c.chain.append(("scale-factor", 0.5))
        assert d.chain == [] and c != d
