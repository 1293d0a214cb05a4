import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from bvgamma.energy import lambda_strip
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    ScaledLaw,
    TabulatedLaw,
    check_admissible,
    law_from_json,
    law_to_json,
    phi_eps,
    rescale,
)
from bvgamma.minprob import MinProblem
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


def _dyadic_seq_rebuilt(nodes, z):
    """Node sequence with its table rebuilt per call: the oracle for the stored table."""
    zmin, zmax = nodes[0][0], nodes[-1][0]
    vals = dict(nodes)
    table = np.maximum.accumulate([vals.get(i, 0.0) for i in range(zmin, zmax + 1)])
    zi = np.clip(np.asarray(z), zmin - 1, zmax)
    return np.where(zi < zmin, 0.0, table[np.clip(zi - zmin, 0, zmax - zmin)])


class TestEvaluate:
    def test_model_below_threshold(self):
        assert ModelLaw(1)(0.5) == 0.0

    def test_model_at_threshold_closed(self):
        # the law vanishes on the closed interval [0, k]
        assert ModelLaw(2)(2.0) == 0.0
        assert ModelLaw(2)(2.0 + 1e-12) == 1.0

    def test_theta_affine_piece(self):
        assert AffineThetaLaw()(1.5) == 0.5

    def test_pca_sum_of_steps(self):
        law = PiecewiseConstantLaw((1, 1, 1))
        # term-by-term: phi1(2.5) + phi2(2.5) + phi3(2.5) = 1 + 1 + 0
        assert law(2.5) == 2.0

    def test_pca_vanishes_on_unit_interval(self):
        for law in (PiecewiseConstantLaw((1, 2)), PackagedDyadicLaw((1, 1)),
                    AffineThetaLaw()):
            t = np.linspace(0.0, 1.0, 101)
            assert np.all(np.asarray(law(t)) == 0.0)

    def test_dyadic_affine_indicator_equals_theta(self):
        zeta = DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0)))
        theta = AffineThetaLaw()
        t = np.linspace(0.0, 16.0, 1001)
        assert np.max(np.abs(zeta(t) - theta(t))) == 0.0

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
        want = np.clip(np.asarray(t, dtype=float) - 1.0, 0.0, 1.0)[()]
        got = AffineThetaLaw()(t)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("nodes", [
        ((-2, 0.1), (0, 0.5), (2, 1.5)),
        ((-2, 0.1), (-1, 0.3), (0, 0.35), (2, 2.0)),
        tuple((z, min(1.0, 4.0 ** z)) for z in range(-6, 2)),
    ])
    def test_dyadic_affine_matches_per_call_table(self, nodes):
        law = DyadicAffineLaw(nodes=nodes)
        t = np.linspace(0.0, 16.0, 20001)
        z = np.floor(np.log2(np.where(t > 0, t, 1.0))).astype(int)
        lo, hi = _dyadic_seq_rebuilt(law.nodes, z), _dyadic_seq_rebuilt(law.nodes, z + 1)
        node = np.exp2(z)
        want = np.where(t > 0, lo + (hi - lo) * (t - node) / node, 0.0)
        assert law(t).tobytes() == want.tobytes()
        zmin, zmax = law.nodes[0][0], law.nodes[-1][0]
        seq = [float(_dyadic_seq_rebuilt(law.nodes, z)) for z in range(zmin - 1, zmax + 2)]
        steps = [(z, b - a) for z, a, b in zip(range(zmin - 1, zmax + 1), seq, seq[1:])]
        assert law.increments() == [(z, d) for z, d in steps if d != 0.0]


class TestScaleFactor:
    def test_model(self):
        assert ModelLaw(1).scale_factor() == 1.0
        for k in range(1, 9):
            assert ModelLaw(k).scale_factor_exact() == Fraction(1, k)

    def test_psi2_harmonic(self):
        law = PiecewiseConstantLaw((1, 1, 1))
        assert law.scale_factor_exact() == Fraction(11, 6)

    def test_theta_log2(self):
        assert AffineThetaLaw().scale_factor() == pytest.approx(math.log(2), abs=1e-15)
        oracle = quad_scale_factor(AffineThetaLaw(), nodes=(1.0, 2.0))
        assert AffineThetaLaw().scale_factor() == pytest.approx(oracle, rel=1e-9)

    def test_pca_quadrature_oracle(self):
        law = PiecewiseConstantLaw((0.5, 0, 2))
        oracle = quad_scale_factor(law, nodes=(1.0, 2.0, 3.0, 4.0))
        assert law.scale_factor() == pytest.approx(oracle, rel=1e-9)

    def test_rescaled_quadrature_oracle(self):
        law = rescale(ModelLaw(1), 2.0, 3.0)
        assert law.scale_factor() == pytest.approx(6.0, abs=1e-12)
        oracle = quad_scale_factor(law, nodes=(1.0 / 3.0, 1.0))
        assert law.scale_factor() == pytest.approx(oracle, rel=1e-9)

    @given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_law(self, alpha, beta):
        base = PiecewiseConstantLaw((1, 2))
        scaled = rescale(base, alpha, beta)
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


class TestRescale:
    def test_model_k_as_rescaled_phi1(self):
        k = 4
        law = rescale(ModelLaw(1), 1.0, 1.0 / k)
        assert law(k + 0.5) == 1.0
        assert law(k - 0.5) == 0.0

    def test_identity(self):
        law = rescale(AffineThetaLaw(), 1.0, 1.0)
        t = np.linspace(0, 4, 97)
        assert np.array_equal(np.asarray(law(t)), np.asarray(AffineThetaLaw()(t)))


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
        u = StepFunction((0.0, 1.0, 2.0), (0.0, 1.0))
        with pytest.raises(TypeError):
            MinProblem(n=4, law=AffineThetaLaw())
        with pytest.raises(TypeError):
            lambda_strip(AffineThetaLaw(), u, 1.0)

    def test_packaged_evaluates_like_expansion(self):
        law = PackagedDyadicLaw((2, 0, 1))
        t = np.linspace(0, 10, 301)
        assert np.array_equal(np.asarray(law(t)), np.asarray(law.expand()(t)))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseConstantLaw((0, 0))
        with pytest.raises(ValueError):
            PackagedDyadicLaw((0,))


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
        assert np.all(np.asarray(law(t)) > 0)


class TestAdmissibility:
    def test_model_passes(self):
        rep = check_admissible(ModelLaw(1))
        assert rep.ok
        assert rep.bound == 1.0

    def test_unbounded_fails_with_witness(self):
        law = TabulatedLaw(grid=(1.0, 2.0), samples=(1.0, 2.0), tail="extrapolate")
        grid = np.linspace(0.0, 64.0, 100)
        rep = check_admissible(law, grid)
        assert not rep.bounded_ok
        assert rep.bounded_witness == grid[-1]

    def test_phi_eps_passes(self):
        assert check_admissible(phi_eps(0.1)).ok

    def test_non_monotone_fails(self):
        law = TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(1.0, 0.2, 0.2))
        rep = check_admissible(law)
        assert not rep.monotone
        assert rep.monotone_witness is not None


class TestSerialization:
    @pytest.mark.parametrize("law", [
        ModelLaw(3),
        PiecewiseConstantLaw((1, 0, 2.5)),
        PackagedDyadicLaw((1, 1)),
        AffineThetaLaw(),
        DyadicAffineLaw(nodes=((-1, 0.5), (1, 2.0))),
        ScaledLaw(inner=ModelLaw(1), alpha=2.0, beta=0.5),
        phi_eps(0.25),
    ])
    def test_round_trip(self, law):
        back = law_from_json(law_to_json(law))
        t = np.linspace(0.0, 8.0, 257)
        assert np.array_equal(np.asarray(law(t)), np.asarray(back(t)))
