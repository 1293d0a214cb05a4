import math
import random
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from bvgamma import bounds
from bvgamma.bounds import (
    counterexample_table,
    domination_margins,
    gamma_liminf_factor,
    harmonic_number,
    psi_bound,
    psi_law,
    single_package_law,
    theta_bound,
    zeta_bound,
)
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    phi_eps,
    rescale,
)


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic_number(3, exact=True) == Fraction(11, 6)
        assert harmonic_number(1, exact=True) == 1

    def test_float_matches_exact(self):
        assert harmonic_number(100) == pytest.approx(
            float(harmonic_number(100, exact=True)), rel=1e-14)

    def test_binary_splitting_equals_plain_sum(self):
        for n in [*range(301), 4095]:
            plain = sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
            assert harmonic_number(n, exact=True) == plain

    @pytest.mark.parametrize("n", [4095, 4096, 8191, 2 ** 16 - 1, 2 ** 20 - 1])
    def test_euler_maclaurin_matches_fsum(self, n):
        direct = math.fsum(1.0 / k for k in range(1, n + 1))
        assert abs(harmonic_number(n) - direct) <= 4e-16 * direct

    def test_deep_psi_bound_is_immediate(self):
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            rep = psi_bound(40)
            best = min(best, time.perf_counter() - start)
        assert best < 0.010
        assert rep.k_lower == pytest.approx(40 * math.log(2) / harmonic_number(2 ** 40 - 1))
        assert psi_bound(39).k_lower < rep.k_lower < 1.0


class TestPsiBound:
    def test_m1_is_log2(self):
        rep = psi_bound(1)
        assert rep.k_lower == pytest.approx(math.log(2), abs=1e-15)
        assert rep.scale_factor_exact == 1

    def test_m2_exact_constant(self):
        rep = psi_bound(2)
        assert rep.scale_factor_exact == Fraction(11, 6)
        assert rep.k_lower == pytest.approx(12.0 / 11.0 * math.log(2), abs=1e-14)

    def test_strictly_increasing_to_095(self):
        ks = [psi_bound(m).k_lower for m in range(1, 21)]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert ks[-1] > 0.95
        assert abs(ks[-1] - 1.0) < 0.05

    def test_never_exceeds_one(self):
        for m in range(1, 21):
            assert psi_bound(m).k_lower <= 1.0 + 1e-12

    def test_scale_factor_is_law_scale_factor(self):
        for m in (1, 2, 3, 5):
            assert psi_bound(m).scale_factor == pytest.approx(
                psi_law(m).scale_factor(), rel=1e-14)


class TestThetaBound:
    def test_k_is_one(self):
        rep = theta_bound()
        assert rep.k_lower == 1.0
        assert rep.scale_factor == pytest.approx(math.log(2), abs=1e-15)

    def test_domination_margins_nonnegative(self):
        grid = np.linspace(0.0, 4.0, 10_001)
        for m in range(2, 9):
            assert min(domination_margins(m, grid)) >= -1e-12

    @pytest.mark.parametrize("m", range(2, 9))
    def test_exact_least_margin(self, m):
        # the least right limit at an atom t_k = k/(s-1) of the minorant, exactly
        worst, t = bounds._least_domination_margin(m)
        s = 2 ** (m - 1)
        assert worst >= 0
        assert t in {Fraction(k, s - 1) for k in range(s, 2 * s)}
        assert (worst, t) == (0, Fraction(2 * s - 1, s - 1))
        grid = np.linspace(0.0, 4.0, 10_001)
        assert worst <= min(domination_margins(m, grid))
        assert float(domination_margins(m, [float(t) + 1e-9])[0]) == pytest.approx(
            float(worst), abs=1e-8)

    def test_raised_minorant_fails_where_it_fails(self, monkeypatch):
        # package 5 raised by half: the least margin -1/2 is right of t = 31/15
        monkeypatch.setattr(bounds, "single_package_law", lambda m: PackagedDyadicLaw(
            (0,) * (m - 1) + (1.5 if m == 5 else 1,)))
        assert bounds._least_domination_margin(5) == (Fraction(-1, 2), Fraction(31, 15))
        with pytest.raises(AssertionError,
                           match=r"^domination failed for package 5 at t=2\.0666666666666\d*: "
                                 r"margin -0\.5$"):
            theta_bound()

    def test_domination_spot_checks(self):
        for t in (1.01, 1.5, 1.99):
            assert float(domination_margins(4, [t])[0]) >= 0.0

    @pytest.mark.parametrize("count", [2, 3, 200, 10_001])
    def test_suite_grid_is_linspace(self, count):
        want = np.linspace(0.0, 4.0, count).tolist()
        assert [t.hex() for t in bounds._domination_grid(count)] == [t.hex() for t in want]

    def test_margins_are_bitwise_the_law_evaluation(self):
        # read from the two measures in Python, the margins are the margins of the laws'
        # numpy evaluation, on a grid and at every atom of each minorant
        for m in range(2, 9):
            s = 2.0 ** (m - 1)
            grid = np.concatenate([np.linspace(0.0, 4.0, 2001),
                                   np.arange(s, 2 * s) / (s - 1)])
            want = AffineThetaLaw()(grid) - single_package_law(m)((s - 1.0) * grid) / s
            got = domination_margins(m, grid.tolist())
            assert type(got) is list
            assert [x.hex() for x in got] == [float(x).hex() for x in want]

    def test_single_package_is_packaged(self):
        law = single_package_law(3)
        assert law.packages == (0, 0, 1)
        assert law(4.5) == 1.0
        assert law(4.0) == 0.0


class TestGaussLegendre:
    @staticmethod
    def _exact_weights(q, nodes):
        # 2 / ((1 - x^2) P_q'(x)^2), with P_q' = q (x P_q - P_(q-1)) / (x^2 - 1), at the
        # roots refined in 40 digits
        weights = []
        with mpmath.workdps(40):
            for x in nodes:
                r = mpmath.findroot(lambda t: mpmath.legendre(q, t), mpmath.mpf(x))
                dp = q * (r * mpmath.legendre(q, r) - mpmath.legendre(q - 1, r)) / (r * r - 1)
                weights.append(float(2 / ((1 - r * r) * dp * dp)))
        return weights

    @pytest.mark.parametrize("q", range(1, 25))
    def test_matches_leggauss(self, q):
        nodes, weights = bounds._gauss_legendre(q)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(q)
        assert np.max(np.abs(np.array(nodes) - want_nodes)) <= 1e-15
        assert nodes == sorted(nodes) and nodes == [-x for x in reversed(nodes)]
        # leggauss's own weights are up to 1.8e-15 off the exact ones (q = 18)
        assert np.max(np.abs(np.array(weights) - want_weights)) <= 2e-15
        assert np.max(np.abs(np.array(weights) - self._exact_weights(q, nodes))) <= 1e-15


class TestZetaBound:
    def test_indicator_reduces_to_theta(self):
        law = DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0)))
        rep = zeta_bound(law)
        assert rep.k_lower == 1.0
        assert rep.scale_factor == pytest.approx(math.log(2), abs=1e-14)

    def test_saturating_sequence(self):
        law = DyadicAffineLaw(nodes=tuple(
            (z, min(1.0, 4.0 ** z)) for z in range(-6, 2)))
        rep = zeta_bound(law)
        assert rep.k_lower == 1.0
        quad = dict(rep.chain)["scale-factor-quadrature"]
        assert rep.scale_factor == pytest.approx(quad, rel=1e-8)

    def test_generic_sequence(self):
        law = DyadicAffineLaw(nodes=(
            (-2, 0.1), (-1, 0.3), (0, 0.35), (1, 0.9), (2, 2.0), (3, 2.5)))
        rep = zeta_bound(law)
        assert rep.k_lower == 1.0
        nodes = [2.0 ** z for z in range(-4, 4)]
        body, _ = integrate.quad(lambda t: law(t) / t ** 2, 2.0 ** -4, 8.0,
                                 points=nodes, limit=400)
        oracle = body + 2.5 / 8.0
        assert rep.scale_factor == pytest.approx(oracle, rel=1e-8)


def _random_gapped_nodes(rng):
    """One to five nodes on indices -6..6, nondecreasing values, first one positive."""
    zs = sorted(rng.sample(range(-6, 7), rng.randint(1, 5)))
    values = np.cumsum([rng.uniform(0.1, 1.0)] + [rng.uniform(0.0, 1.0) for _ in zs[1:]])
    return tuple(zip(zs, values))


class _ScaleFactorOff(DyadicAffineLaw):
    def scale_factor(self) -> float:
        return super().scale_factor() * (1.0 + 1e-9)


class _LastIncrementOff(DyadicAffineLaw):
    def increments(self):
        *rest, (z, d) = super().increments()
        return [*rest, (z, d + 1e-8)]


class TestZetaOracle:
    def test_matches_adaptive_quadrature_and_series(self):
        rng = random.Random(13)
        singles = 0
        for _ in range(200):
            law = DyadicAffineLaw(nodes=_random_gapped_nodes(rng))
            singles += len(law.nodes) == 1
            zmin, zmax = law.nodes[0][0], law.nodes[-1][0]
            body, _ = integrate.quad(lambda t: law(t) / t ** 2, 2.0 ** (zmin - 1), 2.0 ** zmax,
                                     points=[2.0 ** z for z in range(zmin - 1, zmax + 1)],
                                     limit=400)
            oracle = body + law.nodes[-1][1] / 2.0 ** zmax
            quad = dict(zeta_bound(law).chain)["scale-factor-quadrature"]
            assert quad == pytest.approx(oracle, rel=1e-13)
            assert quad == pytest.approx(law.scale_factor(), rel=1e-12)
        assert singles > 0

    def test_nodes_are_checked_against_the_measure(self):
        # the law, read from its measure, meets every node value: zero below, gaps
        # held, constant above; a measure whose last ramp is 1e-8 too high fails there
        rng = random.Random(15)
        for _ in range(20):
            nodes = _random_gapped_nodes(rng)
            assert dict(zeta_bound(DyadicAffineLaw(nodes=nodes)).chain)[
                "ramp-series-representation"] <= 1e-15 * nodes[-1][1]
            law = _LastIncrementOff(nodes=nodes)
            top = max(z for z, _ in law.increments()) + 1
            with pytest.raises(AssertionError, match=f"fails at t={2.0 ** top}"):
                zeta_bound(law)

    def test_scale_factor_off_by_1e9_is_caught(self):
        rng = random.Random(14)
        for _ in range(20):
            law = _ScaleFactorOff(nodes=_random_gapped_nodes(rng))
            with pytest.raises(AssertionError, match="disagrees with quadrature"):
                zeta_bound(law)


class TestGammaLiminfFactor:
    def test_phi1_is_log2(self):
        factor, chain = gamma_liminf_factor(ModelLaw(1), n_max=12, starts=4)
        assert factor == pytest.approx(math.log(2), rel=1e-9)
        assert dict(chain)["package-telescopic-bound"] == pytest.approx(
            math.log(2), abs=1e-15)

    def test_psi_m_at_least_m_log2(self):
        for m in (1, 2, 3):
            factor, _ = gamma_liminf_factor(psi_law(m), n_max=12, starts=4)
            assert factor >= m * math.log(2) - 1e-12

    def test_single_package_at_least_log2(self):
        factor, _ = gamma_liminf_factor(single_package_law(3), n_max=12, starts=4)
        assert factor >= math.log(2) - 1e-12

    def test_problem_sizes_below_the_law_are_skipped(self, monkeypatch):
        # psi:4 has thresholds up to 15, so of n = 8, 12 and 16 only 16 is solved
        from bvgamma import minprob
        solve, sizes = minprob.minimize, []
        monkeypatch.setattr(minprob, "minimize",
                            lambda problem, **kw: sizes.append(problem.n) or solve(problem, **kw))
        factor, chain = gamma_liminf_factor(psi_law(4), n_max=16, starts=0)
        assert sizes == [16]
        assert [s for s, _ in chain] == ["package-telescopic-bound", "empirical-minimum-proxy"]
        assert dict(chain)["package-telescopic-bound"] == 4 * math.log(2)
        assert factor == max(c for _, c in chain)

    def test_non_packaged_uses_optimizer(self):
        law = PiecewiseConstantLaw((1.0, 0.25))
        factor, chain = gamma_liminf_factor(law, n_max=10, starts=4)
        assert "empirical-minimum-proxy" in dict(chain)
        assert factor > 0

    def test_rescaling_leaves_ratio_unchanged(self):
        # both the liminf factor and the scale factor pick up alpha*beta
        base = ModelLaw(1)
        factor, _ = gamma_liminf_factor(base, n_max=10, starts=4)
        ratio = factor / base.scale_factor()
        scaled = rescale(base, 2.0, 1.0)
        # vertical scaling multiplies every weight, hence the analytic bound
        doubled = PiecewiseConstantLaw((2.0,))
        factor2, _ = gamma_liminf_factor(doubled, n_max=10, starts=4)
        assert factor2 / scaled.scale_factor() == pytest.approx(ratio, rel=1e-9)


class TestCounterexample:
    def test_normalizations(self):
        doc = counterexample_table(eps=0.01)
        assert doc["c2_exact"] == "6/11"
        assert doc["psi_scale_factor"] == pytest.approx(1.0, abs=1e-14)
        assert doc["phi_eps_scale_factor"] == pytest.approx(1.0, abs=1e-5)

    def test_strict_domination_near_zero(self):
        doc = counterexample_table(eps=0.01)
        assert doc["strict_domination_on_unit_interval"]
        # direct check: the quadratic-head law is positive on (0,1] where the
        # normalized package law vanishes
        law = phi_eps(0.01)
        t = np.linspace(0.01, 1.0, 100)
        assert np.all(np.asarray(law(t)) > 0)
        assert np.all(np.asarray(psi_law(2)(t)) == 0)

    def test_bound_gap_positive(self):
        doc = counterexample_table()
        assert doc["psi_k_lower"] > doc["phi_eps_k_limit"]
        assert doc["gap"] == pytest.approx(
            (12.0 / 11.0 - 1.0) * math.log(2), abs=1e-12)


class TestReportInvariants:
    def test_reports_within_unit_bound(self):
        reports = [psi_bound(m) for m in range(1, 13)]
        reports.append(theta_bound())
        reports.append(zeta_bound(DyadicAffineLaw(nodes=((0, 0.0), (1, 1.0)))))
        for rep in reports:
            assert 0.0 < rep.k_lower <= 1.0 + 1e-12
            assert rep.dimension_note == "dimension-uniform"

    def test_json_round_trip_fields(self):
        doc = psi_bound(2).to_json()
        assert doc["scale_factor_exact"] == "11/6"
        assert doc["law"] == "psi:2"
        assert isinstance(doc["chain"], list)
