"""Shape-factor lower bounds assembled from the minimum problems.

Every bound divides a Gamma-liminf coefficient (per unit of total variation,
with the geometric constant factored out) by the scale factor of the law.
The bounds are dimension-uniform: the same geometric constant multiplies and
divides in every chain.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import TYPE_CHECKING

from . import _Record
from .laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    PackagedDyadicLaw,
    _gauss_legendre,
    _mass_below,
    phi_eps,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BoundReport",
    "gamma_liminf_factor",
    "psi_bound",
    "theta_bound",
    "zeta_bound",
    "counterexample_table",
    "suite_domination",
    "harmonic_number",
]


class BoundReport(_Record):
    _fields = ("law_id", "scale_factor", "k_lower", "chain",  # (statement id, constant)
               "dimension_note", "scale_factor_exact")

    def __init__(self, law_id: str, scale_factor: float, k_lower: float,
                 chain: list | None = None, dimension_note: str = "dimension-uniform",
                 scale_factor_exact: Fraction | None = None):
        self.__dict__.update(law_id=law_id, scale_factor=scale_factor, k_lower=k_lower,
                             chain=[] if chain is None else chain,
                             dimension_note=dimension_note,
                             scale_factor_exact=scale_factor_exact)

    def to_json(self) -> dict:
        return {
            "law": self.law_id,
            "scale_factor": self.scale_factor,
            "scale_factor_exact": (
                None if self.scale_factor_exact is None
                else str(self.scale_factor_exact)),
            "k_lower": self.k_lower,
            "chain": [[s, c] for s, c in self.chain],
            "dimension_note": self.dimension_note,
        }

    def table_row(self) -> str:
        return f"{self.law_id:<16} N={self.scale_factor:<12.9g} K>={self.k_lower:.9g}"


@lru_cache(maxsize=None)
def _harmonic_fraction(n: int) -> Fraction:
    # binary splitting: add unreduced (p, q) pairs level by level, reduce once
    from fractions import Fraction
    terms = [(1, k) for k in range(1, n + 1)] or [(0, 1)]
    while len(terms) > 1:
        terms = [(p1 * q2 + p2 * q1, q1 * q2) for (p1, q1), (p2, q2)
                 in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return Fraction(*terms[0])


def harmonic_number(n: int) -> float:
    """Sum of 1/k for k = 1..n.

    Past n = 4095 it is the Euler-Maclaurin expansion ln n + gamma + 1/(2n) - 1/(12n^2)
    + 1/(120n^4) - 1/(252n^6), whose truncation error is below 1e-30 there.
    """
    if n <= 4095:
        return math.fsum(1.0 / k for k in range(1, n + 1))
    inv2 = 1.0 / n ** 2
    return math.fsum([math.log(n), 0.5772156649015329, 0.5 / n,
                      -inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 / 252))])


def _package_weights(law) -> list | None:
    """Dyadic package weights if the law has package structure, else None."""
    steps = getattr(law, "steps", None)
    if steps is None:
        return None
    weights = dict(steps)
    packages = []
    for j in range(1, steps[-1][0].bit_length() + 1):
        block = {weights.get(k, 0) for k in range(2 ** (j - 1), 2 ** j)}
        if len(block) > 1:
            return None
        packages.append(float(block.pop()))
    return packages


def gamma_liminf_factor(law, n_max: int = 16, starts: int = 16, seed: int = 0):
    """Per-unit-oscillation coefficient in the Gamma-liminf bound.

    Returns (factor, chain).  For laws with dyadic package structure the
    analytic telescopic bound log(2) * sum of package weights is available
    and preferred; otherwise the optimizer supplies an empirical proxy
    (half the best objective value per inner index, minimized over n).
    """
    from .minprob import MinProblem, minimize
    chain = []
    analytic = None
    packages = _package_weights(law)
    if packages is not None:
        analytic = math.log(2.0) * math.fsum(packages)
        chain.append(("package-telescopic-bound", analytic))

    problem_ns = sorted({n for n in (8, 12, n_max) if n <= n_max})
    m = MinProblem(n=max(problem_ns), law=law).max_index
    empirical = math.inf
    for n in problem_ns:
        if n < m + 1:
            continue
        res = minimize(MinProblem(n=n, law=law), starts=starts, seed=seed)
        empirical = min(empirical, 0.5 * res.value / (n - m))
    if math.isfinite(empirical):
        chain.append(("empirical-minimum-proxy", empirical))

    if analytic is not None:
        return max(analytic, empirical), chain
    return empirical, chain


def psi_bound(m: int) -> BoundReport:
    """Shape-factor lower bound m*log(2) / H(2^m - 1) for the full-package law."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    top = 2 ** m - 1
    exact = _harmonic_fraction(top) if m <= 12 else None
    scale = float(exact) if exact is not None else harmonic_number(top)
    k_lower = m * math.log(2.0) / scale
    chain = [("package-telescopic-bound", m * math.log(2.0)), ("harmonic-scale-factor", scale)]
    return BoundReport(law_id=f"psi:{m}", scale_factor=scale, scale_factor_exact=exact,
                       k_lower=k_lower, chain=chain)


def single_package_law(m: int) -> PackagedDyadicLaw:
    """Dyadic law with unit weight only in package m."""
    return PackagedDyadicLaw(packages=(0,) * (m - 1) + (1,))


def domination_margins(m: int, grid) -> list:
    """Margins of the ramp law over its rescaled single-package minorant at each grid
    point, both read from their threshold measures.  The package's atoms all weigh 1,
    so its mass below x is the count of its thresholds below x, found by bisection."""
    if m < 2:
        raise ValueError("the rescaled minorant needs m >= 2")
    theta = AffineThetaLaw().threshold_measure()
    steps = [s for s, _ in single_package_law(m).threshold_measure()[0]]
    scale = 2.0 ** (m - 1)
    return [_mass_below(theta, t) - bisect_left(steps, (scale - 1.0) * t) / scale for t in grid]


_DOMINATION_PACKAGES = range(2, 9)


def _domination_grid(count: int) -> list:
    """``count`` evenly spaced points of [0, 4], bitwise ``np.linspace(0.0, 4.0, count)``."""
    return [i * (4.0 / (count - 1)) + 0.0 for i in range(count - 1)] + [4.0]


def suite_domination(rng, count: int) -> tuple:
    """Least margin over the packages on ``count`` points of [0, 4] (no draws), with (m, t)."""
    grid = _domination_grid(max(count, 2))
    worst, witness = math.inf, None
    for m in _DOMINATION_PACKAGES:
        margins = domination_margins(m, grid)
        i = min(range(len(grid)), key=margins.__getitem__)
        if margins[i] < worst:
            worst, witness = margins[i], {"m": m, "t": grid[i]}
    return worst, witness


def _least_domination_margin(m: int) -> tuple:
    """Exact least margin of the ramp law over its rescaled package-m minorant, with its t.

    The minorant pkg((s-1)t)/s, s = 2^(m-1), is 0 up to its first atom and a step
    function with atoms at t_k = k/(s-1), k = s..2s-1; between atoms the ramp
    only rises.  So the least margin is a right limit at an atom,
    theta(t_k) - mu_pkg((0, t_k]) / s, computed here in rationals.
    """
    from fractions import Fraction
    s, mass, margins = 2 ** (m - 1), Fraction(0), []
    for k, w in single_package_law(m).threshold_measure()[0]:
        mass, t = mass + Fraction(w), Fraction(k) / (s - 1)
        margins.append((min(max(t - 1, 0), 1) - mass / s, t))
    return min(margins)


def theta_bound() -> BoundReport:
    """Shape factor of the affine ramp law: exactly one.

    The chain dominates the law from below by rescaled single-package laws,
    applies the package bound to each, and lets the package index grow; the
    resulting coefficients converge to the scale factor log(2), so the ratio
    is one.  Domination is decided exactly at every atom of each minorant.
    """
    for m in _DOMINATION_PACKAGES:
        worst, t = _least_domination_margin(m)
        if worst < 0:
            raise AssertionError(f"domination failed for package {m} "
                                 f"at t={float(t)}: margin {float(worst)}")
    chain = [(f"dominates-rescaled-package-{m}",
              (2.0 ** (m - 1) - 1.0) / 2.0 ** (m - 1) * math.log(2.0))
             for m in _DOMINATION_PACKAGES]
    chain += [("scale-factor", math.log(2.0)), ("limit-of-package-chain", math.log(2.0))]
    return BoundReport(law_id="theta", scale_factor=math.log(2.0), k_lower=1.0, chain=chain)


def zeta_bound(law: DyadicAffineLaw) -> BoundReport:
    """Shape factor of a dyadic-affine law: exactly one.

    The law, read from its threshold measure, is a sum of ramps, affine on each
    cell [2^z, 2^(z+1)].  So it is the dyadic-affine law of its nodes on
    [2^(zmin-1), 2^(zmax+1)] when it takes, at every 2^z there, the node value
    read straight from the nodes: zero to the left, gaps held, constant to the
    right.  That is checked first, then the series form of the scale factor
    against Gauss-Legendre quadrature of the law's values.
    """
    measure = law.threshold_measure()
    zmin, zmax = law.nodes[0][0], law.nodes[-1][0]
    given, want, worst, t_bad = dict(law.nodes), 0.0, 0.0, None
    for z in range(zmin - 1, zmax + 2):
        want = given.get(z, want)
        err = abs(_mass_below(measure, 2.0 ** z) - want)
        if err > worst:
            worst, t_bad = err, 2.0 ** z
    if worst > 1e-10 * max(1.0, want):
        raise AssertionError(f"ramp-series representation fails at t={t_bad}: {worst}")

    n_series = law.scale_factor()
    # law(t)/t^2 = (alpha + beta*t)/t^2 on each cell [2^z, 2^(z+1)] has its pole at -3
    # of the cell's reference interval, so 20 Gauss-Legendre points are exact to rounding
    rule, parts = list(zip(*_gauss_legendre(20))), []
    for z in range(zmin - 1, zmax):
        left = 2.0 ** z
        for x, w in rule:
            t = left * (1.5 + 0.5 * x)
            parts.append(0.5 * left * w * _mass_below(measure, t) / (t * t))
    n_quad = math.fsum(parts) + law.nodes[-1][1] / 2.0 ** zmax  # the constant tail
    if abs(n_series - n_quad) > 1e-12 * max(1.0, abs(n_quad)):
        raise AssertionError(
            f"scale-factor series {n_series} disagrees with quadrature {n_quad}")

    chain = [("ramp-series-representation", worst), ("scale-factor-series", n_series),
             ("scale-factor-quadrature", n_quad), ("ramp-shape-factor", 1.0)]
    return BoundReport(law_id="zeta", scale_factor=n_series, k_lower=1.0, chain=chain)


def counterexample_table(eps: float = 0.01) -> dict:
    """Data for the pair of laws showing the short-range intuition fails.

    The normalized full-package law of depth two has a bound strictly above
    log(2), while the quadratic-head family (whose shape factor tends to
    log(2), recorded here as an external claim) strictly dominates it on (0, 1],
    where the package law is 0 (its first atom is at 1, and law(t) = mu((0, t))).
    So it dominates exactly when its measure charges every (0, t), as a density from 0 does.
    """
    c2 = 1 / _harmonic_fraction(3)  # 6/11, the inverse of N(psi:2) = 11/6
    law_eps = phi_eps(eps)
    dominated = any(s0 == 0 and c > 0 for s0, _, c, _ in law_eps.threshold_measure()[1])
    psi_k = float(2 * c2) * math.log(2.0)
    return {
        "eps": eps,
        "c2": float(c2),
        "c2_exact": str(c2),
        "psi_scale_factor": 1.0,
        "phi_eps_scale_factor": law_eps.scale_factor(),
        "psi_k_lower": psi_k,
        "phi_eps_k_limit": math.log(2.0),
        "phi_eps_k_limit_source": "external claim (not computed here)",
        "strict_domination_on_unit_interval": dominated,
        "gap": psi_k - math.log(2.0),
    }
