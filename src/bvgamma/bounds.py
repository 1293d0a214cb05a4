"""Shape-factor lower bounds assembled from the minimum problems.

Every bound divides a Gamma-liminf coefficient (per unit of total variation,
with the geometric constant factored out) by the scale factor of the law.
The bounds are dimension-uniform: the same geometric constant multiplies and
divides in every chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    PackagedDyadicLaw,
    phi_eps,
)
from .minprob import MinProblem, minimize

__all__ = [
    "BoundReport",
    "gamma_liminf_factor",
    "psi_law",
    "psi_bound",
    "theta_bound",
    "zeta_bound",
    "counterexample_table",
    "harmonic_number",
]


@dataclass
class BoundReport:
    law_id: str
    scale_factor: float
    k_lower: float
    chain: list = field(default_factory=list)  # (statement id, constant)
    dimension_note: str = "dimension-uniform"
    scale_factor_exact: Fraction = None

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
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


def harmonic_number(n: int, exact: bool = False):
    """Sum of 1/k for k = 1..n; exact rational on request (small n only)."""
    if exact:
        return _harmonic_fraction(n)
    return math.fsum(1.0 / k for k in range(1, n + 1))


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


def psi_law(m: int) -> PackagedDyadicLaw:
    """Dyadic law with unit weight in every package up to m."""
    return PackagedDyadicLaw(packages=(1,) * m)


def psi_bound(m: int) -> BoundReport:
    """Shape-factor lower bound m*log(2) / H(2^m - 1) for the full-package law."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    top = 2 ** m - 1
    exact = _harmonic_fraction(top) if m <= 12 else None
    scale = float(exact) if exact is not None else harmonic_number(top)
    k_lower = m * math.log(2.0) / scale
    chain = [
        ("package-telescopic-bound", m * math.log(2.0)),
        ("harmonic-scale-factor", scale),
    ]
    return BoundReport(
        law_id=f"psi:{m}",
        scale_factor=scale,
        scale_factor_exact=exact,
        k_lower=k_lower,
        chain=chain,
    )


def single_package_law(m: int) -> PackagedDyadicLaw:
    """Dyadic law with unit weight only in package m."""
    return PackagedDyadicLaw(packages=(0,) * (m - 1) + (1,))


def domination_margins(m: int, grid) -> np.ndarray:
    """Margins of the ramp law over its rescaled single-package minorant."""
    if m < 2:
        raise ValueError("the rescaled minorant needs m >= 2")
    theta = AffineThetaLaw()
    pkg = single_package_law(m)
    grid = np.asarray(grid, dtype=float)
    scale = 2.0 ** (m - 1)
    return theta(grid) - pkg((scale - 1.0) * grid) / scale


def theta_bound() -> BoundReport:
    """Shape factor of the affine ramp law: exactly one.

    The chain dominates the law from below by rescaled single-package laws,
    applies the package bound to each, and lets the package index grow; the
    resulting coefficients converge to the scale factor log(2), so the ratio
    is one.
    """
    grid = np.linspace(0.0, 4.0, 4001)
    chain = []
    for m in range(2, 9):
        margins = domination_margins(m, grid)
        worst = float(margins.min())
        if worst < -1e-12:
            t_bad = float(grid[int(np.argmin(margins))])
            raise AssertionError(
                f"domination failed for package {m} at t={t_bad}: margin {worst}")
        frac = (2.0 ** (m - 1) - 1.0) / 2.0 ** (m - 1)
        chain.append((f"dominates-rescaled-package-{m}", frac * math.log(2.0)))
    chain.append(("scale-factor", math.log(2.0)))
    chain.append(("limit-of-package-chain", math.log(2.0)))
    return BoundReport(
        law_id="theta",
        scale_factor=math.log(2.0),
        k_lower=1.0,
        chain=chain,
    )


def zeta_bound(law: DyadicAffineLaw) -> BoundReport:
    """Shape factor of a dyadic-affine law: exactly one.

    Verifies the ramp-series representation of the law at probe points and
    the series form of its scale factor against direct quadrature before
    asserting the bound.
    """
    from scipy import integrate

    theta = AffineThetaLaw()
    incs = law.increments()
    probes = np.geomspace(2.0 ** (law.nodes[0][0] - 3), 2.0 ** (law.nodes[-1][0] + 3), 211)
    series_vals = sum(d * theta(probes * 2.0 ** (-z)) for z, d in incs)
    direct_vals = law(probes)
    err = np.abs(series_vals - direct_vals)
    worst = float(err.max())
    if worst > 1e-10 * max(1.0, float(np.abs(direct_vals).max())):
        t_bad = float(probes[int(np.argmax(err))])
        raise AssertionError(f"ramp-series representation fails at t={t_bad}: {worst}")

    n_series = law.scale_factor()
    zmin = law.nodes[0][0]
    zmax = law.nodes[-1][0]
    lo = 2.0 ** (zmin - 1)
    nodes = [2.0 ** z for z in range(zmin - 1, zmax + 1)]
    body, _ = integrate.quad(lambda t: law(t) / t ** 2, lo, 2.0 ** zmax,
                             points=nodes, limit=400)
    tail = law.nodes[-1][1] / 2.0 ** zmax
    n_quad = body + tail
    if abs(n_series - n_quad) > 1e-8 * max(1.0, abs(n_quad)):
        raise AssertionError(
            f"scale-factor series {n_series} disagrees with quadrature {n_quad}")

    chain = [
        ("ramp-series-representation", worst),
        ("scale-factor-series", n_series),
        ("scale-factor-quadrature", n_quad),
        ("ramp-shape-factor", 1.0),
    ]
    return BoundReport(
        law_id="zeta",
        scale_factor=n_series,
        k_lower=1.0,
        chain=chain,
    )


def counterexample_table(eps: float = 0.01) -> dict:
    """Data for the pair of laws showing the short-range intuition fails.

    The normalized full-package law of depth two has a bound strictly above
    log(2), while the quadratic-head family (whose shape factor tends to
    log(2), recorded here as an external claim) strictly dominates it near 0.
    """
    probes = np.linspace(0.01, 1.0, 100)
    n_psi2 = _harmonic_fraction(3)  # 11/6
    c2 = 1 / n_psi2                 # 6/11
    psi2 = psi_law(2)
    law_eps = phi_eps(eps)
    dominated = bool(np.all(law_eps(probes) > c2 * psi2(probes)))
    psi_k = float(Fraction(12, 11)) * math.log(2.0)
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
