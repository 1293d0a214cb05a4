"""Expected values for every check the benchmark makes, computed apart from bvgamma.

This module uses the standard library, ``fractions`` and ``mpmath`` only.
Each function is a closed form, a certified bound from the paper's
arguments, or a one-dimensional mpmath integral; none of them reads an
output of the program.

Law specs follow the CLI mini-language for the families used here:
``phi1``, ``phi:k``, ``psi:m``, ``pca:[w1,...]`` and ``theta``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def law_weights(spec: str) -> list:
    """Per-threshold weights w_1..w_m (as Fractions) of a step-law spec."""
    if spec == "phi1":
        return [Fraction(1)]
    if spec.startswith("phi:"):
        k = int(spec[4:])
        return [Fraction(0)] * (k - 1) + [Fraction(1)]
    if spec.startswith("psi:"):
        weights = []
        for j in range(1, int(spec[4:]) + 1):
            weights.extend([Fraction(1)] * 2 ** (j - 1))
        return weights
    if spec.startswith("pca:"):
        return [Fraction(str(w)) for w in json.loads(spec[4:])]
    raise ValueError(f"not a step-law spec: {spec!r}")


def step_scale_factor(weights) -> Fraction:
    """Integral of sum_k w_k 1{t > k} / t^2 over (0, inf): sum_k w_k / k."""
    return sum((w / k for k, w in enumerate(weights, start=1)), Fraction(0))


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def psi_bound(m: int) -> tuple:
    """(scale factor H(2^m - 1), shape-factor bound m log 2 / H(2^m - 1))."""
    h = harmonic(2 ** m - 1)
    return h, m * LOG2 / float(h)


def theta_chain(m_cap: int = 8) -> list:
    """Constants of the ramp law's domination chain, package by package."""
    return [(f"dominates-rescaled-package-{m}",
             (2.0 ** (m - 1) - 1.0) / 2.0 ** (m - 1) * LOG2)
            for m in range(2, m_cap + 1)]


def phi_eps_value(eps: float, t: float) -> float:
    """The closed-form quadratic-head law c*eps*t^2 on [0, 1], c beyond, c = 1/(1+eps)."""
    c = 1.0 / (1.0 + eps)
    return c * eps * t * t if t <= 1.0 else c


# Scale factor of the closed-form phi_eps law: c*eps (head) + c (tail) = 1.
PHI_EPS_SCALE_FACTOR = 1.0


def _zeta_seq(nodes, z: int):
    """Node sequence: zero left of the nodes, gaps held, constant right."""
    value = 0.0
    for zn, v in nodes:
        if zn <= z:
            value = v
    return value


def zeta_law(nodes, t):
    """Dyadic-affine law: seq(z) at 2^z, affine on each [2^z, 2^(z+1)]."""
    if t <= 0:
        return mpmath.mpf(0)
    z = int(mpmath.floor(mpmath.log(t, 2)))
    lo, hi = _zeta_seq(nodes, z), _zeta_seq(nodes, z + 1)
    node = mpmath.mpf(2) ** z
    return lo + (hi - lo) * (t - node) / node


def zeta_scale_factor_series(nodes) -> float:
    """log 2 * sum_z (seq(z+1) - seq(z)) 2^(-z), with gaps held."""
    zmin, zmax = nodes[0][0], nodes[-1][0]
    return LOG2 * math.fsum(
        (_zeta_seq(nodes, z + 1) - _zeta_seq(nodes, z)) * 2.0 ** (-z)
        for z in range(zmin - 1, zmax + 1))


def zeta_scale_factor_quad(nodes) -> float:
    """Integral of law(t)/t^2 by mpmath quadrature, panel by dyadic panel."""
    zmin, zmax = nodes[0][0], nodes[-1][0]
    points = [mpmath.mpf(2) ** z for z in range(zmin - 1, zmax + 1)]
    body = mpmath.quad(lambda t: zeta_law(nodes, t) / t ** 2, points)
    return float(body + mpmath.mpf(nodes[-1][1]) / points[-1])


# ---------------------------------------------------------------------------
# minimum problems
# ---------------------------------------------------------------------------

def log_cost(lengths, weights) -> float:
    """sum_k w_k sum_i log(S_{i,k+1}^2 / (S_{i,k} S_{i+1,k})), from the definition."""
    with mpmath.workdps(40):
        xs = [mpmath.mpf(x) for x in lengths]
        n = len(xs)

        def s(i, k):
            return mpmath.fsum(xs[i:i + k])

        total = mpmath.mpf(0)
        for k, w in enumerate(weights, start=1):
            if w == 0:
                continue
            total += mpmath.mpf(w.numerator) / w.denominator * mpmath.fsum(
                mpmath.log(s(i, k + 1) ** 2 / (s(i, k) * s(i + 1, k)))
                for i in range(n - k))
        return float(total)


def all_equal_cost(weights, n: int) -> float:
    """Objective at equal lengths: sum_k w_k (n - k) 2 log((k+1)/k)."""
    return math.fsum(float(w) * (n - k) * 2.0 * math.log((k + 1) / k)
                     for k, w in enumerate(weights, start=1) if w)


def minimum_bounds(spec: str, n: int) -> tuple:
    """Certified (lower, upper) bounds on the minimum over n lengths.

    * phi1: every term is at least log 4 by AM-GM, with equality at equal
      lengths, so the minimum is (n - 1) log 4.
    * phi:3 at n = 3m: grouping the entries into blocks of three bounds the
      cost below by the threshold-1 cost of the m block sums, (m - 1) log 4;
      the period-3 pattern (1, 0, 0, 1, 0, 0, ...) attains it.
    * psi:m: the telescopic package bound sum_j a_j (n - 2^j + 1) 2 log 2
      from below, the all-equal cost from above.
    """
    if spec == "phi1":
        v = (n - 1) * LOG4
        return v, v
    if spec == "phi:3" and n % 3 == 0:
        v = (n // 3 - 1) * LOG4
        return v, v
    if spec.startswith("psi:"):
        m = int(spec[4:])
        lower = math.fsum((n - 2 ** j + 1) * 2.0 * LOG2 for j in range(1, m + 1))
        return lower, all_equal_cost(law_weights(spec), n)
    raise ValueError(f"no certified bounds for {spec} at n={n}")


def package_weights(spec: str) -> list:
    """Dyadic package weights a_1..a_m of psi:m."""
    if spec.startswith("psi:"):
        return [1.0] * int(spec[4:])
    raise ValueError(f"no package structure known for {spec!r}")


# ---------------------------------------------------------------------------
# step-function energies
# ---------------------------------------------------------------------------

def pair_log(xs, i: int, j: int) -> float:
    """log((x_j - x_i)(x_{j+1} - x_{i+1}) / ((x_j - x_{i+1})(x_{j+1} - x_i))), i < j."""
    return math.log((xs[j] - xs[i]) * (xs[j + 1] - xs[i + 1])
                    / ((xs[j] - xs[i + 1]) * (xs[j + 1] - xs[i])))


def step_energy(xs, levels, unit: Fraction, weights, delta: Fraction) -> float:
    """Direct pair sum  sum_{i<j} 2 lambda(|v_j - v_i| / delta) delta log(...).

    The values are v_i = levels[i] * unit with integer levels, so the law is
    evaluated on exact rationals and thresholds are hit exactly.  Returns inf
    when two adjacent pieces interact.
    """
    # |v_j - v_i| / delta = |level_j - level_i| * p / q
    ratio = unit / delta
    p, q = ratio.numerator, ratio.denominator
    cum = [Fraction(0)]
    for w in weights:
        cum.append(cum[-1] + w)
    terms = []
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            # number of thresholds k < t is ceil(t) - 1, in integer arithmetic
            below = -(-abs(levels[j] - levels[i]) * p // q) - 1
            w = cum[min(len(weights), max(0, below))]
            if w == 0:
                continue
            if j == i + 1:
                return math.inf
            terms.append(2.0 * float(w) * float(delta) * pair_log(xs, i, j))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# smooth profiles on [0, 1]
# ---------------------------------------------------------------------------

def linear_energy(spec: str, delta: float) -> float:
    """Energy of u(x) = x on [0, 1].

    A pair at distance s has |u(y) - u(x)| = s and measure (1 - s), so the
    energy is 2 int_0^1 (1 - s) lambda(s/delta) delta / s^2 ds:
    * step law k: 2 (1/k - delta + delta log(k delta)) for k delta <= 1;
    * theta: 2 (1 + delta) log 2 - 4 delta + 2 delta log(2 delta) for delta <= 1/2.
    """
    if spec == "theta":
        if not delta <= 0.5:
            raise ValueError("closed form needs delta <= 1/2")
        return (2.0 * (1.0 + delta) * LOG2 - 4.0 * delta
                + 2.0 * delta * math.log(2.0 * delta))
    return math.fsum(
        float(w) * 2.0 * (1.0 / k - delta + delta * math.log(k * delta))
        for k, w in enumerate(law_weights(spec), start=1)
        if w and k * delta < 1.0)


def _bump_window(s, h):
    """Angles (lo, hi) where c |sin(theta)| > h on [pi s, pi], c = sin(pi s)."""
    c = mpmath.sin(mpmath.pi * s)
    if h >= c:
        return c, None, None
    alpha = mpmath.asin(h / c)
    lo, hi = max(alpha, mpmath.pi * s), mpmath.pi - alpha
    if lo >= hi:
        return c, None, None
    return c, lo, hi


def bump_measure(s, h):
    """Measure of {x in [0, 1-s] : |u(x+s) - u(x)| > h} for u = sin^2(pi x).

    u(x+s) - u(x) = sin(pi s) sin(pi (2x + s)); with theta = pi (2x + s) the
    set is symmetric about theta = pi, and dx = dtheta / (2 pi).
    """
    _, lo, hi = _bump_window(s, h)
    return mpmath.mpf(0) if lo is None else (hi - lo) / mpmath.pi


def bump_excess(s, h):
    """Integral over x in [0, 1-s] of (|u(x+s) - u(x)| - h)_+ for the bump."""
    c, lo, hi = _bump_window(s, h)
    if lo is None:
        return mpmath.mpf(0)
    return (c * (mpmath.cos(lo) - mpmath.cos(hi)) - h * (hi - lo)) / mpmath.pi


def _bump_breaks(h):
    """Shifts s where the bump integrand has a kink for threshold h <= 1."""
    a = float(mpmath.asin(h) / mpmath.pi)
    b = float(mpmath.asin(mpmath.sqrt(h)) / mpmath.pi)
    return [a, b, 1.0 - b, 1.0 - a]


@lru_cache(maxsize=None)
def bump_energy(spec: str, delta: float) -> float:
    """Energy of u(x) = sin^2(pi x) on [0, 1] as a 1-D mpmath integral over s.

    Step laws: inner(s) = sum_k w_k bump_measure(s, k delta).
    theta = (t-1)_+ - (t-2)_+, so inner(s) = (excess(s, delta) - excess(s, 2 delta)) / delta.
    The energy is 2 int_0^1 delta / s^2 inner(s) ds.
    """
    d = mpmath.mpf(delta)
    if spec == "theta":
        levels = [d, 2 * d]

        def inner(s):
            return (bump_excess(s, d) - bump_excess(s, 2 * d)) / d
    else:
        items = [(mpmath.mpf(w.numerator) / w.denominator, k * d)
                 for k, w in enumerate(law_weights(spec), start=1) if w]
        levels = [h for _, h in items]

        def inner(s):
            return mpmath.fsum(w * bump_measure(s, h) for w, h in items)

    points = sorted({0.0, 1.0, *(p for h in levels if h < 1 for p in _bump_breaks(h))})
    with mpmath.workdps(20):
        val = mpmath.quad(lambda s: d / s ** 2 * inner(s), points)
    return float(2 * val)


def smooth_energy(spec: str, profile: str, delta: float) -> float:
    if profile == "linear":
        return linear_energy(spec, delta)
    if profile == "bump":
        return bump_energy(spec, delta)
    raise ValueError(f"unknown profile {profile!r}")


def total_variation(profile: str) -> float:
    return {"linear": 1.0, "bump": 2.0}[profile]


def scale_factor(spec: str) -> float:
    if spec == "theta":
        return LOG2
    return float(step_scale_factor(law_weights(spec)))
