"""Non-local energies of step functions and smooth functions on an interval.

The double-integral energy weights each pair (x, y) by law(|u(y)-u(x)|/delta)
times the singular kernel delta/(y-x)^2.  For step functions the integral has
a closed form per pair of pieces; for smooth functions it is computed by a
quadrature scheme built on exact shifts of a fine sampling grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laws import InteractionLaw, ModelLaw, PackagedDyadicLaw
from .minprob import in_domain, log_cost
from .stepfn import (
    StepFunction,
    gaps,
    random_step_function,
    rearrange,
    segment,
    truncate,
)

__all__ = [
    "EnergyResult",
    "hostility",
    "lambda_step",
    "lambda_strip",
    "lambda_quad",
    "geometric_constant",
    "suite_rearrange",
    "suite_chain",
]


@dataclass(frozen=True)
class EnergyResult:
    value: float
    method: str  # "exact" | "quadrature"
    error_estimate: float = 0.0


def _snap_to_integer(t: np.ndarray) -> np.ndarray:
    """Snap near-integer jump ratios so lattice staircases hit thresholds exactly."""
    r = np.round(t)
    return np.where(np.abs(t - r) <= 1e-9 * np.maximum(1.0, np.abs(t)), r, t)


def _pair_energy(breakpoints, values, law, delta) -> float:
    """Sum over piece pairs i < j of law(|v_j - v_i| / delta) times the pair integral.

    For pieces (a1, a2) left of (b1, b2), the kernel integral over both orders
    is 2 * delta * log((b1-a1)(b2-a2) / ((b1-a2)(b2-a1))).  The sum is +inf
    when an adjacent pair has positive weight (the diagonal contact is then
    non-integrable).  Rows are taken one at a time, so memory stays linear in
    the number of pieces.
    """
    bp = np.asarray(breakpoints, dtype=float)
    vs = np.asarray(values, dtype=float)
    total = 0.0
    for i in range(len(vs) - 1):
        w = law(_snap_to_integer(np.abs(vs[i + 1:] - vs[i]) / delta))
        if w[0] > 0:
            return math.inf
        # pieces j >= i + 2: (x_j, x_{j+1}) against (x_i, x_{i+1})
        near, far = bp[i + 2:-1], bp[i + 3:]
        ratio = ((near - bp[i]) * (far - bp[i + 1])) / ((near - bp[i + 1]) * (far - bp[i]))
        total += float(np.sum(w[1:] * np.log(ratio)))
    return 2.0 * delta * total


def hostility(delta: float, u: StepFunction, k: int) -> EnergyResult:
    """Total pair energy over pairs of pieces whose values differ by more than k.

    This is delta times the energy of the step law ModelLaw(k) at delta = 1;
    ``u`` must be integer valued.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    vals = np.asarray(u.values)
    levels = np.round(vals)
    if np.any(np.abs(vals - levels) > 1e-9 * np.maximum(1.0, np.abs(vals))):
        raise ValueError("hostility needs an integer-valued arrangement")
    return EnergyResult(delta * _pair_energy(u.breakpoints, levels, ModelLaw(k), 1.0), "exact")


def lambda_step(law: InteractionLaw, u: StepFunction, delta: float) -> EnergyResult:
    """Exact double-integral energy of a step function.

    The result is +inf exactly when two adjacent pieces jump by enough for the
    law to be positive (the diagonal contact is then non-integrable).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return EnergyResult(_pair_energy(u.breakpoints, u.values, law, delta), "exact")


def lambda_strip(law, u: StepFunction, delta: float) -> EnergyResult:
    """Strip energy of a monotone lattice staircase, as an exact log sum.

    The staircase is imagined extended to the whole line with constant tails;
    the inner integral runs over the full line while the outer runs between
    the covered transitions.  The energy is delta times the weighted log costs
    of the gaps between transitions, over the steps k with at least k + 1
    gaps; it is +inf when k consecutive gaps vanish for the smallest such k.
    """
    steps = getattr(law, "steps", None)
    if steps is None:
        raise TypeError("expected a piecewise-constant interaction law")
    lengths = gaps(u, delta)
    active = [(k, w) for k, w in steps if k + 1 <= len(lengths)]
    if active and not in_domain(lengths, active[0][0]):
        return EnergyResult(math.inf, "exact")
    return EnergyResult(delta * math.fsum(w * log_cost(lengths, k) for k, w in active), "exact")


def _chain_margin(bigger: float, smaller: float) -> float:
    """bigger - smaller, with the divergence convention inf - inf = 0."""
    return 0.0 if bigger == smaller else bigger - smaller


def suite_rearrange(rng, count: int) -> tuple:
    """Least hostility loss under rearrangement over ``count`` random arrangements."""
    worst, witness = math.inf, None
    for _ in range(count):
        u = random_step_function(rng, 20, levels=7)
        k = int(rng.integers(1, 6))
        f_u = hostility(1.0, u, k).value
        f_mu = hostility(1.0, rearrange(u), k).value
        margin = _chain_margin(f_u, f_mu)
        if margin < worst:
            worst = margin
            witness = {"u": u.to_json(), "k": k}
    return worst, witness


_CHAIN_LAWS = (
    ("phi1", ModelLaw(1)),
    ("psi:2", PackagedDyadicLaw((1, 1))),
    ("pca2:[0,0,1]", PackagedDyadicLaw((0, 0, 1))),
)


def suite_chain(rng, count: int) -> tuple:
    """Least energy drop along u >= truncate >= segment >= rearrange.

    Each of ``count`` draws takes a random step function, truncation window,
    lattice step and law; the witness names the stage of the worst drop.
    """
    worst, witness = math.inf, None
    for _ in range(count):
        u = random_step_function(rng, 10)
        delta = float(rng.choice([0.5, 1.0]))
        lo = delta * int(rng.integers(-4, 0))
        hi = delta * int(rng.integers(1, 5))
        tu = truncate(u, lo, hi)
        stu = segment(tu, delta)
        mstu = rearrange(stu)
        tag, law = _CHAIN_LAWS[int(rng.integers(0, len(_CHAIN_LAWS)))]
        vals = [lambda_step(law, w, delta).value for w in (u, tu, stu, mstu)]
        for stage, (bigger, smaller) in enumerate(zip(vals, vals[1:])):
            margin = _chain_margin(bigger, smaller)
            if margin < worst:
                worst = margin
                witness = {"u": u.to_json(), "delta": delta, "law": tag, "stage": stage,
                           "values": [format(v, ".17g") for v in vals]}
    return worst, witness


def _measure_above(w: np.ndarray, h: float, threshold: float) -> float:
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


def _inner_integral(law, w: np.ndarray, h: float, delta: float, items) -> float:
    """Integral over x of law(|w(x)| / delta) on the sampling grid.

    ``w`` is a caller-owned work array: the law branch overwrites it with
    |w| / delta.
    """
    if items is not None:
        return math.fsum(
            wt * _measure_above(w, h, k * delta) for k, wt in items)
    np.abs(w, out=w)
    vals = np.asarray(law(np.divide(w, delta, out=w)), dtype=float)
    return h * (float(np.sum(vals)) - 0.5 * (vals[0] + vals[-1]))


def _shift_indices(n: int, tol: float) -> np.ndarray:
    """Shifts 1 to n, geometric of ratio 1 + sqrt(tol)/2 (squared step tol/4), steps >= 1."""
    ratio, js = 1.0 + math.sqrt(tol) / 2, [1]
    while js[-1] < n:
        js.append(min(n, max(js[-1] + 1, int(js[-1] * ratio))))
    return np.asarray(js)


def _halving_differences(s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Trapezoid on all nodes minus trapezoid on every other node, per node pair.

    Entry i covers the cells between nodes 2i and 2i+2; an odd last cell is
    the same in both rules.
    """
    cells = 0.5 * np.diff(s) * (f[:-1] + f[1:])
    m = len(cells) // 2 * 2
    coarse = 0.5 * (s[2:m + 1:2] - s[0:m:2]) * (f[0:m:2] + f[2:m + 1:2])
    return cells[0:m:2] + cells[1:m:2] - coarse


def _lambda_quad_on_grid(law, samples: np.ndarray, h: float, delta: float,
                         tol: float) -> tuple:
    """Energy on one sampling grid, and the error estimate of its shift quadrature.

    The outer integral runs over a geometric grid of integer shifts of ratio
    1 + sqrt(tol)/2, and its error is estimated by the trapezoid on every
    other node.  While that estimate exceeds a quarter of ``tol`` (relative),
    the node pairs carrying more than their share of it are bisected, down to
    single shifts.  The global ratio stays fixed: a jump of the integrand
    needs fine cells at one place only.
    """
    items = getattr(law, "steps", None)
    n = len(samples)
    # fresh grid-sized temporaries page-fault back in on every shift
    work = np.empty(n - 1)

    def integrand(js):
        return np.array([
            _inner_integral(law, np.subtract(samples[j:], samples[:-j], out=work[:n - j]),
                            h, delta, items) * delta / (j * h) ** 2 for j in js])

    # the integrand vanishes (or is negligibly small) below the first shift
    js = _shift_indices(n - 1, tol)
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


def lambda_quad(law: InteractionLaw, u, interval, delta: float,
                tol: float = 1e-3) -> EnergyResult:
    """Double-integral energy of a smooth function by grid quadrature.

    ``u`` must be callable on numpy arrays and Lipschitz on the interval.  The
    error estimate adds two parts: the inner-grid doubling (the change from
    the previous grid, which has half as many points) and the outer shift
    quadrature on the current grid (trapezoid on shift nodes of ratio
    1 + sqrt(tol)/2 against trapezoid on every other node).  The grid is
    refined until that sum is within ``tol`` (relative, finite and > 0);
    refinement past 2^21 grid points raises RuntimeError.
    """
    max_grid = 1 << 21
    a, b = interval
    if not a < b:
        raise ValueError("empty interval")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    # resolve the transition distance delta/Lip with plenty of headroom
    xg = np.linspace(a, b, 4097)
    lip = float(np.max(np.abs(np.diff(u(xg)))) / ((b - a) / 4096))
    if lip == 0.0:
        return EnergyResult(0.0, "quadrature")
    n = 1 << 13
    while (b - a) / n > 0.05 * delta / lip and n < max_grid:
        n *= 2

    prev = None
    while True:
        samples = np.asarray(u(np.linspace(a, b, n + 1)), dtype=float)
        val, outer = _lambda_quad_on_grid(law, samples, (b - a) / n, delta, tol)
        if prev is not None:
            err = abs(val - prev) + outer
            if err <= tol * max(1.0, abs(val)):
                return EnergyResult(val, "quadrature", error_estimate=err)
        if n >= max_grid:
            raise RuntimeError(
                f"quadrature did not reach tol={tol} within {max_grid} grid points")
        prev = val
        n *= 2


def geometric_constant(d: int) -> EnergyResult:
    """Average absolute projection over the unit sphere, times its measure.

    The closed form 2*pi^((d-1)/2) / Gamma((d+1)/2), built by the recurrence
    G(d) = G(d-2) * 2*pi / (d-1) from G(1) = 2 and G(2) = 4 so that the low
    dimensions come out exact.
    """
    if d < 1:
        raise ValueError("dimension must be a positive integer")
    g = 2.0 if d % 2 else 4.0
    for m in range(4 - d % 2, d + 1, 2):
        g = g * 2.0 * math.pi / (m - 1)
    return EnergyResult(g, "exact")
