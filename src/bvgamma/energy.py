"""Non-local energies of step functions and smooth functions on an interval.

The double-integral energy weights each pair (x, y) by law(|u(y)-u(x)|/delta)
times the singular kernel delta/(y-x)^2.  For step functions the integral has
a closed form per pair of pieces; for smooth functions it is exact on the
piecewise-linear interpolant of a sampling grid, threshold by threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .laws import InteractionLaw, ModelLaw, PackagedDyadicLaw

if TYPE_CHECKING:
    from .stepfn import StepFunction

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


# piece pairs evaluated per numpy pass of _pair_energy
_PAIR_BLOCK = 4096


def _pair_energy(breakpoints, values, law, delta) -> float:
    """Sum over piece pairs i < j of law(|v_j - v_i| / delta) times the pair integral.

    For pieces (a1, a2) left of (b1, b2), the kernel integral over both orders
    is 2 * delta * log((b1-a1)(b2-a2) / ((b1-a2)(b2-a1))).  The sum is +inf
    when an adjacent pair has positive weight (the diagonal contact is then
    non-integrable), which one law call over the adjacent pairs decides first.
    The other pairs are taken in blocks of whole rows i, at most _PAIR_BLOCK
    pairs (or one longer row) each, so memory is bounded per block; each row
    is still summed on its own, in row order.
    """
    bp = np.asarray(breakpoints, dtype=float)
    vs = np.asarray(values, dtype=float)
    if np.any(law(_snap_to_integer(np.abs(np.diff(vs)) / delta)) > 0):
        return math.inf
    n = len(vs)
    # row i holds the pieces j >= i + 2, and first[i] pairs come before it
    first = np.concatenate([[0], np.cumsum(np.arange(n - 2, 0, -1))])
    total, r0 = 0.0, 0
    while r0 < n - 2:
        r1 = max(r0 + 1, int(np.searchsorted(first, first[r0] + _PAIR_BLOCK, "right")) - 1)
        rows = np.arange(r0, r1)
        i = np.repeat(rows, n - 2 - rows)
        j = i + 2 + np.arange(len(i)) - (first[i] - first[r0])
        w = law(_snap_to_integer(np.abs(vs[j] - vs[i]) / delta))
        # (x_j, x_{j+1}) against (x_i, x_{i+1})
        near, far = bp[j], bp[j + 1]
        ratio = ((near - bp[i]) * (far - bp[i + 1])) / ((near - bp[i + 1]) * (far - bp[i]))
        terms = w * np.log(ratio)
        start = 0
        for r in range(r0, r1):
            total += float(np.sum(terms[start:start + n - 2 - r]))
            start += n - 2 - r
        r0 = r1
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
    from .minprob import in_domain, log_cost
    from .stepfn import gaps
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
    from .stepfn import random_step_function, rearrange
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
    from .stepfn import random_step_function, rearrange, segment, truncate
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


def _runs(x: np.ndarray, samples: np.ndarray) -> list:
    """The maximal monotone runs of the samples; tied samples join the run before them,
    and constant samples have none.

    A run is (its nodes, its samples, its direction d, and its two views): the
    nondecreasing v = d * samples on its nodes, then -v on the nodes in reverse, each
    as a ``_cut`` triple (v, nodes, slope).
    """
    s = np.sign(np.diff(samples))
    moves = np.flatnonzero(s)
    if len(moves) == 0:
        return []
    turns = moves[1:][s[moves[1:]] != s[moves[:-1]]]
    ends = [0, *turns.tolist(), len(samples) - 1]
    runs = []
    for i, j in zip(ends, ends[1:]):
        xr, ur = x[i:j + 1], samples[i:j + 1]
        sign = s[moves[np.searchsorted(moves, i)]]
        views = []
        for v, y in ((sign * ur, xr), (-sign * ur[::-1], xr[::-1])):
            dv = np.diff(v)
            slope = np.divide(np.diff(y), dv, out=np.zeros_like(dv), where=dv > 0)
            views.append((v, y, np.append(slope, 0.0)))
        runs.append((xr, ur, sign, views))
    return runs


def _cut(v: np.ndarray, y: np.ndarray, slope: np.ndarray, level: np.ndarray) -> tuple:
    """sup{y : v(y) <= l} at both ends of each piece on which l runs linearly between
    consecutive entries of ``level``, for v nondecreasing on the nodes y.

    ``slope`` holds dy/dv on each segment of v, 0 on a flat one, and a final 0.  Every
    node value of v is a piece end, so within a piece the cut moves linearly on one
    segment of v.  That segment is chosen at the piece's middle level, so a plateau of v
    at a piece's end level is not crossed inside the piece, and levels past the end of v
    cut at the last node.
    """
    mid = 0.5 * (level[:-1] + level[1:])
    # the last node at or below mid (np.interp finds it faster than np.searchsorted)
    j = np.interp(mid, v, np.arange(len(v), dtype=float)).astype(int)
    lev = np.maximum(level, v[0])
    yj, vj, sj = y[j], v[j], slope[j]
    return yj + (lev[:-1] - vj) * sj, yj + (lev[1:] - vj) * sj


def _inverse_integral(h: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Integral of 1/d over pieces of length h on which d > 0 runs linearly from d1 to d2:
    h over the logarithmic mean of d1 and d2."""
    r = d2 / d1 - 1.0
    return h / d1 * np.divide(np.log1p(r), r, out=np.ones_like(r), where=r != 0)


def _crossing_measure(runs: list, tau: float) -> float:
    """Integral over x < y of 1[|U(y) - U(x)| > tau] / (y - x)^2, exact for the
    piecewise-linear interpolant U of samples split into ``runs`` (``_runs``).

    For x in a monotone run A and y in a run B at or after A, the y with
    |U(y) - U(x)| > tau form an interval at each end of B: in a view v = +-U of B,
    the y with v(y) > v(x) + tau, from the cut c to the view's last node e.  Within A
    only the rising view counts, since the other interval lies before x.  The
    y-integral is 1/(c - x) - 1/(e - x), negated for the view whose nodes run
    backwards.  A is cut at its nodes and where v(x) + tau meets a node value of v;
    on each piece U(x) and c are linear in x, so both terms integrate in closed form
    (``_inverse_integral``).
    """
    total = 0.0
    for i, (xa, ua, sa, _) in enumerate(runs):
        for j, (_, _, sb, views) in enumerate(runs[i:]):
            for sign, (v, y, slope) in zip((1.0, -1.0), views[:1] if j == 0 else views):
                d = sign * sb  # the view is v = d * U on B
                pts = np.sort(np.concatenate([xa, np.interp(sa * d * (v - tau), sa * ua, xa)]))
                c1, c2 = _cut(v, y, slope, d * np.interp(pts, xa, ua) + tau)
                x1, x2, e = pts[:-1], pts[1:], y[-1]
                # an interval touching x is empty, and has no integral
                live = (np.minimum(c1, e) > x1) & (np.minimum(c2, e) > x2)
                h, x1, x2 = (x2 - x1)[live], x1[live], x2[live]
                total += sign * float(np.sum(
                    _inverse_integral(h, c1[live] - x1, c2[live] - x2)
                    - _inverse_integral(h, e - x1, e - x2)))
    return total


def lambda_quad(law: InteractionLaw, u, interval, delta: float,
                tol: float = 1e-3) -> EnergyResult:
    """Double-integral energy of a smooth function ``u`` (callable on numpy arrays).

    The law enters through its threshold measure (``InteractionLaw.threshold_measure``):
    for the interpolant U of ``u`` on n + 1 equispaced points the energy is 2 delta
    times the integral of ``_crossing_measure`` at delta s against that measure, which
    is exact for U.  Atoms are summed; each density piece, clipped to the oscillation
    of U, takes a 16-point Gauss-Legendre rule.

    The error estimate adds the change from the grid with half as many points (the
    error U - u is regular and of order n^-2, so the change is about three times the
    error of the finer grid), the change from the 8-point rule, and n ulps of the
    value.  The rule's change, which also shrinks as the grid refines, bounds its
    error when the density times the crossing measure is smooth: for every law but a
    tabulated one of origin power near 1, whose smallest thresholds fall below the
    rounding of U.  The grid starts at 256 intervals and doubles until the estimate is
    within ``tol`` (relative, finite and > 0); past 2^17 intervals it raises
    RuntimeError.
    """
    # the error, about 1e-5 relative at 2^10 intervals and falling as n^-2, is near
    # 1e-9 here; the cap bounds the work spent on a tol that cannot be met
    max_grid = 1 << 17
    a, b = interval
    if not a < b:
        raise ValueError("empty interval")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    atoms, densities = law.threshold_measure()
    rules = [np.polynomial.legendre.leggauss(q) for q in (8, 16)]
    n, prev = 256, None
    while True:
        x = np.linspace(a, b, n + 1)
        samples = np.asarray(u(x), dtype=float)
        runs = _runs(x, samples)
        # every crossing measure vanishes from the oscillation of U on
        top = (samples.max() - samples.min()) / delta

        def crossing(s):
            return _crossing_measure(runs, delta * s) if s < top else 0.0

        atom_sum = math.fsum(w * crossing(s) for s, w in atoms)
        sums = []
        for nodes, weights in rules:
            parts = [atom_sum]
            for s0, s1, c, p in densities:
                s1 = min(s1, top)
                if s0 < s1:
                    # s^p times the crossing measure, about s^(p-1) near 0, is flat in
                    # v = (s / s1)^p, so a density from 0 with p < 1 takes its nodes in v
                    m = 1.0 / p if s0 == 0 and 0 < p < 1 else 1.0
                    v = 0.5 * (nodes + 1.0)
                    s = s0 + (s1 - s0) * v ** m
                    parts.extend(0.5 * (s1 - s0) * m * vk ** (m - 1) * wk * c * sk ** p
                                 * crossing(sk) for sk, vk, wk in zip(s, v, weights))
            sums.append(2.0 * delta * math.fsum(parts))
        coarse, val = sums
        if prev is not None:
            err = abs(val - prev) + abs(val - coarse) + n * 2.0 ** -52 * abs(val)
            if err <= tol * max(1.0, abs(val)):
                return EnergyResult(val, "quadrature", error_estimate=err)
        if n >= max_grid:
            raise RuntimeError(
                f"quadrature did not reach tol={tol} within {max_grid} grid points")
        prev, n = val, 2 * n


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
