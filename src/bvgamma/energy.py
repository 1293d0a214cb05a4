"""Non-local energies of step functions and smooth functions on an interval.

The double-integral energy weights each pair (x, y) by law(|u(y)-u(x)|/delta)
times the singular kernel delta/(y-x)^2, threshold by threshold: for step functions
the pair integrals telescope over runs of pieces; for smooth functions it is exact
on the piecewise-linear interpolant of a sampling grid.
"""

from __future__ import annotations

import math
from operator import ge, gt, sub
from typing import TYPE_CHECKING

from . import _Frozen
from .laws import InteractionLaw, ModelLaw, PackagedDyadicLaw, _gauss_legendre, _mass_below

if TYPE_CHECKING:
    from .stepfn import StepFunction

__all__ = [
    "EnergyResult",
    "hostility",
    "lambda_step",
    "lambda_quad",
    "geometric_constant",
    "suite_rearrange",
    "suite_chain",
]


class EnergyResult(_Frozen):
    _fields = ("value", "method", "error_estimate")  # method: "exact" | "quadrature"

    def __init__(self, value: float, method: str, error_estimate: float = 0.0):
        self.__dict__.update(value=value, method=method, error_estimate=error_estimate)


def _snap(t: float) -> float:
    """Snap a near-integer jump ratio so lattice staircases hit thresholds exactly."""
    r = round(t)
    return float(r) if abs(t - r) <= 1e-9 * max(1.0, abs(t)) else t


def _cut(key, above, c, lo, hi, q) -> int:
    """The least i in [lo, hi) with above(key(i), c), else hi, for a key nondecreasing on
    [lo, hi): gallop from the hint q by steps of 1, 2, 4, ..., then bisect the bracket."""
    q, step = lo if q < lo else hi if q > hi else q, 1
    if q == hi or above(key(q), c):  # the cut is at or below q
        while q - step >= lo and above(key(q - step), c):
            step += step
        lo, hi = (lo if lo > q - step else q - step + 1), q - step // 2
    else:
        while q + step < hi and not above(key(q + step), c):
            step += step
        lo, hi = q + step // 2 + 1, (hi if hi < q + step else q + step)
    while lo < hi:
        m = (lo + hi) // 2
        lo, hi = (lo, m) if above(key(m), c) else (m + 1, hi)
    return hi


def _step_energy(x, v, law, delta) -> float:
    """Sum over piece pairs p < q of law(|v_q - v_p| / delta) times the pair integral,
    threshold by threshold of the law's measure (``InteractionLaw.threshold_measure``).

    The pair integral, both orders, is 2 delta T(p, q), a mixed second difference of
    log(x_b - x_a); so T summed over q in [a, b) telescopes to one well-conditioned
    log1p(l_p (x_b - x_a) / ((x_a - x_{p+1})(x_b - x_p))), l_p = x_{p+1} - x_p.  In each
    disjoint maximal monotone run, the q > p + 1 whose snapped ratio exceeds a threshold
    s form a prefix and a suffix.  Run by run, the pieces p are swept in order, and each
    level's cuts (``_cut``) start from piece p - 1's, so a cut costs O(log) of how far it
    moves.  An atom weights the pairs past its cuts by its mass; a density piece on
    (s0, s1) does so at s1, and weights the pairs in (s0, s1] one by one.  It is +inf
    when an adjacent pair has positive weight, decided once at the largest adjacent
    jump, since the snap and mu((0, t)) are nondecreasing in t.
    """
    measure = atoms, densities = law.threshold_measure()
    if _mass_below(measure, _snap(max(map(abs, map(sub, v[1:], v)), default=0.0) / delta)) > 0:
        return math.inf
    levels = sorted([*((s, w, None) for s, w in atoms),  # (s, mass past s, piece)
                     *((d[1], _mass_below(((), (d,)), d[1]), d) for d in densities)],
                    key=lambda level: level[0])
    runs = [[0, 1, 0]]  # [first, end, direction] of the disjoint maximal monotone runs
    for i in range(1, len(v)):
        step = (v[i] > v[i - 1]) - (v[i] < v[i - 1])
        if step * runs[-1][2] < 0:
            runs.append([i, i + 1, 0])
        else:
            runs[-1][1:] = i + 1, runs[-1][2] or step
    parts = []
    for lo, hi, sign in runs:
        sign, cuts = sign or 1, [[lo] * 4 for _ in levels]  # a run of one value rises
        for p in range(hi - 2):  # the pieces p with a q > p + 1 in the run
            vp, x0, x1, a = v[p], x[p], x[p + 1], lo if lo > p + 2 else p + 2

            def key(q):  # _snap's rule, inlined as it runs per probe; signed to rise along the run
                t = (v[q] - vp) / delta
                r, m = round(t), (t if t > 1.0 else -t if t < -1.0 else 1.0)
                return sign * (float(r) if abs(t - r) <= 1e-9 * m else t)

            def term(a, b):
                return math.log1p((x1 - x0) * (x[b] - x[a]) / ((x[a] - x1) * (x[b] - x0)))

            # the key is < -s before pre and > s from suf; cut holds pre, suf, pre0, suf0
            for (s, w, piece), cut in zip(levels, cuts):
                pre = cut[0] = _cut(key, ge, -s, a, hi, cut[0])
                suf = cut[1] = _cut(key, gt, s, pre, hi, cut[1])
                if a < pre:
                    parts.append(w * term(a, pre))
                if suf < hi:
                    parts.append(w * term(suf, hi))
                if piece:
                    pre0 = cut[2] = _cut(key, ge, -piece[0], pre, hi, cut[2])
                    suf0 = cut[3] = _cut(key, gt, piece[0], pre0, suf, cut[3])
                    parts += [_mass_below(((), (piece,)), _snap(abs(v[q] - vp) / delta))
                              * term(q, q + 1) for q in (*range(pre, pre0), *range(suf0, suf))]
    return 2.0 * delta * math.fsum(parts)


def hostility(delta: float, u: StepFunction, k: int) -> EnergyResult:
    """Total pair energy over pairs of pieces whose values differ by more than k.

    This is delta times the energy of the step law ModelLaw(k) at delta = 1;
    ``u`` must be integer valued.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    levels = [float(round(v)) for v in u.values]
    if any(abs(v - r) > 1e-9 * max(1.0, abs(v)) for v, r in zip(u.values, levels)):
        raise ValueError("hostility needs an integer-valued arrangement")
    return EnergyResult(delta * _step_energy(u.breakpoints, levels, ModelLaw(k), 1.0), "exact")


def lambda_step(law: InteractionLaw, u: StepFunction, delta: float) -> EnergyResult:
    """Exact double-integral energy of a step function.

    The result is +inf exactly when two adjacent pieces jump by enough for the
    law to be positive (the diagonal contact is then non-integrable).
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    return EnergyResult(_step_energy(u.breakpoints, u.values, law, delta), "exact")


def _chain_margin(bigger: float, smaller: float) -> float:
    """bigger - smaller, with the divergence convention inf - inf = 0."""
    return 0.0 if bigger == smaller else bigger - smaller


def _rearrange_faults(u, mu) -> list:
    """(-size, witness entry) of each way ``mu`` is not ``u`` rearranged: a drop between
    neighbors, or a level set whose measure differs by more than 1e-12 (b - a)."""
    def measures(w):
        pieces = {}
        for v, l in zip(w.values, w.lengths):
            pieces.setdefault(v, []).append(l)
        return {v: math.fsum(ls) for v, ls in pieces.items()}
    before, after = measures(u), measures(mu)
    off = [abs(before.get(v, 0.0) - after.get(v, 0.0)) for v in {*before, *after}]
    return ([(b - a, {"property": "rearrange: nondecreasing"})
             for a, b in zip(mu.values, mu.values[1:]) if b < a]
            + [(-d, {"property": "rearrange: level-set measures"})
               for d in off if d > 1e-12 * (u.breakpoints[-1] - u.breakpoints[0])])


def _segment_faults(tu, stu, delta) -> list:
    """(-size, witness entry) of each piece where ``stu`` is not ``tu`` snapped down to
    delta Z: off the lattice or above tu by more than 1e-12 max(delta, |tu|), or tu - stu
    at least delta."""
    faults = []
    for t, s in zip(tu.values, stu.values):
        sizes = {"on delta Z": abs(s / delta - round(s / delta)) * delta, "at most tu": s - t,
                 "above tu - delta": t - s if t - s >= delta else 0.0}
        faults += [(-d, {"property": f"segment: {name}"}) for name, d in sizes.items()
                   if d > 1e-12 * max(delta, abs(t))]
    return faults


def suite_rearrange(rng, count: int) -> tuple:
    """Least hostility loss under rearrangement over ``count`` random arrangements; a
    rearrangement that breaks its own properties counts its fault as a negative margin."""
    from .stepfn import random_step_function, rearrange
    worst, witness = math.inf, None
    for _ in range(count):
        u = random_step_function(rng, 20, levels=7)
        k = rng.randrange(1, 6)
        mu = rearrange(u)
        f_u, f_mu = hostility(1.0, u, k).value, hostility(1.0, mu, k).value
        for margin, where in [(_chain_margin(f_u, f_mu), {}), *_rearrange_faults(u, mu)]:
            if margin < worst:
                worst = margin
                witness = {"u": u.to_json(), "k": k, **where}
    return worst, witness


_CHAIN_LAWS = (("phi1", ModelLaw(1)), ("psi:2", PackagedDyadicLaw((1, 1))),
               ("pca2:[0,0,1]", PackagedDyadicLaw((0, 0, 1))))


def suite_chain(rng, count: int) -> tuple:
    """Least energy drop along u >= truncate >= segment >= rearrange.

    Each of ``count`` draws takes a random step function, truncation window,
    lattice step and law; the witness names the stage of the worst drop, or the
    property that segment or rearrange broke, whose fault counts as a negative margin.
    """
    from .stepfn import random_step_function, rearrange, segment, truncate
    worst, witness = math.inf, None
    for _ in range(count):
        u = random_step_function(rng, 10)
        delta = rng.choice([0.5, 1.0])
        lo = delta * rng.randrange(-4, 0)
        hi = delta * rng.randrange(1, 5)
        tu = truncate(u, lo, hi)
        stu = segment(tu, delta)
        mstu = rearrange(stu)
        tag, law = rng.choice(_CHAIN_LAWS)
        vals = [lambda_step(law, w, delta).value for w in (u, tu, stu, mstu)]
        drops = [(_chain_margin(*pair), {"stage": i}) for i, pair in enumerate(zip(vals, vals[1:]))]
        for margin, where in drops + _segment_faults(tu, stu, delta) + _rearrange_faults(stu, mstu):
            if margin < worst:
                worst = margin
                witness = {"u": u.to_json(), "delta": delta, "law": tag, **where,
                           "values": [format(v, ".17g") for v in vals]}
    return worst, witness


def _runs(x: np.ndarray, samples: np.ndarray) -> list:
    """The maximal monotone runs of the samples; tied samples join the run before them,
    and constant samples have none.

    A run is (its nodes, its samples, its direction d, and its two views): the
    nondecreasing v = d * samples on its nodes, then -v on the nodes in reverse, each
    as (v, nodes, slope), with dy/dv on each segment of v, 0 on a flat one, and a final 0.
    """
    import numpy as np
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


def _inverse_integral(h: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Integral of 1/d over pieces of length h on which d > 0 runs linearly from d1 to d2:
    h over the logarithmic mean of d1 and d2."""
    import numpy as np
    r = d2 / d1 - 1.0
    return h / d1 * np.divide(np.log1p(r), r, out=np.ones_like(r), where=r != 0)


def _crossing_measure(runs: list, tau: np.ndarray) -> np.ndarray:
    """Integral over x < y of 1[|U(y) - U(x)| > t] / (y - x)^2 at each threshold t of
    ``tau``, exact for the piecewise-linear interpolant U of samples split into ``runs``
    (``_runs``).

    For x in a monotone run A and y in a run B at or after A, the y with
    |U(y) - U(x)| > t form an interval at each end of B: in a view v = +-U of B,
    the y with v(y) > v(x) + t, from the cut c = sup{y : v(y) <= v(x) + t} to the
    view's last node e.  Within A only the rising view counts, since the other interval
    lies before x.  The y-integral is 1/(c - x) - 1/(e - x), negated for the view whose
    nodes run backwards.  A is cut at its nodes and where v(x) + t meets a node value
    of v; on each piece U(x) and c are linear in x, so both terms integrate in closed
    form (``_inverse_integral``).  Within a piece, c moves on the segment of v chosen
    at the piece's middle level, so a plateau of v at a piece's end level is not
    crossed inside the piece, and levels past the end of v cut at its last node.
    Each threshold is a row of every array, and its terms are summed alone, so each
    entry is bitwise what the threshold alone gives.
    """
    import numpy as np
    t = np.asarray(tau, dtype=float)[:, None]
    total = np.zeros(len(t))
    for i, (xa, ua, sa, _) in enumerate(runs):
        for j, (_, _, sb, views) in enumerate(runs[i:]):
            for sign, (v, y, slope) in zip((1.0, -1.0), views[:1] if j == 0 else views):
                d = sign * sb  # the view is v = d * U on B
                q = np.interp(sa * d * (v - t), sa * ua, xa)
                pts = np.sort(np.hstack([np.broadcast_to(xa, (len(t), len(xa))), q]), axis=1)
                level = d * np.interp(pts, xa, ua) + t
                # the last node at or below each piece's middle level (np.interp, not searchsorted)
                k = np.interp(0.5 * (level[:, :-1] + level[:, 1:]), v,
                              np.arange(len(v), dtype=float)).astype(int)
                np.maximum(level, v[0], out=level)
                yk, vk, sk = y[k], v[k], slope[k]
                c1, c2 = yk + (level[:, :-1] - vk) * sk, yk + (level[:, 1:] - vk) * sk
                x1, x2, e = pts[:, :-1], pts[:, 1:], y[-1]
                # an interval touching x is empty, and has no integral
                live = (np.minimum(c1, e) > x1) & (np.minimum(c2, e) > x2)
                h, x1, x2 = (x2 - x1)[live], x1[live], x2[live]
                terms = (_inverse_integral(h, c1[live] - x1, c2[live] - x2)
                         - _inverse_integral(h, e - x1, e - x2))
                ends = np.cumsum(np.count_nonzero(live, axis=1)).tolist()
                total += [sign * np.sum(terms[a:b]) for a, b in zip([0, *ends], ends)]
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
    import numpy as np
    # the error, about 1e-5 relative at 2^10 intervals and falling as n^-2, is near
    # 1e-9 here; the cap bounds the work spent on a tol that cannot be met
    max_grid = 1 << 17
    a, b = interval
    if not a < b:
        raise ValueError("empty interval")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    atoms, densities = law.threshold_measure()
    rules = [_gauss_legendre(q) for q in (8, 16)]
    n, prev = 256, None
    while True:
        x = np.linspace(a, b, n + 1)
        samples = np.asarray(u(x), dtype=float)
        runs = _runs(x, samples)
        top = (samples.max() - samples.min()) / delta  # the oscillation of U over delta
        # (threshold, weight) of each atom, then of each rule's nodes on each density piece
        terms = [list(atoms)]
        for nodes, weights in rules:
            terms.append([])
            for s0, s1, c, p in densities:
                s1 = min(s1, top)
                if s0 < s1:
                    # s^p times the crossing measure, about s^(p-1) near 0, is flat in
                    # v = (s / s1)^p, so a density from 0 with p < 1 takes its nodes in v
                    m = 1.0 / p if s0 == 0 and 0 < p < 1 else 1.0
                    for node, wk in zip(nodes, weights):
                        vk = 0.5 * (node + 1.0)
                        sk = s0 + (s1 - s0) * vk ** m
                        terms[-1].append((sk, 0.5 * (s1 - s0) * m * vk ** (m - 1) * wk * c
                                          * sk ** p))
        # the crossing measures vanish from the oscillation on; below it, the kernel takes
        # blocks of at most 2048 thresholds times nodes: its twenty or so temporaries then
        # add about 0.5 MB of peak memory (3.6 MB in one block of theta's 24 at n = 512)
        s = [sk for group in terms for sk, _ in group]
        t = delta * np.array([sk for sk in s if sk < top], dtype=float)
        rows = max(1, 2048 // len(x))
        below = iter([m for lo in range(0, len(t), rows)
                      for m in _crossing_measure(runs, t[lo:lo + rows]).tolist()])
        crossing = iter([next(below) if sk < top else 0.0 for sk in s])
        atom_parts, *rule_parts = ([w * next(crossing) for _, w in group] for group in terms)
        coarse, val = (2.0 * delta * math.fsum([math.fsum(atom_parts), *parts])
                       for parts in rule_parts)
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
