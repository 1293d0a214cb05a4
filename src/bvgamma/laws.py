"""Interaction laws: the weight functions entering the non-local energies.

A law is a nondecreasing bounded function on [0, +inf) that is quadratically
small near the origin.  Several concrete families are supported:

* step laws vanishing on [0, k] and equal to 1 beyond,
* nonnegative combinations of step laws (optionally with dyadic "package"
  structure on the coefficients),
* the affine ramp law (0 on [0,1], t-1 on [1,2], 1 beyond),
* piecewise-affine laws with nodes at powers of two driven by a monotone
  integer-indexed sequence,
* horizontal/vertical rescalings of any law,
* the quadratic-head law c*eps*t^2 on [0, 1], c beyond, with unit scale
  factor,
* tabulated laws given by samples.

A law implements only ``threshold_measure``: it states itself once as a measure
mu of thresholds, law(t) = mu((0, t)), whose atoms may carry exact numbers.  The
law's value at a number, the scale factor (the integral of law(t)/t^2 over
(0, inf)), exact or not, and the exact admissibility decision are all read from
that measure in pure Python.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral, Real

from . import _Frozen, _Record

__all__ = [
    "InteractionLaw",
    "ModelLaw",
    "PiecewiseConstantLaw",
    "PackagedDyadicLaw",
    "AffineThetaLaw",
    "DyadicAffineLaw",
    "ScaledLaw",
    "QuadraticHeadLaw",
    "TabulatedLaw",
    "AdmissibilityReport",
    "check_admissible",
    "phi_eps",
]


def _as_fraction(x):
    """Exact rational view of x, or None if the conversion would be lossy."""
    from fractions import Fraction
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    return None


def _finite(xs) -> bool:
    """True when no value is NaN, infinite or too large for a float (exact for big ints)."""
    return all(abs(x) <= sys.float_info.max for x in xs)


def _checked_weights(values, list_name: str, name: str) -> tuple:
    """values as a tuple of step weights: nonempty, each a real number (not a bool),
    finite and nonnegative, not all zero, with a sum that is a finite float."""
    w = tuple(values)
    if len(w) == 0:
        raise ValueError(f"{list_name} must be nonempty")
    for x in w:
        if isinstance(x, bool) or not isinstance(x, Real):
            raise TypeError(f"{name} {x!r} is not a number")
    if not _finite(w):
        raise ValueError(f"{name}s must be finite")
    if any(x < 0 for x in w):
        raise ValueError(f"{name}s must be nonnegative")
    if all(x == 0 for x in w):
        raise ValueError(f"at least one {name} must be positive")
    try:
        math.fsum(w)  # the law's total mass, which every evaluation may reach
    except OverflowError:
        raise ValueError(f"{name}s must sum to at most {sys.float_info.max!r}") from None
    return w


class InteractionLaw:
    """Base class; a concrete law implements only threshold_measure.

    Calling a law at a number t is mu((0, t)) read from its measure by
    ``_mass_below``, the one evaluator every caller shares: the atoms below t and
    the part of each density piece below t, summed by one fsum.
    """

    def __call__(self, t) -> float:
        if t != t:  # NaN lies below no atom, so the measure would read 0
            raise ValueError("a law has no value at NaN")
        return _mass_below(self.threshold_measure(), t)

    def scale_factor(self) -> float:
        """Integral of law(t) / t^2 over (0, +inf), that is, of 1/s against the
        threshold measure: the exact value rounded once when there is one."""
        exact = self.scale_factor_exact()
        if exact is not None:
            return float(exact)
        atoms, densities = self.threshold_measure()
        parts = [float(w) / float(s) for s, w in atoms]
        for s0, s1, c, p in densities:
            parts.append(c * math.log(s1 / s0) if p == 0 else c * (s1 ** p - s0 ** p) / p)
        return math.fsum(parts)

    def scale_factor_exact(self):
        """Sum of w/s over the atoms as a Fraction, or None when the measure has a
        density or an atom whose threshold or weight is not exact."""
        atoms, densities = self.threshold_measure()
        exact = [(_as_fraction(s), _as_fraction(w)) for s, w in atoms]
        if densities or any(fs is None or fw is None for fs, fw in exact):
            return None
        from fractions import Fraction
        return sum((fw / fs for fs, fw in exact), Fraction(0))

    def threshold_measure(self) -> tuple:
        """The law as a measure mu of thresholds: law(t) = mu((0, t)).

        Returns (atoms, densities): each atom (s, w) is a mass w at s, and each density
        (s0, s1, c, p) is c * s^p ds on (s0, s1), with s1 possibly inf and p > -1.  A
        pair with |u(y) - u(x)| / delta = t counts each threshold below t.  An atom
        (s, w) may hold ints or Fractions, which give an exact scale factor.

        Contract: atoms are sorted by s, and density pieces have s0 < s1, are disjoint
        and sorted by s0, with no atom inside a piece.  So mu((0, t)) on a piece is
        B + C*t^(p+1), which the evaluator and the exact sup in check_admissible rely on.
        """
        raise NotImplementedError


class _StepWeightLaw(InteractionLaw, _Frozen):
    """Nonnegative combination of step laws, read through ``steps``.

    ``steps`` holds the (threshold, weight) pairs with positive weight in
    threshold order, with the weights as given.  It is the threshold measure,
    one atom per step, so the law at t is the sum of the weights whose threshold
    lies below t, and exact weights give an exact scale factor.
    """

    def threshold_measure(self) -> tuple:
        return self.steps, ()


class ModelLaw(_StepWeightLaw):
    """Step law: 0 on [0, k], 1 on (k, +inf)."""

    _fields = ("k",)

    # perfbench's tracer wraps the __call__ in each law class's own __dict__, so
    # every class it names keeps this alias of the one evaluator; ROADMAP item 5's
    # tracer change removes these lines
    __call__ = InteractionLaw.__call__

    def __init__(self, k: int = 1):
        if k < 1:
            raise ValueError(f"step threshold must be a positive integer, got {k}")
        self.__dict__.update(k=k, steps=((k, 1),))


class PiecewiseConstantLaw(_StepWeightLaw):
    """Nonnegative combination of step laws with thresholds 1..m."""

    _fields = ("weights",)
    __call__ = InteractionLaw.__call__

    def __init__(self, weights: tuple):
        w = _checked_weights(weights, "weight list", "weight")
        self.__dict__.update(weights=w, steps=tuple((k, x) for k, x in enumerate(w, 1) if x > 0))


class PackagedDyadicLaw(_StepWeightLaw):
    """Combination of step laws whose coefficients are equal in dyadic packages.

    Package j (weight packages[j-1]) covers thresholds 2^(j-1) .. 2^j - 1.  The
    depth m is at most 13: the law has 2^m - 1 steps, and past 13 its exact scale
    factor passes Python's 4300-digit limit on int-to-str conversion.
    """

    _fields = ("packages",)
    __call__ = InteractionLaw.__call__

    def __init__(self, packages: tuple):
        a = _checked_weights(packages, "package list", "package weight")
        self.__dict__.update(packages=a)
        if len(a) > 13:
            raise ValueError(f"package depth must be at most 13, got {len(a)}")
        self.__dict__.update(steps=self.expand().steps)

    def expand(self) -> PiecewiseConstantLaw:
        weights = []
        for j, a in enumerate(self.packages, start=1):
            weights.extend([a] * (2 ** j - 2 ** (j - 1)))
        return PiecewiseConstantLaw(tuple(weights))


class AffineThetaLaw(InteractionLaw, _Frozen):
    """Affine ramp: 0 on [0,1], t-1 on [1,2], 1 on [2, +inf)."""

    __call__ = InteractionLaw.__call__

    def threshold_measure(self) -> tuple:
        return (), ((1.0, 2.0, 1.0, 0.0),)


class DyadicAffineLaw(InteractionLaw, _Frozen):
    """Piecewise-affine law with nodes at powers of two.

    Node values come from a nondecreasing bounded sequence given as explicit
    (z, value) pairs; the sequence is filled with zeros to the left of the
    given range and held constant to the right.  An index missing between two
    given nodes holds the value of the nearest given node to its left, so the
    filled sequence stays nondecreasing.  The law vanishes at 0, takes value
    seq(z) at 2^z, and is affine on each [2^z, 2^(z+1)].
    """

    _fields = ("nodes",)  # nodes: sorted tuple of (z, value) pairs
    __call__ = InteractionLaw.__call__

    def __init__(self, nodes: tuple):
        for z, v in nodes:
            if isinstance(z, bool) or not isinstance(z, Integral):
                raise TypeError(f"node index {z!r} of node [{z!r}, {v!r}] is not an integer")
        pairs = tuple(sorted((int(z), float(v)) for z, v in nodes))
        self.__dict__.update(nodes=pairs)
        if not pairs:
            raise ValueError("node list must be nonempty")
        zs = [z for z, _ in pairs]
        if len(set(zs)) != len(zs):
            raise ValueError("duplicate node indices")
        vals = [v for _, v in pairs]
        if not _finite(vals):
            raise ValueError("node values must be finite")
        if any(v < 0 for v in vals):
            raise ValueError("node values must be nonnegative")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("node values must be nondecreasing")
        if vals[-1] == 0:
            raise ValueError("law would be identically zero")

    def increments(self):
        """Pairs (z, seq(z+1) - seq(z)) over the finite support of the jumps.

        The sequence holds each value up to the next given node, so index z - 1
        jumps exactly where node z rises above the node before it (or above 0).
        """
        below = (0.0,) + tuple(v for _, v in self.nodes)
        return [(z - 1, v - u) for (z, v), u in zip(self.nodes, below) if v != u]

    def threshold_measure(self) -> tuple:
        # the increment d at z is the ramp d * theta(t / 2^z)
        return (), tuple((2.0 ** z, 2.0 ** (z + 1), d / 2.0 ** z, 0.0)
                         for z, d in self.increments())


class ScaledLaw(InteractionLaw, _Frozen):
    """Vertical/horizontal rescaling: t -> alpha * inner(beta * t)."""

    _fields = ("inner", "alpha", "beta")
    __call__ = InteractionLaw.__call__

    def __init__(self, inner: InteractionLaw, alpha: float = 1.0, beta: float = 1.0):
        if not (alpha > 0 and beta > 0):
            raise ValueError("scaling constants must be positive")
        self.__dict__.update(inner=inner, alpha=alpha, beta=beta)

    def threshold_measure(self) -> tuple:
        # the inner threshold s is the threshold s / beta, and ds = beta dr
        atoms, densities = self.inner.threshold_measure()
        a, b = self.alpha, self.beta
        return (tuple((s / b, a * w) for s, w in atoms),
                tuple((s0 / b, s1 / b, a * c * b ** (p + 1.0), p) for s0, s1, c, p in densities))


class TabulatedLaw(InteractionLaw, _Frozen):
    """Law given by samples on a positive grid.

    Between grid nodes the law is affine; below the first node it follows a
    power law through the origin (so that the scale-factor integral stays
    finite); beyond the last node it is either constant or extrapolated with
    the last slope.
    """

    _fields = ("grid", "samples", "origin_power", "tail")  # tail "constant" or "extrapolate"
    __call__ = InteractionLaw.__call__

    def __init__(self, grid: tuple, samples: tuple, origin_power: float = 2.0,
                 tail: str = "constant"):
        ts = tuple(float(t) for t in grid)
        vs = tuple(float(v) for v in samples)
        self.__dict__.update(grid=ts, samples=vs, origin_power=origin_power, tail=tail)
        if len(ts) != len(vs) or len(ts) < 2:
            raise ValueError("need at least two (t, value) samples")
        if ts[0] <= 0:
            raise ValueError("grid must be strictly positive")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("grid must be strictly increasing")
        if any(v < 0 for v in vs):
            raise ValueError("samples must be nonnegative")
        if self.tail not in ("constant", "extrapolate"):
            raise ValueError(f"unknown tail rule {self.tail!r}")
        if self.origin_power <= 1:
            raise ValueError("origin power must exceed 1 for an integrable head")

    def threshold_measure(self) -> tuple:
        ts, vs, p = self.grid, self.samples, self.origin_power
        slopes = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])]
        densities = [(0.0, ts[0], vs[0] * p / ts[0] ** p, p - 1.0)]
        densities += [(t0, t1, m, 0.0) for t0, t1, m in zip(ts, ts[1:], slopes) if m]
        if self.tail == "extrapolate" and slopes[-1]:
            densities.append((ts[-1], math.inf, slopes[-1], 0.0))
        return (), tuple(densities)


class QuadraticHeadLaw(InteractionLaw, _Frozen):
    """c*eps*t^2 on [0, 1] and c beyond, with c = 1/(1+eps) for a unit scale factor."""

    _fields = ("eps",)

    def __init__(self, eps: float):
        if not (0 < eps <= 1):
            raise ValueError("eps must lie in (0, 1]")
        self.__dict__.update(eps=eps, _c=1.0 / (1.0 + eps))

    def threshold_measure(self) -> tuple:
        # c*eps*t^2 has the density 2*c*eps*s, and the jump from c*eps to c sits at 1
        return (((1.0, self._c * (1.0 - self.eps)),),
                ((0.0, 1.0, 2.0 * self._c * self.eps, 1.0),))


def phi_eps(eps: float) -> QuadraticHeadLaw:
    """Quadratic-head law for eps in (0, 1], normalized to unit scale factor."""
    return QuadraticHeadLaw(eps=eps)


def _mass_below(measure, t, closed=False) -> float:
    """mu((0, t)) of a threshold measure, or mu((0, t]) when closed, fsum'd."""
    atoms, densities = measure
    parts = [w for s, w in atoms if s < t or closed and s == t]
    for s0, s1, c, p in densities:
        top = min(t, s1)
        if top > s0:
            parts.append(c * (top ** (p + 1.0) - s0 ** (p + 1.0)) / (p + 1.0))
    return math.fsum(parts)


def _gauss_legendre(q: int) -> tuple:
    """Nodes, ascending, and weights of the q-point Gauss-Legendre rule on [-1, 1].

    Each root of P_q is polished by Newton's method from sin(pi (q - 2i - 1) / (2q + 1)),
    that is cos(pi (i + 3/4) / (q + 1/2)) but exactly 0 at the middle root of an odd
    q, with P_q and P_q' from the three-term recurrence; the rule is symmetric.
    """
    def legendre(x):
        p0, p1 = 1.0, x
        for k in range(2, q + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, q * (p0 - x * p1) / (1.0 - x * x)

    nodes, weights = [0.0] * q, [0.0] * q
    for i in range((q + 1) // 2):
        x, dx = math.sin(math.pi * (q - 2 * i - 1) / (2 * q + 1)), 1.0
        while abs(dx) > 1e-15:
            p, dp = legendre(x)
            dx = p / dp
            x -= dx
        dp = legendre(x)[1]
        nodes[i], nodes[-1 - i] = -x, x
        weights[i] = weights[-1 - i] = 2.0 / ((1.0 - x * x) * dp * dp)
    # the rule integrates 1 exactly; rescaling to that keeps the weights' rounding
    # errors from adding up
    total = math.fsum(weights)
    return nodes, [w * (2.0 / total) for w in weights]


def _piece(density) -> str:
    return f"density on ({density[0]:g}, {density[1]:g})"


class AdmissibilityReport(_Record):
    """Admissibility decided exactly from a law's threshold measure.

    Each witness names the atom or density piece that breaks its condition, and is
    None when the condition holds.  a is the least constant with law(t) <= a*t^2 on
    (0, 1], and b = mu((0, inf)) the law's supremum; each is inf when its condition
    fails.
    """

    _fields = ("monotone_witness", "quadratic_witness", "bounded_witness",
               "quadratic_coefficient", "bound")

    def __init__(self, monotone_witness: str | None, quadratic_witness: str | None,
                 bounded_witness: str | None, quadratic_coefficient: float, bound: float):
        self.__dict__.update(monotone_witness=monotone_witness,
                             quadratic_witness=quadratic_witness, bounded_witness=bounded_witness,
                             quadratic_coefficient=quadratic_coefficient, bound=bound)

    @property
    def ok(self) -> bool:
        return not (self.monotone_witness or self.quadratic_witness or self.bounded_witness)

    def summary(self) -> str:
        def line(name, witness, value=""):
            return f"{name}: fail ({witness})" if witness else f"{name}: pass{value}"

        return "\n".join([
            line("monotone", self.monotone_witness),
            line("quadratic near 0", self.quadratic_witness,
                 f" (a={self.quadratic_coefficient:.6g})"),
            line("bounded", self.bounded_witness, f" (b={self.bound:.6g})"),
        ])


def check_admissible(law: InteractionLaw) -> AdmissibilityReport:
    """Decide the three admissibility conditions exactly from law.threshold_measure().

    (i) Monotone: no atom or density has negative weight.  (ii) Quadratic near 0:
    a = sup of mu((0, t)) / t^2 over (0, 1] is finite.  It is not when an atom sits at
    0 or a density from 0 has p < 1.  Otherwise, on a density piece mu((0, t)) is
    B + C*t^q with q = p + 1, whose ratio to t^2 has one stationary point, where
    t^q = 2 (q mu((0, s0]) / c - s0^q) / (q - 2); so a is the largest of the right
    limits at the breakpoints in (0, 1), the ratio at t = 1 and those stationary
    points.  (iii) Bounded: no positive density reaches inf, and b = mu((0, inf)).
    """
    measure = atoms, densities = law.threshold_measure()
    monotone = next(iter([f"atom at {s:g}" for s, w in atoms if w < 0]
                         + [_piece(d) for d in densities if d[2] < 0]), None)
    quadratic = next(iter([f"atom at {s:g}" for s, w in atoms if s == 0 and w > 0]
                          + [_piece(d) for d in densities if d[0] == 0 and d[2] > 0
                             and d[3] < 1]), None)
    bounded = next((_piece(d) for d in densities if d[1] == math.inf and d[2] > 0), None)

    a = math.inf
    if quadratic is None:
        breaks = {s for s, _ in atoms} | {s for d in densities for s in d[:2]}
        points = [(s, True) for s in breaks if 0 < s < 1] + [(1.0, False)]
        for s0, s1, c, p in densities:
            q = p + 1.0
            if q != 2 and c:
                x = 2.0 * (q * _mass_below(measure, s0, True) / c - s0 ** q) / (q - 2.0)
                if x > 0 and s0 < x ** (1.0 / q) < min(s1, 1.0):
                    points.append((x ** (1.0 / q), False))
        a = max(_mass_below(measure, t, closed) / t ** 2 for t, closed in points)
    return AdmissibilityReport(monotone, quadratic, bounded, a,
                               math.inf if bounded else _mass_below(measure, math.inf))
