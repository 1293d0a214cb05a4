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

Every law evaluates on scalars or numpy arrays, knows its scale factor
(the integral of law(t)/t^2 over (0, inf)), and serializes to JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    "rescale",
    "phi_eps",
    "law_to_json",
    "law_from_json",
]


def _as_fraction(x):
    """Exact rational view of x, or None if the conversion would be lossy."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float) and x == int(x):
        return Fraction(int(x))
    return None


class InteractionLaw:
    """Base class; concrete laws implement __call__ and scale_factor."""

    #: structurally bounded; only tabulated laws with an extrapolating tail
    #: can be unbounded
    bounded = True

    def __call__(self, t):
        raise NotImplementedError

    def scale_factor(self) -> float:
        """Integral of law(t) / t^2 over (0, +inf)."""
        raise NotImplementedError

    def scale_factor_exact(self):
        """Exact rational scale factor when one exists, else None."""
        return None

    def upper_bound(self) -> float:
        """A constant bounding the law from above (sup of its values)."""
        raise NotImplementedError


class _StepWeightLaw(InteractionLaw):
    """Nonnegative combination of step laws, read through ``steps``.

    ``steps`` holds the (threshold, weight) pairs with positive weight in
    threshold order, with the weights as given so that exact weights give an
    exact scale factor.  The law at t is the sum of the weights whose
    threshold lies below t, read from a float table built once.
    """

    def _set_steps(self, steps):
        steps = tuple(steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "_thresholds", np.array([k for k, _ in steps], dtype=float))
        object.__setattr__(self, "_levels", np.concatenate(
            [[0.0], np.cumsum(np.asarray([w for _, w in steps], dtype=float))]))

    def _evaluate(self, t):
        return self._levels[np.searchsorted(self._thresholds, np.asarray(t, dtype=float))][()]

    def scale_factor(self) -> float:
        exact = self.scale_factor_exact()
        if exact is not None:
            return float(exact)
        return math.fsum(w / k for k, w in self.steps)

    def scale_factor_exact(self):
        total = Fraction(0)
        for k, w in self.steps:
            fw = _as_fraction(w)
            if fw is None:
                return None
            total += fw / k
        return total

    def upper_bound(self) -> float:
        return float(math.fsum(w for _, w in self.steps))


@dataclass(frozen=True)
class ModelLaw(_StepWeightLaw):
    """Step law: 0 on [0, k], 1 on (k, +inf)."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"step threshold must be a positive integer, got {self.k}")
        self._set_steps([(self.k, 1)])

    def __call__(self, t):
        return self._evaluate(t)


@dataclass(frozen=True)
class PiecewiseConstantLaw(_StepWeightLaw):
    """Nonnegative combination of step laws with thresholds 1..m."""

    weights: tuple

    def __post_init__(self):
        w = tuple(self.weights)
        object.__setattr__(self, "weights", w)
        if len(w) == 0:
            raise ValueError("weight list must be nonempty")
        if any(x < 0 for x in w):
            raise ValueError("weights must be nonnegative")
        if all(x == 0 for x in w):
            raise ValueError("at least one weight must be positive")
        self._set_steps((k, x) for k, x in enumerate(w, start=1) if x > 0)

    def __call__(self, t):
        return self._evaluate(t)


@dataclass(frozen=True)
class PackagedDyadicLaw(_StepWeightLaw):
    """Combination of step laws whose coefficients are equal in dyadic packages.

    Package j (weight packages[j-1]) covers thresholds 2^(j-1) .. 2^j - 1.
    """

    packages: tuple

    def __post_init__(self):
        a = tuple(self.packages)
        object.__setattr__(self, "packages", a)
        if len(a) == 0:
            raise ValueError("package list must be nonempty")
        if any(x < 0 for x in a):
            raise ValueError("package weights must be nonnegative")
        if all(x == 0 for x in a):
            raise ValueError("at least one package weight must be positive")
        self._set_steps(self.expand().steps)

    def expand(self) -> PiecewiseConstantLaw:
        weights = []
        for j, a in enumerate(self.packages, start=1):
            weights.extend([a] * (2 ** j - 2 ** (j - 1)))
        return PiecewiseConstantLaw(tuple(weights))

    def __call__(self, t):
        return self._evaluate(t)


@dataclass(frozen=True)
class AffineThetaLaw(InteractionLaw):
    """Affine ramp: 0 on [0,1], t-1 on [1,2], 1 on [2, +inf)."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        r = np.subtract(t, 1.0, out=np.empty(t.shape))
        return np.clip(r, 0.0, 1.0, out=r)[()]

    def scale_factor(self) -> float:
        # integral of (t-1)/t^2 on (1,2) plus 1/t^2 tail beyond 2
        return math.log(2.0)

    def upper_bound(self) -> float:
        return 1.0


@dataclass(frozen=True)
class DyadicAffineLaw(InteractionLaw):
    """Piecewise-affine law with nodes at powers of two.

    Node values come from a nondecreasing bounded sequence given as explicit
    (z, value) pairs; the sequence is filled with zeros to the left of the
    given range and held constant to the right.  An index missing between two
    given nodes holds the value of the nearest given node to its left, so the
    filled sequence stays nondecreasing.  The law vanishes at 0, takes value
    seq(z) at 2^z, and is affine on each [2^z, 2^(z+1)].
    """

    nodes: tuple  # sorted tuple of (z, value) pairs

    def __post_init__(self):
        pairs = tuple(sorted((int(z), float(v)) for z, v in self.nodes))
        object.__setattr__(self, "nodes", pairs)
        if not pairs:
            raise ValueError("node list must be nonempty")
        zs = [z for z, _ in pairs]
        if len(set(zs)) != len(zs):
            raise ValueError("duplicate node indices")
        vals = [v for _, v in pairs]
        if any(v < 0 for v in vals):
            raise ValueError("node values must be nonnegative")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise ValueError("node values must be nondecreasing")
        if vals[-1] == 0:
            raise ValueError("law would be identically zero")
        given = dict(pairs)
        # node values are nondecreasing, so the running max holds each gap
        object.__setattr__(self, "_table", np.maximum.accumulate(
            [given.get(i, 0.0) for i in range(zs[0], zs[-1] + 1)]))

    def _seq(self, z):
        """Sequence value at integer index z (zero left, gaps held, constant right)."""
        zmin = self.nodes[0][0]
        zmax = self.nodes[-1][0]
        zi = np.clip(np.asarray(z), zmin - 1, zmax)
        return np.where(zi < zmin, 0.0, self._table[np.clip(zi - zmin, 0, zmax - zmin)])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            z = np.floor(np.log2(np.where(t > 0, t, 1.0))).astype(int)
        lo = self._seq(z)
        hi = self._seq(z + 1)
        node = np.exp2(z)
        val = lo + (hi - lo) * (t - node) / node
        return np.where(t > 0, val, 0.0)[()]

    def increments(self):
        """Pairs (z, seq(z+1) - seq(z)) over the finite support of the jumps."""
        zmin = self.nodes[0][0]
        zmax = self.nodes[-1][0]
        out = []
        for z in range(zmin - 1, zmax + 1):
            d = float(self._seq(z + 1) - self._seq(z))
            if d != 0.0:
                out.append((z, d))
        return out

    def scale_factor(self) -> float:
        # series representation: the law is a combination of rescaled affine
        # ramps, one per increment of the node sequence
        series = math.fsum(d * 2.0 ** (-z) for z, d in self.increments())
        return math.log(2.0) * series

    def upper_bound(self) -> float:
        return self.nodes[-1][1]

    def quadratic_decay_witness(self) -> float:
        """Largest seq(z) * 4^(-z) over the provided nodes (finite by fill rule)."""
        return max(v * 4.0 ** (-z) for z, v in self.nodes if v > 0)


@dataclass(frozen=True)
class ScaledLaw(InteractionLaw):
    """Vertical/horizontal rescaling: t -> alpha * inner(beta * t)."""

    inner: InteractionLaw
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("scaling constants must be positive")

    @property
    def bounded(self):
        return self.inner.bounded

    def __call__(self, t):
        return self.alpha * self.inner(np.asarray(t, dtype=float) * self.beta)

    def scale_factor(self) -> float:
        return self.alpha * self.beta * self.inner.scale_factor()

    def scale_factor_exact(self):
        inner = self.inner.scale_factor_exact()
        fa, fb = _as_fraction(self.alpha), _as_fraction(self.beta)
        if inner is None or fa is None or fb is None:
            return None
        return fa * fb * inner

    def upper_bound(self) -> float:
        return self.alpha * self.inner.upper_bound()


@dataclass(frozen=True)
class TabulatedLaw(InteractionLaw):
    """Law given by samples on a positive grid.

    Between grid nodes the law is affine; below the first node it follows a
    power law through the origin (so that the scale-factor integral stays
    finite); beyond the last node it is either constant or extrapolated with
    the last slope.
    """

    grid: tuple
    samples: tuple
    origin_power: float = 2.0
    tail: str = "constant"  # or "extrapolate"

    def __post_init__(self):
        ts = tuple(float(t) for t in self.grid)
        vs = tuple(float(v) for v in self.samples)
        object.__setattr__(self, "grid", ts)
        object.__setattr__(self, "samples", vs)
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

    @property
    def bounded(self):
        if self.tail == "constant":
            return True
        return self.samples[-1] <= self.samples[-2]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        ts = np.asarray(self.grid)
        vs = np.asarray(self.samples)
        out = np.interp(t, ts, vs)
        head = vs[0] * np.power(np.clip(t / ts[0], 0.0, 1.0), self.origin_power)
        out = np.where(t < ts[0], head, out)
        if self.tail == "extrapolate":
            slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
            out = np.where(t > ts[-1], vs[-1] + slope * (t - ts[-1]), out)
        return out[()]

    def scale_factor(self) -> float:
        ts = self.grid
        vs = self.samples
        p = self.origin_power
        # head: v0 * (t/t0)^p / t^2 integrated over (0, t0)
        parts = [vs[0] / (ts[0] * (p - 1.0))]
        # affine panels: (c + m t) / t^2 has antiderivative -c/t + m log t
        for (t0, v0), (t1, v1) in zip(zip(ts, vs), zip(ts[1:], vs[1:])):
            m = (v1 - v0) / (t1 - t0)
            c = v0 - m * t0
            parts.append(c * (1.0 / t0 - 1.0 / t1) + m * math.log(t1 / t0))
        if self.tail == "constant":
            parts.append(vs[-1] / ts[-1])
        else:
            slope = (vs[-1] - vs[-2]) / (ts[-1] - ts[-2])
            if slope > 0:
                return math.inf
            parts.append(vs[-1] / ts[-1])
        return math.fsum(parts)

    def upper_bound(self) -> float:
        if not self.bounded:
            return math.inf
        return max(self.samples)


def rescale(law: InteractionLaw, alpha: float, beta: float) -> ScaledLaw:
    """Law t -> alpha * law(beta * t)."""
    return ScaledLaw(inner=law, alpha=alpha, beta=beta)


@dataclass(frozen=True)
class QuadraticHeadLaw(InteractionLaw):
    """c*eps*t^2 on [0, 1] and c beyond, with c = 1/(1+eps) for a unit scale factor."""

    eps: float

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise ValueError("eps must lie in (0, 1]")
        object.__setattr__(self, "_c", 1.0 / (1.0 + self.eps))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        head = np.clip(t, 0.0, 1.0)
        return np.where(t > 1.0, self._c, self._c * self.eps * head * head)[()]

    def scale_factor(self) -> float:
        # the head contributes c*eps and the constant tail c
        return self._c * self.eps + self._c

    def upper_bound(self) -> float:
        return self._c


def phi_eps(eps: float) -> QuadraticHeadLaw:
    """Quadratic-head law for eps in (0, 1], normalized to unit scale factor."""
    return QuadraticHeadLaw(eps=eps)


@dataclass
class AdmissibilityReport:
    """Grid-certified admissibility check result."""

    grid: np.ndarray
    monotone: bool
    monotone_witness: tuple | None
    quadratic_ok: bool
    quadratic_coefficient: float | None
    quadratic_witness: float | None
    bounded_ok: bool
    bound: float
    bounded_witness: float | None

    @property
    def ok(self) -> bool:
        return self.monotone and self.quadratic_ok and self.bounded_ok

    def summary(self) -> str:
        lines = [
            f"monotone: {'pass' if self.monotone else 'fail'}"
            + (f" (witness t={self.monotone_witness})" if self.monotone_witness else ""),
            f"quadratic near 0: {'pass' if self.quadratic_ok else 'fail'}"
            + (f" (a={self.quadratic_coefficient:.6g})" if self.quadratic_ok else
               f" (witness t={self.quadratic_witness})"),
            f"bounded: {'pass' if self.bounded_ok else 'fail'}"
            + (f" (b={self.bound:.6g})" if self.bounded_ok else
               f" (witness t={self.bounded_witness})"),
        ]
        return "\n".join(lines)


def check_admissible(law: InteractionLaw, grid=None) -> AdmissibilityReport:
    """Certify admissibility conditions on a finite probe grid.

    Checks (i) monotonicity on the grid, (ii) existence of a with
    law(t) <= a*t^2 on [0,1] (reports the smallest grid-certified a),
    (iii) boundedness (reports the grid sup as certificate b).
    """
    if grid is None:
        grid = np.unique(np.concatenate([
            np.linspace(0.0, 1.0, 401),
            np.geomspace(1e-6, 1.0, 200),
            np.linspace(1.0, 64.0, 800),
        ]))
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("probe grid must be nonempty")
    vals = np.asarray(law(grid), dtype=float)

    diffs = np.diff(vals)
    monotone = bool(np.all(diffs >= -1e-15 * np.maximum(1.0, np.abs(vals[:-1]))))
    witness = None
    if not monotone:
        i = int(np.argmin(diffs))
        witness = (float(grid[i]), float(grid[i + 1]))

    unit = (grid > 0) & (grid <= 1.0)
    quad_ok = True
    quad_a: float | None = 0.0
    quad_witness = None
    if vals[grid == 0.0].size and float(vals[grid == 0.0][0]) > 0:
        quad_ok = False
        quad_a = None
        quad_witness = 0.0
    elif unit.any():
        ratios = vals[unit] / grid[unit] ** 2
        quad_a = float(ratios.max(initial=0.0))

    bound = float(vals.max())
    bounded_ok = bool(law.bounded)
    bounded_witness = None if bounded_ok else float(grid[-1])
    if bounded_ok:
        bound = max(bound, float(law.upper_bound()))

    return AdmissibilityReport(
        grid=grid,
        monotone=monotone,
        monotone_witness=witness,
        quadratic_ok=quad_ok,
        quadratic_coefficient=quad_a,
        quadratic_witness=quad_witness,
        bounded_ok=bounded_ok,
        bound=bound,
        bounded_witness=bounded_witness,
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def law_to_json(law: InteractionLaw) -> dict:
    if isinstance(law, ModelLaw):
        return {"variant": "model", "k": law.k}
    if isinstance(law, PiecewiseConstantLaw):
        return {"variant": "piecewise_constant", "weights": [float(w) for w in law.weights]}
    if isinstance(law, PackagedDyadicLaw):
        return {"variant": "packaged_dyadic", "packages": [float(a) for a in law.packages]}
    if isinstance(law, AffineThetaLaw):
        return {"variant": "affine_theta"}
    if isinstance(law, DyadicAffineLaw):
        return {
            "variant": "dyadic_affine",
            "nodes": [[z, v] for z, v in law.nodes],
            "left_fill": "zero-left",
            "right_fill": "constant-right",
        }
    if isinstance(law, ScaledLaw):
        return {
            "variant": "scaled",
            "inner": law_to_json(law.inner),
            "alpha": law.alpha,
            "beta": law.beta,
        }
    if isinstance(law, QuadraticHeadLaw):
        return {"variant": "quadratic_head", "eps": law.eps}
    if isinstance(law, TabulatedLaw):
        return {
            "variant": "tabulated",
            "grid": list(law.grid),
            "samples": list(law.samples),
            "origin_power": law.origin_power,
            "tail": law.tail,
        }
    raise TypeError(f"cannot serialize {type(law).__name__}")


def law_from_json(doc) -> InteractionLaw:
    if isinstance(doc, str):
        doc = json.loads(doc)
    variant = doc["variant"]
    if variant == "model":
        return ModelLaw(k=int(doc["k"]))
    if variant == "piecewise_constant":
        return PiecewiseConstantLaw(weights=tuple(doc["weights"]))
    if variant == "packaged_dyadic":
        return PackagedDyadicLaw(packages=tuple(doc["packages"]))
    if variant == "affine_theta":
        return AffineThetaLaw()
    if variant == "dyadic_affine":
        return DyadicAffineLaw(nodes=tuple((int(z), float(v)) for z, v in doc["nodes"]))
    if variant == "scaled":
        return ScaledLaw(
            inner=law_from_json(doc["inner"]),
            alpha=float(doc["alpha"]),
            beta=float(doc["beta"]),
        )
    if variant == "quadratic_head":
        return QuadraticHeadLaw(eps=float(doc["eps"]))
    if variant == "tabulated":
        return TabulatedLaw(
            grid=tuple(doc["grid"]),
            samples=tuple(doc["samples"]),
            origin_power=float(doc.get("origin_power", 2.0)),
            tail=doc.get("tail", "constant"),
        )
    raise ValueError(f"unknown law variant {variant!r}")
