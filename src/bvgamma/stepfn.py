"""Step functions on an interval and the three simplifying operators.

A step function holds value values[i] on the open interval
(breakpoints[i], breakpoints[i+1]); point values at breakpoints are
irrelevant to every integral computed here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from . import _Frozen

__all__ = [
    "StepFunction",
    "truncate",
    "segment",
    "rearrange",
    "oscillation",
    "total_variation",
    "gaps",
    "staircase_from_gaps",
    "random_step_function",
]


class StepFunction(_Frozen):
    _fields = ("breakpoints", "values")

    def __init__(self, breakpoints: tuple, values: tuple):
        # breakpoints x0 < x1 < ... < xn; value v_i on (x_{i-1}, x_i)
        xs = tuple(float(x) for x in breakpoints)
        vs = tuple(float(v) for v in values)
        self.__dict__.update(breakpoints=xs, values=vs)
        if len(vs) < 1 or len(xs) != len(vs) + 1:
            raise ValueError("need n >= 1 pieces and n + 1 breakpoints")
        if not all(map(math.isfinite, xs + vs)):
            raise ValueError("breakpoints and values must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def lengths(self):
        return tuple(b - a for a, b in zip(self.breakpoints, self.breakpoints[1:]))

    def __call__(self, x) -> float:
        """Value at the number x: at a breakpoint the right piece's, and beyond either
        end the end piece's; NaN raises ValueError."""
        if x != x:
            raise ValueError("a step function has no value at NaN")
        i = bisect_right(self.breakpoints, x) - 1
        return self.values[min(max(i, 0), len(self.values) - 1)]

    def canonical(self) -> "StepFunction":
        """Merge adjacent pieces with equal values."""
        xs = [self.breakpoints[0]]
        vs = []
        for x, v in zip(self.breakpoints[1:], self.values):
            if vs and v == vs[-1]:
                xs[-1] = x
            else:
                vs.append(v)
                xs.append(x)
        return StepFunction(tuple(xs), tuple(vs))

    def is_nondecreasing(self) -> bool:
        return all(b >= a for a, b in zip(self.values, self.values[1:]))

    def to_json(self) -> dict:
        return {"breakpoints": list(self.breakpoints), "values": list(self.values)}

    @classmethod
    def from_json(cls, doc) -> "StepFunction":
        return cls(tuple(doc["breakpoints"]), tuple(doc["values"]))

    @classmethod
    def from_csv(cls, path) -> "StepFunction":
        """Read (x, v) rows: breakpoints with the value holding to the right.

        The last row supplies the final breakpoint; its value field is ignored
        (may be empty).
        """
        import csv
        xs, vs = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                xs.append(float(row[0]))
                vs.append(row[1].strip() if len(row) > 1 else "")
        values = tuple(float(v) for v in vs[:-1])
        return cls(tuple(xs), values)


def truncate(u: StepFunction, lo: float, hi: float) -> StepFunction:
    """Clamp all values into [lo, hi]."""
    if not lo < hi:
        raise ValueError("truncation needs lo < hi")
    vs = tuple(min(max(v, lo), hi) for v in u.values)
    return StepFunction(u.breakpoints, vs)


def _lattice_floor(v: float, delta: float) -> int:
    """floor(v / delta) with a relative guard against values sitting on the lattice."""
    q = v / delta
    k = math.floor(q)
    if (k + 1) - q < 1e-12 * max(1.0, abs(q)):
        k += 1
    return k


def segment(u: StepFunction, delta: float) -> StepFunction:
    """Snap every value down to the lattice delta * Z."""
    if not delta > 0:
        raise ValueError("segmentation step must be positive")
    vs = tuple(delta * _lattice_floor(v, delta) for v in u.values)
    return StepFunction(u.breakpoints, vs)


def rearrange(u: StepFunction) -> StepFunction:
    """Nondecreasing function with the same level-set measures."""
    order = sorted(range(len(u.values)), key=lambda i: u.values[i])
    xs, lengths = [u.breakpoints[0]], u.lengths
    for i in order:
        xs.append(xs[-1] + lengths[i])
    xs[-1] = u.breakpoints[-1]  # guard against accumulation drift at the right endpoint
    return StepFunction(tuple(xs), tuple(u.values[i] for i in order)).canonical()


def oscillation(u: StepFunction) -> float:
    return max(u.values) - min(u.values)


def total_variation(u: StepFunction) -> float:
    return math.fsum(abs(b - a) for a, b in zip(u.values, u.values[1:]))


def level_indices(u: StepFunction, delta: float) -> tuple:
    """Integer lattice indices of the values (values must sit on delta * Z)."""
    out = []
    for v in u.values:
        q = v / delta
        k = round(q)
        if abs(q - k) > 1e-12 * max(1.0, abs(q)):
            raise ValueError(f"value {v} is not a multiple of {delta}")
        out.append(int(k))
    return tuple(out)


def transition_abscissae(u: StepFunction, delta: float) -> tuple:
    """Points where a nondecreasing lattice staircase passes each level.

    Entry 0 is the left end of the domain; entry i (i >= 1) is the abscissa
    where the function reaches level min + i * delta.  Skipped levels repeat
    the same abscissa.
    """
    if not u.is_nondecreasing():
        raise ValueError("transition abscissae need a nondecreasing function")
    ks = level_indices(u, delta)
    # the first piece at or above each level starts at its transition
    return (u.breakpoints[0],) + tuple(u.breakpoints[bisect_left(ks, k)]
                                       for k in range(ks[0] + 1, ks[-1] + 1))


def gaps(u: StepFunction, delta: float) -> tuple:
    """Lengths between consecutive level transitions of a lattice staircase.

    Zero entries mark levels of measure zero (a jump of more than one lattice
    step).
    """
    xs = transition_abscissae(u, delta)
    return tuple(b - a for a, b in zip(xs, xs[1:]))


def staircase_from_gaps(lengths, delta: float, start: float = 0.0,
                        tail: float = 1.0) -> StepFunction:
    """Monotone staircase with the given inter-transition lengths.

    Level i * delta holds between transitions i and i+1; the first entry of
    the tuple must be positive (the base level needs positive measure), and a
    final piece of length ``tail`` carries the top level.
    """
    lengths = [float(l) for l in lengths]
    if not lengths or lengths[0] <= 0:
        raise ValueError("first length must be positive")
    if any(l < 0 for l in lengths):
        raise ValueError("lengths must be nonnegative")
    xs, vs, pos = [start], [], start
    for level, l in enumerate(lengths):
        if l > 0:
            pos += l
            xs.append(pos)
            vs.append(level * delta)
    xs.append(pos + tail)
    vs.append(len(lengths) * delta)
    return StepFunction(tuple(xs), tuple(vs))


def random_step_function(rng, max_pieces: int, levels: int | None = None) -> StepFunction:
    """Step function on [0, 10] with 2..max_pieces pieces, drawn from a ``random.Random``.

    The values are integers 0..levels-1 when ``levels`` is given and uniform
    in [-3, 3] otherwise.
    """
    n = rng.randrange(2, max_pieces + 1)
    bp = sorted(rng.uniform(0.0, 10.0) for _ in range(n + 1))
    while any(y - x < 1e-6 for x, y in zip(bp, bp[1:])):
        bp = sorted(rng.uniform(0.0, 10.0) for _ in range(n + 1))
    vals = [rng.uniform(-3.0, 3.0) if levels is None else rng.randrange(levels) for _ in range(n)]
    return StepFunction(tuple(bp), tuple(vals))
