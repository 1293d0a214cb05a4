"""Multi-variable minimum problems over tuples of nonnegative step lengths.

The objective is a weighted sum of log-ratio costs built from sums of
consecutive lengths; it is homogeneous of degree zero, and its infimum over
tuples without too many consecutive zeros drives the shape-factor bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "window_sums",
    "in_domain",
    "log_cost",
    "power_cost",
    "telescopic_margin",
    "MinProblem",
    "MinResult",
    "minimize",
]


def window_sums(lengths, k: int) -> np.ndarray:
    """Sums of k consecutive entries: entry i covers lengths[i .. i+k-1]."""
    lengths = np.asarray(lengths, dtype=float)
    n = len(lengths)
    if not 1 <= k <= n:
        raise ValueError(f"window size {k} out of range for {n} entries")
    # direct sliding sums; cumulative-sum differences would cancel windows of
    # tiny entries against their large neighbors
    return np.convolve(lengths, np.ones(k), mode="valid")


def in_domain(lengths, k: int) -> bool:
    """True iff no entry is negative and no k consecutive entries are all zero.

    For k < len(lengths) a NaN entry also fails, as every window through it
    sums to NaN; for k >= len(lengths) one positive entry suffices.
    """
    values = np.asarray(lengths, dtype=float).tolist()
    run = 0
    blocked = positive = False
    for x in values:
        if x > 0:
            run = 0
            positive = True
        elif x == 0:
            run += 1
            blocked = blocked or run >= k
        elif x < 0:
            return False
        else:
            blocked = True
    if k >= len(values):
        return positive
    if k < 1:
        raise ValueError(f"window size {k} out of range for {len(values)} entries")
    return not blocked


def _log_cost_terms(lengths, k: int) -> np.ndarray:
    n = len(lengths)
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} entries")
    if not in_domain(lengths, k):
        raise ValueError(f"tuple has {k} consecutive zeros")
    return _log_terms(window_sums(lengths, k), window_sums(lengths, k + 1))


def _log_terms(s_k, s_k1) -> np.ndarray:
    # log-difference form: safe for window sums spanning many magnitudes
    return 2.0 * np.log(s_k1) - np.log(s_k[:-1]) - np.log(s_k[1:])


def log_cost(lengths, k: int) -> float:
    """Sum of log(S_{i,k+1}^2 / (S_{i,k} S_{i+1,k})) over the n-k windows."""
    return math.fsum(_log_cost_terms(lengths, k))


def power_cost(lengths, k: int, p: float) -> float:
    """Generalized cost with exponent p > 1; tends to log_cost as p -> 1."""
    if not p > 1:
        raise ValueError("exponent must exceed 1")
    lengths = np.asarray(lengths, dtype=float)
    if not in_domain(lengths, k):
        raise ValueError(f"tuple has {k} consecutive zeros")
    s_k = window_sums(lengths, k)
    s_k1 = window_sums(lengths, k + 1)
    q = p - 1.0
    terms = (-2.0 / s_k1 ** q + 1.0 / s_k[:-1] ** q + 1.0 / s_k[1:] ** q) / q
    return math.fsum(terms)


def telescopic_margin(lengths, a: int, b: int) -> float:
    """Slack of the telescopic lower bound: sum of costs minus the collapsed sum.

    Nonnegative for every admissible tuple; exactly zero when b == a.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = len(lengths)
    if not 1 <= a <= b <= n - 1:
        raise ValueError("need 1 <= a <= b <= n-1")
    if not in_domain(lengths, a):
        raise ValueError(f"tuple has {a} consecutive zeros")
    sums = {j: window_sums(lengths, j) for j in range(a, b + 2)}
    lhs_terms = []
    for j in range(a, b + 1):
        lhs_terms.extend(_log_terms(sums[j], sums[j + 1]))
    s_a, s_b1 = sums[a], sums[b + 1]
    # same operations as the cost terms, so the b == a case cancels exactly
    shift = (b - a) + 1
    rhs_terms = (2.0 * np.log(s_b1) - np.log(s_a[: n - b])
                 - np.log(s_a[shift: shift + n - b]))
    return math.fsum(lhs_terms) - math.fsum(rhs_terms)


@dataclass(frozen=True)
class MinProblem:
    """Objective sum_k lambda_k * log_cost(lengths, k) over n lengths."""

    n: int
    law: object

    def __post_init__(self):
        if getattr(self.law, "steps", None) is None:
            raise TypeError("minimum problems need a piecewise-constant law")
        if self.n < self.max_index + 1:
            raise ValueError(f"need n >= {self.max_index + 1} for this law")

    @property
    def min_index(self) -> int:
        """Smallest threshold with positive weight (domain parameter)."""
        return self.law.steps[0][0]

    @property
    def max_index(self) -> int:
        return self.law.steps[-1][0]

    def objective(self, lengths) -> float:
        return self.value_and_grad(lengths)[0]

    def gradient(self, lengths) -> np.ndarray:
        """Analytic gradient with respect to the lengths."""
        return self.value_and_grad(lengths)[1]

    def value_and_grad(self, lengths) -> tuple:
        """Objective value and its analytic gradient, from one set of window sums."""
        lengths = np.asarray(lengths, dtype=float)
        n, mu = self.n, self.min_index
        if len(lengths) != n:
            raise ValueError(f"expected {n} lengths")
        sums = {j: window_sums(lengths, j) for k, _ in self.law.steps for j in (k, k + 1)}
        # in_domain(lengths, mu), read from the windows of size mu
        if np.any(lengths < 0) or not np.all(sums[mu] > 0):
            raise ValueError(f"tuple outside the domain (zero run of {mu})")
        costs = []
        grad = np.zeros(n)
        for k, w in self.law.steps:
            w = float(w)
            s_k, s_k1 = sums[k], sums[k + 1]
            costs.append(w * math.fsum(_log_terms(s_k, s_k1)))
            # range-add via difference arrays: each window sum S_{i,l}
            # contributes its reciprocal to positions i .. i+l-1; the slice
            # updates keep the order of a loop over the windows i, so every
            # entry sums its contributions in that order
            m = n - k
            r1 = w * (2.0 / s_k1)
            rk = w * (1.0 / s_k)
            diff = np.zeros(n + 1)
            diff[k + 1:k + 1 + m] -= r1
            diff[:m] += r1
            diff[k + 1:k + 1 + m] += rk[1:]
            diff[k:k + m] += rk[:m]
            diff[1:1 + m] -= rk[1:]
            diff[:m] -= rk[:m]
            grad += np.cumsum(diff[:-1])
        return math.fsum(costs), grad


@dataclass
class MinResult:
    value: float
    minimizer: np.ndarray  # normalized to unit sum
    starts: int
    winning_seed: str      # e.g. "period-3", "smooth-start-17"
    traces: list = field(default_factory=list)  # (seed tag, [objective per iteration])

    def to_json(self) -> dict:
        """JSON view; each trace keeps its first 20 iterations."""
        return {
            "value": self.value,
            "minimizer": [float(x) for x in self.minimizer],
            "starts": self.starts,
            "winning_seed": self.winning_seed,
            "traces": [
                {"seed": tag, "objective": [float(v) for v in vals[:20]]}
                for tag, vals in self.traces
            ],
        }


def _normalize(lengths: np.ndarray) -> np.ndarray:
    return lengths / lengths.sum()


def _polish(problem: MinProblem, start: np.ndarray, trace: list) -> tuple:
    """Smooth descent in log coordinates, restricted to the support of start."""
    # imported here so that commands which never polish skip loading scipy
    from scipy.optimize import minimize as scipy_minimize

    support = np.flatnonzero(start > 0)
    base = np.array(start, dtype=float)

    def split(s):
        full = np.zeros(problem.n)
        # clamp so supported entries never underflow to exact zero
        full[support] = np.exp(np.clip(s, -600.0, 600.0))
        return full

    def fun(s):
        full = split(s)
        value, grad = problem.value_and_grad(full)
        return value, grad[support] * full[support]

    # scipy hands its current result to a callback with this parameter name,
    # so the trace reads the value L-BFGS-B already has
    def record(intermediate_result):
        trace.append(intermediate_result.fun)

    s0 = np.log(base[support])
    res = scipy_minimize(
        fun, s0, jac=True, method="L-BFGS-B", callback=record,
        options={"maxiter": 1000, "gtol": 1e-13, "ftol": 1e-16},
    )
    best = split(res.x)
    # res.fun can differ from the cost of res.x; report the cost of the minimizer returned
    return float(problem.objective(best)), _normalize(best)


def _pattern_seeds(problem: MinProblem):
    """Periodic 0/1 seeds of every period up to the largest weighted index + 1."""
    n, mu = problem.n, problem.min_index
    seen = set()
    for period in range(1, problem.max_index + 2):
        for phase in range(period):
            seed = np.array([1.0 if (i - phase) % period == 0 else 0.0
                             for i in range(n)])
            key = tuple(seed)
            if key in seen or not in_domain(seed, mu):
                continue
            seen.add(key)
            yield f"period-{period}" + (f"+{phase}" if phase else ""), seed


def minimize(problem: MinProblem, starts: int = 64, seed: int = 0) -> MinResult:
    """Best objective value found by pattern seeds plus multi-start descent.

    The returned value is an upper bound for the infimum; the certificate is
    the normalized minimizer itself.
    """
    rng = np.random.default_rng(seed)
    best_val = math.inf
    best_arg = None
    best_tag = None
    traces = []
    n_starts = 0

    def consider(tag, val, arg, trace):
        nonlocal best_val, best_arg, best_tag
        traces.append((tag, trace))
        tol = 1e-12 * max(1.0, abs(val))
        if val < best_val - tol:
            best_val, best_arg, best_tag = val, arg, tag
        elif val <= best_val + tol and best_arg is not None:
            # tie: prefer the sparser certificate (exact zeros are informative)
            if np.count_nonzero(arg) < np.count_nonzero(best_arg):
                best_val, best_arg, best_tag = val, arg, tag

    for tag, pattern in _pattern_seeds(problem):
        n_starts += 1
        trace = [problem.objective(pattern)]
        val, arg = _polish(problem, pattern, trace)
        consider(tag, val, arg, trace)

    for s in range(starts):
        n_starts += 1
        start = rng.lognormal(mean=0.0, sigma=1.0, size=problem.n)
        trace = [problem.objective(start)]
        val, arg = _polish(problem, start, trace)
        consider(f"smooth-start-{s}", val, arg, trace)

    return MinResult(
        value=best_val,
        minimizer=best_arg,
        starts=n_starts,
        winning_seed=best_tag,
        traces=traces,
    )
