"""Multi-variable minimum problems over tuples of nonnegative step lengths.

The objective is a weighted sum of log-ratio costs built from sums of
consecutive lengths; it is homogeneous of degree zero, and its infimum over
tuples without too many consecutive zeros drives the shape-factor bounds.
"""

from __future__ import annotations

import math
import random

from . import _Frozen, _Record

__all__ = [
    "window_sums",
    "in_domain",
    "log_cost",
    "power_cost",
    "telescopic_margin",
    "random_length_tuple",
    "suite_telescope",
    "MinProblem",
    "MinResult",
    "minimize",
]


def window_sums(lengths, k: int) -> np.ndarray:
    """Sums of k consecutive entries along the last axis: entry i covers [..., i .. i+k-1]."""
    import numpy as np
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"window size {k} out of range for {n} entries")
    # each window adds its entries left to right (onto 0), so a row's sums are bitwise its
    # 1-D sums; cumulative-sum differences would cancel tiny entries against large neighbors
    return sum(lengths[..., j:n - k + 1 + j] for j in range(k))


def in_domain(lengths, k: int) -> bool:
    """True iff no entry is negative and no k consecutive entries are all zero.

    For k < len(lengths) a NaN entry also fails, as every window through it
    sums to NaN; for k >= len(lengths) one positive entry suffices.
    """
    values = [float(x) for x in lengths]
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


def _log_terms(s_k, s_k1) -> np.ndarray:
    # log-difference form: safe for window sums spanning many magnitudes
    import numpy as np
    return 2.0 * np.log(s_k1) - np.log(s_k[..., :-1]) - np.log(s_k[..., 1:])


def log_cost(lengths, k: int) -> float:
    """Sum of log(S_{i,k+1}^2 / (S_{i,k} S_{i+1,k})) over the n-k windows.

    For u = staircase_from_gaps(lengths, delta, tail=T) of length L, delta times it is
    lambda_step(ModelLaw(k), u, delta) - delta log(S_{0,k} / S_{n-k,k})
    - 2 delta log((S_{n-k,k} + T) / L) (acceptance criterion 6 derives it).
    """
    if len(lengths) < k + 1:
        raise ValueError(f"need at least {k + 1} entries")
    if not in_domain(lengths, k):
        raise ValueError(f"tuple has {k} consecutive zeros")
    return math.fsum(_log_terms(window_sums(lengths, k), window_sums(lengths, k + 1)))


def power_cost(lengths, k: int, p: float) -> float:
    """Generalized cost with exponent p > 1; tends to log_cost as p -> 1."""
    if not p > 1:
        raise ValueError("exponent must exceed 1")
    if not in_domain(lengths, k):
        raise ValueError(f"tuple has {k} consecutive zeros")
    s_k = window_sums(lengths, k)
    s_k1 = window_sums(lengths, k + 1)
    q = p - 1.0
    terms = (-2.0 / s_k1 ** q + 1.0 / s_k[:-1] ** q + 1.0 / s_k[1:] ** q) / q
    return math.fsum(terms)


def telescopic_margin(lengths, a: int, b: int) -> float:
    """Slack of the telescopic lower bound: sum of costs minus the collapsed sum.

    Nonnegative for every admissible tuple; exactly zero when b == a.  Runs in
    Python: each window sum is an fsum of its slice.
    """
    n = len(lengths)
    if not 1 <= a <= b <= n - 1:
        raise ValueError("need 1 <= a <= b <= n-1")
    if not in_domain(lengths, a):
        raise ValueError(f"tuple has {a} consecutive zeros")
    lengths = [float(x) for x in lengths]
    logs = {j: [math.log(math.fsum(lengths[i:i + j])) for i in range(n - j + 1)]
            for j in range(a, b + 2)}

    def terms(j, k, shift):
        # 2 log S_{i,k} - log S_{i,j} - log S_{i+shift,j}: the cost terms at shift 1
        return [2.0 * top - logs[j][i] - logs[j][i + shift] for i, top in enumerate(logs[k])]

    lhs = [t for j in range(a, b + 1) for t in terms(j, j + 1, 1)]
    # same operations as the cost terms, so the b == a case cancels exactly
    return math.fsum(lhs) - math.fsum(terms(a, b + 1, b - a + 1))


def random_length_tuple(rng, n: int, a: int) -> list:
    """n lognormal lengths, each zeroed with probability 0.3, conditioned on in_domain(., a).

    The lengths are positive, so the zero mask alone decides: no run of
    min(a, n) zeros.  It is drawn exactly, without redraws: with back[i][r] the
    probability that entries i..n-1 keep every run below a after a run of r,
    entry i is zero iff its uniform is below 0.3 * back[i+1][r+1] / back[i][r].
    ``rng`` is a ``random.Random``; the draws are n ``rng.lognormvariate(0, 1)``,
    then n ``rng.random()``.
    """
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    a = min(a, n)
    back = [[1.0] * a for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        nxt = back[i + 1]
        back[i] = [0.7 * nxt[0] + (0.3 * nxt[r + 1] if r + 1 < a else 0.0) for r in range(a)]
    vals = [rng.lognormvariate(0.0, 1.0) for _ in range(n)]
    run = 0
    for i, u in enumerate([rng.random() for _ in range(n)]):
        if run + 1 < a and u < 0.3 * back[i + 1][run + 1] / back[i][run]:
            vals[i] = 0.0
            run += 1
        else:
            run = 0
    return vals


def suite_telescope(rng, count: int) -> tuple:
    """Least telescopic margin over ``count`` random tuples, with its witness.

    A b == a draw whose margin is not exactly zero ends the suite at once.
    """
    worst, witness = math.inf, None
    for _ in range(count):
        n = rng.randrange(4, 25)
        a = rng.randrange(1, min(4, n - 1) + 1)
        lengths = random_length_tuple(rng, n, a)
        b = rng.randrange(a, n)
        margin = telescopic_margin(lengths, a, b)
        if b == a and margin != 0.0:
            return margin, {"lengths": lengths, "a": a, "b": b,
                            "reason": "b=a margin not exactly zero"}
        if margin < worst:
            worst = margin
            witness = {"lengths": lengths, "a": a, "b": b}
    return worst, witness


class MinProblem(_Frozen):
    """Objective sum_k lambda_k * log_cost(lengths, k) over n lengths."""

    _fields = ("n", "law")

    def __init__(self, n: int, law):
        if getattr(law, "steps", None) is None:
            raise TypeError("minimum problems need a piecewise-constant law")
        self.__dict__.update(n=n, law=law)
        if n < self.max_index + 1:
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
        """Objective value and its analytic gradient: ``_rows`` on one row."""
        import numpy as np
        values, grads = self._rows(np.asarray(lengths, dtype=float)[None])
        return float(values[0]), grads[0]

    def _rows(self, lengths: np.ndarray) -> tuple:
        """Objective values and gradients of the rows of a (B, n) stack.

        Every reduction runs along a row, so each row's results are bitwise
        those of the row alone.
        """
        import numpy as np
        n, mu = self.n, self.min_index
        if lengths.shape[-1] != n:
            raise ValueError(f"expected {n} lengths")
        sizes = sorted({j for k, _ in self.law.steps for j in (k, k + 1)})
        sums = {j: window_sums(lengths, j) for j in sizes}
        # in_domain(row, mu) for every row, read from the windows of size mu
        if np.any(lengths < 0) or not np.all(sums[mu] > 0):
            raise ValueError(f"tuple outside the domain (zero run of {mu})")
        logs = {j: np.log(s) for j, s in sums.items()}
        costs = []
        grad = np.zeros(lengths.shape)
        for k, w in self.law.steps:
            w = float(w)
            terms = 2.0 * logs[k + 1] - logs[k][:, :-1] - logs[k][:, 1:]  # as _log_terms
            costs.append([w * math.fsum(t) for t in terms.tolist()])
            # range-add via difference arrays: each window sum S_{i,l}
            # contributes its reciprocal to positions i .. i+l-1; the slice
            # updates keep the order of a loop over the windows i, so every
            # entry sums its contributions in that order
            m = n - k
            r1 = w * (2.0 / sums[k + 1])
            rk = w * (1.0 / sums[k])
            diff = np.zeros((len(lengths), n + 1))
            diff[:, k + 1:k + 1 + m] -= r1
            diff[:, :m] += r1
            diff[:, k + 1:k + 1 + m] += rk[:, 1:]
            diff[:, k:k + m] += rk[:, :m]
            diff[:, 1:1 + m] -= rk[:, 1:]
            diff[:, :m] -= rk[:, :m]
            grad += np.cumsum(diff[:, :-1], axis=1)
        return np.array([math.fsum(c) for c in zip(*costs)]), grad


class MinResult(_Record):
    _fields = ("value", "minimizer", "starts", "winning_seed", "traces", "certified")

    def __init__(self, value: float, minimizer: tuple, starts: int, winning_seed: str,
                 traces: list | None = None, certified: str | None = None):
        # value: objective of the unit-sum minimizer (the closed form if certified);
        # winning_seed: e.g. "period-3", "smooth-start-17"; traces: (seed tag, [objective
        # per iteration]); certified: the lower bound the value attains, if exact
        self.__dict__.update(value=value, minimizer=minimizer, starts=starts,
                             winning_seed=winning_seed, certified=certified,
                             traces=[] if traces is None else traces)

    def to_json(self) -> dict:
        """JSON view; each trace keeps its first 20 iterations."""
        return {
            "value": self.value,
            "minimizer": list(self.minimizer),
            "starts": self.starts,
            "winning_seed": self.winning_seed,
            "certified": self.certified,
            "traces": [
                {"seed": tag, "objective": [float(v) for v in vals[:20]]}
                for tag, vals in self.traces
            ],
        }


def _polish(problem: MinProblem, starts: np.ndarray) -> tuple:
    """One L-BFGS descent in log coordinates for all rows of ``starts``, each on its support.

    The rows descend together, but each runs as if alone: every reduction is
    row-wise, so a row's trace and minimizer are bitwise what polishing it
    alone gives, and entries off its support stay exactly 0.  Per row, the
    two-loop recursion keeps the last 10 pairs with s.y > 0 (an empty slot has
    s = y = 0 and rho = 0, a no-op); a backtracking Armijo search, which
    re-evaluates only the rows that reject their step, tries first a step that
    moves no coordinate by more than 50.  A row stops at max|gradient| <= 1e-13,
    at a relative decrease <= 1e-16 (the ``ftol`` test of L-BFGS-B), once a log
    coordinate reaches +-300 (its entries then span less than e^700, so none on its
    support underflows to 0 in the unit-sum minimizer), once its slope g.d is not finite
    (huge weights: its Armijo test could then never pass), or after 1000 iterations.
    Returns each row's value and unit-sum minimizer, and its trace: the start's
    value, then the value after each iteration.
    """
    import numpy as np
    support = np.asarray(starts) > 0

    def fun(x, on):
        full = np.where(on, np.exp(x), 0.0)
        values, grads = problem._rows(full)
        return values, np.where(on, grads * full, 0.0)

    def dot(a, b):
        return (a * b).sum(axis=-1)

    rows, on, live = np.arange(len(support)), support, np.ones(len(support), bool)
    x = out = np.log(np.where(on, starts, 1.0))
    f, g = fun(x, on)
    traces = [[v] for v in f.tolist()]
    S, Y = np.zeros((2, len(on), 10, problem.n))  # pair slots, oldest first
    R = np.zeros((len(on), 10))                    # 1 / s.y, 0 in an empty slot
    for _ in range(1000):
        keep = live & ~(np.max(np.abs(g), axis=1) <= 1e-13) & (np.max(np.abs(x), axis=1) < 300)
        rows, x, f, g, on, S, Y, R = (a[keep] for a in (rows, x, f, g, on, S, Y, R))
        if not len(rows):
            break
        d, alphas, used = -g, [], range(10 - np.count_nonzero(R.any(axis=0)), 10)
        for j in reversed(used):
            alphas.append(R[:, j] * dot(S[:, j], d))
            d = d - alphas[-1][:, None] * Y[:, j]
        d = d / np.where(R[:, 9] > 0, R[:, 9] * dot(Y[:, 9], Y[:, 9]), 1.0)[:, None]
        for j, a in zip(used, reversed(alphas)):
            d = d + (a - R[:, j] * dot(Y[:, j], d))[:, None] * S[:, j]
        t, gd = np.minimum(1.0, 50.0 / np.max(np.abs(d), axis=1)), dot(g, d)
        ok = np.isfinite(gd)
        if not ok.all():
            rows, x, f, g, on, S, Y, R, d, t, gd = (a[ok] for a in (rows, x, f, g, on, S, Y, R,
                                                                     d, t, gd))
        f_new, g_new = fun(x + t[:, None] * d, on)
        # t = 0 passes, so this ends; a step of no decrease then stops the row
        bad = ~(f_new <= f + 1e-4 * t * gd)
        while bad.any():
            t[bad] *= 0.5
            f_new[bad], g_new[bad] = fun(x[bad] + t[bad, None] * d[bad], on[bad])
            bad[bad] = ~(f_new[bad] <= f[bad] + 1e-4 * t[bad] * gd[bad])
        s, y = t[:, None] * d, g_new - g
        sy = dot(s, y)
        new = sy > 0
        for slots, v in ((S, s), (Y, y), (R, 1.0 / np.where(new, sy, 1.0))):
            slots[new, :-1] = slots[new, 1:]
            slots[new, -1] = v[new]
        live = ~((f - f_new) / np.maximum(np.maximum(np.abs(f), np.abs(f_new)), 1.0) <= 1e-16)
        x, f, g = x + s, f_new, g_new
        out[rows] = x
        for r, v in zip(rows.tolist(), f.tolist()):
            traces[r].append(v)
    best = np.where(support, np.exp(out), 0.0)
    best /= best.sum(axis=1, keepdims=True)
    return problem._rows(best)[0].tolist(), best, traces


def _pattern_seeds(problem: MinProblem):
    """Periodic 0/1 seeds, as lists, of every period up to the largest weighted index + 1."""
    n, mu = problem.n, problem.min_index
    seen = set()
    for period in range(1, problem.max_index + 2):
        for phase in range(period):
            seed = [1.0 if (i - phase) % period == 0 else 0.0 for i in range(n)]
            key = tuple(seed)
            if key in seen or not in_domain(seed, mu):
                continue
            seen.add(key)
            yield f"period-{period}" + (f"+{phase}" if phase else ""), seed


def _certified_minimum(problem: MinProblem):
    """(minimum, attaining 0/1 pattern as a list) of a one-step law w*phi_k, else None.

    For n = m*k + r with 0 <= r < k the minimum is w*(m - 1)*log 4.  Write
    S_{i,j} = l_i + ... + l_{i+j-1}.  Merge lemma: for overlapping windows A
    and B with a = S(A-B), b = S(B-A) and c = S(A&B),
    S(A)*S(B) - S(A|B)*S(A&B) = (a + c)(c + b) - (a + b + c)*c = ab >= 0.
    Merging the (k+1)-windows i = s..t one at a time into their growing union,
    each merge meets it in the k-window i, so prod_{s<=i<=t} S_{i,k+1} >=
    S_{s,t-s+k+1} * prod_{s<i<=t} S_{i,k}; for s = 0, t = k-1 this is the block
    identity prod_{r<k} S_{r,k+1} >= S_{0,2k} * prod_{1<=r<k} S_{r,k}.  So the
    terms s..t of log_cost(l, k) add up to at least
    2 log S_{s,t-s+k+1} - log S_{s,k} - log S_{t+1,k}.  Split the n - k terms
    into m - 2 groups of k and a last group of k + r (for m = 1, one group of
    r), and bound the last group's unmatched window S_{n-k,k} by the last
    block: with C the m block sums of k entries, the last of k + r entries,
    log_cost(l, k) >= log_cost(C, 1) >= (m - 1)*log 4 by AM-GM (0 for m = 1).
    The period-k pattern with ones at i = r (mod k) attains it: its m ones put
    one in every k-window and two in exactly m - 1 of the (k+1)-windows.
    """
    (k, w), *rest = problem.law.steps
    if rest:
        return None
    pattern = [1.0 if i % k == problem.n % k else 0.0 for i in range(problem.n)]
    return float(w) * (problem.n // k - 1) * math.log(4.0), pattern


def minimize(problem: MinProblem, starts: int = 64, seed: int = 0) -> MinResult:
    """Least objective value over pattern seeds and multi-start descent.

    A law with a certified minimum (``_certified_minimum``) returns its
    attaining pattern at once, unpolished and without numpy, with the closed
    form as the value.  Otherwise every pattern seed and ``starts`` smooth starts,
    each n ``lognormvariate(0, 1)`` draws of ``random.Random(seed)``, are the rows
    of one batched ``_polish``, a numpy L-BFGS whose rows run as if alone, and the
    value is an upper bound for the infimum.
    """
    if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in (starts, seed)):
        raise ValueError(f"starts and seed must be nonnegative integers, got {starts!r}, {seed!r}")
    certificate = _certified_minimum(problem)
    if certificate is not None:
        value, pattern = certificate
        ones, phase = divmod(problem.n, problem.min_index)
        tag = f"period-{problem.min_index}" + (f"+{phase}" if phase else "")
        return MinResult(value, tuple(x / ones for x in pattern), 1, tag, [(tag, [value])],
                         certified="block-sum AM-GM bound")

    import numpy as np
    tags, seeds = map(list, zip(*_pattern_seeds(problem)))
    tags += [f"smooth-start-{s}" for s in range(starts)]
    draw = random.Random(seed).lognormvariate
    stack = np.array(seeds + [[draw(0.0, 1.0) for _ in range(problem.n)] for _ in range(starts)])
    with np.errstate(over="ignore"):  # _polish stops a row whose slope overflows
        values, args, traces = _polish(problem, stack)
    best_val, best_arg, best_tag, best_start = math.inf, None, None, None
    for tag, val, arg, start in zip(tags, values, args, stack):
        tol = 1e-12 * max(1.0, abs(val))
        # a tie goes to the sparser start: its zeros are exact, while a polished
        # entry that tends to zero stays positive
        if val < best_val - tol or (val <= best_val + tol and best_arg is not None
                                    and np.count_nonzero(start) < np.count_nonzero(best_start)):
            best_val, best_arg, best_tag, best_start = val, arg, tag, start
    return MinResult(best_val, tuple(best_arg.tolist()), len(tags), best_tag,
                     list(zip(tags, traces)))
