"""The benchmark's four workloads: CLI commands, the inputs made from the seed,
and the check of every output row against ``reference``.

A workload is a list of ``Op``; one round runs every op once, in order.  An
operation, in the benchmark's count, is one command exit or one checked
output row.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

# The lattice unit of the staircase values: level i sits at i / 20.
STAIR_UNIT = Fraction(1, 20)
STAIR_PIECES = 300

# Rows that fail because of a known fault in the program.  They are counted
# in `failed` but do not make the run incorrect.
#   energy.lambda_quad leaves the outer trapezoid over the shift grid out of
#   its error estimate; for a step law on the linear profile the inner
#   integral jumps at s = k delta, so phi1/linear/delta=0.1 returns 1.336366
#   against 2 (1 - delta + delta log delta) = 1.339483 (relative error 2.3e-3,
#   above tol = 1e-3) while reporting an estimate of 8.2e-4.
KNOWN_FAULTS = frozenset({"pointwise phi1 linear delta=0.1"})


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple                      # CLI arguments after `bvgamma --json`
    check: Callable[[object], list]  # parsed JSON output -> [(row label, ok)]


def evaluate(op: Op, exit_code: int, stdout: str) -> list:
    """[(operation label, ok)] for one command run: its exit, then its rows."""
    outcome = [(f"{op.label} exit", exit_code == 0)]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return outcome + [(f"{op.label} output", False)]
    try:
        return outcome + op.check(doc)
    except (KeyError, IndexError, TypeError, ValueError):
        return outcome + [(f"{op.label} output", False)]


def _close(a, b, rel, floor=0.0) -> bool:
    return abs(a - b) <= rel * max(abs(b), floor)


def _rows(doc, labels):
    """Pair output rows with labels; a missing or extra row is a failed row."""
    if len(doc) != len(labels):
        raise ValueError("row count")
    return zip(labels, doc)


# ---------------------------------------------------------------------------
# minprob
# ---------------------------------------------------------------------------

def _check_minprob(spec, ns):
    weights = ref.law_weights(spec)

    def check(doc):
        out = []
        for (label, n), row in _rows(doc, [(f"minprob {spec} n={n}", n) for n in ns]):
            lower, upper = ref.minimum_bounds(spec, n)
            value = row["value"]
            tol = 1e-9 * max(1.0, abs(value))
            x = json.loads(row["minimizer"])
            ok = (row["n"] == n
                  and lower - tol <= value <= upper + tol
                  and _close(row["value_per_n"], value / n, 1e-15)
                  and len(x) == n and min(x) >= 0.0
                  and abs(math.fsum(x) - 1.0) <= 1e-12
                  and abs(ref.log_cost(x, weights) - value) <= tol)
            out.append((label, ok))
        return out
    return check


def _check_factor(spec, ns):
    m = len(ref.law_weights(spec))
    analytic = ref.LOG2 * math.fsum(ref.package_weights(spec))
    bounds = [ref.minimum_bounds(spec, n) for n in ns]
    lo = min(0.5 * b[0] / (n - m) for n, b in zip(ns, bounds))
    hi = min(0.5 * b[1] / (n - m) for n, b in zip(ns, bounds))

    def check(doc):
        chain = dict(doc["chain"])
        emp = chain["empirical-minimum-proxy"]
        ok = (_close(chain["package-telescopic-bound"], analytic, 1e-15)
              and lo - 1e-9 <= emp <= hi + 1e-9
              and doc["factor"] == max(chain.values()))
        return [(f"bounds factor {spec}", ok)]
    return check


def minprob(seed: int, inputs: Path) -> list:
    common = ("--starts", "16", "--seed", str(seed), "--dump-minimizer")
    sweeps = (("phi1", (8, 12, 16)), ("phi:3", (9, 12, 15)), ("psi:2", (8, 12, 16)))
    ops = [Op(f"minprob {spec}",
              ("minprob", "--law", spec, "--n", ",".join(map(str, ns)), *common),
              _check_minprob(spec, ns))
           for spec, ns in sweeps]
    ops.append(Op("bounds factor psi:2",
                  ("bounds", "factor", "--law", "psi:2", "--seed", str(seed)),
                  _check_factor("psi:2", (8, 12, 16))))
    return ops


# ---------------------------------------------------------------------------
# verify: the four suites and the README's quick queries
# ---------------------------------------------------------------------------

def _check_law_psi(doc):
    h = ref.harmonic(3)
    ok = (doc["scale_factor_exact"] == str(h)
          and _close(doc["scale_factor"], float(h), 1e-15)
          and doc["admissible"] is True)
    return [("law psi:2", ok)]


def _check_law_phieps(doc):
    # the tabulation of the closed-form law moves its scale factor by < 1e-6
    ok = (doc["scale_factor_exact"] is None
          and abs(doc["scale_factor"] - ref.PHI_EPS_SCALE_FACTOR) <= 1e-6
          and doc["admissible"] is True)
    return [("law phieps:0.01", ok)]


def _check_bounds_psi(doc):
    out = []
    for (label, m), rep in _rows(doc, [(f"bounds psi m={m}", m) for m in range(1, 13)]):
        h, k = ref.psi_bound(m)
        ok = (rep["law"] == f"psi:{m}"
              and rep["scale_factor_exact"] == str(h)
              and _close(rep["scale_factor"], float(h), 1e-15)
              and _close(rep["k_lower"], k, 1e-14))
        out.append((label, ok))
    return out


def _check_bounds_theta(doc):
    (rep,) = doc
    chain = dict(rep["chain"])
    ok = (rep["k_lower"] == 1.0
          and _close(rep["scale_factor"], ref.LOG2, 1e-15)
          and all(_close(chain[name], c, 1e-15) for name, c in ref.theta_chain()))
    return [("bounds theta", ok)]


def _check_bounds_zeta(nodes):
    series = ref.zeta_scale_factor_series(nodes)
    quad = ref.zeta_scale_factor_quad(nodes)

    def check(doc):
        (rep,) = doc
        chain = dict(rep["chain"])
        ok = (rep["k_lower"] == 1.0
              and _close(series, quad, 1e-12)
              and _close(rep["scale_factor"], series, 1e-13)
              and _close(chain["scale-factor-quadrature"], quad, 1e-8))
        return [("bounds zeta", ok)]
    return check


def _check_counterexample(doc):
    eps = doc["eps"]
    c2 = 1 / ref.harmonic(3)
    psi2 = ref.law_weights("psi:2")
    psi_k = float(Fraction(12, 11)) * ref.LOG2
    dominated = all(
        ref.phi_eps_value(eps, t) > float(c2) * float(sum(psi2[:max(0, math.ceil(t) - 1)]))
        for t in (0.01 + i * 0.99 / 99 for i in range(100)))
    ok = (doc["c2_exact"] == str(c2)
          and _close(doc["psi_k_lower"], psi_k, 1e-15)
          and abs(doc["phi_eps_scale_factor"] - ref.PHI_EPS_SCALE_FACTOR) <= 1e-6
          and doc["strict_domination_on_unit_interval"] is dominated
          and _close(doc["gap"], psi_k - ref.LOG2, 1e-14))
    return [("bounds counterexample", ok)]


def _check_suite(name, count):
    def check(doc):
        ok = (doc["suite"] == name and doc["count"] == count
              and doc["min_margin"] >= -1e-10)
        return [(f"verify {name}", ok)]
    return check


def zeta_nodes(seed: int) -> list:
    """Four nodes on indices -3..4 (gaps likely), nondecreasing positive values."""
    rng = random.Random(f"zeta-{seed}")
    zs = sorted(rng.sample(range(-3, 5), 4))
    values, v = [], 0.0
    for _ in zs:
        v = round(v + rng.uniform(0.1, 1.0), 6)
        values.append(v)
    return [(z, v) for z, v in zip(zs, values)]


def verify(seed: int, inputs: Path) -> list:
    nodes = zeta_nodes(seed)
    nodes_path = inputs / f"zeta-{seed}.json"
    nodes_path.write_text(json.dumps({"nodes": [[z, v] for z, v in nodes]}))
    count = 200
    ops = [Op(f"verify {name}",
              ("verify", name, "--count", str(count), "--seed", str(seed)),
              _check_suite(name, count))
           for name in ("telescope", "rearrange", "chain", "domination")]
    return ops + [
        Op("law psi:2", ("law", "--spec", "psi:2"), _check_law_psi),
        Op("law phieps:0.01", ("law", "--spec", "phieps:0.01"), _check_law_phieps),
        Op("bounds psi", ("bounds", "psi", "--m", "1..12"), _check_bounds_psi),
        Op("bounds theta", ("bounds", "theta"), _check_bounds_theta),
        Op("bounds zeta", ("bounds", "zeta", "--f", str(nodes_path)),
           _check_bounds_zeta(nodes)),
        Op("bounds counterexample", ("bounds", "counterexample"), _check_counterexample),
    ]


# ---------------------------------------------------------------------------
# staircase: exact step energies of ~300-piece monotone lattice staircases
# ---------------------------------------------------------------------------

def staircase(seed: int, tag: str) -> tuple:
    """(breakpoints, integer levels): piece lengths in [0.2, 2], rises of 1..4 units.

    A rise of at most 4 units (0.2) keeps every adjacent pair below the
    smallest active threshold of each law at the deltas used, so every energy
    is finite.
    """
    rng = random.Random(f"staircase-{tag}-{seed}")
    xs, levels, level = [0.0], [], 0
    for _ in range(STAIR_PIECES):
        xs.append(xs[-1] + rng.uniform(0.2, 2.0))
        levels.append(level)
        level += rng.randint(1, 4)
    return xs, levels


def _check_step(spec, deltas, xs, levels):
    weights = ref.law_weights(spec)
    expected = [ref.step_energy(xs, levels, STAIR_UNIT, weights, Fraction(d))
                for d in deltas]

    def check(doc):
        out = []
        for (label, want), row in _rows(
                doc, [(f"staircase {spec} delta={d}", e) for d, e in zip(deltas, expected)]):
            ok = (row["method"] == "exact" and row["error_estimate"] == 0.0
                  and math.isfinite(want) and _close(row["value"], want, 1e-9))
            out.append((label, ok))
        return out
    return check


def staircases(seed: int, inputs: Path) -> list:
    ops = []
    for spec, deltas in (("phi:3", ("0.5", "0.25", "0.2")),
                         ("pca:[0,0,1,0.5,0.25]", ("0.5", "0.25", "0.2")),
                         ("psi:3", ("0.5",))):
        xs, levels = staircase(seed, spec)
        path = inputs / f"staircase-{spec.split(':')[0]}-{seed}.json"
        values = [float(k * STAIR_UNIT) for k in levels]
        path.write_text(json.dumps({"breakpoints": xs, "values": values}))
        ops.append(Op(f"energy step {spec}",
                      ("energy", "step", "--law", spec, "--u", str(path),
                       "--deltas", ",".join(deltas)),
                      _check_step(spec, deltas, xs, levels)))
    return ops


# ---------------------------------------------------------------------------
# pointwise: grid quadrature on smooth profiles
# ---------------------------------------------------------------------------

def _check_pointwise(spec, profile, deltas, tol):
    scale = 2.0 * ref.scale_factor(spec) * ref.total_variation(profile)

    def check(doc):
        out = []
        for (label, delta), row in _rows(
                doc, [(f"pointwise {spec} {profile} delta={d:.3g}", d) for d in deltas]):
            value = row["value"]
            want = ref.smooth_energy(spec, profile, row["delta"])
            ok = (_close(row["delta"], delta, 1e-12)
                  and row["method"] == "quadrature"
                  and row["error_estimate"] <= tol * max(1.0, abs(value))
                  and _close(row["ratio"], value / scale, 1e-12)
                  and _close(value, want, tol, floor=1.0))
            out.append((label, ok))
        return out
    return check


def _half_decades(hi_exp: int, lo_exp: int) -> list:
    """The CLI's `1e-a..1e-b` sweep: half-decade steps."""
    return [10.0 ** (-hi_exp - i / 2) for i in range(2 * (lo_exp - hi_exp) + 1)]


def pointwise(seed: int, inputs: Path) -> list:
    tol = 1e-3
    sweeps = (("phi1", "bump", "1e-1..1e-2", _half_decades(1, 2)),
              ("theta", "bump", "1e-1..1e-3", _half_decades(1, 3)),
              ("theta", "linear", "1e-1..1e-3", _half_decades(1, 3)),
              ("phi1", "linear", "1e-1", [0.1]))
    return [Op(f"energy pointwise {spec} {profile}",
               ("energy", "pointwise", "--law", spec, "--u", profile,
                "--deltas", text, "--tol", str(tol)),
               _check_pointwise(spec, profile, deltas, tol))
            for spec, profile, text, deltas in sweeps]


WORKLOADS = {
    "minprob": minprob,
    "verify": verify,
    "staircase": staircases,
    "pointwise": pointwise,
}
