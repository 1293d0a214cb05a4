"""Batch command-line front-end: reproducible runs with CSV/JSON output.

Exit codes: 0 all checks passed, 1 a mathematical check failed (witness
emitted), 2 configuration error.
"""

from __future__ import annotations

import json
import math
import os
import sys

# before numpy loads (no bvgamma import loads it): by default its OpenBLAS starts a
# worker per extra core, which only spins in these commands; a value the caller set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

__all__ = ["main", "parse_law_spec"]


# ---------------------------------------------------------------------------
# law spec mini-language and option types (click exits 2 on their ValueError)
# ---------------------------------------------------------------------------

def parse_law_spec(spec: str):
    """Parse `phi1`, `phi:k`, `pca:[...]`, `pca2:[...]`, `psi:m`, `theta`,
    `zeta:@file.json`, `phieps:eps`."""
    from .laws import (AffineThetaLaw, DyadicAffineLaw, ModelLaw, PackagedDyadicLaw,
                       PiecewiseConstantLaw, phi_eps)
    spec = spec.strip()
    try:
        if spec == "phi1":
            return ModelLaw(1)
        if spec == "theta":
            return AffineThetaLaw()
        if spec.startswith("phi:"):
            return ModelLaw(int(spec[4:]))
        if spec.startswith("psi:"):
            return PackagedDyadicLaw((1,) * int(spec[4:]))
        if spec.startswith(("pca:", "pca2:")):
            family, _, text = spec.partition(":")
            weights = json.loads(text)
            if not isinstance(weights, list):
                raise ValueError(f"weights must be a JSON list, got {text}")
            return (PiecewiseConstantLaw if family == "pca" else PackagedDyadicLaw)(tuple(weights))
        if spec.startswith("zeta:@"):
            with open(spec[6:]) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("variant", "dyadic_affine") != "dyadic_affine":
                raise ValueError("zeta spec must name a dyadic-affine law")
            return DyadicAffineLaw(tuple((z, float(v)) for z, v in doc["nodes"]))
        if spec.startswith("phieps:"):
            return phi_eps(float(spec[7:]))
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        raise click.BadParameter(f"bad law spec {spec!r}: {exc}")
    raise click.BadParameter(f"unknown law spec {spec!r}")


def int_range(text: str) -> list:
    """`8` or `8,12,16` or `2..16`; an empty or reversed range is an error."""
    text = text.strip()
    if ".." not in text:
        return [int(x) for x in text.split(",")]
    a, b = (int(x) for x in text.split(".."))
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return list(range(a, b + 1))


def delta_sweep(text: str) -> list:
    """`1e-2` or comma list or `1e-1..1e-3` (half-decade log spacing).

    Every delta must be finite and positive.  A range keeps both of its
    endpoints; `a..a` is the single delta a.
    """
    text = text.strip()
    sep = ".." if ".." in text else ","
    deltas = [float(x) for x in text.split(sep)]
    if not all(0 < d < math.inf for d in deltas):
        raise ValueError(f"deltas must be finite and positive, got {text!r}")
    if sep == ",":
        return deltas
    a, b = deltas
    if a == b:
        return [a]
    # numpy.geomspace's points: equal steps between the exponents, endpoints kept exact
    steps = max(1, round(2 * abs(math.log10(a / b))))
    lo, step = math.log10(a), (math.log10(b) - math.log10(a)) / steps
    return [a, *(10.0 ** (lo + i * step) for i in range(1, steps)), b]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _emit(ctx, doc, lines):
    """The one stdout print: ``doc`` as JSON under ``--json``, else the text ``lines``."""
    click.echo(json.dumps(doc, indent=2, default=str) if ctx.obj["json"] else "\n".join(lines))


def _cell(x) -> str:
    """x as a CSV field, quoted as RFC 4180 asks when it holds a comma, quote or newline."""
    s = _fmt(x)
    return '"' + s.replace('"', '""') + '"' if any(c in s for c in ',"\r\n') else s


def _emit_rows(ctx, header, rows):
    _emit(ctx, [dict(zip(header, row)) for row in rows],
          [",".join(header), *(",".join(map(_cell, row)) for row in rows)])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@click.group()
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of CSV.")
@click.pass_context
def main(ctx, as_json):
    """Numerical experiments on non-local total-variation energies."""
    ctx.ensure_object(dict)
    ctx.obj["json"] = as_json


# ---------------------------------------------------------------------------
# law
# ---------------------------------------------------------------------------

@main.command("law")
@click.option("--spec", "spec_text", required=True, help="Law spec (mini-language).")
@click.option("--report", type=click.Choice(["N", "admissible", "all"]),
              default="all", show_default=True)
@click.option("--probe", type=float, multiple=True,
              help="Evaluate the law at these points.")
@click.pass_context
def cmd_law(ctx, spec_text, report, probe):
    """Evaluate a law, its scale factor and its admissibility report."""
    from .laws import check_admissible
    law = parse_law_spec(spec_text)

    if probe:
        if any(math.isnan(t) for t in probe):
            raise click.BadParameter("must be a number, got nan", param_hint="--probe")
        _emit_rows(ctx, ["t", "value"], [(t, law(t)) for t in probe])
        return

    doc, lines = {}, []
    if report in ("N", "all"):
        exact, value = law.scale_factor_exact(), law.scale_factor()
        doc["scale_factor"] = value
        doc["scale_factor_exact"] = None if exact is None else str(exact)
        lines.append(f"N = {_fmt(value)}" if exact is None else f"N = {exact} = {_fmt(value)}")
    if report in ("admissible", "all"):
        adm = check_admissible(law)
        doc["admissible"] = adm.ok
        doc["admissible_detail"] = adm.summary().splitlines()
        lines += doc["admissible_detail"]
    _emit(ctx, doc, lines)
    if not doc.get("admissible", True):
        sys.exit(1)


# ---------------------------------------------------------------------------
# minprob
# ---------------------------------------------------------------------------

def _min_problems(law, ns, n_hint, starts):
    """The minimum problem of ``law`` at each n; one it cannot build, or a negative
    ``starts``, is a bad option."""
    from .minprob import MinProblem
    if starts < 0:
        raise click.BadParameter(f"must be at least 0, got {starts}", param_hint="--starts")
    try:
        return [MinProblem(n=n, law=law) for n in ns]
    except TypeError as exc:
        raise click.BadParameter(str(exc), param_hint="--law")
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=n_hint)


@main.command("minprob")
@click.option("--law", "spec_text", required=True)
@click.option("--n", "ns", required=True, type=int_range, help="Single n, comma list, or a..b.")
@click.option("--starts", type=int, default=64, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--dump-minimizer", is_flag=True)
@click.pass_context
def cmd_minprob(ctx, spec_text, ns, starts, seed, dump_minimizer):
    """Minimize the weighted log-cost objective over length tuples."""
    from .minprob import minimize
    law = parse_law_spec(spec_text)
    problems = _min_problems(law, ns, "--n", starts)

    try:
        results = [minimize(problem, starts=starts, seed=seed) for problem in problems]
    except OverflowError as exc:
        raise click.BadParameter(str(exc), param_hint="--law")
    rows = []
    for n, res in zip(ns, results):
        row = [n, res.value, res.value / n, res.winning_seed]
        if dump_minimizer:
            row.append(json.dumps(res.minimizer))
        rows.append(row)
    header = ["n", "value", "value_per_n", "winning_seed"]
    if dump_minimizer:
        header.append("minimizer")
    _emit_rows(ctx, header, rows)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# suite name -> the module defining its ``suite_<name>``
_SUITES = {"telescope": "minprob", "rearrange": "energy", "domination": "bounds",
           "chain": "energy"}
# a suite passes when its least margin is at least -_TOLERANCE, which absorbs rounding
_TOLERANCE = 1e-10


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(_SUITES)))
@click.option("--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.pass_context
def cmd_verify(ctx, suite, count, seed):
    """Run a randomized inequality suite; exit 1 on a violated margin."""
    if count < 1:
        raise click.BadParameter(f"must be at least 1, got {count}", param_hint="--count")
    from importlib import import_module
    run_suite = getattr(import_module(f".{_SUITES[suite]}", __package__), f"suite_{suite}")
    import random
    worst, witness = run_suite(random.Random(seed), count)
    doc = {"suite": suite, "count": count, "seed": seed, "min_margin": worst}
    ok = worst >= -_TOLERANCE
    if not ok:
        doc["witness"] = witness
    _emit(ctx, doc, [f"suite={suite} count={count} seed={seed} min_margin={_fmt(worst)}"])
    if not ok and not ctx.obj["json"]:
        click.echo(f"witness: {json.dumps(witness, default=str)}", err=True)
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@main.group("bounds")
def cmd_bounds():
    """Shape-factor lower bounds."""


def _emit_reports(ctx, build):
    """Print the reports that ``build()`` returns; a failed certificate exits 1."""
    try:
        reports = build()
    except AssertionError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    _emit(ctx, [r.to_json() for r in reports], [r.table_row() for r in reports])


@cmd_bounds.command("psi")
@click.option("--m", "ms", default="1..12", show_default=True, type=int_range)
@click.pass_context
def bounds_psi(ctx, ms):
    """Bounds for the full-package laws over a range of depths."""
    if min(ms) < 1:
        raise click.BadParameter(f"depths must be at least 1, got {min(ms)}", param_hint="--m")
    from .bounds import psi_bound
    _emit_reports(ctx, lambda: [psi_bound(m) for m in ms])


@cmd_bounds.command("theta")
@click.pass_context
def bounds_theta(ctx):
    """Shape factor of the affine ramp law (exactly one)."""
    from .bounds import theta_bound
    _emit_reports(ctx, lambda: [theta_bound()])


@cmd_bounds.command("zeta")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True),
              help="JSON file with (z, value) node pairs.")
@click.pass_context
def bounds_zeta(ctx, f_path):
    """Shape factor of a dyadic-affine law (exactly one)."""
    from .bounds import zeta_bound
    law = parse_law_spec(f"zeta:@{f_path}")
    _emit_reports(ctx, lambda: [zeta_bound(law)])


@cmd_bounds.command("counterexample")
@click.option("--eps", type=float, default=0.01, show_default=True)
@click.pass_context
def bounds_counterexample(ctx, eps):
    """Data for the short-range counterexample pair."""
    if not 0 < eps <= 1:
        raise click.BadParameter(f"must be in (0, 1], got {eps}", param_hint="--eps")
    from .bounds import counterexample_table
    doc = counterexample_table(eps=eps)
    _emit(ctx, doc, [f"{key}={_fmt(val)}" for key, val in doc.items()])


@cmd_bounds.command("factor")
@click.option("--law", "spec_text", required=True)
@click.option("--n-max", type=int, default=16, show_default=True)
@click.option("--starts", type=int, default=16, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.pass_context
def bounds_factor(ctx, spec_text, n_max, starts, seed):
    """Gamma-liminf coefficient per unit of total variation."""
    from .bounds import gamma_liminf_factor
    law = parse_law_spec(spec_text)
    _min_problems(law, [n_max], "--n-max", starts)  # the largest problem gamma_liminf_factor builds
    try:
        factor, chain = gamma_liminf_factor(law, n_max=n_max, starts=starts, seed=seed)
    except OverflowError as exc:
        raise click.BadParameter(str(exc), param_hint="--law")
    _emit(ctx, {"factor": factor, "chain": [[s, c] for s, c in chain]},
          [f"factor={_fmt(factor)}", *(f"  {s}: {_fmt(c)}" for s, c in chain)])


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _smooth_bump(x):
    import numpy as np
    return np.sin(np.pi * np.asarray(x)) ** 2


def _linear(x):
    import numpy as np
    return np.asarray(x, dtype=float)


_SMOOTH_PROFILES = {
    # (callable on [0,1], exact total variation)
    "bump": (_smooth_bump, 2.0),
    "linear": (_linear, 1.0),
}


@main.group("energy")
def cmd_energy():
    """Non-local energy evaluations and sweeps."""


@cmd_energy.command("pointwise")
@click.option("--law", "spec_text", required=True)
@click.option("--u", "profile", type=click.Choice(sorted(_SMOOTH_PROFILES)),
              default="bump", show_default=True)
@click.option("--deltas", default="1e-1..1e-3", show_default=True, type=delta_sweep)
@click.option("--tol", type=float, default=1e-3, show_default=True)
@click.pass_context
def energy_pointwise(ctx, spec_text, profile, deltas, tol):
    """Sweep the quadrature energy of a smooth profile over delta."""
    if not 0 < tol < math.inf:
        raise click.BadParameter(f"must be finite and positive, got {tol}", param_hint="--tol")
    from .energy import lambda_quad
    law = parse_law_spec(spec_text)
    func, tv = _SMOOTH_PROFILES[profile]
    scale = 2.0 * law.scale_factor() * tv
    rows = []
    for delta in deltas:
        try:
            res = lambda_quad(law, func, (0.0, 1.0), delta, tol=tol)
        except RuntimeError as exc:  # the grid reached its cap before the estimate met tol
            raise click.BadParameter(f"{exc} at delta={delta}", param_hint="--tol")
        rows.append([delta, res.value, res.method, res.error_estimate,
                     res.value / scale])
    _emit_rows(ctx, ["delta", "value", "method", "error_estimate", "ratio"], rows)


@cmd_energy.command("step")
@click.option("--law", "spec_text", required=True)
@click.option("--u", "u_path", required=True, type=click.Path(exists=True),
              help="Step function as JSON or CSV.")
@click.option("--deltas", default="1e-1..1e-3", show_default=True, type=delta_sweep)
@click.pass_context
def energy_step(ctx, spec_text, u_path, deltas):
    """Sweep the exact step-function energy over delta."""
    from .energy import lambda_step
    from .stepfn import StepFunction
    law = parse_law_spec(spec_text)
    try:
        if u_path.endswith(".csv"):
            u = StepFunction.from_csv(u_path)
        else:
            with open(u_path) as fh:
                u = StepFunction.from_json(json.load(fh))
    except (ValueError, KeyError, TypeError) as exc:
        raise click.BadParameter(f"cannot read a step function: {exc}", param_hint="--u")
    rows = []
    for delta in deltas:
        res = lambda_step(law, u, delta)
        rows.append([delta, res.value, res.method, res.error_estimate])
    _emit_rows(ctx, ["delta", "value", "method", "error_estimate"], rows)


@cmd_energy.command("gd")
@click.option("--dmax", type=click.IntRange(min=1), default=4, show_default=True)
@click.pass_context
def energy_gd(ctx, dmax):
    """Table of the geometric constants up to a given dimension."""
    from .energy import geometric_constant
    rows = []
    for d in range(1, dmax + 1):
        res = geometric_constant(d)
        rows.append([d, res.value, res.method, res.error_estimate])
    _emit_rows(ctx, ["d", "value", "method", "error_estimate"], rows)


if __name__ == "__main__":
    main()
