"""Batch command-line front-end: reproducible runs with CSV/JSON output.

Exit codes: 0 all checks passed, 1 a mathematical check failed (witness
emitted), 2 configuration error.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import bounds as bounds_mod
from . import energy as energy_mod
from . import minprob as minprob_mod
from .laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    check_admissible,
    law_from_json,
    phi_eps,
)
from .stepfn import (
    StepFunction,
    rearrange,
    segment,
    truncate,
)

# scipy loads its own OpenBLAS on first use; keep its idle threads from spinning
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__all__ = ["main", "parse_law_spec"]


# ---------------------------------------------------------------------------
# law spec mini-language
# ---------------------------------------------------------------------------

def parse_law_spec(spec: str):
    """Parse `phi1`, `phi:k`, `pca:[...]`, `pca2:[...]`, `psi:m`, `theta`,
    `zeta:@file.json`, `phieps:eps`."""
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
        if spec.startswith("pca:"):
            return PiecewiseConstantLaw(tuple(json.loads(spec[4:])))
        if spec.startswith("pca2:"):
            return PackagedDyadicLaw(tuple(json.loads(spec[5:])))
        if spec.startswith("zeta:@"):
            with open(spec[6:]) as fh:
                doc = json.load(fh)
            if "variant" in doc:
                law = law_from_json(doc)
                if not isinstance(law, DyadicAffineLaw):
                    raise ValueError("zeta spec must name a dyadic-affine law")
                return law
            return DyadicAffineLaw(tuple((int(z), float(v)) for z, v in doc["nodes"]))
        if spec.startswith("phieps:"):
            return phi_eps(float(spec[7:]))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        raise click.BadParameter(f"bad law spec {spec!r}: {exc}")
    raise click.BadParameter(f"unknown law spec {spec!r}")


def _parse_int_range(text: str) -> list:
    """`8` or `8,12,16` or `2..16`."""
    text = text.strip()
    if ".." in text:
        a, b = text.split("..")
        return list(range(int(a), int(b) + 1))
    return [int(x) for x in text.split(",")]


def _parse_delta_sweep(text: str) -> list:
    """`1e-2` or comma list or `1e-1..1e-3` (half-decade log spacing)."""
    text = text.strip()
    if ".." in text:
        a, b = (float(x) for x in text.split(".."))
        steps = max(1, round(2 * abs(math.log10(a / b))))
        return [float(x) for x in np.geomspace(a, b, steps + 1)]
    return [float(x) for x in text.split(",")]


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return format(x, ".17g")
    return str(x)


def _emit_rows(header, rows, as_json):
    if as_json:
        docs = [dict(zip(header, row)) for row in rows]
        click.echo(json.dumps(docs, indent=2))
    else:
        click.echo(",".join(header))
        for row in rows:
            click.echo(",".join(_fmt(x) for x in row))


def _cfg(ctx, key, value, default=None):
    if value is not None:
        return value
    return ctx.obj["config"].get(key, default)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              help="JSON config file; flags override its values.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of CSV.")
@click.pass_context
def main(ctx, config_path, as_json):
    """Numerical experiments on non-local total-variation energies."""
    ctx.ensure_object(dict)
    cfg = {}
    if config_path:
        try:
            with open(config_path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise click.UsageError(f"cannot read config: {exc}")
    ctx.obj["config"] = cfg
    ctx.obj["json"] = as_json or bool(cfg.get("json", False))


# ---------------------------------------------------------------------------
# law
# ---------------------------------------------------------------------------

@main.command("law")
@click.option("--spec", "spec_text", help="Law spec (mini-language).")
@click.option("--report", type=click.Choice(["N", "admissible", "all"]),
              default="all", show_default=True)
@click.option("--probe", type=float, multiple=True,
              help="Evaluate the law at these points.")
@click.pass_context
def cmd_law(ctx, spec_text, report, probe):
    """Evaluate a law, its scale factor and its admissibility report."""
    spec_text = _cfg(ctx, "spec", spec_text)
    if not spec_text:
        raise click.UsageError("missing --spec")
    law = parse_law_spec(spec_text)
    as_json = ctx.obj["json"]

    if probe:
        rows = [(float(t), float(law(t))) for t in probe]
        _emit_rows(["t", "value"], rows, as_json)
        return

    doc = {}
    if report in ("N", "all"):
        exact = law.scale_factor_exact()
        doc["scale_factor"] = law.scale_factor()
        doc["scale_factor_exact"] = None if exact is None else str(exact)
    if report in ("admissible", "all"):
        adm = check_admissible(law)
        doc["admissible"] = adm.ok
        doc["admissible_detail"] = adm.summary().splitlines()

    if as_json:
        click.echo(json.dumps(doc, indent=2))
    else:
        if "scale_factor" in doc:
            if doc["scale_factor_exact"] is not None:
                click.echo(f"N = {doc['scale_factor_exact']} = {_fmt(doc['scale_factor'])}")
            else:
                click.echo(f"N = {_fmt(doc['scale_factor'])}")
        if "admissible" in doc:
            for line in doc["admissible_detail"]:
                click.echo(line)
    if "admissible" in doc and not doc["admissible"]:
        sys.exit(1)


# ---------------------------------------------------------------------------
# minprob
# ---------------------------------------------------------------------------

@main.command("minprob")
@click.option("--law", "spec_text", required=True)
@click.option("--n", "n_text", required=True, help="Single n, comma list, or a..b.")
@click.option("--starts", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--dump-minimizer", is_flag=True)
@click.pass_context
def cmd_minprob(ctx, spec_text, n_text, starts, seed, dump_minimizer):
    """Minimize the weighted log-cost objective over length tuples."""
    law = parse_law_spec(spec_text)
    ns = _parse_int_range(n_text)
    starts = int(_cfg(ctx, "starts", starts, 64))
    seed = int(_cfg(ctx, "seed", seed, 0))

    results = [minprob_mod.minimize(minprob_mod.MinProblem(n=n, law=law),
                                    starts=starts, seed=seed) for n in ns]
    rows = []
    for n, res in zip(ns, results):
        row = [n, res.value, res.value / n, res.winning_seed]
        if dump_minimizer:
            row.append(json.dumps([float(x) for x in res.minimizer]))
        rows.append(row)
    header = ["n", "value", "value_per_n", "winning_seed"]
    if dump_minimizer:
        header.append("minimizer")
    _emit_rows(header, rows, ctx.obj["json"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def random_length_tuple(rng, n):
    """n lognormal lengths, each zeroed with probability 0.3."""
    vals = rng.lognormal(0.0, 1.0, size=n)
    mask = rng.random(n) < 0.3
    vals[mask] = 0.0
    return vals


def random_arrangement(rng):
    """Step function on [0, 10] with 2..20 pieces at integer levels 0..6."""
    n = int(rng.integers(2, 21))
    bp = np.sort(rng.uniform(0.0, 10.0, size=n + 1))
    while np.any(np.diff(bp) < 1e-6):
        bp = np.sort(rng.uniform(0.0, 10.0, size=n + 1))
    vals = rng.integers(0, 7, size=n)
    return StepFunction(tuple(bp), tuple(float(v) for v in vals))


def random_step_function(rng):
    """Step function on [0, 10] with 2..10 pieces valued in [-3, 3]."""
    n = int(rng.integers(2, 11))
    bp = np.sort(rng.uniform(0.0, 10.0, size=n + 1))
    while np.any(np.diff(bp) < 1e-6):
        bp = np.sort(rng.uniform(0.0, 10.0, size=n + 1))
    vals = rng.uniform(-3.0, 3.0, size=n)
    return StepFunction(tuple(bp), tuple(vals))


def _finite_margin(bigger: float, smaller: float) -> float:
    """Chain margin with the divergence convention inf - inf = 0."""
    if math.isinf(bigger) and math.isinf(smaller):
        return 0.0
    if math.isinf(bigger):
        return math.inf
    if math.isinf(smaller):
        return -math.inf
    return bigger - smaller


def suite_telescope(rng, count):
    worst, witness = math.inf, None
    for _ in range(count):
        n = int(rng.integers(4, 25))
        a = int(rng.integers(1, min(4, n - 1) + 1))
        lengths = random_length_tuple(rng, n)
        while not minprob_mod.in_domain(lengths, a):
            lengths = random_length_tuple(rng, n)
        b = int(rng.integers(a, n))
        margin = minprob_mod.telescopic_margin(lengths, a, b)
        if b == a and margin != 0.0:
            return margin, {"lengths": list(lengths), "a": a, "b": b,
                            "reason": "b=a margin not exactly zero"}
        if margin < worst:
            worst = margin
            witness = {"lengths": [float(x) for x in lengths], "a": a, "b": b}
    return worst, witness


def suite_rearrange(rng, count):
    kernel = energy_mod.inverse_square_kernel(1.0)
    worst, witness = math.inf, None
    for _ in range(count):
        u = random_arrangement(rng)
        k = int(rng.integers(1, 6))
        f_u = energy_mod.hostility(kernel, u, k).value
        f_mu = energy_mod.hostility(kernel, rearrange(u), k).value
        margin = _finite_margin(f_u, f_mu)
        if margin < worst:
            worst = margin
            witness = {"u": u.to_json(), "k": k}
    return worst, witness


def suite_domination(rng, count):
    grid = np.linspace(0.0, 4.0, max(count, 2))
    worst, witness = math.inf, None
    for m in range(2, 9):
        margins = bounds_mod.domination_margins(m, grid)
        i = int(np.argmin(margins))
        if margins[i] < worst:
            worst = float(margins[i])
            witness = {"m": m, "t": float(grid[i])}
    return worst, witness


_CHAIN_LAWS = (
    ("phi1", ModelLaw(1)),
    ("psi:2", PackagedDyadicLaw((1, 1))),
    ("pca2:[0,0,1]", PackagedDyadicLaw((0, 0, 1))),
)


def suite_chain(rng, count):
    worst, witness = math.inf, None
    for _ in range(count):
        u = random_step_function(rng)
        delta = float(rng.choice([0.5, 1.0]))
        lo = delta * int(rng.integers(-4, 0))
        hi = delta * int(rng.integers(1, 5))
        tu = truncate(u, lo, hi)
        stu = segment(tu, delta)
        mstu = rearrange(stu)
        tag, law = _CHAIN_LAWS[int(rng.integers(0, len(_CHAIN_LAWS)))]
        vals = [energy_mod.lambda_step(law, w, delta).value
                for w in (u, tu, stu, mstu)]
        for stage, (bigger, smaller) in enumerate(zip(vals, vals[1:])):
            margin = _finite_margin(bigger, smaller)
            if margin < worst:
                worst = margin
                witness = {"u": u.to_json(), "delta": delta, "law": tag,
                           "stage": stage, "values": [_fmt(v) for v in vals]}
    return worst, witness


_SUITES = {
    "telescope": suite_telescope,
    "rearrange": suite_rearrange,
    "domination": suite_domination,
    "chain": suite_chain,
}


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(_SUITES)))
@click.option("--count", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--tolerance", type=float, default=None)
@click.pass_context
def cmd_verify(ctx, suite, count, seed, tolerance):
    """Run a randomized inequality suite; exit 1 on a violated margin."""
    count = int(_cfg(ctx, "count", count, 1000))
    seed = int(_cfg(ctx, "seed", seed, 0))
    tolerance = float(_cfg(ctx, "tolerance", tolerance, 1e-10))
    rng = np.random.default_rng(seed)
    worst, witness = _SUITES[suite](rng, count)
    doc = {"suite": suite, "count": count, "seed": seed, "min_margin": worst}
    ok = worst >= -tolerance
    if not ok:
        doc["witness"] = witness
    if ctx.obj["json"]:
        click.echo(json.dumps(doc, indent=2, default=str))
    else:
        click.echo(f"suite={suite} count={count} seed={seed} min_margin={_fmt(worst)}")
        if not ok:
            click.echo(f"witness: {json.dumps(witness, default=str)}", err=True)
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

@main.group("bounds")
def cmd_bounds():
    """Shape-factor lower bounds."""


def _emit_reports(ctx, reports):
    if ctx.obj["json"]:
        click.echo(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            click.echo(r.table_row())


@cmd_bounds.command("psi")
@click.option("--m", "m_text", default="1..12", show_default=True)
@click.pass_context
def bounds_psi(ctx, m_text):
    """Bounds for the full-package laws over a range of depths."""
    ms = _parse_int_range(m_text)
    reports = [bounds_mod.psi_bound(m) for m in ms]
    _emit_reports(ctx, reports)


@cmd_bounds.command("theta")
@click.pass_context
def bounds_theta(ctx):
    """Shape factor of the affine ramp law (exactly one)."""
    try:
        report = bounds_mod.theta_bound()
    except AssertionError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    _emit_reports(ctx, [report])


@cmd_bounds.command("zeta")
@click.option("--f", "f_path", required=True, type=click.Path(exists=True),
              help="JSON file with (z, value) node pairs.")
@click.pass_context
def bounds_zeta(ctx, f_path):
    """Shape factor of a dyadic-affine law (exactly one)."""
    law = parse_law_spec(f"zeta:@{f_path}")
    try:
        report = bounds_mod.zeta_bound(law)
    except AssertionError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    _emit_reports(ctx, [report])


@cmd_bounds.command("counterexample")
@click.option("--eps", type=float, default=0.01, show_default=True)
@click.pass_context
def bounds_counterexample(ctx, eps):
    """Data for the short-range counterexample pair."""
    doc = bounds_mod.counterexample_table(eps=eps)
    if ctx.obj["json"]:
        click.echo(json.dumps(doc, indent=2))
    else:
        for key, val in doc.items():
            click.echo(f"{key}={_fmt(val) if isinstance(val, float) else val}")


@cmd_bounds.command("factor")
@click.option("--law", "spec_text", required=True)
@click.option("--n-max", type=int, default=16, show_default=True)
@click.option("--starts", type=int, default=16, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
def bounds_factor(ctx, spec_text, n_max, starts, seed):
    """Gamma-liminf coefficient per unit of total variation."""
    law = parse_law_spec(spec_text)
    factor, chain = bounds_mod.gamma_liminf_factor(
        law, n_max=n_max, starts=starts, seed=seed)
    doc = {"factor": factor, "chain": [[s, c] for s, c in chain]}
    if ctx.obj["json"]:
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(f"factor={_fmt(factor)}")
        for s, c in chain:
            click.echo(f"  {s}: {_fmt(c)}")


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def _smooth_bump(x):
    return np.sin(np.pi * np.asarray(x)) ** 2


_SMOOTH_PROFILES = {
    # (callable on [0,1], exact total variation)
    "bump": (_smooth_bump, 2.0),
    "linear": (lambda x: np.asarray(x, dtype=float), 1.0),
}


@main.group("energy")
def cmd_energy():
    """Non-local energy evaluations and sweeps."""


@cmd_energy.command("pointwise")
@click.option("--law", "spec_text", required=True)
@click.option("--u", "profile", type=click.Choice(sorted(_SMOOTH_PROFILES)),
              default="bump", show_default=True)
@click.option("--deltas", default="1e-1..1e-3", show_default=True)
@click.option("--tol", type=float, default=1e-3, show_default=True)
@click.pass_context
def energy_pointwise(ctx, spec_text, profile, deltas, tol):
    """Sweep the quadrature energy of a smooth profile over delta."""
    law = parse_law_spec(spec_text)
    func, tv = _SMOOTH_PROFILES[profile]
    scale = 2.0 * law.scale_factor() * tv
    rows = []
    for delta in _parse_delta_sweep(deltas):
        res = energy_mod.lambda_quad(law, func, (0.0, 1.0), delta, tol=tol)
        rows.append([delta, res.value, res.method, res.error_estimate,
                     res.value / scale])
    _emit_rows(["delta", "value", "method", "error_estimate", "ratio"],
               rows, ctx.obj["json"])


@cmd_energy.command("step")
@click.option("--law", "spec_text", required=True)
@click.option("--u", "u_path", required=True, type=click.Path(exists=True),
              help="Step function as JSON or CSV.")
@click.option("--deltas", default="1e-1..1e-3", show_default=True)
@click.pass_context
def energy_step(ctx, spec_text, u_path, deltas):
    """Sweep the exact step-function energy over delta."""
    law = parse_law_spec(spec_text)
    if u_path.endswith(".csv"):
        u = StepFunction.from_csv(u_path)
    else:
        with open(u_path) as fh:
            u = StepFunction.from_json(json.load(fh))
    rows = []
    for delta in _parse_delta_sweep(deltas):
        res = energy_mod.lambda_step(law, u, delta)
        rows.append([delta, res.value, res.method, res.error_estimate])
    _emit_rows(["delta", "value", "method", "error_estimate"], rows, ctx.obj["json"])


@cmd_energy.command("gd")
@click.option("--dmax", type=int, default=4, show_default=True)
@click.pass_context
def energy_gd(ctx, dmax):
    """Table of the geometric constants up to a given dimension."""
    rows = []
    for d in range(1, dmax + 1):
        res = energy_mod.geometric_constant(d)
        rows.append([d, res.value, res.method, res.error_estimate])
    _emit_rows(["d", "value", "method", "error_estimate"], rows, ctx.obj["json"])


if __name__ == "__main__":
    main()
