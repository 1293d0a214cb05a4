#!/usr/bin/env python3
"""Benchmark of the bvgamma command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from ``src/``.
Each round runs every command of the workload once, in a fresh process, one
at a time (a closed loop with one client), and rounds repeat up to the round
boundary nearest to S seconds.  Every output row is checked against
``reference``.

``--trace 0`` prints the end-to-end metrics, measured without tracing, with
the timings scaled by the host's speed in the run (see ``PROBE_REF_S``).
``--trace 1`` runs the same commands in-process through ``bvgamma.cli.main``
with spans around the library's public functions, and prints per-layer
counts and self times.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3
# The host's speed drifts by up to a half over minutes (see README), which
# moves every timing of a run together.  So each run also times two probes
# that run no code of the repository, a bare interpreter start-up and
# `import numpy`, before each timed command (and then again until it has
# PROBE_SAMPLES of each, as one probe varies by a third from one start-up to
# the next), and scales its timings by PROBE_REF_S over the geometric mean of
# the two probes' medians in the run.
# PROBE_REF_S is that mean on the machine the README's figures come from, so
# the scaled timings read as seconds on it at its median speed.
PROBE_ARGVS = ((sys.executable, "-I", "-c", "pass"),
               (sys.executable, "-I", "-c", "import numpy"))
PROBE_SAMPLES = 16
PROBE_REF_S = 0.14
IMPORTTIME_SAMPLES = 3
IMPORTTIME_MODULES = {"bvgamma.cli": "cli.import.s", "bvgamma.energy": "energy.import.s",
                      "bvgamma.minprob": "minprob.import.s", "bvgamma.laws": "laws.import.s"}


def child_env() -> dict:
    """The caller's environment with src/ on the import path, and nothing else added."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cli_argv(args) -> list:
    return [sys.executable, "-m", "bvgamma.cli", *args]


def _threads(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def spawn(argv, env, poll_threads=False) -> dict:
    """Run one command to its exit; wall time from spawn to exit, and its rusage."""
    with open(OUT / "cmd.stdout", "w+") as out, open(OUT / "cmd.stderr", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        threads = 0
        if poll_threads:
            while True:
                threads = max(threads, _threads(proc.pid))
                if proc.poll() is not None:
                    break
                time.sleep(0.005)
            usage = None
        else:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        out.seek(0)
        err.seek(0)
        res = {"code": proc.returncode, "stdout": out.read(), "stderr": err.read(),
               "wall": wall, "threads": threads}
    if usage is not None:
        res["cpu"] = usage.ru_utime + usage.ru_stime
        res["rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
    return res


def probe(samples) -> None:
    """Time each probe once, appending to its list in `samples`."""
    for argv, times in zip(PROBE_ARGVS, samples):
        times.append(spawn(argv, dict(os.environ))["wall"])


def speed_scale(samples) -> float:
    """PROBE_REF_S over the geometric mean of the probes' medians."""
    return PROBE_REF_S / math.sqrt(math.prod(statistics.median(t) for t in samples))


def measure_setup(env, probes) -> float:
    """Median time for a fresh interpreter to import the CLI and print --help.

    One untimed call first writes the bytecode caches, which users pay once.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        if i:
            probe(probes)
        res = spawn(cli_argv(["--help"]), env)
        if res["code"] != 0 or "Usage:" not in res["stdout"]:
            sys.exit(f"bvgamma --help failed:\n{res['stderr']}")
        if i:
            times.append(res["wall"])
    return statistics.median(times)


def rounds_for(seconds):
    """Yield round numbers up to the round boundary nearest to `seconds`,
    taking the next round to be as long as the mean round so far; always at
    least one.

    A run thus measures whole rounds, and its measured time is off `seconds`
    by at most half a round (or is one round longer than `seconds`).
    """
    start = time.perf_counter()
    n = 0
    while True:
        yield n
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n / 2 > seconds:
            return


def end_to_end(ops, seconds, env):
    probes = tuple([] for _ in PROBE_ARGVS)
    setup = measure_setup(env, probes)
    samples = [[] for _ in ops]
    outcomes = []
    for _ in rounds_for(seconds):
        for op, sample in zip(ops, samples):
            probe(probes)
            res = spawn(cli_argv(["--json", *op.args]), env)
            sample.append(res)
            outcomes += workloads.evaluate(op, res["code"], res["stdout"])
    while len(probes[0]) < PROBE_SAMPLES:
        probe(probes)

    def per_op_median(key):
        return [statistics.median(r[key] for r in sample) for sample in samples]

    raw = {"wall_s": sum(per_op_median("wall")), "cpu_s": sum(per_op_median("cpu")),
           "setup_s": setup}
    scale = speed_scale(probes)
    print(f"unscaled: {json.dumps(raw)}, probe medians (s): "
          f"{[statistics.median(t) for t in probes]}, scale: {scale}", file=sys.stderr)
    metrics = {name: (scale * value, "s") for name, value in raw.items()}
    metrics["peak_rss_mb"] = (max(per_op_median("rss_mb")), "MB")
    return metrics, outcomes


def import_times(env) -> dict:
    """Cumulative import time of the CLI and three library modules, from -X importtime."""
    samples = {key: [] for key in IMPORTTIME_MODULES.values()}
    for _ in range(IMPORTTIME_SAMPLES):
        res = spawn([sys.executable, "-X", "importtime", "-c", "import bvgamma.cli"], env)
        for line in res["stderr"].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTTIME_MODULES:
                samples[IMPORTTIME_MODULES[parts[2].strip()]].append(int(parts[1]) / 1e6)
    return {key: statistics.median(vals) if vals else 0.0 for key, vals in samples.items()}


def traced(ops, seconds, env, workload):
    from click.testing import CliRunner

    imports = import_times(env)

    # peak threads of each command process, polled from /proc while it runs
    threads = 0
    outcomes = []
    for op in ops:
        res = spawn(cli_argv(["--json", *op.args]), env, poll_threads=True)
        threads = max(threads, res["threads"])
        outcomes += workloads.evaluate(op, res["code"], res["stdout"])

    sys.path.insert(0, str(SRC))
    import bvgamma.cli
    from tracer import Tracer

    runner = CliRunner()

    def invoke(args):
        result = runner.invoke(bvgamma.cli.main, ["--json", *args])
        return result.exit_code, result.stdout

    tracer = Tracer()
    cli_span = tracer.wrap(invoke, "cli")
    plain, with_spans = [], []
    rounds = 0
    for _ in rounds_for(seconds):
        # each command runs untraced and traced back to back, so that both
        # passes see the same machine load
        elapsed = {False: 0.0, True: 0.0}
        for op in ops:
            for spans in (False, True):
                if spans:
                    tracer.install()
                t0 = time.perf_counter()
                code, stdout = (cli_span if spans else invoke)(op.args)
                elapsed[spans] += time.perf_counter() - t0
                if spans:
                    tracer.uninstall()
                outcomes += workloads.evaluate(op, code, stdout)
        plain.append(elapsed[False])
        with_spans.append(elapsed[True])
        rounds += 1

    tracer.dump(OUT / f"spans-{workload}.npz")
    own = tracer.self_times()
    counts = tracer.counts

    def n(name):
        return own.get(name, (0, 0.0))[0] / rounds

    def s(name):
        return own.get(name, (0, 0.0))[1] / rounds

    def c(name):
        return counts.get(name, 0) / rounds

    def share(part, whole):
        return counts.get(part, 0) / whole if whole else 0.0

    metrics = {}
    for name in ("laws.model", "laws.piecewise", "laws.packaged", "laws.theta", "laws.other",
                 "stepfn", "energy.lambda_step", "energy.hostility", "energy.lambda_quad",
                 "minprob.minimize", "minprob.objective", "minprob.gradient",
                 "minprob.in_domain", "minprob.window_sums", "minprob.telescopic_margin",
                 "bounds"):
        metrics[f"{name}.n"] = (n(name), "count")
        metrics[f"{name}.s"] = (s(name), "s")
    for name in ("laws.points", "energy.lambda_step.pairs", "energy.hostility.pairs",
                 "energy.lambda_quad.levels", "energy.lambda_quad.points",
                 "minprob.starts", "minprob.iterations"):
        metrics[f"{name}.n"] = (c(name), "count")
    metrics["minprob.best_start_share"] = (
        share("minprob.best_starts", counts.get("minprob.traces", 0)), "ratio")
    metrics["minprob.in_domain.true_share"] = (
        share("minprob.in_domain.true", own.get("minprob.in_domain", (0, 0))[0]), "ratio")
    metrics["cli.self.s"] = (s("cli"), "s")
    for key, val in imports.items():
        metrics[key] = (val, "s")
    metrics["cli.threads.max"] = (threads, "count")
    metrics["trace.overhead"] = (statistics.median(with_spans) / statistics.median(plain),
                                 "ratio")
    return metrics, outcomes


def run(workload, seed, seconds, trace, env) -> dict:
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[workload](seed, inputs)
    if trace:
        metrics, outcomes = traced(ops, seconds, env, workload)
    else:
        metrics, outcomes = end_to_end(ops, seconds, env)

    failed = [label for label, ok in outcomes if not ok]
    unexpected = sorted({label for label in failed if label not in workloads.KNOWN_FAULTS})
    for label in unexpected:
        print(f"check failed: {label}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bvgamma" / "cli.py").is_file():
        print(f"no bvgamma sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, args.trace, env)
        line = json.dumps(result)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
        if len(names) > 1:
            print(f"# {name}")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
