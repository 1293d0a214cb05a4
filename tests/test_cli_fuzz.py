"""Fuzz the CLI grammar: a drawn command ends in an answer (exit 0), a failed check
with its witness (exit 1) or a one-line configuration error (exit 2), and never in
a traceback or a hang.

Each example is a command line, run in process in a fresh directory that holds the
input files it names: a zeta node file ``z.json``, or a step function ``u.json`` or
``u.csv``.  Each part of a command is valid seven draws in
eight, so that most commands reach the library.  The draws are derandomized and
bounded (n <= 64, at most three starts and three deltas, no tol below 1e-3), so the
test takes a few seconds and tests the same commands on every run.
"""

import itertools
import json
import re
import signal

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvgamma.cli import main

# a command still running after this many seconds has hung
_BUDGET = 30

# what an exit 1 names: a failed admissibility condition, a suite's witness, or the
# point (or pair of values) where a certificate fails
_WITNESS = re.compile(r": fail \(|witness|at t=|disagrees with")


def _mostly(valid, invalid):
    """``valid`` seven draws in eight, else ``invalid``; examples shrink towards valid."""
    return st.integers(0, 7).flatmap(lambda i: invalid if i == 7 else valid)


def _number(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


# nonnegative weights from subnormal to the largest float
weights = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-20, 1.0,
                           1e150, 1e200, 1e307, 1e308, 1.7976931348623157e308])
weights |= st.floats(0.0, 10.0)
finite_floats = weights | st.floats(-10.0, 10.0) | st.sampled_from([-0.0, -5e-324, -1e308])
extreme_floats = finite_floats | st.sampled_from([float("nan"), float("inf"), float("-inf")])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | extreme_floats | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                              max_size=2),
    max_leaves=6)


def documents(doc):
    """``doc`` as JSON text, else another JSON value or text that may not be JSON."""
    return _mostly(doc.map(json.dumps), json_values.map(json.dumps) | st.text(max_size=12))


weight_lists = _mostly(st.lists(weights, min_size=1, max_size=6),
                       st.lists(extreme_floats | st.booleans() | st.text(max_size=2),
                                max_size=6))
law_specs = _mostly(
    st.one_of(
        st.sampled_from(["phi1", "theta", "zeta:@z.json"]),
        st.builds("phi:{}".format, st.integers(1, 70)),
        st.builds("psi:{}".format, st.integers(1, 13)),
        st.builds(lambda family, w: f"{family}:{json.dumps(w)}",
                  st.sampled_from(["pca", "pca2"]), weight_lists),
        st.builds(lambda eps: f"phieps:{_number(eps)}",
                  _mostly(st.sampled_from([5e-324, 1e-300, 1.0]) | st.floats(1e-3, 1.0),
                          extreme_floats))),
    st.sampled_from(["phi:0", "phi:-1", "psi:0", "psi:40", "pca:", "pca:[]", "pca:{}",
                     "pca:[1", "pca2:[1,2", "phieps:", "zeta:@missing.json", "nope", ""]))
# laws whose minimum problems have solutions at some n <= 64
search_specs = _mostly(
    st.one_of(st.builds("phi:{}".format, st.integers(1, 20)),
              st.builds("psi:{}".format, st.integers(1, 5)),
              st.builds(lambda w: f"pca:{json.dumps(w)}",
                        st.lists(weights, min_size=1, max_size=6))),
    law_specs)
ns = _mostly(st.integers(1, 64), st.integers(-2, 0))
# a single n, a comma list or a range, all with n <= 64, and text that is none of them
n_texts = _mostly(
    st.one_of(ns.map(str),
              st.lists(ns, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
              st.builds(lambda a, k: f"{a}..{a + k}", ns, st.integers(-1, 2))),
    st.sampled_from(["", "8..", "..", "x", "8,,12", "1e1"]))
starts = _mostly(st.integers(0, 3), st.just(-1)).map(str)
seeds = _mostly(st.integers(0, 3), st.just(-1)).map(str)
delta_values = _mostly(st.sampled_from([1e300, 10.0, 1.0]) | st.floats(1e-3, 1.0),
                       st.sampled_from([0.0, -1.0, float("nan"), float("inf")]))
# at most three deltas: a value, a comma list or a range over at most a decade
delta_texts = _mostly(
    st.one_of(delta_values.map(_number),
              st.lists(delta_values, min_size=1, max_size=3).map(
                  lambda ds: ",".join(map(_number, ds))),
              st.builds(lambda a, r: f"{_number(a)}..{_number(a * r)}", delta_values,
                        st.sampled_from([1.0, 0.5, 0.1]))),
    st.sampled_from(["", "..", "1e-1..", "x", "1,,2"]))
# a tol the quadrature meets quickly, or one that it rejects before any work
tol_texts = _mostly(st.sampled_from(["1e-1", "1e-2", "1e-3", "1", "1e300"]),
                    st.sampled_from(["0", "-1e-3", "nan", "inf", "x"]))

# input files: a zeta node list, and a step function as JSON and as CSV rows; a node
# index past about -537 squares its 2^z to 0, and one past 1023 overflows it
node_indices = st.integers(-520, 520) | st.sampled_from([-1100, -1075, -538, 1023, 1100])
node_lists = _mostly(
    st.dictionaries(node_indices, weights, min_size=1, max_size=4).map(
        lambda nodes: [[z, v] for z, v in zip(sorted(nodes), sorted(nodes.values()))]),
    st.lists(st.tuples(st.integers(-1100, 1100) | json_values,
                       extreme_floats | json_values).map(list), max_size=4))
zeta_files = documents(st.fixed_dictionaries(
    {"nodes": node_lists}, optional={"variant": st.sampled_from(["dyadic_affine", "other", 3])}))
# (breakpoints, values): a start and positive gaps, whose sums may round to a repeat
step_functions = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.tuples(finite_floats, st.lists(st.floats(1e-3, 10.0) | weights.filter(bool),
                                      min_size=n, max_size=n)).map(
        lambda start_gaps: list(itertools.accumulate(start_gaps[1], initial=start_gaps[0]))),
    st.lists(finite_floats, min_size=n, max_size=n)))
step_files = documents(_mostly(
    step_functions.map(lambda u: {"breakpoints": u[0], "values": u[1]}),
    st.fixed_dictionaries({"breakpoints": json_values, "values": json_values})))
csv_files = _mostly(
    step_functions.map(lambda u: "\n".join(
        f"{_number(x)},{_number(v)}" for x, v in zip(u[0], [*u[1], ""]))),
    st.lists(st.tuples(extreme_floats, extreme_floats.map(_number) | st.just("x"))
             .map(lambda row: f"{_number(row[0])},{row[1]}"), max_size=4).map("\n".join)
    | st.text(max_size=12))

commands = st.one_of(
    st.builds(lambda spec, report, probes: ["law", "--spec", spec, *report,
                                            *(f"--probe={_number(p)}" for p in probes)],
              law_specs, st.sampled_from([[], ["--report", "N"], ["--report", "admissible"]]),
              st.lists(extreme_floats, max_size=2)),
    st.builds(lambda spec, n, k, seed: ["minprob", "--law", spec, "--n", n, "--starts", k,
                                        "--seed", seed],
              search_specs, n_texts, starts, seeds),
    st.builds(lambda spec, n, k, seed: ["bounds", "factor", "--law", spec, "--n-max", n,
                                        "--starts", k, "--seed", seed],
              search_specs, ns.map(str), starts, seeds),
    st.builds(lambda spec, u, deltas, tol: ["energy", "pointwise", "--law", spec, "--u", u,
                                            "--deltas", deltas, "--tol", tol],
              law_specs, _mostly(st.sampled_from(["bump", "linear"]), st.just("cubic")),
              delta_texts, tol_texts),
    st.builds(lambda spec, u, deltas: ["energy", "step", "--law", spec, "--u", u,
                                       "--deltas", deltas],
              law_specs, st.sampled_from(["u.json", "u.csv"]), delta_texts),
    st.just(["bounds", "zeta", "--f", "z.json"]),
    st.builds(lambda m: ["bounds", "psi", "--m", m], n_texts),
    st.builds(lambda eps: ["bounds", "counterexample", "--eps", _number(eps)],
              _mostly(st.floats(1e-3, 1.0), extreme_floats)),
    st.builds(lambda suite, count, seed: ["verify", suite, "--count", count, "--seed", seed],
              _mostly(st.sampled_from(["telescope", "rearrange", "chain", "domination"]),
                      st.just("other")),
              _mostly(st.integers(1, 30), st.integers(-1, 0)).map(str), seeds),
    st.builds(lambda d: ["energy", "gd", "--dmax", d], st.integers(-1, 12).map(str)),
)
_FILES = {"z.json": zeta_files, "u.json": step_files, "u.csv": csv_files}
# (argv, files): a command, with or without --json, and each input file that it names
runs = st.builds(lambda as_json, argv: as_json + argv, st.sampled_from([[], ["--json"]]),
                 commands).flatmap(lambda argv: st.fixed_dictionaries(
                     {name: text for name, text in _FILES.items()
                      if any(name in arg for arg in argv)}).map(lambda files: (argv, files)))


def _invoke(argv, files):
    """Run ``argv`` in process, in a fresh directory that holds ``files``; a run past
    the budget stops with TimeoutError, which the runner records as its exception."""
    def out_of_time(signum, frame):
        raise TimeoutError(f"{' '.join(argv)} ran past {_BUDGET} s")

    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, text in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        previous = signal.signal(signal.SIGALRM, out_of_time)
        signal.alarm(_BUDGET)
        try:
            return runner.invoke(main, argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


# the extreme inputs that once ended in a traceback or a hang, and the ones beside them
@example(("bounds factor --law pca:[1e200,1e200]".split(), {}))
@example(("law --spec pca:[1e308,1e308]".split(), {}))
@example(("minprob --law pca:[1e308,1e308] --n 4".split(), {}))
@example(("minprob --law pca:[1e307,1e307] --n 8".split(), {}))
@example(("minprob --law pca:[1e307,1e307] --n 16".split(), {}))
@example(("bounds factor --law pca:[1e307,1e307]".split(), {}))
@example(("energy pointwise --law phi1 --u linear --deltas 1e-1 --tol 1e-15".split(), {}))
@given(runs)
@settings(max_examples=500, deadline=None, derandomize=True)
def test_every_command_ends_in_an_answer_or_one_error(run):
    argv, files = run
    result = _invoke(argv, files)
    assert result.exit_code in (0, 1, 2), (run, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        run, repr(result.exception))
    assert "Traceback" not in result.output, (run, result.output)
    if result.exit_code == 1:
        assert _WITNESS.search(result.output), (run, result.output)
