"""The import contract: which modules each start-up case of bvgamma loads.

A command's time is almost all interpreter start-up, so what it imports is its
main performance contract.  Each case runs in a fresh interpreter the way a
user runs it: a line of Python, or the arguments of ``python -m bvgamma.cli``.
``CONTRACT`` maps a set of modules to the cases that load exactly that set of
the watched ones: the modules of ``WATCHED`` and every ``bvgamma`` submodule,
written ``.name``.  A watched module that the set does not name must stay
unloaded.  A command runs as ``__main__``, so ``.cli`` appears only where a case
imports it.

``tests/test_cli.py`` checks each row of ``CASES`` against ``src/``.  Run as a
script, this file checks every row against the bvgamma that ``python`` imports,
such as an installed package, and exits 1 if any row fails:

    python tests/import_contract.py
"""

import ast
import subprocess
import sys
import tempfile
from pathlib import Path

WATCHED = ("numpy", "numpy.random", "scipy", "fractions", "decimal", "csv", "dataclasses")

# the input files the cases name, written into the directory each case runs in
INPUTS = {
    "zeta.json": '{"nodes": [[-2, 0.25], [0, 0.5], [3, 1.75]]}',
    "u.json": '{"breakpoints": [0, 1, 2, 3, 4], "values": [0, 0.25, 0.5, 0.75]}',
    "u.csv": "0,0\n1,0.25\n2,0.5\n3,\n",
}

# loads -> the cases that load exactly those watched modules; the cases with --json
# are the benchmark's workload commands at --seed 1, on small input files
CONTRACT = {
    # each exported name, and each command, imports its module on first use
    "": ["import bvgamma"],
    ".cli": ["import bvgamma.cli"],
    # every module of the package at once: numpy loads only inside the functions that
    # evaluate arrays, and fractions only inside those that compute in rationals
    ".bounds .cli .energy .laws .minprob .stepfn": [
        "import importlib, pkgutil, bvgamma; [importlib.import_module('bvgamma.' + m.name)"
        " for m in pkgutil.iter_modules(bvgamma.__path__)]"],
    # a probe is the measure below t, and a law with a density has no exact scale factor
    ".laws": ["law --spec psi:2 --probe 0.5 --probe 2.5", "--json law --spec phieps:0.01"],
    ".laws fractions decimal": ["--json law --spec psi:2"],
    # exact reports: harmonic numbers and the domination certificate in rationals
    ".bounds .laws fractions decimal": [
        "--json bounds psi --m 1..12", "--json bounds theta", "--json bounds counterexample"],
    # the zeta rule and the domination grid read the threshold measures in floats
    ".bounds .laws": ["--json bounds zeta --f zeta.json",
                      "--json verify domination --count 200 --seed 1"],
    # the step-energy kernel, a delta range and the suites' draws run in Python
    ".energy .laws .stepfn": [
        "energy step --law psi:3 --u u.json",
        "energy step --law psi:3 --u u.json --deltas 0.5,0.25",
        "--json energy step --law phi:3 --u u.json --deltas 0.5,0.25,0.2",
        "--json energy step --law pca:[0,0,1,0.5,0.25] --u u.json --deltas 0.5,0.25,0.2",
        "--json verify rearrange --count 200 --seed 1",
        "--json verify chain --count 200 --seed 1"],
    ".energy .laws .stepfn csv": ["energy step --law psi:3 --u u.csv --deltas 0.5"],
    ".minprob": ["--json verify telescope --count 200 --seed 1"],
    # a single step law's minimum is certified in closed form
    ".laws .minprob": [
        "--json minprob --law phi1 --n 8,12,16 --starts 16 --seed 1 --dump-minimizer",
        "--json minprob --law phi:3 --n 9,12,15 --starts 16 --seed 1 --dump-minimizer",
        "minprob --law pca:[0,0,2.5] --n 7..20"],
    ".bounds .laws .minprob": ["bounds factor --law phi:3"],
    # a search polishes with numpy and draws its smooth starts from Python's random
    ".laws .minprob numpy": [
        "--json minprob --law psi:2 --n 8,12,16 --starts 16 --seed 1 --dump-minimizer",
        "minprob --law pca:[0,0,1,0.5,0.25] --n 12 --starts 2"],
    ".bounds .laws .minprob numpy": ["--json bounds factor --law psi:2 --seed 1"],
    # quadrature evaluates arrays; a step law also has an exact scale factor
    ".energy .laws numpy": [
        "--json energy pointwise --law theta --u bump --deltas 1e-1..1e-3 --tol 0.001",
        "--json energy pointwise --law theta --u linear --deltas 1e-1..1e-3 --tol 0.001"],
    ".energy .laws numpy fractions decimal": [
        "--json energy pointwise --law phi1 --u bump --deltas 1e-1..1e-2 --tol 0.001",
        "--json energy pointwise --law phi1 --u linear --deltas 1e-1 --tol 0.001"],
}
# one row per case: (case, loads)
CASES = [(case, loads) for loads, cases in CONTRACT.items() for case in cases]


# print sys.modules at exit, after the case and any sys.exit it ends in
_REPORT = ("import atexit, sys\n"
           "atexit.register(lambda: print(sorted(sys.modules), file=sys.stderr))\n")
# what ``python -m bvgamma.cli ARGS`` runs
_COMMAND = "import runpy; runpy.run_module('bvgamma.cli', run_name='__main__', alter_sys=True)"


def loaded(case: str, cwd, env=None) -> set:
    """The watched and ``bvgamma`` modules loaded by ``case``, run in a fresh
    interpreter in ``cwd``; raises AssertionError unless the case exits 0."""
    code, args = (case, []) if case.startswith("import ") else (_COMMAND, case.split())
    out = subprocess.run([sys.executable, "-c", _REPORT + code, *args], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    if out.returncode:
        raise AssertionError(f"{case!r} exited {out.returncode}:\n{out.stderr}")
    names = ast.literal_eval(out.stderr.splitlines()[-1])
    return {name for name in names if name in WATCHED or name.startswith("bvgamma.")}


def mismatch(case: str, loads: str, cwd, env=None) -> str:
    """'' when ``case`` loads exactly the modules of ``loads``, else what differs."""
    want = {"bvgamma" + name if name.startswith(".") else name for name in loads.split()}
    got = loaded(case, cwd, env)
    return "; ".join(f"{verb} {sorted(names)}" for verb, names in
                     (("loads", got - want), ("does not load", want - got)) if names)


def write_inputs(directory) -> None:
    for name, text in INPUTS.items():
        (Path(directory) / name).write_text(text)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        where = subprocess.run([sys.executable, "-c", "import bvgamma; print(bvgamma.__file__)"],
                               cwd=tmp, stdout=subprocess.PIPE, text=True, check=True)
        print("bvgamma:", where.stdout.strip())
        failed = 0
        for case, loads in CASES:
            try:
                diff = mismatch(case, loads, tmp)
            except AssertionError as exc:  # the case did not exit 0
                diff = str(exc)
            failed += bool(diff)
            print(f"FAIL {case}: {diff}" if diff else f"ok   {case}")
    print(f"{failed} of {len(CASES)} cases failed")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main())
