import ast
import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import bvgamma
from bvgamma import bounds, cli, energy, minprob, stepfn
from bvgamma.cli import _emit_rows, delta_sweep, main, parse_law_spec
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    QuadraticHeadLaw,
    TabulatedLaw,
)
from bvgamma.stepfn import StepFunction


@pytest.fixture
def runner():
    return CliRunner()


def _run(capsys, *args):
    """Exit code, stdout and stderr of one command, run in this process."""
    try:
        main(list(args), standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _modules_after(*commands, prelude="from bvgamma.cli import main"):
    """Names in ``sys.modules`` of a fresh interpreter after ``prelude`` and the commands.

    A command that ends in ``sys.exit`` (``verify``) must exit 0.
    """
    src = str(Path(bvgamma.__file__).resolve().parents[1])
    code = (f"import sys; {prelude}\n"
            f"for args in {list(commands)!r}:\n"
            "    try:\n"
            "        main(args, standalone_mode=False)\n"
            "    except SystemExit as exc:\n"
            "        assert exc.code == 0, (args, exc.code)\n"
            "print(sorted(sys.modules), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    return ast.literal_eval(out.stderr.splitlines()[-1])


def _scipy_modules_after(*commands):
    """scipy modules loaded in a fresh interpreter after running the commands."""
    return [m for m in _modules_after(*commands) if m.split(".")[0] == "scipy"]


def _loaded_after(*commands, **kwargs):
    """numpy and the bvgamma submodules loaded in a fresh interpreter."""
    return {m for m in _modules_after(*commands, **kwargs)
            if m == "numpy" or m.startswith("bvgamma.")}


class TestLazyLoading:
    """Each process loads only the modules its command runs."""

    def test_package_import_loads_no_submodule(self):
        assert _loaded_after(prelude="import bvgamma") == set()

    def test_cli_import_loads_no_library_module(self):
        assert _loaded_after() == {"bvgamma.cli"}

    def test_law_command_loads_laws_only(self):
        assert _loaded_after(["law", "--spec", "psi:2"]) == {"bvgamma.cli", "bvgamma.laws"}
        # a probe is mu((0, t)) read from the measure in Python
        assert _loaded_after(["law", "--spec", "psi:2", "--probe", "0.5"]) == {
            "bvgamma.cli", "bvgamma.laws"}

    # every number these commands print is exact or closed-form Python arithmetic
    @pytest.mark.parametrize("args", [["law", "--spec", "phieps:0.01"],
                                      ["bounds", "psi", "--m", "1..12"],
                                      ["bounds", "theta"],
                                      ["bounds", "counterexample"]], ids=" ".join)
    def test_exact_reports_load_no_numpy(self, args):
        assert not _loaded_after(args) & {"numpy", "bvgamma.minprob"}

    def test_domination_and_zeta_checks_load_no_numpy(self, tmp_path):
        # both read their laws from the threshold measures in Python: the domination
        # grid draws nothing, and the zeta quadrature rule is built in bounds.py
        nodes = tmp_path / "zeta.json"
        nodes.write_text(json.dumps({"nodes": [[-2, 0.25], [0, 0.5], [3, 1.75]]}))
        assert _loaded_after(["bounds", "zeta", "--f", str(nodes)]) == {
            "bvgamma.cli", "bvgamma.bounds", "bvgamma.laws"}
        assert _loaded_after(["verify", "domination", "--count", "50"]) == {
            "bvgamma.cli", "bvgamma.bounds", "bvgamma.laws"}

    def test_array_commands_load_numpy(self):
        # the smooth starts are drawn from Python's random, so numpy.random stays unloaded
        modules = _modules_after(["bounds", "factor", "--law", "psi:2", "--n-max", "8",
                                  "--starts", "2"])
        assert {m for m in modules if m == "numpy" or m.startswith("bvgamma.")} == {
            "bvgamma.cli", "bvgamma.bounds", "bvgamma.laws", "bvgamma.minprob", "numpy"}
        assert "numpy.random" not in modules

    def test_energy_pointwise_loads_neither_stepfn_nor_minprob(self):
        loaded = _loaded_after(["energy", "pointwise", "--law", "theta", "--deltas", "1e-1"])
        assert "bvgamma.energy" in loaded
        assert not loaded & {"bvgamma.stepfn", "bvgamma.minprob"}

    def test_step_energies_load_no_minprob(self, tmp_path):
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"breakpoints": [0, 1, 2, 3], "values": [0, 0.5, 1]}))
        for args in (["energy", "step", "--law", "phi1", "--u", str(u), "--deltas", "0.5"],
                     ["verify", "rearrange", "--count", "5"],
                     ["verify", "chain", "--count", "5"]):
            loaded = _loaded_after(args)
            assert {"bvgamma.energy", "bvgamma.stepfn"} <= loaded
            assert "bvgamma.minprob" not in loaded, args

    def test_step_energy_loads_no_numpy(self, tmp_path):
        # the pair kernel and the step function's helpers run in Python
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"breakpoints": [0, 1, 2, 3, 4], "values": [0, 0.25, 0.5, 0.75]}))
        assert _loaded_after(["energy", "step", "--law", "psi:3", "--u", str(u),
                              "--deltas", "0.5,0.25"]) == {
            "bvgamma.cli", "bvgamma.energy", "bvgamma.stepfn", "bvgamma.laws"}

    def test_step_energy_on_the_default_delta_range_loads_no_numpy(self, tmp_path):
        # the range 1e-1..1e-3 is spaced in Python
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"breakpoints": [0, 1, 2, 3, 4], "values": [0, 0.25, 0.5, 0.75]}))
        assert _loaded_after(["energy", "step", "--law", "psi:3", "--u", str(u)]) == {
            "bvgamma.cli", "bvgamma.energy", "bvgamma.stepfn", "bvgamma.laws"}

    # a single step law's minimum is certified in closed form, so no array is built
    @pytest.mark.parametrize("args", [
        ["minprob", "--law", "phi:3", "--n", "8..16", "--dump-minimizer"],
        ["minprob", "--law", "phi1", "--n", "8,12,16"],
        ["minprob", "--law", "pca:[0,0,2.5]", "--n", "7..20"],
        ["bounds", "factor", "--law", "phi:3"]], ids=" ".join)
    def test_certified_problems_load_no_numpy(self, args):
        loaded = _loaded_after(args)
        assert "bvgamma.minprob" in loaded and "numpy" not in loaded

    @pytest.mark.parametrize("spec", ["psi:2", "pca:[0,0,1,0.5,0.25]"])
    def test_searched_problems_load_numpy(self, spec):
        modules = _modules_after(["minprob", "--law", spec, "--n", "12", "--starts", "2"])
        assert {m for m in modules if m == "numpy" or m.startswith("bvgamma.")} == {
            "bvgamma.cli", "bvgamma.laws", "bvgamma.minprob", "numpy"}
        assert "numpy.random" not in modules

    def test_verify_telescope_loads_minprob_only(self):
        # the suite draws from Python's random and sums its windows in Python
        assert _loaded_after(["verify", "telescope", "--count", "5"]) == {
            "bvgamma.cli", "bvgamma.minprob"}

    @pytest.mark.parametrize("suite", ["rearrange", "chain"])
    def test_verify_step_suites_load_neither_numpy_nor_minprob(self, suite):
        assert _loaded_after(["verify", suite, "--count", "50"]) == {
            "bvgamma.cli", "bvgamma.energy", "bvgamma.stepfn", "bvgamma.laws"}

    # neither the records nor these commands need dataclasses, exact fractions or csv
    @pytest.mark.parametrize("args", [
        ["energy", "step", "--law", "psi:3", "--u", "u.json", "--deltas", "0.5,0.25"],
        ["verify", "telescope", "--count", "5"],
        ["verify", "rearrange", "--count", "5"],
        ["verify", "chain", "--count", "5"],
        ["minprob", "--law", "phi:3", "--n", "8..16", "--dump-minimizer"],
        ["minprob", "--law", "psi:2", "--n", "8", "--starts", "2"]], ids=" ".join)
    def test_start_up_loads_no_dataclasses_fractions_or_csv(self, tmp_path, args):
        u = tmp_path / "u.json"
        u.write_text(json.dumps({"breakpoints": [0, 1, 2, 3, 4], "values": [0, 0.25, 0.5, 0.75]}))
        args = [str(u) if a == "u.json" else a for a in args]
        assert not set(_modules_after(args)) & {"dataclasses", "fractions", "decimal", "csv"}

    def test_csv_step_function_loads_csv(self, tmp_path):
        u = tmp_path / "u.csv"
        u.write_text("0,0\n1,0.25\n2,0.5\n3,\n")
        assert "csv" in _modules_after(["energy", "step", "--law", "psi:3", "--u", str(u),
                                        "--deltas", "0.5"])

    @pytest.mark.parametrize("args", [["law", "--spec", "psi:2"], ["bounds", "psi"]],
                             ids=" ".join)
    def test_exact_scale_factors_load_fractions(self, args):
        assert "fractions" in _modules_after(args)

    def test_bounds_psi_loads_neither_energy_nor_stepfn(self):
        loaded = _loaded_after(["bounds", "psi", "--m", "1..3"])
        assert "bvgamma.bounds" in loaded
        assert not loaded & {"bvgamma.energy", "bvgamma.stepfn"}

    def test_exports_are_their_defining_modules_objects(self):
        assert len(bvgamma.__all__) == len(set(bvgamma.__all__)) == 40
        for name in bvgamma.__all__:
            obj = getattr(bvgamma, name)
            assert obj.__module__.startswith("bvgamma.")
            assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert bvgamma.laws is importlib.import_module("bvgamma.laws")

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            bvgamma.no_such_name


def _blas_state_after(command, **env):
    """(numpy loaded, thread count, OPENBLAS_NUM_THREADS) of a fresh interpreter that
    runs one command, with OPENBLAS_NUM_THREADS unset unless ``env`` sets it."""
    src = str(Path(bvgamma.__file__).resolve().parents[1])
    code = ("import os, sys; from bvgamma.cli import main\n"
            f"main({command!r}, standalone_mode=False)\n"
            "print(['numpy' in sys.modules, len(os.listdir('/proc/self/task')),"
            " os.environ.get('OPENBLAS_NUM_THREADS')], file=sys.stderr)")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**base, **env, "PYTHONPATH": src}, timeout=120)
    return ast.literal_eval(out.stderr.splitlines()[-1])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_pins_openblas_to_one_thread_unless_set():
    # by default numpy's OpenBLAS starts a worker per extra core that only spins; the
    # CLI pins it before numpy loads, and a value the caller set wins
    command = ["energy", "pointwise", "--law", "phi1", "--u", "linear", "--deltas", "1e-1"]
    assert _blas_state_after(command) == [True, 1, "1"]
    assert _blas_state_after(command, OPENBLAS_NUM_THREADS="2")[::2] == [True, "2"]


_SWEEP = ("--starts", "16", "--seed", "0", "--dump-minimizer")


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded by the commands that need it, not at start-up
    assert _scipy_modules_after() == []


def test_certified_sweeps_leave_scipy_unloaded():
    assert _scipy_modules_after(
        ["--json", "minprob", "--law", "phi:3", "--n", "9,12,15", *_SWEEP],
        ["--json", "minprob", "--law", "phi1", "--n", "8,12,16", *_SWEEP]) == []


def test_verify_workload_leaves_scipy_unloaded(tmp_path):
    nodes = tmp_path / "zeta.json"
    nodes.write_text(json.dumps({"nodes": [[-2, 0.25], [0, 0.5], [3, 1.75]]}))
    suites = [["--json", "verify", suite, "--count", "20", "--seed", "3"]
              for suite in ("telescope", "rearrange", "chain", "domination")]
    assert _scipy_modules_after(
        *suites,
        ["--json", "law", "--spec", "psi:2"],
        ["--json", "law", "--spec", "phieps:0.01"],
        ["--json", "bounds", "psi", "--m", "1..12"],
        ["--json", "bounds", "theta"],
        ["--json", "bounds", "zeta", "--f", str(nodes)],
        ["--json", "bounds", "counterexample"]) == []


def test_uncertified_sweep_still_polishes(runner, monkeypatch):
    # psi:2 has no certified minimum, so every start is polished, and the
    # polish loads no scipy
    rows, results = [], []
    polish, minimize = minprob._polish, minprob.minimize
    monkeypatch.setattr(minprob, "_polish", lambda pb, starts: rows.append(len(starts))
                        or polish(pb, starts))
    monkeypatch.setattr(minprob, "minimize", lambda *a, **k: results.append(minimize(*a, **k))
                        or results[-1])
    result = runner.invoke(main, ["--json", "minprob", "--law", "psi:2", "--n", "8", *_SWEEP])
    assert result.exit_code == 0
    problem = minprob.MinProblem(8, PackagedDyadicLaw((1, 1)))
    # one batched polish whose rows are every pattern seed and every start
    (res,) = results
    assert rows == [len(list(minprob._pattern_seeds(problem))) + 16]
    assert rows == [res.starts] == [len(res.traces)]
    assert _scipy_modules_after(["--json", "minprob", "--law", "psi:2", "--n", "8", *_SWEEP]) == []
    assert _scipy_modules_after(["--json", "bounds", "factor", "--law", "psi:2"]) == []


@pytest.mark.parametrize("args", [["minprob", "--law", "psi:2", "--n", "8,12"],
                                  ["bounds", "factor", "--law", "psi:2"]], ids=" ".join)
def test_polishing_commands_run_without_scipy(args):
    # a None entry in sys.modules makes every import of scipy fail
    src = str(Path(bvgamma.__file__).resolve().parents[1])
    code = "import sys; sys.modules['scipy'] = None; from bvgamma.cli import main; main()"
    out = subprocess.run([sys.executable, "-c", code, "--json", *args], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)


class TestLawSpec:
    def test_mini_language(self, tmp_path):
        assert parse_law_spec("phi1") == ModelLaw(1)
        assert parse_law_spec("phi:3") == ModelLaw(3)
        assert parse_law_spec("psi:2") == PackagedDyadicLaw((1, 1))
        assert parse_law_spec("pca:[1,0,2]") == PiecewiseConstantLaw((1, 0, 2))
        assert parse_law_spec("pca2:[0,1]") == PackagedDyadicLaw((0, 1))
        assert parse_law_spec("theta") == AffineThetaLaw()
        assert isinstance(parse_law_spec("phieps:0.1"), QuadraticHeadLaw)
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"nodes": [[0, 0.0], [1, 1.0]]}))
        assert parse_law_spec(f"zeta:@{path}") == DyadicAffineLaw(
            nodes=((0, 0.0), (1, 1.0)))

    def test_bad_spec_exits_2(self, runner):
        result = runner.invoke(main, ["law", "--spec", "nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("spec", ["pca:[NaN]", "pca:[1,NaN]", "pca:[Infinity]",
                                      "pca2:[Infinity]"])
    def test_non_finite_weight_exits_2(self, runner, spec):
        result = runner.invoke(main, ["law", "--spec", spec])
        assert result.exit_code == 2
        assert "must be finite" in result.output

    @pytest.mark.parametrize("spec, message", [
        ("psi:14", "package depth must be at most 13, got 14"),
        ("psi:40", "package depth must be at most 13, got 40"),
        ("pca2:[]", "package list must be nonempty"),
        ('pca:["a"]', "weight 'a' is not a number"),
        ("pca:[true]", "weight True is not a number"),
        ("pca2:[false,1]", "package weight False is not a number"),
        ("pca2:[[1]]", "package weight [1] is not a number"),
        ("pca:5", "weights must be a JSON list, got 5"),
        ("pca:null", "weights must be a JSON list, got null"),
        ('pca:{"a":1}', 'weights must be a JSON list, got {"a":1}'),
    ])
    def test_malformed_weights_exit_2(self, runner, spec, message):
        # configuration errors, not tracebacks: each message names the bad weight or
        # payload, and a package law deeper than 13 is rejected before it expands
        result = runner.invoke(main, ["law", "--spec", spec])
        assert result.exit_code == 2
        assert f"bad law spec {spec!r}: {message}" in result.output

    @pytest.mark.parametrize("command", [["law", "--spec", "zeta:@{}"],
                                         ["bounds", "zeta", "--f", "{}"]])
    def test_non_finite_node_exits_2(self, runner, tmp_path, command):
        path = tmp_path / "zeta.json"
        path.write_text('{"nodes": [[0, 0.5], [1, Infinity]]}')
        result = runner.invoke(main, [arg.format(path) for arg in command])
        assert result.exit_code == 2
        assert "node values must be finite" in result.output

    @pytest.mark.parametrize("command", [["law", "--spec", "zeta:@{}", "--report", "N"],
                                         ["bounds", "zeta", "--f", "{}"]])
    @pytest.mark.parametrize("nodes, named", [
        ("[[-2.7, 0.25], [0, 0.5], [3, 1.75]]", "node index -2.7 of node [-2.7, 0.25]"),
        ("[[-2, 0.25], [0, 0.5], [true, 1.75]]", "node index True of node [True, 1.75]"),
    ])
    def test_non_integer_node_index_exits_2(self, runner, tmp_path, command, nodes, named):
        # truncated, these files would read as the laws of a node at -2 and at 1
        path = tmp_path / "zeta.json"
        path.write_text(f'{{"nodes": {nodes}}}')
        result = runner.invoke(main, [arg.format(path) for arg in command])
        assert result.exit_code == 2
        assert f"{named} is not an integer" in result.output

    def test_zeta_variant_document(self, runner, tmp_path):
        nodes = [[-2, 0.1], [0, 0.5], [2, 1.5]]
        path = tmp_path / "zeta.json"
        path.write_text(json.dumps({"variant": "dyadic_affine", "nodes": nodes}))
        assert parse_law_spec(f"zeta:@{path}") == DyadicAffineLaw(
            nodes=((-2, 0.1), (0, 0.5), (2, 1.5)))
        path.write_text(json.dumps({"variant": "model", "k": 1}))
        result = runner.invoke(main, ["law", "--spec", f"zeta:@{path}"])
        assert result.exit_code == 2
        assert "zeta spec must name a dyadic-affine law" in result.output


class TestLawCommand:
    def test_phi1_scale_factor(self, runner):
        result = runner.invoke(main, ["law", "--spec", "phi1", "--report", "N"])
        assert result.exit_code == 0
        assert "N = 1 = 1" in result.output

    def test_psi2_exact_and_float(self, runner):
        result = runner.invoke(main, ["law", "--spec", "psi:2", "--report", "N"])
        assert result.exit_code == 0
        assert "11/6" in result.output
        assert "1.833" in result.output

    def test_theta_probe(self, runner):
        result = runner.invoke(main, ["law", "--spec", "theta", "--probe", "1.5"])
        assert result.exit_code == 0
        assert "1.5,0.5" in result.output

    def test_probe_is_the_correctly_rounded_sum(self, runner):
        result = runner.invoke(main, ["law", "--spec", "pca:[0.1,0.2,0.3]", "--probe", "3.5"])
        assert result.exit_code == 0
        want = float(sum(map(Fraction, (0.1, 0.2, 0.3))))
        assert result.output == f"t,value\n3.5,{want:.17g}\n"

    @pytest.mark.parametrize("spec", ["psi:2", "theta"])
    def test_nan_probe_exits_2(self, runner, spec):
        # NaN lies below no threshold, so it once printed a number
        result = runner.invoke(main, ["law", "--spec", spec, "--probe", "0.5", "--probe", "nan"])
        assert result.exit_code == 2
        assert "--probe" in result.output and "nan" in result.output

    def test_density_law_has_no_exact_scale_factor(self, runner):
        result = runner.invoke(main, ["law", "--spec", "theta", "--report", "N"])
        assert result.exit_code == 0
        assert result.output == f"N = {math.log(2):.17g}\n"
        result = runner.invoke(main, ["--json", "law", "--spec", "phieps:0.01"])
        assert result.exit_code == 0
        assert '"scale_factor_exact": null' in result.output

    def test_json_output(self, runner):
        result = runner.invoke(main, ["--json", "law", "--spec", "phi:2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["scale_factor"] == 0.5
        assert doc["scale_factor_exact"] == "1/2"
        assert doc["admissible"] is True

    def test_inadmissible_law_prints_its_report_then_exits_1(self, capsys, monkeypatch):
        # an extrapolated tail rises without bound, so the law is not bounded
        law = TabulatedLaw(grid=(0.5, 1.0, 2.0), samples=(0.2, 0.5, 1.0), tail="extrapolate")
        monkeypatch.setattr(cli, "parse_law_spec", lambda spec: law)
        code, out, err = _run(capsys, "--json", "law", "--spec", "tab")
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert doc["admissible"] is False
        assert doc["admissible_detail"][2].startswith("bounded: fail")
        code, out, err = _run(capsys, "law", "--spec", "tab")
        assert (code, err) == (1, "")
        assert out.splitlines() == [f"N = {doc['scale_factor']:.17g}", *doc["admissible_detail"]]

    def test_missing_spec_exits_2(self, runner):
        result = runner.invoke(main, ["law"])
        assert result.exit_code == 2
        assert "--spec" in result.output
        [line] = [ln for ln in runner.invoke(main, ["law", "--help"]).output.splitlines()
                  if "--spec" in ln]
        assert "[required]" in line

    def test_config_option_is_gone(self, runner):
        result = runner.invoke(main, ["--config", "f.json", "law", "--spec", "psi:2"])
        assert result.exit_code == 2
        assert "--config" in result.output


class TestMinprobCommand:
    def test_phi1_n8(self, runner):
        result = runner.invoke(main, ["minprob", "--law", "phi1", "--n", "8",
                                      "--starts", "8"])
        assert result.exit_code == 0
        row = result.output.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(7 * math.log(4), rel=1e-8)

    def test_phi3_period3_tag(self, runner):
        result = runner.invoke(main, ["minprob", "--law", "phi:3", "--n", "12",
                                      "--starts", "8"])
        assert result.exit_code == 0
        assert "period-3" in result.output

    def test_n_range_rows(self, runner):
        result = runner.invoke(main, ["minprob", "--law", "phi1", "--n", "4,6",
                                      "--starts", "2"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,value,value_per_n,winning_seed"
        assert len(lines) == 3

    def test_reversed_n_range_exits_2(self, runner):
        result = runner.invoke(main, ["minprob", "--law", "phi1", "--n", "16..8"])
        assert result.exit_code == 2
        assert "empty range" in result.output

    def test_non_integer_n_exits_2(self, runner):
        result = runner.invoke(main, ["minprob", "--law", "phi1", "--n", "abc"])
        assert result.exit_code == 2
        assert "--n" in result.output and "abc" in result.output

    @pytest.mark.parametrize("args, hint, message", [
        (["--law", "psi:2", "--n", "2"], "--n", "need n >= 4 for this law"),
        (["--law", "psi:2", "--n", "8,2"], "--n", "need n >= 4 for this law"),
        (["--law", "psi:2", "--n", "8", "--starts", "-1"], "--starts", "at least 0"),
        (["--law", "theta", "--n", "8"], "--law", "piecewise-constant law"),
    ])
    def test_bad_problem_exits_2(self, runner, args, hint, message):
        result = runner.invoke(main, ["minprob", *args])
        assert result.exit_code == 2
        assert hint in result.output and message in result.output

    def test_json_minimizer_dump(self, runner):
        result = runner.invoke(main, ["--json", "minprob", "--law", "phi1", "--n", "8",
                                      "--starts", "0", "--dump-minimizer"])
        assert result.exit_code == 0
        [row] = json.loads(result.output)
        lengths = json.loads(row["minimizer"])
        assert len(lengths) == 8 and min(lengths) >= 0.0
        assert math.fsum(lengths) == pytest.approx(1.0, abs=1e-12)
        assert minprob.log_cost(lengths, 1) == pytest.approx(row["value"], rel=1e-12)

    # rows the multi-start search printed before certified minima skipped it
    RECORDED = {
        "phi1": [(8, 9.704060527839234, "period-1", [0.125] * 8),
                 (12, 15.249237972318797, "period-1", [0.08333333333333333] * 12),
                 (16, 20.79441541679836, "period-1", [0.0625] * 16)],
        "phi:3": [(9, 2.772588722239781, "period-3", [0.3333333333333333, 0.0, 0.0] * 3),
                  (12, 4.1588830833596715, "period-3", [0.25, 0.0, 0.0] * 4),
                  (15, 5.545177444479562, "period-3", [0.2, 0.0, 0.0] * 5)],
    }

    @pytest.mark.parametrize("spec", sorted(RECORDED))
    def test_certified_sweep_reproduces_recorded_rows(self, runner, spec):
        ns = ",".join(str(row[0]) for row in self.RECORDED[spec])
        result = runner.invoke(main, ["--json", "minprob", "--law", spec, "--n", ns, *_SWEEP])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        assert [list(row) for row in rows] == [
            ["n", "value", "value_per_n", "winning_seed", "minimizer"]] * len(rows)
        for row, (n, value, seed, minimizer) in zip(rows, self.RECORDED[spec], strict=True):
            assert (row["n"], row["winning_seed"]) == (n, seed)
            assert row["minimizer"] == json.dumps(minimizer)
            assert row["value"] == pytest.approx(value, rel=1e-12, abs=0)


def _identity(u):
    return u


def _segment_one_level_low(u, delta):
    """segment, but a value on the lattice snaps one level below itself."""
    return StepFunction(u.breakpoints, [delta * (math.ceil(v / delta) - 1) for v in u.values])


def _segment_top_merged(u, delta, segment=stepfn.segment):
    """segment, then its top level merged into the level below; the default binds the
    real segment before a test patches it."""
    s = segment(u, delta)
    top = max(s.values)
    below = max((v for v in s.values if v < top), default=top - delta)
    return StepFunction(s.breakpoints, [below if v == top else v for v in s.values])


class TestVerifyCommand:
    @pytest.mark.parametrize("suite,count", [
        ("telescope", 300), ("rearrange", 60), ("domination", 2000), ("chain", 40),
    ])
    def test_suites_pass(self, runner, suite, count):
        result = runner.invoke(main, ["verify", suite, "--count", str(count),
                                      "--seed", "7"])
        assert result.exit_code == 0, result.output
        assert "min_margin" in result.output

    def test_deterministic_given_seed(self, runner):
        args = ["verify", "telescope", "--count", "100", "--seed", "11"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_zero_count_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "telescope", "--count", "0"])
        assert result.exit_code == 2
        assert "at least 1" in result.output

    def test_tolerance_option_is_gone(self, runner):
        result = runner.invoke(main, ["verify", "telescope", "--count", "5",
                                      "--tolerance", "1e-10"])
        assert result.exit_code == 2
        assert "--tolerance" in result.output

    # broken operators that lower no energy along the chain: each suite also checks
    # the operator's own properties, and a violation is a finite negative margin
    @pytest.mark.parametrize("suite,operator,fault,prop", [
        ("rearrange", "rearrange", _identity, "rearrange: nondecreasing"),
        ("chain", "rearrange", _identity, "rearrange: nondecreasing"),
        ("chain", "segment", _segment_one_level_low, "segment: above tu - delta"),
        ("chain", "segment", _segment_top_merged, "segment: above tu - delta"),
    ], ids=lambda x: getattr(x, "__name__", None))
    def test_broken_operator_fails_its_suite(self, runner, monkeypatch, suite, operator,
                                             fault, prop):
        monkeypatch.setattr(stepfn, operator, fault)
        result = runner.invoke(main, ["--json", "verify", suite, "--count", "200",
                                      "--seed", "1"])
        assert result.exit_code == 1, result.output
        doc = json.loads(result.output)
        assert -math.inf < doc["min_margin"] <= -0.5
        assert doc["witness"]["property"] == prop

    def test_failed_margin_prints_one_line_and_the_witness_on_stderr(self, capsys,
                                                                       monkeypatch):
        monkeypatch.setattr(stepfn, "rearrange", _identity)
        args = ("verify", "rearrange", "--count", "200", "--seed", "1")
        code, out, err = _run(capsys, "--json", *args)
        assert (code, err) == (1, "")
        doc = json.loads(out)
        code, out, err = _run(capsys, *args)
        assert code == 1
        assert out == f"suite=rearrange count=200 seed=1 min_margin={doc['min_margin']:.17g}\n"
        prefix, _, witness = err.partition(" ")
        assert prefix == "witness:" and err.count("\n") == 1
        assert json.loads(witness) == doc["witness"]


@pytest.mark.parametrize("args", [["minprob", "--law", "psi:2", "--n", "8"],
                                  ["verify", "telescope", "--count", "5"],
                                  ["bounds", "factor", "--law", "psi:2"]], ids=" ".join)
def test_negative_seed_exits_2(runner, args):
    result = runner.invoke(main, [*args, "--seed", "-1"])
    assert result.exit_code == 2
    assert "--seed" in result.output and "-1" in result.output


# Recorded from the suites drawing from random.Random(seed), which draw and sum
# their windows in Python: per suite, count and seed, the least margin, the
# first 16 hex digits of the SHA-256 of the witness as sorted-key JSON, and the
# generator's next uniform draw (which pins every draw the suite made, in order).
SEEDED_SUITES = [
    ("telescope", 100, 0, "0x0.0p+0", "264bf7d062a454ce", "0x1.f9a6ebaa16cd1p-1"),
    ("rearrange", 30, 0, "0x0.0p+0", "5d96a432070a9492", "0x1.6782c384af7ddp-1"),
    ("chain", 20, 0, "0x0.0p+0", "761d17a56116fc05", "0x1.6f1ff78eb8b9ep-2"),
    ("domination", 200, 0, "0x0.0p+0", "35bd8b41b7f64b73", "0x1.b0580f98a7dbep-1"),
    ("telescope", 100, 7, "0x0.0p+0", "531f53df21df06c3", "0x1.be0bf2cd99b99p-1"),
    ("rearrange", 30, 7, "0x0.0p+0", "d8dc37998b371a53", "0x1.e20b0cf4d3470p-1"),
    ("chain", 20, 7, "0x0.0p+0", "6b1ceb50c2626ff7", "0x1.376307f6cc733p-1"),
    ("domination", 200, 7, "0x0.0p+0", "35bd8b41b7f64b73", "0x1.4b9ad0f953a6ep-2"),
]

SUITE_FUNCTIONS = {
    "telescope": minprob.suite_telescope,
    "rearrange": energy.suite_rearrange,
    "chain": energy.suite_chain,
    "domination": bounds.suite_domination,
}


@pytest.mark.parametrize("suite,count,seed,margin,witness,next_draw", SEEDED_SUITES)
def test_seeded_suites_reproduce_recorded_output(runner, suite, count, seed, margin,
                                                 witness, next_draw):
    rng = random.Random(seed)
    worst, found = SUITE_FUNCTIONS[suite](rng, count)
    digest = hashlib.sha256(json.dumps(found, sort_keys=True).encode()).hexdigest()
    assert (float.hex(worst), digest[:16], float.hex(rng.random())) == (
        margin, witness, next_draw)
    result = runner.invoke(main, ["--json", "verify", suite, "--count", str(count),
                                  "--seed", str(seed)])
    assert result.exit_code == 0
    assert float.hex(json.loads(result.output)["min_margin"]) == margin


def test_emit_rows_quotes_cells_that_hold_a_comma_or_a_quote(capsys):
    ctx = SimpleNamespace(obj={"json": False})
    _emit_rows(ctx, ["a", "b", "c"], [["x,y", 'say "hi"', 1.5]])
    assert capsys.readouterr().out.splitlines() == ["a,b,c", '"x,y","say ""hi""",1.5']


def test_text_minimizer_dump_is_one_csv_field(capsys):
    code, text, _ = _run(capsys, "minprob", "--law", "psi:2", "--n", "8,12", "--starts", "2",
                         "--dump-minimizer")
    _, doc, _ = _run(capsys, "--json", "minprob", "--law", "psi:2", "--n", "8,12",
                     "--starts", "2", "--dump-minimizer")
    rows = list(csv.reader(io.StringIO(text)))
    assert code == 0 and [len(row) for row in rows] == [5, 5, 5]
    assert rows[0] == ["n", "value", "value_per_n", "winning_seed", "minimizer"]
    for row, want in zip(rows[1:], json.loads(doc)):
        assert json.loads(row[4]) == json.loads(want["minimizer"])
        assert len(json.loads(row[4])) == int(row[0])


def test_emit_rows_keeps_the_sign_of_infinity(capsys):
    ctx = SimpleNamespace(obj={"json": False})
    _emit_rows(ctx, ["name", "min_margin"], [["a", -math.inf], ["b", math.inf]])
    assert capsys.readouterr().out.splitlines() == ["name,min_margin", "a,-inf", "b,inf"]


def _value(text):
    """A printed CSV or text value read back: a bool, a number, or the text itself."""
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


class TestTextMatchesJson:
    """Each output shape prints the same values as text and as JSON."""

    def _both(self, capsys, *args):
        code, text, _ = _run(capsys, *args)
        code_json, doc, _ = _run(capsys, "--json", *args)
        assert code == code_json == 0
        return text.splitlines(), json.loads(doc)

    @pytest.mark.parametrize("args", [
        ["law", "--spec", "theta", "--probe", "0.5", "--probe", "1.5"],
        ["energy", "gd", "--dmax", "3"],
        ["minprob", "--law", "phi:3", "--n", "8..10"],
    ], ids=" ".join)
    def test_rows(self, capsys, args):
        lines, docs = self._both(capsys, *args)
        header, *rows = [line.split(",") for line in lines]
        assert docs == [dict(zip(header, map(_value, row))) for row in rows]

    def test_reports(self, capsys):
        lines, docs = self._both(capsys, "bounds", "psi", "--m", "1..3")
        assert [line.split() for line in lines] == [
            [d["law"], f"N={d['scale_factor']:.9g}", f"K>={d['k_lower']:.9g}"] for d in docs]

    def test_counterexample_doc(self, capsys):
        lines, doc = self._both(capsys, "bounds", "counterexample")
        assert doc == {key: _value(val) for key, val in (ln.split("=", 1) for ln in lines)}

    def test_factor_doc(self, capsys):
        lines, doc = self._both(capsys, "bounds", "factor", "--law", "psi:2", "--n-max", "8",
                                "--starts", "0")
        assert lines[0] == f"factor={doc['factor']:.17g}"
        assert [ln.strip().split(": ") for ln in lines[1:]] == [
            [s, format(c, ".17g")] for s, c in doc["chain"]]

    def test_law_doc(self, capsys):
        lines, doc = self._both(capsys, "law", "--spec", "psi:2")
        assert lines == [f"N = {doc['scale_factor_exact']} = {doc['scale_factor']:.17g}",
                         *doc["admissible_detail"]]


class TestBoundsCommand:
    def test_psi_table(self, runner):
        result = runner.invoke(main, ["bounds", "psi", "--m", "1..12"])
        assert result.exit_code == 0
        last = result.output.strip().splitlines()[-1]
        assert float(last.split("K>=")[1]) > 0.9

    def test_theta(self, runner):
        result = runner.invoke(main, ["--json", "bounds", "theta"])
        assert result.exit_code == 0
        doc = json.loads(result.output)[0]
        assert doc["k_lower"] == 1.0

    def test_zeta(self, runner, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"nodes": [[0, 0.0], [1, 1.0]]}))
        result = runner.invoke(main, ["--json", "bounds", "zeta", "--f", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)[0]["k_lower"] == 1.0

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_failed_certificate_prints_only_its_message(self, capsys, monkeypatch, fmt):
        # four times the package weight lifts the minorant above the ramp
        monkeypatch.setattr(bounds, "single_package_law",
                            lambda m: PackagedDyadicLaw((0,) * (m - 1) + (4,)))
        code, out, err = _run(capsys, *fmt, "bounds", "theta")
        assert (code, out) == (1, "")
        assert err.startswith("domination failed for package 2 at t=")
        assert err.count("\n") == 1

    def test_counterexample(self, runner):
        result = runner.invoke(main, ["--json", "bounds", "counterexample"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["c2_exact"] == "6/11"

    @pytest.mark.parametrize("m", ["0", "-2..3"])
    def test_psi_depth_below_1_exits_2(self, runner, m):
        result = runner.invoke(main, ["bounds", "psi", "--m", m])
        assert result.exit_code == 2
        assert "--m" in result.output and "at least 1" in result.output

    @pytest.mark.parametrize("eps", ["0", "-0.5", "1.5", "nan", "inf"])
    def test_counterexample_eps_outside_unit_interval_exits_2(self, runner, eps):
        result = runner.invoke(main, ["bounds", "counterexample", "--eps", eps])
        assert result.exit_code == 2
        assert "--eps" in result.output and "(0, 1]" in result.output

    def test_counterexample_eps_1_is_allowed(self, runner):
        assert runner.invoke(main, ["bounds", "counterexample", "--eps", "1"]).exit_code == 0

    def test_factor_text(self, runner):
        result = runner.invoke(main, ["bounds", "factor", "--law", "psi:2",
                                      "--n-max", "8", "--starts", "0"])
        assert result.exit_code == 0
        assert result.output.startswith("factor=")
        line = next(l for l in result.output.splitlines()
                    if l.strip().startswith("package-telescopic-bound:"))
        assert float(line.split(":")[1]) == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_factor_json(self, runner):
        result = runner.invoke(main, ["--json", "bounds", "factor", "--law", "psi:2",
                                      "--n-max", "8", "--starts", "0"])
        assert result.exit_code == 0
        chain = dict(json.loads(result.output)["chain"])
        assert chain["package-telescopic-bound"] == pytest.approx(2 * math.log(2), abs=1e-15)

    def test_factor_without_package_structure(self, runner):
        # pca:[1,0,1] has weights 0 and 1 in package 2: no telescopic bound
        result = runner.invoke(main, ["--json", "bounds", "factor", "--law", "pca:[1,0,1]",
                                      "--n-max", "8", "--starts", "2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [s for s, _ in doc["chain"]] == ["empirical-minimum-proxy"]
        assert doc["factor"] == doc["chain"][0][1] > 0

    @pytest.mark.parametrize("args, hint, message", [
        (["--law", "theta"], "--law", "piecewise-constant law"),
        (["--law", "psi:2", "--n-max", "3"], "--n-max", "need n >= 4 for this law"),
        (["--law", "phi:20"], "--n-max", "need n >= 21 for this law"),
        (["--law", "psi:2", "--starts", "-1"], "--starts", "at least 0"),
    ])
    def test_factor_bad_problem_exits_2(self, runner, args, hint, message):
        result = runner.invoke(main, ["bounds", "factor", *args])
        assert result.exit_code == 2
        assert hint in result.output and message in result.output


@pytest.mark.parametrize("args, code, named", [
    ("bounds factor --law pca:[1e200,1e200]", 0, "factor="),
    ("law --spec pca:[1e308,1e308]", 2, "weights must sum"),
    ("minprob --law pca:[1e308,1e308] --n 4", 2, "weights must sum"),
    ("energy pointwise --law phi1 --u linear --deltas 1e-1 --tol 1e-15", 2, "--tol"),
])
def test_extreme_inputs_end_in_an_answer_or_one_error(runner, args, code, named):
    # a search whose slope overflows once hung, and the other three ended in a traceback
    result = runner.invoke(main, args.split())
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert named in result.output


class TestEnergyCommand:
    def test_gd_table(self, runner):
        result = runner.invoke(main, ["energy", "gd", "--dmax", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[1].startswith("1,2,exact")
        assert lines[2].startswith("2,4,exact")

    @pytest.mark.parametrize("dmax", ["0", "-3"])
    def test_gd_dmax_below_1_exits_2(self, runner, dmax):
        result = runner.invoke(main, ["energy", "gd", "--dmax", dmax])
        assert result.exit_code == 2
        assert "--dmax" in result.output and "d," not in result.output

    def test_step_sweep_emits_inf_literal(self, runner, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(
            {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 2.0]}))
        result = runner.invoke(main, ["energy", "step", "--law", "phi1",
                                      "--u", str(path), "--deltas", "1.0"])
        assert result.exit_code == 0
        assert ",inf," in result.output

    def test_step_sweep_single_delta_range_gives_one_row(self, runner, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(
            {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 0.05]}))
        result = runner.invoke(main, ["energy", "step", "--law", "phi1",
                                      "--u", str(path), "--deltas", "1e-1..1e-1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("0.10000000000000001,")

    def test_step_reads_csv_like_json(self, runner, tmp_path):
        # a CSV row is a breakpoint and the value to its right; the last value is empty
        csv_path, json_path = tmp_path / "u.csv", tmp_path / "u.json"
        csv_path.write_text("# x,value\n0,0\n1,0.05\n2.5,0.15\n4,\n")
        json_path.write_text(json.dumps(
            {"breakpoints": [0.0, 1.0, 2.5, 4.0], "values": [0.0, 0.05, 0.15]}))
        outputs = [runner.invoke(main, ["energy", "step", "--law", "psi:2", "--u", str(path),
                                        "--deltas", "0.1,0.05"])
                   for path in (csv_path, json_path)]
        assert [r.exit_code for r in outputs] == [0, 0]
        assert outputs[0].output == outputs[1].output
        assert len(outputs[0].output.splitlines()) == 3

    @pytest.mark.parametrize("text, count", [("1e-1..1e-3", 5), ("1e-1..1e-2", 3)])
    def test_delta_range_is_bitwise_geomspace(self, text, count):
        a, b = (float(x) for x in text.split(".."))
        want = [float(x).hex() for x in np.geomspace(a, b, count)]
        assert [x.hex() for x in delta_sweep(text)] == want

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where", ["breakpoint", "value"])
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_step_non_finite_input_exits_2(self, runner, tmp_path, bad, where, suffix):
        xs, vs = ["0", "1", "2", "3"], ["0", "0.3", "0.6"]
        (xs if where == "breakpoint" else vs)[1] = bad
        path = tmp_path / f"u{suffix}"
        if suffix == ".json":
            path.write_text(f'{{"breakpoints": [{", ".join(xs)}], "values": [{", ".join(vs)}]}}')
        else:
            path.write_text("".join(f"{x},{v}\n" for x, v in zip(xs, vs + [""])))
        result = runner.invoke(main, ["energy", "step", "--law", "psi:2", "--u", str(path),
                                      "--deltas", "0.5"])
        assert result.exit_code == 2, result.output
        assert "--u" in result.output and "finite" in result.output

    def test_step_non_json_file_exits_2(self, runner, tmp_path):
        path = tmp_path / "u.json"
        path.write_text("not json")
        result = runner.invoke(main, ["energy", "step", "--law", "phi1",
                                      "--u", str(path)])
        assert result.exit_code == 2
        assert "--u" in result.output

    @pytest.mark.parametrize("deltas", ["0..1e-3", "0", "1e-2,-1e-3", "1e-1..inf"])
    def test_pointwise_non_positive_delta_exits_2(self, runner, deltas):
        result = runner.invoke(main, ["energy", "pointwise", "--law", "phi1",
                                      "--deltas", deltas])
        assert result.exit_code == 2
        assert "--deltas" in result.output and "positive" in result.output

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_pointwise_bad_tol_exits_2(self, runner, tol):
        result = runner.invoke(main, ["energy", "pointwise", "--law", "phi1",
                                      "--tol", tol])
        assert result.exit_code == 2
        assert "--tol" in result.output and "positive" in result.output

    def test_pointwise_phi1_linear_default_sweep(self, runner):
        # every row within its estimate of 2 (1 - delta + delta log delta)
        result = runner.invoke(main, ["--json", "energy", "pointwise", "--law", "phi1",
                                      "--u", "linear"])
        assert result.exit_code == 0
        rows = json.loads(result.output)
        deltas = [row["delta"] for row in rows]
        assert deltas == pytest.approx([10.0 ** (-1 - i / 2) for i in range(5)], rel=1e-12)
        for row, d in zip(rows, deltas):
            exact = 2.0 * (1.0 - d + d * math.log(d))
            assert abs(row["value"] - exact) <= row["error_estimate"]
            assert row["error_estimate"] <= 1e-3 * max(1.0, row["value"])

    def test_pointwise_bump_profile(self, runner):
        # sin^2(pi x) on [0, 1], of total variation 2
        result = runner.invoke(main, ["--json", "energy", "pointwise", "--law", "theta",
                                      "--u", "bump", "--deltas", "1e-1"])
        assert result.exit_code == 0
        [row] = json.loads(result.output)
        want = energy.lambda_quad(AffineThetaLaw(), lambda x: np.sin(np.pi * x) ** 2,
                                  (0.0, 1.0), 0.1)
        assert row["value"] == want.value and row["error_estimate"] == want.error_estimate
        assert row["ratio"] == want.value / (2.0 * math.log(2) * 2.0)

    # the benchmark's pointwise rows as the one-threshold crossing kernel printed them:
    # (law, profile, --deltas, [(delta, value, error_estimate)])
    POINTWISE_ROWS = [
        ("phi1", "bump", "1e-1..1e-2", [
            (0.1, 3.41880328327493, 0.00014320628710305422),
            (0.03162277660168379, 3.783808012830574, 0.00014629953794938137),
            (0.01, 3.920646474165244, 0.00014361571693552366)]),
        ("theta", "bump", "1e-1..1e-3", [
            (0.1, 2.222990472566682, 0.0001037313162317968),
            (0.03162277660168379, 2.567566061696468, 0.00010325033078930486),
            (0.01, 2.696969313092397, 0.00010286576501991013),
            (0.0031622776601683794, 2.7451101572288334, 8.656398806106056e-05),
            (0.001, 2.762744283470127, 6.62481711458718e-05)]),
        ("theta", "linear", "1e-1..1e-3", [
            (0.1, 0.8030362147450595, 1.2591382474335046e-12),
            (0.03162277660168379, 1.1290378064785376, 1.3029726979401104e-12),
            (0.01, 1.281916844622526, 1.322129389180023e-12),
            (0.0031622776601683794, 1.3460058788553315, 1.3298595580244332e-12),
            (0.001, 1.3712514392841653, 1.3327296459560973e-12)]),
        ("phi1", "linear", "1e-1", [(0.1, 1.3394829814011915, 1.5272567354727374e-13)]),
    ]

    @pytest.mark.parametrize("spec, profile, deltas, rows", POINTWISE_ROWS,
                             ids=[" ".join(r[:2]) for r in POINTWISE_ROWS])
    def test_pointwise_benchmark_rows_are_pinned(self, runner, spec, profile, deltas, rows):
        result = runner.invoke(main, ["--json", "energy", "pointwise", "--law", spec,
                                      "--u", profile, "--deltas", deltas, "--tol", "0.001"])
        assert result.exit_code == 0
        got = [(r["delta"], r["value"], r["error_estimate"]) for r in json.loads(result.output)]
        assert got == [pytest.approx(row, rel=1e-9, abs=0) for row in rows]

    def test_pointwise_ratio_column(self, runner):
        result = runner.invoke(main, ["energy", "pointwise", "--law", "phi1",
                                      "--u", "linear", "--deltas", "1e-1,3e-2"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        r1 = float(lines[1].split(",")[-1])
        r2 = float(lines[2].split(",")[-1])
        assert 0 < r1 < r2 < 1.0
