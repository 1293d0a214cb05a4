import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import bvgamma
from bvgamma.cli import main, parse_law_spec
from bvgamma.laws import (
    AffineThetaLaw,
    DyadicAffineLaw,
    ModelLaw,
    PackagedDyadicLaw,
    PiecewiseConstantLaw,
    QuadraticHeadLaw,
)


@pytest.fixture
def runner():
    return CliRunner()


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded by the commands that need it, not at start-up
    src = str(Path(bvgamma.__file__).resolve().parents[1])
    code = ("import sys; import bvgamma.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("user_value", [None, "2"])
def test_cli_pins_scipy_blas_threads_unless_set(user_value):
    # the pin must be in place before scipy loads its OpenBLAS; a pinned
    # OpenBLAS starts no threads of its own
    src = str(Path(bvgamma.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    code = ("import os\n"
            "def threads():\n"
            "    if not os.path.exists('/proc/self/status'):\n"
            "        return 0\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('Threads:'))\n"
            "import bvgamma.cli\n"
            "before = threads()\n"
            "import scipy.optimize\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], threads() - before)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=60)
    value, added = out.stdout.split()
    if user_value is None:
        assert (value, added) == ("1", "0")
    else:
        assert value == user_value


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

    def test_json_output(self, runner):
        result = runner.invoke(main, ["--json", "law", "--spec", "phi:2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["scale_factor"] == 0.5
        assert doc["scale_factor_exact"] == "1/2"
        assert doc["admissible"] is True


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

    def test_counterexample(self, runner):
        result = runner.invoke(main, ["--json", "bounds", "counterexample"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["c2_exact"] == "6/11"


class TestEnergyCommand:
    def test_gd_table(self, runner):
        result = runner.invoke(main, ["energy", "gd", "--dmax", "3"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[1].startswith("1,2,exact")
        assert lines[2].startswith("2,4,exact")

    def test_step_sweep_emits_inf_literal(self, runner, tmp_path):
        path = tmp_path / "u.json"
        path.write_text(json.dumps(
            {"breakpoints": [0.0, 1.0, 2.0], "values": [0.0, 2.0]}))
        result = runner.invoke(main, ["energy", "step", "--law", "phi1",
                                      "--u", str(path), "--deltas", "1.0"])
        assert result.exit_code == 0
        assert ",inf," in result.output

    def test_pointwise_ratio_column(self, runner):
        result = runner.invoke(main, ["energy", "pointwise", "--law", "phi1",
                                      "--u", "linear", "--deltas", "1e-1,3e-2"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        r1 = float(lines[1].split(",")[-1])
        r2 = float(lines[2].split(",")[-1])
        assert 0 < r1 < r2 < 1.0

    def test_config_file_supplies_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": "phi1"}))
        result = runner.invoke(main, ["--config", str(cfg), "law", "--report", "N"])
        assert result.exit_code == 0
        assert "N = 1" in result.output
