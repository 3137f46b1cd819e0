import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reinsgame
from reinsgame.cli import _emit, main
from reinsgame.expo import constrained_equilibrium
from reinsgame.simulate import SimConfig, simulate
from reinsgame.valuation import equilibrium_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestEquilibriumCommand:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(capsys, "--command", "equilibrium")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "t"
        row = rows[0]
        assert float(row["xi1"]) == pytest.approx(0.28269, abs=5e-5)
        assert float(row["xi2"]) == pytest.approx(0.38225, abs=5e-5)
        assert float(row["q"]) == pytest.approx(0.2825, abs=5e-4)
        assert float(row["d"]) == pytest.approx(2.3936, abs=5e-4)
        assert float(row["cap"]) == pytest.approx(0.6761, abs=5e-4)
        assert float(row["retention_limit"]) == pytest.approx(1.7175, abs=5e-4)
        assert row["regime"] == "Interior"
        assert abs(float(row["foc_r1"])) < 1e-8
        assert abs(float(row["foc_r2"])) < 1e-8

    def test_corner_config(self, capsys, tmp_path):
        cfg = tmp_path / "corner.cfg"
        cfg.write_text("beta = 0.2\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "--command", "equilibrium")
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0]["regime"] == "UpperRight"
        assert float(rows[0]["xi1"]) == pytest.approx(0.18, abs=1e-9)
        assert float(rows[0]["xi2"]) == pytest.approx(0.9, abs=1e-9)

    def test_json_format_mirrors_csv(self, capsys):
        code, out_csv, _ = run_cli(capsys, "--command", "equilibrium")
        code2, out_json, _ = run_cli(capsys, "--command", "equilibrium",
                                     "--format", "json")
        assert code == code2 == 0
        header, rows = parse_csv(out_csv)
        objs = json.loads(out_json)
        assert list(objs[0].keys()) == header
        assert objs[0]["xi1"] == pytest.approx(float(rows[0]["xi1"]), rel=1e-8)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "eq.csv"
        code, out, _ = run_cli(capsys, "--command", "equilibrium",
                               "--out", str(out_path))
        assert code == 0
        assert out_path.read_text() == out


class TestConfigErrors:
    def test_malformed_line_names_lineno(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("beta = 1.0\nthis is not a config line\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "--command", "equilibrium")
        assert code == 2
        assert ":2:" in err

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("betta = 1.0\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "--command", "equilibrium")
        assert code == 2
        assert "betta" in err

    def test_removed_bound_convention_key(self, capsys, tmp_path):
        # the xi1 box has one convention, so the key that chose it is unknown
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bound_convention = section4\n")
        code, out, err = run_cli(capsys, "--config", str(cfg), "--command", "equilibrium")
        assert code == 2
        assert "unknown parameter 'bound_convention'" in err
        assert out == ""

    def test_invalid_parameter_value(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma_I = -1.0\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "--command", "equilibrium")
        assert code == 2
        assert "gamma_I" in err

    def test_bad_grid_spec(self, capsys):
        code, _, err = run_cli(capsys, "--command", "sweep", "--param", "beta",
                               "--grid", "oops")
        assert code == 2

    @pytest.mark.parametrize("argv,named", [
        (("--command", "sweep", "--param", "mu", "--grid", "0:4:3"), ("mu", "got 0")),
        (("--command", "sweep", "--param", "beta", "--grid=-1:1:3"), ("beta", "got -1")),
        (("--command", "trajectory", "--grid", "0:9:3"), ("--grid", "0:9:3")),
        (("--command", "trajectory", "--grid", "0:nan:3"), ("--grid", "finite", "0:nan:3")),
        (("--command", "trajectory", "--grid", "0:inf:3"), ("--grid", "finite", "0:inf:3")),
        (("--command", "simulate", "--paths", "0"), ("--paths 0", "at least one path")),
        (("--command", "simulate", "--paths", "-3"), ("--paths -3", "at least one path")),
        (("--command", "simulate", "--paths", "1"), ("--paths 1:", "at least 2 paths")),
        (("--command", "simulate", "--seed", "-1"), ("--seed -1", "64-bit")),
    ], ids=["mu_zero", "beta_negative", "trajectory_past_horizon", "trajectory_nan_grid_end",
            "trajectory_infinite_grid_end", "simulate_zero_paths",
            "simulate_negative_paths", "simulate_one_path", "simulate_negative_seed"])
    def test_value_outside_domain(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("config error:")
        assert all(text in err for text in named)
        assert out == ""

    @pytest.mark.parametrize("line,named", [("beta = 0", "beta"), ("rho_I = -0.1", "-0.1"),
                                            ("t = 9", "t = 9")])
    def test_config_value_outside_domain(self, capsys, tmp_path, line, named):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "--command", "equilibrium")
        assert code == 2
        assert err.startswith("config error:") and named in err

    @pytest.mark.parametrize("argv", [
        ("--command", "equilibrium", "--out"),
        ("--command", "simulate", "--paths", "100", "--samples-out"),
    ], ids=["out", "samples_out"])
    def test_unwritable_output_path(self, capsys, tmp_path, argv):
        # the results reach stdout first; the file that cannot be written is a bad setting
        target = str(tmp_path / "missing_dir" / "x.csv")
        code, out, err = run_cli(capsys, *argv, target)
        assert code == 2
        assert err.startswith("config error:") and argv[-1] in err and target in err
        assert out.startswith("t," if "--out" in argv else "party,")


class TestExtremeConfigs:
    """Non-finite and extreme finite parameters end in a typed error in bounded time.

    Each runs in its own process under a 10 s timeout: unchecked, gamma_R1 = 1e400
    (an infinite coefficient) and C_R2 = inf (a root bracket with an infinite end)
    never finish."""

    @pytest.mark.parametrize("text,argv,codes", [
        ("gamma_R1 = 1e400", ("trajectory",), {2}),
        ("lambda = 1e400", ("simulate", "--paths", "10"), {2}),
        ("gamma_I = 1e-300\ngamma_R2 = 1e300", ("trajectory",), {2, 3}),
        ("gamma_I = 1e-300\ngamma_R2 = 1e300", ("equilibrium",), {2, 3}),
        ("gamma_I = 1e300\ngamma_R1 = 1e-300", ("equilibrium",), {2, 3}),
        ("gamma_I = 1e300\ngamma_R1 = 1e-300", ("trajectory",), {2, 3}),
        ("gamma_R1 = 1e300\ngamma_R2 = 1e-300", ("equilibrium",), {2, 3}),
        ("gamma_R1 = 1e300\ngamma_R2 = 1e-300", ("trajectory",), {2, 3}),
    ], ids=["infinite_gamma_r1", "infinite_lambda", "c_r2_overflow_trajectory",
            "c_r2_overflow_equilibrium", "c_r1_underflow_equilibrium",
            "c_r1_underflow_trajectory", "c_r1_huge_equilibrium", "c_r1_huge_trajectory"])
    def test_typed_error_within_10_s(self, tmp_path, text, argv, codes):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text + "\n")
        env = dict(os.environ, PYTHONPATH=str(Path(reinsgame.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "reinsgame.cli", "--config", str(cfg),
                               "--command", *argv], capture_output=True, text=True,
                              timeout=10, env=env)
        assert done.returncode in codes
        assert done.stdout == ""
        assert re.fullmatch(r"(config|solver) error: [^\n]+\n", done.stderr)


@pytest.fixture(scope="module")
def trajectory():
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["--command", "trajectory", "--grid", "0:8:41"])
    assert code == 0
    return parse_csv(buf.getvalue())


class TestTrajectoryCommand:

    def test_excess_price_endpoints(self, trajectory):
        _, rows = trajectory
        assert float(rows[0]["p2"]) == pytest.approx(0.1262, abs=1.5e-3)
        assert float(rows[-1]["p2"]) == pytest.approx(0.1070, abs=1.5e-3)

    def test_loadings_nonincreasing(self, trajectory):
        _, rows = trajectory
        xi1 = [float(r["xi1"]) for r in rows]
        xi2 = [float(r["xi2"]) for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(xi1, xi1[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(xi2, xi2[1:]))

    def test_terminal_row(self, trajectory):
        _, rows = trajectory
        last = rows[-1]
        assert float(last["t"]) == 8.0
        for col in ("B_I", "B_R1", "B_R2"):
            assert float(last[col]) == 0.0
        # t = T equilibrium uses accumulation factor 1
        assert float(last["xi1"]) == pytest.approx(0.1270215, abs=1e-6)
        assert float(last["xi2"]) == pytest.approx(0.1717548, abs=1e-6)

    def test_ceded_share_stable(self, trajectory):
        _, rows = trajectory
        for r in rows:
            assert float(r["q"]) == pytest.approx(0.2825, abs=5e-4)

    def test_proportional_price_decreasing_in_band(self, trajectory):
        _, rows = trajectory
        p1 = [float(r["p1"]) for r in rows]
        assert all(a > b for a, b in zip(p1, p1[1:]))
        assert all(0.2 <= v <= 0.35 for v in p1)

    def test_intercepts_equal_scalar_calls(self, capsys, base_params, eq_path):
        # 16 of the 81 default rows and every row of --grid 0:8:7 lie between the
        # Simpson nodes; the one array call, which profiles their panels with the
        # nodes, must print what one scalar call per row gives, bit for bit
        from reinsgame.valuation import PARTIES, value_intercepts
        for grid, n_rows in (((), 81), (("--grid", "0:8:7"), 7)):
            code, out, _ = run_cli(capsys, "--command", "trajectory", *grid, "--format", "json")
            assert code == 0
            rows = json.loads(out)
            assert len(rows) == n_rows
            scalar = np.array([value_intercepts(eq_path, base_params, r["t"]) for r in rows])
            printed = np.array([[r[f"B_{party}"] for party in PARTIES] for r in rows])
            assert printed.tobytes() == scalar.tobytes()

    def test_premium_rates_equal_the_full_solve(self, capsys, base_params):
        # the CLI reads premium_rates at the printed rows alone; they must equal the
        # rates of the whole 882-time solve, sliced to those rows
        from reinsgame.market import premium_rates
        code, out, _ = run_cli(capsys, "--command", "trajectory", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        times = np.linspace(0.0, base_params.T, 801)
        times = np.concatenate([times, np.linspace(0.0, base_params.T, 81)])
        eq = constrained_equilibrium(base_params, times)
        p1, p2 = premium_rates(eq.point(), eq.response, base_params)
        printed = np.array([[r["p1"], r["p2"]] for r in rows])
        assert printed.tobytes() == np.column_stack([p1[801:], p2[801:]]).tobytes()


class TestSweepCommand:
    def test_mu_sweep_regime_transitions(self, capsys):
        code, out, _ = run_cli(capsys, "--command", "sweep", "--param", "mu",
                               "--grid", "0.2:3.4:33")
        assert code == 0
        _, rows = parse_csv(out)
        regimes = {float(r["mu"]): r["regime"] for r in rows}
        assert regimes[0.2] == "LowerLeft"
        assert regimes[0.3] == "Xi1FloorOnly"
        assert regimes[1.0] == "Interior"
        assert regimes[2.5] == "Xi2CapOnly"
        assert regimes[3.3] == "UpperRight"

    def test_gamma_r1_sweep_raises_xi1(self, capsys):
        code, out, _ = run_cli(capsys, "--command", "sweep", "--param", "gamma_R1",
                               "--grid", "0.05:0.2:7")
        assert code == 0
        _, rows = parse_csv(out)
        xi1 = [float(r["xi1"]) for r in rows]
        assert all(a < b for a, b in zip(xi1, xi1[1:]))

    def test_rho_i_sweep_moves_contract(self, capsys):
        code, out, _ = run_cli(capsys, "--command", "sweep", "--param", "rho_I",
                               "--grid", "0.05:0.2:7")
        assert code == 0
        _, rows = parse_csv(out)
        q = [float(r["q"]) for r in rows]
        d = [float(r["d"]) for r in rows]
        assert all(a < b for a, b in zip(q, q[1:]))
        assert all(a > b for a, b in zip(d, d[1:]))

    def test_gamma_r2_sweep_solves_every_row(self, capsys):
        # large gamma_R2 puts R2's relative risk aversion C_R2 above 10
        code, out, _ = run_cli(capsys, "--command", "sweep", "--param", "gamma_R2",
                               "--grid", "0.5:4:8")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 8

    def test_sweep_requires_param(self, capsys):
        code, _, err = run_cli(capsys, "--command", "sweep", "--grid", "0.5:2:4")
        assert code == 2

    def test_unknown_param_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--command", "sweep", "--param", "x0_I",
                               "--grid", "0.5:2:4")
        assert code == 2


def _fmt(value) -> str:  # the CSV cell format of earlier versions, one call per value
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


class TestOutputContract:
    @pytest.mark.parametrize("rows", [
        [[v] for v in (np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 1.0, -7.25)],
        [[np.float64(v), np.float64(-v)] for v in (np.nan, np.inf, 0.0, 5e-324, 1e300, 0.1)],
        [["I", 0.1, 3, np.float64(2.5)], ["R1", -0.0, -4, np.float64(np.nan)],
         ["LowerLeft", 1e300, 0, np.float64(5e-324)]],
    ], ids=["floats", "float64", "mixed"])
    def test_csv_rows_equal_the_per_value_format(self, capsys, rows):
        columns = [f"c{i}" for i in range(len(rows[0]))]
        _emit(columns, rows, "csv", None)
        expected = [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_csv_nine_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "--command", "equilibrium")
        _, rows = parse_csv(out)
        val = rows[0]["xi1"]
        assert re.fullmatch(r"-?\d+\.\d+", val)
        assert len(val.replace("-", "").replace(".", "").lstrip("0")) == 9
        assert "," not in val

    def test_reruns_byte_identical(self, capsys):
        _, a, _ = run_cli(capsys, "--command", "sweep", "--param", "beta",
                          "--grid", "0.5:2:7")
        _, b, _ = run_cli(capsys, "--command", "sweep", "--param", "beta",
                          "--grid", "0.5:2:7")
        assert a == b


class TestSimulateCommand:
    def test_estimates_and_sample_dump(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        code, out, _ = run_cli(capsys, "--command", "simulate", "--paths", "200",
                               "--seed", "42", "--samples-out", str(dump))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["party", "mean", "variance", "j", "se_mean",
                          "se_variance", "se_j"]
        assert [r["party"] for r in rows] == ["I", "R1", "R2"]
        lines = dump.read_text().splitlines()
        assert lines[0] == "path,x_I,x_R1,x_R2"
        assert len(lines) == 201
        samples = simulate(equilibrium_path(reinsgame.default_market_params()),
                           reinsgame.default_market_params(), SimConfig(paths=200, seed=42))
        assert lines[1:] == [f"{i},{_fmt(a)},{_fmt(b)},{_fmt(c)}" for i, (a, b, c)
                             in enumerate(zip(samples.x_i, samples.x_r1, samples.x_r2))]

    def test_seed_changes_output(self, capsys):
        _, a, _ = run_cli(capsys, "--command", "simulate", "--paths", "100",
                          "--seed", "1")
        _, b, _ = run_cli(capsys, "--command", "simulate", "--paths", "100",
                          "--seed", "2")
        _, a2, _ = run_cli(capsys, "--command", "simulate", "--paths", "100",
                           "--seed", "1")
        assert a != b
        assert a == a2


class TestPiecewiseRateConfig:
    def test_segment_list_curve(self, capsys, tmp_path):
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("rho_I = [(0, 0.1), (4, 0.2)]\n# comment line\n")
        code, out, _ = run_cli(capsys, "--config", str(cfg), "--command",
                               "equilibrium")
        assert code == 0
        _, rows = parse_csv(out)
        # steeper insurer accumulation raises both equilibrium loadings
        assert float(rows[0]["xi1"]) > 0.28269
        assert float(rows[0]["xi2"]) > 0.38225


class TestValidateCommand:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--command", "validate")
        assert code == 0
        summary = json.loads(out)
        assert summary["passed"] is True
        assert len(summary["checks"]) >= 8
        # no setting scales the gates, so the summary reports none
        assert "tolerance_scale" not in summary

    def test_every_check_reports_its_wall_time(self, capsys):
        _, out, _ = run_cli(capsys, "--command", "validate")
        for check in json.loads(out)["checks"]:
            assert isinstance(check["seconds"], float), check["name"]
            assert check["seconds"] >= 0.0, check["name"]

    def test_a_non_exponential_law_raises_domain_error(self, base_params):
        # the suite's closed forms need exponential claims; this was a bare ValueError
        from reinsgame import GenericClaims
        from reinsgame.errors import DomainError
        from reinsgame.validate import run_checks
        params = dataclasses.replace(base_params, claims=GenericClaims(
            lambda y: min(max(y / 2.0, 0.0), 1.0)))
        with pytest.raises(DomainError, match="exponential claims, got GenericClaims"):
            run_checks(params, 0.0)

    def test_foc_cross_check_catches_an_off_reply(self, base_params, monkeypatch):
        # R1's reply mapped back through the closed-form h1: a reply off by 1e-4
        # relative fails, which reaction_xi1 against h1_inv, the same solve, cannot see
        from reinsgame import reaction, validate
        assert validate.check_foc_cross(base_params, 0.0).passed
        solve = reaction.reaction_xi1
        monkeypatch.setattr(reaction, "reaction_xi1", lambda *a: solve(*a) * (1.0 + 1e-4))
        assert not validate.check_foc_cross(base_params, 0.0).passed


class TestRuntimeDependencies:
    def test_no_scipy_module_is_loaded(self):
        # in a fresh interpreter: this one has scipy loaded as the tests' reference
        script = Path(__file__).with_name("no_scipy_check.py")
        env = dict(os.environ, PYTHONPATH=str(Path(reinsgame.__file__).parents[1]))
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "no scipy module loaded\n"
