import argparse

import numpy as np
import pytest

from ddopf import ipm
from ddopf.cli import build_parser, main
from ddopf.grid import save_grid
from ddopf.microgrid import default_config, default_grid, save_config
from ddopf.opf import VARIANTS


@pytest.fixture()
def grid_file(tmp_path):
    path = tmp_path / "grid.yaml"
    save_grid(default_grid(), path)
    return path


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "microgrid.yaml"
    save_config(default_config(), path)
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestGenerateData:
    def test_per_edge_certificate(self, grid_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["generate-data", "--grid", grid_file, "--samples", 9, "--seed", 3, "--out", out])
        assert code == 0
        captured = capsys.readouterr().out
        assert "PE: rank 9/9" in captured
        assert out.exists()
        assert len(out.read_text().splitlines()) == 10  # header + 9 samples

    def test_all_pairs_certificate(self, grid_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run([
            "generate-data", "--grid", grid_file, "--samples", 21, "--seed", 3,
            "--mode", "all-pairs", "--out", out,
        ])
        assert code == 0
        assert "PE: rank 21/21" in capsys.readouterr().out

    def test_too_few_samples_fails(self, grid_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["generate-data", "--grid", grid_file, "--samples", 8, "--out", out])
        assert code == 1
        assert "error" in capsys.readouterr().err


def make_data(grid_file, tmp_path, mode="per-edge", n=9):
    out = tmp_path / f"traj_{mode}.csv"
    assert run([
        "generate-data", "--grid", grid_file, "--samples", n, "--seed", 5,
        "--mode", mode, "--out", out,
    ]) == 0
    return out


class TestParser:
    def test_variant_choices_are_the_package_variants(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        for command in ("solve-opf", "run-mpc"):
            flag = next(a for a in sub.choices[command]._actions if a.dest == "variant")
            assert tuple(flag.choices) == VARIANTS

    def test_no_objective_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve-opf", "--grid", "g.yaml", "--out", "o.csv", "--objective", "losses"]
            )
        assert "unrecognized arguments: --objective" in capsys.readouterr().err


class TestSolveOpf:
    def test_convex_dd_solution_file(self, grid_file, tmp_path, capsys):
        data = make_data(grid_file, tmp_path)
        out = tmp_path / "solution.csv"
        code = run([
            "solve-opf", "--grid", grid_file, "--data", data, "--variant", "dd-convex",
            "--demand", "5=0.4", "--out", out,
        ])
        assert code == 0
        txt = capsys.readouterr().out
        assert "max tightness residual" in txt
        body = out.read_text()
        for key in ("objective", "p_e", "p_g", "theta", "phi", "alpha", "tightness"):
            assert key in body

    def test_reference_vs_convex_agree(self, grid_file, tmp_path):
        data = make_data(grid_file, tmp_path)
        out_ref = tmp_path / "ref.csv"
        out_dd = tmp_path / "dd.csv"
        assert run(["solve-opf", "--grid", grid_file, "--variant", "reference",
                    "--demand", "5=0.5", "--out", out_ref]) == 0
        assert run(["solve-opf", "--grid", grid_file, "--data", data, "--variant", "dd-convex",
                    "--demand", "5=0.5", "--out", out_dd]) == 0

        def read_pe(path):
            vals = {}
            for line in path.read_text().splitlines()[1:]:
                q, label, v = line.split(",")
                if q == "p_e":
                    vals[label] = float(v)
            return vals

        ref, dd = read_pe(out_ref), read_pe(out_dd)
        for label in ref:
            assert dd[label] == pytest.approx(ref[label], abs=1e-4)

    def test_generalized_with_per_edge_data_is_dimension_error(self, grid_file, tmp_path, capsys):
        data = make_data(grid_file, tmp_path)
        out = tmp_path / "solution.csv"
        code = run([
            "solve-opf", "--grid", grid_file, "--data", data,
            "--variant", "dd-generalized", "--out", out,
        ])
        assert code == 5

    def test_infeasible_demand_exit_code(self, grid_file, tmp_path):
        code = run([
            "solve-opf", "--grid", grid_file, "--variant", "reference",
            "--demand", "5=9.0", "--cap", "1.0", "--out", tmp_path / "x.csv",
        ])
        assert code == 2


class TestRunMpc:
    def test_short_run_writes_outputs(self, grid_file, config_file, tmp_path, capsys):
        data = make_data(grid_file, tmp_path)
        out_dir = tmp_path / "run"
        code = run([
            "run-mpc", "--config", config_file, "--grid", grid_file, "--data", data,
            "--profiles", "seed:4", "--variant", "dd-convex", "--steps", 6,
            "--out-dir", out_dir,
        ])
        assert code == 0
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "solve_times.csv").exists()
        kpis = (out_dir / "kpis.csv").read_text()
        assert "mean_unit_running_cost" in kpis
        assert "mean_transmission_loss_cost" in kpis

    def test_missing_config_key_names_it(self, grid_file, tmp_path, capsys):
        import yaml

        cfg_path = tmp_path / "bad.yaml"
        save_config(default_config(), cfg_path)
        doc = yaml.safe_load(cfg_path.read_text())
        del doc["beta"]
        cfg_path.write_text(yaml.safe_dump(doc))
        code = run([
            "run-mpc", "--config", cfg_path, "--grid", grid_file,
            "--profiles", "seed:1", "--variant", "reference", "--steps", 2,
            "--out-dir", tmp_path / "run",
        ])
        assert code == 4
        assert "beta" in capsys.readouterr().err

    def test_trivial_single_step_kpis(self, grid_file, tmp_path):
        import yaml

        cfg = default_config()
        cfg.x_soft_min = np.array([0.0, 0.0])
        cfg.delta_init = np.array([0.0, 0.0])
        cfg_path = tmp_path / "cfg.yaml"
        save_config(cfg, cfg_path)
        profiles_path = tmp_path / "profiles.csv"
        rows = ["k,wd_1,wr_1,wr_2"] + [f"{k},0,0,0" for k in range(8)]
        profiles_path.write_text("\n".join(rows) + "\n")
        out_dir = tmp_path / "run1"
        code = run([
            "run-mpc", "--config", cfg_path, "--grid", grid_file,
            "--profiles", profiles_path, "--variant", "reference", "--steps", 1,
            "--out-dir", out_dir,
        ])
        assert code == 0
        kpis = dict(
            line.split(",") for line in (out_dir / "kpis.csv").read_text().splitlines()[1:]
        )
        assert abs(float(kpis["mean_unit_running_cost"])) < 1e-6
        assert abs(float(kpis["mean_transmission_loss_cost"])) < 1e-6


class TestCompare:
    def run_pair(self, grid_file, config_file, tmp_path, steps_b=5):
        data = make_data(grid_file, tmp_path)
        dirs = []
        for name, variant, steps in (
            ("a", "reference", 5),
            ("b", "dd-convex", steps_b),
        ):
            out_dir = tmp_path / name
            argv = ["run-mpc", "--config", config_file, "--grid", grid_file,
                    "--profiles", "seed:7", "--variant", variant, "--steps", steps,
                    "--out-dir", out_dir]
            if variant != "reference":
                argv += ["--data", data]
            assert run(argv) == 0
            dirs.append(out_dir)
        return dirs

    def test_reference_vs_convex_pass(self, grid_file, config_file, tmp_path, capsys):
        a, b = self.run_pair(grid_file, config_file, tmp_path)
        code = run(["compare", "--runs", a, b, "--tol", "1e-4"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_vs_itself_zero_deviation(self, grid_file, config_file, tmp_path, capsys):
        a, _ = self.run_pair(grid_file, config_file, tmp_path)
        code = run(["compare", "--runs", a, a, "--tol", "1e-12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall max deviation 0.000e+00" in out

    def test_mismatched_lengths_fail(self, grid_file, config_file, tmp_path):
        a, b = self.run_pair(grid_file, config_file, tmp_path, steps_b=4)
        code = run(["compare", "--runs", a, b])
        assert code == 5

    @staticmethod
    def rewrite(src, dst, edit):
        """Copy src/results.csv to dst/results.csv with edit applied to each
        row (the header included) as a list of cells."""
        dst.mkdir()
        lines = (src / "results.csv").read_text().splitlines()
        rows = [edit(line.split(","), i) for i, line in enumerate(lines)]
        (dst / "results.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
        return dst

    def test_solver_work_columns_not_compared(self, grid_file, config_file, tmp_path, capsys):
        a, _ = self.run_pair(grid_file, config_file, tmp_path)

        def more_work(row, i):
            return row if i == 0 else row[:-3] + [str(int(float(v)) + 7) for v in row[-3:]]

        b = self.rewrite(a, tmp_path / "more_work", more_work)
        assert (b / "results.csv").read_text() != (a / "results.csv").read_text()
        code = run(["compare", "--runs", a, b, "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert code == 0 and "PASS" in out
        assert "ipm_iterations" not in out

    def test_nan_deviation_fails(self, grid_file, config_file, tmp_path, capsys):
        # max(0.0, nan) is 0.0 in Python: a NaN must not read as no deviation
        a, _ = self.run_pair(grid_file, config_file, tmp_path)
        col = (a / "results.csv").read_text().splitlines()[0].split(",").index("conv1_power")

        def nan_power(row, i):
            return row if i != 1 else row[:col] + ["nan"] + row[col + 1 :]

        b = self.rewrite(a, tmp_path / "nan", nan_power)
        code = run(["compare", "--runs", a, b, "--tol", "1e-4"])
        captured = capsys.readouterr()
        assert code == 1
        assert "conv1_power  max |dev| = nan  FAIL" in captured.out
        assert "PASS" not in captured.out
        assert "columns over tolerance: conv1_power" in captured.err

    def test_file_without_work_columns_compares(self, grid_file, config_file, tmp_path, capsys):
        a, b = self.run_pair(grid_file, config_file, tmp_path)
        old = self.rewrite(a, tmp_path / "old", lambda row, i: row[:-3])
        assert (old / "results.csv").read_text().splitlines()[0].endswith(",solve_time_s")
        assert run(["compare", "--runs", old, b, "--tol", "1e-4"]) == 0
        assert run(["compare", "--runs", b, old, "--tol", "1e-4"]) == 0
        assert capsys.readouterr().out.count("PASS") == 2


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("solve-opf", "--cap", "nan"),
            ("solve-opf", "--beta", "nan"),
            ("solve-opf", "--beta", "inf"),
            ("generate-data", "--range", "nan"),
            ("generate-data", "--range", "0"),
            ("run-mpc", "--steps", "0"),
            ("run-mpc", "--steps", "-3"),
            ("compare", "--tol", "nan"),
            ("compare", "--tol", "-1"),
        ],
    )
    def test_out_of_range_value_is_a_schema_error(
        self, command, flag, value, grid_file, config_file, tmp_path, capsys
    ):
        # argparse takes nan, inf and any integer: the command must reject
        # the value by flag name, with the schema exit code and no output
        out = tmp_path / "out"
        if command == "compare":
            assert run(["run-mpc", "--config", config_file, "--grid", grid_file,
                        "--profiles", "seed:1", "--variant", "reference", "--steps", 1,
                        "--out-dir", out]) == 0
            capsys.readouterr()
        argv = {
            "solve-opf": ["--grid", grid_file, "--variant", "reference", "--out", out],
            "generate-data": ["--grid", grid_file, "--samples", 9, "--out", out],
            "run-mpc": ["--config", config_file, "--grid", grid_file, "--profiles", "seed:1",
                        "--variant", "reference", "--out-dir", out],
            "compare": ["--runs", out, out],
        }[command]
        assert run([command, *argv, flag, value]) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be ") and value in captured.err
        assert captured.out == ""
        assert out.exists() == (command == "compare")


class TestSolverFailure:
    def test_numerical_breakdown_exit_code(self, grid_file, tmp_path, capsys, monkeypatch):
        # every factorization after the initial point's fails, far from any
        # certificate: solve_convex raises NumericalBreakdown, the CLI exits 3
        factor = ipm.KktSolver.factor

        def failing(self, scaling):
            if hasattr(self, "scaling"):  # set by the initial point's factor
                raise FloatingPointError("injected factorization failure")
            factor(self, scaling)

        monkeypatch.setattr(ipm.KktSolver, "factor", failing)
        code = run(["solve-opf", "--grid", grid_file, "--variant", "reference",
                    "--demand", "5=0.4", "--out", tmp_path / "x.csv"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical breakdown at iteration 0: injected")


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("config", "gamma must lie in (0, 1)"),
            ("profile-cell", "could not convert string to float: 'abc'"),
            ("profile-demand", "profiles must be nonnegative"),
            ("grid", "series admittance must be nonzero"),
            ("config-type", "invalid microgrid config: '<' not supported"),
            ("profile-no-values", "invalid profiles: index 0 is out of bounds"),
            ("profile-blank-header", "profiles header must be k, wd_1, wr_*..."),
            ("grid-line-type", "invalid grid config: argument of type 'int' is not iterable"),
            ("grid-voltages-type", "grid config key 'voltages' must be a mapping"),
            ("profile-one-renewable", "profiles need the renewable columns wr_1, wr_2, found wr_1"),
            ("profile-nan", "profiles must be finite"),
            ("profile-inf", "profiles must be finite"),
            ("config-nan", "c2 must not be NaN"),
            ("grid-nan", "line parameters must be finite"),
            ("grid-voltage-nan", "voltage magnitudes must be positive and finite"),
            ("demand-nan", "demand must be finite, got '5=nan'"),
            ("trajectory-nan", "row 3: values must be finite"),
            ("config-pe-order", "pe_min must not exceed pe_max"),
        ],
        ids=[
            "config", "profile-cell", "profile-demand", "grid", "config-type",
            "profile-no-values", "profile-blank-header", "grid-line-type", "grid-voltages-type",
            "profile-one-renewable", "profile-nan", "profile-inf", "config-nan", "grid-nan",
            "grid-voltage-nan", "demand-nan", "trajectory-nan", "config-pe-order",
        ],
    )
    def test_schema_error_exit_code(self, kind, message, grid_file, config_file, tmp_path, capsys):
        # values that parse as YAML or CSV but break the documented schema,
        # non-finite numbers among them, exit with the schema code and a
        # message, not a traceback
        import yaml

        rows = ["k,wd_1,wr_1,wr_2"] + [f"{k},0.3,0.1,0.1" for k in range(8)]
        if kind == "profile-cell":
            rows[3] = "2,abc,0.1,0.1"
        elif kind == "profile-demand":
            rows[3] = "2,-0.3,0.1,0.1"
        elif kind == "profile-nan":
            rows[3] = "2,0.3,nan,0.1"
        elif kind == "profile-inf":
            rows[3] = "2,inf,0.1,0.1"
        elif kind == "profile-no-values":
            rows[1:] = [str(k) for k in range(8)]
        elif kind == "profile-blank-header":
            rows[0] = ""
        elif kind == "profile-one-renewable":
            rows = [row.rsplit(",", 1)[0] for row in rows]
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("\n".join(rows) + "\n")
        if kind.startswith("config"):
            doc = yaml.safe_load(config_file.read_text())
            if kind == "config-nan":
                doc["c2"] = [float("nan"), 1.43]
            elif kind == "config-pe-order":
                doc["pe_min"], doc["pe_max"] = [0.5], [-0.5]
            else:
                doc["gamma"] = 1.5 if kind == "config" else "abc"
            config_file.write_text(yaml.safe_dump(doc))
        if kind.startswith("grid"):
            doc = yaml.safe_load(grid_file.read_text())
            if kind == "grid":
                doc["lines"][0].update(g=0.0, b=0.0)
            elif kind == "grid-line-type":
                doc["lines"][0] = 5
            elif kind == "grid-nan":
                doc["lines"][0]["g"] = float("nan")
            elif kind == "grid-voltage-nan":
                doc["voltages"][2] = float("nan")
            else:
                doc["voltages"] = [1.0, 1.0]
            grid_file.write_text(yaml.safe_dump(doc))
            argv = ["solve-opf", "--grid", grid_file, "--variant", "reference",
                    "--out", tmp_path / "x.csv"]
            if kind == "grid-nan":  # must not write a trajectory of NaN
                argv = ["generate-data", "--grid", grid_file, "--samples", 9,
                        "--out", tmp_path / "t.csv"]
        elif kind == "demand-nan":
            argv = ["solve-opf", "--grid", grid_file, "--variant", "reference",
                    "--demand", "5=nan", "--out", tmp_path / "x.csv"]
        elif kind == "trajectory-nan":
            traj = make_data(grid_file, tmp_path)
            lines = traj.read_text().splitlines()
            lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
            traj.write_text("\n".join(lines) + "\n")
            argv = ["solve-opf", "--grid", grid_file, "--data", traj, "--variant", "dd-convex",
                    "--out", tmp_path / "x.csv"]
        else:
            argv = ["run-mpc", "--config", config_file, "--grid", grid_file,
                    "--profiles", profiles, "--variant", "reference", "--steps", 1,
                    "--out-dir", tmp_path / "run"]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
