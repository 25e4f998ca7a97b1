import argparse

import numpy as np
import pytest

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


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "kind, message",
        [
            ("config", "gamma must lie in (0, 1)"),
            ("profile-cell", "could not convert string to float: 'abc'"),
            ("profile-demand", "profiles must be nonnegative"),
            ("grid", "series admittance must be nonzero"),
        ],
        ids=["config", "profile-cell", "profile-demand", "grid"],
    )
    def test_schema_error_exit_code(self, kind, message, grid_file, config_file, tmp_path, capsys):
        # values that parse as YAML or CSV but break the documented schema
        # exit with the schema code and a message, not a traceback
        import yaml

        rows = ["k,wd_1,wr_1,wr_2"] + [f"{k},0.3,0.1,0.1" for k in range(8)]
        if kind == "profile-cell":
            rows[3] = "2,abc,0.1,0.1"
        elif kind == "profile-demand":
            rows[3] = "2,-0.3,0.1,0.1"
        profiles = tmp_path / "profiles.csv"
        profiles.write_text("\n".join(rows) + "\n")
        if kind == "config":
            doc = yaml.safe_load(config_file.read_text())
            doc["gamma"] = 1.5
            config_file.write_text(yaml.safe_dump(doc))
        if kind == "grid":
            doc = yaml.safe_load(grid_file.read_text())
            doc["lines"][0].update(g=0.0, b=0.0)
            grid_file.write_text(yaml.safe_dump(doc))
            argv = ["solve-opf", "--grid", grid_file, "--variant", "reference",
                    "--out", tmp_path / "x.csv"]
        else:
            argv = ["run-mpc", "--config", config_file, "--grid", grid_file,
                    "--profiles", profiles, "--variant", "reference", "--steps", 1,
                    "--out-dir", tmp_path / "run"]
        assert run(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
