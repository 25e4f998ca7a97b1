import numpy as np
import pytest

from ddopf.behavior import is_persistently_exciting
from ddopf.errors import ExcitationFailed, SchemaError
from ddopf.excitation import export_trajectory, generate_excitation, import_trajectory
from ddopf.physics import grid_line_powers, injections_from_flows


class TestGeneration:
    def test_per_edge_mode_is_pe(self, five_bus_grid):
        traj = generate_excitation(five_bus_grid, 9, seed=7)
        rep = is_persistently_exciting(traj.phi, 1)
        assert rep.pe and rep.rank == 9
        assert traj.mode == "per-edge"
        assert traj.phi.shape == (9, 9)

    def test_all_pairs_mode_is_pe(self, five_bus_grid):
        traj = generate_excitation(five_bus_grid, 21, seed=7, mode="all-pairs")
        rep = is_persistently_exciting(traj.phi, 1)
        assert rep.pe and rep.rank == 21
        assert traj.mode == "all-pairs"
        assert traj.phi.shape == (21, 21)
        assert len(traj.theta_pairs) == 10

    def test_too_few_samples_fails(self, five_bus_grid):
        with pytest.raises(ExcitationFailed):
            generate_excitation(five_bus_grid, 8, seed=0)

    def test_physics_consistency(self, five_bus_grid):
        traj = generate_excitation(five_bus_grid, 12, seed=3)
        pe = grid_line_powers(five_bus_grid, traj.theta)
        np.testing.assert_allclose(pe, traj.p_e, atol=1e-12)
        np.testing.assert_allclose(
            injections_from_flows(five_bus_grid, traj.p_e), traj.p_g, atol=1e-12
        )

    def test_all_pairs_physics_consistency(self, five_bus_grid):
        traj = generate_excitation(five_bus_grid, 21, seed=3, mode="all-pairs")
        edge_cols = [traj.theta_pairs.index(e) for e in five_bus_grid.edges]
        pe = grid_line_powers(five_bus_grid, traj.theta[:, edge_cols])
        np.testing.assert_allclose(pe, traj.p_e, atol=1e-12)

    def test_determinism(self, five_bus_grid):
        a = generate_excitation(five_bus_grid, 9, seed=42)
        b = generate_excitation(five_bus_grid, 9, seed=42)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.p_e, b.p_e)

    def test_lift_consistency(self, five_bus_grid):
        traj = generate_excitation(five_bus_grid, 21, seed=1, mode="all-pairs")
        assert traj.max_lift_error() == 0.0

    def test_angle_range_respected(self, five_bus_grid):
        traj = generate_excitation(five_bus_grid, 50, angle_range=0.2, seed=5)
        assert np.max(np.abs(traj.theta)) <= 0.2

    def test_bad_arguments(self, five_bus_grid):
        with pytest.raises(ValueError):
            generate_excitation(five_bus_grid, 9, angle_range=2.0)
        with pytest.raises(ValueError):
            generate_excitation(five_bus_grid, 9, mode="bogus")


class TestCsvRoundTrip:
    @pytest.mark.parametrize("mode,n", [("per-edge", 9), ("all-pairs", 21)])
    def test_bit_exact_round_trip(self, five_bus_grid, tmp_path, mode, n):
        traj = generate_excitation(five_bus_grid, n, seed=11, mode=mode)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        back = import_trajectory(path)
        np.testing.assert_array_equal(back.theta, traj.theta)
        np.testing.assert_array_equal(back.phi, traj.phi)
        np.testing.assert_array_equal(back.p_e, traj.p_e)
        np.testing.assert_array_equal(back.p_g, traj.p_g)
        assert back.theta_pairs == traj.theta_pairs
        assert back.edges == traj.edges
        assert back.node_ids == traj.node_ids

    def test_missing_pg_column(self, five_bus_grid, tmp_path):
        traj = generate_excitation(five_bus_grid, 9, seed=11)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        drop = [k for k, name in enumerate(header) if not name.startswith("pg_")]
        out = "\n".join(",".join(row.split(",")[k] for k in drop) for row in lines)
        path.write_text(out)
        with pytest.raises(SchemaError) as exc:
            import_trajectory(path)
        assert exc.value.column == "pg"

    def test_non_integer_node_id(self, five_bus_grid, tmp_path):
        traj = generate_excitation(five_bus_grid, 9, seed=11)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        path.write_text(path.read_text().replace("theta_1_2", "theta_a_2", 1))
        with pytest.raises(SchemaError, match="unrecognized column name") as exc:
            import_trajectory(path)
        assert exc.value.column == "theta_a_2"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            import_trajectory(path)

    def test_ragged_row(self, five_bus_grid, tmp_path):
        traj = generate_excitation(five_bus_grid, 9, seed=11)
        path = tmp_path / "traj.csv"
        export_trajectory(traj, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0]
        path.write_text("\n".join(lines))
        with pytest.raises(SchemaError):
            import_trajectory(path)
