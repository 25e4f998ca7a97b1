import dataclasses
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddopf.behavior import (
    DataDrivenLineModel,
    Trajectory,
    cos_indices,
    dd_predict,
    hankel,
    is_persistently_exciting,
    lift_all_pairs,
    lift_grid,
    lift_line,
    lift_pairs,
    sin_indices,
)
from ddopf.errors import DimensionMismatch, InconsistentQuery, ModelNotPE, OrderTooLarge
from ddopf.excitation import generate_excitation
from ddopf.grid import LineParams, all_node_pairs
from ddopf.microgrid import default_grid
from ddopf.physics import effective_coeffs, line_power

TABLE_COEFFS = effective_coeffs(LineParams(g=2.0, b=-20.0), 1.0, 1.0)


class TestHankel:
    def test_scalar_sequence_order_two(self):
        h = hankel([1.0, 2.0, 3.0, 4.0], 2)
        np.testing.assert_array_equal(h.data, [[1, 2, 3], [2, 3, 4]])
        assert (h.order, h.source_width) == (2, 1)

    def test_single_sample(self):
        h = hankel([5.0], 1)
        np.testing.assert_array_equal(h.data, [[5.0]])

    def test_two_channel_order_one(self):
        h = hankel([[1, 10], [2, 20], [3, 30]], 1)
        np.testing.assert_array_equal(h.data, [[1, 2, 3], [10, 20, 30]])

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            hankel([1.0, 2.0], 3)

    @given(
        st.integers(2, 12),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_antidiagonal_structure(self, n, width, order, seed):
        if order > n:
            return
        samples = np.random.default_rng(seed).normal(size=(n, width))
        h = hankel(samples, order).data
        assert h.shape == (width * order, n - order + 1)
        for r in range(order):
            for c in range(n - order + 1):
                np.testing.assert_array_equal(h[r * width : (r + 1) * width, c], samples[r + c])


class TestPersistencyOfExcitation:
    def test_constant_two_channel_fails(self):
        samples = np.ones((5, 2))
        rep = is_persistently_exciting(samples, 1)
        assert not rep.pe
        assert rep.rank == 1

    def test_scalar_constant_passes(self):
        rep = is_persistently_exciting(np.full(5, 3.0), 1)
        assert rep.pe and rep.rank == 1

    def test_generic_lift_nine_samples(self, five_bus_grid, rng):
        theta = rng.uniform(-0.3, 0.3, size=(9, 4))
        rep = is_persistently_exciting(lift_grid(five_bus_grid, theta), 1)
        assert rep.pe and rep.rank == 9
        assert rep.smallest_kept_singular_value > rep.threshold

    def test_too_few_columns_structural_failure(self, five_bus_grid, rng):
        theta = rng.uniform(-0.3, 0.3, size=(8, 4))
        rep = is_persistently_exciting(lift_grid(five_bus_grid, theta), 1)
        assert not rep.pe

    def test_rank_monotone_in_supersequence(self, rng):
        samples = rng.normal(size=(6, 2))
        rep = is_persistently_exciting(samples, 2)
        assert rep.pe
        longer = np.vstack([samples, rng.normal(size=(4, 2))])
        assert is_persistently_exciting(longer, 2).pe


class TestLifts:
    def test_line_lift_zero(self):
        np.testing.assert_allclose(lift_line(0.0), [1, 1, 0], atol=1e-15)

    def test_line_lift_quarter_turn(self):
        np.testing.assert_allclose(lift_line(math.pi / 2), [1, 0, 1], atol=1e-15)

    def test_line_lift_tenth_radian(self):
        with mpmath.workdps(40):
            want = [1.0, float(mpmath.cos(mpmath.mpf("0.1"))), float(mpmath.sin(mpmath.mpf("0.1")))]
        np.testing.assert_allclose(lift_line(0.1), want, atol=1e-15)
        np.testing.assert_allclose(lift_line(0.1), [1, 0.995004, 0.099833], atol=5e-7)

    def test_grid_lift_zero_vector(self, five_bus_grid):
        out = lift_grid(five_bus_grid, np.zeros(4))
        np.testing.assert_allclose(out, [1, 1, 0, 1, 0, 1, 0, 1, 0], atol=1e-15)
        assert out.shape == (9,)

    def test_grid_lift_first_edge_entries(self, five_bus_grid):
        theta = np.array([0.1, 0.0, 0.0, 0.0])
        out = lift_grid(five_bus_grid, theta)
        np.testing.assert_allclose(out[1:3], [math.cos(0.1), math.sin(0.1)], atol=1e-15)

    def test_grid_lift_dimension_mismatch(self, five_bus_grid):
        with pytest.raises(DimensionMismatch):
            lift_grid(five_bus_grid, np.zeros(5))

    def test_all_pairs_equal_angles(self, five_bus_grid):
        out = lift_all_pairs(five_bus_grid, np.full(5, 0.7))
        assert out.shape == (21,)
        np.testing.assert_allclose(out[0], 1.0)
        np.testing.assert_allclose(out[cos_indices(10)], np.ones(10), atol=1e-15)
        np.testing.assert_allclose(out[sin_indices(10)], np.zeros(10), atol=1e-15)

    def test_all_pairs_sign_convention(self, five_bus_grid):
        angles = np.array([0.0, 0.1, 0.0, 0.0, 0.0])
        out = lift_all_pairs(five_bus_grid, angles)
        # first pair is (1, 2): theta_12 = theta_1 - theta_2 = -0.1
        np.testing.assert_allclose(out[1], math.cos(-0.1), atol=1e-15)
        np.testing.assert_allclose(out[2], math.sin(-0.1), atol=1e-15)

    @given(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_circle_identity(self, thetas):
        out = lift_pairs(np.array(thetas))
        n = len(thetas)
        assert out[0] == 1.0
        np.testing.assert_allclose(
            out[cos_indices(n)] ** 2 + out[sin_indices(n)] ** 2, np.ones(n), atol=1e-12
        )


def line_samples(rng, n, both_directions=True):
    theta = rng.uniform(-0.4, 0.4, size=n)
    phi = lift_line(theta)
    p_from = line_power(TABLE_COEFFS, theta, "from")
    p_to = line_power(TABLE_COEFFS, theta, "to")
    pe = np.column_stack([p_from, p_to]) if both_directions else p_from
    return theta, phi, pe


class TestDataDrivenModel:
    def test_pe_certified_at_construction(self, rng):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        assert model.pe_report.pe
        assert model.lifted_dim == 3 and model.n_columns == 9

    def test_rejects_rank_deficient_data(self):
        phi = np.tile(lift_line(0.2), (6, 1))
        with pytest.raises(ModelNotPE):
            DataDrivenLineModel.from_samples(phi, np.zeros((6, 2)))

    def test_predict_zero_angle(self, rng):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        out = dd_predict(model, lift_line(0.0))
        assert out[0] == pytest.approx(0.0, abs=1e-8)

    def test_predict_tenth_radian(self, rng):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        out = dd_predict(model, lift_line(0.1))
        assert out[0] == pytest.approx(line_power(TABLE_COEFFS, 0.1), abs=1e-8)
        assert out[0] == pytest.approx(2.00666, abs=5e-6)

    def test_training_column_reproduced(self, rng):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        out = dd_predict(model, model.H_phi[:, 0])
        np.testing.assert_allclose(out, model.H_pe[:, 0], atol=1e-8)

    def test_ill_conditioned_training_columns_reproduced(self):
        # all-pairs draw with H_phi condition 8.8e6; the injection rows that
        # follow p_e in the output map are not part of the prediction
        traj = generate_excitation(default_grid(), 21, seed=5, mode="all-pairs")
        model = DataDrivenLineModel.from_trajectory(traj, include_injections=True)
        for j in range(model.n_columns):
            out = dd_predict(model, model.H_phi[:, j])
            np.testing.assert_allclose(out, model.H_pe[:, j], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_cols", [9, 30])
    def test_representation_equivalence(self, rng, n_cols):
        _, phi, pe = line_samples(rng, n_cols)
        model = DataDrivenLineModel.from_samples(phi, pe)
        for theta in rng.uniform(-math.pi / 2, math.pi / 2, size=100):
            out = dd_predict(model, lift_line(theta))
            assert out[0] == pytest.approx(line_power(TABLE_COEFFS, theta, "from"), abs=1e-8)
            assert out[1] == pytest.approx(line_power(TABLE_COEFFS, theta, "to"), abs=1e-8)

    def test_inconsistent_query_detected(self, rng):
        # lift entries of a *single line* model span only dim 3; a vector far
        # outside the circle manifold still lies in R^3 span, so build a
        # model with redundant lifted dimension instead: duplicate cos row.
        theta = rng.uniform(-0.4, 0.4, size=9)
        phi = np.column_stack([np.ones(9), np.cos(theta), np.cos(theta) * 2.0])
        pe = np.column_stack([np.cos(theta), np.sin(theta)])
        with pytest.raises(ModelNotPE):
            DataDrivenLineModel.from_samples(phi, pe)

    def test_inconsistent_query_via_span(self, rng):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        padded = DataDrivenLineModel(
            H_phi=np.vstack([model.H_phi, model.H_phi[1:2] * 0.5]),
            H_pe=model.H_pe,
            pe_report=model.pe_report,
        )
        query = np.array([1.0, 0.9, 0.1])  # last row must equal 0.45, give 0.9
        with pytest.raises(InconsistentQuery):
            dd_predict(padded, np.append(query, 0.9))

    def test_rank_deficient_blocks_predict_inside_the_span(self, rng):
        # blocks given directly, with a dependent lifted row: the fit's
        # rounding level comes from the singular values the fit used
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        padded = DataDrivenLineModel(
            H_phi=np.vstack([model.H_phi, model.H_phi[1:2] * 0.5]), H_pe=model.H_pe
        )
        query = lift_line(0.1)
        np.testing.assert_allclose(
            dd_predict(padded, np.append(query, 0.5 * query[1])),
            dd_predict(model, query),
            rtol=0,
            atol=1e-12,
        )

    def test_query_dimension_checked(self, rng):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        with pytest.raises(DimensionMismatch):
            dd_predict(model, np.ones(4))


def fitted(mode, noise=0.0):
    """Case-study excitation of the default grid, p_e and p_g perturbed by
    Gaussian noise of the given scale, fitted with injections."""
    n, seed = (9, 2024) if mode == "per-edge" else (21, 2025)
    traj = generate_excitation(default_grid(), n, seed=seed, mode=mode)
    rng = np.random.default_rng(7)
    p_e = traj.p_e + noise * rng.standard_normal(traj.p_e.shape)
    p_g = traj.p_g + noise * rng.standard_normal(traj.p_g.shape)
    return DataDrivenLineModel.from_samples(traj.phi, p_e, p_g)


class TestOutputMapSparsity:
    @pytest.mark.parametrize("mode", ["per-edge", "all-pairs"])
    def test_noiseless_fit_zeroes_rounding_entries(self, mode):
        # each line's power reads only its own lifted entries; the injections
        # read those of the lines at their node
        gain = fitted(mode).output_map()
        assert np.count_nonzero(gain) == 45
        assert np.abs(gain[gain != 0.0]).min() > 1.0

    @pytest.mark.parametrize("mode", ["per-edge", "all-pairs"])
    def test_noiseless_fit_residual(self, mode):
        model = fitted(mode)
        outputs = np.vstack([model.H_pe, model.H_pg])
        residual = np.abs(model.output_map() @ model.H_phi - outputs).max()
        assert residual <= 1e-12 * np.abs(outputs).max()

    @pytest.mark.parametrize("mode", ["per-edge", "all-pairs"])
    def test_noisy_fit_keeps_every_entry(self, mode):
        model = fitted(mode, noise=1e-6)
        gain = model.output_map()
        assert np.count_nonzero(gain) == gain.size
        outputs = np.vstack([model.H_pe, model.H_pg])
        full = np.linalg.lstsq(model.H_phi.T, outputs.T, rcond=None)[0].T
        np.testing.assert_array_equal(gain, full)

    def test_supported_pairs_are_the_edges(self):
        grid = default_grid()
        pairs = all_node_pairs(grid)
        model = fitted("all-pairs")
        assert [pairs[k] for k in model.supported_pairs] == list(grid.edges)
        # a per-edge model's pairs are the edges themselves
        assert fitted("per-edge").supported_pairs == tuple(range(grid.n_edges))

    def test_noisy_fit_supports_every_pair(self):
        model = fitted("all-pairs", noise=1e-6)
        assert model.supported_pairs == tuple(range((model.lifted_dim - 1) // 2))


class TestNonFiniteInput:
    def test_nan_output_sample_is_rejected(self, rng):
        _, phi, pe = line_samples(rng, 9)
        pe[4, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            DataDrivenLineModel.from_samples(phi, pe)

    def test_inf_lifted_sample_is_rejected(self, rng):
        _, phi, pe = line_samples(rng, 9)
        phi[2, 1] = np.inf
        with pytest.raises(ValueError, match="must be finite"):
            DataDrivenLineModel.from_samples(phi, pe)

    def test_nan_injection_sample_is_rejected(self):
        traj = generate_excitation(default_grid(), 21, seed=3, mode="all-pairs")
        p_g = traj.p_g.copy()
        p_g[0, 0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            DataDrivenLineModel.from_samples(traj.phi, traj.p_e, p_g)

    @pytest.mark.parametrize("name", ["H_phi", "H_pe", "H_pg"])
    def test_non_finite_block_is_rejected(self, name):
        model = fitted("all-pairs")
        blocks = {n: getattr(model, n).copy() for n in ("H_phi", "H_pe", "H_pg")}
        blocks[name][1, 2] = np.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DataDrivenLineModel(**blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_is_rejected(self, rng, bad):
        _, phi, pe = line_samples(rng, 9)
        model = DataDrivenLineModel.from_samples(phi, pe)
        with pytest.raises(ValueError, match="must be finite"):
            dd_predict(model, np.array([1.0, bad, 0.0]))


class TestModelIsAValue:
    @pytest.fixture
    def model(self):
        return DataDrivenLineModel.from_trajectory(
            generate_excitation(default_grid(), 21, seed=3, mode="all-pairs"),
            include_injections=True,
        )

    @pytest.mark.parametrize("name", ["H_phi", "H_pe", "H_pg"])
    def test_blocks_are_read_only(self, model, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0, 0] = 1.0

    @pytest.mark.parametrize("method", ["phi_pinv", "output_map"])
    def test_maps_are_computed_once_and_read_only(self, model, method):
        first = getattr(model, method)()
        assert getattr(model, method)() is first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["H_phi", "H_pe", "H_pg", "pe_report"])
    def test_fields_cannot_be_reassigned(self, model, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, getattr(model, name))

    def test_caller_arrays_are_copied_and_stay_writable(self, model):
        blocks = {name: getattr(model, name).copy() for name in ("H_phi", "H_pe", "H_pg")}
        copy = DataDrivenLineModel(**blocks, pe_report=model.pe_report)
        for name, block in blocks.items():
            assert block.flags.writeable
            assert not np.shares_memory(block, getattr(copy, name))
            block[0, 0] += 1.0
        np.testing.assert_array_equal(copy.output_map(), model.output_map())

    def test_constructor_takes_the_four_blocks(self):
        params = inspect.signature(DataDrivenLineModel).parameters
        assert {name: p.default for name, p in params.items()} == {
            "H_phi": inspect.Parameter.empty,
            "H_pe": inspect.Parameter.empty,
            "H_pg": None,
            "pe_report": None,
        }


class TestTrajectory:
    def test_block_sample_counts_must_match(self):
        with pytest.raises(DimensionMismatch):
            Trajectory(
                theta=np.zeros((3, 1)),
                phi=np.zeros((4, 3)),
                p_e=np.zeros((3, 2)),
                p_g=np.zeros((3, 2)),
                theta_pairs=((1, 2),),
                edges=((1, 2),),
                node_ids=(1, 2),
            )

    def test_lift_consistency_metric(self, rng):
        theta = rng.uniform(-0.3, 0.3, size=(5, 1))
        traj = Trajectory(
            theta=theta,
            phi=lift_pairs(theta),
            p_e=np.zeros((5, 2)),
            p_g=np.zeros((5, 2)),
            theta_pairs=((1, 2),),
            edges=((1, 2),),
            node_ids=(1, 2),
        )
        assert traj.max_lift_error() == 0.0
        assert traj.mode == "per-edge"
