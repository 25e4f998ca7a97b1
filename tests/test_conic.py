import numpy as np
import pytest
import scipy.sparse as sp

from ddopf.conic import ConicProgram, MixedBinaryProgram, check_feasibility


def small_program():
    return ConicProgram.build(
        c=[1.0, -2.0, 0.5],
        A_eq=[[1.0, 1.0, 0.0]],
        b_eq=[1.0],
        A_in=[[0.0, 1.0, 1.0]],
        b_in=[2.0],
        lb=[0.0, -np.inf, -1.0],
        ub=[1.0, np.inf, 1.0],
        balls=[(1, 2)],
    )


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            ConicProgram.build(c=[1.0, 2.0], A_eq=[[1.0, 0.0]], b_eq=[1.0, 2.0])

    def test_ball_indices_validated(self):
        with pytest.raises(ValueError):
            ConicProgram.build(c=[1.0, 2.0], balls=[(0, 2)])
        with pytest.raises(ValueError):
            ConicProgram.build(c=np.ones(4), balls=[(0, 1), (1, 2)])

    @pytest.mark.parametrize(
        "field, index, value",
        [
            ("c", 0, np.nan), ("c", 1, np.inf), ("b_eq", 0, np.nan), ("b_in", 0, -np.inf),
            ("A_eq", 1, np.nan), ("A_in", 1, np.inf), ("lb", 1, np.nan), ("ub", 0, np.nan),
            ("lb", 0, np.inf), ("ub", 2, -np.inf),
        ],
    )
    def test_non_finite_values_rejected(self, field, index, value):
        # NaN nowhere, +-inf only as an absent bound: standard_form would
        # read a NaN or wrong-signed infinite bound as no bound at all
        prog = small_program()
        arr = getattr(prog, field)
        (arr.data if sp.issparse(arr) else arr)[index] = value
        with pytest.raises(ValueError, match="finite|lb must be below"):
            prog.validate()

    def test_binary_indices_need_unit_box(self):
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[2.0])
        with pytest.raises(ValueError):
            MixedBinaryProgram(prog, (0,))

    def test_binary_ok(self):
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[1.0])
        mb = MixedBinaryProgram(prog, (0,))
        assert mb.n_binaries == 1


class TestFixVariables:
    def test_substitution_moves_columns_to_rhs(self):
        prog = small_program()
        reduced, keep, offset = prog.fix_variables({0: 0.5})
        assert offset == pytest.approx(0.5)
        np.testing.assert_array_equal(keep, [1, 2])
        np.testing.assert_allclose(reduced.b_eq, [0.5])
        assert reduced.balls == ((0, 1),)

    def test_half_fixed_ball_becomes_box(self):
        prog = small_program()
        reduced, keep, _ = prog.fix_variables({1: 0.6})
        assert reduced.balls == ()
        k = list(keep).index(2)
        assert reduced.ub[k] == pytest.approx(0.8)
        assert reduced.lb[k] == pytest.approx(-0.8)

    def test_violated_fixed_ball_made_unsatisfiable(self):
        prog = small_program()
        reduced, _, _ = prog.fix_variables({1: 1.0, 2: 0.5})
        # last inequality row is 0'x <= -1
        assert reduced.b_in[-1] == -1.0
        assert reduced.A_in[-1].nnz == 0

    def test_feasibility_replay(self):
        prog = small_program()
        x = np.array([0.4, 0.6, 0.2])
        assert check_feasibility(prog, x) <= 1e-12
        x_bad = np.array([0.4, 0.9, 0.9])
        assert check_feasibility(prog, x_bad) > 0.1
