import dataclasses

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


def ball_program():
    """Five variables, the last two in a ball, with bounds and both row kinds."""
    return ConicProgram.build(
        c=[1.0, -2.0, 0.5, 0.25, -1.0],
        A_eq=[[1.0, 1.0, 0.0, 2.0, 0.0], [0.0, 1.0, -1.0, 0.0, 1.0]],
        b_eq=[1.0, 0.5],
        A_in=[[0.0, 1.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.0, -1.0, 0.0]],
        b_in=[2.0, 1.0],
        lb=[0.0, -np.inf, -1.0, -np.inf, -np.inf],
        ub=[1.0, np.inf, 1.0, np.inf, 0.9],
        balls=[(3, 4)],
    )


def program_bytes(prog):
    out = [prog.balls, prog.n]
    for name in ("c", "b_eq", "b_in", "lb", "ub"):
        arr = getattr(prog, name)
        out += [arr.dtype, arr.tobytes()]
    for name in ("A_eq", "A_in"):
        mat = getattr(prog, name)
        out += [mat.format, mat.shape, mat.data.dtype, mat.indices.dtype, mat.indptr.dtype]
        out += [mat.data.tobytes(), mat.indices.tobytes(), mat.indptr.tobytes()]
    return out


def reference_fix_variables(prog, fixed):
    """fix_variables computed afresh on every call: the reference for its
    shared reductions."""
    fixed = {int(k): float(v) for k, v in fixed.items()}
    keep = np.array([k for k in range(prog.n) if k not in fixed], dtype=int)
    vals = np.zeros(prog.n)
    for k, v in fixed.items():
        vals[k] = v
    old_to_new = {int(o): m for m, o in enumerate(keep)}
    return ConicProgram(
        c=prog.c[keep],
        A_eq=prog.A_eq[:, keep].tocsr(),
        b_eq=prog.b_eq - prog.A_eq @ vals,
        A_in=prog.A_in[:, keep].tocsr(),
        b_in=prog.b_in - prog.A_in @ vals,
        lb=prog.lb[keep],
        ub=prog.ub[keep],
        balls=tuple((old_to_new[i], old_to_new[j]) for i, j in prog.balls),
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

    @pytest.mark.parametrize("name, other", [("A_eq", "A_in"), ("A_in", "A_eq")])
    def test_matrix_width_validated(self, name, other):
        # c, lb and ub one entry longer than `name` is wide, and `other`
        # widened to match: the solver would fail deep inside its set-up
        prog = small_program()
        mat = getattr(prog, other)
        wide = dataclasses.replace(
            prog,
            c=np.append(prog.c, 1.0),
            lb=np.append(prog.lb, 0.0),
            ub=np.append(prog.ub, 1.0),
            **{other: sp.hstack([mat, sp.csr_matrix((mat.shape[0], 1))], format="csr")},
        )
        with pytest.raises(ValueError, match=f"{name} has 3 columns, n is 4"):
            wide.validate()

    def test_binary_indices_need_unit_box(self):
        prog = ConicProgram.build(c=[1.0], lb=[0.0], ub=[2.0])
        with pytest.raises(ValueError):
            MixedBinaryProgram(prog, (0,))

    def test_binary_in_a_ball_rejected(self):
        prog = ConicProgram.build(c=[1.0, 1.0], lb=[0.0, -1.0], ub=[1.0, 1.0], balls=[(0, 1)])
        with pytest.raises(ValueError, match="ball member"):
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

    def test_reductions_of_one_index_set_share_their_matrices(self):
        prog = ball_program()
        first, keep, _ = prog.fix_variables({0: 0.5, 2: 1.0})
        second, keep2, _ = prog.fix_variables({2: -1.0, 0: 0.25})
        assert first.A_eq is second.A_eq and first.A_in is second.A_in
        assert first.structure is second.structure is not None
        assert first.structure.owns(second)
        assert keep is keep2
        for reduced, fixed in ((first, {0: 0.5, 2: 1.0}), (second, {2: -1.0, 0: 0.25})):
            assert program_bytes(reduced) == program_bytes(reference_fix_variables(prog, fixed))
        # the reductions of a reduction are shared in turn
        third, _, _ = first.fix_variables({0: 1.0})
        assert third.A_eq is first.fix_variables({0: 0.0})[0].A_eq

    @pytest.mark.parametrize(
        "fixed",
        [{3: 0.6}, {4: -0.6, 0: 1.0}, {3: 0.0, 4: 1.0}],
        ids=["one-member", "member-and-other", "both-members"],
    )
    def test_ball_member_rejected(self, fixed):
        # a fixed ball member would make the reduction depend on its value
        prog = ball_program()
        prog.fix_variables({0: 0.5})
        before = dict(prog.structure.reductions)
        with pytest.raises(ValueError, match="ball member"):
            prog.fix_variables(fixed)
        assert prog.structure.reductions == before

    def test_unshared_program_reduces_afresh(self):
        prog = ball_program()
        # structure=None asks for a new structure, which keeps reductions
        # of its own
        plain = dataclasses.replace(prog, structure=None)
        assert plain.structure is not prog.structure and plain.structure.owns(plain)
        reduced, _, _ = plain.fix_variables({0: 0.5})
        assert reduced.structure.owns(reduced)
        assert reduced.structure is not prog.fix_variables({0: 0.5})[0].structure
        assert program_bytes(reduced) == program_bytes(reference_fix_variables(prog, {0: 0.5}))

    def test_replaced_matrix_reduces_as_a_fresh_build(self):
        # a program derived with another A_eq gets a structure that owns it:
        # its reductions are a fresh build's, kept on its own structure, and
        # the old structure's reductions are never read
        prog = ball_program()
        prog.fix_variables({0: 0.5})
        moved = dataclasses.replace(prog, A_eq=2.0 * prog.A_eq, b_eq=2.0 * prog.b_eq)
        assert moved.structure is not prog.structure and moved.structure.owns(moved)
        fresh = ConicProgram.build(
            c=moved.c, A_eq=moved.A_eq.copy(), b_eq=moved.b_eq, A_in=moved.A_in.copy(),
            b_in=moved.b_in, lb=moved.lb, ub=moved.ub, balls=moved.balls,
        )
        prog.structure.reductions = None
        first, keep, offset = moved.fix_variables({0: 0.5})
        second, _, _ = moved.fix_variables({0: 0.25})
        ref, ref_keep, ref_offset = fresh.fix_variables({0: 0.5})
        assert program_bytes(first) == program_bytes(ref)
        assert (keep.tobytes(), offset) == (ref_keep.tobytes(), ref_offset)
        assert first.structure is second.structure is not ref.structure

    @pytest.mark.parametrize("index", [-1, 3])
    def test_index_outside_the_program_rejected(self, index):
        # -1 would wrap to the last variable, 3 is past the end
        prog = small_program()
        with pytest.raises(ValueError, match="outside"):
            prog.fix_variables({index: 0.5})
        assert prog.structure.reductions == {}

    def test_feasibility_replay(self):
        prog = small_program()
        x = np.array([0.4, 0.6, 0.2])
        assert check_feasibility(prog, x) <= 1e-12
        x_bad = np.array([0.4, 0.9, 0.9])
        assert check_feasibility(prog, x_bad) > 0.1
