"""CSV/NPZ serialization round-trips."""

import base64
import json

import numpy as np
import pytest

from conftest import random_elastic_problem, random_fixed_problem, random_sam_problem
from repro.core.problems import GeneralProblem
from repro.datasets.general import dense_spd_weights
from repro.errors import InvalidRequestError
from repro.io import (
    load_problem,
    pack_array,
    problem_from_jsonable,
    problem_to_jsonable,
    read_table_csv,
    save_problem,
    unpack_array,
    write_table_csv,
)


class TestCSV:
    def test_round_trip(self, tmp_path, rng):
        x = rng.uniform(0, 10, (4, 3))
        path = tmp_path / "table.csv"
        write_table_csv(path, x, ["a", "b", "c", "d"], ["x", "y", "z"])
        back, rows, cols = read_table_csv(path)
        np.testing.assert_allclose(back, x, rtol=1e-5)
        assert rows == ["a", "b", "c", "d"]
        assert cols == ["x", "y", "z"]

    def test_default_labels(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(path, np.ones((2, 2)))
        _, rows, cols = read_table_csv(path)
        assert rows == ["r0", "r1"]
        assert cols == ["c0", "c1"]

    def test_label_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="label counts"):
            write_table_csv(tmp_path / "t.csv", np.ones((2, 2)), ["only-one"], None)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",c0,c1\nr0,1.0\n")
        with pytest.raises(ValueError, match="cells"):
            read_table_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError, match="header"):
            read_table_csv(path)


class TestNPZ:
    def test_fixed_round_trip(self, tmp_path, rng):
        problem = random_fixed_problem(rng, 5, 4, density=0.7)
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        np.testing.assert_array_equal(back.x0, problem.x0)
        np.testing.assert_array_equal(back.mask, problem.mask)
        np.testing.assert_array_equal(back.s0, problem.s0)

    def test_elastic_round_trip(self, tmp_path, rng):
        problem = random_elastic_problem(rng, 3, 5)
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        np.testing.assert_array_equal(back.alpha, problem.alpha)
        np.testing.assert_array_equal(back.beta, problem.beta)

    def test_sam_round_trip(self, tmp_path, rng):
        problem = random_sam_problem(rng, 4)
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        np.testing.assert_array_equal(back.gamma, problem.gamma)

    def test_general_round_trip(self, tmp_path, rng):
        x0 = rng.uniform(1, 5, (3, 3))
        problem = GeneralProblem(
            kind="fixed", x0=x0, G=dense_spd_weights(9, seed=1),
            s0=x0.sum(axis=1), d0=x0.sum(axis=0),
        )
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        assert back.kind == "fixed"
        np.testing.assert_array_equal(back.G, problem.G)

    def test_general_elastic_round_trip(self, tmp_path, rng):
        x0 = rng.uniform(1, 5, (3, 2))
        problem = GeneralProblem(
            kind="elastic", x0=x0, G=dense_spd_weights(6, seed=2),
            s0=x0.sum(axis=1), d0=x0.sum(axis=0),
            A=dense_spd_weights(3, seed=3), B=dense_spd_weights(2, seed=4),
        )
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        assert back.kind == "elastic"
        np.testing.assert_array_equal(back.A, problem.A)
        np.testing.assert_array_equal(back.B, problem.B)
        np.testing.assert_array_equal(back.d0, problem.d0)

    def test_general_sam_round_trip(self, tmp_path, rng):
        x0 = rng.uniform(1, 5, (3, 3))
        problem = GeneralProblem(
            kind="sam", x0=x0, G=dense_spd_weights(9, seed=5),
            s0=0.5 * (x0.sum(axis=1) + x0.sum(axis=0)),
            A=dense_spd_weights(3, seed=6),
        )
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        assert back.kind == "sam"
        assert back.d0 is None and back.B is None
        np.testing.assert_array_equal(back.A, problem.A)

    def test_general_solutions_identical_after_reload(self, tmp_path, rng):
        from repro.core.sea_general import solve_general

        x0 = rng.uniform(1, 5, (3, 3))
        problem = GeneralProblem(
            kind="fixed", x0=x0, G=dense_spd_weights(9, seed=7),
            s0=x0.sum(axis=1), d0=x0.sum(axis=0),
        )
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        r1 = solve_general(problem)
        r2 = solve_general(load_problem(path))
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_solutions_identical_after_reload(self, tmp_path, rng):
        from repro.core.sea import solve_fixed

        problem = random_fixed_problem(rng, 5, 5)
        path = tmp_path / "p.npz"
        save_problem(path, problem)
        back = load_problem(path)
        r1 = solve_fixed(problem)
        r2 = solve_fixed(back)
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_problem(tmp_path / "p.npz", object())


class TestJSONWire:
    """The solve service's problem payload format."""

    def test_fixed_round_trip(self, rng):
        problem = random_fixed_problem(rng, 5, 4, density=0.7)
        back = problem_from_jsonable(problem_to_jsonable(problem))
        np.testing.assert_allclose(back.x0, problem.x0)
        np.testing.assert_allclose(back.gamma, problem.gamma)
        np.testing.assert_array_equal(back.mask, problem.mask)
        np.testing.assert_allclose(back.s0, problem.s0)
        np.testing.assert_allclose(back.d0, problem.d0)

    def test_full_mask_omitted(self, rng):
        problem = random_fixed_problem(rng, 3, 3, density=1.0)
        obj = problem_to_jsonable(problem)
        assert "mask" not in obj
        assert problem_from_jsonable(obj).mask.all()

    def test_elastic_round_trip(self, rng):
        problem = random_elastic_problem(rng, 3, 4)
        back = problem_from_jsonable(problem_to_jsonable(problem))
        np.testing.assert_allclose(back.alpha, problem.alpha)
        np.testing.assert_allclose(back.beta, problem.beta)

    def test_sam_round_trip(self, rng):
        problem = random_sam_problem(rng, 4)
        back = problem_from_jsonable(problem_to_jsonable(problem))
        np.testing.assert_allclose(back.gamma, problem.gamma)
        np.testing.assert_allclose(back.alpha, problem.alpha)

    def test_general_round_trip(self, rng):
        x0 = rng.uniform(1, 5, (2, 3))
        problem = GeneralProblem(
            kind="elastic", x0=x0, G=dense_spd_weights(6, seed=8),
            s0=x0.sum(axis=1), d0=x0.sum(axis=0),
            A=dense_spd_weights(2, seed=9), B=dense_spd_weights(3, seed=10),
        )
        back = problem_from_jsonable(problem_to_jsonable(problem))
        assert back.kind == "elastic"
        np.testing.assert_allclose(back.G, problem.G)
        np.testing.assert_allclose(back.A, problem.A)
        np.testing.assert_allclose(back.B, problem.B)

    def test_json_serializable(self, rng):
        import json

        problem = random_fixed_problem(rng, 4, 4, density=0.6)
        text = json.dumps(problem_to_jsonable(problem))
        back = problem_from_jsonable(json.loads(text))
        np.testing.assert_allclose(back.x0, problem.x0)

    def test_solutions_identical_after_round_trip(self, rng):
        from repro.core.sea import solve_fixed

        problem = random_fixed_problem(rng, 5, 5)
        back = problem_from_jsonable(problem_to_jsonable(problem))
        np.testing.assert_array_equal(
            solve_fixed(problem).x, solve_fixed(back).x
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            problem_from_jsonable({"kind": "nope"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            problem_to_jsonable(object())


_SIX = pack_array(np.arange(6.0).reshape(2, 3))


class TestPackedArrays:
    """The raw-byte array codec of the service's internal records."""

    @pytest.mark.parametrize("a", [
        np.array(-0.0),
        np.array([1.5, -np.inf, np.nan]),
        np.arange(12.0).reshape(3, 4),
        np.arange(12.0).reshape(3, 4).T,            # Fortran-ordered view
        np.arange(36.0).reshape(6, 6)[::2, 1::3],    # strided view
        np.zeros((0, 3)),
        np.array([[True, False], [False, True]]),
    ])
    def test_round_trip_is_bit_exact_and_owned(self, a):
        dtype = bool if a.dtype == bool else np.float64
        packed = json.loads(json.dumps(pack_array(a)))
        back = unpack_array(packed, dtype)
        assert back.shape == a.shape and back.dtype == a.dtype
        assert back.tobytes() == a.tobytes()
        assert back.flags.owndata and back.flags.writeable

    def test_nan_sign_and_payload_survive(self):
        neg_nan = np.array([0xFFF8_0000_0000_BEEF], dtype=np.uint64)
        back = unpack_array(pack_array(neg_nan.view(np.float64)), np.float64)
        assert back.view(np.uint64)[0] == neg_nan[0]

    def test_nested_lists_and_numbers_still_decode(self):
        assert unpack_array([[1.0, 2.0]], np.float64).shape == (1, 2)
        assert unpack_array(2.5, np.float64) == 2.5
        assert unpack_array([True, False], bool).tolist() == [True, False]
        with pytest.raises(InvalidRequestError):
            unpack_array([[1.0], [2.0, 3.0]], np.float64)   # ragged

    @staticmethod
    def _packed(**changes):
        return {**_SIX, **changes}

    @pytest.mark.parametrize("changes", [
        {"b64": _SIX["b64"][:8] + "!" + _SIX["b64"][8:]},  # junk, not skipped
        {"b64": _SIX["b64"][:-4]},                        # three bytes short
        {"b64": base64.b64encode(b"\0" * 47).decode()},     # 47 != 6 * 8
        {"b64": 7},
        {"dtype": ">f8"},
        {"dtype": "<f4"},
        {"dtype": "|O"},
        {"dtype": "|b1"},                                # not the dtype asked
        {"shape": [2, -3]},
        {"shape": [2, 3.0]},
        {"shape": [True, 6]},
        {"shape": [1, 2, 3]},
        {"shape": "2x3"},
        {"extra": 1},
    ])
    def test_malformed_packed_array_is_an_invalid_request(self, changes):
        with pytest.raises(InvalidRequestError):
            unpack_array(self._packed(**changes), np.float64)

    def test_bool_bytes_other_than_0_and_1_are_rejected(self):
        packed = {"dtype": "|b1", "shape": [3],
                  "b64": base64.b64encode(b"\x01\x00\x02").decode()}
        with pytest.raises(InvalidRequestError, match="0 and 1"):
            unpack_array(packed, bool)
