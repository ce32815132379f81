import json

import numpy as np
import pytest

from flagparam import ValidationError, deparametrize, parametrize
from flagparam.iojson import (
    MAX_N,
    coords_to_json,
    dumps,
    loads,
    matrix_from_json,
    matrix_to_json,
    params_from_json,
    params_to_json,
)
from flagparam.sampling import random_density_parameters


class TestMatrixJSON:
    def test_roundtrip_bit_exact(self):
        # compared bit for bit: np.array_equal of the values takes -0.0 for 0.0
        rng = np.random.default_rng(1)
        m = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        m[0, :6] = [
            np.pi / 3 + 1j * np.e,
            complex(-0.0, -0.0),
            complex(-0.0, 1.0),
            complex(1.0, -0.0),
            complex(5e-324, -2.5e-310),  # subnormals
            complex(0.1 + 0.2, np.nextafter(1.0, 2.0)),  # 17 significant digits
        ]
        back = matrix_from_json(loads(dumps(matrix_to_json(m))))
        assert np.array_equal(back.real.view(np.uint64), m.real.view(np.uint64))
        assert np.array_equal(back.imag.view(np.uint64), m.imag.view(np.uint64))

    def test_dumps_is_one_stable_line_with_sorted_keys(self):
        params = random_density_parameters((2, 1, 1), np.random.default_rng(3))
        doc = {"params": params_to_json(params), "rho": matrix_to_json(parametrize(params))}
        text = dumps(doc)
        assert dumps(doc) == text
        assert text.endswith("\n") and "\n" not in text[:-1] and " " not in text
        orders = []

        def record(pairs):
            orders.append([key for key, _ in pairs])
            return dict(pairs)

        assert json.loads(text, object_pairs_hook=record) == doc
        assert len(orders) == 7 and all(keys == sorted(keys) for keys in orders)

    def test_vector_becomes_column(self):
        doc = matrix_to_json(np.array([1.0, 2.0]))
        assert (doc["rows"], doc["cols"]) == (2, 1)

    def test_missing_key(self):
        with pytest.raises(ValidationError) as err:
            matrix_from_json({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]]})
        assert err.value.code == "BAD_JSON"

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError) as err:
            matrix_from_json({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})
        assert err.value.code == "BAD_SHAPE"

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError) as err:
            matrix_from_json(
                {"rows": 1, "cols": 1, "re": [[float("nan")]], "im": [[0.0]]}
            )
        assert err.value.code == "NOT_FINITE"

    def test_invalid_json_text(self):
        with pytest.raises(ValidationError) as err:
            loads("{not json")
        assert err.value.code == "BAD_JSON"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_dumps_writes_no_bare_non_finite(self, value):
        # NaN and Infinity are not JSON; the CLI writes only finite floats
        with pytest.raises(ValueError):
            dumps({"max_residual": value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rows", 2.9),
            ("rows", "2"),
            ("cols", True),
            ("re", [["0.5", 0.0], [0.0, 0.5]]),
            ("re", [[True, 0.0], [0.0, 0.5]]),
            ("im", [[0.0, None], [0.0, 0.0]]),
            ("im", [0.0, 0.0, 0.0, 0.0]),
            ("re", [[10**400, 0.0], [0.0, 0.5]]),
        ],
    )
    def test_numbers_are_json_numbers(self, key, value):
        # int() or a float array would coerce each into a 2x2 matrix; an
        # integer too large for a float would escape as an OverflowError
        doc = {"rows": 2, "cols": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}
        doc[key] = value
        with pytest.raises(ValidationError) as err:
            matrix_from_json(doc)
        assert err.value.code == "BAD_JSON"

    def test_integer_entries_pass(self):
        doc = {"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
        assert np.array_equal(matrix_from_json(doc), np.eye(2))


class TestParamsJSON:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(2)
        for profile in [(3, 1), (2, 2), (2, 1, 1), (4,)]:
            params = random_density_parameters(profile, rng)
            doc = loads(dumps(params_to_json(params)))
            back = params_from_json(doc)
            assert back.spectrum.profile == profile
            assert back.spectrum.lambdas == params.spectrum.lambdas
            for xa, xb in zip(back.coords.xs, params.coords.xs):
                assert np.array_equal(xa, xb)
            assert back.coords.charts == params.coords.charts

    def test_serialized_charts_are_one_based_images(self):
        rng = np.random.default_rng(3)
        params = random_density_parameters((3, 1), rng)
        doc = params_to_json(params)
        chart = doc["levels"][0]["chart"]
        assert sorted(chart) == [1, 2, 3, 4]

    def test_coords_part_of_params(self):
        params = random_density_parameters((2, 1, 1), np.random.default_rng(6))
        doc = params_to_json(params)
        assert coords_to_json(params.coords) == {"profile": doc["profile"], "levels": doc["levels"]}

    def test_profile_sum_mismatch(self):
        rng = np.random.default_rng(4)
        doc = params_to_json(random_density_parameters((3, 1), rng))
        doc["profile"] = [2, 1]
        doc["lambdas"] = [0.4, 0.2]
        with pytest.raises(ValidationError) as err:
            params_from_json(doc)
        assert err.value.code == "PROFILE_SUM"

    @pytest.mark.parametrize("profile", [[2.7, 1.0], [2.0, 1], [True, 2], ["2", 1]])
    def test_profile_entries_are_integers(self, profile):
        # validate_profile's int() would read [2.7, 1.0] as (2, 1)
        doc = {
            "profile": profile,
            "lambdas": [0.4, 0.2],
            "levels": [{"chart": [1, 2, 3], "X": matrix_to_json(np.array([[0.1], [0.2]]))}],
        }
        with pytest.raises(ValidationError) as err:
            params_from_json(doc)
        assert err.value.code == "BAD_JSON"

    def test_dimension_bound(self):
        # the bound is checked before any n x n work, so MAX_N itself reads
        # back at once, and one more is refused with n in the message
        doc = {"profile": [MAX_N], "lambdas": [1.0 / MAX_N], "levels": []}
        assert sum(params_from_json(doc).spectrum.profile) == MAX_N
        doc = {"profile": [MAX_N, 1], "lambdas": [0.5 / MAX_N, 0.5], "levels": []}
        with pytest.raises(ValidationError, match=f"n = {MAX_N + 1}") as err:
            params_from_json(doc)
        assert err.value.code == "BAD_DIMENSION"

    def test_bad_lambda_sum(self):
        rng = np.random.default_rng(5)
        doc = params_to_json(random_density_parameters((3, 1), rng))
        doc["lambdas"] = [0.4, 0.2]
        with pytest.raises(ValidationError) as err:
            params_from_json(doc)
        assert err.value.code == "LAMBDA_SUM"

    def test_close_spectrum_roundtrip(self):
        # a document needs only strictly decreasing eigenvalues, so a gap
        # clustered with a small gap_tol reads back without one
        gap = 5e-7
        rho = np.diag([0.25 + gap / 2] * 2 + [0.25 - gap / 2] * 2)
        back = params_from_json(params_to_json(deparametrize(rho, gap_tol=1e-8)))
        assert back.spectrum.profile == (2, 2)
        assert np.abs(parametrize(back) - rho).max() <= 1e-12

    def test_floats_survive_json_text(self):
        # shortest-roundtrip float repr: parse(dump(x)) is bit-exact
        values = [0.1, 1 / 3, np.nextafter(1.0, 2.0), 2**-52]
        text = json.dumps(values)
        assert json.loads(text) == values
