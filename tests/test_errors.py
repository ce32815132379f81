"""Typed errors of the public calls, in process.

Every malformed input to a public call raises a ``ValidationError`` whose
code names the field at fault; no ``TypeError``, ``ValueError`` from numpy
or ``IndexError`` escapes.
"""

import math

import numpy as np
import pytest

from flagparam import (
    BlockDiagonalUnitary,
    FlagCoordinates,
    JarlskogLevel,
    Spectrum,
    ValidationError,
    ball_to_jarlskog,
    chart_permutations,
    coordinates_distance,
    deparametrize,
    expm_reference,
    frame_of_unitary,
    haar_unitary,
    identity_chart,
    permutation_unitary,
    projector_of_unitary,
    section_from_projective_factors,
    select_chart,
)
from flagparam import verify
from flagparam.charts import validate_chart
from flagparam.linalg import as_matrix, as_square

# values that int, float, complex or np.asarray cannot read, each under the
# code of its field
UNREADABLE = [
    pytest.param(lambda: Spectrum((1,), ("x",)), "LAMBDA_VALUES", id="lambda-str"),
    pytest.param(lambda: Spectrum((1,), (1 + 0j,)), "LAMBDA_VALUES", id="lambda-complex"),
    pytest.param(lambda: Spectrum((1,), (None,)), "LAMBDA_VALUES", id="lambda-none"),
    pytest.param(lambda: Spectrum((1,), 1.0), "LAMBDA_VALUES", id="lambdas-scalar"),
    pytest.param(lambda: JarlskogLevel("x", np.array([1.0])), "THETA_RANGE", id="theta-str"),
    pytest.param(lambda: JarlskogLevel(0.1, "abc"), "BAD_SHAPE", id="zeta-str"),
    pytest.param(lambda: haar_unitary("x"), "BAD_DIMENSION", id="haar-str"),
    pytest.param(lambda: haar_unitary(None), "BAD_DIMENSION", id="haar-none"),
    pytest.param(lambda: haar_unitary(2.5), "BAD_DIMENSION", id="haar-fraction"),
    pytest.param(lambda: frame_of_unitary(np.eye(3), 1.5), "BAD_DIMENSION", id="frame-k-fraction"),
    pytest.param(lambda: frame_of_unitary(np.eye(3), "x"), "BAD_DIMENSION", id="frame-k-str"),
    pytest.param(lambda: projector_of_unitary(np.eye(3), 2.7), "BAD_DIMENSION", id="projector-k-fraction"),
    pytest.param(lambda: chart_permutations(3, 1.5), "BAD_DIMENSION", id="permutations-k-fraction"),
    pytest.param(lambda: permutation_unitary((1.5, 2.0)), "BAD_CHART", id="permutation-fraction"),
    pytest.param(lambda: permutation_unitary(("a",)), "BAD_CHART", id="permutation-str"),
    pytest.param(lambda: permutation_unitary([[1, "x"]]), "BAD_CHART", id="permutation-nested-str"),
    pytest.param(lambda: ball_to_jarlskog(np.zeros(0)), "BAD_SHAPE", id="jarlskog-empty"),
    pytest.param(lambda: ball_to_jarlskog("abc"), "BAD_SHAPE", id="jarlskog-str"),
    pytest.param(lambda: deparametrize("abc"), "BAD_SHAPE", id="deparametrize-str"),
    pytest.param(lambda: as_matrix("abc"), "BAD_SHAPE", id="matrix-str"),
    pytest.param(lambda: as_square([[1.0, 2.0], [3.0]]), "BAD_SHAPE", id="square-ragged"),
]

# one call per typed-error branch of charts, coset and linalg
BRANCHES = [
    pytest.param(lambda: validate_chart((1, 2), 0), "BAD_CHART", id="chart-k"),
    pytest.param(lambda: validate_chart((1, 2, 3), 4, 3), "BAD_CHART", id="chart-k-above"),
    pytest.param(lambda: validate_chart((1, 2), 1, 3), "BAD_CHART", id="chart-identity-length"),
    pytest.param(lambda: validate_chart((np.array([1, 2]), 3), 1, 3), "BAD_CHART", id="chart-array-entry"),
    pytest.param(lambda: validate_chart((1.5, 2, 3), 1, 3), "BAD_CHART", id="chart-fraction"),
    pytest.param(lambda: validate_chart((1, 2, 3), 1.5), "BAD_CHART", id="chart-k-fraction"),
    pytest.param(lambda: permutation_unitary((1, 1)), "BAD_CHART", id="permutation-repeat"),
    pytest.param(lambda: frame_of_unitary(np.eye(3), 0), "BAD_DIMENSION", id="frame-k"),
    pytest.param(lambda: chart_permutations(3, 4), "BAD_DIMENSION", id="permutations-k"),
    pytest.param(lambda: select_chart(np.zeros((3, 3))), "NOT_PROJECTOR", id="projector-trace"),
    pytest.param(lambda: BlockDiagonalUnitary(()), "PROFILE_VALUES", id="blocks-empty"),
    pytest.param(lambda: section_from_projective_factors(np.eye(3)), "BAD_DIMENSION", id="projective-full"),
    pytest.param(lambda: JarlskogLevel(0.1, np.zeros(0)), "BAD_SHAPE", id="zeta-empty"),
    pytest.param(lambda: as_matrix(np.zeros((2, 2, 2))), "BAD_SHAPE", id="matrix-ndim"),
    pytest.param(lambda: as_square([[np.inf]]), "NOT_FINITE", id="square-inf"),
    pytest.param(lambda: haar_unitary(0), "BAD_DIMENSION", id="haar-zero"),
    # norms that overflow to inf, read without an overflow warning
    pytest.param(lambda: ball_to_jarlskog(np.array([1e200, 1.0])), "BALL_NORM", id="jarlskog-overflow"),
    pytest.param(lambda: JarlskogLevel(0.1, np.array([1e200, 1.0])), "ZETA_NORM", id="zeta-overflow"),
    # refused before the norm, which a NaN passes and then divides
    pytest.param(lambda: ball_to_jarlskog([math.nan]), "NOT_FINITE", id="jarlskog-nan"),
    pytest.param(lambda: ball_to_jarlskog([0.5, math.inf]), "NOT_FINITE", id="jarlskog-inf"),
    pytest.param(lambda: expm_reference(np.full((2, 2), 1e308)), "NOT_FINITE", id="expm-norm-overflow"),
    # numpy's generators take only nonnegative seeds
    pytest.param(lambda: haar_unitary(3, seed=-1), "BAD_SEED", id="haar-negative-seed"),
    pytest.param(lambda: verify.run("jarlskog", seed=-1), "BAD_SEED", id="verify-negative-seed"),
    # verify.run reads its seed as an integer and names its suites, as the CLI does
    pytest.param(lambda: verify.run("jarlskog", seed=np.random.default_rng(1)), "BAD_SEED", id="verify-generator-seed"),
    pytest.param(lambda: verify.run("bogus"), "BAD_SUITE", id="verify-unknown-suite"),
    pytest.param(lambda: verify.run(np.array(["lie", "jarlskog"])), "BAD_SUITE", id="verify-array-suite"),
]


@pytest.mark.parametrize("call, code", UNREADABLE + BRANCHES)
def test_typed_error(call, code):
    with pytest.raises(ValidationError) as exc:
        call()
    assert exc.value.code == code


@pytest.mark.parametrize("zeta", [[math.nan], [math.nan, 0.0], [math.inf]])
def test_non_finite_direction_is_rejected(zeta):
    # abs(norm - 1) > tol is False for a NaN norm; the check must fail it
    with pytest.raises(ValidationError) as exc:
        JarlskogLevel(0.1, np.array(zeta))
    assert exc.value.code == "ZETA_NORM"


def test_coordinates_distance_edges():
    one_block = FlagCoordinates((2,), (), ())
    two_blocks = FlagCoordinates((1, 1), (np.zeros((1, 1)),), (identity_chart(2),))
    assert coordinates_distance(one_block, two_blocks) == math.inf
    assert coordinates_distance(one_block, FlagCoordinates((2,), (), ())) == 0.0
