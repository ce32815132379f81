import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flagparam
from flagparam import (
    NotPSDError,
    SingularInputError,
    expm_reference,
    generator_matrix,
    haar_unitary,
    hermitian_sqrt,
    lower_triangularize,
    polar_unitary,
)
from flagparam.errors import ValidationError
from flagparam.linalg import (
    as_matrix,
    as_square,
    ball_factors,
    frobenius,
    gram_eigh,
    gram_eighs,
    hermitian_mean,
    hermitian_part,
    open_ball_factors,
    unitarity_defect,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(
            hermitian_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14
        )

    def test_conjugated_diagonal(self):
        # A = Q diag(0.25, 0.09) Q*; the square of the result must return A
        q = haar_unitary(2, 123)
        a = q @ np.diag([0.25, 0.09]) @ q.conj().T
        s = hermitian_sqrt(a)
        assert frobenius(s @ s - a) <= 1e-12
        assert np.linalg.eigvalsh(s)[0] >= -1e-14

    def test_square_recovers_input_up_to_dim_16(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 17))
            b = random_complex(rng, n, n)
            a = b @ b.conj().T
            s = hermitian_sqrt(a)
            assert frobenius(s @ s - a) <= 1e-10 * max(1.0, frobenius(a))

    def test_clamps_grazing_eigenvalues(self):
        a = np.diag([1.0, -5e-11])
        s = hermitian_sqrt(a)
        assert np.linalg.eigvalsh(s)[0] >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            hermitian_sqrt(np.diag([1.0, -1e-6]))


class TestPolarUnitary:
    def test_identity(self):
        u, p = polar_unitary(np.eye(2))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(p, np.eye(2), atol=1e-14)

    def test_scalar_phase(self):
        # Y = e^{i phi}: the adjoint factors as e^{-i phi} * 1
        phi = 0.7
        u, p = polar_unitary(np.array([[np.exp(1j * phi)]]))
        assert abs(u[0, 0] - np.exp(-1j * phi)) <= 1e-14
        assert abs(p[0, 0] - 1.0) <= 1e-14

    def test_random_residuals(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            y = random_complex(rng, 3, 3)
            u, p = polar_unitary(y)
            assert frobenius(y.conj().T - u @ p) <= 1e-11 * max(1.0, frobenius(y))
            assert unitarity_defect(u) <= 1e-12
            assert np.linalg.eigvalsh(p)[0] >= -1e-10

    def test_reversed_convention(self):
        # Y = P U*, the normalization used when polar-normalizing chart blocks
        rng = np.random.default_rng(12)
        y = random_complex(rng, 4, 4)
        u, p = polar_unitary(y)
        assert frobenius(y - p @ u.conj().T) <= 1e-11

    def test_singular_input(self):
        with pytest.raises(SingularInputError):
            polar_unitary(np.diag([1.0, 0.0]))


class TestLowerTriangularize:
    def test_identity(self):
        u, t = lower_triangularize(np.eye(2))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(t, np.eye(2), atol=1e-14)

    def test_swap_example(self):
        y = np.array([[0.0, 2.0], [1.0, 0.0]])
        u, t = lower_triangularize(y)
        np.testing.assert_allclose(u, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)
        np.testing.assert_allclose(t, np.diag([2.0, 1.0]), atol=1e-14)

    def test_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            y = random_complex(rng, 4, 4)
            u, t = lower_triangularize(y)
            assert frobenius(y @ u - t) <= 1e-11
            assert unitarity_defect(u) <= 1e-12
            assert frobenius(np.triu(t, 1)) <= 1e-11
            diag = np.diagonal(t)
            assert np.all(diag.real > 0)
            assert np.max(np.abs(diag.imag)) <= 1e-11

    def test_uniqueness_fixed_point(self):
        # a positive-diagonal lower-triangular input is already normalized
        rng = np.random.default_rng(22)
        y = random_complex(rng, 4, 4)
        _, t = lower_triangularize(y)
        u2, t2 = lower_triangularize(t)
        assert frobenius(u2 - np.eye(4)) <= 1e-11
        assert frobenius(t2 - t) <= 1e-11

    def test_singular_input(self):
        with pytest.raises(SingularInputError):
            lower_triangularize(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_matches_gram_schmidt_reference(self):
        # the row-by-row construction U = (u_1*, ..., u_k*), with u_j the
        # normalized residual of row j against the rows before it
        def reference(y):
            rows = np.zeros(y.shape, dtype=complex)
            for j in range(y.shape[0]):
                x = y[j].astype(complex)
                for _ in range(2):
                    for i in range(j):
                        x = x - (x @ rows[i].conj()) * rows[i]
                rows[j] = x / np.linalg.norm(x)
            return rows.conj().T

        rng = np.random.default_rng(23)
        for k in range(1, 9):
            y = random_complex(rng, k, k)
            u, t = lower_triangularize(y)
            assert frobenius(u - reference(y)) <= 1e-12
            assert frobenius(t - y @ reference(y)) <= 1e-12


class TestExpmReference:
    def test_import_leaves_scipy_unloaded(self):
        # a fresh interpreter whose first import finder refuses scipy imports
        # the package and its CLI and runs every property suite
        src = str(Path(flagparam.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = """if True:
            import importlib.abc, json, sys

            class RefuseScipy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "scipy":
                        raise ModuleNotFoundError(f"{name} is refused")

            sys.meta_path.insert(0, RefuseScipy())
            import flagparam, flagparam.cli
            status = flagparam.cli.main(["verify", "--suite", "all"])
            scipy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
            print(json.dumps({"status": status, "scipy": scipy}))
        """
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        report, tail = r.stdout.splitlines()
        assert json.loads(report)["pass"] is True
        assert json.loads(tail) == {"status": 0, "scipy": []}

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 0.1, 1.0, 3.0, 10.0])
    def test_generator_matches_scipy(self, scale):
        # a second, independent oracle: scipy's scaling-and-squaring Pade
        from scipy.linalg import expm

        rng = np.random.default_rng(33)
        for _ in range(50):
            k1, k2 = (int(k) for k in rng.integers(1, 5, size=2))
            b = random_complex(rng, k1, k2)
            a = generator_matrix(b * (scale / frobenius(b)))
            reference = expm(a)
            assert frobenius(expm_reference(a) - reference) <= 1e-13 * frobenius(reference)

    def test_general_matches_scipy(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(34)
        for n in range(1, 9):
            for norm in (1e-3, 0.5, 2.0, 5.0, 10.0):
                a = random_complex(rng, n, n)
                a *= norm / np.linalg.norm(a, 1)
                reference = expm(a)
                assert frobenius(expm_reference(a) - reference) <= 1e-13 * frobenius(reference)

    def test_zero(self):
        np.testing.assert_allclose(expm_reference(np.zeros((3, 3))), np.eye(3), atol=1e-14)

    def test_scalar_i_pi(self):
        assert abs(expm_reference(np.array([[1j * np.pi]]))[0, 0] + 1.0) <= 1e-13

    def test_skew_hermitian_gives_unitary(self):
        rng = np.random.default_rng(31)
        b = random_complex(rng, 3, 3)
        a = b - b.conj().T
        assert unitarity_defect(expm_reference(a)) <= 1e-12

    def test_inverse_pairing(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            a = random_complex(rng, 4, 4)
            a *= 5.0 / max(1.0, frobenius(a))
            prod = expm_reference(a) @ expm_reference(-a)
            assert frobenius(prod - np.eye(4)) <= 1e-11


class TestHaarUnitary:
    def test_scalar_modulus(self):
        u = haar_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_unitary(4, 7), haar_unitary(4, 7))

    def test_unitary(self):
        for seed in range(10):
            assert unitarity_defect(haar_unitary(6, seed)) <= 1e-13

    def test_first_entry_moment(self):
        # |u_11|^2 is Beta(1, n-1) under Haar: mean 1/5, var 4/150 at n=5.
        # Three sigma of the 1000-sample mean is ~0.0155.
        rng = np.random.default_rng(99)
        samples = [abs(haar_unitary(5, rng)[0, 0]) ** 2 for _ in range(1000)]
        assert abs(np.mean(samples) - 0.2) <= 3 * np.sqrt((4.0 / 150.0) / 1000.0)

    def test_trace_moments(self):
        # E[tr U] = 0 and E|tr U|^2 = 1 under Haar; skipping the R-diagonal
        # phase fix shifts these to about -1.2 and 2.1 at n=5, so this guards
        # the distribution itself, not just unitarity
        rng = np.random.default_rng(100)
        traces = np.array([np.trace(haar_unitary(5, rng)) for _ in range(2000)])
        assert abs(np.mean(traces)) <= 0.08
        assert abs(np.mean(np.abs(traces) ** 2) - 1.0) <= 0.12


class TestTolerancesAreConstants:
    # the tolerances are the module constants; a caller sets only
    # deparametrize's clustering gap_tol and, through the CLI, FLAGPARAM_TOL
    KNOBS = {"rank_tol", "psd_tol", "unit_tol", "herm_tol", "trace_tol", "tol", "gap_tol"}
    # the one clustering threshold
    KEEP = {"deparametrize"}

    def test_no_tolerance_keywords(self):
        from flagparam import charts, iojson, linalg

        walked = [
            obj
            for obj in vars(flagparam).values()
            if inspect.isfunction(obj) or inspect.isclass(obj)
        ]
        walked += [charts.select_frame_chart, charts.frame_chart_factors, linalg.ball_factors]
        walked += [linalg.require_unitary]
        walked += [iojson.params_from_json]
        knobs = set()
        for obj in walked:
            try:
                params = inspect.signature(obj).parameters
            except ValueError:  # a class with no Python-level signature
                continue
            if obj.__name__ not in self.KEEP:
                knobs |= {f"{obj.__name__}.{p}" for p in params if p in self.KNOBS}
        assert not knobs


def matrix_with_singular_values(rng, rows, cols, s):
    """U diag(s) V* with Haar U and V; ``s`` is truncated or zero-padded to min(rows, cols)."""
    p = min(rows, cols)
    s = np.pad(np.asarray(s, dtype=float)[:p], (0, max(0, p - len(s))))
    u = haar_unitary(rows, rng)[:, :p]
    v = haar_unitary(cols, rng)[:, :p]
    return (u * s) @ v.conj().T


# singular values near the ball's edge, tiny ones, exact zeros and rank deficiency
EDGE_SPECTRA = [
    [1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-13],
    [1e-6, 1e-9, 1e-12],
    [0.5, 0.0, 0.0],
    [1.0 - 1e-13, 1e-12, 0.0],
    [0.0, 0.0, 0.0],
]


class TestGramRoute:
    """Ball factors of a tall or square X come from one eigh of X*X; a wide X keeps its SVD."""

    @pytest.mark.parametrize("s", EDGE_SPECTRA)
    @pytest.mark.parametrize("shape", [(5, 3), (3, 3), (7, 1), (2, 4)])
    def test_ball_unitary_at_edge_spectra(self, s, shape):
        rng = np.random.default_rng(50)
        for _ in range(10):
            x = matrix_with_singular_values(rng, *shape, s)
            w = flagparam.ball_unitary(x)
            assert unitarity_defect(w) <= 1e-13
            assert np.array_equal(w[: shape[0], shape[0] :], x)
            xv, v, c = ball_factors(x)
            assert frobenius(xv @ v.conj().T - x) <= 1e-14
            assert np.all((c >= 0.0) & (c <= 1.0))

    def test_single_entry_keeps_its_modulus(self):
        # sqrt(fl(x^2)) is x exactly, so the 1 x 1 cosine is ((1 - x)(1 + x))^1/2 to the last bit
        for x in (1.0 - 1e-13, 1.0 - 2.0**-27, 0.75, 1e-150):
            xv, v, c = ball_factors(np.array([[x]]))
            assert xv[0, 0] == x and v[0, 0] == 1.0
            assert c[0] == np.sqrt((1.0 - x) * (1.0 + x))

    def test_batch_matches_single_calls(self):
        # tall, wide, square, all-zero and edge-spectrum X: gram_eigh hands its
        # one Gram matrix to eigh unstacked, and agrees bit for bit with a batch
        # of one and with its row in a mixed batch, also one that an
        # overflowing X rescales as a whole
        rng = np.random.default_rng(51)
        for p in (1, 3):
            xs = [random_complex(rng, r, p) for r in (p, p + 2, 9, 17)]
            xs += [random_complex(rng, p, p + 4), np.zeros((p + 1, p), dtype=complex)]
            xs.append(matrix_with_singular_values(rng, 6, p, EDGE_SPECTRA[3]))
            overflowing = 1e200 * random_complex(rng, p + 2, p)
            for batch in (xs, [*xs, overflowing]):
                for x, row_s, row_q in zip(batch, *gram_eighs(batch), strict=True):
                    s, q = gram_eigh(x)
                    (one_s,), (one_q,) = gram_eighs([x])
                    assert np.array_equal(s, one_s) and np.array_equal(q, one_q)
                    assert np.array_equal(s, row_s) and np.array_equal(q, row_q)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    @pytest.mark.parametrize("shape", [(3, 2), (1, 1), (2, 3)])
    def test_overflowing_gram_still_rejects(self, scale, shape):
        # X*X overflows above ||X|| ~ 1e154; the ball checks read the rescaled norm
        x = scale * random_complex(np.random.default_rng(52), *shape)
        s, _ = gram_eigh(x)
        assert s[-1] == pytest.approx(np.linalg.norm(x / scale, 2) * scale, rel=1e-14)
        with pytest.raises(NotPSDError):
            flagparam.ball_unitary(x)
        with pytest.raises(ValidationError) as exc:
            open_ball_factors(x)
        assert exc.value.code == "BALL_NORM"

    def test_norm_overflow_is_typed(self):
        with pytest.raises(ValidationError) as exc:
            gram_eigh(np.full((4, 3), 1.5e308))
        assert exc.value.code == "NOT_FINITE"


OVERFLOWING = [1e200, 1e200 + 1e200j, 1e300]  # finite, but their squares overflow


class TestDotChecks:
    """Finite checks and Frobenius norms from one dot; numpy decides when the dot is not finite."""

    @pytest.mark.parametrize("entry", OVERFLOWING)
    @pytest.mark.parametrize("check", [as_matrix, as_square])
    def test_overflowing_squares_are_finite(self, check, entry):
        a = np.array([[0.5, entry], [0.0, 0.5]])
        assert np.array_equal(check(a), a)

    @pytest.mark.parametrize("entry", OVERFLOWING)
    def test_overflowing_frobenius_is_inf(self, entry):
        assert frobenius(np.array([[0.5, entry], [0.0, 0.5]], dtype=complex)) == np.inf
        assert frobenius(np.array([entry])) == np.inf

    @pytest.mark.parametrize("entry", OVERFLOWING)
    def test_overflowing_non_hermitian(self, entry):
        # the defect reads inf, as numpy's norm gives it, and fails the tolerance
        a = [[0.5, entry], [0.0, 0.5]]
        for call in (hermitian_part, flagparam.deparametrize):
            with pytest.raises(ValidationError) as exc:
                call(a)
            assert exc.value.code == "NOT_HERMITIAN"

    @pytest.mark.parametrize(
        "entry", [np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)]
    )
    @pytest.mark.parametrize("check", [as_matrix, as_square])
    def test_non_finite_entry(self, check, entry):
        a = np.full((3, 3), 0.5, dtype=complex)
        a[1, 2] = entry
        with pytest.raises(ValidationError) as exc:
            check(a)
        assert exc.value.code == "NOT_FINITE"

    @pytest.mark.parametrize(
        "a",
        [
            np.zeros((0, 0)),
            np.zeros((0, 3), dtype=complex),
            np.full((3, 3), 2**40),  # its int64 dot would wrap
            np.array([[True, False], [True, True]]),
            np.array([[1.5, -2.0], [np.nan, 0.0]]),
        ],
        ids=["empty", "empty-complex", "int64", "bool", "nan"],
    )
    def test_frobenius_of_other_arrays_is_numpy_norm(self, a):
        assert np.array_equal(frobenius(a), float(np.linalg.norm(a)), equal_nan=True)

    def test_jarlskog_angle_keeps_numpy_norm(self):
        # theta and zeta are parameters: they come from numpy's norm, whose
        # sum differs from the dot's in the last bit on about one vector in eight
        rng = np.random.default_rng(53)
        for j in [*range(1, 17)] * 8:
            x = 0.2 * random_complex(rng, 1, j).ravel() / np.sqrt(j)
            nrm = float(np.linalg.norm(x))
            level = flagparam.ball_to_jarlskog(x)
            assert level.theta == math.asin(nrm)
            assert np.array_equal(level.zeta, x / nrm)

    def test_empty_matrix_is_finite(self):
        assert as_matrix(np.zeros((0, 2))).shape == (0, 2)
        assert as_square(np.zeros((0, 0))).shape == (0, 0)


class TestHermitianMean:
    """(a + a*) / 2 through one copy of the transpose, bit for bit the direct expression."""

    @pytest.mark.parametrize("n", [1, 16, 64, 256])
    def test_bit_identical(self, n):
        rng = np.random.default_rng(n)
        a = random_complex(rng, n, n)
        assert np.array_equal(hermitian_mean(a), (a + a.conj().T) / 2)
        h = a + a.conj().T + 1e-14 * random_complex(rng, n, n)
        assert np.array_equal(hermitian_part(h, tol=1.0), (h + h.conj().T) / 2)
