import warnings

import numpy as np
import pytest

from flagparam import (
    FlagparamError,
    NotPSDError,
    PrincipalRangeWarning,
    ball_to_generator,
    ball_unitary,
    exp_generator,
    expm_reference,
    generator_matrix,
    generator_to_ball,
    haar_unitary,
    hermitian_sqrt,
    sqrt_complement,
)
from flagparam.linalg import frobenius, unitarity_defect
from flagparam.sampling import random_ball_matrix


def sinc_sqrt_reference(gram):
    """sin(M^1/2) M^-1/2 of a PSD Gram matrix M, through its eigendecomposition."""
    w, v = np.linalg.eigh(gram)
    return (v * np.sinc(np.sqrt(np.clip(w, 0.0, None)) / np.pi)) @ v.conj().T


class TestGeneratorMatrix:
    def test_layout(self):
        b = np.array([[1.0 + 2.0j]])
        k = generator_matrix(b)
        np.testing.assert_allclose(k, [[0.0, 1.0 + 2.0j], [-1.0 + 2.0j, 0.0]], atol=1e-15)

    def test_skew_hermitian(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        k = generator_matrix(b)
        assert frobenius(k + k.conj().T) <= 1e-15


class TestExpGenerator:
    def test_zero(self):
        np.testing.assert_allclose(exp_generator(np.zeros((2, 3))), np.eye(5), atol=1e-15)

    def test_scalar_rotation(self):
        theta = 0.8
        u = exp_generator(np.array([[theta]]))
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 2.0))
            delta = frobenius(exp_generator(b) - expm_reference(generator_matrix(b)))
            assert delta <= 1e-9

    def test_unitary_up_to_norm_five(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 5.0))
            assert unitarity_defect(exp_generator(b)) <= 1e-11

    def test_offdiagonal_block_both_factorizations(self):
        # the off-diagonal block can be written as a function of BB* acting
        # from the left or of B*B acting from the right; both must agree
        rng = np.random.default_rng(4)
        for _ in range(50):
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 3.0))
            right = b @ sinc_sqrt_reference(b.conj().T @ b)
            left = sinc_sqrt_reference(b @ b.conj().T) @ b
            assert frobenius(exp_generator(b)[:k1, k1:] - right) <= 1e-11
            assert frobenius(right - left) <= 1e-11


class TestGeneratorBall:
    def test_zero(self):
        np.testing.assert_allclose(
            generator_to_ball(np.zeros((2, 2))), np.zeros((2, 2)), atol=1e-15
        )

    def test_scalar(self):
        assert abs(generator_to_ball(np.array([[np.pi / 6]]))[0, 0] - 0.5) <= 1e-15
        assert abs(ball_to_generator(np.array([[0.5]]))[0, 0] - np.pi / 6) <= 1e-15

    def test_exponential_matches_ball_unitary_in_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 1.5))
            x = generator_to_ball(b)
            assert frobenius(exp_generator(b) - ball_unitary(x)) <= 1e-10

    def test_identity_fails_beyond_principal_range(self):
        # above pi/2 the cosine block goes negative while the ball unitary
        # keeps PSD diagonal blocks: the two genuinely differ
        b = np.array([[2.0]])
        with pytest.warns(PrincipalRangeWarning):
            x = generator_to_ball(b)
        assert frobenius(exp_generator(b) - ball_unitary(x)) > 0.1

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = random_ball_matrix(k1, k2, rng)
            b = ball_to_generator(x)
            assert frobenius(generator_to_ball(b) - x) <= 1e-10
            top = np.linalg.norm(b, 2)
            assert top < np.pi / 2

    def test_ball_to_generator_rejects_boundary(self):
        with pytest.raises(NotPSDError):
            ball_to_generator(np.array([[1.0]]))


class TestSmallNorm:
    # near zero the block functions have removable singularities; the
    # singular-value forms need no series there and keep relative accuracy
    @pytest.mark.parametrize("norm", [1e-12, 1e-9, 1e-6])
    def test_against_series_oracle(self, norm):
        rng = np.random.default_rng(41)
        for _ in range(30):
            k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            b = rng.standard_normal((k1, k2)) + 1j * rng.standard_normal((k1, k2))
            b *= norm / np.linalg.norm(b, 2)
            oracle = expm_reference(generator_matrix(b))
            u = exp_generator(b)
            assert frobenius(u - oracle) <= 1e-14
            assert frobenius(u[:k1, k1:] - oracle[:k1, k1:]) <= 1e-14 * norm
            x = generator_to_ball(b)
            assert frobenius(x - oracle[:k1, k1:]) <= 1e-14 * norm
            assert frobenius(ball_to_generator(x) - b) <= 1e-14 * norm

    @pytest.mark.parametrize("norm", [1e-12, 1e-9, 1e-6])
    def test_rank_one_closed_forms(self, norm):
        # B = t a c* with unit a, c: X = sin(t) a c*, and arcsin inverts it
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        c = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        ac = (a / np.linalg.norm(a)) @ (c / np.linalg.norm(c)).conj().T
        x = generator_to_ball(norm * ac)
        assert frobenius(x - np.sin(norm) * ac) <= 1e-15 * norm
        b = ball_to_generator(np.sin(norm) * ac)
        assert frobenius(b - np.arcsin(np.sin(norm)) * ac) <= 1e-15 * norm
        u = exp_generator(np.array([[norm]]))
        expected = np.array([[np.cos(norm), np.sin(norm)], [-np.sin(norm), np.cos(norm)]])
        np.testing.assert_allclose(u, expected, rtol=1e-15, atol=0)


class TestSqrtComplement:
    def test_zero(self):
        np.testing.assert_allclose(sqrt_complement(np.zeros((3, 2))), np.eye(3), atol=1e-15)

    def test_rank_one_column_formula(self):
        # for a single column x the identity collapses to
        # I + (x*x)^{-1} (sqrt(1 - x*x) - 1) x x*
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        x *= 0.6 / np.linalg.norm(x)
        t = float((x.conj().T @ x).real[0, 0])
        expected = np.eye(3) + ((np.sqrt(1.0 - t) - 1.0) / t) * (x @ x.conj().T)
        np.testing.assert_allclose(sqrt_complement(x), expected, atol=1e-13)

    def test_against_full_eigendecomposition(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k1, k2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            x = random_ball_matrix(k1, k2, rng)
            direct = sqrt_complement(x)
            full = hermitian_sqrt(np.eye(k1) - x @ x.conj().T)
            assert frobenius(direct - full) <= 1e-10
            assert frobenius(direct - direct.conj().T) <= 1e-13

    def test_boundary_accepted(self):
        rng = np.random.default_rng(9)
        x = random_ball_matrix(4, 2, rng, radius=1.0)
        s = sqrt_complement(x)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12

    def test_rejects_outside_ball(self):
        with pytest.raises(NotPSDError):
            sqrt_complement(np.array([[1.2]]))


def with_singular_values(rng, rows, cols, s):
    """U diag(s) V* with Haar U and V; ``s`` is truncated or zero-padded to min(rows, cols)."""
    p = min(rows, cols)
    s = np.pad(np.asarray(s, dtype=float)[:p], (0, max(0, p - len(s))))
    return (haar_unitary(rows, rng)[:, :p] * s) @ haar_unitary(cols, rng)[:, :p].conj().T


class TestGramRoute:
    """Every block is a function of the smaller Gram matrix B*B or BB*, from one eigh."""

    @pytest.mark.parametrize("shape", [(1, 4), (2, 5), (3, 4), (2, 7)])
    def test_wide_mirrors_tall(self, shape):
        # exp of the generator of -B* is exp of B's generator with its blocks
        # swapped, and X(B*) = X(B)*: the wide branch against the tall one
        rng = np.random.default_rng(60)
        k1, k2 = shape
        for _ in range(20):
            b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 1.5))
            u = exp_generator(b)
            swap = np.r_[k1 : k1 + k2, 0:k1]
            assert frobenius(exp_generator(-b.conj().T) - u[np.ix_(swap, swap)]) <= 1e-14
            assert frobenius(generator_to_ball(b.conj().T) - generator_to_ball(b).conj().T) <= 1e-14
            assert frobenius(u - expm_reference(generator_matrix(b))) <= 1e-13

    @pytest.mark.parametrize(
        "s", [[1.4, 1e-9, 1e-12, 0.0], [1e-6, 1e-9, 1e-12, 1e-12], [1.5, 1.5, 0.0, 0.0]]
    )
    @pytest.mark.parametrize("shape", [(6, 4), (4, 4), (4, 6)])
    def test_clustered_and_zero_singular_values(self, s, shape):
        rng = np.random.default_rng(61)
        k1 = shape[0]
        for _ in range(10):
            b = with_singular_values(rng, *shape, s)
            oracle = expm_reference(generator_matrix(b))
            u = exp_generator(b)
            assert unitarity_defect(u) <= 1e-13
            assert frobenius(u - oracle) <= 1e-13
            x = generator_to_ball(b)
            assert frobenius(x - oracle[:k1, k1:]) <= 1e-13
            assert frobenius(ball_to_generator(x) - b) <= 1e-12
            assert unitarity_defect(ball_unitary(x)) <= 1e-13

    @pytest.mark.parametrize("scale", [1e160, 1e250, 1e307, 1.5e308])
    @pytest.mark.parametrize("shape", [(3, 2), (1, 1), (2, 3)])
    def test_overflowing_gram(self, scale, shape):
        # a generator whose Gram matrix overflows gives a finite result or a typed error
        rng = np.random.default_rng(62)
        b = scale * (rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape))
        for f in (exp_generator, generator_to_ball):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", PrincipalRangeWarning)
                    out = f(b)
            except FlagparamError as exc:
                assert exc.code == "NOT_FINITE"
            else:
                assert np.isfinite(out).all()
                if f is exp_generator:
                    assert unitarity_defect(out) <= 1e-13
        with pytest.raises(FlagparamError):
            ball_to_generator(b)
