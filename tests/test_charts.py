import decimal

import numpy as np
import pytest

from flagparam import (
    RANK_TOL,
    NoChartError,
    NotPSDError,
    OutOfChartError,
    ValidationError,
    affine_to_ball,
    ball_to_affine,
    ball_unitary,
    chart_coordinates,
    chart_permutations,
    chart_point,
    frame_of_projector,
    frame_of_unitary,
    global_section,
    haar_unitary,
    hermitian_sqrt,
    identity_chart,
    local_section,
    permutation_unitary,
    projector_of_frame,
    projector_of_unitary,
    select_chart,
)
from flagparam.charts import _is_identity, frame_chart_factors, select_frame_chart, validate_chart
from flagparam.linalg import frobenius, open_ball_factors, unitarity_defect
from flagparam.sampling import random_ball_matrix


def bottom_projector(n, k):
    return np.diag([0.0] * (n - k) + [1.0] * k).astype(complex)


class TestPermutations:
    def test_identity(self):
        np.testing.assert_array_equal(permutation_unitary(identity_chart(4)), np.eye(4))

    def test_two_cycle(self):
        np.testing.assert_array_equal(
            permutation_unitary((2, 1)), np.array([[0.0, 1.0], [1.0, 0.0]])
        )

    def test_maps_basis_vectors(self):
        rng = np.random.default_rng(1)
        perms = chart_permutations(4, 2)
        sigma = perms[rng.integers(len(perms))]
        u = permutation_unitary(sigma)
        assert unitarity_defect(u) <= 1e-15
        for j, sj in enumerate(sigma):
            e = np.zeros(4)
            e[j] = 1.0
            np.testing.assert_array_equal(u @ e, np.eye(4)[sj - 1])

    def test_enumeration_count_and_runs(self):
        for n in range(2, 8):
            for k in range(1, n):
                perms = chart_permutations(n, k)
                from math import comb

                assert len(perms) == comb(n, k)
                assert perms[0] == identity_chart(n)
                for sigma in perms:
                    validate_chart(sigma, k, n)

    def test_is_identity_matches_identity_chart(self):
        # one entry decides it on a valid chart: the first designated row
        for n in range(1, 8):
            for k in range(1, n + 1):
                for sigma in chart_permutations(n, k):
                    assert _is_identity(sigma, n - k) == (sigma == identity_chart(n)), sigma

    def test_validate_chart_rejects_bad_runs(self):
        with pytest.raises(ValidationError):
            validate_chart((2, 1, 3, 4), 2, 4)
        with pytest.raises(ValidationError):
            validate_chart((1, 1, 2, 3), 2, 4)

    def test_validate_chart_reads_integral_entries(self):
        # numpy ints, integral floats and digit strings name the same chart
        for sigma in [(np.int32(2), np.int64(1)), (2.0, 1.0), ("2", "1"), np.array([2, 1])]:
            assert validate_chart(sigma, 1) == (2, 1)
            assert all(type(s) is int for s in validate_chart(sigma, 1))

    @pytest.mark.parametrize(
        "sigma", [(1.7, 2), (2, 1.0000001), (np.nan, 1), (np.inf, 1), ("a", 1), (10**30, 1), (None, 1)]
    )
    def test_validate_chart_rejects_non_integral_entries(self, sigma):
        # (1.7, 2) used to be read as (1, 2), and 10**30 escaped as an OverflowError
        with pytest.raises(ValidationError) as exc:
            validate_chart(sigma, 1)
        assert exc.value.code == "BAD_CHART"

    def test_validate_chart_matches_loop_reference(self):
        # every sequence over 1..n of length n (repeats included), every k
        def reference(sigma, k):
            m = len(sigma)
            top, bottom = sigma[: m - k], sigma[m - k :]
            return sorted(sigma) == list(range(1, m + 1)) and all(
                a < b for run in (top, bottom) for a, b in zip(run, run[1:])
            )

        from itertools import product

        for n in range(1, 5):
            for sigma in product(range(1, n + 1), repeat=n):
                for k in range(1, n + 1):
                    try:
                        assert validate_chart(sigma, k, n) == sigma
                        accepted = True
                    except ValidationError:
                        accepted = False
                    assert accepted == reference(sigma, k), (sigma, k)


class TestBallUnitary:
    def test_zero(self):
        np.testing.assert_allclose(ball_unitary(np.zeros((2, 3))), np.eye(5), atol=1e-15)

    def test_scalar_rotation(self):
        theta = 0.3
        w = ball_unitary(np.array([[np.sin(theta)]]))
        expected = np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
        )
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_unitary_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_ball_matrix(3, 2, rng)
            assert unitarity_defect(ball_unitary(x)) <= 1e-12

    def test_unitary_on_boundary(self):
        rng = np.random.default_rng(3)
        x = random_ball_matrix(3, 2, rng, radius=1.0)
        assert unitarity_defect(ball_unitary(x)) <= 1e-12

    def test_blocks_are_the_stated_square_roots(self):
        rng = np.random.default_rng(4)
        x = random_ball_matrix(3, 2, rng)
        w = ball_unitary(x)
        np.testing.assert_allclose(
            w[:3, :3], hermitian_sqrt(np.eye(3) - x @ x.conj().T), atol=1e-12
        )
        np.testing.assert_allclose(
            w[3:, 3:], hermitian_sqrt(np.eye(2) - x.conj().T @ x), atol=1e-12
        )
        np.testing.assert_allclose(w[:3, 3:], x, atol=1e-15)

    def test_rejects_outside_closed_ball(self):
        with pytest.raises(NotPSDError):
            ball_unitary(np.array([[1.1]]))


class TestFramesAndProjectors:
    def test_identity_frame(self):
        f = frame_of_unitary(np.eye(5), 2)
        np.testing.assert_array_equal(f, np.eye(5)[:, 3:])

    def test_frame_of_ball_unitary(self):
        rng = np.random.default_rng(5)
        x = random_ball_matrix(3, 2, rng)
        f = frame_of_unitary(ball_unitary(x), 2)
        np.testing.assert_allclose(f[:3], x, atol=1e-15)
        np.testing.assert_allclose(
            f[3:], hermitian_sqrt(np.eye(2) - x.conj().T @ x), atol=1e-12
        )

    def test_frame_orthonormal(self):
        g = haar_unitary(6, 8)
        f = frame_of_unitary(g, 3)
        assert frobenius(f.conj().T @ f - np.eye(3)) <= 1e-12

    def test_projector_trivial(self):
        f = np.eye(5)[:, 3:]
        np.testing.assert_allclose(projector_of_frame(f), bottom_projector(5, 2), atol=1e-15)

    def test_projector_gauge_invariance(self):
        rng = np.random.default_rng(6)
        f = frame_of_unitary(haar_unitary(5, rng), 2)
        q = haar_unitary(2, rng)
        assert frobenius(projector_of_frame(f) - projector_of_frame(f @ q)) <= 1e-12

    def test_projector_trace(self):
        rng = np.random.default_rng(7)
        x = random_ball_matrix(3, 2, rng)
        p = projector_of_unitary(ball_unitary(x), 2)
        assert abs(np.trace(p).real - 2.0) <= 1e-12

    def test_frame_of_projector_spans(self):
        rng = np.random.default_rng(8)
        p = projector_of_unitary(haar_unitary(6, rng), 2)
        f = frame_of_projector(p)
        assert frobenius(f.conj().T @ f - np.eye(2)) <= 1e-12
        assert frobenius(f @ f.conj().T - p) <= 1e-12

    def test_frame_of_projector_rejects_non_projector(self):
        with pytest.raises(ValidationError):
            frame_of_projector(0.5 * np.eye(3))


class TestChartMaps:
    def test_coordinates_at_origin(self):
        np.testing.assert_allclose(
            chart_coordinates(bottom_projector(5, 2), identity_chart(5)),
            np.zeros((3, 2)),
            atol=1e-14,
        )

    def test_point_at_origin(self):
        np.testing.assert_allclose(
            chart_point(np.zeros((3, 2)), identity_chart(5)),
            bottom_projector(5, 2),
            atol=1e-14,
        )

    def test_roundtrip_from_section_image(self):
        rng = np.random.default_rng(9)
        x0 = random_ball_matrix(2, 2, rng)
        p = projector_of_unitary(ball_unitary(x0), 2)
        np.testing.assert_allclose(
            chart_coordinates(p, identity_chart(4)), x0, atol=1e-10
        )

    def test_roundtrips_random_charts(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            perms = chart_permutations(n, k)
            sigma = perms[rng.integers(len(perms))]
            x = random_ball_matrix(n - k, k, rng)
            p = chart_point(x, sigma)
            x_back = chart_coordinates(p, sigma)
            assert frobenius(x_back - x) <= 1e-10
            assert frobenius(chart_point(x_back, sigma) - p) <= 1e-10

    def test_roundtrip_near_boundary(self):
        # interior but close to the chart edge: conditioning still leaves
        # plenty of headroom at the 1e-10 contract
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = random_ball_matrix(3, 2, rng, radius=0.999)
            p = chart_point(x, identity_chart(5))
            assert frobenius(chart_coordinates(p, identity_chart(5)) - x) <= 1e-10

    def test_out_of_chart(self):
        # the line through e_1 has no coordinate in the identity chart at n=2
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(OutOfChartError):
            chart_coordinates(p, identity_chart(2))

    def test_swap_chart_covers_e1(self):
        p = chart_point(np.zeros((1, 1)), (2, 1))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-14)

    def test_coordinates_frame_choice_independent(self):
        rng = np.random.default_rng(11)
        f = frame_of_unitary(haar_unitary(5, rng), 2)
        q = haar_unitary(2, rng)
        sigma = identity_chart(5)
        x1 = chart_coordinates(projector_of_frame(f), sigma)
        x2 = chart_coordinates(projector_of_frame(f @ q), sigma)
        assert frobenius(x1 - x2) <= 1e-12

    def test_chart_translation(self):
        # the permuted chart is the permuted image of the identity chart
        rng = np.random.default_rng(12)
        x = random_ball_matrix(2, 2, rng)
        for sigma in chart_permutations(4, 2):
            u = permutation_unitary(sigma)
            lhs = chart_point(x, sigma)
            rhs = u @ chart_point(x, identity_chart(4)) @ u.conj().T
            assert frobenius(lhs - rhs) <= 1e-12

    def test_ball_parameter_count(self):
        # one chart carries the full real dimension of the manifold
        for n in range(2, 7):
            for k in range(1, n):
                x = np.zeros((n - k, k))
                assert 2 * x.size == 2 * k * (n - k)


class TestChartSelection:
    def test_origin_selects_identity(self):
        assert select_chart(bottom_projector(5, 2)) == identity_chart(5)

    def test_projective_fallback(self):
        # the line through e_1 misses the identity chart but not the swap chart
        p = np.diag([1.0, 0.0]).astype(complex)
        assert select_chart(p) == (2, 1)

    def test_haar_coverage(self):
        rng = np.random.default_rng(13)
        off_identity = 0
        for _ in range(1000):
            p = projector_of_unitary(haar_unitary(4, rng), 2)
            sigma = select_chart(p)
            if sigma != identity_chart(4):
                off_identity += 1
        assert off_identity / 1000 < 0.01

    def test_malformed_input_rejected(self):
        with pytest.raises(ValidationError):
            select_chart(np.full((3, 3), 0.3, dtype=complex))


def scan_chart(f):
    """Reference selection: try every chart in priority order, return the
    first whose designated rows have smallest singular value above RANK_TOL."""
    n, k = f.shape
    for sigma in chart_permutations(n, k):
        rows = np.array(sigma[n - k :]) - 1
        if np.linalg.svd(f[rows, :], compute_uv=False)[-1] > RANK_TOL:
            return sigma
    return None


def orthonormalize(a):
    """a (a*a)^(-1/2): zero rows stay exactly zero and row dependencies are kept."""
    w, v = np.linalg.eigh(a.conj().T @ a)
    return a @ ((v / np.sqrt(w)) @ v.conj().T)


def sparse_frame(rng, n, k):
    """Orthonormal frame from a Ginibre matrix with zeroed entries and rows.

    Rows supported on fewer columns than their count are exactly dependent,
    so many of these frames miss the identity chart.
    """
    while True:
        a = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        a[rng.random((n, k)) < 0.5] = 0.0
        a[rng.random(n) < 0.3] = 0.0
        if np.linalg.matrix_rank(a) == k:
            return orthonormalize(a)


def near_tolerance_frame(rng, n, k):
    """Haar frame whose identity-chart block is singular up to eps in [0.1, 10] * RANK_TOL."""
    f = frame_of_unitary(haar_unitary(n, rng), k)
    i = n - k + int(rng.integers(k))
    others = [j for j in range(n - k, n) if j != i]
    c = rng.standard_normal(k - 1) + 1j * rng.standard_normal(k - 1)
    eps = RANK_TOL * 10.0 ** rng.uniform(-1.0, 1.0)
    f[i] = c @ f[others] + eps * f[i]
    return orthonormalize(f)


def small_row_frame(rng, n, k):
    """Haar frame with row n and some other rows shrunk to norm in [0.5, 2] * RANK_TOL.

    Row sets holding a short row pass or fail by a hair at RANK_TOL, which
    is where a search without backtracking dead-ends.
    """
    f = frame_of_unitary(haar_unitary(n, rng), k)
    rows = rng.choice(n - 1, int(rng.integers(0, n - k)), replace=False)
    rows = np.append(rows, n - 1)
    norms = RANK_TOL * 10.0 ** rng.uniform(-0.3, 0.3, rows.size)
    f[rows] *= (norms / np.linalg.norm(f[rows], axis=1))[:, None]
    return orthonormalize(f)


def short_last_row_frame(q, short=1.1 * RANK_TOL):
    """Rows of the unitary q, then a row of norm ``short`` along the first column.

    Each row of q has at least a sixth of its weight on the first column, so
    the short row passes RANK_TOL alone but fails together with any other row.
    """
    f = np.vstack([q, np.eye(1, q.shape[1])]).astype(complex)
    f[-1] *= short
    return orthonormalize(f)


class TestFrameChartSelection:
    """The depth-first search picks the same chart as the full priority scan."""

    @staticmethod
    def compare(make_frame, seed, count):
        rng = np.random.default_rng(seed)
        mismatches, off_identity = [], 0
        for _ in range(count):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            f = make_frame(rng, n, k)
            expected = scan_chart(f)
            got = select_frame_chart(f)[0]
            if got != expected:
                mismatches.append((n, k, expected, got))
            off_identity += expected != identity_chart(n)
        return mismatches, off_identity

    def test_sparse_frames(self):
        mismatches, off_identity = self.compare(sparse_frame, 40, 1500)
        assert mismatches == []
        assert off_identity > 300  # the exact zeros push many frames off the identity chart

    def test_near_tolerance_frames(self):
        mismatches, off_identity = self.compare(near_tolerance_frame, 41, 1500)
        assert mismatches == []
        # eps straddles RANK_TOL, so both outcomes of the boundary test occur
        assert 100 < off_identity < 1400

    def test_small_row_frames(self):
        mismatches, off_identity = self.compare(small_row_frame, 43, 1500)
        assert mismatches == []
        assert off_identity > 300

    @pytest.mark.parametrize(
        "q, chart",
        [
            (np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2), (3, 1, 2)),
            (np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3), (4, 1, 2, 3)),
        ],
    )
    def test_dead_end(self, q, chart):
        # a search that keeps the short last row finds no partners for it
        f = short_last_row_frame(q)
        assert scan_chart(f) == chart
        assert select_frame_chart(f)[0] == chart

    def test_backtracking(self):
        # rows 2 and 3 together span the column, so row 1 may join the top;
        # neither passes alone, so the search must take row 1 out again
        f = orthonormalize(np.array([[1.0], [0.8 * RANK_TOL], [0.8 * RANK_TOL]], dtype=complex))
        assert scan_chart(f) == (2, 3, 1)
        assert select_frame_chart(f)[0] == (2, 3, 1)

    def test_no_chart(self):
        with pytest.raises(NoChartError):
            select_frame_chart(np.zeros((4, 2), dtype=complex))

    def test_frame_choice_independent(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = sparse_frame(rng, 6, 3)
            assert select_frame_chart(f @ haar_unitary(3, rng))[0] == select_frame_chart(f)[0]

    @staticmethod
    def drawn_frames(make_frame, seed, count):
        """The frames that :meth:`compare` draws for the same arguments."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            yield make_frame(rng, n, k)

    def test_returned_factors_match_chart(self):
        # the factors must come from the accepted chart's own SVD, never
        # from a completion the search tried and rejected
        frames = [
            short_last_row_frame(np.array([[-1.0, 1.0], [1.0, 1.0]]) / np.sqrt(2)),
            short_last_row_frame(
                np.exp(2j * np.pi * np.outer(range(3), range(3)) / 3) / np.sqrt(3)
            ),
            orthonormalize(np.array([[1.0], [0.8 * RANK_TOL], [0.8 * RANK_TOL]], dtype=complex)),
        ]
        pools = [(sparse_frame, 40), (near_tolerance_frame, 41), (small_row_frame, 43)]
        for make_frame, seed in pools:
            frames.extend(self.drawn_frames(make_frame, seed, 1500))
        for f in frames:
            sigma, factors = select_frame_chart(f)
            expected = frame_chart_factors(f, sigma)
            assert all(np.array_equal(a, b) for a, b in zip(factors, expected, strict=True))


class TestRankOneChartFactors:
    """A k = 1 level takes its chart and factors in closed form, without an SVD."""

    @staticmethod
    def frames():
        rng = np.random.default_rng(44)
        for make_frame in (sparse_frame, near_tolerance_frame, small_row_frame):
            for _ in range(300):
                yield make_frame(rng, int(rng.integers(2, 9)), 1)
        for n in list(range(2, 9)) * 20 + [64] * 20:
            yield frame_of_unitary(haar_unitary(n, rng), 1)

    def test_against_svd(self):
        mismatches, off_identity = [], 0
        for f in self.frames():
            n = f.shape[0]
            sigma, (x, xv, v, c) = select_frame_chart(f)
            expected = scan_chart(f)
            if sigma != expected:
                mismatches.append((n, expected, sigma))
                continue
            off_identity += sigma != identity_chart(n)
            rows = np.array(sigma) - 1
            f_top, b = f[rows[:-1]], f[rows[-1:]]
            v_left, s, wh = np.linalg.svd(b.conj().T)
            assert np.abs(x - f_top @ v_left @ wh).max() <= 1e-15
            assert np.array_equal(xv, x) and np.array_equal(v, [[1.0]])
            assert np.array_equal(c, np.abs(b[:, 0]))
            assert c[0] == pytest.approx(s[0], rel=1e-15)
        assert mismatches == []
        assert off_identity > 300  # many frames leave the identity chart

    def test_entry_at_tolerance(self):
        # |f_n| = RANK_TOL fails the strict test, so row n - 1 is designated
        f = np.array([[0.6], [np.sqrt(0.64 - RANK_TOL**2)], [RANK_TOL]], dtype=complex)
        assert np.abs(f[-1, 0]) == RANK_TOL
        assert select_frame_chart(f)[0] == scan_chart(f) == (1, 3, 2)
        with pytest.raises(OutOfChartError):
            frame_chart_factors(f, identity_chart(3))


class TestSections:
    def test_identity_section(self):
        np.testing.assert_allclose(
            local_section(bottom_projector(5, 2), identity_chart(5)), np.eye(5), atol=1e-14
        )

    def test_projective_swap_section(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(
            local_section(p, (2, 1)), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14
        )

    def test_section_law(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            p = projector_of_unitary(haar_unitary(n, rng), k)
            g = global_section(p)
            assert unitarity_defect(g) <= 1e-12
            assert frobenius(projector_of_unitary(g, k) - p) <= 1e-10


class TestSectionSvdCount:
    """A section reuses the chart map's (X, XV, V, c) for its dense W(X)."""

    @staticmethod
    def count_svds(monkeypatch, make_section):
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        make_section()
        return len(calls)

    def test_global_section(self, monkeypatch):
        p = projector_of_unitary(haar_unitary(8, 15), 3)
        assert select_chart(p) == identity_chart(8)
        assert self.count_svds(monkeypatch, lambda: global_section(p)) == 1

    def test_local_section(self, monkeypatch):
        p = projector_of_unitary(haar_unitary(8, 16), 3)
        sigma = (1, 2, 4, 6, 8, 3, 5, 7)
        assert self.count_svds(monkeypatch, lambda: local_section(p, sigma)) == 1
        g = local_section(p, sigma)
        assert unitarity_defect(g) <= 1e-12
        assert frobenius(projector_of_unitary(g, 3) - p) <= 1e-10


class TestBallValidation:
    def test_open_ball_accepts_interior(self):
        rng = np.random.default_rng(30)
        x = random_ball_matrix(3, 2, rng, radius=0.999)
        xv, v, c = open_ball_factors(x)
        assert frobenius(xv @ v.conj().T - x) <= 1e-14
        assert np.all(c > 0.0)

    def test_open_ball_rejects_norm_one_and_above(self):
        rng = np.random.default_rng(31)
        for x in [
            np.eye(3, 2, dtype=complex),
            random_ball_matrix(3, 2, rng, radius=1.0 + 1e-9),
            random_ball_matrix(3, 2, rng, radius=2.0),
        ]:
            with pytest.raises(ValidationError, match="spectral norm") as exc:
                open_ball_factors(x)
            assert exc.value.code == "BALL_NORM"


class TestAffineChart:
    def test_mutual_inverse(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            x = random_ball_matrix(n - k, k, rng)
            z = ball_to_affine(x)
            assert frobenius(affine_to_ball(z) - x) <= 1e-10
            assert frobenius(ball_to_affine(affine_to_ball(z)) - z) <= 1e-10 * max(
                1.0, frobenius(z)
            )

    def test_against_direct_formulas(self):
        rng = np.random.default_rng(16)
        x = random_ball_matrix(3, 2, rng)
        z = ball_to_affine(x)
        expected = x @ np.linalg.inv(hermitian_sqrt(np.eye(2) - x.conj().T @ x))
        np.testing.assert_allclose(z, expected, atol=1e-11)

    @pytest.mark.parametrize("d", [2.0**-27, 1e-6, 1e-8])
    def test_near_boundary_relative_accuracy(self, d):
        # the cosine of x = 1 - d is ((1 - x)(1 + x))^1/2: forming 1 - x^2
        # would cancel about log10(1/d) digits
        x = 1.0 - d
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            exact = decimal.Decimal(x) / (1 - decimal.Decimal(x) ** 2).sqrt()
            z = ball_to_affine([[x]])[0, 0]
            assert z.imag == 0.0
            assert abs((decimal.Decimal(z.real) - exact) / exact) <= decimal.Decimal(1e-15)

    def test_affine_chart_rejects_boundary(self):
        with pytest.raises(ValidationError):
            ball_to_affine(np.array([[1.0]]))
