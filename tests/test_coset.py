import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagparam import (
    RANK_TOL,
    BlockDiagonalUnitary,
    FlagCoordinates,
    JarlskogLevel,
    OutOfChartError,
    ValidationError,
    ball_to_jarlskog,
    ball_unitary,
    coordinates_distance,
    decompose_unitary,
    deparametrize,
    flag_section,
    haar_unitary,
    identity_chart,
    jarlskog_to_ball,
    jarlskog_unitary,
    projector_of_unitary,
    reconstruct_unitary,
    section_from_projective_factors,
    validate_profile,
)
from flagparam import coset, density
from flagparam.charts import _gather_rows, _select_frame_chart, select_frame_chart
from flagparam.coset import _PANEL_LEVELS, level_dimensions
from flagparam.linalg import ball_factors, block_diag, frobenius, unitarity_defect
from flagparam.sampling import (
    random_ball_matrix,
    random_block_diagonal,
    random_flag_coordinates,
)

N4_PROFILES = [(1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]
# the rebuild groups runs of rank-one levels into panels: these profiles give
# several full panels, a wider outermost level after a run of rank-one ones,
# rank-one levels between wider ones, wider levels only, and runs of rank-one
# levels on either side of a wider one, and an innermost level with
# k = 3 > r, whose factors are one column wide but which no panel takes
PANEL_PROFILES = [
    (1,) * 40,
    (1,) * 20 + (8,),
    (3, 1, 2, 1, 3),
    (2,) * 10,
    (1, 3, 1, 1, 2, 1, 1),
]


def zero_coordinates(profile):
    dims = level_dimensions(profile)
    return FlagCoordinates(
        profile,
        tuple(np.zeros((nj - kj, kj)) for nj, kj in dims),
        tuple(identity_chart(nj) for nj, _ in dims),
    )


class TestProfile:
    def test_validate(self):
        assert validate_profile([2, 1, 1]) == (2, 1, 1)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValidationError):
            validate_profile([])
        with pytest.raises(ValidationError):
            validate_profile([2, 0])

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValidationError):
            validate_profile([2, 1], n=4)

    def test_accepts_integral_entries(self):
        # numpy ints, integral floats and the CLI's digit strings
        assert validate_profile([np.int64(2), 1.0, "3", np.float32(1)]) == (2, 1, 3, 1)
        assert all(type(k) is int for k in validate_profile([np.int64(2), 1.0, "3"]))

    @pytest.mark.parametrize("entry", [1.5, 0.6, "1.5", float("inf"), float("nan"), None])
    def test_rejects_non_integral_entries(self, entry):
        # 1.5 used to be truncated to 1, and inf escaped as an OverflowError
        with pytest.raises(ValidationError) as exc:
            validate_profile([entry, 1])
        assert exc.value.code == "PROFILE_VALUES"

    def test_spectrum_rejects_non_integral_profile(self):
        # read as profile (1, 1), whose weighted sum 0.6 + 0.4 is 1
        with pytest.raises(ValidationError) as exc:
            density.Spectrum((1.5, 1), (0.6, 0.4))
        assert exc.value.code == "PROFILE_VALUES"

    def test_level_dimensions(self):
        assert level_dimensions((2, 1, 1)) == [(4, 1), (3, 1)]
        assert level_dimensions((3,)) == []


class TestDecompose:
    def test_identity(self):
        for profile in N4_PROFILES:
            coords, h = decompose_unitary(np.eye(4), profile)
            assert all(frobenius(x) <= 1e-14 for x in coords.xs)
            assert all(sigma == identity_chart(len(sigma)) for sigma in coords.charts)
            assert frobenius(h.matrix() - np.eye(4)) <= 1e-14

    @pytest.mark.parametrize("phi", [0.4, 1.1, 3.0])
    def test_off_diagonal_two_by_two(self, phi):
        # the line through e_1 forces the swap chart; the residue is
        # diag(-e^{-i phi}, e^{i phi}) (the only diagonal matching g)
        g = np.array([[0.0, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
        coords, h = decompose_unitary(g, (1, 1))
        assert coords.charts == ((2, 1),)
        assert frobenius(coords.xs[0]) <= 1e-14
        assert abs(h.blocks[0][0, 0] + np.exp(-1j * phi)) <= 1e-14
        assert abs(h.blocks[1][0, 0] - np.exp(1j * phi)) <= 1e-14
        assert frobenius(reconstruct_unitary(coords, h) - g) <= 1e-14

    @pytest.mark.parametrize("profile", N4_PROFILES)
    def test_roundtrip_haar(self, profile):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = haar_unitary(4, rng)
            coords, h = decompose_unitary(g, profile)
            assert frobenius(reconstruct_unitary(coords, h) - g) <= 1e-10

    @pytest.mark.parametrize("profile", N4_PROFILES)
    def test_coset_invariance(self, profile):
        rng = np.random.default_rng(18)
        for _ in range(10):
            g = haar_unitary(4, rng)
            v = random_block_diagonal(profile, rng)
            a, _ = decompose_unitary(g, profile)
            b, hb = decompose_unitary(g @ v.matrix(), profile)
            assert coordinates_distance(a, b) <= 1e-10

    def test_residue_unique_and_deterministic(self):
        rng = np.random.default_rng(19)
        g = haar_unitary(4, rng)
        coords, h = decompose_unitary(g, (2, 2))
        # replacing the residue by any other block-diagonal factor must
        # return the same coordinates and the factor itself
        other = random_block_diagonal((2, 2), rng)
        g2 = flag_section(coords) @ other.matrix()
        coords2, h2 = decompose_unitary(g2, (2, 2))
        assert coordinates_distance(coords, coords2) <= 1e-10
        assert frobenius(h2.matrix() - other.matrix()) <= 1e-10

    def test_roundtrip_larger_dimension(self):
        rng = np.random.default_rng(27)
        for profile in [(3, 3, 2), (1,) * 8, (4, 4)]:
            g = haar_unitary(8, rng)
            coords, h = decompose_unitary(g, profile)
            assert frobenius(reconstruct_unitary(coords, h) - g) <= 1e-10

    def test_roundtrip_structured_unitaries(self):
        # exactly structured inputs (discrete Fourier matrix, a permutation,
        # a real rotation) hit chart boundaries and exact zeros head on
        j, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        dft = np.exp(2j * np.pi * j * k / 4) / 2
        perm = np.eye(4)[:, [2, 0, 3, 1]].astype(complex)
        th = np.pi / 3
        rot = block_diag(
            np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]]), np.eye(2)
        )
        for g in (dft, perm, rot):
            for profile in N4_PROFILES:
                coords, h = decompose_unitary(g, profile)
                assert frobenius(reconstruct_unitary(coords, h) - g) <= 1e-10

    @pytest.mark.parametrize("profile", [(1,) * 8, (2, 2, 2, 2), (2, 5, 1)])
    def test_one_svd_per_level(self, profile, monkeypatch):
        # the chart search hands the SVD that accepted the chart to the peel;
        # a rank-one level reads its factors off the one block entry, no SVD,
        # and a k > r level takes one thin SVD of B* Z (and one QR)
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        rng = np.random.default_rng(34)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for _ in range(5):
            g = haar_unitary(8, rng)
            calls.clear()
            coords, _ = decompose_unitary(g, profile)
            assert all(sigma == identity_chart(len(sigma)) for sigma in coords.charts)
            assert len(calls) == sum(k > 1 for k in profile[1:])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            decompose_unitary(np.diag([2.0, 1.0]), (1, 1))

    @pytest.mark.parametrize("profile", [(128, 128), (125, 3), (3, 125)])
    def test_roundtrip_at_scale(self, profile):
        # chart selection is polynomial: a full scan would try up to
        # C(256, 128) ~ 6e75 charts for the balanced profile.  One thread
        # finishes both cases in well under a second; the bound leaves room
        # for a loaded host.
        g = haar_unitary(sum(profile), 29)
        start = time.perf_counter()
        coords, h = decompose_unitary(g, profile)
        back = reconstruct_unitary(coords, h)
        elapsed = time.perf_counter() - start
        assert frobenius(back - g) <= 1e-10
        assert elapsed < 20.0


def dense_decompose(g, profile):
    """Reference peel: each level divides out the dense section W(X)*."""
    cur = g
    xs, charts, residues = [], [], []
    for nj, kj in level_dimensions(profile):
        r = nj - kj
        frame = cur[:, r:]
        sigma, (x, *_) = select_frame_chart(frame)
        res = ball_unitary(x).conj().T @ cur[np.array(sigma) - 1, :]
        xs.append(x)
        charts.append(sigma)
        residues.append(res[r:, r:])
        cur = res[:r, :r]
    return xs, charts, [cur] + residues[::-1]


def dense_reconstruct(coords, h):
    """Reference rebuild: each level multiplies by the dense section W(X)."""
    g = np.eye(coords.n, dtype=complex)
    for (nj, _), x, sigma in zip(level_dimensions(coords.profile), coords.xs, coords.charts):
        g[:, :nj] = g[:, np.array(sigma) - 1] @ ball_unitary(x)
    return g @ h.matrix()


def sparse_unitary(n, rng):
    """Block-diagonal Haar 4x4 blocks with three random row swaps.

    Decomposed over a profile, such inputs leave the identity chart on runs
    of levels, with identity-chart levels before, between and after them,
    so charts fall inside and at the edges of the rebuild's panels.
    """
    sizes = [4] * (n // 4) + ([n % 4] if n % 4 else [])
    rows = np.arange(n)
    for _ in range(3):
        i, j = rng.choice(n, 2, replace=False)
        rows[[i, j]] = rows[[j, i]]
    return block_diag(*[haar_unitary(s, rng) for s in sizes])[rows]


def near_boundary_unitary(r, k, margin, rng):
    """Section over a plane whose identity-chart block has smallest singular value ``margin``."""
    p = min(r, k)
    s = np.sqrt(rng.uniform(0.0, 0.9, p))
    s[0] = np.sqrt(1.0 - margin**2)
    x = haar_unitary(r, rng)[:, :p] @ np.diag(s) @ haar_unitary(k, rng)[:p, :]
    return ball_unitary(x) @ random_block_diagonal((r, k), rng).matrix()


class TestFactoredSections:
    """The factored peel and rebuild against the dense W(X) products."""

    def check_parity(self, g, profile):
        coords, h = decompose_unitary(g, profile)
        xs, charts, blocks = dense_decompose(g, profile)
        assert coords.charts == tuple(charts)
        assert max((np.max(np.abs(a - b)) for a, b in zip(coords.xs, xs)), default=0.0) <= 1e-12
        assert max(np.max(np.abs(a - b)) for a, b in zip(h.blocks, blocks)) <= 1e-12
        # the dense reference re-derives the cosines from X, so compare the
        # rebuilds on coordinates whose factors are derived from X as well
        public = FlagCoordinates(coords.profile, coords.xs, coords.charts)
        assert np.max(np.abs(reconstruct_unitary(public, h) - dense_reconstruct(public, h))) <= 1e-12
        identity = BlockDiagonalUnitary(tuple(np.eye(k) for k in profile))
        assert np.max(np.abs(reconstruct_unitary(public) - dense_reconstruct(public, identity))) <= 1e-12
        return coords

    # k < r, k = r and k > r on the levels
    @pytest.mark.parametrize("profile", [(1,) * 6, (3, 3), (1, 5), (2, 1, 4)] + PANEL_PROFILES)
    def test_haar(self, profile):
        rng = np.random.default_rng(30)
        for _ in range(10):
            self.check_parity(haar_unitary(sum(profile), rng), profile)

    @pytest.mark.parametrize("profile", PANEL_PROFILES)
    def test_sparse_permuted(self, profile):
        rng = np.random.default_rng(39)
        in_identity = []
        for _ in range(4):
            coords = self.check_parity(sparse_unitary(sum(profile), rng), profile)
            in_identity += [sigma == identity_chart(len(sigma)) for sigma in coords.charts]
        assert 0 < sum(in_identity) < len(in_identity)

    @pytest.mark.parametrize("profile", [(1,) * 6, (3, 3), (2, 1, 3)])
    def test_non_identity_chart(self, profile):
        # the last three columns live on the first three rows, so the
        # identity chart's block is zero at the outermost level
        rng = np.random.default_rng(31)
        swap = np.eye(6)[:, [3, 4, 5, 0, 1, 2]]
        g = swap @ block_diag(haar_unitary(3, rng), haar_unitary(3, rng))
        coords = self.check_parity(g, profile)
        assert coords.charts[0] != identity_chart(6)

    @pytest.mark.parametrize("r,k", [(3, 2), (2, 3), (3, 3)])
    def test_near_boundary(self, r, k):
        rng = np.random.default_rng(32)
        margin = 1.5 * RANK_TOL
        g = near_boundary_unitary(r, k, margin, rng)
        block = g[r:, r:]
        assert np.linalg.svd(block, compute_uv=False)[-1] == pytest.approx(margin, rel=0.1)
        coords = self.check_parity(g, (r, k))
        assert coords.charts == (identity_chart(r + k),)

    @pytest.mark.parametrize("scale", [1.5, 0.5])
    def test_rank_one_at_chart_threshold(self, scale):
        # the outermost bottom entry just above RANK_TOL keeps the identity
        # chart; just below, the chart designates the last row d < n with
        # |f_d| > RANK_TOL, and that row moves to the bottom
        rng = np.random.default_rng(41)
        n = 20
        for _ in range(3):
            g = near_boundary_unitary(n - 1, 1, scale * RANK_TOL, rng)
            assert abs(g[-1, -1]) == pytest.approx(scale * RANK_TOL, rel=1e-6)
            sigma = self.check_parity(g, (1,) * n).charts[0]
            d = 1 + np.flatnonzero(np.abs(g[:, -1]) > RANK_TOL)[-1]
            assert sigma[-1] == d
            assert (d == n) == (scale > 1)
            assert (sigma == identity_chart(n)) == (scale > 1)


def swapped_unitary(rng):
    """The input of ``test_non_identity_chart``: its outermost level leaves the identity chart."""
    swap = np.eye(6)[:, [3, 4, 5, 0, 1, 2]]
    return swap @ block_diag(haar_unitary(3, rng), haar_unitary(3, rng))


class TestPeelResults:
    """What the peel returns unchecked satisfies the public constructors' checks."""

    PROFILES = [(1,) * 6, (3, 3), (2, 1, 3)] + PANEL_PROFILES

    @staticmethod
    def inputs(n):
        rng = np.random.default_rng(33)
        haar = [haar_unitary(n, rng) for _ in range(10)]
        if n == 6:
            return haar + [swapped_unitary(rng)]
        return haar + [sparse_unitary(n, rng) for _ in range(3)]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_residues_unitary(self, profile):
        for g in self.inputs(sum(profile)):
            _, h = decompose_unitary(g, profile)
            assert h.profile == profile
            assert max(unitarity_defect(b) for b in h.blocks) <= 1e-12

    @pytest.mark.parametrize("profile", PROFILES)
    def test_input_unchanged(self, profile):
        # the peel copies its input once, into its buffer, and never writes it
        for g in self.inputs(sum(profile)):
            before = g.tobytes()
            decompose_unitary(g, profile)
            assert g.tobytes() == before

    @pytest.mark.parametrize("profile", PROFILES)
    def test_public_reconstruction_accepts(self, profile):
        for g in self.inputs(sum(profile)):
            coords, h = decompose_unitary(g, profile)
            public = FlagCoordinates(coords.profile, coords.xs, coords.charts)
            assert public.charts == coords.charts
            assert all(np.array_equal(a, b) for a, b in zip(public.xs, coords.xs))
            BlockDiagonalUnitary(h.blocks)

    @pytest.mark.parametrize("excess", [1e-5, 1e-6, 1e-7])
    @pytest.mark.parametrize("r,k", [(3, 2), (2, 3), (3, 3)])
    def test_near_boundary_roundtrip(self, r, k, excess):
        # margins just above RANK_TOL, the nearest the identity chart gets
        # to the sphere; the rebuild uses the chart block's own cosines, and
        # re-deriving them from ||X|| ~ 1 would lose about eps / margin
        rng = np.random.default_rng(36)
        for _ in range(5):
            g = near_boundary_unitary(r, k, RANK_TOL + excess, rng)
            coords, h = decompose_unitary(g, (r, k))
            assert coords.charts == (identity_chart(r + k),)
            assert np.max(np.abs(reconstruct_unitary(coords, h) - g)) <= 1e-13

    @pytest.mark.parametrize("r,k", [(1, 3), (2, 3), (2, 5)])
    def test_tiny_angle_roundtrip(self, r, k):
        # with k > r, X has k - r null directions of cosine exactly 1, and the
        # cosine of a singular value below about 1e-8 rounds to 1 as well: a
        # peel that kept only the r smallest cosines could drop a live direction
        rng = np.random.default_rng(37)
        for s in itertools.combinations_with_replacement([1e-6, 1e-8, 1e-9, 1e-12, 0.0], r):
            x = haar_unitary(r, rng) @ np.diag(s) @ haar_unitary(k, rng)[:r, :]
            g = ball_unitary(x) @ random_block_diagonal((r, k), rng).matrix()
            coords, h = decompose_unitary(g, (r, k))
            assert np.max(np.abs(reconstruct_unitary(coords, h) - g)) <= 1e-13
            assert max(unitarity_defect(b) for b in h.blocks) <= 1e-12

    def test_sphere_rounding_frame_takes_next_chart(self):
        # in the identity chart this frame's top rounds to X = 1, on the
        # sphere; its cosine 1.1e-8 is below RANK_TOL, so the chart search
        # moves on, and chart acceptance is the only ball check
        s = 1.1e-8
        g = np.array([[-s, 1.0], [1.0, s]], dtype=complex)
        coords, h = decompose_unitary(g, (1, 1))
        assert coords.charts == ((2, 1),)
        assert np.max(np.abs(reconstruct_unitary(coords, h) - g)) <= 1e-14
        public = FlagCoordinates(coords.profile, coords.xs, coords.charts)
        assert np.max(np.abs(reconstruct_unitary(public, h) - g)) <= 1e-14


def right_looking_peel(g, profile):
    """The per-level peel that the panels replaced: each level updates the r x r block that survives.

    Same chart rule and factors as the library's peel; every residue,
    rank-one ones included, is formed from the level's rows.  The block is
    carried in extended precision (``np.clongdouble``, a 64-bit mantissa
    on x86-64), and rank-one levels take their chart, x = f_top conj(b) / |b|
    and c = |b| there, so the reference's own rounding stays far below the
    panel peel's.  Otherwise a run of near-boundary levels ending in a
    small cosine c, which magnifies a block's rounding by 1 / c in x, lets
    two double-precision peels drift apart by the sum of their errors.
    Wider levels take the library's chart search on the block rounded to
    double precision.
    """
    cur = np.asarray(g).astype(np.clongdouble)
    xs, charts, blocks = [], [], []
    for nj, kj in level_dimensions(profile):
        r = nj - kj
        if kj == 1:
            # _line_chart's rule: the last row with |f_d| > RANK_TOL
            a = np.abs(cur[:, r])
            d = int((a > RANK_TOL).nonzero()[0][-1]) + 1
            sigma = tuple(range(1, d)) + tuple(range(d + 1, nj + 1)) + (d,)
            c = a[d - 1 : d]
            x = xv = cur[d - 1, r].conj() / c[0] * _gather_rows(cur, sigma, r)[:r, r:]
            v = np.ones((1, 1), dtype=np.clongdouble)
        else:
            block = cur.astype(complex)
            sigma, (x, xv, v, c) = _select_frame_chart(block[:, r:], block[:, :r])
        rows = _gather_rows(cur, sigma, r)
        yh = np.concatenate((xv / (1.0 + c), v)).conj().T
        residue = rows[r:, r:] - v @ ((1.0 + c)[:, None] * (yh @ rows[:, r:]))
        residue -= v @ (2.0 * (v.conj().T @ residue))
        blocks.append(residue)
        cur = rows[:r, :r] - xv @ (yh @ rows[:, :r])
        xs.append(x.astype(complex))
        charts.append(sigma)
    return xs, charts, [b.astype(complex) for b in [cur] + blocks[::-1]]


def off_chart_at(n, level, rng):
    """A unitary whose rank-one peel of (1,)*n leaves the identity chart at ``level`` (0 = outermost).

    The outer levels are a random identity-chart section over the profile
    (m,) + (1,)*level, m = n - level, so the block they leave is the residue
    u_m, whose last column has bottom entry 0.5 RANK_TOL.
    """
    m = n - level
    outer = random_flag_coordinates((m,) + (1,) * level, rng)
    u_m = near_boundary_unitary(m - 1, 1, 0.5 * RANK_TOL, rng)
    h = BlockDiagonalUnitary((u_m,) + (np.eye(1, dtype=complex),) * level)
    return reconstruct_unitary(outer, h)


class TestPanelPeel:
    """Rank-one levels peel in left-looking panels; the per-level peel is the reference."""

    def check(self, g, profile):
        coords, h = decompose_unitary(g, profile)
        xs, charts, blocks = right_looking_peel(g, profile)
        assert coords.charts == tuple(charts)
        assert max((np.max(np.abs(a - b)) for a, b in zip(coords.xs, xs, strict=True)), default=0.0) <= 1e-13
        # a rank-one residue is the phase b / |b|, where the reference rounds its own formula
        assert max(np.max(np.abs(a - b)) for a, b in zip(h.blocks, blocks, strict=True)) <= 1e-12
        assert frobenius(reconstruct_unitary(coords, h) - g) <= 1e-10
        return coords

    # 1, 31, 32, 33, 64 and 99 levels: one, one short of a panel, a full
    # panel, one more, two full panels, and three full panels and three more
    @pytest.mark.parametrize("n", [2, 32, 33, 34, 65, 100])
    def test_rank_one_profiles(self, n):
        rng = np.random.default_rng(48)
        for _ in range(3):
            self.check(haar_unitary(n, rng), (1,) * n)

    # the first, a middle and the last level of the first two panels
    @pytest.mark.parametrize(
        "level", [0, 15, _PANEL_LEVELS - 1, _PANEL_LEVELS, _PANEL_LEVELS + 15, 2 * _PANEL_LEVELS - 1]
    )
    def test_off_chart_level(self, level):
        rng = np.random.default_rng(49)
        n = 2 * _PANEL_LEVELS + 6
        for _ in range(2):
            g = off_chart_at(n, level, rng)
            charts = self.check(g, (1,) * n).charts
            moved = [j for j, sigma in enumerate(charts) if sigma != identity_chart(len(sigma))]
            assert moved[0] == level

    # wider levels end a run: after 5 rank-one levels, inside a second
    # panel, and as the innermost level
    @pytest.mark.parametrize(
        "profile", [(1,) * 40 + (2,) + (1,) * 5, (1,) * 5 + (3,) + (1,) * 40, (1, 4) + (1,) * 35]
    )
    def test_wide_levels_interrupt(self, profile):
        rng = np.random.default_rng(50)
        n = sum(profile)
        for g in [haar_unitary(n, rng) for _ in range(3)] + [sparse_unitary(n, rng)]:
            self.check(g, profile)


class TestReflectorForm:
    """W(X) = (I - Y diag(1 + c) Y*)(I - 2 V^ V^*), Y = [XV diag(1 / (1 + c)); V], V^ = [0; V].

    The peel divides these reflectors out and the rebuild's panels apply
    them, one Householder column per cosine.
    """

    @pytest.mark.parametrize("norm", [0.3, 0.99, np.sqrt(1.0 - (1.5 * RANK_TOL) ** 2)])
    @pytest.mark.parametrize("r,k", [(5, 3), (3, 5), (1, 7), (4, 4), (7, 1)])
    def test_product_is_ball_unitary(self, r, k, norm):
        rng = np.random.default_rng(46)
        for _ in range(5):
            x = random_ball_matrix(r, k, rng, radius=norm)
            xv, v, c = ball_factors(x)
            assert c.size == min(r, k)
            y = np.vstack([xv / (1.0 + c), v])
            v_hat = np.vstack([np.zeros_like(xv), v])
            reflectors = np.eye(r + k) - (y * (1.0 + c)) @ y.conj().T
            flips = np.eye(r + k) - 2.0 * v_hat @ v_hat.conj().T
            assert np.max(np.abs(reflectors @ flips - ball_unitary(x))) <= 1e-14
            # orthogonal columns of squared norm 2 / (1 + c): each I - (1 + c) y y* is a reflector
            gram = y.conj().T @ y
            assert np.max(np.abs(gram - np.diag(2.0 / (1.0 + c)))) <= 1e-14


class TestDeparametrizePeel:
    """deparametrize's peel is decompose_unitary's, minus the residue."""

    @staticmethod
    def density(g, profile, rng):
        lambdas = np.sort(rng.uniform(1.0, 2.0, len(profile)))[::-1]
        lambdas /= np.dot(lambdas, profile)
        rho = (g * np.repeat(lambdas, profile)) @ g.conj().T
        return (rho + rho.conj().T) / 2

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("profile", [(8, 8), (3, 5), (5, 3), (2, 1, 4), (1,) * 6])
    def test_same_coordinates_no_residue(self, profile, sparse, monkeypatch):
        peel, calls = density._peel, []

        def spy(cur, ks, *args, **kwargs):
            out = peel(cur, ks, *args, **kwargs)
            calls.append((cur.copy(), args, kwargs, out))
            return out

        monkeypatch.setattr(density, "_peel", spy)
        rng = np.random.default_rng(47)
        n = sum(profile)
        off_identity = 0
        for _ in range(4):
            g = sparse_unitary(n, rng) if sparse else haar_unitary(n, rng)
            params = deparametrize(self.density(g, profile, rng))
            v, args, kwargs, (coords, residue) = calls[-1]
            assert not args and not kwargs and residue is None
            assert params.coords is coords and coords.profile == profile
            expected, _ = decompose_unitary(v, profile)
            assert coords.charts == expected.charts
            assert all(np.array_equal(a, b) for a, b in zip(coords.xs, expected.xs, strict=True))
            for got, want in zip(coords.factors, expected.factors, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
            off_identity += any(s != identity_chart(len(s)) for s in coords.charts)
        assert (off_identity > 0) == sparse


def reconstruct_from_x(coords, h):
    """Rebuild from each level's thin SVD of X, with gathered columns."""
    g = np.eye(coords.n, dtype=complex)
    for (nj, kj), x, sigma in zip(level_dimensions(coords.profile), coords.xs, coords.charts):
        r = nj - kj
        xv, v, c = ball_factors(x)
        cols = g[:, np.array(sigma) - 1]
        left, right = cols[:, :r], cols[:, r:]
        left_xv, right_v = left @ xv, right @ v
        g[:, :r] = left + ((-1.0 / (1.0 + c)) * left_xv - right_v) @ xv.conj().T
        g[:, r:nj] = right + (left_xv + (c - 1.0) * right_v) @ v.conj().T
    return g @ h.matrix()


class TestReconstruct:
    def test_zero_coordinates(self):
        for profile in [(1, 1, 1), (2, 1)]:
            np.testing.assert_allclose(
                reconstruct_unitary(zero_coordinates(profile)), np.eye(3), atol=1e-14
            )

    def test_single_level_is_one_factor(self):
        rng = np.random.default_rng(20)
        x = random_ball_matrix(2, 2, rng)
        coords = FlagCoordinates((2, 2), (x,), (identity_chart(4),))
        np.testing.assert_allclose(
            reconstruct_unitary(coords), ball_unitary(x), atol=1e-14
        )

    def test_unitary_output(self):
        rng = np.random.default_rng(21)
        coords = random_flag_coordinates((2, 1, 1), rng)
        h = random_block_diagonal((2, 1, 1), rng)
        assert unitarity_defect(reconstruct_unitary(coords, h)) <= 1e-12

    def test_profile_mismatch(self):
        coords = zero_coordinates((2, 2))
        with pytest.raises(ValidationError):
            reconstruct_unitary(coords, BlockDiagonalUnitary(tuple(np.eye(k) for k in (1, 3))))

    @pytest.mark.parametrize("profile", [(1,) * 6, (3, 3), (2, 1, 3)] + PANEL_PROFILES)
    def test_public_coordinates_rebuild_from_x(self, profile):
        # publicly built coordinates carry ball_factors(X), so the rebuild
        # is the one from each level's thin SVD of X, in every chart
        n = sum(profile)
        rng = np.random.default_rng(38)
        inputs = [haar_unitary(n, rng) for _ in range(5)]
        inputs += [swapped_unitary(rng)] if n == 6 else [sparse_unitary(n, rng) for _ in range(3)]
        identity = BlockDiagonalUnitary(tuple(np.eye(k) for k in profile))
        for g in inputs:
            coords, h = decompose_unitary(g, profile)
            public = FlagCoordinates(coords.profile, coords.xs, coords.charts)
            expected = reconstruct_from_x(public, h)
            assert np.max(np.abs(reconstruct_unitary(public, h) - expected)) <= 1e-14
            expected = reconstruct_from_x(public, identity)
            assert np.max(np.abs(reconstruct_unitary(public) - expected)) <= 1e-14

    # (1,)*40: 39 rank-one levels fill panels of 32 and 7; (1,)*20 +
    # (8,): 19 of them fill one; (1, 3, 1, 1, 2, 1, 1): its two runs of two
    # k = 1 levels share a panel each, and the innermost k = 3 > r level,
    # whose X has rank one and whose factors are one column wide from the
    # peel as from the constructor, stays alone; every other level, and
    # every level of (8,)*4, takes the structured update
    @pytest.mark.parametrize(
        "profile,solves", list(zip(PANEL_PROFILES, [2, 1, 0, 0, 2])) + [((8,) * 4, 0)]
    )
    def test_rank_one_levels_share_panels(self, profile, solves, monkeypatch):
        solve, calls = np.linalg.solve, []

        def counting_solve(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        coords, _ = decompose_unitary(haar_unitary(sum(profile), 40), profile)
        assert all(sigma == identity_chart(len(sigma)) for sigma in coords.charts)
        public = FlagCoordinates(coords.profile, coords.xs, coords.charts)
        widths = [c.size for _, _, c in coords.factors]
        assert widths == [c.size for _, _, c in public.factors]
        assert widths == [min(nj - kj, kj) for nj, kj in level_dimensions(profile)]
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        reconstruct_unitary(coords)
        assert len(calls) == solves
        reconstruct_unitary(public)
        assert len(calls) == 2 * solves

    @pytest.mark.parametrize("profile", PANEL_PROFILES + [(1, 4) + (1,) * 35])
    def test_panels_take_only_k1_levels(self, profile, monkeypatch):
        # a level with k > 1 stays out of the panels even when its factors
        # are one column wide, as for an innermost level with r = 1 < k
        apply_panel, seen = coset._apply_panel, []

        def spy(blk, panel):
            seen.extend(kj for (_, kj), _, _ in panel)
            return apply_panel(blk, panel)

        monkeypatch.setattr(coset, "_apply_panel", spy)
        n, rng = sum(profile), np.random.default_rng(41)
        for g in [haar_unitary(n, rng), sparse_unitary(n, rng)]:
            coords, h = decompose_unitary(g, profile)
            public = FlagCoordinates(coords.profile, coords.xs, coords.charts)
            for c in (coords, public):
                assert np.max(np.abs(reconstruct_unitary(c, h) - g)) <= 1e-12
        assert set(seen) <= {1}
        # a panel needs two adjacent k = 1 levels
        assert bool(seen) == any(a == b == 1 for a, b in zip(profile[1:], profile[2:]))


class TestFlagSection:
    def test_invariance_under_fiber(self):
        rng = np.random.default_rng(22)
        for profile in [(2, 2), (1, 2, 1), (1, 1, 1)]:
            coords = random_flag_coordinates(profile, rng)
            v = random_block_diagonal(profile, rng)
            again, _ = decompose_unitary(flag_section(coords) @ v.matrix(), profile)
            assert coordinates_distance(coords, again) <= 1e-10

    def test_full_flag_matches_projective_product(self):
        # n = 3, profile (1,1,1): the section is the product of two
        # angle/direction factors, built here independently
        rng = np.random.default_rng(23)
        coords = random_flag_coordinates((1, 1, 1), rng)
        x3, x2 = coords.xs[0].reshape(-1), coords.xs[1].reshape(-1)
        lv3, lv2 = ball_to_jarlskog(x3), ball_to_jarlskog(x2)
        expected = jarlskog_unitary(lv3.theta, lv3.zeta) @ block_diag(
            jarlskog_unitary(lv2.theta, lv2.zeta), np.eye(1)
        )
        np.testing.assert_allclose(flag_section(coords), expected, atol=1e-12)

    def test_full_flag_product_at_n5(self):
        # profile (1,1,1,1,1): four embedded angle/direction factors,
        # assembled here by hand in the same outermost-first order
        rng = np.random.default_rng(28)
        coords = random_flag_coordinates((1, 1, 1, 1, 1), rng)
        expected = np.eye(5, dtype=complex)
        for i, x in enumerate(coords.xs):
            lv = ball_to_jarlskog(x.reshape(-1))
            factor = np.eye(5, dtype=complex)
            size = 5 - i
            factor[:size, :size] = jarlskog_unitary(lv.theta, lv.zeta)
            expected = expected @ factor
        np.testing.assert_allclose(flag_section(coords), expected, atol=1e-12)

    def test_parameter_budget_matches_group_dimension(self):
        # coordinates plus residue together carry exactly n^2 real parameters
        for profile in [(1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2, 1)]:
            n = sum(profile)
            coord_params = sum(
                2 * (nj - kj) * kj for nj, kj in level_dimensions(profile)
            )
            fiber_params = sum(k * k for k in profile)
            assert coord_params + fiber_params == n * n


class TestProjectiveFactors:
    def test_trivial_plane(self):
        p = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        vectors, section = section_from_projective_factors(p)
        assert all(np.max(np.abs(v)) <= 1e-14 for v in vectors)
        np.testing.assert_allclose(section, np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)])
    def test_section_law_and_zeros(self, n, k):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = projector_of_unitary(haar_unitary(n, rng), k)
            vectors, section = section_from_projective_factors(p)
            assert len(vectors) == k
            assert unitarity_defect(section) <= 1e-12
            assert frobenius(projector_of_unitary(section, k) - p) <= 1e-10
            for i, x in enumerate(vectors):
                assert x.size == n - 1 - i
                tail = x[n - k :]
                if tail.size:
                    assert np.max(np.abs(tail)) <= 1e-12

    def test_reproduces_hand_built_two_factor_product(self):
        # the two-factor 4x4 product W((x2,0)) (W(x1) (+) 1) has a lower
        # triangular positive bottom block, which is exactly the peel's
        # normalization, so the peel must return this product verbatim
        rng = np.random.default_rng(29)
        for _ in range(10):
            x2 = random_ball_matrix(2, 1, rng)
            x1 = random_ball_matrix(2, 1, rng)
            x2_padded = np.vstack([x2, [[0.0]]])
            u_oracle = ball_unitary(x2_padded) @ block_diag(
                ball_unitary(x1), np.eye(1)
            )
            p = projector_of_unitary(u_oracle, 2)
            vectors, section = section_from_projective_factors(p)
            assert frobenius(section - u_oracle) <= 1e-10
            assert np.max(np.abs(vectors[0] - x2_padded.reshape(-1))) <= 1e-10
            assert np.max(np.abs(vectors[1] - x1.reshape(-1))) <= 1e-10

    def test_agrees_with_one_shot_section_up_to_fiber(self):
        # both unitaries lie over the same plane, so they differ by a
        # block-diagonal factor on the right
        rng = np.random.default_rng(25)
        n, k = 4, 2
        p = projector_of_unitary(haar_unitary(n, rng), k)
        _, section = section_from_projective_factors(p)
        from flagparam import local_section

        one_shot = local_section(p, identity_chart(n))
        m = section.conj().T @ one_shot
        assert frobenius(m[: n - k, n - k :]) <= 1e-10
        assert frobenius(m[n - k :, : n - k]) <= 1e-10

    def test_out_of_chart(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(OutOfChartError):
            section_from_projective_factors(p)


class TestJarlskog:
    def test_theta_zero(self):
        level = JarlskogLevel(0.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(jarlskog_to_ball(level), np.zeros(2), atol=1e-15)

    def test_pi_over_six(self):
        level = JarlskogLevel(np.pi / 6, np.array([1.0, 0.0]))
        np.testing.assert_allclose(jarlskog_to_ball(level), [0.5, 0.0], atol=1e-15)

    def test_zero_vector_convention(self):
        level = ball_to_jarlskog(np.zeros(3))
        assert level.theta == 0.0
        np.testing.assert_allclose(level.zeta, [1.0, 0.0, 0.0], atol=1e-15)

    def test_inverse_pair(self):
        np.testing.assert_allclose(
            ball_to_jarlskog(np.array([0.5, 0.0])).theta, np.pi / 6, atol=1e-15
        )

    def test_roundtrip_random(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            j = int(rng.integers(2, 7))
            x = random_ball_matrix(j - 1, 1, rng).reshape(-1)
            level = ball_to_jarlskog(x)
            assert np.max(np.abs(jarlskog_to_ball(level) - x)) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 7))
    def test_angle_form_matches_ball_unitary(self, seed, j):
        rng = np.random.default_rng(seed)
        zeta = rng.standard_normal(j - 1) + 1j * rng.standard_normal(j - 1)
        zeta = zeta / np.linalg.norm(zeta)
        theta = rng.uniform(0.0, np.pi / 2 * 0.999)
        v = jarlskog_unitary(theta, zeta)
        w = ball_unitary(np.sin(theta) * zeta)
        assert np.max(np.abs(v - w)) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValidationError):
            JarlskogLevel(np.pi / 2, np.array([1.0]))
        with pytest.raises(ValidationError):
            JarlskogLevel(0.3, np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            ball_to_jarlskog(np.array([1.0, 0.0]))


class TestClosedBallBoundary:
    def test_two_factorizations_same_unitary(self):
        # on the boundary of the closed ball the factorization is not unique:
        # the same 2x2 unitary splits over x = e^{i phi} with trivial residue
        # and over x = 1 with a phase residue
        phi = 0.9
        g = np.array([[0.0, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
        w_a = ball_unitary(np.array([[np.exp(1j * phi)]]))
        w_b = ball_unitary(np.array([[1.0]])) @ np.diag(
            [np.exp(-1j * phi), np.exp(1j * phi)]
        )
        # sqrt(1 - s^2) at s = 1 turns one ulp of |x| into sqrt(eps), so the
        # boundary factorizations match g only to ~1e-8; both stay unitary
        assert frobenius(w_a - g) <= 1e-7
        assert frobenius(w_b - g) <= 1e-14
        assert unitarity_defect(w_a) <= 1e-12

    def test_canonical_answer_is_single(self):
        # the open-ball + chart-switch path still gives one canonical result
        phi = 0.9
        g = np.array([[0.0, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
        coords, h = decompose_unitary(g, (1, 1))
        assert coords.charts == ((2, 1),)
        assert frobenius(coords.xs[0]) <= 1e-14
        assert frobenius(reconstruct_unitary(coords, h) - g) <= 1e-14


class TestFlagCoordinatesValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            FlagCoordinates((2, 2), (np.zeros((3, 2)),), (identity_chart(4),))

    def test_level_count_mismatch(self):
        with pytest.raises(ValidationError):
            FlagCoordinates((2, 2), (), ())

    def test_ball_violation(self):
        with pytest.raises(ValidationError):
            FlagCoordinates((2, 2), (np.full((2, 2), 1.0),), (identity_chart(4),))

    def test_codes(self):
        # the public constructors keep every check that the peel skips
        x = np.zeros((2, 2))
        for make, code in [
            (lambda: FlagCoordinates((2, 2), (np.full((2, 2), 1.0),), (identity_chart(4),)), "BALL_NORM"),
            (lambda: FlagCoordinates((2, 2), (x,), ((1, 3, 2, 4, 5),)), "BAD_CHART"),
            (lambda: FlagCoordinates((2, 2), (x,), ((3, 1, 2, 4),)), "BAD_CHART"),
            (lambda: FlagCoordinates((2, 2), (np.full((2, 2), np.nan),), (identity_chart(4),)), "NOT_FINITE"),
            (lambda: BlockDiagonalUnitary((np.eye(2), 2.0 * np.eye(2))), "NOT_UNITARY"),
            (lambda: BlockDiagonalUnitary((np.ones((2, 3)),)), "BAD_SHAPE"),
        ]:
            with pytest.raises(ValidationError) as exc:
                make()
            assert exc.value.code == code

    @pytest.mark.parametrize("profile", [(8,) * 6, (2, 1, 3), (1,) * 6, (2, 5, 1), (2, 1, 3, 3, 1)])
    def test_one_svd_per_level(self, profile, monkeypatch):
        # the constructor's ball check reads the decomposition that gives
        # the factors: one batched eigh per width of the k <= r levels, and
        # one thin SVD per wide (k > r) level
        svd, eigh, norm, svds, eighs, norms_2 = np.linalg.svd, np.linalg.eigh, np.linalg.norm, [], [], []

        def counting_svd(*args, **kwargs):
            svds.append(1)
            return svd(*args, **kwargs)

        def counting_eigh(*args, **kwargs):
            eighs.append(1)
            return eigh(*args, **kwargs)

        def counting_norm(x, ord=None, *args, **kwargs):
            if ord == 2:
                norms_2.append(1)
            return norm(x, ord, *args, **kwargs)

        coords = random_flag_coordinates(profile, np.random.default_rng(40))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        FlagCoordinates(coords.profile, coords.xs, coords.charts)
        dims = level_dimensions(profile)
        assert len(svds) == sum(kj > nj - kj for nj, kj in dims)
        assert len(eighs) == len({kj for nj, kj in dims if kj <= nj - kj})
        assert norms_2 == []

    def test_public_factors_match_ball_factors(self):
        rng = np.random.default_rng(39)
        coords = random_flag_coordinates((2, 1, 3), rng)
        for x, factors in zip(coords.xs, coords.factors, strict=True):
            expected = ball_factors(x)
            assert all(np.array_equal(a, b) for a, b in zip(factors, expected, strict=True))

    @pytest.mark.parametrize("profile", [(2, 1, 3, 3, 1), (1, 4, 2, 2, 1), (8,) * 16])
    def test_batched_factors_match_ball_factors(self, profile):
        # levels of one width share a batched eigh; each still matches its own call
        coords = random_flag_coordinates(profile, np.random.default_rng(45))
        for x, factors in zip(coords.xs, coords.factors, strict=True):
            expected = ball_factors(x)
            assert all(np.array_equal(a, b) for a, b in zip(factors, expected, strict=True))

    @pytest.mark.parametrize(
        "s", [[1.0 - 1e-6, 1.0 - 1e-10, 1.0 - 1e-13], [1e-6, 1e-12, 0.0], [1.0 - 1e-13, 0.0, 0.0]]
    )
    def test_sections_at_edge_spectra(self, s):
        # coordinates whose singular values crowd the ball's edge or zero
        rng = np.random.default_rng(46)
        profile = (2, 3, 3, 1)
        xs, charts = [], []
        for nj, kj in level_dimensions(profile):
            r, p = nj - kj, min(nj - kj, kj)
            u, v = haar_unitary(r, rng)[:, :p], haar_unitary(kj, rng)[:, :p]
            xs.append((u * np.pad(s, (0, 3))[:p]) @ v.conj().T)
            charts.append(identity_chart(nj))
        coords = FlagCoordinates(profile, tuple(xs), tuple(charts))
        assert unitarity_defect(reconstruct_unitary(coords)) <= 1e-13
        for x, (xv, v, c) in zip(coords.xs, coords.factors, strict=True):
            assert unitarity_defect(ball_unitary(x)) <= 1e-13
            assert frobenius(xv @ v.conj().T - x) <= 1e-14
