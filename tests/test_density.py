import inspect
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagparam import (
    DensityParameters,
    FlagCoordinates,
    GapAmbiguityError,
    Spectrum,
    ValidationError,
    coordinates_distance,
    decompose_unitary,
    deparametrize,
    flag_section,
    haar_unitary,
    identity_chart,
    parameter_count,
    parametrize,
    require_density,
)
from flagparam.density import GAP_TOL, SPLIT_FACTOR, _clusters
from flagparam.linalg import frobenius
from flagparam.sampling import (
    random_block_diagonal,
    random_density_parameters,
    random_flag_coordinates,
    random_spectrum,
)


def diag_density(*values):
    return np.diag(np.array(values, dtype=float)).astype(complex)


class TestSpectrum:
    def test_diagonal_expansion(self):
        s = Spectrum((2, 2), (0.4, 0.1))
        np.testing.assert_allclose(s.diagonal(), [0.4, 0.4, 0.1, 0.1])

    def test_count_mismatch(self):
        with pytest.raises(ValidationError):
            Spectrum((2, 2), (0.5,))

    def test_order_violation(self):
        with pytest.raises(ValidationError):
            Spectrum((2, 2), (0.1, 0.4))

    def test_gap_violation(self):
        # equal values are refused; any positive gap is accepted
        with pytest.raises(ValidationError) as exc:
            Spectrum((2, 2), (0.25, 0.25))
        assert exc.value.code == "LAMBDA_ORDER"
        assert Spectrum((2, 2), (0.2500001, 0.2499999)).lambdas == (0.2500001, 0.2499999)

    def test_sum_violation(self):
        with pytest.raises(ValidationError):
            Spectrum((2, 2), (0.4, 0.2))

    def test_negative_violation(self):
        with pytest.raises(ValidationError):
            Spectrum((1, 3), (1.3, -0.1))

    @pytest.mark.parametrize(
        "lambdas", [(np.nan, 0.1), (0.3, np.nan), (np.inf, 0.1), (0.4, -np.inf)]
    )
    def test_non_finite_violation(self, lambdas):
        with pytest.raises(ValidationError) as exc:
            Spectrum((3, 1), lambdas)
        assert exc.value.code == "NOT_FINITE"


class TestParametrize:
    def test_zero_coordinates_give_diagonal(self):
        spectrum = Spectrum((3, 1), (0.3, 0.1))
        coords = FlagCoordinates((3, 1), (np.zeros((3, 1)),), (identity_chart(4),))
        rho = parametrize(DensityParameters(spectrum, coords))
        np.testing.assert_allclose(rho, np.diag([0.3, 0.3, 0.3, 0.1]), atol=1e-14)

    def test_valid_density_output(self):
        rng = np.random.default_rng(1)
        for profile in [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
            params = random_density_parameters(profile, rng)
            rho = parametrize(params)
            require_density(rho)

    def test_section_independence(self):
        # conjugating the section by any block-diagonal factor leaves the
        # density matrix unchanged: the factor commutes with the diagonal
        rng = np.random.default_rng(2)
        profile = (2, 2)
        spectrum = random_spectrum(profile, rng)
        coords = random_flag_coordinates(profile, rng)
        u = flag_section(coords)
        d = spectrum.diagonal()
        h = random_block_diagonal(profile, rng).matrix()
        rho_plain = (u * d) @ u.conj().T
        uh = u @ h
        rho_conj = (uh * d) @ uh.conj().T
        assert frobenius(rho_plain - rho_conj) <= 1e-12

    def test_profile_mismatch(self):
        spectrum = Spectrum((2, 2), (0.4, 0.1))
        coords = random_flag_coordinates((3, 1), np.random.default_rng(3))
        with pytest.raises(ValidationError):
            DensityParameters(spectrum, coords)


def rejection_spectra(ks, rng, min_gap, count):
    """The former sampler's law: Dirichlet weights over the multiplicities,
    sorted when they are all equal, kept when every gap is at least min_gap."""
    karr = np.array(ks, dtype=float)
    kept = []
    while sum(len(a) for a in kept) < count:
        lam = rng.dirichlet(np.ones(len(ks)), size=4 * count) / karr
        if len(set(ks)) == 1:
            lam = np.sort(lam, axis=1)[:, ::-1]
        kept.append(lam[np.all(lam[:, :-1] - lam[:, 1:] >= min_gap, axis=1)])
    return np.vstack(kept)[:count]


class TestRandomSpectrum:
    @pytest.mark.parametrize("profile", [(1,) * 30, (8,) * 16])
    def test_feasible_requests(self, profile):
        # the gap-constrained region is small but not empty: R = 0.565 and 0.04
        rng = np.random.default_rng(41)
        for _ in range(20):
            s = random_spectrum(profile, rng, min_gap=1e-3)
            lam = np.array(s.lambdas)
            assert s.profile == profile
            assert np.all(lam[:-1] - lam[1:] >= 1e-3 - 1e-15)
            assert lam[-1] >= 0.0

    def test_infeasible_request_raises_at_once(self):
        # 1e-3 * (45 + 44 + ... + 1) = 1.035 > 1: no spectrum has these gaps
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=r"largest feasible gap is 0\.000966184") as exc:
            random_spectrum((1,) * 46, np.random.default_rng(42), min_gap=1e-3)
        assert exc.value.code == "SPECTRUM_SAMPLING"
        assert time.perf_counter() - start < 0.5

    def test_infeasible_message_is_short(self):
        # it names n, m and the largest feasible gap, not the profile tuple
        with pytest.raises(ValidationError) as exc:
            random_spectrum((1,) * 256, np.random.default_rng(44), min_gap=1e-3)
        message = str(exc.value)
        assert "n=256" in message and "m=256" in message and "3.06373e-05" in message
        assert len(message) < 200

    @pytest.mark.parametrize("profile", [(3, 1), (1, 2, 1), (1, 1, 1, 1)])
    def test_law_matches_rejection_sampler(self, profile):
        # the same uniform law on the region, without rejection
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(43)
        count = 2000
        direct = np.array(
            [random_spectrum(profile, rng, min_gap=0.05).lambdas for _ in range(count)]
        )
        reference = rejection_spectra(profile, rng, 0.05, count)
        for j in range(len(profile)):
            assert ks_2samp(direct[:, j], reference[:, j]).pvalue > 0.01


class TestRandomDensityParameters:
    @pytest.mark.parametrize("n,samples", [(316, True), (317, False)])
    def test_largest_sampled_n(self, n, samples, monkeypatch):
        # half the largest feasible gap, 1 / (n (n - 1)), first drops below
        # SPLIT_FACTOR * GAP_TOL at n = 317; random_spectrum is stubbed, so
        # nothing is drawn
        from flagparam import sampling

        def stub(profile, rng, min_gap):
            assert min_gap >= SPLIT_FACTOR * GAP_TOL
            raise ValidationError("stub sampler reached", code="STUB")

        monkeypatch.setattr(sampling, "random_spectrum", stub)
        with pytest.raises(ValidationError) as exc:
            random_density_parameters((1,) * n, np.random.default_rng(0))
        assert exc.value.code == ("STUB" if samples else "SPECTRUM_SAMPLING")
        assert len(str(exc.value)) < 200

    @pytest.mark.parametrize("n", [46, 64, 256])
    def test_large_nondegenerate(self, n):
        # the default gap 1e-3 is infeasible for (1,)*n from n = 46 on; the
        # sampler then takes half the largest feasible gap, 1.53e-5 at
        # n = 256, still ten times GAP_TOL, so deparametrize splits every
        # eigenvalue again
        params = random_density_parameters((1,) * n, np.random.default_rng(n))
        lam = np.array(params.spectrum.lambdas)
        assert np.min(lam[:-1] - lam[1:]) >= 10 * GAP_TOL
        assert deparametrize(parametrize(params)).spectrum.profile == (1,) * n

    def test_no_min_gap(self):
        # the gap is worked out from the profile, not threaded in
        assert "min_gap" not in inspect.signature(random_density_parameters).parameters


class TestRequireDensity:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            require_density(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            require_density(diag_density(0.5, 0.6))

    def test_rejects_negative_eigenvalue(self):
        for check in (require_density, deparametrize):
            with pytest.raises(ValidationError) as info:
                check(diag_density(1.1, -0.1))
            assert info.value.code == "NOT_DENSITY_PSD"


class TestDeparametrize:
    def test_maximally_mixed(self):
        params = deparametrize(np.eye(4) / 4)
        assert params.spectrum.profile == (4,)
        np.testing.assert_allclose(params.spectrum.lambdas, [0.25])
        assert params.coords.num_levels == 0

    def test_roundtrip_parameters(self):
        rng = np.random.default_rng(4)
        for profile in [(3, 1), (2, 2), (2, 1, 1)]:
            params = random_density_parameters(profile, rng)
            rho = parametrize(params)
            back = deparametrize(rho)
            assert back.spectrum.profile == profile
            assert max(
                abs(a - b)
                for a, b in zip(params.spectrum.lambdas, back.spectrum.lambdas)
            ) <= 1e-12
            assert coordinates_distance(params.coords, back.coords) <= 1e-9

    def test_roundtrip_density(self):
        rng = np.random.default_rng(5)
        for profile in [(3, 1), (2, 2), (1, 1, 1, 1)]:
            rho = parametrize(random_density_parameters(profile, rng))
            assert frobenius(parametrize(deparametrize(rho)) - rho) <= 1e-10

    def test_two_by_two_swap_unitaries_agree(self):
        # the two boundary unitaries conjugating diag(lam, mu) to diag(mu, lam)
        # carry the same flag point, so they decompose to the same coordinates
        lam, mu = 0.7, 0.3
        phi = 0.6
        u1 = np.array([[0.0, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
        u2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        c1, _ = decompose_unitary(u1, (1, 1))
        c2, _ = decompose_unitary(u2, (1, 1))
        assert coordinates_distance(c1, c2) <= 1e-14

        rho = diag_density(mu, lam)
        params = deparametrize(rho)
        assert params.spectrum.profile == (1, 1)
        np.testing.assert_allclose(params.spectrum.lambdas, [lam, mu], atol=1e-15)
        assert coordinates_distance(params.coords, c1) <= 1e-12

    def test_gap_ambiguity_band(self):
        gap = 5e-6  # inside (gap_tol, 10 gap_tol) for the default 1e-6
        lam = 0.25 + gap / 2
        mu = 0.25 - gap / 2
        with pytest.raises(GapAmbiguityError):
            deparametrize(diag_density(lam, lam, mu, mu))

    def test_clear_gap_splits(self):
        gap = 5e-5
        lam = 0.25 + gap / 2
        mu = 0.25 - gap / 2
        params = deparametrize(diag_density(lam, lam, mu, mu))
        assert params.spectrum.profile == (2, 2)

    def test_chained_merge_raises(self):
        # seven eigenvalues 0.9e-6 apart: every gap merges at the default
        # gap_tol, but the cluster spans 5.4e-6, and its mean would rebuild
        # rho with an error of 1.2e-6
        lam = np.array([0.3] + [0.1 + j * 0.9e-6 for j in range(6, -1, -1)])
        lam /= lam.sum()
        u = haar_unitary(8, 3)
        with pytest.raises(GapAmbiguityError, match="spread over 5.4"):
            deparametrize((u * lam) @ u.conj().T)

    def test_tiny_gap_merges(self):
        gap = 1e-8
        lam = 0.25 + gap / 2
        mu = 0.25 - gap / 2
        params = deparametrize(diag_density(lam, lam, mu, mu))
        assert params.spectrum.profile == (4,)

    # None, a string and a huge int used to escape as TypeError, ValueError and OverflowError
    @pytest.mark.parametrize("gap_tol", [-1.0, np.nan, np.inf, None, "abc", 10**400])
    def test_bad_gap_tol(self, gap_tol):
        # -1 used to return lambdas (0.5, 0.25, 0.25, 0.0), which are not strictly decreasing
        with pytest.raises(ValidationError) as exc:
            deparametrize(diag_density(0.5, 0.25, 0.25, 0.0), gap_tol=gap_tol)
        assert exc.value.code == "BAD_TOL"

    def test_zero_gap_tol_splits_distinct_values(self):
        params = deparametrize(diag_density(0.5, 0.25, 0.25, 0.0), gap_tol=0.0)
        assert params.spectrum.profile == (1, 2, 1)

    def test_spectrum_invariance_under_conjugation(self):
        rng = np.random.default_rng(6)
        rho = parametrize(random_density_parameters((2, 1, 1), rng))
        v = haar_unitary(4, rng)
        a = deparametrize(rho).spectrum
        b = deparametrize(v @ rho @ v.conj().T).spectrum
        assert a.profile == b.profile
        assert max(abs(x - y) for x, y in zip(a.lambdas, b.lambdas)) <= 1e-10


def numpy_clusters(w, gap_tol):
    """The whole-array clustering rule that the one-pass _clusters replaced, kept as its oracle."""
    gaps = w[:-1] - w[1:]
    ambiguous = (gaps > gap_tol) & (gaps < SPLIT_FACTOR * gap_tol)
    if np.any(ambiguous):
        g = float(gaps[np.argmax(ambiguous)])
        raise GapAmbiguityError(
            f"eigenvalue gap {g:.3e} inside ({gap_tol:.1e}, {SPLIT_FACTOR * gap_tol:.1e}): "
            "clustering is unstable, pick a different gap_tol"
        )
    starts = np.flatnonzero(np.concatenate(([True], gaps > gap_tol)))
    stops = np.append(starts[1:], w.size)
    spreads = w[starts] - w[stops - 1]
    if np.any(spreads > gap_tol):
        raise GapAmbiguityError(
            f"merged eigenvalues spread over {float(spreads.max()):.3e} > gap_tol={gap_tol:.1e}: "
            "clustering is unstable, pick a different gap_tol"
        )
    sizes = stops - starts
    return tuple(sizes.tolist()), tuple((np.add.reduceat(w, starts) / sizes).tolist())


# Eigenvalues descend from 1/2 in steps that are whole multiples of 2^-44, so
# every gap is exact: 2^-20 and 10 * 2^-20 are themselves steps, and each
# gap_tol gets steps on, just inside and just outside both thresholds.
UNIT = 2.0**-44


def steps_strategy(gap_tol):
    tol, split = gap_tol / UNIT, SPLIT_FACTOR * gap_tol / UNIT
    edges = {0, 1}
    for t in (tol, split):
        edges |= {int(np.floor(t)) - 1, int(np.floor(t)), int(np.ceil(t)), int(np.ceil(t)) + 1}
    top = int(np.ceil(split))
    return st.one_of(
        st.sampled_from(sorted(e for e in edges if e >= 0)),
        st.integers(0, max(1, int(tol))),
        st.integers(0, top),
        st.integers(top, 4 * top),
    )


@st.composite
def clustered_spectra(draw):
    gap_tol = draw(st.sampled_from([GAP_TOL, 2.0**-20, 1e-4, 0.0]))
    steps = draw(st.lists(steps_strategy(gap_tol), min_size=0, max_size=12))
    w = 0.5 - UNIT * np.cumsum([0] + steps, dtype=float)
    return w, gap_tol


class TestOnePassClustering:
    """deparametrize's one-pass clustering against the whole-array rule it replaced."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(clustered_spectra())
    def test_matches_numpy_rule(self, case):
        w, gap_tol = case
        try:
            expected = numpy_clusters(w, gap_tol)
        except GapAmbiguityError as exc:
            with pytest.raises(GapAmbiguityError) as got:
                _clusters(w, gap_tol)
            assert str(got.value) == str(exc)
            return
        assert _clusters(w, gap_tol) == expected

    T, S = 2**24, 10 * 2**24  # gap_tol = 2^-20 and SPLIT_FACTOR * gap_tol, in steps

    @pytest.mark.parametrize(
        "steps,outcome",
        [
            ([T], (2,)),  # a gap on gap_tol merges
            ([T + 1], "eigenvalue"),  # just outside it is ambiguous
            ([S], (1, 1)),  # a gap on SPLIT_FACTOR * gap_tol splits
            ([S - 1], "eigenvalue"),  # just inside it is ambiguous
            ([S + 1, S + 1], (1, 1, 1)),
            ([T // 2, T // 2], (3,)),  # a chain of merges spread over gap_tol
            ([T // 2, T // 2 + 1], "merged"),  # one step more
            ([T // 2, T // 2 + 1, S], "merged"),  # in a cluster before the last
            ([T, T], "merged"),
            ([S, T, 0], (1, 3)),
            ([T, T, S - 1], "eigenvalue"),  # the band wins over an earlier spread
        ],
    )
    def test_thresholds(self, steps, outcome):
        w = 0.5 - UNIT * np.cumsum([0] + steps, dtype=float)
        tol = 2.0**-20
        if isinstance(outcome, tuple):
            assert _clusters(w, tol) == numpy_clusters(w, tol)
            assert _clusters(w, tol)[0] == outcome
            return
        with pytest.raises(GapAmbiguityError) as expected:
            numpy_clusters(w, tol)
        with pytest.raises(GapAmbiguityError) as got:
            _clusters(w, tol)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(outcome)


class TestSvdCount:
    def test_roundtrip_reuses_peel_factors(self, monkeypatch):
        # the peel reads a rank-one level's factors off its one chart-block
        # entry, and the rebuild reuses the peel's (XV, V, c): no SVD at all
        svd, calls = np.linalg.svd, []

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        rng = np.random.default_rng(35)
        lam = np.linspace(2.0, 1.0, 8)
        lam /= lam.sum()
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for _ in range(5):
            v = haar_unitary(8, rng)
            rho = (v * lam) @ v.conj().T
            calls.clear()
            params = deparametrize((rho + rho.conj().T) / 2)
            back = parametrize(params)
            assert params.spectrum.profile == (1,) * 8
            assert len(calls) == 0
            assert frobenius(back - rho) <= 1e-10


class TestParameterCount:
    def test_single_block(self):
        assert parameter_count((4,)) == 0

    def test_examples(self):
        assert parameter_count((3, 1)) == 7
        assert parameter_count((2, 2)) == 9

    def test_nondegenerate(self):
        for n in range(2, 7):
            assert parameter_count((1,) * n) == n * n - 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_matches_closed_form(self, ks):
        # 2 * sum_{i<j} k_i k_j == n^2 - sum k_j^2
        n = sum(ks)
        expected = (len(ks) - 1) + n * n - sum(k * k for k in ks)
        assert parameter_count(tuple(ks)) == expected
