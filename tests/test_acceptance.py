"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance, sample count, and runtime limit is pinned here.
Residuals accumulate through ``np.maximum``, so a NaN residual fails its
criterion.
"""

import time

import numpy as np
import pytest

from flagparam import (
    ball_unitary,
    chart_coordinates,
    chart_permutations,
    chart_point,
    coordinates_distance,
    decompose_unitary,
    deparametrize,
    exp_generator,
    expm_reference,
    flag_section,
    frame_of_unitary,
    generator_matrix,
    haar_unitary,
    identity_chart,
    jarlskog_unitary,
    parametrize,
    projector_of_unitary,
    reconstruct_unitary,
    section_from_projective_factors,
)
from flagparam.coset import FlagCoordinates
from flagparam.density import DensityParameters
from flagparam.linalg import RANK_TOL, frobenius
from flagparam.sampling import (
    random_ball_matrix,
    random_block_diagonal,
    random_flag_coordinates,
    random_spectrum,
)

N4_PROFILES = [(1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]
N6_PROFILES = [(1, 1, 1, 1, 1, 1), (3, 3), (4, 2), (2, 2, 2), (3, 2, 1)]


class Criterion:
    """Timer + reporter; prints one line and enforces the runtime limit."""

    def __init__(self, number, name, limit_seconds):
        self.number = number
        self.name = name
        self.limit = limit_seconds
        self.start = time.perf_counter()

    def finish(self, residual, tolerance, extra=""):
        elapsed = time.perf_counter() - self.start
        ok = residual <= tolerance and elapsed < self.limit
        tag = "PASS" if ok else "FAIL"
        print(
            f"criterion {self.number:02d} {self.name}: {tag} "
            f"residual={residual:.3e} (tol {tolerance:.0e}) "
            f"elapsed={elapsed:.2f}s (limit {self.limit:.0f}s){extra}"
        )
        assert residual <= tolerance, f"residual {residual:.3e} > {tolerance:.0e}"
        assert elapsed < self.limit, f"elapsed {elapsed:.2f}s >= {self.limit}s"


def rank_one_sqrt(x):
    """Hand oracle: (I - xx*)^(1/2) for a column x via the rank-one identity."""
    x = x.reshape(-1, 1)
    t = float((x.conj().T @ x).real[0, 0])
    if t == 0.0:
        return np.eye(x.shape[0])
    return np.eye(x.shape[0]) + ((np.sqrt(1.0 - t) - 1.0) / t) * (x @ x.conj().T)


def test_criterion_01_closed_ball_unitarity():
    crit = Criterion(1, "closed-ball unitarity", 5.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n))
        radius = 1.0 if i % 5 == 0 else float(rng.uniform(0.0, 1.0))
        x = random_ball_matrix(n - k, k, rng, radius=radius)
        w = ball_unitary(x)
        worst = np.maximum(worst, frobenius(w.conj().T @ w - np.eye(n)))
    crit.finish(worst, 1e-12)


def test_criterion_02_chart_roundtrips():
    crit = Criterion(2, "chart round-trips", 5.0)
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n))
        perms = chart_permutations(n, k)
        sigma = perms[int(rng.integers(0, len(perms)))]
        x = random_ball_matrix(n - k, k, rng)
        p = chart_point(x, sigma)
        x_back = chart_coordinates(p, sigma)
        worst = np.maximum(worst, frobenius(x_back - x))
        worst = np.maximum(worst, frobenius(chart_point(x_back, sigma) - p))
    crit.finish(worst, 1e-10)


def test_criterion_03_coset_roundtrip():
    crit = Criterion(3, "coset decomposition round-trip", 10.0)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        g = haar_unitary(4, rng)
        for profile in N4_PROFILES:
            coords, h = decompose_unitary(g, profile)
            worst = np.maximum(worst, frobenius(reconstruct_unitary(coords, h) - g))
    crit.finish(worst, 1e-10)


def test_criterion_04_coset_invariance():
    crit = Criterion(4, "coset invariance", 10.0)
    rng = np.random.default_rng(104)
    worst = 0.0
    for profile in N4_PROFILES:
        for _ in range(10):
            g = haar_unitary(4, rng)
            base, _ = decompose_unitary(g, profile)
            for _ in range(5):
                v = random_block_diagonal(profile, rng)
                moved, _ = decompose_unitary(g @ v.matrix(), profile)
                worst = np.maximum(worst, coordinates_distance(base, moved))
    crit.finish(worst, 1e-10)


def test_criterion_05_lie_closed_form():
    crit = Criterion(5, "closed-form exponential vs series oracle", 5.0)
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        k1 = int(rng.integers(1, 5))
        k2 = int(rng.integers(1, 5))
        b = random_ball_matrix(k1, k2, rng, radius=float(rng.uniform(0.0, 2.0)))
        worst = np.maximum(
            worst, frobenius(exp_generator(b) - expm_reference(generator_matrix(b)))
        )
    crit.finish(worst, 1e-9)


def test_criterion_06_jarlskog_identity():
    crit = Criterion(6, "angle/direction form matches ball unitary", 2.0)
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(2, 9))
        zeta = rng.standard_normal(j - 1) + 1j * rng.standard_normal(j - 1)
        zeta /= np.linalg.norm(zeta)
        theta = float(rng.uniform(0.0, np.pi / 2 * 0.9999))
        diff = jarlskog_unitary(theta, zeta) - ball_unitary(np.sin(theta) * zeta)
        worst = np.maximum(worst, float(np.max(np.abs(diff))))
    crit.finish(worst, 1e-12)


def test_criterion_07_golden_factorization():
    # the swap-chart factorization of [[0, e^{i phi}], [-e^{-i phi}, 0]]:
    # chart (2,1), coordinate 0, residue diag(-e^{-i phi}, e^{i phi}).
    # The source text displays e^{-i phi} in the second slot, but that value
    # fails its own product identity; the asserted residue is the unique one.
    crit = Criterion(7, "golden 2x2 factorization", 1.0)
    worst = 0.0
    for phi in (0.4, 1.1, 3.0):
        g = np.array([[0.0, np.exp(1j * phi)], [-np.exp(-1j * phi), 0.0]])
        coords, h = decompose_unitary(g, (1, 1))
        assert coords.charts == ((2, 1),)
        worst = np.maximum(worst, frobenius(coords.xs[0]))
        worst = np.maximum(worst, abs(h.blocks[0][0, 0] + np.exp(-1j * phi)))
        worst = np.maximum(worst, abs(h.blocks[1][0, 0] - np.exp(1j * phi)))
        worst = np.maximum(worst, frobenius(reconstruct_unitary(coords, h) - g))
    crit.finish(worst, 1e-14)


def test_criterion_08_golden_conjugation_formulas():
    crit = Criterion(8, "golden 4x4 conjugation formulas", 1.0)
    rng = np.random.default_rng(108)
    worst = 0.0

    # profile (3,1): rho = W(x) diag(l1, l1, l1, l2) W(x)* with the
    # rank-one square root evaluated by hand
    cases = [np.array([0.1, 0.2, 0.3])] + [
        random_ball_matrix(3, 1, rng).reshape(-1) for _ in range(10)
    ]
    for x in cases:
        col = x.reshape(-1, 1)
        u = np.zeros((4, 4), dtype=complex)
        u[:3, :3] = rank_one_sqrt(col)
        u[:3, 3:] = col
        u[3:, :3] = -col.conj().T
        u[3, 3] = np.sqrt(1.0 - float((col.conj().T @ col).real[0, 0]))
        lam = random_spectrum((3, 1), rng)
        rho_oracle = (u * lam.diagonal()) @ u.conj().T
        coords = FlagCoordinates((3, 1), (col,), (identity_chart(4),))
        rho_lib = parametrize(DensityParameters(lam, coords))
        worst = np.maximum(worst, float(np.max(np.abs(rho_lib - rho_oracle))))

    # profile (2,2): rho from the two-factor product of embedded rank-one
    # sections; the library works from the plane the product spans
    for _ in range(10):
        x2 = random_ball_matrix(2, 1, rng)
        x1 = random_ball_matrix(2, 1, rng)
        m1 = np.zeros((4, 4), dtype=complex)
        m1[:2, :2] = rank_one_sqrt(x2)
        m1[:2, 3:] = x2
        m1[2, 2] = 1.0
        m1[3, :2] = -x2.conj().T.reshape(-1)
        m1[3, 3] = np.sqrt(1.0 - float((x2.conj().T @ x2).real[0, 0]))
        m2 = np.zeros((4, 4), dtype=complex)
        m2[:2, :2] = rank_one_sqrt(x1)
        m2[:2, 2:3] = x1
        m2[2, :2] = -x1.conj().T.reshape(-1)
        m2[2, 2] = np.sqrt(1.0 - float((x1.conj().T @ x1).real[0, 0]))
        m2[3, 3] = 1.0
        u_oracle = m1 @ m2
        lam = random_spectrum((2, 2), rng)
        rho_oracle = (u_oracle * lam.diagonal()) @ u_oracle.conj().T

        p = projector_of_unitary(u_oracle, 2)
        x = chart_coordinates(p, identity_chart(4))
        coords = FlagCoordinates((2, 2), (x,), (identity_chart(4),))
        rho_lib = parametrize(DensityParameters(lam, coords))
        worst = np.maximum(worst, float(np.max(np.abs(rho_lib - rho_oracle))))
    crit.finish(worst, 1e-11)


def test_criterion_09_density_roundtrips():
    crit = Criterion(9, "density round-trips", 20.0)
    rng = np.random.default_rng(109)
    worst_rho, worst_param = 0.0, 0.0
    for profile in N4_PROFILES + N6_PROFILES:
        for _ in range(100):
            spectrum = random_spectrum(profile, rng, min_gap=1e-3)
            coords = random_flag_coordinates(profile, rng)
            params = DensityParameters(spectrum, coords)
            rho = parametrize(params)
            back = deparametrize(rho)
            assert back.spectrum.profile == profile
            worst_param = np.maximum(worst_param, coordinates_distance(coords, back.coords))
            worst_param = np.maximum(
                worst_param,
                np.max(np.abs(np.subtract(spectrum.lambdas, back.spectrum.lambdas))),
            )
            worst_rho = np.maximum(worst_rho, frobenius(parametrize(back) - rho))
    assert worst_rho <= 1e-10, f"density-level residual {worst_rho:.3e}"
    crit.finish(worst_param, 1e-9, extra=f" density-level={worst_rho:.3e} (tol 1e-10)")


def test_criterion_10_projective_structural_zeros():
    crit = Criterion(10, "projective peel structural zeros", 10.0)
    rng = np.random.default_rng(110)
    worst = 0.0
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        for _ in range(100):
            p = projector_of_unitary(haar_unitary(n, rng), k)
            vectors, section = section_from_projective_factors(p)
            assert frobenius(projector_of_unitary(section, k) - p) <= 1e-10
            for i, x in enumerate(vectors):
                tail = x[n - k :]
                if tail.size:
                    worst = np.maximum(worst, float(np.max(np.abs(tail))))
    crit.finish(worst, 1e-12)


def test_criterion_11_chart_coverage():
    crit = Criterion(11, "identity-chart coverage of Haar planes", 30.0)
    rng = np.random.default_rng(111)
    outside = 0
    total = 10_000
    for _ in range(total):
        f = frame_of_unitary(haar_unitary(4, rng), 2)
        smin = np.linalg.svd(f[2:, :], compute_uv=False)[-1]
        if smin <= RANK_TOL:
            outside += 1
    fraction = outside / total
    crit.finish(fraction, 0.005, extra=f" outside={outside}/{total}")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-s", "-v"]))
