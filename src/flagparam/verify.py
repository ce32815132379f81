"""Seeded property suites behind the ``verify`` CLI command.

Each suite runs a fixed set of randomized invariant checks and reports the
maximum residual per property; a suite passes when every residual is within
its tolerance.  All randomness is drawn from one seeded generator, so runs
are reproducible.
"""

from __future__ import annotations

import numpy as np

from . import charts, coset, density, lie
from .linalg import RANK_TOL, expm_reference, frobenius, haar_unitary, hermitian_sqrt
from .sampling import (
    random_ball_matrix,
    random_block_diagonal,
    random_density_parameters,
    random_flag_coordinates,
)

DEFAULT_SEED = 20250809

_N4_PROFILES = [(1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]


def _prop(name, count, max_residual, tolerance):
    return {
        "property": name,
        "count": int(count),
        "max_residual": float(max_residual),
        "tolerance": float(tolerance),
        "pass": bool(max_residual <= tolerance),
    }


def _random_dims(rng, max_n):
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, n))
    return n, k


def suite_unitarity(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(500):
        n, k = _random_dims(rng, 8)
        radius = 1.0 if i % 5 == 0 else rng.uniform(0.0, 1.0)
        x = random_ball_matrix(n - k, k, rng, radius=radius)
        w = charts.ball_unitary(x)
        worst = max(worst, frobenius(w.conj().T @ w - np.eye(n)))
    props = [_prop("ball_unitary_unitary_on_closed_ball", 500, worst, 1e-12)]

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        g = haar_unitary(n, rng)
        worst = max(worst, frobenius(g.conj().T @ g - np.eye(n)))
    props.append(_prop("haar_unitary_unitary", 100, worst, 1e-12))

    worst = 0.0
    for _ in range(100):
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 5.0))
        u = lie.exp_generator(b)
        worst = max(worst, frobenius(u.conj().T @ u - np.eye(k1 + k2)))
    props.append(_prop("exp_generator_unitary", 100, worst, 1e-11))
    return props


def _near_boundary_unitary(r, k, margin, rng):
    """Unitary whose identity-chart block at profile (r, k) has smallest singular value ``margin``."""
    p = min(r, k)
    s = np.sqrt(rng.uniform(0.0, 0.9, p))
    s[0] = np.sqrt((1.0 - margin) * (1.0 + margin))
    x = haar_unitary(r, rng)[:, :p] @ np.diag(s) @ haar_unitary(k, rng)[:p, :]
    return charts.ball_unitary(x) @ random_block_diagonal((r, k), rng).matrix()


def suite_roundtrip(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst_ball, worst_point = 0.0, 0.0
    for _ in range(200):
        n, k = _random_dims(rng, 6)
        sigmas = charts.chart_permutations(n, k)
        sigma = sigmas[int(rng.integers(0, len(sigmas)))]
        x = random_ball_matrix(n - k, k, rng)
        p = charts.chart_point(x, sigma)
        worst_ball = max(worst_ball, frobenius(charts.chart_coordinates(p, sigma) - x))
        p2 = charts.chart_point(charts.chart_coordinates(p, sigma), sigma)
        worst_point = max(worst_point, frobenius(p2 - p))
    props = [
        _prop("chart_roundtrip_ball", 200, worst_ball, 1e-10),
        _prop("chart_roundtrip_point", 200, worst_point, 1e-10),
    ]

    worst = 0.0
    for profile in _N4_PROFILES:
        for _ in range(25):
            g = haar_unitary(4, rng)
            coords, h = coset.decompose_unitary(g, profile)
            worst = max(worst, frobenius(coset.reconstruct_unitary(coords, h) - g))
    props.append(_prop("coset_reconstruct_decompose", 100, worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        n, k = _random_dims(rng, 6)
        x = random_ball_matrix(n - k, k, rng)
        worst = max(worst, frobenius(charts.affine_to_ball(charts.ball_to_affine(x)) - x))
    props.append(_prop("affine_chart_roundtrip", 100, worst, 1e-10))

    worst = 0.0
    for profile in [(3, 1), (2, 2), (2, 1, 1)]:
        for _ in range(10):
            params = random_density_parameters(profile, rng)
            rho = density.parametrize(params)
            worst = max(worst, frobenius(density.parametrize(density.deparametrize(rho)) - rho))
    props.append(_prop("density_roundtrip", 30, worst, 1e-10))

    worst = 0.0
    for i in range(60):
        n, k = _random_dims(rng, 8)
        g = _near_boundary_unitary(n - k, k, 10.0 ** -(4 + i % 4), rng)
        coords, h = coset.decompose_unitary(g, (n - k, k))
        worst = max(worst, frobenius(coset.reconstruct_unitary(coords, h) - g))
    props.append(_prop("coset_roundtrip_near_boundary", 60, worst, 1e-12))

    # rebuilt from the public form (X and chart only), as JSON round trips do
    worst = 0.0
    margins = [1e-4, 1e-5, 1e-6, 1e-7, 1.5 * RANK_TOL]
    for i in range(60):
        n, k = _random_dims(rng, 8)
        g = _near_boundary_unitary(n - k, k, margins[i % len(margins)], rng)
        coords, h = coset.decompose_unitary(g, (n - k, k))
        public = coset.FlagCoordinates(coords.profile, coords.xs, coords.charts)
        worst = max(worst, frobenius(coset.reconstruct_unitary(public, h) - g))
    props.append(_prop("coset_public_roundtrip_near_boundary", 60, worst, 1e-10))
    return props


def suite_sections(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n, k = _random_dims(rng, 6)
        p = charts.projector_of_unitary(haar_unitary(n, rng), k)
        g = charts.global_section(p)
        worst = max(worst, frobenius(charts.projector_of_unitary(g, k) - p))
    props = [_prop("global_section_law", 100, worst, 1e-10)]

    worst = 0.0
    for profile in _N4_PROFILES:
        for _ in range(10):
            g = haar_unitary(4, rng)
            v = random_block_diagonal(profile, rng)
            a, _ = coset.decompose_unitary(g, profile)
            b, _ = coset.decompose_unitary(g @ v.matrix(), profile)
            worst = max(worst, coset.coordinates_distance(a, b))
    props.append(_prop("coset_invariance", 40, worst, 1e-10))

    worst = 0.0
    for profile in [(2, 2), (2, 1, 1), (1, 1, 1)]:
        for _ in range(10):
            coords = random_flag_coordinates(profile, rng)
            v = random_block_diagonal(profile, rng)
            again, _ = coset.decompose_unitary(coset.flag_section(coords) @ v.matrix(), profile)
            worst = max(worst, coset.coordinates_distance(coords, again))
    props.append(_prop("flag_section_invariance", 30, worst, 1e-10))

    worst_law, worst_zero = 0.0, 0.0
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        for _ in range(10):
            p = charts.projector_of_unitary(haar_unitary(n, rng), k)
            vectors, section = coset.section_from_projective_factors(p)
            worst_law = max(worst_law, frobenius(charts.projector_of_unitary(section, k) - p))
            for i, x in enumerate(vectors):
                tail = x[n - k : x.size - i] if i < k - 1 else x[:0]
                if tail.size:
                    worst_zero = max(worst_zero, float(np.max(np.abs(tail))))
    props.append(_prop("projective_factor_section_law", 30, worst_law, 1e-10))
    props.append(_prop("projective_factor_structural_zeros", 30, worst_zero, 1e-12))
    return props


def _sinc_sqrt_reference(gram):
    """sin(M^1/2) M^-1/2 of a PSD Gram matrix M, through its eigendecomposition."""
    w, v = np.linalg.eigh(gram)
    return (v * np.sinc(np.sqrt(np.clip(w, 0.0, None)) / np.pi)) @ v.conj().T


def suite_lie(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 2.0))
        worst = max(
            worst, frobenius(lie.exp_generator(b) - expm_reference(lie.generator_matrix(b)))
        )
    props = [_prop("exp_generator_vs_series_oracle", 200, worst, 1e-9)]

    worst = 0.0
    for _ in range(100):
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = random_ball_matrix(k1, k2, rng)
        worst = max(worst, frobenius(lie.generator_to_ball(lie.ball_to_generator(x)) - x))
    props.append(_prop("generator_ball_roundtrip", 100, worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        k1, k2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        x = random_ball_matrix(k1, k2, rng)
        direct = lie.sqrt_complement(x)
        worst = max(worst, frobenius(direct - hermitian_sqrt(np.eye(k1) - x @ x.conj().T)))
    props.append(_prop("sqrt_complement_vs_eigendecomposition", 100, worst, 1e-10))

    worst = 0.0
    for _ in range(100):
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        b = random_ball_matrix(k1, k2, rng, radius=rng.uniform(0.0, 3.0))
        right = lie.exp_generator(b)[:k1, k1:]
        left = _sinc_sqrt_reference(b @ b.conj().T) @ b
        worst = max(worst, frobenius(right - left))
    props.append(_prop("offdiagonal_block_two_sided", 100, worst, 1e-11))
    return props


def suite_jarlskog(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        j = int(rng.integers(2, 7))
        zeta = rng.standard_normal(j - 1) + 1j * rng.standard_normal(j - 1)
        zeta = zeta / np.linalg.norm(zeta)
        theta = rng.uniform(0.0, np.pi / 2 * 0.999)
        v = coset.jarlskog_unitary(theta, zeta)
        w = charts.ball_unitary(np.sin(theta) * zeta)
        worst = max(worst, float(np.max(np.abs(v - w))))
    props = [_prop("jarlskog_matches_ball_unitary", 200, worst, 1e-12)]

    worst = 0.0
    for _ in range(100):
        j = int(rng.integers(2, 7))
        x = random_ball_matrix(j - 1, 1, rng).reshape(-1)
        level = coset.ball_to_jarlskog(x)
        worst = max(worst, float(np.max(np.abs(coset.jarlskog_to_ball(level) - x))))
    props.append(_prop("jarlskog_ball_roundtrip", 100, worst, 1e-12))
    return props


SUITES = {
    "unitarity": suite_unitarity,
    "roundtrip": suite_roundtrip,
    "sections": suite_sections,
    "lie": suite_lie,
    "jarlskog": suite_jarlskog,
}


def run(suite="all", seed=DEFAULT_SEED):
    """Run one suite (or all) and return a JSON-ready report."""
    names = list(SUITES) if suite == "all" else [suite]
    report = {"seed": int(seed), "suites": []}
    for name in names:
        props = SUITES[name](seed)
        report["suites"].append(
            {"suite": name, "properties": props, "pass": all(p["pass"] for p in props)}
        )
    report["pass"] = all(s["pass"] for s in report["suites"])
    return report
