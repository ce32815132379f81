"""Seeded property suites behind the ``verify`` CLI command.

Each suite runs a fixed set of randomized invariant checks and reports, per
property, how many residuals it drew and the largest of them; a suite passes
when every such maximum is within its tolerance, and a NaN residual fails.
All randomness is drawn from one seeded generator, so runs are reproducible:
each property's draws come after those of the properties listed before it.
"""

from __future__ import annotations

import numpy as np

from . import charts, coset, density, lie, linalg
from .errors import ValidationError
from .linalg import RANK_TOL, expm_reference, frobenius, haar_unitary, hermitian_sqrt
from .sampling import (
    random_ball_matrix,
    random_block_diagonal,
    random_density_parameters,
    random_flag_coordinates,
)

DEFAULT_SEED = 20250809

_N4_PROFILES = [(1, 1, 1, 1), (2, 2), (3, 1), (2, 1, 1)]


def _prop(name, residuals, tolerance):
    """A property's report from its residuals, an iterable consumed in draw order.

    ``count`` is how many it yields and ``max_residual`` their ``np.max``,
    so a NaN residual is the maximum and fails.  A maximum that is not
    finite is written as the string ``"nan"`` or ``"inf"``, which JSON can
    carry.
    """
    residuals = np.fromiter(residuals, dtype=float)
    worst = float(np.max(residuals))
    return {
        "property": name,
        "count": residuals.size,
        "max_residual": worst if np.isfinite(worst) else repr(worst),
        "tolerance": float(tolerance),
        "pass": bool(worst <= tolerance),
    }


def _each(cases, count):
    """Every case ``count`` times in a row, in order."""
    return [case for case in cases for _ in range(count)]


def _random_dims(rng, max_n):
    n = int(rng.integers(2, max_n + 1))
    k = int(rng.integers(1, n))
    return n, k


def _ball_draws(rng, count, max_radius=None, max_k=4):
    """``count`` k1 x k2 ball matrices, k1 and k2 in 1..max_k, of norm uniform in [0, max_radius].

    Each is drawn as it is consumed.  With no ``max_radius`` the norm
    follows ``random_ball_matrix``'s own law.
    """
    for _ in range(count):
        k1, k2 = int(rng.integers(1, max_k + 1)), int(rng.integers(1, max_k + 1))
        radius = None if max_radius is None else rng.uniform(0.0, max_radius)
        yield random_ball_matrix(k1, k2, rng, radius=radius)


def suite_unitarity(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)
    defect = linalg.unitarity_defect

    def closed_ball(i):
        n, k = _random_dims(rng, 8)
        radius = 1.0 if i % 5 == 0 else rng.uniform(0.0, 1.0)
        return defect(charts.ball_unitary(random_ball_matrix(n - k, k, rng, radius=radius)))

    def haar():
        return defect(haar_unitary(int(rng.integers(1, 9)), rng))

    # a generator: it draws only as its property consumes it, after the two above
    exp_defects = (defect(lie.exp_generator(b)) for b in _ball_draws(rng, 100, 5.0))
    return [
        _prop("ball_unitary_unitary_on_closed_ball", map(closed_ball, range(500)), 1e-12),
        _prop("haar_unitary_unitary", (haar() for _ in range(100)), 1e-12),
        _prop("exp_generator_unitary", exp_defects, 1e-11),
    ]


def _decompose_residual(g, profile, public=False):
    """||reconstruct(decompose(g)) - g||_F, from the public form (X, charts) if ``public``."""
    coords, h = coset.decompose_unitary(g, profile)
    if public:
        coords = coset.FlagCoordinates(coords.profile, coords.xs, coords.charts)
    return frobenius(coset.reconstruct_unitary(coords, h) - g)


def _near_boundary_residuals(rng, margins, public=False):
    """:func:`_decompose_residual` of one unitary per margin, drawn as it is consumed, whose
    identity-chart block at a random profile (r, k) has smallest singular value ``margin``."""
    for margin in margins:
        n, k = _random_dims(rng, 8)
        r, p = n - k, min(n - k, k)
        s = np.sqrt(rng.uniform(0.0, 0.9, p))
        s[0] = np.sqrt((1.0 - margin) * (1.0 + margin))
        x = haar_unitary(r, rng)[:, :p] @ np.diag(s) @ haar_unitary(k, rng)[:p, :]
        g = charts.ball_unitary(x) @ random_block_diagonal((r, k), rng).matrix()
        yield _decompose_residual(g, (r, k), public)


def suite_roundtrip(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)

    def chart_roundtrip():
        n, k = _random_dims(rng, 6)
        sigmas = charts.chart_permutations(n, k)
        sigma = sigmas[int(rng.integers(0, len(sigmas)))]
        x = random_ball_matrix(n - k, k, rng)
        p = charts.chart_point(x, sigma)
        back = charts.chart_coordinates(p, sigma)
        return frobenius(back - x), frobenius(charts.chart_point(back, sigma) - p)

    def coset_roundtrip(profile):
        return _decompose_residual(haar_unitary(4, rng), profile)

    def affine_roundtrip():
        n, k = _random_dims(rng, 6)
        x = random_ball_matrix(n - k, k, rng)
        return frobenius(charts.affine_to_ball(charts.ball_to_affine(x)) - x)

    def density_roundtrip(profile):
        rho = density.parametrize(random_density_parameters(profile, rng))
        return frobenius(density.parametrize(density.deparametrize(rho)) - rho)

    ball, point = zip(*(chart_roundtrip() for _ in range(200)))
    densities = _each([(3, 1), (2, 2), (2, 1, 1)], 10)
    # generators: each draws only as its property consumes it, in list order
    near = _near_boundary_residuals(rng, [10.0 ** -e for e in (4, 5, 6, 7)] * 15)
    # rebuilt from the public form (X and chart only), as JSON round trips do
    public = _near_boundary_residuals(rng, [1e-4, 1e-5, 1e-6, 1e-7, 1.5 * RANK_TOL] * 12, True)
    return [
        _prop("chart_roundtrip_ball", ball, 1e-10),
        _prop("chart_roundtrip_point", point, 1e-10),
        _prop("coset_reconstruct_decompose", map(coset_roundtrip, _each(_N4_PROFILES, 25)), 1e-10),
        _prop("affine_chart_roundtrip", (affine_roundtrip() for _ in range(100)), 1e-10),
        _prop("density_roundtrip", map(density_roundtrip, densities), 1e-10),
        _prop("coset_roundtrip_near_boundary", near, 1e-12),
        _prop("coset_public_roundtrip_near_boundary", public, 1e-10),
    ]


def suite_sections(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)

    def section_law():
        n, k = _random_dims(rng, 6)
        p = charts.projector_of_unitary(haar_unitary(n, rng), k)
        return frobenius(charts.projector_of_unitary(charts.global_section(p), k) - p)

    def coset_invariance(profile):
        g = haar_unitary(4, rng)
        v = random_block_diagonal(profile, rng)
        a, _ = coset.decompose_unitary(g, profile)
        b, _ = coset.decompose_unitary(g @ v.matrix(), profile)
        return coset.coordinates_distance(a, b)

    def flag_section_invariance(profile):
        coords = random_flag_coordinates(profile, rng)
        v = random_block_diagonal(profile, rng)
        again, _ = coset.decompose_unitary(coset.flag_section(coords) @ v.matrix(), profile)
        return coset.coordinates_distance(coords, again)

    def projective_factors(n, k):
        p = charts.projector_of_unitary(haar_unitary(n, rng), k)
        vectors, section = coset.section_from_projective_factors(p)
        tails = [x[n - k : x.size - i] for i, x in enumerate(vectors[: k - 1])]
        law = frobenius(charts.projector_of_unitary(section, k) - p)
        return law, float(np.max(np.abs(np.concatenate(tails))))

    flags = _each([(2, 2), (2, 1, 1), (1, 1, 1)], 10)
    props = [
        _prop("global_section_law", (section_law() for _ in range(100)), 1e-10),
        _prop("coset_invariance", map(coset_invariance, _each(_N4_PROFILES, 10)), 1e-10),
        _prop("flag_section_invariance", map(flag_section_invariance, flags), 1e-10),
    ]
    law, zeros = zip(*(projective_factors(*nk) for nk in _each([(4, 2), (5, 2), (6, 3)], 10)))
    return props + [
        _prop("projective_factor_section_law", law, 1e-10),
        _prop("projective_factor_structural_zeros", zeros, 1e-12),
    ]


def _sinc_sqrt_reference(gram):
    """sin(M^1/2) M^-1/2 of a PSD Gram matrix M, through its eigendecomposition."""
    w, v = np.linalg.eigh(gram)
    return (v * np.sinc(np.sqrt(np.clip(w, 0.0, None)) / np.pi)) @ v.conj().T


def suite_lie(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)

    def oracle(b):
        return frobenius(lie.exp_generator(b) - expm_reference(lie.generator_matrix(b)))

    def generator_roundtrip(x):
        return frobenius(lie.generator_to_ball(lie.ball_to_generator(x)) - x)

    def sqrt_complement(x):
        reference = hermitian_sqrt(np.eye(x.shape[0]) - x @ x.conj().T)
        return frobenius(lie.sqrt_complement(x) - reference)

    def two_sided(b):
        k1 = b.shape[0]
        return frobenius(lie.exp_generator(b)[:k1, k1:] - _sinc_sqrt_reference(b @ b.conj().T) @ b)

    return [
        _prop("exp_generator_vs_series_oracle", map(oracle, _ball_draws(rng, 200, 2.0)), 1e-9),
        _prop("generator_ball_roundtrip", map(generator_roundtrip, _ball_draws(rng, 100)), 1e-10),
        _prop(
            "sqrt_complement_vs_eigendecomposition",
            map(sqrt_complement, _ball_draws(rng, 100, max_k=5)),
            1e-10,
        ),
        _prop("offdiagonal_block_two_sided", map(two_sided, _ball_draws(rng, 100, 3.0)), 1e-11),
    ]


def suite_jarlskog(seed=DEFAULT_SEED):
    rng = np.random.default_rng(seed)

    def matches_ball_unitary():
        j = int(rng.integers(2, 7))
        zeta = rng.standard_normal(j - 1) + 1j * rng.standard_normal(j - 1)
        zeta = zeta / np.linalg.norm(zeta)
        theta = rng.uniform(0.0, np.pi / 2 * 0.999)
        w = charts.ball_unitary(np.sin(theta) * zeta)
        return float(np.max(np.abs(coset.jarlskog_unitary(theta, zeta) - w)))

    def ball_roundtrip():
        x = random_ball_matrix(int(rng.integers(2, 7)) - 1, 1, rng).reshape(-1)
        return float(np.max(np.abs(coset.jarlskog_to_ball(coset.ball_to_jarlskog(x)) - x)))

    return [
        _prop("jarlskog_matches_ball_unitary", (matches_ball_unitary() for _ in range(200)), 1e-12),
        _prop("jarlskog_ball_roundtrip", (ball_roundtrip() for _ in range(100)), 1e-12),
    ]


SUITES = {
    "unitarity": suite_unitarity,
    "roundtrip": suite_roundtrip,
    "sections": suite_sections,
    "lie": suite_lie,
    "jarlskog": suite_jarlskog,
}


def run(suite="all", seed=DEFAULT_SEED):
    """Run one suite (or all) and return a JSON-ready report.

    Before any suite runs, a seed that is not an integer >= 0 (read by
    :func:`linalg.read_int`) raises :class:`ValidationError` with code
    ``BAD_SEED``, and a suite that is not the string ``"all"`` or a key of
    ``SUITES`` raises one with code ``BAD_SUITE``.
    """
    seed = linalg.read_int(seed, "BAD_SEED", "seed must be an integer >= 0")
    if seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed}", code="BAD_SEED")
    if not isinstance(suite, str) or suite not in ("all", *SUITES):
        raise ValidationError(
            f"unknown suite {suite!r}; expected 'all' or one of {list(SUITES)}", code="BAD_SUITE"
        )
    names = list(SUITES) if suite == "all" else [suite]
    report = {"seed": seed, "suites": []}
    for name in names:
        props = SUITES[name](seed)
        report["suites"].append(
            {"suite": name, "properties": props, "pass": all(p["pass"] for p in props)}
        )
    report["pass"] = all(s["pass"] for s in report["suites"])
    return report
