"""Seeded random generators for parameters, spectra, and test inputs."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import haar_unitary, require_tol
from .charts import identity_chart
from .coset import BlockDiagonalUnitary, FlagCoordinates, _peel, level_dimensions, validate_profile
from .density import GAP_TOL, SPLIT_FACTOR, DensityParameters, Spectrum

MIN_SPECTRUM_GAP = 1e-3
MAX_FLAG_RADIUS = 0.95  # random_flag_coordinates keeps every ||X|| below this


def random_ball_matrix(rows, cols, rng, radius=None):
    """Random matrix with prescribed spectral norm (uniform in (0, 0.97) if None)."""
    rng = np.random.default_rng(rng)
    if radius is None:
        radius = rng.uniform(0.05, 0.97)
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    top = np.linalg.norm(x, 2)
    return x * (radius / top)


def _gap_budget(ks):
    """k_j, m - j and the budget sum_j k_j (m - j), as floats: gaps g need g * budget <= 1."""
    karr = np.array(ks, dtype=float)
    steps = np.arange(len(ks) - 1, -1, -1, dtype=float)  # m - j
    return karr, steps, float(karr @ steps)


def random_spectrum(profile, rng, min_gap=MIN_SPECTRUM_GAP):
    """Spectrum drawn uniformly among those with adjacent gaps >= ``min_gap``.

    The excess gaps d_j = lambda_j - lambda_(j+1) - min_gap (d_m = lambda_m)
    fill {d >= 0, sum_j K_j d_j = R}, K_j = k_1 + ... + k_j and
    R = 1 - min_gap * sum_j k_j (m - j): a scaled simplex, which one
    Dirichlet(1) draw covers uniformly.  Raises ``SPECTRUM_SAMPLING`` before
    any draw when R <= 0: the one refusal of an infeasible gap.  ``min_gap``
    is read by :func:`~flagparam.linalg.require_tol`: one that is not a
    finite, nonnegative number raises ``BAD_TOL``, also before any draw.
    """
    ks = validate_profile(profile)
    min_gap = require_tol(min_gap, "min_gap")
    rng = np.random.default_rng(rng)
    karr, steps, budget = _gap_budget(ks)
    room = 1.0 - min_gap * budget
    if room <= 0.0:
        raise ValidationError(
            f"no spectrum with n={sum(ks)} and m={len(ks)} distinct eigenvalues has gaps >= "
            f"min_gap={min_gap}: the largest feasible gap is {1.0 / budget:.6g}",
            code="SPECTRUM_SAMPLING",
        )
    d = rng.dirichlet(np.ones(len(ks))) * room / np.cumsum(karr)
    lam = np.cumsum(d[::-1])[::-1] + min_gap * steps
    return Spectrum(ks, tuple(lam.tolist()))


def largest_feasible_gap(profile):
    """Supremum of the gaps a unit-trace spectrum with this profile can keep (inf for m = 1)."""
    budget = _gap_budget(validate_profile(profile))[2]
    return 1.0 / budget if budget else float("inf")


def random_flag_coordinates(profile, rng):
    """Interior flag coordinates on the identity charts of every level."""
    ks = validate_profile(profile)
    rng = np.random.default_rng(rng)
    xs, charts = [], []
    for nj, kj in level_dimensions(ks):
        xs.append(random_ball_matrix(nj - kj, kj, rng, radius=rng.uniform(0.05, MAX_FLAG_RADIUS)))
        charts.append(identity_chart(nj))
    return FlagCoordinates(ks, tuple(xs), tuple(charts))


def random_block_diagonal(profile, rng):
    """Haar-random element of the block-diagonal group of a profile."""
    ks = validate_profile(profile)
    rng = np.random.default_rng(rng)
    return BlockDiagonalUnitary(tuple(haar_unitary(k, rng) for k in ks))


def random_density_parameters(profile, rng):
    """Random density parameters: Haar flag coordinates plus a random spectrum.

    The spectrum keeps gaps of at least min(MIN_SPECTRUM_GAP, max(half the
    largest feasible gap, SPLIT_FACTOR * GAP_TOL * (1 + 1e-6))), which
    deparametrize splits back at the default gap_tol; ``random_spectrum``
    refuses it before any draw when no spectrum keeps it.  The flag point comes
    from a Haar unitary, peeled as by ``decompose_unitary`` but without its
    residue or unitarity check: its law is the pushforward of Haar measure.
    """
    ks = validate_profile(profile)
    split = SPLIT_FACTOR * GAP_TOL * (1.0 + 1e-6)
    min_gap = min(MIN_SPECTRUM_GAP, max(0.5 * largest_feasible_gap(ks), split))
    rng = np.random.default_rng(rng)
    spectrum = random_spectrum(ks, rng, min_gap)
    coords, _ = _peel(haar_unitary(sum(ks), rng), ks)
    return DensityParameters(spectrum, coords)
