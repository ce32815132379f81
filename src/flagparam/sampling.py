"""Seeded random generators for parameters, spectra, and test inputs."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import haar_unitary
from .charts import identity_chart
from .coset import (
    BlockDiagonalUnitary,
    FlagCoordinates,
    decompose_unitary,
    level_dimensions,
    validate_profile,
)
from .density import DensityParameters, Spectrum

MIN_SPECTRUM_GAP = 1e-3


def random_ball_matrix(rows, cols, rng, radius=None):
    """Random matrix with prescribed spectral norm (uniform in (0, 0.97) if None)."""
    rng = np.random.default_rng(rng)
    if radius is None:
        radius = rng.uniform(0.05, 0.97)
    x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    top = np.linalg.norm(x, 2)
    return x * (radius / top)


def random_spectrum(profile, rng, min_gap=MIN_SPECTRUM_GAP, max_tries=200_000):
    """Spectrum drawn uniformly from the weighted simplex, rejecting small gaps.

    Group weights are Dirichlet(1, ..., 1); the candidate eigenvalues are the
    weights divided by their multiplicities, accepted when strictly
    decreasing with gaps of at least ``min_gap``.
    """
    ks = validate_profile(profile)
    rng = np.random.default_rng(rng)
    m = len(ks)
    if m == 1:
        return Spectrum(ks, (1.0 / ks[0],))
    karr = np.array(ks, dtype=float)
    uniform_ks = len(set(ks)) == 1
    for _ in range(max_tries):
        lam = rng.dirichlet(np.ones(m)) / karr
        if uniform_ks:
            # equal multiplicities are exchangeable, so sorting is a valid
            # draw from the ordered simplex; only the gaps can reject
            lam = np.sort(lam)[::-1]
        if np.all(lam[:-1] - lam[1:] >= min_gap):
            return Spectrum(ks, tuple(float(v) for v in lam))
    raise ValidationError(
        f"could not sample a spectrum for profile {ks} with min_gap={min_gap}",
        code="SPECTRUM_SAMPLING",
    )


def random_flag_coordinates(profile, rng, max_radius=0.95):
    """Interior flag coordinates on the identity charts of every level."""
    ks = validate_profile(profile)
    rng = np.random.default_rng(rng)
    xs, charts = [], []
    for nj, kj in level_dimensions(ks):
        xs.append(random_ball_matrix(nj - kj, kj, rng, radius=rng.uniform(0.05, max_radius)))
        charts.append(identity_chart(nj))
    return FlagCoordinates(ks, tuple(xs), tuple(charts))


def random_block_diagonal(profile, rng):
    """Haar-random element of the block-diagonal group of a profile."""
    ks = validate_profile(profile)
    rng = np.random.default_rng(rng)
    return BlockDiagonalUnitary(tuple(haar_unitary(k, rng) for k in ks))


def random_density_parameters(profile, rng, min_gap=MIN_SPECTRUM_GAP):
    """Random density parameters: Haar flag coordinates plus a random spectrum.

    The flag point is drawn by decomposing a Haar unitary, so its law is the
    pushforward of Haar measure; the spectrum is sampled by
    :func:`random_spectrum`.
    """
    ks = validate_profile(profile)
    rng = np.random.default_rng(rng)
    spectrum = random_spectrum(ks, rng, min_gap)
    coords, _ = decompose_unitary(haar_unitary(sum(ks), rng), ks)
    return DensityParameters(spectrum, coords)
