"""Density matrices with degenerate spectra and their independent parameters.

A density matrix is determined by a strictly decreasing list of distinct
eigenvalues with multiplicities (the spectrum) and a point of the flag
manifold fixed by those multiplicities (the eigenbasis modulo the
commutant).  ``parametrize`` builds the matrix from the parameters;
``deparametrize`` recovers them by eigenvalue clustering followed by the
coset decomposition of the eigenvector unitary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GapAmbiguityError, ValidationError
from .linalg import EPS_HERMITIAN, PSD_TOL, hermitian_mean, hermitian_part, read_as, require_tol
from .coset import FlagCoordinates, _peel, _unchecked, flag_section, validate_profile

GAP_TOL = 1e-6  # default eigenvalue clustering threshold
SPLIT_FACTOR = 10.0  # a gap of at least SPLIT_FACTOR * gap_tol splits a cluster
TRACE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct eigenvalues with multiplicities: strictly decreasing, unit weight.

    ``lambdas[j]`` is repeated ``profile[j]`` times on the diagonal; the
    weighted sum over the profile is 1.  Any positive gap between consecutive
    values is accepted: a clustering threshold only matters when a profile is
    read off a matrix (see :func:`deparametrize`).
    """

    profile: tuple
    lambdas: tuple

    def __post_init__(self):
        profile = validate_profile(self.profile)
        lambdas = read_as(lambda v: tuple(map(float, v)), self.lambdas, "LAMBDA_VALUES", "eigenvalues must be numbers")
        if not all(map(math.isfinite, lambdas)):
            raise ValidationError(f"eigenvalues must be finite: {lambdas}", code="NOT_FINITE")
        if len(lambdas) != len(profile):
            raise ValidationError(
                f"{len(lambdas)} eigenvalues for {len(profile)} blocks", code="LAMBDA_COUNT"
            )
        if any(a <= b for a, b in zip(lambdas, lambdas[1:])):
            raise ValidationError(
                f"eigenvalues must be strictly decreasing: {lambdas}", code="LAMBDA_ORDER"
            )
        # tolerate the tiny negative tail produced by clustering a PSD spectrum
        if lambdas[-1] < -PSD_TOL:
            raise ValidationError(f"negative eigenvalue {lambdas[-1]:.3e}", code="LAMBDA_NEGATIVE")
        weight = sum(k * v for k, v in zip(profile, lambdas))
        if abs(weight - 1.0) > TRACE_TOL:
            raise ValidationError(
                f"weighted eigenvalue sum {weight!r} != 1", code="LAMBDA_SUM"
            )
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "lambdas", lambdas)

    def diagonal(self):
        """The eigenvalues repeated per multiplicity, as a vector."""
        return np.array([v for v, k in zip(self.lambdas, self.profile) for _ in range(k)])


@dataclass(frozen=True, eq=False)
class DensityParameters:
    """Independent parameters of a density matrix: spectrum plus flag point."""

    spectrum: Spectrum
    coords: FlagCoordinates

    def __post_init__(self):
        if self.spectrum.profile != self.coords.profile:
            raise ValidationError(
                f"spectrum profile {self.spectrum.profile} != "
                f"coordinates profile {self.coords.profile}",
                code="PROFILE_SUM",
            )


def parametrize(params: DensityParameters):
    """Density matrix U D U* with U the canonical section over the flag point.

    The result does not depend on which section is used: conjugating U by any
    block-diagonal unitary matching the profile leaves it unchanged, because
    such factors commute with the degenerate diagonal.
    """
    u = flag_section(params.coords)
    return hermitian_mean((u * params.spectrum.diagonal()) @ u.conj().T)


def _hermitian_unit_trace(rho, herm_tol, trace_tol):
    """Symmetrized input after the Hermiticity and unit-trace checks, divided by its trace.

    The one acceptance check of a density input, short of the PSD test:
    the library runs it at the default tolerances, ``rho-to-param`` at
    ``FLAGPARAM_TOL``.
    """
    h = hermitian_part(rho, herm_tol)
    trace = float(h.trace().real)
    if abs(trace - 1.0) > trace_tol:
        raise ValidationError(f"trace {trace!r} != 1", code="BAD_TRACE")
    h /= trace  # so that the cluster means weigh 1 to rounding
    return h


def _require_psd(w):
    """Reject ascending eigenvalues w whose smallest is below -PSD_TOL."""
    low = float(w[0])
    if low < -PSD_TOL:
        raise ValidationError(f"negative eigenvalue {low:.3e}", code="NOT_DENSITY_PSD")


def require_density(rho):
    """Validate a density matrix: Hermitian, PSD within tolerance, unit trace.

    Returns the symmetrized matrix divided by its trace.
    """
    h = _hermitian_unit_trace(rho, EPS_HERMITIAN, TRACE_TOL)
    _require_psd(np.linalg.eigvalsh(h))
    return h


def deparametrize(rho, gap_tol=GAP_TOL):
    """Recover spectrum and flag coordinates from a density matrix.

    Eigenvalues are sorted in decreasing order and clustered: a gap at or
    below ``gap_tol`` merges, a gap of at least ``SPLIT_FACTOR * gap_tol``
    splits, and a gap in between, or a chain of merges spread over more than
    ``gap_tol``, raises :class:`GapAmbiguityError`: the multiplicity profile
    would be unstable at that tolerance.  A ``gap_tol`` that is negative or
    not finite raises ``BAD_TOL``.  A trace within ``TRACE_TOL`` of 1 is
    accepted and divided out before the eigendecomposition.  The eigenvector
    unitary is then peeled over the detected profile; its block-diagonal
    residue is commutant freedom and is never formed.
    """
    gap_tol = require_tol(gap_tol, "gap_tol")
    return _deparametrize(_hermitian_unit_trace(rho, EPS_HERMITIAN, TRACE_TOL), gap_tol)


def _deparametrize(h, gap_tol):
    """:func:`deparametrize` of a matrix from :func:`_hermitian_unit_trace`, at a checked ``gap_tol``.

    The spectrum and parameters are built unchecked: the clustering gives
    strictly decreasing values of unit weight, and the peel coordinates
    over the same profile.
    """
    w, v = np.linalg.eigh(h)
    _require_psd(w)
    profile, lambdas = _clusters(w[::-1], gap_tol)
    coords, _ = _peel(v[:, ::-1], profile)
    spectrum = _unchecked(Spectrum, profile=profile, lambdas=lambdas)
    return _unchecked(DensityParameters, spectrum=spectrum, coords=coords)


def _clusters(w, gap_tol):
    """(profile, lambdas) of the decreasing eigenvalue array ``w``, in one pass over ``w.tolist()``.

    The first gap in the ambiguity band raises at once, a spread above
    ``gap_tol`` only after the pass.  One ``np.add.reduceat`` gives the means;
    a mean that rounds out of its cluster's range is clamped back into it.
    """
    vals = w.tolist()
    split = SPLIT_FACTOR * gap_tol
    starts, ranges = [0], []  # ranges: (cluster, last, first value) of clusters of two or more
    # the sentinel -inf closes the last cluster and appends len(vals) to starts
    for i, (prev, cur) in enumerate(zip(vals, vals[1:] + [-math.inf]), 1):
        gap = prev - cur
        if gap > gap_tol:
            if gap < split:
                raise GapAmbiguityError(
                    f"eigenvalue gap {gap:.3e} inside ({gap_tol:.1e}, {split:.1e}): "
                    "clustering is unstable, pick a different gap_tol"
                )
            if i - starts[-1] > 1:
                ranges.append((len(starts) - 1, prev, vals[starts[-1]]))
            starts.append(i)
    spread = max((high - low for _, low, high in ranges), default=0.0)
    if spread > gap_tol:
        raise GapAmbiguityError(
            f"merged eigenvalues spread over {spread:.3e} > gap_tol={gap_tol:.1e}: "
            "clustering is unstable, pick a different gap_tol"
        )
    profile = tuple(b - a for a, b in zip(starts, starts[1:]))
    means = (np.add.reduceat(w, starts[:-1]) / profile).tolist()
    for j, low, high in ranges:
        means[j] = min(max(means[j], low), high)
    return profile, tuple(means)


def parameter_count(profile) -> int:
    """Number of independent real parameters for a profile.

    m - 1 from the spectrum (simplex interior) plus twice the sum of the
    pairwise multiplicity products, n^2 - sum_j k_j^2, from the flag manifold.
    For the non-degenerate profile (1, ..., 1) on n levels this is n^2 - 1.
    """
    ks = validate_profile(profile)
    n = sum(ks)
    return (len(ks) - 1) + n * n - sum(k * k for k in ks)
