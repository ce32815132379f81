"""Closed-form exponential of off-diagonal skew-Hermitian generators.

exp of [[0, B], [-B*, 0]] has the block form of the ball-coordinate unitary.
Every block, and the maps between a generator and its ball coordinate, is a
scalar function of the singular values s of B (or of X) applied between the
singular vectors of one thin SVD: sin s, arcsin s and cos s - 1, the last
written as -2 sin^2(s/2) so that small generators lose no digits.  No power
series and no Taylor expansion are used.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NotPSDError, PrincipalRangeWarning
from .linalg import as_matrix, ball_factors, block_rotation, identity_plus


def generator_matrix(b):
    """Skew-Hermitian embedding [[0, B], [-B*, 0]] of a rectangular block."""
    b = as_matrix(b)
    k1, k2 = b.shape
    k = np.zeros((k1 + k2, k1 + k2), dtype=complex)
    k[:k1, k1:] = b
    k[k1:, :k1] = -b.conj().T
    return k


def exp_generator(b):
    """Closed-form exponential of the off-diagonal generator of B.

    With B = U diag(s) V*, the blocks are I + U diag(cos s - 1) U* and
    I + V diag(cos s - 1) V* on the diagonal and X = U diag(sin s) V* off
    it, laid out as :func:`~flagparam.charts.ball_unitary` lays out its
    blocks.  Agrees with the series exponential of ``generator_matrix(b)``.
    """
    u, s, vh = np.linalg.svd(as_matrix(b), full_matrices=False)
    cos_m1 = -2.0 * np.sin(s / 2) ** 2
    x = (u * np.sin(s)) @ vh
    return block_rotation(identity_plus(u, cos_m1), x, identity_plus(vh.conj().T, cos_m1))


def generator_to_ball(b):
    """Ball coordinate X = U diag(sin s) V* of the exponential of B = U diag(s) V*.

    ``exp_generator(b)`` equals ``ball_unitary(X)`` exactly when every
    singular value of B is at most pi/2; beyond that the cos block turns
    negative while the ball unitary keeps PSD diagonal blocks, and a
    :class:`PrincipalRangeWarning` is emitted.
    """
    u, s, vh = np.linalg.svd(as_matrix(b), full_matrices=False)
    if s.size and s[0] > math.pi / 2 + 1e-12:
        warnings.warn(
            "generator has a singular value above pi/2; the exponential no longer "
            "matches the ball unitary of the returned coordinate",
            PrincipalRangeWarning,
            stacklevel=2,
        )
    return (u * np.sin(s)) @ vh


def ball_to_generator(x):
    """Generator B whose exponential has ball coordinate X.

    With X = U diag(s) V*, B = U diag(arcsin s) V*.  Inverse of
    :func:`generator_to_ball` on the principal range: all singular values
    of the result lie in [0, pi/2).
    """
    u, s, vh = np.linalg.svd(as_matrix(x), full_matrices=False)
    if s.size and s[0] >= 1.0:
        raise NotPSDError(f"spectral norm {s[0]:.6f} >= 1: outside the open ball")
    return (u * np.arcsin(s)) @ vh


def sqrt_complement(x):
    """(I - X X*)^(1/2) as a rank-min(k1, k2) update of the identity.

    Uses the rank-structured identity I + XV diag(-1 / (1 + c)) (XV)* from
    one thin SVD of X, with V its right singular vectors and c the cosines
    (1 - s^2)^1/2 (see :func:`~flagparam.linalg.ball_factors`): since
    (sqrt(1 - t) - 1) / t = -1 / (1 + sqrt(1 - t)), the middle factor has no
    cancellation and needs no series near zero.  This is the top block of
    ``ball_unitary(x)``.  Raises :class:`NotPSDError` when X*X has an
    eigenvalue above 1.
    """
    xv, _, c = ball_factors(as_matrix(x))
    return identity_plus(xv, -1.0 / (1.0 + c))
