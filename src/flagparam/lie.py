"""Closed-form exponential of off-diagonal skew-Hermitian generators.

exp of [[0, B], [-B*, 0]] has the block form of the ball-coordinate unitary.
Every block, and the maps between a generator and its ball coordinate, is a
scalar function of the small Gram matrix B*B (or BB* for a wide B, and the
same for X) taken through one ``eigh`` of it (see
:func:`~flagparam.linalg.gram_eighs`): sin s / s, arcsin s / s and
cos s - 1, the last written as -2 sin^2(s/2) so that small generators lose
no digits.  Each is smooth in t = s^2, so eigenvectors that ``eigh`` leaves
loose within a cluster of tiny singular values never reach a result.  No
power series and no Taylor expansion are used.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NotPSDError, PrincipalRangeWarning
from .linalg import as_matrix, ball_factors, gram_eigh, gram_function, identity_plus


def generator_matrix(b):
    """Skew-Hermitian embedding [[0, B], [-B*, 0]] of a rectangular block."""
    b = as_matrix(b)
    k1, k2 = b.shape
    k = np.zeros((k1 + k2, k1 + k2), dtype=complex)
    k[:k1, k1:] = b
    k[k1:, :k1] = -b.conj().T
    return k


def _over(values, s):
    """values / s, and 1 where s = 0: the limit there of sin s / s and arcsin s / s."""
    return np.divide(values, s, out=np.ones_like(s), where=s > 0.0)


def exp_generator(b):
    """Closed-form exponential of the off-diagonal generator of B.

    With B = U diag(s) V*, the blocks are I - 2 U diag(sin^2(s/2)) U* and
    I - 2 V diag(sin^2(s/2)) V* on the diagonal and X = U diag(sin s) V* off
    it, laid out as :func:`~flagparam.charts.ball_unitary` lays out its
    blocks.  One eigh of the smaller Gram matrix gives Q, the singular
    vectors on its side; the other side enters as E = P diag(sin(s/2) / s)
    with P = B Q (or B* Q for a wide B), which equals U diag(sin(s/2)) (or
    V diag(sin(s/2))) without dividing by s, and X is 2 E diag(cos(s/2)) Q*
    (or its mirror).  The blocks are written straight into the result.
    Agrees with the series exponential of ``generator_matrix(b)``.
    """
    b = as_matrix(b)
    r, k = b.shape
    s, q = gram_eigh(b)
    half = s / 2
    sin_half = np.sin(half)
    tall = k <= r
    e = (b @ q if tall else b.conj().T @ q) * (0.5 * _over(sin_half, half))
    a = q * sin_half
    w = np.empty((r + k, r + k), dtype=complex)
    top, off, low, bottom = w[:r, :r], w[:r, r:], w[r:, :r], w[r:, r:]
    np.matmul(a * -2.0, a.conj().T, out=bottom if tall else top)
    np.matmul(e * -2.0, e.conj().T, out=top if tall else bottom)
    cos2 = 2.0 * np.cos(half)
    if tall:
        np.matmul(e * cos2, q.conj().T, out=off)
    else:
        np.matmul(q * cos2, e.conj().T, out=off)
    np.conjugate(off.T, out=low)
    np.negative(low, out=low)
    w.flat[:: r + k + 1] += 1.0
    return w


def generator_to_ball(b):
    """Ball coordinate X = U diag(sin s) V* of the exponential of B = U diag(s) V*.

    X = B sinc((B*B)^1/2), or sinc((BB*)^1/2) B for a wide B, from one eigh
    of the Gram matrix, with sinc s = sin s / s.  ``exp_generator(b)``
    equals ``ball_unitary(X)`` exactly when every singular value of B is at
    most pi/2; beyond that the cos block turns negative while the ball
    unitary keeps PSD diagonal blocks, and a :class:`PrincipalRangeWarning`
    is emitted.
    """
    b = as_matrix(b)
    s, q = gram_eigh(b)
    if s.size and s[-1] > math.pi / 2 + 1e-12:
        warnings.warn(
            "generator has a singular value above pi/2; the exponential no longer "
            "matches the ball unitary of the returned coordinate",
            PrincipalRangeWarning,
            stacklevel=2,
        )
    return gram_function(b, q, _over(np.sin(s), s))


def ball_to_generator(x):
    """Generator B whose exponential has ball coordinate X.

    With X = U diag(s) V*, B = U diag(arcsin s) V*, formed as
    X (arcsin s / s)(X*X) from one eigh of the Gram matrix.  Inverse of
    :func:`generator_to_ball` on the principal range: all singular values
    of the result lie in [0, pi/2).
    """
    x = as_matrix(x)
    s, q = gram_eigh(x)
    if s.size and s[-1] >= 1.0:
        raise NotPSDError(f"spectral norm {s[-1]:.6f} >= 1: outside the open ball")
    return gram_function(x, q, _over(np.arcsin(s), s))


def sqrt_complement(x):
    """(I - X X*)^(1/2) as a rank-min(k1, k2) update of the identity.

    Uses the rank-structured identity I + XV diag(-1 / (1 + c)) (XV)* from
    the factors of :func:`~flagparam.linalg.ball_factors`, with V the right
    singular vectors of X and c the cosines (1 - s^2)^1/2: since
    (sqrt(1 - t) - 1) / t = -1 / (1 + sqrt(1 - t)), the middle factor has no
    cancellation and needs no series near zero.  This is the top block of
    ``ball_unitary(x)``.  Raises :class:`NotPSDError` when X*X has an
    eigenvalue above 1.
    """
    xv, _, c = ball_factors(as_matrix(x))
    return identity_plus(xv, -1.0 / (1.0 + c))
