"""Closed-form exponential of off-diagonal skew-Hermitian generators.

exp of [[0, B], [-B*, 0]] has the block form of the ball-coordinate unitary;
the blocks are entire functions of the small Gram matrix B*B and are
evaluated through its eigendecomposition, never through the power series.
Functions with removable singularities at zero switch to a short Taylor
expansion below t = 1e-8.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import NotPSDError, PrincipalRangeWarning
from .linalg import PSD_TOL, as_matrix, ball_factors, identity_plus, spectral_norm

_TAYLOR_CUT = 1e-8


def _psd_eigh(m, psd_tol=PSD_TOL, cap_one=False):
    """Eigenvalues (clipped to [0, inf) or [0, 1]) and eigenvectors of a Hermitian PSD matrix."""
    h = (m + m.conj().T) / 2
    w, v = np.linalg.eigh(h)
    if w.size and w[0] < -psd_tol:
        raise NotPSDError(f"eigenvalue {w[0]:.6e} below -psd_tol={psd_tol:.1e}")
    return np.clip(w, 0.0, 1.0 if cap_one else None), v


def _eval_psd(func, m, psd_tol=PSD_TOL, cap_one=False):
    """func applied to the eigenvalues of a Hermitian PSD matrix."""
    w, v = _psd_eigh(m, psd_tol, cap_one)
    return (v * func(w)) @ v.conj().T


def _sinc_sqrt(t):
    """sin(sqrt(t)) / sqrt(t), entire in t."""
    out = np.empty_like(t)
    small = t < _TAYLOR_CUT
    ts = t[small]
    out[small] = 1.0 - ts / 6.0 + ts**2 / 120.0 - ts**3 / 5040.0
    r = np.sqrt(t[~small])
    out[~small] = np.sin(r) / r
    return out


def _cos_sqrt_m1_over(t):
    """(cos(sqrt(t)) - 1) / t, entire in t."""
    out = np.empty_like(t)
    small = t < _TAYLOR_CUT
    ts = t[small]
    out[small] = -0.5 + ts / 24.0 - ts**2 / 720.0 + ts**3 / 40320.0
    tb = t[~small]
    out[~small] = (np.cos(np.sqrt(tb)) - 1.0) / tb
    return out


def _asin_sqrt_over(t):
    """arcsin(sqrt(t)) / sqrt(t), analytic for t < 1."""
    out = np.empty_like(t)
    small = t < _TAYLOR_CUT
    ts = t[small]
    out[small] = 1.0 + ts / 6.0 + 3.0 * ts**2 / 40.0 + 15.0 * ts**3 / 336.0
    r = np.sqrt(t[~small])
    out[~small] = np.arcsin(r) / r
    return out


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

    Blocks: cos of the square roots of BB* and B*B on the diagonal,
    B times the matrix sinc of B*B off it.  The large diagonal block is
    evaluated through the small Gram matrix, so only one k2 x k2
    eigenproblem is solved; the three block functions are applied to its
    eigenvalues.  Agrees with the series exponential of
    ``generator_matrix(b)``.
    """
    b = as_matrix(b)
    k1, k2 = b.shape
    w, v = _psd_eigh(b.conj().T @ b)
    vh = v.conj().T
    x = b @ ((v * _sinc_sqrt(w)) @ vh)
    c2 = (v * np.cos(np.sqrt(w))) @ vh
    c1 = np.eye(k1) + b @ ((v * _cos_sqrt_m1_over(w)) @ vh) @ b.conj().T
    u = np.empty((k1 + k2, k1 + k2), dtype=complex)
    u[:k1, :k1] = c1
    u[:k1, k1:] = x
    u[k1:, :k1] = -x.conj().T
    u[k1:, k1:] = c2
    return u


def generator_to_ball(b):
    """Ball coordinate X = B sinc(sqrt(B*B)) of the exponential of B.

    ``exp_generator(b)`` equals ``ball_unitary(X)`` exactly when every
    singular value of B is at most pi/2; beyond that the cos block turns
    negative while the ball unitary keeps PSD diagonal blocks, and a
    :class:`PrincipalRangeWarning` is emitted.
    """
    b = as_matrix(b)
    if spectral_norm(b) > math.pi / 2 + 1e-12:
        warnings.warn(
            "generator has a singular value above pi/2; the exponential no longer "
            "matches the ball unitary of the returned coordinate",
            PrincipalRangeWarning,
            stacklevel=2,
        )
    return b @ _eval_psd(_sinc_sqrt, b.conj().T @ b)


def ball_to_generator(x):
    """Generator B = X asin-over(X*X) whose exponential has ball coordinate X.

    Inverse of :func:`generator_to_ball` on the principal range: all singular
    values of the result lie in [0, pi/2).
    """
    x = as_matrix(x)
    top = spectral_norm(x)
    if top >= 1.0:
        raise NotPSDError(f"spectral norm {top:.6f} >= 1: outside the open ball")
    return x @ _eval_psd(_asin_sqrt_over, x.conj().T @ x, cap_one=True)


def sqrt_complement(x, psd_tol=PSD_TOL):
    """(I - X X*)^(1/2) as a rank-min(k1, k2) update of the identity.

    Uses the rank-structured identity I + XV diag(-1 / (1 + c)) (XV)* from
    one thin SVD of X, with V its right singular vectors and c the cosines
    (1 - s^2)^1/2 (see :func:`~flagparam.linalg.ball_factors`): since
    (sqrt(1 - t) - 1) / t = -1 / (1 + sqrt(1 - t)), the middle factor has no
    cancellation and needs no series near zero.  This is the top block of
    ``ball_unitary(x)``.  Raises :class:`NotPSDError` when X*X has an
    eigenvalue above 1.
    """
    xv, _, c = ball_factors(as_matrix(x), psd_tol)
    return identity_plus(xv, -1.0 / (1.0 + c))
