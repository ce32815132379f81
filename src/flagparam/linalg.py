"""Dense complex linear-algebra primitives used by every other module.

Everything here works on plain ``numpy`` arrays (``complex128``) and is a
pure function of its inputs: no global state, safe for concurrent use.
The module-level constants are the package's tolerances; only the reference
``hermitian_sqrt`` takes its own as keyword arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPSDError, SingularInputError, ValidationError

# Default tolerances.
EPS_UNITARY = 1e-10    # allowed ||U*U - I||_F for a matrix treated as unitary
EPS_HERMITIAN = 1e-12  # allowed ||A - A*||_F for a matrix treated as Hermitian
PSD_TOL = 1e-10        # eigenvalues above -PSD_TOL count as nonnegative
PROJECTOR_TOL = 1e-8   # allowed Hermiticity, idempotency and trace defects of a projector
# Smallest singular value that still counts as nonsingular.  Every frame with
# n <= 256 has a chart above it (max-volume bound, see charts.select_chart).
RANK_TOL = 1e-4


def as_matrix(a):
    """Coerce input to a finite 2-D complex array; 1-D becomes a column."""
    m = np.asarray(a, dtype=complex)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}", code="BAD_SHAPE")
    if m.size and not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite", code="NOT_FINITE")
    return m


def as_square(a):
    """Coerce input to a finite square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}", code="BAD_SHAPE")
    if m.size and not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite", code="NOT_FINITE")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def unitarity_defect(g) -> float:
    """||g*g - I||_F."""
    g = np.asarray(g, dtype=complex)
    return frobenius(g.conj().T @ g - np.eye(g.shape[1]))


def hermiticity_defect(a) -> float:
    """||a - a*||_F."""
    a = np.asarray(a, dtype=complex)
    return frobenius(a - a.conj().T)


def require_tol(value, name):
    """value as a float; raises ``BAD_TOL`` unless it is finite and nonnegative."""
    tol = float(value)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {tol!r}", code="BAD_TOL")
    return tol


def require_unitary(g):
    g = as_square(g)
    defect = unitarity_defect(g)
    if defect > EPS_UNITARY:
        raise ValidationError(
            f"matrix is not unitary: defect {defect:.3e} > {EPS_UNITARY:.3e}", code="NOT_UNITARY"
        )
    return g


def hermitian_part(a, tol=EPS_HERMITIAN, code="NOT_HERMITIAN"):
    """(a + a*) / 2 of a square matrix, after checking ||a - a*||_F <= tol; a* is formed once."""
    a = as_square(a)
    ah = a.conj().T
    defect = frobenius(a - ah)
    if defect > tol:
        raise ValidationError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.3e}", code=code)
    return (a + ah) / 2


def hermitian_sqrt(a, psd_tol=PSD_TOL, herm_tol=EPS_HERMITIAN):
    """PSD square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in ``[-psd_tol, 0)`` are clamped to zero so that inputs
    grazing the PSD boundary (e.g. I - X*X at the edge of the ball) still
    have a square root.  Raises :class:`NotPSDError` for anything below
    ``-psd_tol``.
    """
    w, v = np.linalg.eigh(hermitian_part(a, herm_tol))
    if w.size and w[0] < -psd_tol:
        raise NotPSDError(f"eigenvalue {w[0]:.6e} below -psd_tol={psd_tol:.1e}")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (s + s.conj().T) / 2


def ball_factors(x):
    """Factored square roots of a closed-ball coordinate X (r x k, X*X <= I).

    From the thin SVD X = U S V*, returns (XV, V, c) with V the k x p right
    singular vectors (p = min(r, k)) and c = ((1 - S)(1 + S))^1/2 the
    cosines, so that X = XV V* and

        (I - X X*)^1/2 = I + XV diag(-1 / (1 + c)) (XV)*,
        (I - X* X)^1/2 = I + V diag(c - 1) V*.

    Both are rank-p corrections of the identity; neither c nor -1/(1 + c)
    cancels anywhere in the closed ball.  Raises :class:`NotPSDError` when
    X*X has an eigenvalue above 1 + ``PSD_TOL``; singular values up to that
    bound count as 1.
    """
    top, factors = _thin_svd_factors(x)
    if top**2 > 1.0 + PSD_TOL:
        raise NotPSDError(f"X*X has eigenvalue {top**2:.6e} above 1")
    return factors


def open_ball_factors(x):
    """The factors of :func:`ball_factors` for an open-ball coordinate, from the same SVD.

    Raises :class:`ValidationError` (code ``BALL_NORM``) when ||X|| >= 1.
    """
    top, factors = _thin_svd_factors(x)
    if top >= 1.0:
        raise ValidationError(
            f"ball coordinate has spectral norm {top:.6f} >= 1", code="BALL_NORM"
        )
    return factors


def _thin_svd_factors(x):
    """(||X||, (XV, V, c)) from one thin SVD, with singular values capped at 1."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    top = float(s[0]) if s.size else 0.0
    s = np.minimum(s, 1.0)
    return top, (u * s, vh.conj().T, np.sqrt((1.0 - s) * (1.0 + s)))


def identity_plus(w, d):
    """I + W diag(d) W*, Hermitian-symmetrized in place."""
    m = (w * d) @ w.conj().T
    m += m.conj().T
    m *= 0.5
    m.flat[:: w.shape[0] + 1] += 1.0
    return m


def block_rotation(top, x, bottom):
    """The (r + k) square matrix [[top, X], [-X*, bottom]] for an r x k block X.

    The layout shared by the ball unitary W(X) and the exponential of an
    off-diagonal generator, whose diagonal blocks are both rank-min(r, k)
    corrections of the identity (see :func:`identity_plus`).
    """
    r, k = x.shape
    w = np.empty((r + k, r + k), dtype=complex)
    w[:r, :r] = top
    w[:r, r:] = x
    w[r:, :r] = -x.conj().T
    w[r:, r:] = bottom
    return w


def polar_unitary(y):
    """Polar factors of the adjoint: Y* = U P with U unitary, P = |Y*| PSD.

    Computed from the SVD of Y*; U is unique when Y is nonsingular.
    Equivalently Y = P U*, the normalization used by the chart maps.
    Raises :class:`SingularInputError` when the smallest singular value of Y
    is at or below ``RANK_TOL``.
    """
    y = as_square(y)
    v, s, wh = np.linalg.svd(y.conj().T)
    if s.size and s[-1] <= RANK_TOL:
        raise SingularInputError(f"smallest singular value {s[-1]:.3e} <= RANK_TOL={RANK_TOL:.1e}")
    u = v @ wh
    p = (wh.conj().T * s) @ wh
    return u, (p + p.conj().T) / 2


def lower_triangularize(y):
    """Unique U in U(k) with T = Y U lower triangular and positive diagonal.

    Householder LQ: the QR factorization Y* = Q R gives Y Q = R*, lower
    triangular, and absorbing the phases of R's diagonal into Q makes the
    diagonal positive.  |r_jj| is the distance of row j of Y from the span
    of the rows before it; raises :class:`SingularInputError` when it is at
    or below ``RANK_TOL``.
    """
    y = as_square(y)
    q, r = np.linalg.qr(y.conj().T)
    d = np.diagonal(r)
    low = np.flatnonzero(np.abs(d) <= RANK_TOL)
    if low.size:
        j = int(low[0])
        raise SingularInputError(f"row {j} is dependent: residual norm {abs(d[j]):.3e} <= RANK_TOL")
    u = q * (d / np.abs(d))
    return u, y @ u


def expm_reference(a):
    """Reference matrix exponential (scipy's scaling-and-squaring Pade).

    Used as the series-exponential oracle against which the closed-form
    block exponential is checked.  scipy is imported here, not at module
    level, so importing the package does not pay for it.
    """
    import scipy.linalg

    a = as_square(a)
    return scipy.linalg.expm(a)


def haar_unitary(n, seed=None):
    """Haar-distributed random unitary, deterministic under a fixed seed.

    QR of a complex Ginibre matrix with the phases of R's diagonal absorbed
    into Q, which makes the distribution exactly Haar.  ``seed`` may be an
    int or a ``numpy.random.Generator``.
    """
    n = int(n)
    if n < 1:
        raise ValidationError("n must be >= 1", code="BAD_DIMENSION")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def block_diag(*blocks):
    """Block-diagonal matrix with complex dtype (1-D blocks are single rows)."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=complex)
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out
