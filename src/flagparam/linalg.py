"""Dense complex linear-algebra primitives used by every other module.

Everything here works on plain ``numpy`` arrays (``complex128``) and is a
pure function of its inputs: no global state, safe for concurrent use.
The module-level constants are the package's tolerances; only
``hermitian_part`` and ``_unitary_within``, the one unitarity check of
``require_unitary`` and the CLI's ``decompose-unitary``, take their bounds
as arguments, as their callers check at different tolerances.

Matrix functions of a rectangular X (the square roots of a ball
coordinate, the blocks of a generator's exponential) are scalar functions
of the eigenvalues of its p x p Gram matrix, p = min(r, k), from one
``eigh`` (see :func:`gram_eighs`); only the factors of a wide ball
coordinate take a thin SVD.

A finite check and a Frobenius norm take one BLAS dot each, the sum of
|a_ij|^2 (see :func:`_sum_squares`); numpy's exact test runs only when that
dot is not finite.
"""

from __future__ import annotations

import math

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


def read_as(convert, value, code, what):
    """convert(value); a value that ``int``, ``float`` or ``np.asarray`` cannot read raises ``code``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what}: {exc}", code=code) from None


def _complex_array(a):
    """np.asarray(a, dtype=complex); what it cannot read raises ``BAD_SHAPE``."""
    return read_as(lambda v: np.asarray(v, dtype=complex), a, "BAD_SHAPE", "expected a complex matrix")


def as_matrix(a):
    """Coerce input to a finite 2-D complex array; 1-D becomes a column."""
    m = _complex_array(a)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={m.ndim}", code="BAD_SHAPE")
    return _finite(m)


def as_square(a):
    """Coerce input to a finite square complex matrix."""
    m = _complex_array(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}", code="BAD_SHAPE")
    return _finite(m)


def _sum_squares(a):
    """The sum of |a_ij|^2 from one BLAS dot: no temporary, no warning.

    It is finite only when every entry is; an entry above about 1e154 makes
    it inf or nan (``np.vdot`` turns 1e200 + 1e200j into nan + nanj).  An
    array that is not float or complex (integer, bool) is cast to float
    first, so that nothing wraps.
    """
    a = np.asarray(a)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    return np.vdot(a, a).real


def _finite(m):
    """m, after checking that its entries are finite; the exact test runs only when the dot is not finite."""
    if not math.isfinite(_sum_squares(m)) and not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite", code="NOT_FINITE")
    return m


def frobenius(a) -> float:
    """||a||_F, the square root of one BLAS dot (see :func:`_sum_squares`).

    When the dot is not finite, numpy's norm decides (see
    :func:`_numpy_norm`): inf for finite entries whose squares overflow,
    which every caller compares with a tolerance, and nan for a nan entry.
    """
    s = _sum_squares(a)
    if math.isfinite(s):
        return math.sqrt(s)
    return _numpy_norm(a)


def _numpy_norm(a) -> float:
    """numpy's Frobenius norm: inf, without an overflow warning, when the sum of squares overflows."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(a))


def unitarity_defect(g) -> float:
    """||g*g - I||_F."""
    g = np.asarray(g, dtype=complex)
    return frobenius(g.conj().T @ g - np.eye(g.shape[1]))


def exact_ints(values):
    """The entries of ``values`` as a tuple of ints, none of them truncated.

    Ints, numpy ints, integral floats and digit strings pass; ``int`` raises
    ``TypeError``, ``ValueError`` or ``OverflowError`` on what it cannot
    read, and a non-integral number such as 1.5 raises ``ValueError``.
    """
    values = tuple(values)
    ints = tuple(map(int, values))
    if ints != values:
        for v, i in zip(values, ints):
            if i != v and not isinstance(v, str):
                raise ValueError(f"{v!r} is not an integer")
    return ints


def read_int(value, code, what):
    """value as an int, read by :func:`exact_ints`: one it cannot read, or would truncate, raises ``code``."""
    return read_as(lambda v: exact_ints((v,))[0], value, code, what)


def require_tol(value, name):
    """value as a float; raises ``BAD_TOL`` unless it is a finite, nonnegative number."""
    tol = read_as(float, value, "BAD_TOL", f"{name} must be a number")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"{name} must be finite and >= 0, got {tol!r}", code="BAD_TOL")
    return tol


def _unitary_within(g, tol):
    """The unitarity defect of a square matrix g; one above ``tol`` raises ``NOT_UNITARY``."""
    defect = unitarity_defect(g)
    if defect > tol:
        raise ValidationError(
            f"matrix is not unitary: defect {defect:.3e} > {tol:.3e}", code="NOT_UNITARY"
        )
    return defect


def require_unitary(g):
    g = as_square(g)
    _unitary_within(g, EPS_UNITARY)
    return g


def adjoint(a):
    """a* as a new C-ordered array: one copy of the transpose, then a conjugation in place.

    An expression such as ``a + a.conj().T`` walks its transposed operand
    column by column; this reads the transpose once and hands the sum two
    row-ordered operands.
    """
    ah = a.T.copy()
    np.conjugate(ah, out=ah)
    return ah


def hermitian_mean(a):
    """(a + a*) / 2 of a square matrix, as a new array (see :func:`adjoint`)."""
    h = adjoint(a)
    h += a
    h *= 0.5
    return h


def hermitian_part(a, tol=EPS_HERMITIAN, code="NOT_HERMITIAN"):
    """(a + a*) / 2 of a square matrix, after checking ||a - a*||_F <= tol; a* is formed once."""
    a = as_square(a)
    h = adjoint(a)
    defect = frobenius(a - h)
    if defect > tol:
        raise ValidationError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.3e}", code=code)
    h += a
    h *= 0.5
    return h


def hermitian_sqrt(a):
    """PSD square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in ``[-PSD_TOL, 0)`` are clamped to zero so that inputs
    grazing the PSD boundary (e.g. I - X*X at the edge of the ball) still
    have a square root.  Raises :class:`NotPSDError` for anything below
    ``-PSD_TOL``.
    """
    w, v = np.linalg.eigh(hermitian_part(a))
    if w.size and w[0] < -PSD_TOL:
        raise NotPSDError(f"eigenvalue {w[0]:.6e} below -PSD_TOL={PSD_TOL:.1e}")
    return hermitian_mean((v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T)


def ball_factors(x):
    """Factored square roots of a closed-ball coordinate X (r x k, X*X <= I).

    With X*X = V S^2 V* (for k <= r, from one eigh of the k x k Gram matrix,
    see :func:`gram_eighs`) or the thin SVD X = U S V* (for a wide X, whose
    k x r V would otherwise come from X*U S^-1), returns (XV, V, c) with V
    the k x p right singular vectors (p = min(r, k)) and
    c = ((1 - S)(1 + S))^1/2 the cosines, so that X = XV V* and

        (I - X X*)^1/2 = I + XV diag(-1 / (1 + c)) (XV)*,
        (I - X* X)^1/2 = I + V diag(c - 1) V*.

    Both are rank-p corrections of the identity; neither c nor -1/(1 + c)
    cancels anywhere in the closed ball, and both are smooth functions of
    the Gram eigenvalues S^2, so loose eigenvectors within a cluster of
    tiny singular values never reach a result.  For a 1 x 1 X the singular
    value is |x| exactly (the square root of a rounded square is exact), so
    c keeps its relative accuracy up to the boundary.  Raises
    :class:`NotPSDError` when X*X has an eigenvalue above 1 + ``PSD_TOL``;
    singular values up to that bound count as 1.
    """
    top, factors = _thin_factors(x)
    if not top * top <= 1.0 + PSD_TOL:
        raise NotPSDError(f"X*X has eigenvalue {top * top:.6e} above 1")
    return factors


def open_ball_factors(x, eig=None):
    """The factors of :func:`ball_factors` for an open-ball coordinate, from the same decomposition.

    ``eig``, the (S, V) of a tall X from :func:`gram_eighs`, may come
    already computed.  Raises :class:`ValidationError` (code ``BALL_NORM``)
    when ||X|| >= 1.
    """
    top, factors = _thin_factors(x, eig)
    if not top < 1.0:
        raise ValidationError(
            f"ball coordinate has spectral norm {top:.6f} >= 1", code="BALL_NORM"
        )
    return factors


def _thin_factors(x, eig=None):
    """(||X||, (XV, V, c)) with singular values capped at 1: from the Gram eigh, or a thin SVD when X is wide."""
    r, k = x.shape
    if k > r:
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        top = float(s[0]) if s.size else 0.0
        s = np.minimum(s, 1.0)
        return top, (u * s, vh.conj().T, np.sqrt((1.0 - s) * (1.0 + s)))
    s, v = gram_eigh(x) if eig is None else eig
    top = float(s[-1]) if s.size else 0.0
    s = np.minimum(s, 1.0)
    return top, (x @ v, v, np.sqrt((1.0 - s) * (1.0 + s)))


def gram(x):
    """The smaller Gram matrix of an r x k matrix: X*X when k <= r, XX* when X is wide."""
    xh = x.conj().T
    return xh @ x if x.shape[1] <= x.shape[0] else x @ xh


def gram_eighs(xs):
    """Singular values, ascending, and Gram eigenvectors of matrices whose Gram matrices share a size.

    One batched ``eigh`` of the stacked p x p matrices :func:`gram`:
    returns S (m x p) and Q (m x p x p) with X*X = Q diag(S^2) Q* for a
    tall or square X and XX* = Q diag(S^2) Q* for a wide one.  numpy runs
    each stacked matrix through the same LAPACK call as a single one, so a
    batch agrees bit for bit with its members taken alone.  A Gram matrix
    that overflows (||X|| above about 1e154) is formed, for the whole
    batch, from each X divided by a power of two, and the singular values
    are scaled back; raises
    :class:`ValidationError` (code ``NOT_FINITE``) when the spectral norm
    itself overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.stack([gram(x) for x in xs])
    if np.isfinite(g).all():
        w, q = np.linalg.eigh(g)
        return np.sqrt(np.maximum(w, 0.0)), q
    # ||X|| above about 1e154: factor X / m with m a power of two near its largest part
    top = [max(np.abs(x.real).max(), np.abs(x.imag).max()) for x in xs]
    m = np.array([2.0 ** (math.frexp(float(t))[1] - 1) for t in top])
    w, q = np.linalg.eigh(np.stack([gram(x / mi) for x, mi in zip(xs, m)]))
    with np.errstate(over="ignore"):
        s = np.sqrt(np.maximum(w, 0.0)) * m[:, None]
    if not np.isfinite(s).all():
        raise ValidationError("the spectral norm of a matrix overflows", code="NOT_FINITE")
    return s, q


def gram_eigh(x):
    """(S, Q) of :func:`gram_eighs` for one matrix.

    The one Gram matrix goes to ``eigh`` as it is, without a stack; only a
    Gram matrix that overflows takes :func:`gram_eighs`'s rescaled path.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = gram(x)
    if not np.isfinite(g).all():
        (s,), (q,) = gram_eighs((x,))
        return s, q
    w, q = np.linalg.eigh(g)
    return np.sqrt(np.maximum(w, 0.0)), q


def gram_function(x, q, d):
    """X Q diag(d) Q* for a tall or square X, Q diag(d) Q* X for a wide one, with Q from :func:`gram_eigh`.

    A function f(S) = S g(S^2) of the singular values, such as sin S, is
    X g(X*X) or g(XX*) X; ``d`` holds g(S^2).
    """
    f = (q * d) @ q.conj().T
    return x @ f if x.shape[1] <= x.shape[0] else f @ x


def identity_plus(w, d):
    """I + W diag(d) W*, Hermitian-symmetrized (see :func:`hermitian_mean`)."""
    m = hermitian_mean((w * d) @ w.conj().T)
    m.flat[:: w.shape[0] + 1] += 1.0
    return m


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
    return u, hermitian_mean((wh.conj().T * s) @ wh)


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
    """Reference matrix exponential by scaling and squaring a Taylor series.

    The oracle against which the closed-form block exponential is checked,
    so it shares nothing with that Gram route: A is scaled by 2^-s, s the
    smallest integer with ||A / 2^s||_1 <= 1/4, the Taylor series of degree
    18 is summed by Horner's rule (its truncation error is below 1e-28 at
    that norm), and the sum is squared s times (Moler & Van Loan 2003,
    "Nineteen dubious ways to compute the exponential of a matrix,
    twenty-five years later", method 3; Higham 2008, ch. 10).  Raises
    :class:`ValidationError` (code ``NOT_FINITE``) when the 1-norm of A
    overflows.
    """
    a = as_square(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a, 1))
    if not math.isfinite(norm):
        raise ValidationError("the 1-norm of a matrix overflows", code="NOT_FINITE")
    s = max(0, math.ceil(math.log2(norm)) + 2) if norm > 0.25 else 0
    a = a * 2.0**-s
    eye = np.eye(a.shape[0], dtype=complex)
    e = eye
    for j in range(18, 0, -1):
        e = eye + (a @ e) / j
    for _ in range(s):
        e = e @ e
    return e


def haar_unitary(n, seed=None):
    """Haar-distributed random unitary, deterministic under a fixed seed.

    QR of a complex Ginibre matrix with the phases of R's diagonal absorbed
    into Q, which makes the distribution exactly Haar.  ``seed`` may be an
    int or a ``numpy.random.Generator``.
    """
    n = read_int(n, "BAD_DIMENSION", "n must be an integer")
    if n < 1:
        raise ValidationError("n must be >= 1", code="BAD_DIMENSION")
    rng = read_as(np.random.default_rng, seed, "BAD_SEED", "seed must be an integer >= 0 or a Generator")
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
