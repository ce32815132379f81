"""Ball charts on the Grassmannian of complex k-planes in C^n.

A subspace is represented by its rank-k orthogonal projector, which is
gauge-free: it does not depend on the frame chosen to span the subspace.
Charts are indexed by permutations with two increasing runs; a chart sends
a subspace to a matrix X with X*X < I (an open matrix ball), and back via
the block unitary built from X.  Local sections into U(n) and a globally
defined section (first valid chart in a fixed priority order) are provided.

Projectors are the API boundary.  Internally the chart maps work on an
orthonormal frame (any n x k matrix with orthonormal columns spanning the
subspace): the chart and the ball coordinate depend on the frame only
through its span, and the projector versions are thin wrappers that recover
a frame first.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import NoChartError, OutOfChartError, ValidationError
from .linalg import (
    PROJECTOR_TOL,
    RANK_TOL,
    as_matrix,
    as_square,
    ball_factors,
    exact_ints,
    frobenius,
    gram_eigh,
    gram_function,
    hermitian_mean,
    hermitian_part,
    identity_plus,
    open_ball_factors,
    read_as,
    read_int,
)


def identity_chart(n):
    """The chart (1, 2, ..., n)."""
    return tuple(range(1, n + 1))


def _is_identity(sigma, r):
    """Whether a valid chart with r top rows is the identity.

    The bottom run is n - r increasing values, none above n; when the first
    is r + 1 the run can only be r+1..n, which leaves 1..r to the top run.
    """
    return sigma[r] == r + 1


def _int_entries(sigma):
    """The entries of sigma as an int array, read by :func:`~flagparam.linalg.exact_ints` unless already ints."""
    s = np.array(sigma).ravel()
    return s if s.dtype.kind in "iu" else np.array(exact_ints(s.tolist()), dtype=np.int64)


def _permutation(sigma):
    """The entries of sigma as an int array; raises ``BAD_CHART`` unless they are integers permuting 1..len."""
    s = read_as(_int_entries, sigma, "BAD_CHART", "chart entries must be integers")
    if not (np.sort(s) == np.arange(1, s.size + 1)).all():
        raise ValidationError(f"{tuple(s.tolist())} is not a permutation of 1..{s.size}", code="BAD_CHART")
    return s


def validate_chart(sigma, k, n=None):
    """Check that sigma is a valid chart permutation for G(k, C^n).

    ``sigma`` is the 1-based image tuple (sigma(1), ..., sigma(n)); its first
    n-k entries and its last k entries must each be strictly increasing.
    Entries that are not integers are read as by
    :func:`~flagparam.linalg.exact_ints`, so 1.7 raises rather than being
    truncated; so is k.
    """
    s = _permutation(sigma)
    sigma, m = tuple(s.tolist()), s.size
    if n is not None and m != n:
        raise ValidationError(f"chart length {m} != n={n}", code="BAD_CHART")
    k = read_int(k, "BAD_CHART", "block size k must be an integer")
    if not 1 <= k <= m:
        raise ValidationError(f"invalid block size k={k} for n={m}", code="BAD_CHART")
    rises = s[1:] > s[:-1]
    rises[m - k - 1 : m - k] = True  # the one place the runs may meet
    if not rises.all():
        raise ValidationError(
            f"chart {sigma} must have two increasing runs of lengths {m - k} and {k}",
            code="BAD_CHART",
        )
    return sigma


def chart_permutations(n, k):
    """All C(n, k) chart permutations for G(k, C^n), in priority order.

    The priority order is ascending lexicographic order of the image tuple,
    which is descending lexicographic order of the designated (bottom) rows
    listed in increasing order: the identity chart comes first.  Enumerating the top rows in
    lexicographic order produces it directly.
    """
    n = read_int(n, "BAD_DIMENSION", "n must be an integer")
    k = read_int(k, "BAD_DIMENSION", "k must be an integer")
    if not 1 <= k <= n:
        raise ValidationError(f"invalid k={k} for n={n}", code="BAD_DIMENSION")
    perms = []
    for top in itertools.combinations(range(1, n + 1), n - k):
        rest = set(top)
        perms.append(top + tuple(i for i in range(1, n + 1) if i not in rest))
    return perms


def _scatter_rows(m, sigma):
    """permutation_unitary(sigma) @ m, without forming the permutation matrix."""
    out = np.empty_like(m)
    out[np.array(sigma) - 1] = m
    return out


def _gather_rows(m, sigma, r):
    """permutation_unitary(sigma).T @ m: the rows of m in chart order, for a valid chart.

    Returns ``m`` itself, not a copy, on the identity chart (r top rows).
    """
    if _is_identity(sigma, r):
        return m
    return m[np.array(sigma) - 1]


def permutation_unitary(sigma):
    """Permutation matrix sending basis vector e_j to e_{sigma(j)}; entries are read as by :func:`validate_chart`."""
    s = _permutation(sigma)
    return _scatter_rows(np.eye(s.size, dtype=complex), s)


def ball_unitary(x):
    """Block unitary [[(I-XX*)^1/2, X], [-X*, (I-X*X)^1/2]] from a ball coordinate.

    Unitary for every X in the closed ball X*X <= I.  W(X) is the identity
    plus a rank-min(r, k) correction: both square roots come from the one
    (XV, V, c) factorization of :func:`~flagparam.linalg.ball_factors`, so
    they intertwine with X exactly and the result stays unitary to machine
    precision even on the ball boundary, where separate eigendecompositions
    would lose half the digits.  The library's own peel and rebuild apply
    the same factors without forming this matrix; it is the dense form for
    callers that need one.  A 1-D ``x`` is treated as a single column.
    """
    x = as_matrix(x)
    return _section_of_factors(x, *ball_factors(x))


def _section_of_factors(x, xv, v, c):
    """The dense W(X) of :func:`ball_unitary` from factors (X, XV, V, c) already at hand."""
    r, k = x.shape
    w = np.empty((r + k, r + k), dtype=complex)
    w[:r, :r] = identity_plus(xv, -1.0 / (1.0 + c))
    w[:r, r:] = x
    w[r:, :r] = -x.conj().T
    w[r:, r:] = identity_plus(v, c - 1.0)
    return w


def frame_of_unitary(g, k):
    """Last k columns of a unitary: an orthonormal frame of the image plane."""
    g = as_square(g)
    k = read_int(k, "BAD_DIMENSION", "k must be an integer")
    if not 1 <= k <= g.shape[0]:
        raise ValidationError(f"invalid k={k} for n={g.shape[0]}", code="BAD_DIMENSION")
    return g[:, g.shape[0] - k :].copy()


def projector_of_frame(f):
    """Orthogonal projector onto the span of an orthonormal frame.

    Invariant under f -> f @ q for unitary q, so the result depends only on
    the subspace.
    """
    f = as_matrix(f)
    return hermitian_mean(f @ f.conj().T)


def projector_of_unitary(g, k):
    """Projector onto the span of the last k columns of g."""
    return projector_of_frame(frame_of_unitary(g, k))


def frame_of_projector(p):
    """Orthonormal frame spanning the range of a rank-k orthogonal projector.

    Columns are the eigenvectors of the top (unit) eigenvalues in descending
    eigenvalue order; deterministic for a given input.
    """
    return _projector_frames(p)[0]


def _projector_frames(p):
    """(F, L): the frame of :func:`frame_of_projector` and the other n - k eigenvectors of the same eigh.

    L is an orthonormal basis of the complement of span F, so [L F] is
    unitary: the ``left`` that :func:`_chart_factors` needs when k > r.
    """
    h = hermitian_part(p, PROJECTOR_TOL, code="NOT_PROJECTOR")
    if frobenius(h @ h - h) > PROJECTOR_TOL:
        raise ValidationError("matrix is not idempotent", code="NOT_PROJECTOR")
    trace = float(np.trace(h).real)
    k = int(round(trace))
    n = h.shape[0]
    if abs(trace - k) > PROJECTOR_TOL or not 1 <= k <= n:
        raise ValidationError(f"projector trace {trace:.6f} is not integral", code="NOT_PROJECTOR")
    w, v = np.linalg.eigh(h)
    if w[n - k] < 0.5:
        raise ValidationError("projector spectrum is not {0, 1}", code="NOT_PROJECTOR")
    v = v[:, ::-1]
    return v[:, :k], v[:, k:]


def _complement(f):
    """Orthonormal basis of the complement of span f, from a complete QR; None unless 0 < r < k.

    Only :func:`_chart_factors` reads it, and only for k > r.
    """
    n, k = f.shape
    if not 0 < n - k < k:
        return None
    return np.linalg.qr(f, mode="complete")[0][:, k:]


def frame_chart_factors(f, sigma):
    """Ball coordinate X of the span of a frame in chart sigma, with its section factors.

    Gathers the rows of f by sigma (none on the identity chart).  The
    bottom k x k block B has the SVD B* = V' S W*, and its polar factor
    u = V' W* turns the frame so that the bottom block becomes
    W S W* = (I - X*X)^1/2; what remains on top is X = F_top u.  The singular values S are the cosines of the principal
    angles between the span and the chart's coordinate plane (Bjorck and
    Golub 1973), so (XV, V, c) = (F_top V', W, S) are the factors of
    :func:`~flagparam.linalg.ball_factors` without a second SVD.  A k = 1
    block is one entry b and takes no SVD: c = |b|, V = 1 and
    X = XV = F_top conj(b) / |b|.  Returns (X, XV, V, c).  Raises
    :class:`OutOfChartError` when B is singular at ``RANK_TOL``, i.e. the
    subspace lies outside this chart.  Accepting the chart is the ball
    check: ||X||^2 = 1 - c_min^2 < 1 - RANK_TOL^2.  When k > r the
    factors are the thin ones of :func:`_chart_factors`, r columns wide,
    with a basis of the complement of span f from a complete QR of f.
    """
    f = as_matrix(f)
    n, k = f.shape
    return _chart_factors(f, validate_chart(sigma, k, n), _complement(f))


# V of every k = 1 chart block, shared read-only: a fresh 1 x 1 array costs
# about 1 us, some 5 % of a peel level at n = 64
_UNIT = np.ones((1, 1), dtype=complex)
_UNIT.flags.writeable = False


def _chart_factors(f, sigma, left):
    """:func:`frame_chart_factors` for a chart already known to be valid.

    ``left``, the other r = n - k columns of a unitary ending in f, makes
    the factors p = min(r, k) columns wide when k > r, as X has rank <= r
    (when it is None, as for k = n, the full k x k SVD is taken):
    its rows L in chart order have B B* = I - L L*, so with Z from a QR of
    the bottom ones the SVD B* Z = W' S Q* gives the cosines below 1,
    V = Z Q and XV = F_top W', each to absolute accuracy at cosines near
    ``RANK_TOL`` (Z's rounding reaches only W', along the null space of
    F_top).
    """
    n, k = f.shape
    r = n - k
    f_perm = _gather_rows(f, sigma, r)
    top, b = f_perm[:r], f_perm[r:]
    if k == 1:
        # the block is one entry b: c = |b|, V = 1 and X = F_top conj(b) / |b|;
        # |b| comes from np.abs of the whole column, the array _line_chart
        # compares: np.abs of one entry can differ from it in the last bit
        c = np.abs(f[:, 0])[sigma[-1] - 1 : sigma[-1]]
        _require_in_chart(c, sigma)
        xv = top * (complex(b[0, 0]).conjugate() / float(c[0]))
        return xv, xv, _UNIT, c
    if left is None or k <= r:
        w, c, vh = np.linalg.svd(b.conj().T)
    else:
        z = np.linalg.qr(_gather_rows(left, sigma, r)[r:])[0]
        w, c, qh = np.linalg.svd(b.conj().T @ z, full_matrices=False)
        vh = qh @ z.conj().T
    _require_in_chart(c, sigma)
    xv = top @ w
    return xv @ vh, xv, vh.conj().T, c


def _require_in_chart(c, sigma):
    """Raise :class:`OutOfChartError` unless the smallest cosine c[-1] exceeds ``RANK_TOL``."""
    if c.size and c[-1] <= RANK_TOL:
        raise OutOfChartError(
            f"block for chart {sigma} is singular: smallest singular value "
            f"{c[-1]:.3e} <= RANK_TOL={RANK_TOL:.1e}"
        )


def chart_coordinates(p, sigma):
    """Ball coordinate of a subspace, given by its projector, in chart sigma."""
    return _projector_chart_factors(p, sigma)[0]


def _projector_chart_factors(p, sigma):
    """:func:`frame_chart_factors` of a projector's frame, with the complement from the same eigh."""
    f, left = _projector_frames(p)
    n, k = f.shape
    return _chart_factors(f, validate_chart(sigma, k, n), left)


def chart_point(x, sigma):
    """Subspace (projector) with ball coordinate X in chart sigma.

    Inverse of :func:`chart_coordinates` on its chart.  The frame is the
    last k columns of ``ball_unitary(x)`` with its rows scattered by sigma;
    its bottom block (I - X*X)^1/2 comes from the factors of
    :func:`~flagparam.linalg.ball_factors`.
    """
    x = as_matrix(x)
    r, k = x.shape
    sigma = validate_chart(sigma, k, r + k)
    _, v, c = ball_factors(x)
    f = _scatter_rows(np.vstack([x, identity_plus(v, c - 1.0)]), sigma)
    return projector_of_frame(f)


def select_frame_chart(f):
    """First chart, in priority order, containing the span of a frame.

    Returns ``(sigma, (X, XV, V, c))``, with the factors of
    :func:`frame_chart_factors` from the SVD that accepted the chart.  A
    chart contains the span when its k designated rows of f have smallest
    singular value above ``RANK_TOL``.  The priority order puts the
    lexicographically smallest top (non-designated) row set first, so a
    depth-first search over top sets, trying each row in the top before
    leaving it out, meets the first valid chart first.  A row may join the
    top only while the rows outside the top keep k-th singular value above
    ``RANK_TOL``: deleting rows from a matrix with at least k rows never
    raises its k-th singular value (Cauchy interlacing), so a top that
    fails this has no valid completion, and pruning it is exact.  At finite
    ``RANK_TOL`` the rows do not form a matroid, and a search that did not
    backtrack out of a dead end could miss the scan's chart or raise on a
    valid frame.

    Each state first tries its smallest completion, which is the identity
    chart at the start, so a frame in the identity chart costs one k x k
    SVD in all and no row gather.  Without dead ends the search is one pass
    over the rows.  The completions it builds are valid charts by
    construction and are not re-validated.  A line (k = 1) takes no
    search and no SVD (see :func:`_line_chart`).  A frame with k > r first
    takes a complete QR for a basis of its complement, so that each chart
    block costs a thin SVD (see :func:`_chart_factors`).
    """
    f = as_matrix(f)
    return _select_frame_chart(f, _complement(f))


_NO_CHART = f"no chart contains the given point at RANK_TOL={RANK_TOL:.1e}"


def _line_chart(f):
    """First valid chart of the line spanned by an n x 1 frame ``f``, with its factors.

    Chart d designates row d, and the priority order runs d = n, ..., 1, so
    the first valid chart designates the last row with |f_d| > ``RANK_TOL``:
    one vectorized comparison.  The factors are those of :func:`_chart_factors`.
    Raises :class:`NoChartError` when no row qualifies.
    """
    a = np.abs(f[:, 0])
    valid = (a > RANK_TOL).nonzero()[0]
    if not valid.size:
        raise NoChartError(_NO_CHART)
    d = int(valid[-1]) + 1
    sigma = tuple(range(1, d)) + tuple(range(d + 1, a.size + 1)) + (d,)
    return sigma, _chart_factors(f, sigma, None)


def _select_frame_chart(f, left):
    """:func:`select_frame_chart` for a frame coerced by ``as_matrix``; ``left`` as in :func:`_chart_factors`."""
    n, k = f.shape
    if k == 1:
        return _line_chart(f)

    def outside(top):
        in_top = set(top)
        return [j for j in range(n) if j not in in_top]

    def passes(top):
        return np.linalg.svd(f[outside(top), :], compute_uv=False)[k - 1] > RANK_TOL

    top, i, fresh = [], 0, True
    while True:
        need = n - k - len(top)
        # After a row joins the top the smallest completion is unchanged,
        # so it is tried only in a state reached by leaving a row out.
        if fresh:
            if top or i:
                chart = top + list(range(i, i + need))
                sigma = tuple(j + 1 for j in chart + outside(chart))
            else:
                # the first completion, built directly: 1.1 us against
                # 11.5 us for the general one at n = 64 (2-core Xeon), once
                # per level that is wider than a line
                sigma = identity_chart(n)
            try:
                return sigma, _chart_factors(f, sigma, left)
            except OutOfChartError:
                pass
        fresh = not (need > 1 and passes(top + [i]))
        if not fresh:
            top.append(i)
        i += 1
        # Backtrack when too few rows are left; with k == n the identity
        # is the only chart.
        while need == 0 or i + n - k - len(top) > n:
            if not top:
                raise NoChartError(_NO_CHART)
            i, fresh = top.pop() + 1, True


def select_chart(p):
    """First chart (in priority order) that contains the subspace of a projector.

    Together with :func:`local_section` this realizes a globally defined
    section.  Raises :class:`NoChartError` only when no chart passes
    ``RANK_TOL``; for an orthonormal frame the maximal-volume k x k block
    has smallest singular value at least (1 + k(n - k))^(-1/2) (Goreinov and
    Tyrtyshnikov 2001), so this needs a malformed projector whenever that
    bound exceeds ``RANK_TOL``.
    """
    return _select_frame_chart(*_projector_frames(p))[0]


def local_section(p, sigma):
    """Canonical unitary over a subspace in chart sigma.

    Satisfies the section law: the span of its last k columns is the input
    subspace.
    """
    factors = _projector_chart_factors(p, sigma)
    return _scatter_rows(_section_of_factors(*factors), sigma)


def global_section(p):
    """Canonical unitary over a subspace, using the first valid chart."""
    sigma, factors = _select_frame_chart(*_projector_frames(p))
    return _scatter_rows(_section_of_factors(*factors), sigma)


def ball_to_affine(x):
    """Affine chart matrix Z = X (I - X*X)^(-1/2) of an open-ball coordinate.

    Z = XV diag(1/c) V*, with (XV, V, c) the factors of
    :func:`~flagparam.linalg.open_ball_factors`, whose one SVD also checks
    ||X|| < 1.
    """
    xv, v, c = open_ball_factors(as_matrix(x))
    return (xv / c) @ v.conj().T


def affine_to_ball(z):
    """Open-ball coordinate X = Z (Z*Z + I)^(-1/2) of an affine chart matrix.

    With Z*Z = V diag(t^2) V* from one eigh of the Gram matrix (ZZ* for a
    wide Z), X = Z V diag(1 / (1 + t^2)^1/2) V*.
    """
    z = as_matrix(z)
    t, q = gram_eigh(z)
    return gram_function(z, q, 1.0 / np.hypot(1.0, t))
