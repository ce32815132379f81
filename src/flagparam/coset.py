"""Canonical coset decomposition of U(n) over a multiplicity profile.

A unitary is peeled level by level: at each level the plane spanned by the
last block of columns is sent through a chart, the corresponding canonical
section is divided out, and the recursion continues on the upper-left block.
What survives at the end is a block-diagonal unitary.  The ball coordinates
collected on the way down parametrize the flag manifold
U(n) / (U(k_1) x ... x U(k_m)); the block-diagonal residue is the fiber.

Also here: the section of a Grassmannian assembled from rank-one
(projective) factors via row triangularization, and the angle/direction
(Jarlskog) form of a ball vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ValidationError
from .linalg import (
    RANK_TOL,
    _complex_array,
    _numpy_norm,
    as_matrix,
    block_diag,
    exact_ints,
    frobenius,
    gram_eighs,
    lower_triangularize,
    open_ball_factors,
    read_as,
    require_unitary,
)
from .charts import (
    _UNIT,
    _chart_factors,
    _is_identity,
    _line_chart,
    _projector_frames,
    _section_of_factors,
    _select_frame_chart,
    identity_chart,
    validate_chart,
)


def validate_profile(ks, n=None):
    """Validate a multiplicity profile (k_1, ..., k_m); returns it as a tuple of ints.

    An entry that is not integral, such as 1.5, raises rather than being
    truncated (see :func:`~flagparam.linalg.exact_ints`).
    """
    ks = read_as(exact_ints, ks, "PROFILE_VALUES", "profile must be a sequence of ints")
    if len(ks) == 0 or any(k < 1 for k in ks):
        raise ValidationError(f"profile entries must be >= 1, got {ks}", code="PROFILE_VALUES")
    if n is not None and sum(ks) != n:
        raise ValidationError(f"profile {ks} sums to {sum(ks)}, expected {n}", code="PROFILE_SUM")
    return ks


def level_dimensions(profile):
    """Per-level (n_j, k_j) pairs, outermost level first.

    Level j lives on G(k_j, C^(n_j)) with n_j = k_1 + ... + k_j; the list runs
    j = m, m-1, ..., 2 and is empty for a single-block profile.
    """
    sizes = list(accumulate(profile))
    return [(sizes[j], profile[j]) for j in range(len(profile) - 1, 0, -1)]


def _unchecked(cls, **values):
    """An instance of a frozen dataclass holding ``values``, skipping ``__post_init__``.

    For results the peel has just built: their invariants hold by
    construction, so re-running the public checks would only cost time.
    """
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def _read_chart(sigma, k, n):
    """validate_chart(sigma, k, n), with a tuple of Python ints equal to the identity returned as it is.

    The type guard keeps ``==`` from reading anything else, such as a
    one-element array entry, as its value; every other chart is validated.
    """
    if type(sigma) is tuple and set(map(type, sigma)) == {int} and sigma == identity_chart(n):
        return sigma
    return validate_chart(sigma, k, n)


@dataclass(frozen=True, eq=False)
class FlagCoordinates:
    """Chart data of a point of the flag manifold for a given profile.

    ``xs`` holds one ball coordinate per level, outermost level first;
    ``charts`` records which chart produced each coordinate (needed to map
    back, and for reproducible serialization).  ``factors`` holds each
    level's (XV, V, c) section factors, min(r, k) columns wide (see
    :func:`~flagparam.linalg.ball_factors`): from the chart block when
    :func:`decompose_unitary` built the coordinates, otherwise from the
    eigendecomposition of X*X, which also checks ||X|| < 1 (see
    :func:`~flagparam.linalg.open_ball_factors`).  The Gram matrices of all
    levels of one width k <= r go through a single batched ``eigh``, so
    profile (8,) x 16 takes one LAPACK call for its 15 levels; a wide level
    (k > r) takes a thin SVD of its own.  :func:`reconstruct_unitary`
    applies the factors without a further decomposition.
    """

    profile: tuple
    xs: tuple
    charts: tuple
    factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        profile = validate_profile(self.profile)
        dims = level_dimensions(profile)
        xs = tuple(as_matrix(x) for x in self.xs)
        charts = tuple(self.charts)
        if len(xs) != len(dims) or len(charts) != len(dims):
            raise ValidationError(
                f"expected {len(dims)} levels for profile {profile}, "
                f"got {len(xs)} coordinates and {len(charts)} charts",
                code="PROFILE_SUM",
            )
        charts = tuple(_read_chart(sigma, kj, nj) for (nj, kj), sigma in zip(dims, charts))
        tall = {}  # width k -> the levels with k <= r, which share one batched eigh
        for i, ((nj, kj), x) in enumerate(zip(dims, xs)):
            if x.shape != (nj - kj, kj):
                raise ValidationError(
                    f"level on G({kj}, C^{nj}) needs a {nj - kj}x{kj} coordinate, "
                    f"got {x.shape}",
                    code="BAD_SHAPE",
                )
            if kj <= nj - kj:
                tall.setdefault(kj, []).append(i)
        eigs = {}
        for levels in tall.values():
            eigs.update(zip(levels, zip(*gram_eighs([xs[i] for i in levels]))))
        factors = tuple(open_ball_factors(x, eigs.get(i)) for i, x in enumerate(xs))
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "factors", factors)

    @property
    def n(self):
        return sum(self.profile)


@dataclass(frozen=True, eq=False)
class BlockDiagonalUnitary:
    """Element of U(k_1) x ... x U(k_m), stored as its diagonal blocks."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(require_unitary(b) for b in self.blocks)
        if not blocks:
            raise ValidationError("at least one block is required", code="PROFILE_VALUES")
        object.__setattr__(self, "blocks", blocks)

    @property
    def profile(self):
        return tuple(b.shape[0] for b in self.blocks)

    def matrix(self):
        return block_diag(*self.blocks)


def coordinates_distance(a: FlagCoordinates, b: FlagCoordinates) -> float:
    """Largest per-level difference; infinite when profiles or charts differ."""
    if a.profile != b.profile or a.charts != b.charts:
        return math.inf
    if not a.xs:
        return 0.0
    return max(frobenius(xa - xb) for xa, xb in zip(a.xs, b.xs))


def decompose_unitary(g, profile):
    """Canonical coset decomposition of a unitary over a profile.

    Peels levels from the outside in: the last k_j columns of the current
    n_j x n_j block are a frame of the level's plane; it is chart-selected
    and mapped to its ball coordinate X, the section W(X) is divided out of
    the rows gathered by the chart (none are gathered on the identity
    chart), and the upper-left block carries on.  The chart search reads
    the p = min(r, k) column factors (XV, V, c) off the chart block it
    accepts (see :func:`~flagparam.charts.frame_chart_factors`; a rank-one
    level takes no SVD), and the peel divides out W(X) as p Hermitian
    reflectors through them (see :func:`_peel`).  The factors travel with
    the coordinates, so :func:`reconstruct_unitary` reuses them.  Returns
    the flag coordinates and the unique block-diagonal residue; the
    coordinates depend only on the coset of g modulo block-diagonal
    factors.  Both are built without re-running their constructors' checks,
    which hold by construction: the chart search accepts a level only when
    its cosines exceed ``RANK_TOL``, so every X lies strictly inside the
    ball.  ``g`` is not modified.
    """
    g = require_unitary(g)
    return _peel(g, validate_profile(profile, n=g.shape[0]), residues=True)


# Runs of rank-one levels share panels of at most _PANEL_LEVELS levels, in
# the peel as in the rebuild (2-core Xeon, one BLAS thread): the rebuild of
# (1,)*256 takes 5.4 ms at 32 against 8.2 ms at 16, with no loss at n <= 64,
# and the peel reads within 4 % of its best at 16, 32 and 64 for n <= 256.
# Wider levels keep the structured update: panelling (4,)*n levels slows the
# rebuild by a quarter.
_PANEL_LEVELS = 32


def _peel(g, ks, residues=False):
    """:func:`decompose_unitary` of a unitary ``g`` over a valid profile, without the unitarity check.

    For a unitary the caller already holds: ``eigh``'s eigenvectors, or one
    it has built or checked.  ``g`` is only read, and copied once into an
    n x (n + _PANEL_LEVELS) buffer.  W(X) is p = min(r, k) Hermitian
    reflectors after p sign flips, (I - Y diag(1 + c) Y*)(I - 2 V^ V^*) with
    Y = [XV diag(1 / (1 + c)); V] and V^ = [0; V], so W(X)* takes the same
    factors in the other order.  Per level, with G the n_j rows in chart
    order, the flips leave the top r rows alone, so the next block is
    G_top[:, :r] - XV t with t = Y* G[:, :r].  A wider level forms it in
    place, O(n_j r p) flops.

    Runs of rank-one (k = 1) levels are left-looking panels (Bischof and
    Van Loan 1987).  From the block A where a panel starts, the block after
    i of its levels is G = A + X T, where X holds each level's -x / (1 + c)
    in the buffer's spare columns and T its (1 + c) t row, stacked under an
    identity as Z = [I; T].  A level reads its column of G with one gemv,
    [A | X] Z[:, r]; off the identity chart, :func:`_line_chart` takes the
    chart, and the rows of [A | X] are gathered, as G permutes row for row.
    With u = (1 + c) y*, two gemvs give its T row, (u [A | X]) Z[:, :r], the
    identity part added rather than multiplied; no r x r array is touched.
    One gemm, A += X T, folds a panel into the block when it is full or a
    wider level follows.  The residue (I - 2 V V*)(G_bot[:, r:] - V diag(1 + c) Y* G[:, r:])
    is formed only when ``residues`` is set, for a rank-one level as the
    phase b / |b| of its chart entry b.  Otherwise the second result is
    None, and the last level forms no block, as its block would be the
    first residue.
    """
    n = g.shape[0]
    buf = np.empty((n, n + _PANEL_LEVELS), dtype=complex)
    buf[:, :n] = g
    z = None
    if 1 in ks[1:]:
        # rows from a panel's start down hold its T; above them Z is the identity
        z = np.eye(n + _PANEL_LEVELS, n, dtype=complex)
        u = np.empty(n, dtype=complex)
        identity = identity_chart(n)
    xs, charts, factors, blocks = [], [], [], []
    m0 = i = 0  # where the pending panel started, and its levels so far
    for nj, kj in level_dimensions(ks):
        r, w = nj - kj, m0 + i
        # the block the last level leaves is the first residue; deparametrize drops it
        leaves = residues or r > ks[0]
        if kj > 1 or i == _PANEL_LEVELS:
            _fold(buf, z, m0, i)
            i = 0
        if kj == 1:
            if i == 0:
                m0 = w = nj
            col = buf[:nj, r:w] @ z[r:w, r]
            c = np.abs(col[r:])
            if c[0] > RANK_TOL:
                # the identity chart, the first valid one by _line_chart's rule
                sigma = identity[:nj]
                x = col[:r, None] * (complex(col[r]).conjugate() / float(c[0]))
            else:
                sigma, (x, _, _, c) = _line_chart(col[:, None])
                buf[:nj, :w] = buf[np.array(sigma) - 1, :w]
            xv, v = x, _UNIT
            if residues:
                blocks.append(np.full((1, 1), col[sigma[-1] - 1] / c[0]))
            if leaves:
                x0, c1 = x[:, 0], 1.0 + float(c[0])
                np.multiply(x0, -1.0 / c1, out=buf[:r, w])
                np.conjugate(x0, out=u[:r])
                u[r] = c1
                s = u[:nj] @ buf[:nj, :w]
                row = z[w, :r]
                np.matmul(s[m0:], z[m0:w, :r], out=row)
                row += s[:r]
                i += 1
        else:
            cur = buf[:nj, :nj]
            sigma, (x, xv, v, c) = _select_frame_chart(cur[:, r:], cur[:, :r])
            if leaves:
                if not _is_identity(sigma, r):
                    cur[:] = cur[np.array(sigma) - 1]
                yh = np.concatenate((xv / (1.0 + c), v)).conj().T
                if residues:
                    residue = cur[r:, r:] - v @ ((1.0 + c)[:, None] * (yh @ cur[:, r:]))
                    residue -= v @ (2.0 * (v.conj().T @ residue))
                    blocks.append(residue)
                cur[:r, :r] -= xv @ (yh @ cur[:, :r])
        xs.append(x)
        charts.append(sigma)
        factors.append((xv, v, c))
    _fold(buf, z, m0, i)
    coords = _unchecked(
        FlagCoordinates, profile=ks, xs=tuple(xs), charts=tuple(charts), factors=tuple(factors)
    )
    if not residues:
        return coords, None
    blocks = (buf[: ks[0], : ks[0]].copy(),) + tuple(reversed(blocks))
    return coords, _unchecked(BlockDiagonalUnitary, blocks=blocks)


def _fold(buf, z, m0, i):
    """A <- A + X T for the pending panel of :func:`_peel`, ``i`` levels from block size ``m0``; none when i = 0."""
    if i:
        m = m0 - i
        buf[:m, :m] += buf[:m, m0 : m0 + i] @ z[m0 : m0 + i, :m]


def reconstruct_unitary(coords: FlagCoordinates, h=None):
    """Product of the embedded per-level sections times a block-diagonal factor.

    Inverse of :func:`decompose_unitary`: feeding its output back returns the
    original unitary.  The sections are accumulated backward, innermost level
    first, and each step touches only the leading n_j x n_j block, as
    LAPACK's ZUNGQR does, with the level's (XV, V, c) from
    ``coords.factors``, so no SVD is taken.  Runs of rank-one (k = 1)
    levels are applied as compact-WY panels (Schreiber & Van Loan 1989) of
    the reflectors of :func:`_peel`, one column per level (see
    :func:`_apply_panel`); every level with k > 1 is applied alone as two
    rank-p row updates, p = min(r, k).  Only a panel's outermost level may
    leave the identity chart; its row scatter follows the panel.  ``h``
    (identity when omitted) is applied block by block.
    """
    ks = coords.profile
    if h is not None and h.profile != ks:
        raise ValidationError(
            f"block profile {h.profile} does not match coordinates profile {ks}",
            code="PROFILE_SUM",
        )
    g = np.zeros((coords.n, coords.n), dtype=complex)
    g.flat[:: coords.n + 1] = 1.0
    levels = zip(level_dimensions(ks), coords.charts, coords.factors)
    for panel, moved in _panels(reversed(list(levels))):
        (nj, _), sigma, _ = panel[-1]
        blk = g[:nj, :nj]
        if len(panel) == 1:
            _apply_level(blk, *panel[0][2])
        else:
            _apply_panel(blk, panel)
        if moved:
            g[np.array(sigma) - 1, :nj] = blk.copy()
    if h is not None:
        start = 0
        for b in h.blocks:
            stop = start + b.shape[0]
            g[:, start:stop] = g[:, start:stop] @ b
            start = stop
    return g


def _panels(levels):
    """Group levels, innermost first, into the panels of :func:`reconstruct_unitary`.

    Yields each panel, its levels innermost first, with whether its
    outermost level leaves the identity chart.  A panel of more than one
    level holds k = 1 levels only, as the peel's panels do.  A level with
    k > 1, or a k = 1 level that would overflow the panel, starts a new
    panel; a level with k > 1, or one outside the identity chart, ends its
    panel.
    """
    panel = []
    for level in levels:
        (nj, kj), sigma, _ = level
        if panel and not (kj == 1 and len(panel) < _PANEL_LEVELS):
            yield panel, False
            panel = []
        panel.append(level)
        moved = not _is_identity(sigma, nj - kj)
        if moved or kj > 1:
            yield panel, moved
            panel = []
    if panel:
        yield panel, False


def _apply_level(blk, xv, v, c):
    """blk <- W blk for one level's section, as two rank-p row updates, in place; len(xv) rows on top."""
    top, bottom = blk[: xv.shape[0]], blk[xv.shape[0] :]
    t, b = xv.conj().T @ top, v.conj().T @ bottom
    # [[A, X], [-X*, C]] @ blk, with A, C and X factored as in the peel
    top += xv @ ((-1.0 / (1.0 + c))[:, None] * t + b)
    bottom += v @ ((c - 1.0)[:, None] * b - t)


def _apply_panel(blk, panel):
    """blk <- W_outer ... W_inner blk for k = 1 levels listed innermost first, in place.

    Each W = (I - (1 + c) y y*)(I - 2 V^ V^*), y = [XV / (1 + c); V], V^ = [0; V]
    (see :func:`_peel`), with V a scalar of modulus 1 in row n_j - 1.  Those
    rows run from the innermost r down and still hold the identity, so each
    level's flip negates its row's diagonal entry; the reflectors act as
    I - Y T Y*, Y outermost level first, with T from the UT transform
    (Joffrain et al. 2006): T^-1 = diag(1 / (1 + c)) + strict_upper(Y* Y).
    """
    r0, panel = panel[0][0][0] - 1, panel[::-1]
    y = np.zeros((blk.shape[0], len(panel)), dtype=complex)
    for i, ((nj, _), _, (xv, _, _)) in enumerate(panel):
        y[: nj - 1, i] = xv[:, 0]
    _, vs, cs = zip(*(factors for _, _, factors in panel))
    d = 1.0 / (1.0 + np.concatenate(cs))
    y *= d
    # row n_j - 1 of column i holds level i's V: the reversed bottom rows' diagonal
    np.fill_diagonal(y[r0:][::-1], np.concatenate(vs, axis=None))
    np.fill_diagonal(blk[r0:, r0:], -1.0)
    tinv = np.triu(y.conj().T @ y, 1)
    tinv.flat[:: len(panel) + 1] = d
    blk -= y @ np.linalg.solve(tinv, y.conj().T @ blk)


def flag_section(coords: FlagCoordinates):
    """Canonical unitary over a flag-manifold point (identity residue).

    Decomposing ``flag_section(coords) @ v`` for any block-diagonal v returns
    the same coordinates: the section represents the coset.
    """
    return reconstruct_unitary(coords)


def section_from_projective_factors(p):
    """Section over a k-plane assembled from k rank-one ball factors.

    Only defined on the identity chart.  The plane's section is
    right-normalized so the bottom block is lower triangular with positive
    diagonal, then peeled as by :func:`decompose_unitary`, without its
    residue or unitarity check, over the profile (n - k, 1, ..., 1).  Each
    diagonal entry is a rank-one level's cosine and exceeds ``RANK_TOL``,
    the chart tolerance, so every level stays in the identity chart.  Each
    peeled vector x_i has exact zeros in its trailing positions (all but the
    first n - k and the peeled ones), which is what makes the factors cheap
    to write down.  Returns the peeled vectors, outermost first, and the
    product of the embedded factors: a unitary whose last k columns span the
    input plane.
    """
    f, left = _projector_frames(p)
    n, k = f.shape
    if k == n:
        raise ValidationError("the full plane has no chart coordinate", code="BAD_DIMENSION")
    x0_factors = _chart_factors(f, identity_chart(n), left)  # raises OutOfChartError
    g = _section_of_factors(*x0_factors)
    u_tri, _ = lower_triangularize(g[n - k :, n - k :])
    g[:, n - k :] = g[:, n - k :] @ u_tri
    coords, _ = _peel(g, (n - k,) + (1,) * k)
    return [x.ravel() for x in coords.xs], reconstruct_unitary(coords)


@dataclass(frozen=True, eq=False)
class JarlskogLevel:
    """Angle/direction form of a ball vector: x = sin(theta) * zeta."""

    theta: float
    zeta: np.ndarray

    def __post_init__(self):
        theta = read_as(float, self.theta, "THETA_RANGE", "theta must be a real number")
        zeta = _complex_array(self.zeta).reshape(-1)
        if not 0.0 <= theta < math.pi / 2:
            raise ValidationError(f"theta={theta} outside [0, pi/2)", code="THETA_RANGE")
        if zeta.size < 1:
            raise ValidationError("zeta must be nonempty", code="BAD_SHAPE")
        # written so that a NaN norm fails it too
        nrm = frobenius(zeta)
        if not abs(nrm - 1.0) <= 1e-12:
            raise ValidationError(f"zeta norm {nrm:.15f} != 1", code="ZETA_NORM")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "zeta", zeta)


def jarlskog_to_ball(level: JarlskogLevel):
    """Ball vector sin(theta) * zeta; its norm is sin(theta) < 1."""
    return math.sin(level.theta) * level.zeta


def ball_to_jarlskog(x):
    """Angle/direction form of a ball vector.

    The zero vector maps to theta = 0 with direction e_1 by convention
    (any direction is equivalent there).
    """
    x = _complex_array(x).reshape(-1)
    if x.size < 1:
        raise ValidationError("x must be nonempty", code="BAD_SHAPE")
    if not np.isfinite(x).all():
        raise ValidationError("x entries must be finite", code="NOT_FINITE")
    # numpy's norm, not frobenius's dot, which sums in another order: theta
    # and zeta are parameters, and keep their bits
    nrm = _numpy_norm(x)
    if nrm >= 1.0:
        raise ValidationError(f"vector norm {nrm:.6f} >= 1", code="BALL_NORM")
    if nrm == 0.0:
        zeta = np.zeros(x.size, dtype=complex)
        zeta[0] = 1.0
        return JarlskogLevel(0.0, zeta)
    return JarlskogLevel(math.asin(nrm), x / nrm)


def jarlskog_unitary(theta, zeta):
    """Angle/direction unitary [[I - (1-cos t) z z*, sin t z], [-sin t z*, cos t]].

    Entrywise identical to ``ball_unitary(sin(theta) * zeta)``; kept as an
    independent construction for cross-checks.
    """
    zeta = np.asarray(zeta, dtype=complex).reshape(-1, 1)
    j = zeta.shape[0]
    w = np.empty((j + 1, j + 1), dtype=complex)
    w[:j, :j] = np.eye(j) - (1.0 - math.cos(theta)) * (zeta @ zeta.conj().T)
    w[:j, j:] = math.sin(theta) * zeta
    w[j:, :j] = -math.sin(theta) * zeta.conj().T
    w[j, j] = math.cos(theta)
    return w
