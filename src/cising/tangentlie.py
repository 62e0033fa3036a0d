"""The two-step tangent fiber of a polynomial map at a rational zero, and
its symmetric bracket computed two independent ways.

For a map given by polynomials ``f_1..f_m`` in ``n`` variables and a point
``z`` with ``f_j(z) = 0``, the fiber of the tangent complex is the two-step
complex ``k^n -> k^m`` given by the Jacobian at ``z``; its degree-1 part is
the Jacobian kernel, its degree-2 part the cokernel.  The bracket is the
symmetric bilinear map (kernel x kernel -> cokernel) induced by the second
derivative.  It is computed:

* directly, as the cokernel projection of the contraction of the second
  partials with two kernel vectors (``B(u, u)`` carries the full second
  derivative: for ``f = x^2`` one gets ``B(e, e) = 2``); and
* diagrammatically, as the snake-lemma boundary of the six-space diagram of
  order-<=2 differential operator fibers, precomposed with symmetrization.

The two always agree exactly; ``tangent_lie`` checks this on every call.
The normalization (no extra 1/2 on the diagonal) is a documented convention
shared with the quadratic differentials in :mod:`cising.chevalley`.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError, OffLocusError, ValidationError
from .exactq import (ONE, ZERO, Mat, cokernel_presentation, kernel_basis,
                     snake_boundary, solver)


def _validate_map(polys, point):
    if not polys:
        raise ValidationError("need at least one polynomial")
    ring = polys[0].ring
    for p in polys:
        if p.ring != ring:
            raise ValidationError("polynomials from different rings")
    if len(point) != ring.nvars:
        raise ValidationError("point length does not match variable count")
    point = [Fraction(c) for c in point]
    off = [(j, v) for j, v in enumerate(p.subs(point) for p in polys) if v]
    if off:
        detail = ", ".join(f"f_{j + 1} = {val}" for j, val in off)
        raise OffLocusError(f"point is not on the zero locus: {detail}")
    return ring, point


@dataclass
class TangentComplexFiber:
    """Fiber data of the two-step tangent complex at a point."""

    point: list
    jacobian: Mat
    hessians: list        # per f_j, the symmetric matrix of second partials
    kernel: list          # basis of the degree-1 part, inside k^n
    projection: Mat       # presentation of the degree-2 part, onto coker coords

    @property
    def g1_dim(self):
        return len(self.kernel)

    @property
    def g2_dim(self):
        return self.projection.nrows


@dataclass
class TangentLieAlgebra:
    """The two-step Lie algebra: fiber plus the symmetric bracket.

    ``bracket[a][b]`` is the value on the a-th and b-th kernel basis vectors,
    written in the cokernel coordinates of ``fiber.projection``.
    """

    fiber: TangentComplexFiber
    bracket: list


def tangent_fiber(polys, point):
    """The fiber at a rational zero, from one pass over the first partials:
    each is evaluated for the Jacobian and differentiated once more for the
    Hessians, each unordered second partial evaluated once (partials
    commute)."""
    ring, point = _validate_map(polys, point)
    n = ring.nvars
    jacobian, hessians = [], []
    for p in polys:
        firsts = [p.diff(i) for i in range(n)]
        jacobian.append([f.subs(point) for f in firsts])
        rows = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = firsts[i].diff(j).subs(point)
        hessians.append(Mat(rows, n))
    jac = Mat(jacobian, n)
    return TangentComplexFiber(point=point, jacobian=jac, hessians=hessians,
                               kernel=kernel_basis(jac),
                               projection=cokernel_presentation(jac))


def jacobian_at(polys, point):
    """Jacobian matrix at a rational zero: row j holds the partials of f_j."""
    return tangent_fiber(polys, point).jacobian


def hessian_direct(fiber):
    """Bracket by direct contraction of second partials with kernel vectors.

    ``bracket[a][b]`` is the cokernel projection of
    ``sum_{i,j} u_i v_j d2f/dx_i dx_j (z)`` for kernel basis vectors
    ``u, v``.  The diagonal carries the full second derivative.
    """
    k = fiber.kernel
    bracket = []
    for u in k:
        # each Hessian applied to u once: H is symmetric, so
        # v . (H u) == sum_{i,j} u_i v_j H_ij
        hu = [h.vec(u) for h in fiber.hessians]
        bracket.append([fiber.projection.vec(
            [sum((x * y for x, y in zip(v, w) if x), ZERO) for w in hu])
            for v in k])
    return bracket


def _sym_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _split(r, s):
    """The split short exact row ``k^r -> k^(r+s) -> k^s``: inclusion of the
    first ``r`` coordinates, projection onto the last ``s``."""
    inclusion = Mat([[ONE if i == j else ZERO for j in range(r)]
                     for i in range(r + s)], r)
    onto = Mat([[ONE if j == r + i else ZERO for j in range(r + s)]
                for i in range(s)], r + s)
    return inclusion, onto


@dataclass
class DiffOpFiber:
    """The six-space diagram of order-<=2 differential operator fibers.

    Rows are the split exact sequences (first-order part, operators of order
    <=2 modulo order 0, symmetric square) for the source and the target; the
    verticals push operators forward through the map at the point.
    """

    source_pairs: list
    top: tuple        # (inclusion, projection)
    bottom: tuple
    verticals: tuple  # (jacobian, middle pushforward, symmetric square)


def diffop_fiber(fiber):
    """Build the six-space diagram from the fiber's first and second
    partials."""
    jac, hessians = fiber.jacobian, fiber.hessians
    n, m = jac.ncols, jac.nrows
    spairs, tpairs = _sym_pairs(n), _sym_pairs(m)
    tdim = len(tpairs)
    columns = [jac.column(i) for i in range(n)]

    def sym_image_column(i, j):
        """Coefficients of the symmetric square of the Jacobian on the
        product of source coordinates i and j; zero entries of the Jacobian
        contribute no product."""
        ci, cj = columns[i], columns[j]
        col = []
        for (k, l) in tpairs:
            s = ci[k] * cj[l] if ci[k] and cj[l] else ZERO
            if k != l and ci[l] and cj[k]:
                s += ci[l] * cj[k]
            col.append(s)
        return col

    # each symmetric-square column is gamma's and the lower block of beta's
    gamma_cols = [sym_image_column(i, j) for (i, j) in spairs]
    middle_cols = [c + [ZERO] * tdim for c in columns]
    middle_cols += [[h.rows[i][j] for h in hessians] + col
                    for (i, j), col in zip(spairs, gamma_cols)]
    return DiffOpFiber(source_pairs=spairs,
                       top=_split(n, len(spairs)),
                       bottom=_split(m, tdim),
                       verticals=(jac, Mat.from_columns(middle_cols, m + tdim),
                                  Mat.from_columns(gamma_cols, tdim)))


def hessian_snake(fiber):
    """Bracket via the snake boundary of the differential-operator diagram.

    The boundary map lands on the kernel of the symmetric square of the
    Jacobian; precomposing with the symmetrization of kernel pairs gives the
    bracket in the same bases as :func:`hessian_direct`.
    """
    diagram = diffop_fiber(fiber)
    sq = snake_boundary(diagram.top, diagram.bottom, diagram.verticals)
    spairs = diagram.source_pairs
    pair_index = {pair: idx for idx, pair in enumerate(spairs)}
    coordinates = solver(Mat.from_columns(sq.domain_basis, len(spairs)))

    supports = [[(i, x) for i, x in enumerate(u) if x] for u in fiber.kernel]
    g1 = len(supports)
    bracket = [[None] * g1 for _ in range(g1)]
    # (u, v) and (v, u) symmetrize to the same vector, so each unordered
    # pair is solved once
    for a in range(g1):
        for b in range(a, g1):
            sym = [ZERO] * len(spairs)
            for i, x in supports[a]:
                for j, y in supports[b]:
                    lo, hi = (i, j) if i <= j else (j, i)
                    sym[pair_index[(lo, hi)]] += x * y
            coords = coordinates(sym)
            if coords is None:
                raise InvariantError(
                    "symmetrized kernel pair escaped the boundary domain")
            value = sq.matrix.vec(coords)
            bracket[a][b], bracket[b][a] = value, list(value)
    return bracket


def tangent_lie(polys, point):
    """Assemble the tangent Lie algebra, cross-checking both constructions.

    Builds the fiber once, runs the direct contraction and the
    snake-boundary construction on it, and insists on exact agreement
    before returning.
    """
    fiber = tangent_fiber(polys, point)
    direct = hessian_direct(fiber)
    if direct != hessian_snake(fiber):
        raise InvariantError("the two bracket constructions disagree")
    return TangentLieAlgebra(fiber=fiber, bracket=direct)
