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
from .exactq import Mat, cokernel_presentation, kernel_basis, snake_boundary, solver

ZERO = Fraction(0)


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


def jacobian_at(polys, point):
    """Jacobian matrix at a rational zero: row j holds the partials of f_j."""
    ring, point = _validate_map(polys, point)
    return Mat([[p.diff(i).subs(point) for i in range(ring.nvars)]
                for p in polys], ring.nvars)


def second_partials_at(polys, point):
    """For each f_j, the symmetric matrix of second partials at the point."""
    ring, point = _validate_map(polys, point)
    n = ring.nvars
    out = []
    for p in polys:
        firsts = [p.diff(i) for i in range(n)]
        rows = [[ZERO] * n for _ in range(n)]
        # partials commute, so each unordered pair is evaluated once
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = firsts[i].diff(j).subs(point)
        out.append(Mat(rows, n))
    return out


@dataclass
class TangentComplexFiber:
    """Fiber data of the two-step tangent complex at a point."""

    point: list
    jacobian: Mat
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
    jac = jacobian_at(polys, point)
    return TangentComplexFiber(point=[Fraction(c) for c in point],
                               jacobian=jac,
                               kernel=kernel_basis(jac),
                               projection=cokernel_presentation(jac))


def hessian_direct(polys, point):
    """Bracket by direct contraction of second partials with kernel vectors.

    Returns ``(fiber, bracket)`` where ``bracket[a][b]`` is the cokernel
    projection of ``sum_{i,j} u_i v_j d2f/dx_i dx_j (z)`` for kernel basis
    vectors ``u, v``.  The diagonal carries the full second derivative.
    """
    fiber = tangent_fiber(polys, point)
    hessians = second_partials_at(polys, point)
    k = fiber.kernel
    bracket = []
    for u in k:
        # each Hessian applied to u once: H is symmetric, so
        # v . (H u) == sum_{i,j} u_i v_j H_ij
        hu = [h.vec(u) for h in hessians]
        bracket.append([fiber.projection.vec(
            [sum((x * y for x, y in zip(v, w) if x), ZERO) for w in hu])
            for v in k])
    return fiber, bracket


def _sym_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


@dataclass
class DiffOpFiber:
    """The six-space diagram of order-<=2 differential operator fibers.

    Rows are the split exact sequences (first-order part, operators of order
    <=2 modulo order 0, symmetric square) for the source and the target; the
    verticals push operators forward through the map at the point.
    """

    source_pairs: list
    target_pairs: list
    top: tuple        # (inclusion, projection)
    bottom: tuple
    verticals: tuple  # (jacobian, middle pushforward, symmetric square)


def diffop_fiber(polys, point):
    """Build the six-space diagram at the point from first and second
    partials of the map."""
    jac = jacobian_at(polys, point)
    hessians = second_partials_at(polys, point)
    n, m = jac.ncols, jac.nrows
    spairs = _sym_pairs(n)
    tpairs = _sym_pairs(m)
    sdim, tdim = len(spairs), len(tpairs)

    inclusion = Mat([[Fraction(1) if i == j else ZERO for j in range(n)]
                     for i in range(n + sdim)], n)
    onto = Mat([[Fraction(1) if j == n + i else ZERO for j in range(n + sdim)]
                for i in range(sdim)], n + sdim)
    inclusion2 = Mat([[Fraction(1) if i == j else ZERO for j in range(m)]
                      for i in range(m + tdim)], m)
    onto2 = Mat([[Fraction(1) if j == m + i else ZERO for j in range(m + tdim)]
                 for i in range(tdim)], m + tdim)

    def sym_image_column(i, j):
        """Coefficients of the symmetric square of the Jacobian on the
        product of source coordinates i and j; zero entries of the Jacobian
        contribute no product."""
        ci, cj = jac.column(i), jac.column(j)
        col = []
        for (k, l) in tpairs:
            s = ci[k] * cj[l] if ci[k] and cj[l] else ZERO
            if k != l and ci[l] and cj[k]:
                s += ci[l] * cj[k]
            col.append(s)
        return col

    gamma_cols = [sym_image_column(i, j) for (i, j) in spairs]
    gamma = Mat.from_columns(gamma_cols, tdim)

    middle_cols = []
    for i in range(n):
        middle_cols.append([jac.rows[l][i] for l in range(m)] + [ZERO] * tdim)
    for (i, j) in spairs:
        first_part = [hessians[l].rows[i][j] for l in range(m)]
        middle_cols.append(first_part + sym_image_column(i, j))
    beta = Mat.from_columns(middle_cols, m + tdim)

    return DiffOpFiber(source_pairs=spairs,
                       target_pairs=tpairs,
                       top=(inclusion, onto),
                       bottom=(inclusion2, onto2),
                       verticals=(jac, beta, gamma))


def hessian_snake(polys, point, rng=None):
    """Bracket via the snake boundary of the differential-operator diagram.

    The boundary map lands on the kernel of the symmetric square of the
    Jacobian; precomposing with the symmetrization of kernel pairs gives the
    bracket in the same bases as :func:`hessian_direct`.  ``rng`` randomizes
    the interior lift; the result never depends on it.
    """
    fiber = tangent_fiber(polys, point)
    diagram = diffop_fiber(polys, point)
    sq = snake_boundary(diagram.top, diagram.bottom, diagram.verticals, rng=rng)
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
    return fiber, bracket


def tangent_lie(polys, point):
    """Assemble the tangent Lie algebra, cross-checking both constructions.

    Runs the direct contraction and the snake-boundary construction and
    insists on exact agreement before returning.
    """
    fiber, direct = hessian_direct(polys, point)
    snake_fiber, snaked = hessian_snake(polys, point)
    if direct != snaked or fiber.jacobian != snake_fiber.jacobian:
        raise InvariantError("the two bracket constructions disagree")
    return TangentLieAlgebra(fiber=fiber, bracket=direct)
