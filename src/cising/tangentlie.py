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


def _partials_at(poly, point):
    """The first partials of ``poly`` at ``point`` as a sparse row
    ``{i: Fraction}`` and its second partials as sparse symmetric rows, from
    one pass over its terms.

    A term ``c x^e`` gives ``d/dx_i`` the value ``c e_i z^(e - 1_i)`` and
    ``d2/dx_i dx_j`` the value ``c e_i (e_j - [i = j]) z^(e - 1_i - 1_j)``.
    The term's value leaves out the coordinates where ``z`` is 0; a partial
    gets a share only when it uses up the exponents there exactly, and it
    divides out each other coordinate it lowers.
    """
    grad, upper = {}, {}
    for expo, coeff in poly.terms.items():
        support = [i for i, e in enumerate(expo) if e]
        at_zero = sum(expo[i] for i in support if not point[i])
        if at_zero > 2:
            continue
        value = coeff
        for i in support:
            if point[i]:
                value *= point[i] ** expo[i]
        for t, i in enumerate(support):
            zi = point[i]
            di = value * expo[i] / zi if zi else value * expo[i]
            left = at_zero - (not zi)
            if not left:
                grad[i] = grad.get(i, ZERO) + di
            for j in support[t:]:
                zj, ej = point[j], expo[j] - (i == j)
                if ej and left == (not zj):
                    upper[i, j] = (upper.get((i, j), ZERO)
                                   + (di * ej / zj if zj else di * ej))
    hessian = [{} for _ in point]
    for (i, j), h in upper.items():
        if h:
            hessian[i][j] = hessian[j][i] = h
    return {i: d for i, d in grad.items() if d}, hessian


def tangent_fiber(polys, point):
    """The fiber at a rational zero: the Jacobian and the Hessians read off
    in one pass over each polynomial's terms."""
    ring, point = _validate_map(polys, point)
    n = ring.nvars
    jacobian, hessians = [], []
    for p in polys:
        grad, hessian = _partials_at(p, point)
        jacobian.append(grad)
        hessians.append(Mat._of(hessian, n))
    jac = Mat._of(jacobian, n)
    return TangentComplexFiber(point=point, jacobian=jac, hessians=hessians,
                               kernel=kernel_basis(jac),
                               projection=cokernel_presentation(jac))


def hessian_direct(fiber):
    """Bracket by direct contraction of second partials with kernel vectors.

    ``bracket[a][b]`` is the cokernel projection of
    ``sum_{i,j} u_i v_j d2f/dx_i dx_j (z)`` for kernel basis vectors
    ``u, v``.  The diagonal carries the full second derivative.
    """
    k = fiber.kernel
    supports = [[(i, x) for i, x in enumerate(u) if x] for u in k]
    bracket = [[None] * len(k) for _ in k]
    for a, u in enumerate(k):
        # each Hessian applied to u once: H is symmetric, so
        # v . (H u) == sum_{i,j} u_i v_j H_ij == u . (H v)
        hu = [h.vec(u) for h in fiber.hessians]
        for b in range(a, len(k)):
            value = fiber.projection.vec(
                [sum((y * w[j] for j, y in supports[b] if w[j]), ZERO)
                 for w in hu])
            bracket[a][b], bracket[b][a] = value, list(value)
    return bracket


def _sym_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _split(r, s):
    """The split short exact row ``k^r -> k^(r+s) -> k^s``: inclusion of the
    first ``r`` coordinates, projection onto the last ``s``."""
    inclusion = Mat._of([{i: ONE} for i in range(r)]
                        + [{} for _ in range(s)], r)
    onto = Mat._of([{r + i: ONE} for i in range(s)], r + s)
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
    """Build the six-space diagram, sparse, from the fiber's first and
    second partials."""
    jac, hessians = fiber.jacobian, fiber.hessians
    n, m = jac.ncols, jac.nrows
    spairs, tpairs = _sym_pairs(n), _sym_pairs(m)
    tdim = len(tpairs)
    tindex = {pair: t for t, pair in enumerate(tpairs)}
    columns = jac.sparse_columns()

    def sym_image_column(i, j):
        """Coefficients of the symmetric square of the Jacobian on the
        product of source coordinates i and j, over the nonzero entries of
        the two Jacobian columns."""
        col = {}
        for k, a in columns[i].items():
            for l, b in columns[j].items():
                t = tindex[(k, l) if k <= l else (l, k)]
                col[t] = col.get(t, ZERO) + a * b
        return col

    # each symmetric-square column is gamma's and the lower block of beta's
    gamma_cols = [sym_image_column(i, j) for (i, j) in spairs]
    middle_cols = columns + [
        {c: h.entry(i, j) for c, h in enumerate(hessians)}
        | {m + t: a for t, a in col.items()}
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
