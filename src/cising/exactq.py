"""Exact linear algebra over the rationals on one sparse echelon kernel.

Everything here is exact -- ``fractions.Fraction`` and ``int``, no floating
point, no tolerances.  :class:`IncrementalSpan` is the only elimination
routine: it keeps a subspace as sparse primitive integer rows in echelon
form, each row pivoting on its first nonzero column, and reads out the
reduced echelon form in ``Fraction``s on demand.  ``rref``, ``rank``,
``kernel_basis``, ``cokernel_presentation`` and ``solve`` are built on it,
and the dense :class:`Mat` is kept for small fixed-size maps (tangent
fibers, snake diagrams, operators on Ext).  The routines are deterministic
by convention, and downstream code leans on those conventions, so they are
contract rather than accident:

* the pivots are those of the unique reduced row echelon form: a column is
  a pivot exactly when it is independent of the columns before it;
* ``kernel_basis`` emits one vector per non-pivot column, free coordinate
  set to 1, in column order;
* ``cokernel_presentation`` projects onto the non-pivot coordinates of the
  column space, in coordinate order.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import CommutativityError, ExactnessError

ZERO = Fraction(0)
ONE = Fraction(1)


class Mat:
    """Dense rational matrix, row-major.

    The shape is stored explicitly so matrices with zero rows or zero
    columns stay well formed (they show up as soon as a kernel or cokernel
    is trivial).
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = [[e if isinstance(e, Fraction) else Fraction(e) for e in row]
                for row in rows]
        if rows:
            if ncols is None:
                ncols = len(rows[0])
            for row in rows:
                if len(row) != ncols:
                    raise ValueError("ragged matrix rows")
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit column count")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([[ZERO] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns, nrows):
        """Assemble a matrix from a list of column vectors."""
        for col in columns:
            if len(col) != nrows:
                raise ValueError("column length does not match row count")
        return cls([[col[i] for col in columns] for i in range(nrows)],
                   len(columns))

    def column(self, j):
        return [row[j] for row in self.rows]

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.rows:
            acc = [ZERO] * other.ncols
            for a, orow in zip(row, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(acc)
        return Mat(out, other.ncols)

    def vec(self, v):
        """Matrix times column vector, over the nonzero entries of ``v``."""
        if len(v) != self.ncols:
            raise ValueError("vector length does not match column count")
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.rows:
            s = ZERO
            for j, x in support:
                a = row[j]
                if a:
                    s += a * x
            out.append(s)
        return out

    def is_zero(self):
        return all(e == 0 for row in self.rows for e in row)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     tuple(tuple(row) for row in self.rows)))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {self.rows!r})"


def _eliminate(v, rows):
    """Clear the integer vector ``v`` in place at each pivot of ``rows``
    (pivot -> integer row starting there), ascending, by ``v <- (r/g) v -
    (a/g) row`` with ``a``, ``r`` the pivot entries and ``g`` their gcd;
    entries this makes at later pivots are cleared in turn.  Returns ``v``."""
    pivots = [c for c in v if c in rows]
    heapify(pivots)
    while pivots:
        p = heappop(pivots)
        a = v.get(p)
        if a is None:
            continue
        row = rows[p]
        r = row[p]
        g = gcd(a, r)
        if g != r:
            m = r // g
            for c in v:
                v[c] *= m
        f = a // g
        for c, b in row.items():
            if c not in v and c in rows:
                heappush(pivots, c)
            s = v.get(c, 0) - f * b
            if s:
                v[c] = s
            else:
                del v[c]
    return v


def _primitive(v, p):
    """``v`` divided by the gcd of its entries, signed so ``v[p] > 0``."""
    g = gcd(*v.values())
    if v[p] < 0:
        g = -g
    return v if g == 1 else {c: a // g for c, a in v.items()}


class IncrementalSpan:
    """A subspace grown one vector at a time, kept in integer echelon form.

    Each stored row is a primitive integer vector ``{column: int}`` with a
    positive pivot at its first nonzero column.  ``add`` clears the incoming
    vector's denominators, reduces it by the rows without forming a fraction
    (fraction-free elimination, after Bareiss, Math. Comp. 22, 1968), and
    either absorbs it -- returning True, the vector was independent -- or
    rejects it as already in the span.  ``add`` and ``contains`` take a
    sequence or a ``{column: value}`` mapping of ints and ``Fraction``s.
    ``rows`` is the reduced echelon form, built when read and cached until
    the next accepted ``add``: each pivot column maps to a sparse row
    ``{column: Fraction}`` with no zero entries, 1 at its pivot and 0 at
    every other pivot.
    """

    __slots__ = ("_echelon", "_reduced")

    def __init__(self):
        self._echelon = {}
        self._reduced = None

    @property
    def dim(self):
        return len(self._echelon)

    def _reduce(self, vec):
        # numerators, scaled by the common denominator when one is not 1
        v, dens = {}, {}
        for c, a in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
            n, d = a.as_integer_ratio()
            if n:
                v[c] = n
                if d != 1:
                    dens[c] = d
        if dens:
            den = lcm(*dens.values())
            for c in v:
                v[c] *= den // dens.get(c, 1)
        return _eliminate(v, self._echelon)

    def add(self, vec):
        v = self._reduce(vec)
        if not v:
            return False
        p = min(v)
        self._echelon[p] = _primitive(v, p)
        self._reduced = None
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    @property
    def rows(self):
        if self._reduced is None:
            # from the last pivot up, each row cleared by the rows below it,
            # which are already 0 at every other pivot
            cleared = {}
            for p in sorted(self._echelon, reverse=True):
                cleared[p] = _primitive(
                    _eliminate(dict(self._echelon[p]), cleared), p)
            self._reduced = {p: {c: Fraction(a, v[p]) for c, a in v.items()}
                             for p, v in sorted(cleared.items())}
        return self._reduced


def span_of(vectors):
    """The :class:`IncrementalSpan` of ``vectors``, added in order."""
    span = IncrementalSpan()
    for v in vectors:
        span.add(v)
    return span


def rref(m):
    """Reduced row echelon form.

    Returns ``(reduced, pivots)`` where ``pivots`` lists the pivot columns in
    order; zero rows follow the pivot rows.  The reduced form of a row space
    is unique, so it does not depend on the order the rows are reduced in.
    """
    rows = span_of(m.rows).rows
    pivots = sorted(rows)
    reduced = [[rows[p].get(c, ZERO) for c in range(m.ncols)] for p in pivots]
    reduced += [[ZERO] * m.ncols for _ in range(m.nrows - len(pivots))]
    return Mat(reduced, m.ncols), pivots


def rank(m):
    return span_of(m.rows).dim


def _free_basis(rows, n):
    """One vector per non-pivot coordinate ``f`` of the reduced ``rows``:
    1 at ``f``, minus the ``f`` entry of each row at that row's pivot."""
    basis = []
    for f in range(n):
        if f in rows:
            continue
        v = [ZERO] * n
        v[f] = ONE
        for p, row in rows.items():
            v[p] = -row.get(f, ZERO)
        basis.append(v)
    return basis


def kernel_basis(m):
    """Ordered basis of the right kernel of ``m``.

    One vector per non-pivot column: that free coordinate is 1, pivot
    coordinates are filled from the reduced form, everything else is 0.
    """
    return _free_basis(span_of(m.rows).rows, m.ncols)


def cokernel_presentation(m):
    """Projection presenting the cokernel of ``m``.

    Returns a ``(nrows - rank) x nrows`` matrix ``q`` with ``q * m = 0``
    whose rows are indexed by the non-pivot coordinates of the column space
    (reduced from the columns of ``m``), in coordinate order.  ``q``
    restricted to those coordinates is the identity, so it is onto.
    """
    columns = span_of(m.column(j) for j in range(m.ncols)).rows
    return Mat(_free_basis(columns, m.nrows), m.nrows)


def solver(m):
    """``b -> solve(m, b)`` with ``m`` reduced once, as ``[m | identity]``:
    a row pivoting in ``m`` carries the combination of ``b`` that gives that
    coordinate of the solution, any other row a condition ``b`` must meet."""
    n = m.ncols
    span = IncrementalSpan()
    for i, row in enumerate(m.rows):
        v = dict(enumerate(row))
        v[n + i] = ONE
        span.add(v)
    # each row's identity part, as (index into b, coefficient)
    combos = [(p, [(c - n, a) for c, a in row.items() if c >= n])
              for p, row in span.rows.items()]

    def solve_one(b):
        if len(b) != m.nrows:
            raise ValueError("right-hand side length does not match row count")
        x = [ZERO] * n
        for p, combo in combos:
            s = ZERO
            for i, a in combo:
                if b[i]:
                    s += a * b[i]
            if p < n:
                x[p] = s
            elif s:
                return None
        return x

    return solve_one


def solve(m, b):
    """One exact solution of ``m x = b`` (free coordinates 0), or None."""
    return solver(m)(b)


@dataclass
class SubquotientMap:
    """A map from a spanned subspace to a presented quotient.

    ``domain_basis`` spans the subspace (as column vectors of the ambient
    space), ``codomain_projection`` presents the quotient, and ``matrix`` is
    the map written in those bases: column ``k`` is the image of
    ``domain_basis[k]`` in quotient coordinates.
    """

    domain_basis: list
    codomain_projection: Mat
    matrix: Mat


def _check_exact_row(a, b, which):
    if a.nrows != b.ncols:
        raise ExactnessError(f"{which} row: middle dimensions disagree")
    rank_a, rank_b = rank(a), rank(b)
    if rank_a != a.ncols:
        raise ExactnessError(f"{which} row: first map is not injective")
    if rank_b != b.nrows:
        raise ExactnessError(f"{which} row: second map is not surjective")
    if not b.mul(a).is_zero():
        raise ExactnessError(f"{which} row: composite is nonzero")
    if rank_a + rank_b != a.nrows:
        raise ExactnessError(f"{which} row: not exact at the middle term")


def snake_boundary(top, bottom, verticals):
    """Connecting map of a six-term snake diagram.

    ``top = (a, b)`` and ``bottom = (a2, b2)`` are short exact rows,
    ``verticals = (alpha, beta, gamma)`` the three downward maps.  Returns a
    :class:`SubquotientMap` from ``ker(gamma)`` to ``coker(alpha)``: lift
    along ``b``, push through ``beta``, pull back along ``a2``, project.

    The interior lift along ``b`` is not unique; the solver's lift is used,
    and the resulting map is the same for every lift -- that is the point
    of the construction.
    """
    a, b = top
    a2, b2 = bottom
    alpha, beta, gamma = verticals
    _check_exact_row(a, b, "top")
    _check_exact_row(a2, b2, "bottom")
    if beta.mul(a) != a2.mul(alpha):
        raise CommutativityError("left square does not commute")
    if gamma.mul(b) != b2.mul(beta):
        raise CommutativityError("right square does not commute")

    kernel = kernel_basis(gamma)
    projection = cokernel_presentation(alpha)
    lift, pull_back = solver(b), solver(a2)
    columns = []
    for c in kernel:
        w = beta.vec(lift(c))
        v = pull_back(w)
        if v is None:
            raise ExactnessError("pushed lift is not in the image of the bottom row")
        columns.append(projection.vec(v))
    matrix = Mat.from_columns(columns, projection.nrows)
    return SubquotientMap(kernel, projection, matrix)
