"""Cochain model of a two-step Lie algebra and its bigraded cohomology.

The input is a tangent Lie algebra with degree-1 part of dimension ``a`` and
degree-2 part of dimension ``b``.  The cochain model has one even (polynomial)
generator per degree-1 basis vector and one odd (exterior) generator per
degree-2 basis vector; the differential kills the even generators and sends
the j-th odd generator to the quadratic form

    q_j = 1/2 * sum_{k,l} <e'_j, B(e_k, e_l)> y_k y_l,

so off-diagonal bracket values appear as mixed coefficients and diagonal ones
at half weight -- the same normalization convention as the bracket itself
(:mod:`cising.tangentlie`), which is why :func:`extract_bracket` can invert it
exactly by doubling the square coefficients.

Cohomology is computed one bidegree slice at a time (exterior degree p,
polynomial degree e) by exact rank computations; the differential maps slice
(p, e) to (p-1, e+2).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import InvariantError, ValidationError
from .exactq import span_of
from .polyring import (DEFAULT_MAX_MONOMIALS, GradedSlice, Poly, PolyRing,
                       _check_cap)

HALF = Fraction(1, 2)


@dataclass
class ChevalleyComplex:
    """Cochain model data: even polynomial ring and odd differentials."""

    even_ring: PolyRing
    differentials: list    # Poly per odd generator; each quadratic or zero

    def __post_init__(self):
        if any(w != 1 for w in self.even_ring.weights):
            raise ValidationError("even generators must all have weight 1")
        for j, q in enumerate(self.differentials):
            if not isinstance(q, Poly) or q.ring != self.even_ring:
                raise ValidationError("differentials must live in the even ring")
            if not q.is_zero() and (not q.is_homogeneous()
                                    or q.homogeneous_degree() != 2):
                raise ValidationError(
                    f"differential {j + 1} is not quadratic: {q}")

    @property
    def even_count(self):
        return self.even_ring.nvars

    @property
    def odd_count(self):
        return len(self.differentials)

    def slice(self, p, e):
        """Coordinates of bidegree (p, e): exterior ``p``-subsets of the odd
        generators times even monomials of degree ``e``."""
        if p < 0 or p > self.odd_count or e < 0:
            return GradedSlice(self.even_ring, [])
        return GradedSlice(self.even_ring, (
            (s, e) for s in combinations(range(self.odd_count), p)))


@dataclass
class GradedDims:
    """Cohomology dimensions by (exterior degree, polynomial degree)."""

    table: list
    degree: int

    def dim(self, p, e):
        return self.table[p][e]

    def row(self, p):
        return list(self.table[p])


def chevalley_cochain(lie):
    """Cochain model of a tangent Lie algebra.

    Raises :class:`InvariantError` unless :func:`extract_bracket` recovers
    ``lie.bracket`` from it.
    """
    a = lie.fiber.g1_dim
    b = lie.fiber.g2_dim
    ring = PolyRing([f"y{k + 1}" for k in range(a)])
    y = ring.gens()
    differentials = [sum((y[k] * y[l] * (HALF * lie.bracket[k][l][j])
                          for k in range(a) for l in range(a)), ring.zero())
                     for j in range(b)]
    ce = ChevalleyComplex(even_ring=ring, differentials=differentials)
    if extract_bracket(ce) != lie.bracket:
        raise InvariantError("the cochain model does not give back the bracket")
    return ce


def extract_bracket(ce):
    """Invert the quadratic differentials back to a symmetric bracket.

    Mixed coefficients are read off directly; square coefficients are
    doubled.  Exact over the rationals, so
    ``extract_bracket(chevalley_cochain(lie)) == lie.bracket``.
    """
    a, b = ce.even_count, ce.odd_count
    bracket = [[[Fraction(0)] * b for _ in range(a)] for _ in range(a)]
    for j, q in enumerate(ce.differentials):
        for expo, coeff in q.terms.items():
            support = [i for i, e in enumerate(expo) if e]
            if sum(expo) != 2:
                raise ValidationError(f"differential {j + 1} is not quadratic")
            if len(support) == 1:
                k = support[0]
                bracket[k][k][j] = 2 * coeff
            else:
                k, l = support
                bracket[k][l][j] = coeff
                bracket[l][k][j] = coeff
    return bracket


def _differential(source, target, signed):
    """Images of the basis of ``source``, slice (p, e), in ``target``, slice
    (p-1, e+2), as sparse columns in the target's coordinates.
    ``signed[j]`` is ``(q_j, -q_j)``; each image is encoded shifted by the
    basis element's monomial, with no product polynomial."""
    return target.images(source, lambda subset: (
        (subset[:t] + subset[t + 1:], signed[j][t % 2])
        for t, j in enumerate(subset)))


def ce_cohomology(ce, degree, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Cohomology dimensions of the cochain model, sliced by bidegree.

    Returns a :class:`GradedDims` with rows indexed by exterior degree
    0..odd_count and columns by polynomial degree 0..degree.  Verifies
    d o d = 0 on every slice it touches.  Raises
    :class:`ResourceLimitError`, before any slice is built, when one would
    have more than ``max_monomials`` coordinates.
    """
    degree = int(degree)
    if degree < 0:
        raise ValidationError("truncation degree must be nonnegative")
    b = ce.odd_count
    # the differential out of degree e lands in degree e + 2
    shape = [(p, e) for p in range(b + 1) for e in range(degree + 3)]
    for p, e in shape:
        _check_cap(f"cochain slice ({p}, {e})",
                   comb(b, p) * ce.even_ring.monomial_count(e), "coordinates",
                   max_monomials)
    # the empty slices of p = -1 and b + 1 included
    slices = {(p, e): ce.slice(p, e) for p in range(-1, b + 2)
              for e in range(degree + 3)}
    signed = [(q, -q) for q in ce.differentials]
    columns = {(p, e): _differential(slices[p, e], slices[p - 1, e + 2], signed)
               for p in range(b + 2) for e in range(degree + 1)}
    ranks = {key: span_of(cols).dim for key, cols in columns.items()}
    table = []
    for p in range(b + 1):
        row = []
        for e in range(degree + 1):
            rank_in = ranks[(p + 1, e - 2)] if e >= 2 else 0
            row.append(len(slices[p, e]) - ranks[(p, e)] - rank_in)
            if e >= 2 and not _composes_to_zero(columns[(p, e)],
                                                columns[(p + 1, e - 2)]):
                raise InvariantError(
                    "cochain differential does not square to zero")
        table.append(row)
    return GradedDims(table=table, degree=degree)


def _composes_to_zero(outer, inner):
    """True when every sparse column of ``inner``, pushed through the
    columns ``outer``, gives zero."""
    for col in inner:
        image = {}
        for c, a in col.items():
            for r, x in outer[c].items():
                image[r] = image.get(r, 0) + a * x
        if any(image.values()):
            return False
    return True
