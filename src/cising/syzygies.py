"""Groebner bases and syzygies for free modules over a polynomial ring.

An element of a rank-``r`` free module is a plain list of ``r`` polynomials,
ordered term over position: ring monomials first, ties toward the smaller
component index.  Everything is exact and deterministic.  The Buchberger
engine and the reduction live in :mod:`cising.polyring`, as does the normal
form of a module vector (:func:`module_normal_form`, bound here too); this
module validates columns and reads syzygies off the engine's run.

Syzygies come from Schreyer's theorem (Eisenbud, *Commutative Algebra*,
Thm. 15.10): the S-pair relations of a Groebner basis, pushed down to the
input columns through the representation rows, generate every relation among
the inputs.  Each nonzero input column is seeded as a basis element, so no
further relation is needed for it.  The engine forms and reduces every
S-vector and hands back each pair's relation; this module only reads them
out.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ValidationError
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    Poly,
    PolyRing,
    _groebner_ints,
    _MonomialBudget,
    _split,
    module_normal_form,
    vec_is_zero,
)


def _validate_columns(ring, rank, columns):
    columns = [list(c) for c in columns]
    for c in columns:
        if len(c) != rank:
            raise ValidationError("module vector length does not match the rank")
        for p in c:
            if not isinstance(p, Poly) or p.ring != ring:
                raise ValidationError("module entries must be polynomials in the ring")
    return columns


@dataclass
class ModuleGroebnerBasis:
    """A module Groebner basis with its build certificate.

    ``basis`` vectors are monic in their lead term.  Unlike the scalar case
    the basis is *not* interreduced -- redundant members are kept because
    the syzygy extraction pairs every member.
    ``representation[i][k]`` are polynomials with
    ``basis[i] == sum_k representation[i][k] * generators[k]`` componentwise,
    modulo the ``f * e_k`` that :func:`module_buchberger` seeds.  Both are
    built from ``elements``, the engine's integer forms, when first read.
    ``relations`` maps each pair ``(i, j)`` whose leads share a component,
    except those that added a basis element, to the relation it gives among
    the generators (see :func:`cising.polyring._groebner_ints`).
    """

    ring: PolyRing
    rank: int
    generators: list
    elements: list = field(repr=False)
    relations: dict = field(default_factory=dict)

    basis = property(lambda self: self._built[0])
    representation = property(lambda self: self._built[1])

    @cached_property
    def _built(self):
        return _split(self.ring, self.elements, len(self.generators))


def module_buchberger(ring, rank, columns, max_monomials=DEFAULT_MAX_MONOMIALS,
                      modulo=(), *, cap=None):
    """Module Groebner basis of the span of ``columns`` inside ``R^rank``,
    plus ``modulo`` (polynomials) times ``R^rank``.

    Pair selection is deterministic: only pairs whose leads share a
    component are formed, lowest weighted lcm degree first, ties by index.
    Every such pair is reduced, columns of length 1 included, since each
    owes its relation (see :func:`cising.polyring._groebner_ints`).  Each
    ``f * e_k`` (``f`` nonzero, then ``k``) is seeded after the columns.
    ``cap[k]``, when given, bounds the weighted lcm degree of the pairs
    formed in component ``k`` (see :func:`cising.polyring._groebner_ints`).
    """
    columns = _validate_columns(ring, rank, columns)
    zero = ring.zero()
    seeds = [[f if k == row else zero for k in range(rank)]
             for [f] in _validate_columns(ring, 1, ([f] for f in modulo))
             if not f.is_zero() for row in range(rank)]
    relations = {}
    elements, _ = _groebner_ints(ring, columns, _MonomialBudget(max_monomials),
                                 relations=relations, seeds=seeds, cap=cap)
    return ModuleGroebnerBasis(ring=ring, rank=rank, generators=columns,
                               elements=elements, relations=relations)


def syzygies(ring, rank, columns, max_monomials=DEFAULT_MAX_MONOMIALS,
             modulo=(), *, cap=None):
    """Generators of the syzygy module of ``columns`` over ``R/(modulo)``.

    Returns nonzero vectors ``s`` of length ``len(columns)`` with
    ``sum_k s[k] * columns[k] == 0`` componentwise modulo the ideal of
    ``modulo`` (exactly, when it is empty); together they generate every
    such relation.  The output order is deterministic: the relations
    :func:`module_buchberger` hands over, in pair order, less zero vectors,
    then the unit vector of each zero input column.  Two pairs can push
    down to the same vector; such repeats are kept (a caller after a
    minimal set drops them as dependent columns).  The reductions behind them all
    charge the one ``max_monomials`` budget of the engine run.

    Truncated syzygies: on columns homogeneous for twists ``t`` of the rank
    components, ``cap = [D - t_k for t_k in t]`` forms no pair above
    twisted degree ``D``.  The relations are then exactly those of the
    uncapped call of twisted degree at most ``D``, in the same order
    (then the unit vectors, which the cap leaves alone).
    """
    gb = module_buchberger(ring, rank, columns, max_monomials=max_monomials,
                           modulo=modulo, cap=cap)
    m = len(gb.generators)
    return ([relation for _, relation in sorted(gb.relations.items())
             if not vec_is_zero(relation)]
            + [[ring.one() if j == k else ring.zero() for j in range(m)]
               for k, c in enumerate(gb.generators) if vec_is_zero(c)])
