"""Groebner bases and syzygies for free modules over a polynomial ring.

An element of a rank-``r`` free module is a plain list of ``r`` polynomials.
The order on module terms is term-over-position: ring monomials are compared
first, ties broken toward the smaller component index.  Everything is exact
and deterministic.  The Buchberger engine and the reduction routine live in
:mod:`cising.polyring`, which runs them on ideals as the rank-1 case; this
module validates columns and extracts syzygies from the engine's output.

Syzygies come from Schreyer's theorem (Eisenbud, *Commutative Algebra*,
Thm. 15.10): the S-pair relations of a Groebner basis, pushed down to the
input columns through the representation rows, generate every relation among
the inputs.  Each nonzero input column is seeded as a basis element, so no
further relation is needed for it.  The engine hands back the relation of
every pair it reduced to zero; only the other pairs are rebuilt, by
``polyring._s_vector`` (the same routine the engine pairs with), and reduced
again.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InvariantError, ValidationError
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    Poly,
    PolyRing,
    _groebner,
    _MonomialBudget,
    _pair_row,
    _reduce,
    _s_vector,
    vec_is_zero,
    vec_lead,
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
    ``basis[i] == sum_k representation[i][k] * generators[k]`` componentwise.
    ``relations`` maps each pair ``(i, j)`` the engine reduced to zero to
    the relation it gives among the generators (see
    :func:`cising.polyring._groebner`).
    """

    ring: PolyRing
    rank: int
    generators: list
    basis: list
    representation: list
    relations: dict = field(default_factory=dict)


def module_buchberger(ring, rank, columns, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Module Groebner basis of the span of ``columns`` inside ``R^rank``.

    Pair selection is deterministic: only pairs whose leads share a
    component are formed, lowest weighted lcm degree first, ties by index.
    Columns of length 1 go through the product and Gebauer-Moeller chain
    criteria of :func:`cising.polyring._groebner`.  Longer vectors reduce
    every such pair: the product criterion fails for them, and the chain
    criteria would change which vectors the basis holds.
    """
    columns = _validate_columns(ring, rank, columns)
    relations = {}
    basis, reps = _groebner(ring, columns, _MonomialBudget(max_monomials),
                            relations=relations)
    return ModuleGroebnerBasis(ring=ring, rank=rank, generators=columns,
                               basis=basis, representation=reps,
                               relations=relations)


def module_normal_form_with_cofactors(ring, v, gb):
    """Normal form of a module vector plus cofactors against the basis."""
    reducers = gb.basis if isinstance(gb, ModuleGroebnerBasis) else list(gb)
    if not reducers:
        return list(v), []
    return _reduce(ring, v, reducers)


def module_normal_form(ring, v, gb):
    return module_normal_form_with_cofactors(ring, v, gb)[0]


def syzygies(ring, rank, columns, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Generators of the syzygy module of ``columns``.

    Returns nonzero vectors ``s`` of length ``len(columns)`` with
    ``sum_k s[k] * columns[k] == 0`` componentwise; together they generate
    every such relation.  The output order is deterministic: the relations
    of the basis pairs whose leads share a component (pair order), then the
    unit vector of each zero input column.  A pair the engine reduced to
    zero gives the relation it recorded; only the pairs that added a basis
    element (their relation is zero), and on ideals those the criteria
    skipped, are reduced here, against the final basis.
    """
    columns = _validate_columns(ring, rank, columns)
    mgb = module_buchberger(ring, rank, columns, max_monomials=max_monomials)
    budget = _MonomialBudget(max_monomials)
    basis, reps = mgb.basis, mgb.representation
    leads = [vec_lead(g) for g in basis]
    result = []
    for i, j in combinations(range(len(basis)), 2):
        if leads[i][0] != leads[j][0]:
            continue
        relation = mgb.relations.get((i, j))
        if relation is None:
            mi, mj, s = _s_vector(ring, basis[i], basis[j],
                                  leads[i][1], leads[j][1])
            remainder, cofs = _reduce(ring, s, basis, leads, budget)
            if not vec_is_zero(remainder):
                raise InvariantError("S-vector failed to reduce to zero "
                                     "against a Groebner basis")
            relation = _pair_row(ring, reps, i, j, mi, mj, cofs)
        if not vec_is_zero(relation):
            result.append(relation)
    for k, c in enumerate(columns):
        if vec_is_zero(c):
            unit = [ring.zero()] * len(columns)
            unit[k] = ring.one()
            result.append(unit)
    return result
