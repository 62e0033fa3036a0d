"""Groebner bases and syzygies for free modules over a polynomial ring.

An element of a rank-``r`` free module is a plain list of ``r`` polynomials.
The order on module terms is term-over-position: ring monomials are compared
first, ties broken toward the smaller component index.  Everything is exact
and deterministic.  The Buchberger engine and the reduction routine live in
:mod:`cising.polyring`, which runs them on ideals as the rank-1 case; this
module validates columns and extracts syzygies from the engine's output.

Syzygies are computed by the classical two-step scheme: build a module
Groebner basis while tracking how each basis vector was assembled from the
input columns, then convert the trivial relations among S-vectors (each one
reduces to zero, and the reduction is a certificate) into generators of the
full syzygy module of the inputs.  The engine hands back the certificate of
every pair it reduced to zero; only the other pairs are rebuilt, by
``polyring._s_vector`` (the same routine the engine pairs with), and
reduced again.  Every relation is pushed down to the input columns by
``polyring.vec_combine``.
"""

from dataclasses import dataclass, field

from .errors import InvariantError, ValidationError
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    Poly,
    PolyRing,
    _groebner,
    _MonomialBudget,
    _reduce,
    _s_vector,
    vec_combine,
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
    the basis is *not* interreduced -- redundant members are kept because the
    syzygy extraction needs reduction certificates against the full list.
    ``zero_reductions`` holds the engine's certificates, ``(i, j) -> (mi, mj,
    cofactors)`` for each pair it reduced to zero (see
    :func:`cising.polyring._groebner`); the cofactors stop at the basis
    length the engine had then.
    ``representation[i][k]`` are polynomials with
    ``basis[i] == sum_k representation[i][k] * generators[k]`` componentwise.
    """

    ring: PolyRing
    rank: int
    generators: list
    basis: list
    representation: list
    zero_reductions: dict = field(default_factory=dict)


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
    zero_reductions = {}
    basis, reps = _groebner(ring, columns, _MonomialBudget(max_monomials),
                            zero_reductions=zero_reductions)
    return ModuleGroebnerBasis(ring=ring, rank=rank, generators=columns,
                               basis=basis, representation=reps,
                               zero_reductions=zero_reductions)


def module_normal_form_with_cofactors(ring, v, gb):
    """Normal form of a module vector plus cofactors against the basis."""
    reducers = gb.basis if isinstance(gb, ModuleGroebnerBasis) else list(gb)
    if not reducers:
        return list(v), []
    return _reduce(ring, v, reducers)


def module_normal_form(ring, v, gb):
    return module_normal_form_with_cofactors(ring, v, gb)[0]


def module_member(ring, v, gb):
    """True when ``v`` lies in the span of the basis ``gb`` was built from."""
    return vec_is_zero(module_normal_form(ring, v, gb))


def syzygies(ring, rank, columns, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Generators of the syzygy module of ``columns``.

    Returns vectors ``s`` of length ``len(columns)`` with
    ``sum_k s[k] * columns[k] == 0`` componentwise; together they generate
    every such relation.  Zero input columns contribute their unit vectors.
    The output order is deterministic: relations coming from basis pairs
    first (pair order), then one residual relation per input column.  A
    pair the engine reduced to zero takes its certificate from
    ``zero_reductions``; only the pairs that added a basis element, and on
    ideals those the criteria skipped, are reduced here.
    """
    columns = _validate_columns(ring, rank, columns)
    m = len(columns)
    mgb = module_buchberger(ring, rank, columns, max_monomials=max_monomials)
    budget = _MonomialBudget(max_monomials)
    t = len(mgb.basis)
    leads = [vec_lead(g) for g in mgb.basis]

    # Relations among the basis vectors: every same-component S-vector
    # reduces to zero, and the recorded reduction is the relation.
    basis_relations = []
    for i in range(t):
        for j in range(i + 1, t):
            if leads[i][0] != leads[j][0]:
                continue
            certificate = mgb.zero_reductions.get((i, j))
            if certificate is not None:
                mi, mj, cofs = certificate
                cofs = cofs + [ring.zero()] * (t - len(cofs))
            else:
                mi, mj, s = _s_vector(ring, mgb.basis[i], mgb.basis[j],
                                      leads[i][1], leads[j][1])
                remainder, cofs = _reduce(ring, s, mgb.basis, leads, budget)
                if not vec_is_zero(remainder):
                    raise InvariantError("S-vector failed to reduce to zero "
                                         "against a Groebner basis")
            z = [-q for q in cofs]
            z[i] = z[i] + mi
            z[j] = z[j] - mj
            if not vec_is_zero(z):
                basis_relations.append(z)

    # Push the basis relations down to the input columns, then add one
    # residual relation per column, e_k - sum_i q_i * representation[i],
    # where the q_i express column k in the basis (remainder must vanish).
    result = [vec_combine(ring, m, zip(z, mgb.representation))
              for z in basis_relations]
    for k, c in enumerate(columns):
        remainder, cofs = _reduce(ring, c, mgb.basis, leads, budget)
        if not vec_is_zero(remainder):
            raise InvariantError(
                "input column failed to reduce against its own Groebner basis")
        w = vec_combine(ring, m, [(-q, row)
                                  for q, row in zip(cofs, mgb.representation)])
        w[k] = w[k] + ring.one()
        if not vec_is_zero(w):
            result.append(w)
    return result
