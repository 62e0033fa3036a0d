"""Property tests of the relation rows the Groebner engine carries through
its reductions.

On a relations run every basis element is reduced as ``basis[k] + reps[k]``
and each S-vector is summed in ``int``\\s from the two elements' integer
forms, so the part the reduction carries is the pair's row.  Here every row
is rebuilt the long way -- S-vector and row by ``vec_combine``, cofactors by
a max-scan ``Fraction`` reduction -- and must match, together with the
basis, the representation rows and the monomial budget, whose exit-3
thresholds must not move.  The inputs are non-monic, with non-integer
rational coefficients (the benchmark's are all integers), on grevlex, lex
and weighted rings, ranks 1 to 3, with and without seeds.
"""

import heapq
from fractions import Fraction
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cising.errors import ResourceLimitError
from cising.polyring import (
    ZERO,
    Poly,
    PolyRing,
    _MonomialBudget,
    buchberger,
    normal_form_with_cofactors,
    vec_combine,
    vec_is_zero,
    vec_lead,
)
from cising.syzygies import module_buchberger, syzygies

from engine_run import _groebner

PROPERTY = settings(max_examples=60)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c"], weights=[1, 2, 1])]

# nonzero, most of them not integers
coefficients = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                         st.sampled_from([1, 2, 3, 5, 6]))


@st.composite
def polys(draw, ring, max_terms=3):
    """A squarefree polynomial (rational lex bases grow fast otherwise)."""
    exponents = st.tuples(*[st.integers(0, 1)] * ring.nvars)
    return Poly(ring, draw(st.dictionaries(exponents, coefficients,
                                           max_size=max_terms)))


@st.composite
def relations_runs(draw):
    """A ring, a rank of 1 to 3, 1 to 3 columns and 0 to 2 ``modulo``
    polynomials."""
    ring = draw(st.sampled_from(RINGS))
    rank = draw(st.integers(1, 3))
    columns = draw(st.lists(st.lists(polys(ring), min_size=rank, max_size=rank),
                            min_size=1, max_size=3))
    modulo = draw(st.lists(polys(ring, max_terms=2), max_size=2))
    return ring, rank, columns, modulo


def max_scan_reduce(ring, v, reducers, leads, budget):
    """``(remainder, cofactors)`` of ``v`` by ``reducers``, in ``Fraction``
    arithmetic on exponent tuples: each step rescans every remaining term
    for the largest (term over position), takes the first reducer whose
    lead divides it, and charges ``budget`` the terms left."""
    key = ring.sort_key
    cur = [dict(p.terms) for p in v]
    rem = [{} for _ in v]
    cofactors = [{} for _ in reducers]
    while any(cur):
        comp, expo = max(((c, max(t, key=key)) for c, t in enumerate(cur) if t),
                         key=lambda ce: (key(ce[1]), -ce[0]))
        coeff = cur[comp][expo]
        hit = next((k for k, (lc, le_) in enumerate(leads)
                    if lc == comp and all(map(le, le_, expo))), None)
        if hit is None:
            rem[comp][expo] = cur[comp].pop(expo)
            continue
        shift = tuple(map(sub, expo, leads[hit][1]))
        q = coeff / reducers[hit][comp].terms[leads[hit][1]]
        cofactors[hit][shift] = q
        for terms, g in zip(cur, reducers[hit]):
            for e, c in g.terms.items():
                e = tuple(map(add, shift, e))
                s = terms.get(e, ZERO) - q * c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        budget.charge(sum(map(len, cur)))
    return [Poly(ring, r) for r in rem], [Poly(ring, c) for c in cofactors]


def reference_run(ring, columns, seeds):
    """The relations run written the long way: every same-component pair,
    lowest weighted lcm degree first, ties by index; the S-vector ``mi * vi
    - mj * vj`` and the row ``mi * reps[i] - mj * reps[j] - sum_k q_k *
    reps[k]`` by ``vec_combine``, ``q`` the max-scan cofactors.  Returns the
    basis, the rows, the relations and the monomials charged."""
    basis, reps, leads, pairs, relations = [], [], [], [], {}
    budget = _MonomialBudget(None)
    m = len(columns)

    def add_element(v, rep):
        comp, packed, coeff = vec_lead(v)
        basis.append([p * (1 / coeff) for p in v])
        reps.append([r * (1 / coeff) for r in rep])
        budget.charge(sum(len(p.terms) for p in basis[-1]))
        expo = ring._unpack(packed)
        for j, (jcomp, jexpo) in enumerate(leads):
            if jcomp == comp:
                lcm = tuple(map(max, jexpo, expo))
                heapq.heappush(pairs, (ring.wdeg(lcm), j, len(leads)))
        leads.append((comp, expo))

    for k, c in enumerate(columns):
        if not vec_is_zero(c):
            add_element(c, [ring.one() if j == k else ring.zero() for j in range(m)])
    for c in seeds:
        if not vec_is_zero(c):
            add_element(c, [ring.zero()] * m)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        lcm = tuple(map(max, leads[i][1], leads[j][1]))
        mi = ring.monomial(tuple(map(sub, lcm, leads[i][1])))
        mj = ring.monomial(tuple(map(sub, lcm, leads[j][1])))
        s = vec_combine(ring, len(basis[i]), [(mi, basis[i]), (-mj, basis[j])])
        remainder, cofactors = s, []
        if not vec_is_zero(s):
            remainder, cofactors = max_scan_reduce(ring, s, basis, leads, budget)
        row = vec_combine(ring, m, [(mi, reps[i]), (-mj, reps[j])]
                          + [(-q, rep) for q, rep in zip(cofactors, reps)])
        if vec_is_zero(remainder):
            relations[i, j] = row
        else:
            add_element(remainder, row)
    return basis, reps, relations, budget.used


@PROPERTY
@given(relations_runs())
def test_carried_rows_are_the_rows_built_from_cofactors(case):
    """Basis, representation rows, every relation row and the budget, on
    the run ``module_buchberger`` makes (seeds ``f * e_k`` after the
    columns)."""
    ring, rank, columns, modulo = case
    seeds = [[f if k == row else ring.zero() for k in range(rank)]
             for f in modulo if f for row in range(rank)]
    expected = reference_run(ring, columns, seeds)
    budget, relations = _MonomialBudget(10**5), {}
    basis, reps = _groebner(ring, columns, budget, relations, seeds=seeds)
    assert (basis, reps, relations, budget.used) == expected
    mgb = module_buchberger(ring, rank, columns, modulo=modulo)
    assert (mgb.basis, mgb.representation, mgb.relations) == expected[:3]
    for s in syzygies(ring, rank, columns, modulo=modulo):
        assert len(s) == len(columns)


@PROPERTY
@given(st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(
    st.just(ring), st.lists(polys(ring), min_size=1, max_size=3),
    polys(ring, max_terms=4))))
def test_carried_unit_vectors_give_the_cofactors(case):
    """``normal_form_with_cofactors`` carries ``[g_k | e_k]``: the
    remainder and cofactors of the max-scan reduction."""
    ring, gens, p = case
    if not any(gens):
        gens.append(ring.gens()[0] - Fraction(1, 3))
    gb = buchberger(gens)
    leads = [(0, g.lm) for g in gb.basis]
    remainder, cofactors = max_scan_reduce(ring, [p], [[g] for g in gb.basis],
                                           leads, _MonomialBudget(None))
    assert normal_form_with_cofactors(p, gb) == (remainder[0], cofactors)


def test_a_pair_over_the_limit_is_still_refused():
    """A relations run reduces every pair, so it forms the S-vector of
    x^32767 and y^32767, whose lcm is over the limit."""
    ring = PolyRing(["x", "y"])
    columns = [[ring.parse("x^32767")], [ring.parse("y^32767")]]
    with pytest.raises(ResourceLimitError, match="over 32767"):
        syzygies(ring, 1, columns)
