"""Property tests of Groebner bases, normal forms and syzygies, with sympy as
an independent oracle for reduced Groebner bases, and the engine's pruned
pair set against the all-pairs loop it replaced.  The references form each
S-vector with ``vec_combine`` and read a reduction's cofactors off the
unit vectors it carries, where the engine sums S-vectors in ``int``\\s and
carries the representation rows.

sympy is used here only; the library never imports it.
"""

import heapq
import importlib
import sys
from fractions import Fraction
from unittest.mock import patch

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cising import polyring
from cising.polyring import (
    ONE,
    PolyRing,
    RingPresentation,
    _groebner_ints,
    _integer_vector,
    _MonomialBudget,
    _reduce,
    buchberger,
    hilbert_function,
    normal_form,
    vec_combine,
    vec_lead,
)
from cising.syzygies import (
    module_buchberger,
    syzygies,
    vec_is_zero,
)

from engine_run import _groebner

# the package re-exports the function ``syzygies`` under the module's name
syzygies_module = importlib.import_module("cising.syzygies")

PROPERTY = settings(max_examples=60)
RINGS = [PolyRing(["x", "y"]), PolyRing(["x", "y", "z"])]

coefficients = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))


@st.composite
def polys(draw, ring, max_exponent=2, max_terms=3):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * ring.nvars)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


@st.composite
def ideals(draw):
    """A ring in 2 or 3 variables and 1 to 3 generators, one nonzero."""
    ring = draw(st.sampled_from(RINGS))
    gens = draw(st.lists(polys(ring), min_size=1, max_size=3))
    if all(g.is_zero() for g in gens):
        gens.append(ring.gens()[0] ** 2 - ring.one())
    return ring, gens


@st.composite
def column_sets(draw):
    """A ring in 2 variables, a rank of 1 or 2, and 1 to 3 columns."""
    ring = RINGS[0]
    rank = draw(st.integers(1, 2))
    columns = draw(st.lists(st.lists(polys(ring, max_exponent=1, max_terms=2),
                                     min_size=rank, max_size=rank),
                            min_size=1, max_size=3))
    return ring, rank, columns


def combine(ring, coefficients, vectors):
    out = [ring.zero() for _ in vectors[0]]
    for c, v in zip(coefficients, vectors):
        out = [o + c * p for o, p in zip(out, v)]
    return out


def sympy_reduced_basis(ring, gens):
    symbols = sympy.symbols(ring.variables)
    exprs = [sympy.Poly.from_dict(
        {e: sympy.Rational(c.numerator, c.denominator) for e, c in g.terms.items()},
        *symbols, domain="QQ") for g in gens if not g.is_zero()]
    out = []
    for p in sympy.groebner(exprs, *symbols, order="grevlex", domain="QQ").polys:
        terms = {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in p.terms()}
        lc = terms[max(terms, key=ring.sort_key)]
        out.append({e: c / lc for e, c in terms.items()})
    return out


@PROPERTY
@given(ideals())
def test_buchberger_basis_is_monic_and_interreduced(case):
    ring, gens = case
    basis = buchberger(gens).basis
    leads = [g.lm for g in basis]
    assert [ring.sort_key(m) for m in leads] == sorted(ring.sort_key(m) for m in leads)
    for i, g in enumerate(basis):
        assert g.lc == 1
        for j, lead in enumerate(leads):
            if j != i:
                assert not any(all(a <= b for a, b in zip(lead, e)) for e in g.terms)


@PROPERTY
@given(ideals())
def test_buchberger_certificates(case):
    ring, gens = case
    gb = buchberger(gens)
    for f in gens:
        assert normal_form(f, gb).is_zero()


@PROPERTY
@given(ideals())
def test_buchberger_matches_sympy(case):
    ring, gens = case
    basis = buchberger(gens).basis
    expected = sympy_reduced_basis(ring, gens)
    assert sorted(g.lm for g in basis) == sorted(max(p, key=ring.sort_key)
                                                 for p in expected)
    assert sorted(sorted(g.terms.items()) for g in basis) == \
        sorted(sorted(p.items()) for p in expected)


@PROPERTY
@given(column_sets())
def test_module_buchberger_and_syzygy_certificates(case):
    ring, rank, columns = case
    mgb = module_buchberger(ring, rank, columns)
    for v, row in zip(mgb.basis, mgb.representation):
        assert combine(ring, row, columns) == v
    for s in syzygies(ring, rank, columns):
        assert len(s) == len(columns)
        assert vec_is_zero(combine(ring, s, columns))


# The engine against the all-pairs loop
# ---------------------------------------------------------------------------

REFERENCE_RINGS = [PolyRing(["x", "y"]), PolyRing(["x", "y"], order="lex"),
                   PolyRing(["x", "y", "z"]),
                   PolyRing(["x", "y", "z"], order="lex"),
                   PolyRing(["a", "b_2"], weights=[1, 2])]


def s_vector(ring, vi, vj, ei, ej):
    """``(mi, mj, mi * vi - mj * vj)`` for vectors whose monic leads share a
    component, at packed monomials ``ei`` and ``ej``; the monomials ``mi``
    and ``mj`` take both leads to their lcm."""
    lcm = ring._lcm(ei, ej)
    mi = ring.monomial(ring._unpack(lcm - ei))
    mj = ring.monomial(ring._unpack(lcm - ej))
    return mi, mj, vec_combine(ring, len(vi), [(mi, vi), (-mj, vj)])


def reduce_with_cofactors(ring, v, reducers, leads, budget):
    """``(remainder, cofactors)``: ``_reduce`` of ``[v | 0]`` by the
    ``[g_k | e_k]``, reducing the components of ``v`` and carrying the unit
    vectors, which leaves minus the cofactors."""
    n, zero = len(reducers), ring.zero()
    lifted = [g + [ring.one() if j == k else zero for j in range(n)]
              for k, g in enumerate(reducers)]
    out = _reduce(ring, v + [zero] * n, lifted, leads, budget, width=len(v))
    return out[:len(v)], [-q for q in out[len(v):]]


def all_pairs_groebner(ring, columns, budget, relations=None, seeds=(),
                       cap=None):
    """The engine before the Gebauer-Moeller update: every pair whose leads
    share a component is reduced, lowest weighted lcm degree first, ties by
    index, except those over ``cap[k]`` in component ``k`` when ``cap`` is
    given.  ``relations`` receives the relation of every pair whose S-vector
    is zero or reduces to zero, so with it in place ``syzygies`` reads every
    pair's relation off the all-pairs loop.  The nonzero ``seeds`` follow
    the columns into the basis with zero representation rows."""
    basis = []
    reps = []
    leads = []
    pairs = []

    def add_element(v, rep):
        comp, expo, coeff = vec_lead(v)
        if coeff != 1:
            inv = ONE / coeff
            v = [p * inv for p in v]
            rep = [r * inv for r in rep]
        basis.append(v)
        reps.append(rep)
        budget.charge(sum(len(p.terms) for p in v))
        i = len(basis) - 1
        for j, (jcomp, jexpo, _) in enumerate(leads):
            if jcomp == comp:
                lcm = ring.wdeg(tuple(map(max, ring._unpack(jexpo),
                                          ring._unpack(expo))))
                if cap is None or lcm <= cap[comp]:
                    heapq.heappush(pairs, (lcm, j, i))
        leads.append((comp, expo, ONE))

    unit = [ring.zero() for _ in columns]
    for k, c in enumerate(columns):
        if vec_is_zero(c):
            continue
        row = list(unit)
        row[k] = ring.one()
        add_element(c, row)
    for c in seeds:
        if not vec_is_zero(c):
            add_element(c, list(unit))

    while pairs:
        _, i, j = heapq.heappop(pairs)
        mi, mj, s = s_vector(ring, basis[i], basis[j], leads[i][1], leads[j][1])
        remainder, cofs = s, []
        if not vec_is_zero(s):
            remainder, cofs = reduce_with_cofactors(ring, s, basis, leads, budget)
        rep = vec_combine(ring, len(columns),
                          [(mi, reps[i]), (-mj, reps[j])]
                          + [(-q, row) for q, row in zip(cofs, reps)])
        if not vec_is_zero(remainder):
            add_element(remainder, rep)
        elif relations is not None:
            relations[i, j] = rep

    return basis, reps


def all_pairs_engine(ring, columns, budget, relations=None, seeds=(), *,
                     cap=None):
    """``all_pairs_groebner`` handed over as ``_groebner_ints`` hands over
    its run: each basis vector's ``(d, ints)``, its components over one
    denominator, followed by its representation row on relations runs, and
    its lead."""
    basis, reps = all_pairs_groebner(ring, columns, budget, relations, seeds,
                                     cap)
    rows = reps if relations is not None else [[] for _ in basis]
    return ([_integer_vector(v + row) for v, row in zip(basis, rows)],
            [vec_lead(v) for v in basis])


@st.composite
def homogeneous_polys(draw, ring, degree, max_terms=3):
    monomials = ring.monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=max_terms,
                           unique=True))
    return sum((ring.monomial(e, draw(coefficients)) for e in chosen), ring.zero())


HILBERT_RINGS = [PolyRing(["x", "y", "z"], weights=[1, 2, 1]),
                 PolyRing(["x", "y", "z"], weights=[1, 2, 1], order="lex"),
                 PolyRing(["w", "x", "y", "z"]),
                 PolyRing(["w", "x", "y", "z"], order="lex")]


@st.composite
def homogeneous_ideals(draw):
    """A weighted or four-variable ring, either order, and 1 to 3
    homogeneous generators of degrees 1 to 3 (zero ones included)."""
    ring = draw(st.sampled_from(HILBERT_RINGS))
    gens = [draw(homogeneous_polys(ring, draw(st.integers(1, 3))))
            for _ in range(draw(st.integers(1, 3)))]
    return ring, gens


@PROPERTY
@given(homogeneous_ideals(), st.integers(0, 6))
def test_hilbert_function_counts_the_standard_monomials(case, top):
    """Listing only the variables of the leading monomials and counting
    the others gives the length of every degree's full listing."""
    ring, gens = case
    rp = RingPresentation(ring, gens)
    assert hilbert_function(rp, top) == [len(rp.standard_monomials(d))
                                         for d in range(top + 1)]


@st.composite
def engine_inputs(draw, ranks):
    """A ring (grevlex, lex or weighted), a rank drawn from ``ranks`` and 1 to
    4 columns, homogeneous (a degree per column plus a shift per component)
    or not."""
    ring = draw(st.sampled_from(REFERENCE_RINGS))
    rank = draw(st.sampled_from(ranks))
    homogeneous = draw(st.booleans())
    shifts = draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if homogeneous:
            degree = draw(st.integers(1, 2))
            columns.append([draw(homogeneous_polys(ring, degree + s))
                            for s in shifts])
        else:
            columns.append(draw(st.lists(polys(ring), min_size=rank,
                                         max_size=rank)))
    return ring, rank, columns


def reference_relation_pass(ring, rank, columns, budget):
    """The relation pass before the engine handed over its relations, on
    the engine's basis.  Every same-component pair is reduced against the
    final basis (for a pair the engine reduced to zero, that gives its
    cofactors then, padded with zeros), ``z = mi * e_i - mj * e_j -
    cofactors`` is kept when nonzero and pushed down to the input columns,
    zero or not.  Then each input column gets its residual ``e_k - sum_i
    q_i * representation[i]``, kept when nonzero, with ``q`` its
    cofactors.  Returns the pushed-down pair relations and the residuals
    as ``(k, residual)``; ``budget`` is charged for every reduction."""
    mgb = module_buchberger(ring, rank, columns)
    basis, reps = mgb.basis, mgb.representation
    m, t = len(columns), len(basis)
    leads = [vec_lead(g) for g in basis]
    pair_relations = []
    for i in range(t):
        for j in range(i + 1, t):
            if leads[i][0] != leads[j][0]:
                continue
            mi, mj, s = s_vector(ring, basis[i], basis[j],
                                 leads[i][1], leads[j][1])
            remainder, cofs = reduce_with_cofactors(ring, s, basis, leads,
                                                    budget)
            assert vec_is_zero(remainder)
            z = [-q for q in cofs]
            z[i] = z[i] + mi
            z[j] = z[j] - mj
            if not vec_is_zero(z):
                pair_relations.append(vec_combine(ring, m, zip(z, reps)))
    residuals = []
    for k, c in enumerate(columns):
        remainder, cofs = reduce_with_cofactors(ring, c, basis, leads, budget)
        assert vec_is_zero(remainder)
        w = vec_combine(ring, m, [(-q, row) for q, row in zip(cofs, reps)])
        w[k] = w[k] + ring.one()
        if not vec_is_zero(w):
            residuals.append((k, w))
    return pair_relations, residuals


def reference_syzygies(columns, pair_relations, residuals):
    """What ``syzygies`` returns: the reference relation pass on
    ``columns`` without its zero vectors and the residuals of the nonzero
    input columns.  Repeats are kept."""
    found = [z for z in pair_relations if not vec_is_zero(z)]
    return found + [w for k, w in residuals if vec_is_zero(columns[k])]


def relation_pass_charge(ring, rank, columns):
    """Monomials that asking for relations adds to the one budget
    ``syzygies`` makes: its total, less what the engine charges when no
    relations are asked for (on ideals its criteria then drop pairs).
    Returns that charge and the output of ``syzygies``."""
    made = []

    class RecordingBudget(_MonomialBudget):
        def __init__(self, cap):
            super().__init__(cap)
            made.append(self)

    with patch.object(syzygies_module, "_MonomialBudget", RecordingBudget):
        found = syzygies(ring, rank, columns)
    assert len(made) == 1
    engine_alone = _MonomialBudget(None)
    _groebner(ring, columns, engine_alone)
    return made[0].used - engine_alone.used, found


def scalar_multiple(v, w):
    """True when ``v == c * w`` componentwise for some rational ``c``."""
    for p, q in zip(v, w):
        if not q.is_zero():
            c = p.lc / q.lc if not p.is_zero() else 0
            return all(a == c * b for a, b in zip(v, w))
    return vec_is_zero(v)


LEX_XYZ = REFERENCE_RINGS[3]
# The basis grows x^2 + z^2, x^3 + y^3, x*z^2 - y^3, x*y^3 + z^4.  The M
# criterion drops the pair of x^3 + y^3 with x*y^3 + z^4: lcm x^3*y^3, properly
# divided by x^2*y^3, the lcm of x^2 + z^2 with x*y^3 + z^4.  The all-pairs loop
# reduces the dropped pair first, to y^6 + z^6; with the criteria the same
# vector comes from the next pair.
DIVERGING_IDEAL = (LEX_XYZ, 1, [[LEX_XYZ.parse("x^2 + z^2")],
                                [LEX_XYZ.parse("x^3 + y^3")]])


@settings(max_examples=150)
@example(DIVERGING_IDEAL)
@given(engine_inputs(ranks=[1]))
def test_ideal_engine_against_all_pairs_reference(case):
    """Without relations the criteria keep the reduced basis, which is
    unique.  The budget is never charged more."""
    ring, rank, columns = case
    budget, expected_budget = _MonomialBudget(None), _MonomialBudget(None)
    _groebner(ring, columns, budget)
    all_pairs_groebner(ring, columns, expected_budget)
    assert budget.used <= expected_budget.used

    with patch.object(polyring, "_groebner_ints", all_pairs_engine):
        expected_gb = buchberger([c[0] for c in columns])
    gb = buchberger([c[0] for c in columns])
    assert gb.basis == expected_gb.basis


@settings(max_examples=90)
@example(DIVERGING_IDEAL)
@given(engine_inputs(ranks=[1, 2, 3]))
def test_module_engine_matches_all_pairs_reference(case):
    """Asked for relations, the engine takes exactly the all-pairs path on
    vectors of every length, ideals included: the same basis,
    representation rows, relations and budget, and so the same syzygies.
    Without relations, vectors of length 2 or more build the same basis."""
    ring, rank, columns = case
    budget, expected_budget = _MonomialBudget(None), _MonomialBudget(None)
    expected_relations = {}
    expected = all_pairs_groebner(ring, columns, expected_budget,
                                  expected_relations)
    mgb = module_buchberger(ring, rank, columns)
    assert (mgb.basis, mgb.representation) == expected
    assert mgb.relations == expected_relations
    _groebner(ring, columns, budget, {})
    assert budget.used == expected_budget.used
    if rank > 1:
        assert _groebner(ring, columns, _MonomialBudget(None))[0] == \
            all_pairs_groebner(ring, columns, _MonomialBudget(None))[0]

    with patch.object(syzygies_module, "_groebner_ints", all_pairs_engine):
        expected_syzygies = syzygies(ring, rank, columns)
    assert syzygies(ring, rank, columns) == expected_syzygies


XY = REFERENCE_RINGS[0]
# x*y is y times x: the residual of the second column is e_2 - y*e_1, minus
# the relation of the pair
DIVISIBLE_LEADS = (XY, 1, [[XY.parse("x")], [XY.parse("x*y")]])


@settings(max_examples=120)
@example(DIVERGING_IDEAL)
@example(DIVISIBLE_LEADS)
@given(engine_inputs(ranks=[1, 2, 3]))
def test_syzygies_are_the_reference_pass_without_residuals(case):
    """``syzygies`` gives the relation pass that pushed every pair down and
    added a residual per input column, less its zero vectors and the
    residuals of nonzero columns (repeats are kept).  Each such residual is a
    multiple of a relation it still gives, so the span is the same.  Asking
    for relations reduces, once each, the pairs the criteria would drop on
    ideals, so that charges the budget no more than the pass did."""
    ring, rank, columns = case
    budget = _MonomialBudget(None)
    pair_relations, residuals = reference_relation_pass(ring, rank, columns,
                                                        budget)
    charge, found = relation_pass_charge(ring, rank, columns)
    assert found == reference_syzygies(columns, pair_relations, residuals)
    for k, w in residuals:
        if not vec_is_zero(columns[k]):
            assert any(scalar_multiple(w, z) for z in found)
    assert charge <= budget.used


@PROPERTY
@given(column_sets(), st.data())
def test_seeds_give_the_run_on_the_seeded_columns_cut_to_the_inputs(case, data):
    """``syzygies(..., modulo=f)`` seeds each ``f * e_k`` with a zero
    representation row.  That is the run with those vectors as extra
    columns -- the same basis, pairs and budget -- with every row cut to
    the input columns; its syzygies are the cut relations, less zero
    vectors (repeats are kept), then the unit vectors of zero columns."""
    ring, rank, columns = case
    modulo = data.draw(st.lists(polys(ring, max_terms=2), min_size=1, max_size=2))
    zero, m = ring.zero(), len(columns)
    seeds = [[f if k == row else zero for k in range(rank)]
             for f in modulo if not f.is_zero() for row in range(rank)]
    budget, ambient_budget = _MonomialBudget(None), _MonomialBudget(None)
    relations, ambient_relations = {}, {}
    basis, reps = _groebner(ring, columns, budget, relations, seeds=seeds)
    ambient = _groebner(ring, columns + seeds, ambient_budget, ambient_relations)
    assert basis == ambient[0]
    assert reps == [row[:m] for row in ambient[1]]
    assert relations == {pair: row[:m] for pair, row in ambient_relations.items()}
    assert budget.used == ambient_budget.used

    expected = [row[:m] for _, row in sorted(ambient_relations.items())
                if not vec_is_zero(row[:m])]
    expected += [[ring.one() if j == k else zero for j in range(m)]
                 for k, c in enumerate(columns) if vec_is_zero(c)]
    assert syzygies(ring, rank, columns, modulo=modulo) == expected


@st.composite
def twisted_inputs(draw):
    """A ring from ``REFERENCE_RINGS``, a twist in -1..1 per component of a
    rank 1 to 3, 1 to 4 columns homogeneous of twisted degree 1 to 3 (entry
    ``k`` of degree ``d - twists[k]``, zero when that is negative), their
    twisted degrees, and 0 to 2 forms of degree 1 or 2 to seed as
    ``f * e_k``."""
    ring = draw(st.sampled_from(REFERENCE_RINGS))
    twists = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=3))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    columns = [[draw(homogeneous_polys(ring, d - t)) if d >= t else ring.zero()
                for t in twists] for d in degrees]
    modulo = [draw(homogeneous_polys(ring, draw(st.integers(1, 2))))
              for _ in range(draw(st.integers(0, 2)))]
    return ring, twists, columns, degrees, modulo


@settings(max_examples=100)
@given(twisted_inputs(), st.integers(0, 5))
def test_capped_run_is_the_uncapped_run_through_the_cap(case, top):
    """With ``cap[k] = top - twists[k]`` the engine forms no pair above
    twisted degree ``top``.  Its elements are the uncapped run's less those
    added above ``top``, and its relations, in pair order, are those at or
    below ``top``; so ``syzygies`` gives the uncapped relations through
    ``top``, in order, then the unit vectors of zero columns.  The budget is
    never charged more, and the all-pairs reference under the same cap
    gives the same elements and relations."""
    ring, twists, columns, degrees, modulo = case
    rank, zero = len(twists), ring.zero()
    cap = [top - t for t in twists]
    seeds = [[f if k == row else zero for k in range(rank)]
             for f in modulo if not f.is_zero() for row in range(rank)]
    budget, capped_budget = _MonomialBudget(None), _MonomialBudget(None)
    relations, capped_relations = {}, {}
    elements, leads = _groebner_ints(ring, columns, budget, relations, seeds)
    capped, _ = _groebner_ints(ring, columns, capped_budget, capped_relations,
                               seeds, cap=cap)
    reference_relations = {}
    assert all_pairs_engine(ring, columns, _MonomialBudget(None),
                            reference_relations, seeds, cap=cap)[0] == capped
    assert reference_relations == capped_relations

    def twisted(comp, expo):
        return ring._degree(expo) + twists[comp]

    inputs = sum(not vec_is_zero(c) for c in columns + seeds)
    assert capped == [element for k, (element, (comp, expo, _))
                      in enumerate(zip(elements, leads))
                      if k < inputs or twisted(comp, expo) <= top]
    below = [row for (i, j), row in sorted(relations.items())
             if twisted(leads[i][0], ring._lcm(leads[i][1], leads[j][1])) <= top]
    assert [row for _, row in sorted(capped_relations.items())] == below
    assert capped_budget.used <= budget.used

    def kept(z):
        k = next(k for k, p in enumerate(z) if not p.is_zero())
        return (vec_is_zero(columns[k])
                or z[k].homogeneous_degree() + degrees[k] <= top)

    assert syzygies(ring, rank, columns, modulo=modulo, cap=cap) == \
        [z for z in syzygies(ring, rank, columns, modulo=modulo) if kept(z)]


# The criteria fire on ideals and stay off on modules
# ---------------------------------------------------------------------------

XYZ = RINGS[1]


def spy_on_engine(monkeypatch):
    """Record the lead exponents (unpacked) of every S-vector ``_groebner_ints``
    (``_s_pair``) and the all-pairs loop (``s_vector``) form, and count the
    reductions each of them runs (``_reduce_ints`` and
    ``reduce_with_cofactors``)."""
    calls = {"_groebner_ints": [], "all_pairs_groebner": []}
    reductions = {"_groebner_ints": 0, "all_pairs_groebner": 0}

    def record_pair(original, at):
        # the packed leads are the arguments at ``at`` and ``at + 1``
        def pair(ring, *args):
            caller = sys._getframe(1).f_code.co_name
            if caller in calls:
                calls[caller].append({ring._unpack(e) for e in args[at:at + 2]})
            return original(ring, *args)
        return pair

    def count_reduction(original):
        def reduce(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if caller in reductions:
                reductions[caller] += 1
            return original(*args, **kwargs)
        return reduce

    this = sys.modules[__name__]
    monkeypatch.setattr(polyring, "_s_pair", record_pair(polyring._s_pair, 1))
    monkeypatch.setattr(this, "s_vector", record_pair(s_vector, 2))
    monkeypatch.setattr(polyring, "_reduce_ints",
                        count_reduction(polyring._reduce_ints))
    monkeypatch.setattr(this, "reduce_with_cofactors",
                        count_reduction(reduce_with_cofactors))
    return calls, reductions


def test_product_criterion_skips_coprime_leads(monkeypatch):
    calls, reductions = spy_on_engine(monkeypatch)
    buchberger([XYZ.parse("x^3"), XYZ.parse("y^3")])
    buchberger([XYZ.parse("x^3 - y"), XYZ.parse("y^3 - x")])
    assert calls["_groebner_ints"] == []
    assert reductions["_groebner_ints"] == 0


def test_chain_criterion_drops_a_pair_the_all_pairs_loop_reduces(monkeypatch):
    """xz + z^2 and xy - z^2 give yz^2 + z^3.  Its pairs with both have lcm
    xyz^2, so the F criterion keeps only the first.  No two of the leads xz,
    xy and yz^2 are coprime, so the product criterion plays no part."""
    gens = [XYZ.parse("x*z + z^2"), XYZ.parse("x*y - z^2")]
    xy, yz2 = (1, 1, 0), (0, 1, 2)
    calls, reductions = spy_on_engine(monkeypatch)
    basis, _ = _groebner(XYZ, [[g] for g in gens], _MonomialBudget(None))
    reference, _ = all_pairs_groebner(XYZ, [[g] for g in gens],
                                      _MonomialBudget(None))
    assert basis == reference
    assert [v[0].lm for v in basis] == [(1, 0, 1), xy, yz2]
    assert {xy, yz2} in calls["all_pairs_groebner"]
    assert {xy, yz2} not in calls["_groebner_ints"]
    assert (reductions["_groebner_ints"], reductions["all_pairs_groebner"]) == (2, 3)


def test_product_criterion_is_off_on_modules(monkeypatch):
    """The leads x and y of [x, z] and [y, 0] are coprime in component 0,
    yet their S-vector leaves [0, y*z]."""
    columns = [[XYZ.parse("x"), XYZ.parse("z")], [XYZ.parse("y"), XYZ.zero()]]
    calls, reductions = spy_on_engine(monkeypatch)
    mgb = module_buchberger(XYZ, 2, columns)
    assert reductions["_groebner_ints"] == 1
    assert [vec_lead(v)[0] for v in mgb.basis] == [0, 0, 1]
    assert mgb.basis[2] == [XYZ.zero(), XYZ.parse("y*z")]
    for s in syzygies(XYZ, 2, columns):
        assert vec_is_zero(combine(XYZ, s, columns))


def test_relation_pass_reduces_no_pair_the_engine_reduced_to_zero(monkeypatch):
    """The leads of [x, y], [y, z], [z, x] lie in components 0, 0, 1.  The
    pair of the first two adds [z^2, y^2] (lead y^2 in component 1), whose
    pair with [z, x] the engine reduces to zero and hands over as a
    relation.  Each pair is reduced once, and the pair that added an element
    records nothing."""
    columns = [[XYZ.parse("x"), XYZ.parse("y")], [XYZ.parse("y"), XYZ.parse("z")],
               [XYZ.parse("z"), XYZ.parse("x")]]
    expected = reference_syzygies(columns, *reference_relation_pass(
        XYZ, 2, columns, _MonomialBudget(None)))
    basis = module_buchberger(XYZ, 2, columns).basis
    assert [vec_lead(v)[0] for v in basis] == [0, 0, 1, 1]
    calls, reductions = spy_on_engine(monkeypatch)
    mgb = module_buchberger(XYZ, 2, columns)
    assert list(mgb.relations) == [(2, 3)]
    assert len(calls["_groebner_ints"]) == reductions["_groebner_ints"] == 2
    found = syzygies(XYZ, 2, columns)
    assert found == expected == [mgb.relations[2, 3]]


def test_relations_run_forms_in_flight_the_pair_the_f_criterion_drops(
        monkeypatch):
    """On x*z + z^2 and x*y - z^2 the F criterion drops the pair of x*y - z^2
    with y*z^2 + z^3 (as in the chain criterion test above), so a run
    without relations never forms it.  With relations asked for, the engine
    forms every pair in the all-pairs loop's order, that one included, and
    hands over its relation with the others."""
    columns = [[XYZ.parse("x*z + z^2")], [XYZ.parse("x*y - z^2")]]
    xy, yz2 = (1, 1, 0), (0, 1, 2)
    calls, _ = spy_on_engine(monkeypatch)
    _groebner(XYZ, columns, _MonomialBudget(None))
    assert {xy, yz2} not in calls["_groebner_ints"]
    del calls["_groebner_ints"][:]
    relations = {}
    _groebner(XYZ, columns, _MonomialBudget(None), relations)
    all_pairs_groebner(XYZ, columns, _MonomialBudget(None), {})
    assert {xy, yz2} in calls["_groebner_ints"]
    assert calls["_groebner_ints"] == calls["all_pairs_groebner"]
    # (0, 1) added y*z^2 + z^3, so it records nothing
    assert sorted(relations) == [(0, 2), (1, 2)]
    for row in relations.values():
        assert vec_is_zero(combine(XYZ, row, columns))
    # both push down to the Koszul relation; syzygies hands over both copies
    assert relations[0, 2] == relations[1, 2]
    assert syzygies(XYZ, 1, columns) == [relations[0, 2], relations[1, 2]]


def test_no_s_vector_is_formed_outside_the_engine(monkeypatch):
    """``syzygies`` reads its relations off the engine: every S-vector of a
    call, on ideals and on modules, is formed inside ``_groebner_ints``, and no
    module but ``polyring`` calls a reduction."""
    callers = {"_s_pair": [], "_reduce": [], "_reduce_ints": []}

    def spy(name, original):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            callers[name].append((frame.f_globals["__name__"],
                                  frame.f_code.co_name))
            return original(*args, **kwargs)
        return wrapper

    for name in callers:
        monkeypatch.setattr(polyring, name, spy(name, getattr(polyring, name)))
        assert not hasattr(syzygies_module, name)
    syzygies(XYZ, 1, [[XYZ.parse("x*z + z^2")], [XYZ.parse("x*y - z^2")],
                      [XYZ.parse("x^2")]])
    syzygies(XYZ, 2, [[XYZ.parse("x"), XYZ.parse("y")],
                      [XYZ.parse("y"), XYZ.parse("z")]])
    assert callers["_s_pair"] and set(callers["_s_pair"]) == {
        ("cising.polyring", "_groebner_ints")}
    assert callers["_reduce_ints"]
    assert {module for calls in callers.values() for module, _ in calls} == {
        "cising.polyring"}
