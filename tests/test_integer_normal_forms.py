"""Property tests of the integer sums on the resolution path.

A ring presentation sums its cached monomial normal forms in ``int``\\s over
one common denominator (``normal_form``, ``encode_multiples``), checked here
against the Groebner basis's own ``normal_form``; the Buchberger engine builds
each reducer's integer form from its ``int``\\s once for a whole run, checked
against the same run with every form rebuilt from polynomials on each
reduction.  The ideals have non-monic generators with rational, non-integer
coefficients on grevlex, lex and weighted rings, so denominators above 1
reach every sum: the benchmark inputs are all integer.
"""

from fractions import Fraction
from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from cising import polyring
from cising.polyring import (
    GradedSlice,
    Poly,
    PolyRing,
    RingPresentation,
    _MonomialBudget,
    _reduce,
    _reduce_ints,
    _reducer_form,
    normal_form,
    normal_form_with_cofactors,
    vec_combine,
)

from engine_run import _groebner

PROPERTY = settings(max_examples=60)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c"], weights=[1, 2, 1])]

# nonzero, and most of them not integers
coefficients = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 6]))


@st.composite
def homogeneous_polys(draw, ring, degree, max_terms=3):
    monomials = ring.monomials_of_degree(degree)
    if not monomials:
        return ring.zero()
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1,
                           max_size=max_terms, unique=True))
    return sum((ring.monomial(e, draw(coefficients)) for e in chosen), ring.zero())


@st.composite
def polys(draw, ring, max_exponent=2, max_terms=4):
    """A polynomial of mixed degrees."""
    exponents = st.tuples(*[st.integers(0, max_exponent)] * ring.nvars)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


@st.composite
def presentations(draw):
    """A quotient by 1 to 3 homogeneous generators of degree 1 to 3 with a
    lead coefficient other than 1."""
    ring = draw(st.sampled_from(RINGS))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        g = draw(homogeneous_polys(ring, draw(st.integers(1, 3))))
        if g and g.lc != 1:
            gens.append(g)
    gens = gens or [ring.monomial((1,) * ring.nvars, Fraction(-2, 3))]
    return RingPresentation(ring, gens)


def fresh_integer_form(p):
    """The integer form of ``p`` rebuilt from its coefficients."""
    return Poly(p.ring, p.terms).integer_form()


@PROPERTY
@given(presentations(), st.data())
def test_summed_normal_form_is_the_groebner_normal_form(rp, data):
    """Also its handed-over integer form, and the remainder and cofactors
    that carrying unit vectors through the reduction gives (forms built
    afresh for the lifted reducers) against the basis's kept reducer forms
    and the same reduction with nothing carried."""
    ring = rp.ring
    for _ in range(3):
        p = data.draw(polys(ring))
        nf = rp.normal_form(p)
        assert nf == normal_form(p, rp.gb)
        assert all(type(c) is Fraction for c in nf.terms.values())
        assert nf.integer_form() == fresh_integer_form(nf)
        remainder, cofactors = normal_form_with_cofactors(p, rp.gb)
        assert [remainder] == _reduce(ring, [p], rp.gb._reducers) == [nf]
        assert len(cofactors) == len(rp.gb.basis)
        rebuilt = vec_combine(ring, 1, [(q, [g]) for q, g in
                                        zip(cofactors, rp.gb.basis)])[0]
        assert rebuilt + remainder == p
        assert remainder.integer_form() == fresh_integer_form(remainder)


@st.composite
def multiples(draw):
    """A presentation, twists, a homogeneous column and the degree of the
    standard monomials to shift it by."""
    rp = draw(presentations())
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    degree = draw(st.integers(1, 3))
    column = [draw(homogeneous_polys(rp.ring, degree - t)) for t in twists]
    return rp, twists, column, degree, draw(st.integers(0, 2))


@PROPERTY
@given(multiples())
def test_encoded_multiples_are_the_encoded_normal_forms(case):
    """One vector per standard monomial ``m`` of the shift degree, in
    order: ``coords.encode`` of the normal form of ``x^m * v``.  Each
    vector's coordinates are all ``int``\\s (no denominator is left) or all
    ``Fraction``\\s."""
    rp, twists, column, degree, shift = case
    ring = rp.ring
    coords = GradedSlice(rp, ((k, degree + shift - t) for k, t in enumerate(twists)))
    expected = [coords.encode((k, normal_form(ring.monomial(m) * p, rp.gb))
                              for k, p in enumerate(column))
                for m in rp.standard_monomials(shift)]
    got = rp.encode_multiples(coords, enumerate(column), shift)
    assert got == expected
    for vec in got:
        ints = [a for a in vec.values() if type(a) is int]
        assert not ints or len(ints) == len(vec)


@st.composite
def engine_runs(draw):
    """A ring, 1 to 3 columns of rank 1 or 2 (squarefree entries of up to
    three terms: rational lex bases grow fast) and, for the rank, seeds as
    ``module_buchberger`` makes them from one generator."""
    ring = draw(st.sampled_from(RINGS))
    rank = draw(st.integers(1, 2))
    entries = polys(ring, max_exponent=1, max_terms=3)
    columns = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                            min_size=1, max_size=3))
    seeds = []
    if draw(st.booleans()):
        f = draw(homogeneous_polys(ring, 2))
        seeds = [[f if k == row else ring.zero() for k in range(rank)]
                 for row in range(rank)]
    return ring, columns, seeds


def rebuilding_reduce(ring, scale, cur, forms, leads, budget, width):
    """The engine's reduction with no reducer form kept from an earlier
    call: each is rebuilt by ``_reducer_form`` from a fresh polynomial
    vector, whose component ``k`` is ``f * t / d`` for each part ``(k, f,
    t)`` of the kept form ``(d, lc, parts)``."""
    rebuilt = []
    for (d, _, parts), (comp, lt, _) in zip(forms, leads):
        vector = [ring.zero()] * len(cur)
        for k, f, t in parts:
            vector[k] = Poly(ring, {ring._unpack(e): Fraction(f * c, d)
                                    for e, c in t.items()})
        rebuilt.append(_reducer_form(vector, comp, lt))
    return _reduce_ints(ring, scale, cur, rebuilt, leads, budget, width)


@PROPERTY
@given(engine_runs(), st.booleans())
def test_kept_reducer_forms_match_forms_rebuilt_on_every_reduction(case, track):
    """Basis, representation rows, relations and budget, on relations runs
    and on runs that ask for none.  The cap, far above what these runs use,
    turns a run that would never end into a failure."""
    ring, columns, seeds = case
    runs = []
    for reduce in (_reduce_ints, rebuilding_reduce):
        relations = {} if track else None
        budget = _MonomialBudget(10**5)
        with patch.object(polyring, "_reduce_ints", reduce):
            basis, reps = _groebner(ring, columns, budget, relations, seeds=seeds)
        runs.append((basis, reps, relations, budget.used))
    assert runs[0] == runs[1]
