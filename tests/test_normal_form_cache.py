"""Property tests of the caches a ring presentation keeps: the monomial
normal forms that ``normal_form`` sums, and ``encode_multiples`` sums with
each standard monomial of a degree as the shift into slice coordinates,
checked against the whole-polynomial ``normal_form`` of the Groebner basis,
and the standard monomials of each degree.  Quotients are by random homogeneous regular sequences on grevlex,
lex and weighted rings.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cising.polyring import (
    GradedSlice,
    PolyRing,
    RingPresentation,
    is_regular_sequence,
    normal_form,
)

PROPERTY = settings(max_examples=40)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c_2"], weights=[1, 1, 2])]
TOP = 5

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                         st.sampled_from([1, 1, 2]))


@st.composite
def homogeneous_polys(draw, ring, degree, max_terms=3):
    chosen = draw(st.lists(st.sampled_from(ring.monomials_of_degree(degree)),
                           min_size=1, max_size=max_terms, unique=True))
    return sum((ring.monomial(e, draw(coefficients)) for e in chosen),
               ring.zero())


@st.composite
def quotients(draw):
    """A presentation by 1 or 2 homogeneous forms of degree 2 or 3 that form
    a regular sequence."""
    ring = draw(st.sampled_from(RINGS))
    gens = [draw(homogeneous_polys(ring, draw(st.integers(2, 3))))
            for _ in range(draw(st.integers(1, 2)))]
    assume(is_regular_sequence(ring, gens))
    return RingPresentation(ring, gens)


@st.composite
def normal_form_columns(draw):
    """A quotient, twists, a homogeneous column in normal form that is not
    zero in the quotient, its degree and the degree of the standard
    monomials to shift it by."""
    rp = draw(quotients())
    ring = rp.ring
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    degree = draw(st.integers(2, 3))
    column = [rp.normal_form(draw(homogeneous_polys(ring, degree - t)))
              for t in twists]
    assume(any(not p.is_zero() for p in column))
    return rp, twists, column, degree, draw(st.integers(0, 2))


@PROPERTY
@given(quotients())
def test_cached_monomial_normal_forms_match_normal_form(rp):
    ring = rp.ring
    for d in range(TOP + 1):
        for mono in ring.monomials_of_degree(d):
            expected = normal_form(ring.monomial(mono), rp.gb)
            assert rp.normal_form(ring.monomial(mono)) == expected
            assert rp.normal_form(ring.monomial(mono)) == expected


XYZ = RINGS[0]
# not in normal form: x^2 and -y^2 reduce to canceling terms
CANCELING = (RingPresentation(XYZ, [XYZ.parse("x^2 - y^2")]), [0, 1],
             [XYZ.parse("x^2 - y^2 + x*y"), XYZ.parse("x")], 2, 0)


@PROPERTY
@given(normal_form_columns())
@example(CANCELING)
def test_encoded_multiples_match_normal_forms_of_the_products(case):
    """``encode_multiples`` sums the cached normal forms of the shifted
    monomials straight into slice coordinates: per standard monomial of the
    shift degree, the encoded normal form of the product, also when read a
    second time, from the cache."""
    rp, twists, column, degree, shift = case
    coords = GradedSlice(rp, ((k, degree + shift - t)
                              for k, t in enumerate(twists)))
    expected = [coords.encode((k, normal_form(rp.ring.monomial(m) * p, rp.gb))
                              for k, p in enumerate(column))
                for m in rp.standard_monomials(shift)]
    assert rp.encode_multiples(coords, enumerate(column), shift) == expected
    assert rp.encode_multiples(coords, enumerate(column), shift) == expected


@PROPERTY
@given(quotients(), st.integers(0, TOP))
def test_standard_monomials_survive_mutation_by_callers(rp, d):
    first = rp.standard_monomials(d)
    expected = list(first)
    first.append((9,) * rp.ring.nvars)
    first.reverse()
    assert rp.standard_monomials(d) == expected
    rp.standard_monomials(d).clear()
    assert rp.standard_monomials(d) == expected
