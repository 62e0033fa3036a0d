"""Property tests of the fraction-free polynomial products and of the leads
the reduction hands over.

``Poly.__mul__`` and ``vec_combine`` sum integer forms over one common
denominator; the ``Fraction`` loops they replaced are kept here as
references, and the results must hold the same terms, with no zero
coefficient.  Every remainder of ``_reduce`` and every element that
``_groebner`` and ``buchberger`` return must carry a cached lead equal to
the largest term, found afresh.
"""

from fractions import Fraction
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from cising.polyring import (
    ONE,
    ZERO,
    Poly,
    PolyRing,
    _MonomialBudget,
    _reduce,
    buchberger,
    vec_combine,
    vec_lead,
)

from engine_run import _groebner

PROPERTY = settings(max_examples=80)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c"], weights=[1, 2, 3])]

# large pairwise coprime denominators (distinct primes), and 1 for the
# integer coefficients mixed in with them
DENOMINATORS = [1, 1, 2, 3, 2**31 - 1, 10**9 + 7, 998244353, 2**61 - 1]
coefficients = st.builds(Fraction, st.integers(-10**12, 10**12),
                         st.sampled_from(DENOMINATORS))


@st.composite
def polys(draw, ring, max_exponent=3, max_terms=4, coefficients=coefficients):
    """A polynomial, the zero one included."""
    exponents = st.tuples(*[st.integers(0, max_exponent)] * ring.nvars)
    return Poly(ring, draw(st.dictionaries(exponents, coefficients,
                                           max_size=max_terms)))


def expo_add(a, b):
    return tuple(map(add, a, b))


def fraction_product(p, q):
    """``Poly.__mul__`` before the integer forms: one ``Fraction`` product
    and sum per pair of terms."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            expo = expo_add(e1, e2)
            s = terms.get(expo, ZERO) + c1 * c2
            if s:
                terms[expo] = s
            else:
                del terms[expo]
    return terms


def fraction_combine(n, terms):
    """``vec_combine`` before the integer forms, as term dicts without the
    cancelled terms."""
    acc = [{} for _ in range(n)]
    for q, v in terms:
        for e1, c1 in q.terms.items():
            for out, p in zip(acc, v):
                for e2, c2 in p.terms.items():
                    e = expo_add(e1, e2)
                    out[e] = out.get(e, ZERO) + c1 * c2
    return [{e: c for e, c in t.items() if c} for t in acc]


def assert_same_terms(got, want):
    assert got.terms == want
    assert all(type(c) is Fraction and c for c in got.terms.values())


@st.composite
def products(draw):
    """Two factors; half the time ``(a + b) * (a - b)``, whose cross terms
    cancel."""
    ring = draw(st.sampled_from(RINGS))
    a, b = draw(polys(ring)), draw(polys(ring))
    if draw(st.booleans()):
        return a + b, a - b
    return a, b


@PROPERTY
@given(products())
def test_product_matches_the_fraction_loop(case):
    p, q = case
    assert_same_terms(p * q, fraction_product(p, q))


@st.composite
def combinations(draw):
    """Multipliers and vectors with zero entries and zero multipliers among
    them; some summands are followed by their negation, so that the sum can
    cancel in part or in full."""
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    vectors = st.lists(polys(ring), min_size=n, max_size=n)
    terms = []
    for q, v in draw(st.lists(st.tuples(polys(ring), vectors), max_size=4)):
        terms.append((q, v))
        negate = draw(st.sampled_from([None, "multiplier", "entries"]))
        if negate == "multiplier":
            terms.append((-q, v))
        elif negate == "entries":
            terms.append((q, [-p for p in v]))
    return ring, n, terms


@PROPERTY
@given(combinations())
def test_vec_combine_matches_the_fraction_loop(case):
    ring, n, terms = case
    for got, want in zip(vec_combine(ring, n, terms), fraction_combine(n, terms)):
        assert_same_terms(got, want)


def test_cancelling_sums_keep_no_zero_term():
    ring = RINGS[0]
    q = ring.parse("1/1000000007*x - 3/998244353*y^2 + 5")
    v = [ring.parse("x*y - 7/2147483647*z"), ring.zero(), ring.parse("2/3")]
    w = v[0]
    assert vec_combine(ring, 3, [(q, v), (ring.zero(), v), (-q, v)]) == [ring.zero()] * 3
    assert_same_terms((q + w) * (q - w),
                      fraction_combine(1, [(q, [q]), (-w, [w])])[0])


def assert_leads_handed_over(ring, vectors):
    for v in vectors:
        for p in v:
            if p.terms:
                assert p._lead is not None
                assert ring._unpack(p._lead) == max(p.terms, key=ring.sort_key)


# Groebner runs on small coefficients, so that lex bases stay small
small = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 7]))


@st.composite
def column_sets(draw, max_rank=2):
    """A ring, a rank up to ``max_rank`` and 1 to 3 small columns."""
    ring = draw(st.sampled_from(RINGS))
    rank = draw(st.integers(1, max_rank))
    entries = polys(ring, max_exponent=2, max_terms=3, coefficients=small)
    columns = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                            min_size=1, max_size=3))
    return ring, columns


@PROPERTY
@given(column_sets(), st.data())
def test_reduce_hands_over_the_remainder_leads(case, data):
    ring, columns = case
    v = data.draw(st.lists(polys(ring), min_size=len(columns[0]),
                           max_size=len(columns[0])))
    reducers = [c for c in columns if any(c)]
    remainder = _reduce(ring, v, reducers, [vec_lead(c) for c in reducers])
    assert_leads_handed_over(ring, [remainder])


@PROPERTY
@given(column_sets(), st.booleans())
def test_groebner_elements_carry_their_leads(case, track):
    ring, columns = case
    basis, _ = _groebner(ring, columns, _MonomialBudget(None),
                         relations={} if track else None)
    assert_leads_handed_over(ring, basis)


@PROPERTY
@given(column_sets(max_rank=1))
def test_buchberger_elements_carry_their_leads(case):
    ring, columns = case
    gb = buchberger([p for [p] in columns])
    assert_leads_handed_over(ring, [gb.basis])


@PROPERTY
@given(column_sets())
def test_monic_scaling_matches_the_fraction_product(case):
    """Each nonzero column enters the engine's basis divided by its lead
    coefficient, and so does its representation row: built from integer
    forms, both equal the ``Fraction`` products ``p * (ONE / lc)``."""
    ring, columns = case
    basis, reps = _groebner(ring, columns, _MonomialBudget(None), relations={})
    nonzero = [k for k, c in enumerate(columns) if any(c)]
    for v, row, k in zip(basis, reps, nonzero):
        lc = vec_lead(columns[k])[2]
        unit = [ring.one() if j == k else ring.zero() for j in range(len(columns))]
        assert v == [p * (ONE / lc) for p in columns[k]]
        assert row == [r * (ONE / lc) for r in unit]
        assert all(type(c) is Fraction for p in v + row for c in p.terms.values())
