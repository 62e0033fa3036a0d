"""Property tests of the polynomial-vector kernels: the heap-driven,
fraction-free reduction against the plain max-scan ``Fraction`` loop it
replaced (its cofactors read off the carried unit vectors), one linear
combination against naive ``Poly`` sums, and the ``str``/``parse_poly``
round trip.
"""

from collections import Counter
from fractions import Fraction
from operator import add, le, sub

from hypothesis import given, settings
from hypothesis import strategies as st

from cising.polyring import (
    ZERO,
    Poly,
    PolyRing,
    RingPresentation,
    _reduce,
    normal_form,
    parse_poly,
    vec_combine,
    vec_lead,
)

PROPERTY = settings(max_examples=80)
RINGS = [PolyRing(["x", "y"]), PolyRing(["x", "y"], order="lex"),
         PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b_2"], weights=[1, 2])]

# denominators 5, 7 and 12 and leads such as -6/5 make a step's gcd(a, lc)
# differ from |lc| and its factor lc / gcd negative
coefficients = st.builds(Fraction, st.integers(-6, 6),
                         st.sampled_from([1, 1, 2, 3, 5, 7, 12]))


@st.composite
def polys(draw, ring, max_exponent=3, max_terms=4):
    exponents = st.tuples(*[st.integers(0, max_exponent)] * ring.nvars)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=max_terms))
    return Poly(ring, terms)


def vectors(ring, rank, **kwargs):
    return st.lists(polys(ring, **kwargs), min_size=rank, max_size=rank)


class Recorder:
    """A monomial budget without a cap that records every charge."""

    def __init__(self):
        self.charges = []

    def charge(self, n):
        self.charges.append(n)


def max_scan_reduce(ring, v, reducers, leads, budget):
    """The reduction loop before the heap: each step rescans every remaining
    term for the largest one (term over position, smallest component on
    ties).  Exponents are tuples throughout; the packed leads of
    :func:`vec_lead` are unpacked first."""
    leads = [None if lead is None else (lead[0], ring._unpack(lead[1]), lead[2])
             for lead in leads]
    key = ring.sort_key
    cur = [dict(p.terms) for p in v]
    rem = [{} for _ in v]
    cofactors = [{} for _ in reducers]
    while True:
        best = None
        for comp, terms in enumerate(cur):
            if terms:
                expo = max(terms, key=key)
                k = key(expo)
                if best is None or k > best[0]:
                    best = (k, comp, expo)
        if best is None:
            break
        _, comp, expo = best
        coeff = cur[comp][expo]
        for hit, lead in enumerate(leads):
            if lead is not None and lead[0] == comp and all(map(le, lead[1], expo)):
                break
        else:
            rem[comp][expo] = coeff
            del cur[comp][expo]
            continue
        shift = tuple(map(sub, expo, lead[1]))
        q = coeff / lead[2]
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


def carrying_reduce(ring, v, reducers, leads, budget):
    """``(remainder, cofactors)`` of ``_reduce`` on ``[v | 0]`` by the
    ``[g_k | e_k]``, reducing the components of ``v`` and carrying the unit
    vectors: the cofactors are minus the carried part."""
    n, zero = len(reducers), ring.zero()
    lifted = [g + [ring.one() if j == k else zero for j in range(n)]
              for k, g in enumerate(reducers)]
    out = _reduce(ring, v + [zero] * n, lifted, leads, budget, width=len(v))
    return out[:len(v)], [-q for q in out[len(v):]]


@st.composite
def reductions(draw):
    """A ring, a vector of rank 1 to 3, and 1 to 4 nonzero reducers, some of
    them switched off by a None lead."""
    ring = draw(st.sampled_from(RINGS))
    rank = draw(st.integers(1, 3))
    v = draw(vectors(ring, rank))
    reducers = draw(st.lists(vectors(ring, rank, max_exponent=2, max_terms=3)
                             .filter(lambda r: any(r)), min_size=1, max_size=4))
    leads = [vec_lead(r) if draw(st.integers(0, 4)) else None for r in reducers]
    return ring, v, reducers, leads


@PROPERTY
@given(reductions())
def test_reduce_matches_the_max_scan_loop(case):
    ring, v, reducers, leads = case
    expected_budget, budget = Recorder(), Recorder()
    expected = max_scan_reduce(ring, v, reducers, leads, expected_budget)
    remainder, cofactors = carrying_reduce(ring, v, reducers, leads, budget)
    assert remainder == expected[0]
    assert cofactors == expected[1]
    assert budget.charges == expected_budget.charges
    for got, want in zip(remainder + cofactors, expected[0] + expected[1]):
        assert list(got.terms) == list(want.terms)
        assert all(type(c) is Fraction for c in got.terms.values())


def test_reduce_matches_the_max_scan_loop_when_the_scale_grows_and_signs_flip():
    """Leads -6/5 and 4/7 against coefficients 3/4 and -10/3: the integer
    leads -6 and 4 share only part of each term's numerator, so the scale
    grows by a factor that is not 1, and the first one is negative."""
    ring = PolyRing(["x", "y"])
    v = [ring.parse("3/4*x^3 - 10/3*x^2*y + 5*x*y^2 - 7/12*y^3")]
    reducers = [[ring.parse("-6/5*x^2 + y^2")], [ring.parse("4/7*x*y - 1/2*y^2")]]
    leads = [vec_lead(g) for g in reducers]
    expected_budget, budget = Recorder(), Recorder()
    expected = max_scan_reduce(ring, v, reducers, leads, expected_budget)
    assert carrying_reduce(ring, v, reducers, leads, budget) == expected
    assert budget.charges == expected_budget.charges
    assert all(q.terms for q in expected[1])


def test_normal_forms_build_each_reducer_integer_form_once(monkeypatch):
    """Repeated normal forms against one basis, whole polynomials and the
    presentation's monomial by monomial, read each basis element's integer
    form and reuse it: none is built twice (the reduction that made a
    basis element hands it over, so it may be built never)."""
    ring = PolyRing(["x", "y", "z"])
    rp = RingPresentation(ring, [ring.parse("2/3*x^2 - y*z"),
                                 ring.parse("x*y + 5/7*z^2")])
    built, read = Counter(), set()
    original = Poly.integer_form

    def integer_form(self):
        read.add(id(self))
        if self._integer is None:
            built[id(self)] += 1
        return original(self)

    monkeypatch.setattr(Poly, "integer_form", integer_form)
    # each basis element's own lead reduces by it, so every one is used
    inputs = ([ring.monomial(g.lm) for g in rp.gb.basis]
              + [ring.parse(t) for t in ["x^3", "x^2*y + z^3", "x^4 - 1/2*y^4"]])
    for p in inputs * 3:
        normal_form(p, rp.gb)
        rp.normal_form(p)
    basis = {id(g) for g in rp.gb.basis}
    assert basis <= read
    assert all(built[k] <= 1 for k in basis)


@st.composite
def combinations(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(0, 3))
    terms = draw(st.lists(st.tuples(polys(ring), vectors(ring, n)), max_size=4))
    return ring, n, terms


@PROPERTY
@given(combinations())
def test_vec_combine_matches_naive_sums(case):
    ring, n, terms = case
    expected = [ring.zero() for _ in range(n)]
    for q, v in terms:
        expected = [e + q * p for e, p in zip(expected, v)]
    assert vec_combine(ring, n, terms) == expected


@PROPERTY
@given(st.sampled_from(RINGS).flatmap(lambda ring: st.tuples(
    st.just(ring), polys(ring, max_exponent=12, max_terms=6))))
def test_parse_inverts_str(case):
    ring, p = case
    assert parse_poly(ring, str(p)) == p
