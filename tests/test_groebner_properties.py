"""Property tests of Groebner bases, normal forms and syzygies, with sympy as
an independent oracle for reduced Groebner bases.

sympy is used here only; the library never imports it.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cising.polyring import PolyRing, buchberger, normal_form
from cising.syzygies import module_buchberger, syzygies, vec_is_zero

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
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
    for g, row in zip(gb.basis, gb.representation):
        assert len(row) == len(gens)
        assert combine(ring, row, [[f] for f in gens]) == [g]
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
