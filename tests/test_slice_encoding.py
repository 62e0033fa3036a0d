"""Shifted slice encoding against the product polynomials it replaces.

``GradedSlice.encode(entries, shift=m)`` encodes ``x^m * sum(entries)`` by
adding exponents.  These tests compare it with the encoding of the explicit
products ``x^m * p``: directly, on grevlex, lex and weighted rings; in the
cochain differential of :mod:`cising.chevalley`, encoded from its one
face-and-sign rule ``_boundary``; and in the boundary columns
:func:`cising.ciext.hstar_dims` hands to its rank computations.  The
product encodings are kept here as references.

:func:`cising.chevalley.ce_cohomology` checks d o d = 0 once, on the
exterior basis.  The per-slice composite it replaced is kept here as a
reference: under sign rules drawn at random, it finds a nonzero composite on
a slice (p, e) through degree 4 exactly when the exterior-basis check
raises, for every e alike.  A planted sign fault must raise.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cising.chevalley
import cising.ciext
from cising.chevalley import ChevalleyComplex, _boundary, ce_cohomology
from cising.ciext import DGModule, hstar_dims
from cising.errors import InvariantError
from cising.polyring import GradedSlice, PolyRing

PROPERTY = settings(max_examples=60)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c_2"], weights=[1, 1, 2])]

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                         st.sampled_from([1, 1, 2]))


@st.composite
def homogeneous_polys(draw, ring, degree, max_terms=4):
    """A form of the given degree; zero when the degree has no monomials or
    the draw picks none."""
    monos = ring.monomials_of_degree(degree)
    if not monos:
        return ring.zero()
    chosen = draw(st.lists(st.sampled_from(monos), max_size=max_terms,
                           unique=True))
    return sum((ring.monomial(e, draw(coefficients)) for e in chosen),
               ring.zero())


@st.composite
def shifted_entries(draw):
    """A ring, labelled forms of one slice degree -- some labels repeated and
    some entries negated copies of others, so terms cancel -- and a monomial
    to shift them by."""
    ring = draw(st.sampled_from(RINGS))
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    degree = draw(st.integers(1, 3))
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        label = draw(st.integers(0, len(twists) - 1))
        p = draw(homogeneous_polys(ring, degree - twists[label]))
        entries.append((label, p))
        if draw(st.booleans()):
            entries.append((label, -p))
    mono = draw(st.sampled_from(ring.monomials_of_degree(draw(st.integers(0, 2)))))
    top = degree + ring.wdeg(mono)
    coords = GradedSlice(ring, ((k, top - t) for k, t in enumerate(twists)))
    return ring, coords, entries, mono


@PROPERTY
@given(shifted_entries())
def test_shifted_encoding_equals_encoding_of_products(case):
    ring, coords, entries, mono = case
    m = ring.monomial(mono)
    expected = coords.encode((label, m * p) for label, p in entries)
    assert coords.encode(entries, shift=mono) == expected
    if not any(mono):
        assert coords.encode(entries) == expected


# ---------------------------------------------------------------------------
# the cochain differential
# ---------------------------------------------------------------------------


def product_differential(ce, p, e):
    """Columns of the cochain differential on slice (p, e), each image built
    as the product ``q_j * x^mono * (-1)^t`` and then encoded."""
    target = ce.slice(p - 1, e + 2)
    columns = []
    for subset, mono in ce.slice(p, e):
        m = ce.even_ring.monomial(mono)
        columns.append(target.encode(
            (subset[:t] + subset[t + 1:], ce.differentials[j] * m * (-1) ** t)
            for t, j in enumerate(subset)))
    return columns


@st.composite
def cochain_complexes(draw, min_odd=1):
    """2-4 even generators and ``min_odd``-3 quadratic (possibly zero) odd
    images."""
    ring = PolyRing([f"y{k + 1}" for k in range(draw(st.integers(2, 4)))])
    differentials = [draw(homogeneous_polys(ring, 2))
                     for _ in range(draw(st.integers(min_odd, 3)))]
    return ChevalleyComplex(even_ring=ring, differentials=differentials)


@settings(max_examples=30)
@given(cochain_complexes())
def test_cochain_differential_equals_product_encoding(ce):
    signed = [(q, -q) for q in ce.differentials]
    for p in range(ce.odd_count + 2):
        for e in range(3):
            got = ce.slice(p - 1, e + 2).images(
                ce.slice(p, e), lambda subset: _boundary(subset, signed))
            assert got == product_differential(ce, p, e)


# ---------------------------------------------------------------------------
# d o d: the per-slice reference against the exterior-basis check
# ---------------------------------------------------------------------------


def composes_to_zero(outer, inner):
    """True when every sparse column of ``inner``, pushed through the
    columns ``outer``, gives zero."""
    for col in inner:
        image = {}
        for c, a in col.items():
            for r, x in outer[c].items():
                image[r] = image.get(r, 0) + a * x
        if any(image.values()):
            return False
    return True


def slice_composite_is_zero(ce, p, e):
    """Whether d o d vanishes on slice (p, e), by composing the encoded
    columns of (p, e) -> (p-1, e+2) -> (p-2, e+4)."""
    signed = [(q, -q) for q in ce.differentials]

    def columns(p, e):
        return ce.slice(p - 1, e + 2).images(
            ce.slice(p, e),
            lambda subset: cising.chevalley._boundary(subset, signed))

    return composes_to_zero(columns(p - 1, e + 2), columns(p, e))


def raises_invariant_error(ce):
    try:
        ce_cohomology(ce, 0)
    except InvariantError:
        return True
    return False


@st.composite
def sign_rules(draw, b):
    """A face rule that picks ``signed[j][pick[j][t]]`` for member j at
    position t: the correct rule, or one with random wrong signs."""
    if draw(st.booleans()):
        return _boundary
    pick = draw(st.lists(st.lists(st.integers(0, 1), min_size=b, max_size=b),
                         min_size=b, max_size=b))

    def rule(subset, signed):
        return ((subset[:t] + subset[t + 1:], signed[j][pick[j][t]])
                for t, j in enumerate(subset))

    return rule


@settings(max_examples=30)
@given(st.data())
def test_exterior_basis_check_agrees_with_per_slice_reference(data):
    ce = data.draw(cochain_complexes(min_odd=2))
    rule = data.draw(sign_rules(ce.odd_count))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cising.chevalley, "_boundary", rule)
        verdicts = [[slice_composite_is_zero(ce, p, e) for e in range(5)]
                    for p in range(2, ce.odd_count + 1)]
        raised = raises_invariant_error(ce)
    # k[y]-linearity: a slice's verdict depends on p alone
    assert all(len(set(row)) == 1 for row in verdicts)
    assert raised == (not all(all(row) for row in verdicts))


def test_planted_sign_fault_raises(monkeypatch):
    ring = PolyRing(["y1", "y2"])
    ce = ChevalleyComplex(even_ring=ring, differentials=[
        ring.parse("y1^2"), ring.parse("y1*y2")])
    assert not raises_invariant_error(ce)

    def plus_at_every_position(subset, signed):
        return ((subset[:t] + subset[t + 1:], signed[j][0])
                for t, j in enumerate(subset))

    monkeypatch.setattr(cising.chevalley, "_boundary", plus_at_every_position)
    with pytest.raises(InvariantError, match="does not square to zero"):
        ce_cohomology(ce, 0)


# ---------------------------------------------------------------------------
# the DG boundary columns
# ---------------------------------------------------------------------------


def product_boundary_columns(dg, lo, hi):
    """Per total degree ``lo - 1 .. hi``, the boundary columns of the slice,
    each image built as the products ``x^mono * d[r][k]`` and then encoded."""
    ring = dg.ring

    def coords(tau):
        return GradedSlice(ring, ((k, tau - dk) for k, dk in enumerate(dg.degrees)))

    out = []
    for tau in range(lo - 1, hi + 1):
        target = coords(tau + 1)
        out.append([target.encode((r, ring.monomial(mono) * row[k])
                                  for r, row in enumerate(dg.differential)
                                  if not row[k].is_zero())
                    for k, mono in coords(tau)])
    return out


def _matmul(ring, a, b):
    n = len(a)
    return [[sum((a[r][k] * b[k][c] for k in range(n)), ring.zero())
             for c in range(n)] for r in range(n)]


@st.composite
def dg_modules(draw):
    """Cones on powers of an operator and contractible unit pairs, conjugated
    by degree-preserving unipotent automorphisms so the entries mix."""
    ring = PolyRing(["ch1", "ch2"], weights=[2, 2])
    degrees, blocks = [], []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.integers(-1, 2))
        u = len(degrees)
        if draw(st.booleans()):
            degrees += [base, base + 1]
            blocks.append((u + 1, u, ring.one()))
        else:
            power = draw(st.integers(1, 2))
            degrees += [base, base + 2 * power - 1]
            chi = ring.var(draw(st.sampled_from(ring.variables)))
            blocks.append((u, u + 1, chi ** power))
    n = len(degrees)
    matrix = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for r, c, p in blocks:
        matrix[r][c] = p
    moves = [(r, c) for r in range(n) for c in range(n)
             if r != c and degrees[c] >= degrees[r]
             and (degrees[c] - degrees[r]) % 2 == 0]
    chosen = draw(st.lists(st.sampled_from(moves), max_size=3)) if moves else []
    for r, c in chosen:
        lam = draw(homogeneous_polys(ring, degrees[c] - degrees[r], max_terms=2))
        s = [[ring.one() if i == j else ring.zero() for j in range(n)]
             for i in range(n)]
        inverse = [list(row) for row in s]
        s[r][c], inverse[r][c] = lam, -lam
        matrix = _matmul(ring, inverse, _matmul(ring, matrix, s))
    return DGModule(ring=ring, degrees=degrees, differential=matrix)


@settings(max_examples=30)
@given(dg_modules())
def test_dg_boundary_columns_equal_product_encoding(dg):
    seen = []
    original = cising.ciext.span_of

    def spy(vectors):
        vectors = list(vectors)
        seen.append(vectors)
        return original(vectors)

    lo, hi = min(dg.degrees) - 1, max(dg.degrees) + 4
    cising.ciext.span_of = spy
    try:
        hstar_dims(dg, lo, hi)
    finally:
        cising.ciext.span_of = original
    assert seen == product_boundary_columns(dg, lo, hi)
