"""The Groebner engine keeps its elements as integer forms and builds a
polynomial only for what a caller keeps.

``buchberger`` builds exactly its reduced basis, ``syzygies`` builds no
basis or representation polynomial of the module Groebner basis behind it,
and ``minimal_generators`` builds only the columns it keeps: checked with a
spy on ``Poly`` construction and against the ``Poly``-path
``minimal_generators`` it replaced, kept here as the reference.  The
decomposition over the ideal generators that the Eisenbud operators read is
checked against the one that re-packed every monomial.
"""

from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cising import ciext, polyring
from cising.ciext import (
    _GRADED_HINT,
    ext_module,
    minimal_generators,
    residue_field_module,
)
from cising.errors import GradingError
from cising.exactq import IncrementalSpan, Mat, solver
from cising.polyring import (
    GradedSlice,
    Poly,
    PolyRing,
    RingPresentation,
    buchberger,
)
from cising.syzygies import module_buchberger, syzygies

PROPERTY = settings(max_examples=60)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c"], weights=[1, 2, 1])]

# nonzero, and most of them not integers
coefficients = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                         st.sampled_from([1, 2, 3, 4, 6]))


def spy_on_polys(monkeypatch):
    """Every ``Poly`` made from here on, in the order made: each comes from
    ``Poly(...)`` or ``Poly._of``."""
    made = []
    of, init = Poly._of.__func__, Poly.__init__

    def record_of(cls, *args, **kwargs):
        made.append(of(cls, *args, **kwargs))
        return made[-1]

    def record_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Poly, "_of", classmethod(record_of))
    monkeypatch.setattr(Poly, "__init__", record_init)
    return made


IDEALS = [(RINGS[0], ["x^2 + y*z", "y^2 + x*z", "z^2 + x*y"]),
          (RINGS[1], ["2/3*x^2 - y*z", "x*y + 5/7*z^2", "x*z - y^2"]),
          (RINGS[2], ["a^2 - 1/2*b", "a*c - c^2", "b*c + a^3*c"])]


@pytest.mark.parametrize("ring, gens", IDEALS)
def test_buchberger_builds_only_its_reduced_basis(monkeypatch, ring, gens):
    """The engine adds elements, which the interreduction prunes or
    tail-reduces, and none of them becomes a polynomial: the polynomials
    made are the basis returned, one each."""
    gens = [ring.parse(g) for g in gens]
    runs = []
    engine = polyring._groebner_ints

    def count(*args):
        runs.append(engine(*args))
        return runs[-1]

    monkeypatch.setattr(polyring, "_groebner_ints", count)
    made = spy_on_polys(monkeypatch)
    gb = buchberger(gens)
    [(elements, _)] = runs
    assert len(elements) > len(gens)
    assert [id(p) for p in made] == [id(g) for g in gb.basis]


def test_syzygies_build_no_basis_or_representation(monkeypatch):
    """``syzygies`` reads only the relations: of the module Groebner basis
    it asks for, neither the basis nor the representation rows are built,
    and reading them later builds them once."""
    ring = RINGS[0]
    columns = [[ring.parse("x"), ring.parse("y")], [ring.parse("y"), ring.parse("z")],
               [ring.parse("z"), ring.parse("x")]]
    built = []
    original = module_buchberger

    def keep(*args, **kwargs):
        built.append(original(*args, **kwargs))
        return built[-1]

    with patch("cising.syzygies.module_buchberger", keep):
        found = syzygies(ring, 2, columns)
    [mgb] = built
    assert found and "_built" not in vars(mgb)
    basis = mgb.basis
    assert mgb.representation is mgb.representation and mgb.basis is basis
    assert basis == module_buchberger(ring, 2, columns).basis


# ---------------------------------------------------------------------------
# minimal_generators against the Poly path
# ---------------------------------------------------------------------------


def poly_path_column_degree(twists, column, what):
    degree = None
    for i, p in enumerate(column):
        if p.is_zero():
            continue
        d = twists[i] + p.homogeneous_degree()
        if degree is None:
            degree = d
        elif degree != d:
            raise GradingError(
                f"{what} mixes degrees {degree} and {d}" + _GRADED_HINT)
    return degree


def poly_path_minimal_generators(rp, twists, columns):
    """``minimal_generators`` as it was before the integer normal forms:
    every offered column normal-formed into polynomials, checked by their
    degrees and encoded by ``GradedSlice.encode``."""
    cols = []
    for j, column in enumerate(columns):
        nf = [rp.normal_form(p) for p in column]
        d = poly_path_column_degree(twists, nf, f"column {j + 1}")
        if d is not None:
            cols.append((d, j, nf))
    accepted = []
    for e in sorted({d for d, _, _ in cols}):
        coords = GradedSlice(rp, ((k, e - t) for k, t in enumerate(twists)))
        span = IncrementalSpan()
        for d, _, v in accepted:
            for vec in rp.encode_multiples(coords, enumerate(v), e - d):
                span.add(vec)
        accepted += [(d, j, v) for d, j, v in cols
                     if d == e and span.add(coords.encode(enumerate(v)))]
    return [v for _, _, v in accepted], [d for d, _, _ in accepted]


@st.composite
def homogeneous_polys(draw, ring, degree, max_terms=3):
    monomials = ring.monomials_of_degree(degree) if degree >= 0 else []
    if not monomials:
        return ring.zero()
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=max_terms,
                           unique=True))
    return sum((ring.monomial(e, draw(coefficients)) for e in chosen), ring.zero())


@st.composite
def offered_columns(draw):
    """A quotient by one or two homogeneous generators, twists, and up to
    six columns: homogeneous ones of degree 1 to 3, multiples of the
    generators (zero in the quotient), columns whose entries disagree on the
    degree and columns with an entry of two degrees."""
    ring = draw(st.sampled_from(RINGS))
    gens = [g for g in (draw(homogeneous_polys(ring, draw(st.integers(1, 2))))
                        for _ in range(draw(st.integers(1, 2)))) if g]
    gens = gens or [ring.gens()[0] ** 2]
    rp = RingPresentation(ring, gens)
    twists = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["graded"] * 3 + ["vanishing", "mixed",
                                                      "inhomogeneous"]))
        degree = draw(st.integers(1, 3))
        column = [draw(homogeneous_polys(ring, degree - t)) for t in twists]
        if kind == "vanishing":
            f = draw(st.sampled_from(gens))
            column = [p * f for p in column]
        elif kind == "mixed":
            k = draw(st.integers(0, len(twists) - 1))
            column[k] = draw(homogeneous_polys(ring, degree + 1 - twists[k]))
        elif kind == "inhomogeneous":
            k = draw(st.integers(0, len(twists) - 1))
            column[k] = column[k] + ring.gens()[-1] ** (degree + 1 - twists[k])
        columns.append(column)
    return rp, twists, columns


def outcome(minimal, rp, twists, columns):
    try:
        return minimal(rp, twists, columns)
    except GradingError as err:
        return str(err)


@PROPERTY
@given(offered_columns())
def test_minimal_generators_match_the_poly_path(case):
    """The same kept columns (as polynomials), degrees and ``GradingError``
    messages."""
    rp, twists, columns = case
    assert (outcome(minimal_generators, rp, twists, columns)
            == outcome(poly_path_minimal_generators, rp, twists, columns))


# ---------------------------------------------------------------------------
# the decomposition over the ideal generators
# ---------------------------------------------------------------------------


def repacking_ideal_cofactors(rp, p, solvers):
    """``_ideal_cofactors`` as it was: multipliers listed as exponent tuples
    for every generator, and each cofactor packed monomial by monomial."""
    ring = rp.ring
    if p.is_zero():
        return [ring.zero()] * len(rp.ideal)
    e = p.homogeneous_degree()
    if e not in solvers:
        coords = GradedSlice(ring, [(0, e)])
        blocks = [ring.monomials_of_degree(e - f.homogeneous_degree()) if f
                  else [] for f in rp.ideal]
        columns = [coords.encode([(0, f)], shift=m)
                   for f, block in zip(rp.ideal, blocks) for m in block]
        solvers[e] = coords, blocks, solver(Mat.from_columns(
            [[v.get(c, 0) for c in range(len(coords))] for v in columns],
            len(coords)))
    coords, blocks, solve = solvers[e]
    b = coords.encode([(0, p)])
    x = iter(solve([b.get(c, 0) for c in range(len(coords))]))
    return [Poly(ring, {m: next(x) for m in block}) for block in blocks]


@pytest.mark.parametrize("variables, ideal", [
    (["x", "y"], ["x^2", "y^2"]),
    (["x", "y", "z"], ["x^2 + y*z", "y^2 - 2/3*x*z"]),
    (["w", "x", "y", "z"], ["w*x - y^2", "x*z + 1/2*w^2", "z^2"]),
])
def test_operator_lifts_match_the_repacking_decomposition(variables, ideal):
    ring = PolyRing(variables)
    rp = RingPresentation(ring, [ring.parse(f) for f in ideal])
    ext = ext_module(rp, residue_field_module(rp), 5)
    with patch.object(ciext, "_ideal_cofactors", repacking_ideal_cofactors):
        expected = ext_module(rp, residue_field_module(rp), 5)
    assert ext.operator_lifts == expected.operator_lifts
    assert ext.operators == expected.operators
