"""Property tests of minimal resolutions over complete intersections.

On random small homogeneous regular sequences (grevlex, lex and weighted
rings), the resolutions of the residue field and of a cyclic module are
complexes, minimal, exact by slice ranks through a degree bound, and their
graded Betti numbers satisfy sum_i (-1)^i beta_i(t) H_A(t) = H_M(t).  H_A is
the closed-form Hilbert series prod_j (1 - t^deg f_j) / prod_i (1 - t^w_i) of
a complete intersection; slices are built from plain polynomial products and
normal forms, without the library's slice encoders.  On the same rings, the
decomposition of an ideal element over the generators, which the degree-2
operators read, rebuilds the element and keeps its constant parts.
"""

from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cising import ciext
from cising.ciext import (
    GradedModulePresentation,
    _ideal_cofactors,
    cyclic_module,
    minimal_resolution,
    residue_field_module,
)
from cising.errors import InvariantError, ResourceLimitError
from cising.exactq import Mat, rank
from cising.polyring import (
    PolyRing,
    RingPresentation,
    _monomial_counts,
    is_regular_sequence,
)

PROPERTY = settings(max_examples=30)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c_2"], weights=[1, 1, 2])]
LENGTH = 3

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
    """A quotient by 1 or 2 homogeneous forms of degree 2 or 3 forming a
    regular sequence, and their degrees."""
    ring = draw(st.sampled_from(RINGS))
    degrees = [draw(st.integers(2, 3)) for _ in range(draw(st.integers(1, 2)))]
    gens = [draw(homogeneous_polys(ring, d)) for d in degrees]
    assume(is_regular_sequence(ring, gens))
    return RingPresentation(ring, gens), degrees


@st.composite
def resolutions(draw):
    """A quotient from ``quotients``, the residue field or a cyclic module
    by 1 or 2 forms of degree 1 or 2, and its minimal resolution to step
    ``LENGTH``."""
    rp, degrees = draw(quotients())
    ring = rp.ring
    if draw(st.booleans()):
        module = residue_field_module(rp)
    else:
        module = cyclic_module(rp, [
            draw(homogeneous_polys(ring, draw(st.integers(1, 2))))
            for _ in range(draw(st.integers(1, 2)))])
    return rp, degrees, module, minimal_resolution(rp, module, LENGTH)


def slice_rank(rp, src_twists, tgt_twists, columns, e):
    """Rank in degree ``e`` of the map sending source generator ``k`` to
    ``columns[k]``: the images of the standard-monomial multiples."""
    tgt = {(r, m): n for n, (r, m) in enumerate(
        (r, m) for r, t in enumerate(tgt_twists)
        for m in rp.standard_monomials(e - t))}
    images = []
    for k, t in enumerate(src_twists):
        for mono in rp.standard_monomials(e - t):
            vec = [Fraction(0)] * len(tgt)
            for r, p in enumerate(columns[k]):
                image = rp.normal_form(rp.ring.monomial(mono) * p)
                for expo, coeff in image.terms.items():
                    vec[tgt[r, expo]] = coeff
            images.append(vec)
    return rank(Mat.from_columns(images, len(tgt))) if images else 0


def free_dim(rp, twists, e):
    return sum(len(rp.standard_monomials(e - t)) for t in twists)


def hilbert_series(ring, degrees, top):
    """Coefficients through ``top`` of prod_j (1 - t^d_j) / prod_i (1 - t^w_i)."""
    series = [1] + [0] * top
    for d in degrees:
        series = [c - (series[n - d] if n >= d else 0)
                  for n, c in enumerate(series)]
    for w in ring.weights:
        for n in range(w, top + 1):
            series[n] += series[n - w]
    return series


def module_hilbert(rp, module, e):
    """dim M_e from the module's own presentation."""
    return (free_dim(rp, module.twists, e)
            - slice_rank(rp, [d for d in module.degrees if d is not None],
                         module.twists,
                         [c for c, d in zip(module.relations, module.degrees)
                          if d is not None], e))


def top_degree(res):
    return max((t for twists in res.twists for t in twists), default=0)


@PROPERTY
@given(resolutions())
def test_differentials_compose_to_zero(case):
    rp, _, _, res = case
    for i in range(1, res.length):
        outer = res.differential(i)
        for v in res.differential(i + 1):
            for r in range(len(res.twists[i - 1])):
                composite = sum((p * col[r] for p, col in zip(v, outer)),
                                rp.ring.zero())
                assert rp.normal_form(composite).is_zero()


@PROPERTY
@given(resolutions())
def test_resolution_is_minimal_and_graded(case):
    """Every entry of every differential is homogeneous of positive degree,
    the source twist less the target twist: no unit entry, so no generator
    of any step is redundant (graded Nakayama, given exactness)."""
    rp, _, _, res = case
    for i in range(1, res.length + 1):
        columns = res.differential(i)
        assert len(columns) == len(res.twists[i])
        for s, column in zip(res.twists[i], columns):
            assert len(column) == len(res.twists[i - 1])
            assert any(not p.is_zero() for p in column)
            for t, p in zip(res.twists[i - 1], column):
                if not p.is_zero():
                    assert p.homogeneous_degree() == s - t > 0
                    assert rp.normal_form(p) == p


@PROPERTY
@given(resolutions())
def test_resolution_is_exact_by_slice_ranks(case):
    """In every degree through the largest twist, d_1 has cokernel M and
    rank(d_i) + rank(d_(i+1)) is the dimension of F_i, for i < LENGTH."""
    rp, _, module, res = case
    for e in range(top_degree(res) + 1):
        ranks = [slice_rank(rp, res.twists[i], res.twists[i - 1],
                            res.differential(i), e)
                 for i in range(1, res.length + 1)]
        assert free_dim(rp, res.twists[0], e) - ranks[0] == \
            module_hilbert(rp, module, e)
        for i in range(1, res.length):
            assert ranks[i - 1] + ranks[i] == free_dim(rp, res.twists[i], e)


@PROPERTY
@given(resolutions())
def test_betti_numbers_satisfy_the_hilbert_series_identity(case):
    """sum_i (-1)^i sum_t beta_i(t) H_A(e - t) = H_M(e) for every degree
    ``e`` the truncation cannot reach: through the smallest twist of the
    last step, or through the largest twist when the resolution stops."""
    rp, degrees, module, res = case
    top = top_degree(res)
    last = res.twists[res.length]
    bound = min(last) if last else top
    h_a = hilbert_series(rp.ring, degrees, top)
    assert h_a == [len(rp.standard_monomials(e)) for e in range(top + 1)]
    for e in range(bound + 1):
        alternating = sum((-1) ** i * h_a[e - t]
                          for i, twists in enumerate(res.twists)
                          for t in twists if t <= e)
        assert alternating == module_hilbert(rp, module, e)


# Tate's bound on the residue field
# ---------------------------------------------------------------------------


def in_m_squared(rp):
    return all(sum(expo) >= 2 for f in rp.ideal for expo in f.terms)


def unbounded(rp, module, length):
    """The resolution with Tate's bound patched away."""
    with patch.object(ciext, "_tate_betti", return_value=None):
        return minimal_resolution(rp, module, length)


@PROPERTY
@given(quotients(), st.sampled_from([-2, -1, 1, 2]))
def test_bounded_resolution_of_the_residue_field_is_the_unbounded_one(
        case, twist):
    """When every f_j lies in m^2, Tate's Betti numbers bound the
    resolution of a twisted residue field; its twists and differentials are
    then exactly those of the unbounded resolution, and its Betti numbers
    are Tate's.  A weighted form with a single-variable term (c_2) takes
    the unbounded path."""
    rp, _ = case
    module = residue_field_module(rp, twist)
    res = minimal_resolution(rp, module, LENGTH + 1)
    expected = unbounded(rp, module, LENGTH + 1)
    assert res.twists == expected.twists
    assert res.differentials == expected.differentials
    tate = ciext._tate_betti(rp, [twist], module.relations, LENGTH + 1)
    assert (tate is not None) == in_m_squared(rp)
    if tate is not None:
        assert [Counter(t) for t in res.twists] == tate


def spy_on_bounds(monkeypatch):
    """Record the ``cap`` of every ``syzygies`` call and the ``counts`` of
    every ``minimal_generators`` call that ``minimal_resolution`` makes."""
    seen = {"cap": [], "counts": []}

    def spy(name, key):
        original = getattr(ciext, name)

        def recorded(*args, **kwargs):
            seen[key].append(kwargs.get(key))
            return original(*args, **kwargs)
        monkeypatch.setattr(ciext, name, recorded)

    spy("syzygies", "cap")
    spy("minimal_generators", "counts")
    return seen


TWO_QUADRICS = RingPresentation(RINGS[0], [RINGS[0].parse("x^2 + y*z"),
                                           RINGS[0].parse("y^2 - x*z")])
LINEAR_TERM = RingPresentation(RINGS[2], [RINGS[2].parse("c_2 + a*b"),
                                          RINGS[2].parse("a^2")])


@pytest.mark.parametrize("rp, module, bounded", [
    pytest.param(TWO_QUADRICS, residue_field_module(TWO_QUADRICS, 1), True,
                 id="residue-field"),
    pytest.param(TWO_QUADRICS, cyclic_module(TWO_QUADRICS, RINGS[0].gens()),
                 True, id="module-listing-the-variables"),
    pytest.param(TWO_QUADRICS, cyclic_module(TWO_QUADRICS,
                                             [RINGS[0].parse("x*y")]),
                 False, id="cyclic-module"),
    pytest.param(LINEAR_TERM, residue_field_module(LINEAR_TERM), False,
                 id="single-variable-term"),
])
def test_only_the_residue_field_over_m_squared_is_bounded(
        monkeypatch, rp, module, bounded):
    """The residue field, also as a cyclic module by the variables, passes
    Tate's bound to every step; a cyclic module that is not the residue
    field, or an f_j with a single-variable term (c_2 of weight 2), passes
    none, and so takes the unbounded path exactly."""
    seen = spy_on_bounds(monkeypatch)
    res = minimal_resolution(rp, module, LENGTH + 1)
    assert seen["cap"] and len(seen["counts"]) == LENGTH + 1
    for value in seen["cap"] + seen["counts"]:
        assert (value is not None) == bounded
    monkeypatch.undo()
    expected = unbounded(rp, module, LENGTH + 1)
    assert (res.twists, res.differentials) == \
        (expected.twists, expected.differentials)


@st.composite
def forms_in_m_squared(draw, ring, degree):
    """Zero or a homogeneous form of ``degree`` with no linear term."""
    monomials = [e for e in ring.monomials_of_degree(degree) if sum(e) >= 2]
    if not monomials or not draw(st.booleans()):
        return ring.zero()
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=2,
                           unique=True))
    return sum((ring.monomial(e, draw(coefficients)) for e in chosen),
               ring.zero())


@st.composite
def linear_changes(draw, span_all=True):
    """A quotient by forms in m^2, and the relations of a one-generator
    presentation: an invertible linear change of the variables (within each
    weight, so each relation is homogeneous), each relation plus a form in
    m^2 or not, then up to two quadrics in m^2.  With ``span_all`` false one
    changed variable is left out, so the linear parts span n - 1 of them."""
    rp, _ = draw(quotients())
    assume(in_m_squared(rp))
    ring = rp.ring
    relations = []
    for w in sorted(set(ring.weights)):
        block = [v for v, wv in enumerate(ring.weights) if wv == w]
        matrix = [[draw(st.integers(-2, 2)) for _ in block] for _ in block]
        assume(rank(Mat(matrix)) == len(block))
        for row in matrix:
            relations.append(sum(
                (ring.monomial(tuple(int(k == v) for k in range(ring.nvars)), c)
                 for v, c in zip(block, row)),
                draw(forms_in_m_squared(ring, w))))
    if not span_all:
        del relations[draw(st.integers(0, len(relations) - 1))]
    relations += draw(st.lists(forms_in_m_squared(ring, 2), max_size=2))
    return rp, [[p] for p in relations]


@PROPERTY
@given(linear_changes(), st.sampled_from([-1, 0, 2]))
def test_a_linear_change_of_the_variables_presents_the_residue_field(
        case, twist):
    """Relations whose linear parts span every variable present the
    residue field: its resolution takes Tate's bound at every kernel step
    and has the twists of ``residue_field_module``."""
    rp, columns = case
    caps = []
    original = ciext.syzygies

    def recorded(*args, **kwargs):
        caps.append(kwargs.get("cap"))
        return original(*args, **kwargs)

    module = GradedModulePresentation(rp, [twist], columns)
    with patch.object(ciext, "syzygies", recorded):
        res = minimal_resolution(rp, module, LENGTH)
    assert caps and None not in caps
    assert res.twists == minimal_resolution(
        rp, residue_field_module(rp, twist), LENGTH).twists


@PROPERTY
@given(linear_changes(span_all=False), st.sampled_from([-1, 0, 2]))
def test_linear_parts_short_of_a_variable_are_not_the_residue_field(
        case, twist):
    rp, columns = case
    module = GradedModulePresentation(rp, [twist], columns)
    twists, relations = ciext._cancel_units(rp, module.twists, module.relations)
    assert ciext._tate_betti(rp, twists, relations, LENGTH) is None


@pytest.mark.parametrize("rp, degree", [
    pytest.param(RingPresentation(PolyRing(["x"]), [PolyRing(["x"]).parse("x^2")]),
                 2, id="dual-numbers"),
    pytest.param(TWO_QUADRICS, 2, id="two-quadrics"),
])
def test_a_kernel_that_misses_a_generator_is_refused(monkeypatch, rp, degree):
    """A ``syzygies`` that drops the first relation of the kernel of d_1,
    at the degree of the generators of step 2, leaves that step short of
    Tate's count; the resolution raises, naming the step and the degree."""
    original = ciext.syzygies
    calls = []

    def faulty(*args, **kwargs):
        relations = original(*args, **kwargs)
        calls.append(1)
        return relations[1:] if len(calls) == 1 else relations

    monkeypatch.setattr(ciext, "syzygies", faulty)
    with pytest.raises(InvariantError,
                       match=f"step 2 has .* in degree {degree}, Tate's"):
        minimal_resolution(rp, residue_field_module(rp), LENGTH)


@pytest.mark.parametrize("rp", [TWO_QUADRICS, LINEAR_TERM],
                         ids=["bounded", "unbounded"])
def test_a_resolution_of_length_zero_is_the_generators_alone(rp):
    """Length 0 (a ``resolve`` job of degree 0) has no differential, though
    the bounded path reads Tate's counts of step 1 to pick the generators."""
    res = minimal_resolution(rp, residue_field_module(rp, 1), 0)
    assert (res.twists, res.differentials) == ([[1]], [])


@st.composite
def ideal_elements(draw):
    """A quotient by 1 to 3 forms of degree 2 or 3 forming a regular
    sequence, and multipliers ``g_j`` (zero or homogeneous, some constant)
    of a common degree ``e`` for ``p = sum_j g_j f_j``."""
    ring = draw(st.sampled_from(RINGS))
    degrees = [draw(st.integers(2, 3)) for _ in range(draw(st.integers(1, 3)))]
    gens = [draw(homogeneous_polys(ring, d)) for d in degrees]
    assume(is_regular_sequence(ring, gens))
    e = draw(st.integers(max(degrees), 4))
    multipliers = [draw(homogeneous_polys(ring, e - d)) if draw(st.booleans())
                   else ring.zero() for d in degrees]
    return RingPresentation(ring, gens), multipliers


@PROPERTY
@given(ideal_elements())
def test_ideal_cofactors_rebuild_the_element_and_keep_constant_parts(case):
    """Any two decompositions over a regular sequence differ by Koszul
    relations, whose entries lie in the maximal ideal, so the constant parts
    are those of the multipliers that built the element.  Zero has zero
    cofactors, and a degree with more monomials than the presentation's cap
    is refused before any monomial is listed."""
    rp, multipliers = case
    ring, zero = rp.ring, rp.ring.zero()
    p = sum((g * f for g, f in zip(multipliers, rp.ideal)), zero)
    solvers = {}
    cofactors = _ideal_cofactors(rp, p, solvers)
    assert len(cofactors) == len(rp.ideal)
    assert sum((c * f for c, f in zip(cofactors, rp.ideal)), zero) == p
    assert [c.constant_coefficient() for c in cofactors] == \
        [g.constant_coefficient() for g in multipliers]
    assert _ideal_cofactors(rp, zero, solvers) == [zero] * len(rp.ideal)

    top = next(d for d, n in enumerate(_monomial_counts(ring.weights, 4000))
               if n > rp.max_monomials)
    f = rp.ideal[0]
    huge = ring.monomial([top - f.homogeneous_degree()] + [0] * (ring.nvars - 1)) * f
    with patch.object(PolyRing, "_packed_monomials",
                      side_effect=AssertionError("a monomial was listed")), \
            pytest.raises(ResourceLimitError, match=f"degree {top} has"):
        _ideal_cofactors(rp, huge, {})
