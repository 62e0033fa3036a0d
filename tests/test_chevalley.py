import random
from fractions import Fraction

import pytest

from cising.chevalley import (
    ChevalleyComplex,
    ce_cohomology,
    chevalley_cochain,
    extract_bracket,
)
from cising.errors import ResourceLimitError, ValidationError
from cising.polyring import PolyRing, RingPresentation, hilbert_function
from cising.tangentlie import tangent_lie

F = Fraction


def lie_for(variables, strings, point=None):
    ring = PolyRing(variables)
    polys = [ring.parse(s) for s in strings]
    if point is None:
        point = [F(0)] * ring.nvars
    return tangent_lie(polys, point)


def test_cochain_of_cone():
    ce = chevalley_cochain(lie_for(["x", "y"], ["x^2 + y^2"]))
    assert ce.even_count == 2 and ce.odd_count == 1
    assert str(ce.differentials[0]) == "y1^2 + y2^2"


def test_cochain_rejects_nonquadratic_differential():
    ring = PolyRing(["y1"])
    with pytest.raises(ValidationError):
        ChevalleyComplex(even_ring=ring, differentials=[ring.parse("y1^3")])


def test_cohomology_cone_matches_quotient_hilbert():
    ce = chevalley_cochain(lie_for(["x", "y"], ["x^2 + y^2"]))
    dims = ce_cohomology(ce, 8)
    assert dims.row(0) == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert dims.row(1) == [0] * 9


def test_cohomology_two_quadrics_cross_path():
    # independent route: Hilbert function of the quotient ring itself
    lie = lie_for(["x", "y"], ["x^2", "y^2"])
    ce = chevalley_cochain(lie)
    dims = ce_cohomology(ce, 8)
    ring = PolyRing(["x", "y"])
    rp = RingPresentation(ring, [ring.parse("x^2"), ring.parse("y^2")])
    assert dims.row(0) == hilbert_function(rp, 8)
    for p in range(1, ce.odd_count + 1):
        assert dims.row(p) == [0] * 9


def test_cohomology_zero_differential():
    ring = PolyRing(["y1"])
    ce = ChevalleyComplex(even_ring=ring, differentials=[ring.zero()])
    dims = ce_cohomology(ce, 6)
    assert dims.row(0) == [1] * 7
    assert dims.row(1) == [1] * 7


def test_cohomology_redundant_differential():
    ring = PolyRing(["y1"])
    q = ring.parse("y1^2")
    ce = ChevalleyComplex(even_ring=ring, differentials=[q, q])
    dims = ce_cohomology(ce, 6)
    assert dims.row(0) == [1, 1, 0, 0, 0, 0, 0]
    # the redundant copy leaves a syzygy behind: H^1 looks like k[y1]/(y1^2)
    assert dims.row(1) == [1, 1, 0, 0, 0, 0, 0]
    # ... but the top slot dies: eps1*eps2 maps to y1^2*(eps2 - eps1) injectively
    assert dims.row(2) == [0] * 7


def test_bracket_round_trip_fixed():
    for variables, strings in [
        (["x", "y"], ["x^2 + y^2"]),
        (["x", "y"], ["x^2 + y^3"]),
        (["x", "y"], ["x^2", "y^2"]),
    ]:
        lie = lie_for(variables, strings)
        assert extract_bracket(chevalley_cochain(lie)) == lie.bracket


def test_bracket_round_trip_randomized():
    rng = random.Random(83)
    ring = PolyRing(["x", "y", "z"])
    monos = [m for d in range(2, 4) for m in ring.monomials_of_degree(d)]
    for _ in range(25):
        polys = []
        for _ in range(rng.randint(1, 3)):
            g = ring.zero()
            for _ in range(rng.randint(1, 3)):
                g = g + ring.monomial(rng.choice(monos), F(rng.randint(-2, 2)))
            polys.append(g)
        lie = tangent_lie(polys, [F(0)] * 3)
        assert extract_bracket(chevalley_cochain(lie)) == lie.bracket


def test_euler_characteristic_independent_of_differential():
    rng = random.Random(89)
    ring = PolyRing(["y1", "y2"])
    quad_monos = ring.monomials_of_degree(2)
    for _ in range(10):
        diffs = []
        for _ in range(rng.randint(1, 2)):
            q = ring.zero()
            for _ in range(rng.randint(0, 3)):
                q = q + ring.monomial(rng.choice(quad_monos), F(rng.randint(-2, 2)))
            diffs.append(q)
        ce = ChevalleyComplex(even_ring=ring, differentials=diffs)
        dims = ce_cohomology(ce, 8)
        for total in range(9):
            chain_sum = 0
            cohom_sum = 0
            for p in range(ce.odd_count + 1):
                e = total - 2 * p
                if e < 0:
                    continue
                chain_sum += (-1)**p * len(ce.slice(p, e))
                cohom_sum += (-1)**p * dims.dim(p, e)
            assert chain_sum == cohom_sum


def test_cohomology_three_quadrics_in_eight_variables_degree_3():
    # a regular sequence (leading terms y1^2, y2^2, y3^2), so the cohomology
    # is k[y]/(q) in exterior degree 0: Hilbert function of (1+t)^3/(1-t)^5
    ring = PolyRing([f"y{i + 1}" for i in range(8)])
    diffs = [ring.parse(f"y{j + 1}^2 + y{j + 2}*y{j + 5} - y{j + 3}*y{j + 6}"
                        f" + y{j + 4}*y8") for j in range(3)]
    dims = ce_cohomology(ChevalleyComplex(even_ring=ring, differentials=diffs), 3)
    assert dims.row(0) == [1, 8, 33, 96]
    for p in range(1, 4):
        assert dims.row(p) == [0] * 4


def test_cochain_rejects_a_bracket_it_does_not_give_back(monkeypatch):
    import cising.chevalley
    from cising.errors import InvariantError

    lie = lie_for(["x", "y"], ["x^2 + y^2"])
    monkeypatch.setattr(cising.chevalley, "HALF", Fraction(1))
    with pytest.raises(InvariantError, match="give back the bracket"):
        chevalley_cochain(lie)


def test_slice_cap_is_the_largest_slice_built():
    ce = chevalley_cochain(lie_for(["x", "y", "z"], ["x*y", "y*z - x^2"]))
    degree = 4
    largest = max(len(ce.slice(p, e)) for p in range(ce.odd_count + 1)
                  for e in range(degree + 3))
    uncapped = ce_cohomology(ce, degree, max_monomials=None)
    assert ce_cohomology(ce, degree, max_monomials=largest) == uncapped
    with pytest.raises(ResourceLimitError, match=f"cap {largest - 1}"):
        ce_cohomology(ce, degree, max_monomials=largest - 1)
