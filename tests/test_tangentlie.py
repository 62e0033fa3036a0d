import random
from fractions import Fraction

import pytest

import cising.tangentlie
from cising.errors import InvariantError, OffLocusError
from cising.exactq import Mat, rank
from cising.polyring import Poly, PolyRing
from cising.tangentlie import (
    hessian_direct,
    hessian_snake,
    tangent_fiber,
    tangent_lie,
)

F = Fraction


def pmap(variables, strings):
    ring = PolyRing(variables)
    return [ring.parse(s) for s in strings]


def origin(n):
    return [F(0)] * n


def test_jacobian_single_variable():
    polys = pmap(["x"], ["x"])
    assert tangent_fiber(polys, origin(1)).jacobian == Mat([[1]])


def test_jacobian_at_offset_point():
    polys = pmap(["x", "y"], ["x^2 - y", "y^2 - x"])
    assert (tangent_fiber(polys, [F(1), F(1)]).jacobian
            == Mat([[2, -1], [-1, 2]]))


def test_jacobian_rejects_off_locus_point():
    polys = pmap(["x"], ["x^2"])
    with pytest.raises(OffLocusError) as err:
        tangent_fiber(polys, [F(1)])
    assert "f_1" in str(err.value)


def test_dims_smooth_point():
    lie = tangent_lie(pmap(["x"], ["x"]), origin(1))
    assert lie.fiber.g1_dim == 0 and lie.fiber.g2_dim == 0
    assert lie.bracket == []


def test_dims_and_bracket_cone():
    lie = tangent_lie(pmap(["x", "y"], ["x^2 + y^2"]), origin(2))
    assert lie.fiber.g1_dim == 2 and lie.fiber.g2_dim == 1
    assert lie.bracket == [[[2], [0]], [[0], [2]]]


def test_bracket_cusp():
    lie = tangent_lie(pmap(["x", "y"], ["x^2 + y^3"]), origin(2))
    assert lie.bracket == [[[2], [0]], [[0], [0]]]


def test_bracket_two_equations():
    lie = tangent_lie(pmap(["x", "y"], ["x^2", "y^2"]), origin(2))
    assert lie.fiber.g1_dim == 2 and lie.fiber.g2_dim == 2
    assert lie.bracket == [[[2, 0], [0, 0]], [[0, 0], [0, 2]]]


def test_bracket_empty_when_point_is_isolated():
    lie = tangent_lie(pmap(["x", "y"], ["x^2 - y", "y^2 - x"]), [F(1), F(1)])
    assert lie.fiber.g1_dim == 0 and lie.fiber.g2_dim == 0
    assert lie.bracket == []


def test_bracket_at_nonzero_point():
    ring = PolyRing(["x", "y"])
    polys = [ring.parse("x^2 - 2*x + 1"),          # (x-1)^2
             ring.parse("x*y - y")]                # (x-1) y
    lie = tangent_lie(polys, [F(1), F(0)])
    assert lie.fiber.g1_dim == 2 and lie.fiber.g2_dim == 2
    assert lie.bracket == [[[2, 0], [0, 1]], [[0, 1], [0, 0]]]


def test_tangent_lie_differentiates_and_reduces_the_jacobian_once(monkeypatch):
    # m = 2 equations in n = 3 variables: one pass over each polynomial's
    # terms gives its first and second partials, and no Poly.diff is built
    calls = {"_validate_map": 0, "kernel_basis": 0, "cokernel_presentation": 0,
             "_partials_at": 0, "terms": 0, "diff": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in ("_validate_map", "kernel_basis", "cokernel_presentation",
                 "_partials_at"):
        monkeypatch.setattr(cising.tangentlie, name,
                            counted(name, getattr(cising.tangentlie, name)))
    monkeypatch.setattr(Poly, "diff", counted("diff", Poly.diff))
    monkeypatch.setattr(Poly, "terms",
                        property(counted("terms", Poly.terms.fget)))
    lie = tangent_lie(pmap(["x", "y", "z"], ["x^2 + y*z", "y^2 - x*z"]),
                      origin(3))
    assert calls == {"_validate_map": 1, "kernel_basis": 1,
                     "cokernel_presentation": 1, "_partials_at": 2,
                     "terms": 2, "diff": 0}
    assert lie.fiber.g1_dim == 3 and lie.fiber.g2_dim == 2


def test_direct_equals_snake_fixed_suite():
    suite = [
        (pmap(["x", "y"], ["x^2 + y^2"]), origin(2)),
        (pmap(["x", "y"], ["x^2 + y^3"]), origin(2)),
        (pmap(["x", "y"], ["x^2", "y^2"]), origin(2)),
        (pmap(["x", "y"], ["x^2 - y", "y^2 - x"]), [F(1), F(1)]),
    ]
    for polys, point in suite:
        fiber = tangent_fiber(polys, point)
        assert hessian_direct(fiber) == hessian_snake(fiber)


def rand_zero_map(rng, nvars, npolys, max_deg=3):
    names = ["x", "y", "z", "w"][:nvars]
    ring = PolyRing(names)
    point = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(nvars)]
    monos = [m for d in range(max_deg + 1) for m in ring.monomials_of_degree(d)]
    polys = []
    for _ in range(npolys):
        g = ring.zero()
        for _ in range(rng.randint(1, 4)):
            g = g + ring.monomial(rng.choice(monos), F(rng.randint(-2, 2)))
        polys.append(g - ring.constant(g.subs(point)))
    return polys, point


def test_direct_equals_snake_randomized():
    rng = random.Random(61)
    for _ in range(40):
        polys, point = rand_zero_map(rng, rng.randint(1, 3), rng.randint(1, 3))
        fiber = tangent_fiber(polys, point)
        assert hessian_direct(fiber) == hessian_snake(fiber)


def compose_linear(ring, p, matrix):
    """Substitute x_i -> sum_j matrix[i][j] x_j into p."""
    images = []
    for i in range(ring.nvars):
        row = ring.zero()
        for j, name in enumerate(ring.variables):
            row = row + ring.var(name) * matrix[i][j]
        images.append(row)
    out = ring.zero()
    for expo, coeff in p.terms.items():
        term = ring.constant(coeff)
        for i, e in enumerate(expo):
            term = term * images[i]**e
        out = out + term
    return out


def bracket_rank(lie):
    columns = []
    for a in range(lie.fiber.g1_dim):
        for b in range(a, lie.fiber.g1_dim):
            columns.append(lie.bracket[a][b])
    if not columns or lie.fiber.g2_dim == 0:
        return 0
    return rank(Mat.from_columns(columns, lie.fiber.g2_dim))


def test_base_change_invariance():
    rng = random.Random(71)
    ring = PolyRing(["x", "y"])
    for _ in range(15):
        polys, point = rand_zero_map(rng, 2, rng.randint(1, 2))
        # unipotent change of coordinates: invertible over the rationals
        a, b = F(rng.randint(-2, 2)), F(rng.randint(-2, 2))
        lower = [[F(1), F(0)], [a, F(1)]]
        upper = [[F(1), b], [F(0), F(1)]]
        m = [[sum(lower[i][k] * upper[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
        inv_point = Mat([[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]).vec(point)
        moved = [compose_linear(ring, p, m) for p in polys]
        lie = tangent_lie(polys, point)
        lie_moved = tangent_lie(moved, inv_point)
        assert lie.fiber.g1_dim == lie_moved.fiber.g1_dim
        assert lie.fiber.g2_dim == lie_moved.fiber.g2_dim
        assert bracket_rank(lie) == bracket_rank(lie_moved)


def test_tangent_lie_rejects_disagreeing_constructions(monkeypatch):
    original = cising.tangentlie.hessian_snake

    def skewed(fiber):
        bracket = original(fiber)
        bracket[0][0] = [2 * c + 1 for c in bracket[0][0]]
        return bracket

    monkeypatch.setattr(cising.tangentlie, "hessian_snake", skewed)
    with pytest.raises(InvariantError, match="disagree"):
        tangent_lie(pmap(["x", "y"], ["x^2 + y^2"]), origin(2))


def test_snake_raises_when_a_symmetrized_pair_escapes(monkeypatch):
    # a boundary domain that solves nothing: every kernel pair escapes it
    monkeypatch.setattr(cising.tangentlie, "solver", lambda m: lambda b: None)
    with pytest.raises(InvariantError, match="escaped the boundary domain"):
        hessian_snake(tangent_fiber(pmap(["x", "y"], ["x^2 + y^2"]), origin(2)))
