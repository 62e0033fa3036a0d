import random
from fractions import Fraction

import pytest

from cising.errors import CommutativityError, ExactnessError
from cising.exactq import (
    Mat,
    cokernel_presentation,
    kernel_basis,
    rank,
    rref,
    snake_boundary,
    solve,
)

F = Fraction


def rand_mat(rng, nrows, ncols, span=4):
    return Mat([[F(rng.randint(-span, span)) for _ in range(ncols)]
                for _ in range(nrows)], ncols)


def test_rref_zero_matrix():
    reduced, pivots = rref(Mat.zero(2, 2))
    assert reduced == Mat.zero(2, 2)
    assert pivots == []


def test_rref_worked_example():
    m = Mat([[2, 4, 1], [1, 2, 0], [0, 0, 3]])
    reduced, pivots = rref(m)
    assert pivots == [0, 2]
    assert reduced == Mat([[1, 2, 0], [0, 0, 1], [0, 0, 0]])


def test_rref_fractions_stay_exact():
    m = Mat([[F(1, 3), F(1, 6)], [F(2, 3), F(5, 6)]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert reduced == Mat.identity(2)


def test_rref_idempotent_randomized():
    rng = random.Random(11)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(0, 5), rng.randint(1, 5))
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert again == reduced
        assert pivots2 == pivots


def test_rank_examples():
    assert rank(Mat.identity(3)) == 3
    assert rank(Mat.zero(3, 2)) == 0
    assert rank(Mat([[1, 2], [2, 4]])) == 1


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Mat.identity(2)) == []


def test_kernel_of_zero_row_map():
    # the 1x2 zero map: kernel is everything, basis in column order
    basis = kernel_basis(Mat.zero(1, 2))
    assert basis == [[1, 0], [0, 1]]


def test_kernel_vectors_annihilated_randomized():
    rng = random.Random(23)
    for _ in range(50):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 6))
        basis = kernel_basis(m)
        assert len(basis) == m.ncols - rank(m)
        for v in basis:
            assert all(e == 0 for e in m.vec(v))
        # free coordinates make the basis visibly independent
        reduced = Mat.from_columns(basis, m.ncols) if basis else None
        if reduced is not None:
            assert rank(reduced) == len(basis)


def test_cokernel_of_injection():
    q = cokernel_presentation(Mat([[1], [0]]))
    assert q == Mat([[0, 1]])


def test_cokernel_of_zero_map_is_identity():
    q = cokernel_presentation(Mat.zero(1, 2))
    assert q == Mat.identity(1)


def test_cokernel_of_surjection_is_empty():
    q = cokernel_presentation(Mat.identity(2))
    assert q.nrows == 0 and q.ncols == 2


def test_cokernel_properties_randomized():
    rng = random.Random(37)
    for _ in range(50):
        m = rand_mat(rng, rng.randint(1, 6), rng.randint(1, 5))
        q = cokernel_presentation(m)
        assert q.nrows == m.nrows - rank(m)
        assert q.mul(m).is_zero()
        if q.nrows:
            assert rank(q) == q.nrows


def test_solve_consistent_and_inconsistent():
    rng = random.Random(41)
    for _ in range(40):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = [F(rng.randint(-3, 3)) for _ in range(m.ncols)]
        b = m.vec(x)
        got = solve(m, b)
        assert got is not None
        assert m.vec(got) == b
    assert solve(Mat([[1], [1]]), [F(1), F(2)]) is None


def hessian_diagram_a1():
    """Six-term diagram for the order-two differential operator fibers of
    x^2 + y^2 at the origin (two source variables, one equation)."""
    a = Mat([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
    b = Mat([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    a2 = Mat([[1], [0]])
    b2 = Mat([[0, 1]])
    alpha = Mat.zero(1, 2)
    beta = Mat([[0, 0, 2, 0, 2], [0, 0, 0, 0, 0]])
    gamma = Mat.zero(1, 3)
    return (a, b), (a2, b2), (alpha, beta, gamma)


def test_snake_boundary_frozen_example():
    top, bottom, verts = hessian_diagram_a1()
    sq = snake_boundary(top, bottom, verts)
    assert sq.domain_basis == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sq.codomain_projection == Mat.identity(1)
    assert sq.matrix == Mat([[2, 0, 2]])


def split_diagram(rng, adim, cdim, a2dim, c2dim):
    """Random commuting diagram with split-exact rows in block coordinates.

    Verticals are block matrices [[alpha, w], [0, gamma]], so the snake map
    has the closed form q * w * k, which the test uses as an oracle.
    """
    alpha = rand_mat(rng, a2dim, adim)
    gamma = rand_mat(rng, c2dim, cdim)
    w = rand_mat(rng, a2dim, cdim)
    a = Mat([[F(1) if i == j else F(0) for j in range(adim)]
             for i in range(adim + cdim)], adim)
    b = Mat([[F(1) if j == adim + i else F(0) for j in range(adim + cdim)]
             for i in range(cdim)], adim + cdim)
    a2 = Mat([[F(1) if i == j else F(0) for j in range(a2dim)]
              for i in range(a2dim + c2dim)], a2dim)
    b2 = Mat([[F(1) if j == a2dim + i else F(0) for j in range(a2dim + c2dim)]
              for i in range(c2dim)], a2dim + c2dim)
    beta = Mat([[alpha.rows[i][j] for j in range(adim)] + list(w.rows[i])
                for i in range(a2dim)] +
               [[F(0)] * adim + list(gamma.rows[i]) for i in range(c2dim)],
               adim + cdim)
    return (a, b), (a2, b2), (alpha, beta, gamma), w


def test_snake_boundary_block_oracle_randomized():
    rng = random.Random(55)
    for _ in range(30):
        adim, cdim = rng.randint(0, 3), rng.randint(1, 3)
        a2dim, c2dim = rng.randint(0, 3), rng.randint(1, 3)
        top, bottom, verts, w = split_diagram(rng, adim, cdim, a2dim, c2dim)
        sq = snake_boundary(top, bottom, verts)
        alpha, _, gamma = verts
        q = cokernel_presentation(alpha)
        expected = [q.vec(w.vec(k)) for k in sq.domain_basis]
        assert sq.matrix == Mat.from_columns(expected, q.nrows)


def test_snake_boundary_rejects_inexact_row():
    top, bottom, verts = hessian_diagram_a1()
    bad_a = Mat([[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]])  # not injective
    with pytest.raises(ExactnessError):
        snake_boundary((bad_a, top[1]), bottom, verts)


def test_snake_boundary_rejects_noncommuting_square():
    top, bottom, (alpha, beta, gamma) = hessian_diagram_a1()
    bad_gamma = Mat([[1, 0, 0]])
    with pytest.raises(CommutativityError):
        snake_boundary(top, bottom, (alpha, beta, bad_gamma))


@pytest.mark.parametrize("name, bad, message", [
    ("a", Mat([[1, 0], [0, 1], [0, 0], [0, 0]]),
     "top row: middle dimensions disagree"),
    ("a", Mat([[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]),
     "top row: first map is not injective"),
    ("b", Mat([[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 0]]),
     "top row: second map is not surjective"),
    ("a", Mat([[1, 0], [0, 1], [1, 0], [0, 0], [0, 0]]),
     "top row: composite is nonzero"),
    ("a", Mat([[1], [0], [0], [0], [0]]),
     "top row: not exact at the middle term"),
    ("b2", Mat([[1, 1]]), "bottom row: composite is nonzero"),
])
def test_snake_boundary_names_the_inexact_row(name, bad, message):
    (a, b), (a2, b2), verts = hessian_diagram_a1()
    maps = {"a": a, "b": b, "a2": a2, "b2": b2, name: bad}
    with pytest.raises(ExactnessError, match=f"^{message}$"):
        snake_boundary((maps["a"], maps["b"]), (maps["a2"], maps["b2"]), verts)


@pytest.mark.parametrize("index, bad, side", [
    (0, Mat([[1, 0]]), "left"),
    (2, Mat([[1, 0, 0]]), "right"),
])
def test_snake_boundary_names_the_noncommuting_square(index, bad, side):
    top, bottom, verts = hessian_diagram_a1()
    verts = list(verts)
    verts[index] = bad
    with pytest.raises(CommutativityError,
                       match=f"^{side} square does not commute$"):
        snake_boundary(top, bottom, tuple(verts))


def test_incremental_span_matches_rank():
    from cising.exactq import IncrementalSpan

    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(1, 5)
        vecs = [[F(rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(rng.randint(0, 6))]
        span = IncrementalSpan()
        added = sum(1 for v in vecs if span.add(v))
        if vecs:
            assert added == rank(Mat(vecs, n))
        else:
            assert added == 0
        assert span.dim == added
        for v in vecs:
            assert span.contains(v)


def test_incremental_span_rejects_dependent():
    from cising.exactq import IncrementalSpan

    span = IncrementalSpan()
    assert span.add([F(1), F(2), F(0)])
    assert not span.add([F(2), F(4), F(0)])
    assert span.add([F(0), F(1), F(0)])
    assert not span.add([F(5), F(-7), F(0)])
    assert span.contains([F(1), F(1), F(0)])
    assert not span.contains([F(0), F(0), F(1)])
