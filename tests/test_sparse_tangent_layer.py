"""Property tests of the sparse tangent layer against plain references.

:class:`Mat` keeps only nonzero entries; here every operation is checked
against the same operation on dense lists of ``Fraction``s.  The tangent
fiber reads the Jacobian and the Hessians in one pass over each
polynomial's terms; here they are checked against ``Poly.diff`` then
``subs``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cising.exactq import Mat
from cising.polyring import Poly, PolyRing
from cising.tangentlie import tangent_fiber

PROPERTY = settings(max_examples=120)
ZERO = Fraction(0)

numbers = st.one_of(
    st.just(ZERO), st.just(0), st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])))
# a matrix also takes strings, zeros among them
entries = st.one_of(numbers, st.sampled_from(["0", "0/5", "1/2", "-3"]))


def dense(rows):
    return [[Fraction(e) for e in row] for row in rows]


@st.composite
def shaped(draw, nrows=None, ncols=None, max_side=5):
    """``(rows, nrows, ncols)``: raw entries, zero rows and zero columns
    frequent, 0 x n and n x 0 shapes included."""
    if nrows is None:
        nrows = draw(st.integers(0, max_side))
    if ncols is None:
        ncols = draw(st.integers(0, max_side))
    zero_rows = draw(st.sets(st.integers(0, max(nrows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    rows = [[0 if i in zero_rows or j in zero_cols else draw(entries)
             for j in range(ncols)] for i in range(nrows)]
    return rows, nrows, ncols


def dense_mul(a, b, ncols):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(ncols)] for i in range(len(a))]


def dense_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), ZERO) for row in a]


def all_fractions(rows):
    return all(type(e) is Fraction for row in rows for e in row)


@PROPERTY
@given(shaped(), st.data())
def test_sparse_mat_matches_a_dense_reference(raw, data):
    rows, nrows, ncols = raw
    ref = dense(rows)
    m = Mat(rows, ncols)
    assert (m.nrows, m.ncols) == (nrows, ncols)
    assert m.rows == ref and all_fractions(m.rows)
    assert m.is_zero() == all(e == 0 for row in ref for e in row)
    for j in range(ncols):
        assert m.column(j) == [row[j] for row in ref]
        assert all(m.entry(i, j) == ref[i][j] for i in range(nrows))

    other_rows, _, other_ncols = data.draw(shaped(nrows=ncols))
    other = Mat(other_rows, other_ncols)
    product = m.mul(other)
    expected = dense_mul(ref, dense(other_rows), other_ncols)
    assert product.rows == expected and all_fractions(product.rows)
    assert product == Mat(expected, other_ncols)
    assert hash(product) == hash(Mat(expected, other_ncols))
    v = data.draw(st.lists(numbers, min_size=ncols, max_size=ncols))
    got = m.vec(v)
    assert got == dense_vec(ref, v) and all_fractions([got])

    # from dense columns and from sparse {row: value} columns alike
    columns = [[row[j] for row in rows] for j in range(ncols)]
    sparse = [{i: e for i, e in enumerate(col) if Fraction(e) or i % 2}
              for col in columns]
    for built in (Mat.from_columns(columns, nrows),
                  Mat.from_columns(sparse, nrows), Mat(ref, ncols)):
        assert built == m and hash(built) == hash(m)
        assert built.rows == ref

    # writing into the dense rows leaves the matrix as it was
    view = m.rows
    for row in view:
        row[:] = [Fraction(7)] * len(row)
    view.append([Fraction(1)] * ncols)
    assert m.rows == ref and m.nrows == nrows

    # one changed entry makes a different matrix
    if nrows and ncols:
        i = data.draw(st.integers(0, nrows - 1))
        j = data.draw(st.integers(0, ncols - 1))
        changed = [list(row) for row in ref]
        changed[i][j] += 1
        assert Mat(changed, ncols) != m


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 3), (3, 0), (2, 2)])
def test_zero_and_identity_match_dense(nrows, ncols):
    zero = Mat.zero(nrows, ncols)
    assert zero == Mat([[0] * ncols for _ in range(nrows)], ncols)
    assert zero.is_zero() and zero.rows == [[ZERO] * ncols] * nrows
    eye = Mat.identity(nrows)
    assert eye.rows == [[Fraction(int(i == j)) for j in range(nrows)]
                        for i in range(nrows)]
    assert hash(eye) == hash(Mat(eye.rows, nrows))


def test_products_drop_entries_that_cancel():
    product = Mat([[1, 1], [1, 2]]).mul(Mat([[1, 0], [-1, 0]]))
    assert product == Mat([[0, 0], [-1, 0]])
    assert hash(product) == hash(Mat([[0, 0], [-1, 0]]))
    assert Mat([[1, 1]]).mul(Mat([[1], [-1]])).is_zero()


def test_from_columns_checks_the_row_count():
    with pytest.raises(ValueError):
        Mat.from_columns([[1, 2]], 3)
    with pytest.raises(ValueError):
        Mat.from_columns([{3: 1}], 3)
    with pytest.raises(ValueError):
        Mat([[1, 2], [3]])


# ---------------------------------------------------------------------------
# Jacobian and Hessians in one pass, against Poly.diff then subs
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "z", "w"]


@st.composite
def maps_with_zeros(draw):
    """Polynomials of degree up to 4 in a weighted ring, each shifted by its
    value so it vanishes at a rational point with some zero coordinates."""
    n = draw(st.integers(1, 4))
    ring = PolyRing(NAMES[:n], weights=draw(st.lists(
        st.integers(1, 3), min_size=n, max_size=n)),
        order=draw(st.sampled_from(["grevlex", "lex"])))
    point = [draw(st.one_of(st.just(ZERO), st.builds(
        Fraction, st.integers(-3, 3), st.integers(1, 3)))) for _ in range(n)]
    exponents = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 4)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(
            exponents.map(tuple),
            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
            max_size=6))
        p = Poly(ring, terms)
        polys.append(p - p.subs(point))
    return polys, point


@PROPERTY
@given(maps_with_zeros())
def test_one_pass_partials_match_diff_then_subs(case):
    polys, point = case
    n = len(point)
    fiber = tangent_fiber(polys, point)
    assert fiber.jacobian.rows == [[p.diff(i).subs(point) for i in range(n)]
                                   for p in polys]
    for p, hessian in zip(polys, fiber.hessians):
        assert hessian.rows == [[p.diff(i).diff(j).subs(point)
                                 for j in range(n)] for i in range(n)]
        assert all_fractions(hessian.rows)
