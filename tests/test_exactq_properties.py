"""Property tests of the exact kernel against sympy as an independent oracle.

sympy is used here only; the library never imports it.
"""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cising.exactq import (
    IncrementalSpan,
    Mat,
    cokernel_presentation,
    kernel_basis,
    rank,
    rref,
    solve,
    solver,
)

PROPERTY = settings(max_examples=80)
EMPTY_ROWS = Mat([], 3)           # 0 x 3
EMPTY_COLUMNS = Mat([[], []], 0)  # 2 x 0

entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))


@st.composite
def matrices(draw, max_side=5):
    """Small rational matrices, 0 x n and n x 0 included."""
    nrows = draw(st.integers(0, max_side))
    ncols = draw(st.integers(0, max_side))
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    return Mat(rows, ncols)


def oracle(m):
    return sympy.Matrix(m.nrows, m.ncols,
                        [sympy.Rational(e.numerator, e.denominator)
                         for row in m.rows for e in row])


def fractions(values):
    return [Fraction(int(v.p), int(v.q)) for v in values]


@PROPERTY
@given(matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLUMNS)
def test_rref_and_rank_match_sympy(m):
    expected, pivots = oracle(m).rref()
    reduced, got = rref(m)
    assert got == list(pivots)
    assert reduced.rows == [fractions(expected.row(i)) for i in range(m.nrows)]
    assert rank(m) == len(pivots)


@PROPERTY
@given(matrices())
@example(EMPTY_ROWS)
@example(EMPTY_COLUMNS)
def test_kernel_and_cokernel_match_sympy(m):
    sm = oracle(m)
    assert kernel_basis(m) == [fractions(v) for v in sm.nullspace()]
    q = cokernel_presentation(m)
    assert q.ncols == m.nrows
    assert q.rows == [fractions(v) for v in sm.T.nullspace()]


@PROPERTY
@given(matrices(), st.data())
def test_solve_matches_sympy(m, data):
    if data.draw(st.booleans()):   # a right-hand side in the image
        x = data.draw(st.lists(entries, min_size=m.ncols, max_size=m.ncols))
        b = m.vec(x)
    else:
        b = data.draw(st.lists(entries, min_size=m.nrows, max_size=m.nrows))
    augmented = Mat([row + [bv] for row, bv in zip(m.rows, b)], m.ncols + 1)
    expected, pivots = oracle(augmented).rref()
    if m.ncols in pivots:
        want = None
    else:
        want = [Fraction(0)] * m.ncols
        for i, p in enumerate(pivots):
            want[p] = fractions([expected[i, m.ncols]])[0]
    got = solve(m, b)
    assert got == want
    if got is not None:
        assert m.vec(got) == b
    assert solver(m)(b) == want


@PROPERTY
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6)))
def test_span_takes_lists_and_dicts_alike(vectors):
    as_lists, as_dicts = IncrementalSpan(), IncrementalSpan()
    seq_lists = [as_lists.add(v) for v in vectors]
    seq_dicts = [as_dicts.add({c: a for c, a in enumerate(v) if a})
                 for v in vectors]
    assert seq_lists == seq_dicts
    assert as_lists.rows == as_dicts.rows
    for p, row in as_lists.rows.items():
        assert min(row) == p and row[p] == 1
        assert all(a != 0 for a in row.values())
        assert all(q == p or q not in row for q in as_lists.rows)
    if vectors:
        n = len(vectors[0])
        assert as_lists.dim == rank(Mat(vectors, n)) == oracle(Mat(vectors, n)).rank()
    assert all(as_lists.contains(v) for v in vectors)


# ---------------------------------------------------------------------------
# Mat.vec and solve skip zero entries; dense loops as references
# ---------------------------------------------------------------------------

ZERO = Fraction(0)

# three draws in four are zero, as a Fraction or a plain int
sparse_entries = st.one_of(st.just(ZERO), st.just(0), st.just(ZERO),
                           entries.filter(bool), st.integers(-2, 2))


@st.composite
def sparse_matrices(draw, max_side=6):
    nrows = draw(st.integers(0, max_side))
    ncols = draw(st.integers(0, max_side))
    rows = [draw(st.lists(sparse_entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    return Mat(rows, ncols)


def dense_vec(m, v):
    """Every product of a row entry with a vector entry, zero or not."""
    return [sum((a * x for a, x in zip(row, v)), ZERO) for row in m.rows]


def dense_solve(m, b):
    """``m`` reduced as ``[m | identity]``; each row's identity part dotted
    with every entry of ``b``, zero or not."""
    n = m.ncols
    span = IncrementalSpan()
    for i, row in enumerate(m.rows):
        v = dict(enumerate(row))
        v[n + i] = Fraction(1)
        span.add(v)
    x = [ZERO] * n
    for p, row in span.rows.items():
        s = sum((a * b[c - n] for c, a in row.items() if c >= n), ZERO)
        if p < n:
            x[p] = s
        elif s:
            return None
    return x


@PROPERTY
@given(sparse_matrices(), st.data())
def test_vec_and_solve_on_sparse_inputs_match_dense_loops(m, data):
    v = data.draw(st.lists(sparse_entries, min_size=m.ncols, max_size=m.ncols))
    got = m.vec(v)
    assert got == dense_vec(m, v)
    assert all(isinstance(e, Fraction) for e in got)
    for b in (got, data.draw(st.lists(sparse_entries, min_size=m.nrows,
                                      max_size=m.nrows))):
        x = solve(m, b)
        assert x == dense_solve(m, b)
        assert x is None or all(isinstance(e, Fraction) for e in x)


# ---------------------------------------------------------------------------
# Integer echelon storage: fractional inputs, interleaved reads, entry types
# ---------------------------------------------------------------------------

# small and large denominators, and plain ints, which the span takes too
rational_entries = st.one_of(
    entries, st.integers(-3, 3),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**12)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([7**9, 2**40, 10**15])))


@st.composite
def rational_matrices(draw, max_side=5):
    nrows = draw(st.integers(0, max_side))
    ncols = draw(st.integers(0, max_side))
    return Mat([draw(st.lists(rational_entries, min_size=ncols, max_size=ncols))
                for _ in range(nrows)], ncols)


def all_fractions(values):
    return all(type(e) is Fraction for e in values)


@PROPERTY
@given(rational_matrices(), st.data())
def test_fractional_inputs_match_sympy_with_fraction_outputs(m, data):
    expected, pivots = oracle(m).rref()
    reduced, got = rref(m)
    assert got == list(pivots)
    assert reduced.rows == [fractions(expected.row(i)) for i in range(m.nrows)]
    assert rank(m) == len(pivots)
    kernel = kernel_basis(m)
    assert kernel == [fractions(v) for v in oracle(m).nullspace()]
    q = cokernel_presentation(m)
    assert q.rows == [fractions(v) for v in oracle(m).T.nullspace()]
    x = data.draw(st.lists(rational_entries, min_size=m.ncols, max_size=m.ncols))
    solution = solve(m, m.vec(x))
    assert solution is not None and m.vec(solution) == m.vec(x)
    assert all(all_fractions(row) for row in reduced.rows + kernel + q.rows)
    assert all_fractions(solution)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.tuples(st.sampled_from(["add", "contains", "rows"]),
              st.lists(rational_entries, min_size=n, max_size=n)),
    max_size=10)))
def test_interleaved_add_contains_and_rows_see_every_accepted_row(steps):
    """``rows`` is cached between reads; a read after an accepted ``add``
    must see the new row.  Every read is checked against sympy's reduced
    form of the rows added so far."""
    span, added = IncrementalSpan(), []
    n = len(steps[0][1]) if steps else 0
    for op, v in steps:
        before = oracle(Mat(added, n)).rank() if added else 0
        inside = oracle(Mat(added + [v], n)).rank() == before
        if op == "add":
            assert span.add(v) is not inside
            added.append(v)
        elif op == "contains":
            assert span.contains(v) is inside
        expected, pivots = oracle(Mat(added, n)).rref() if added else ([], ())
        rows = span.rows
        assert sorted(rows) == list(pivots)
        for i, p in enumerate(pivots):
            dense = [rows[p].get(c, ZERO) for c in range(n)]
            assert dense == fractions(expected.row(i))
            assert all(a != 0 for a in rows[p].values())
            assert all_fractions(rows[p].values())
        assert span.dim == len(pivots)
