import random
from fractions import Fraction

import pytest

from cising.errors import ValidationError
from cising.exactq import Mat, rank
from cising.polyring import PolyRing, vec_lead
from cising.syzygies import (
    module_buchberger,
    module_normal_form,
    syzygies,
    vec_is_zero,
)

F = Fraction


def combine(columns, coeffs):
    """sum_k coeffs[k] * columns[k], componentwise."""
    rank_ = len(columns[0]) if columns else 0
    ring = coeffs[0].ring
    out = [ring.zero() for _ in range(rank_)]
    for c, q in zip(columns, coeffs):
        for i in range(rank_):
            out[i] = out[i] + q * c[i]
    return out


def in_span(ring, v, gb):
    """True when ``v`` lies in the span of the basis ``gb`` was built from."""
    return vec_is_zero(module_normal_form(ring, v, gb))


def test_vec_lead_prefers_big_monomial_then_small_component():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()

    def unpacked(lead):
        comp, m, coeff = lead
        return comp, ring._unpack(m), coeff

    assert unpacked(vec_lead([y, x * x])) == (1, (2, 0), F(1))
    assert unpacked(vec_lead([x, x])) == (0, (1, 0), F(1))
    assert vec_lead([ring.zero(), ring.zero()]) is None


def test_module_buchberger_rejects_wrong_length():
    ring = PolyRing(["x"])
    with pytest.raises(ValidationError):
        module_buchberger(ring, 2, [[ring.var("x")]])


@pytest.mark.parametrize("modulo", [["x"], [PolyRing(["y"]).var("y")]])
def test_syzygies_reject_a_modulo_outside_the_ring(modulo):
    ring = PolyRing(["x"])
    with pytest.raises(ValidationError):
        syzygies(ring, 1, [[ring.var("x")]], modulo=modulo)


def test_representation_identity():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    cols = [[x * x, y], [x * y, x], [y * y, ring.zero()]]
    mgb = module_buchberger(ring, 2, cols)
    assert mgb.basis
    for vec, rep in zip(mgb.basis, mgb.representation):
        assert combine(cols, rep) == vec


def test_membership_frozen():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    cols = [[x, ring.zero()], [ring.zero(), y]]
    mgb = module_buchberger(ring, 2, cols)
    assert in_span(ring, [x * y, x * y], mgb)
    assert not in_span(ring, [y, ring.zero()], mgb)
    nf = module_normal_form(ring, [y, ring.zero()], mgb)
    assert [str(p) for p in nf] == ["y", "0"]


def test_koszul_pair():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    out = syzygies(ring, 1, [[x], [y]])
    for s in out:
        assert (s[0] * x + s[1] * y).is_zero()
    sgb = module_buchberger(ring, 2, out)
    assert in_span(ring, [y, -x], sgb)


def test_koszul_triple():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    cols = [[x], [y], [z]]
    out = syzygies(ring, 1, cols)
    for s in out:
        assert combine(cols, s) == [ring.zero()]
    sgb = module_buchberger(ring, 3, out)
    zero = ring.zero()
    assert in_span(ring, [y, -x, zero], sgb)
    assert in_span(ring, [z, zero, -x], sgb)
    assert in_span(ring, [zero, z, -y], sgb)


def test_zero_columns_yield_unit_relations():
    ring = PolyRing(["x"])
    x = ring.var("x")
    out = syzygies(ring, 1, [[ring.zero()], [x]])
    sgb = module_buchberger(ring, 2, out)
    assert in_span(ring, [ring.one(), ring.zero()], sgb)
    assert not in_span(ring, [ring.zero(), ring.one()], sgb)


def test_rank_zero_target_everything_is_a_relation():
    ring = PolyRing(["x"])
    out = syzygies(ring, 0, [[], []])
    sgb = module_buchberger(ring, 2, out)
    assert in_span(ring, [ring.one(), ring.zero()], sgb)
    assert in_span(ring, [ring.zero(), ring.one()], sgb)


def test_no_columns():
    ring = PolyRing(["x"])
    assert syzygies(ring, 1, []) == []


def test_determinism():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    cols = [[x * x + y, x], [y * y, x + y], [x * y, ring.zero()]]
    a = syzygies(ring, 2, cols)
    b = syzygies(ring, 2, cols)
    assert [[str(p) for p in s] for s in a] == [[str(p) for p in s] for s in b]


# ---------------------------------------------------------------------------
# completeness oracle: for homogeneous columns, compare against a slice-by-
# slice kernel dimension computed with plain rational linear algebra.
# ---------------------------------------------------------------------------


def _slice_index(ring, labels_degrees, e):
    index = {}
    for label, d in labels_degrees:
        for mono in ring.monomials_of_degree(e - d):
            index[(label, mono)] = len(index)
    return index


def _kernel_slice_dim(ring, rank_, columns, degrees, e):
    target = _slice_index(ring, [(c, 0) for c in range(rank_)], e)
    vectors = []
    for k, col in enumerate(columns):
        for mono in ring.monomials_of_degree(e - degrees[k]):
            mp = ring.monomial(mono)
            vec = [F(0)] * len(target)
            for comp in range(rank_):
                for expo, coeff in (mp * col[comp]).terms.items():
                    vec[target[(comp, expo)]] = coeff
            vectors.append(vec)
    if not vectors:
        return 0
    return len(vectors) - rank(Mat.from_columns(vectors, len(target)))


def _span_slice_dim(ring, degrees, relations, e):
    index = _slice_index(ring, list(enumerate(degrees)), e)
    vectors = []
    for s in relations:
        ds = None
        for k, p in enumerate(s):
            if not p.is_zero():
                d = degrees[k] + p.homogeneous_degree()
                assert ds is None or ds == d  # relations must be homogeneous
                ds = d
        if ds is None or e - ds < 0:
            continue
        for mono in ring.monomials_of_degree(e - ds):
            mp = ring.monomial(mono)
            vec = [F(0)] * len(index)
            for k, p in enumerate(s):
                for expo, coeff in (mp * p).terms.items():
                    vec[index[(k, expo)]] = coeff
            vectors.append(vec)
    if not vectors:
        return 0
    return rank(Mat.from_columns(vectors, len(index)))


def check_complete(ring, rank_, columns, degrees, through):
    out = syzygies(ring, rank_, columns)
    for s in out:
        assert vec_is_zero(combine(columns, s))
    for e in range(through + 1):
        assert (_span_slice_dim(ring, degrees, out, e)
                == _kernel_slice_dim(ring, rank_, columns, degrees, e))


def test_complete_koszul_pair():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    check_complete(ring, 1, [[x], [y]], [1, 1], 6)


def test_complete_quadric_monomials():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    cols = [[x * x], [x * y], [y * y]]
    check_complete(ring, 1, cols, [2, 2, 2], 6)


def test_complete_two_row_matrix():
    ring = PolyRing(["x", "y"])
    x, y = ring.gens()
    zero = ring.zero()
    cols = [[x, zero], [y, x], [zero, y]]
    check_complete(ring, 2, cols, [1, 1, 1], 6)


def test_complete_koszul_triple():
    ring = PolyRing(["x", "y", "z"])
    x, y, z = ring.gens()
    check_complete(ring, 1, [[x], [y], [z]], [1, 1, 1], 5)


def test_complete_weighted():
    ring = PolyRing(["x", "y"], weights=[1, 2])
    x, y = ring.gens()
    check_complete(ring, 1, [[x * x], [y]], [2, 2], 8)


def test_randomized_soundness_and_representation():
    rng = random.Random(131)
    ring = PolyRing(["x", "y"])
    monos = [m for d in range(0, 3) for m in ring.monomials_of_degree(d)]
    for _ in range(20):
        rank_ = rng.randint(1, 2)
        m = rng.randint(1, 3)
        cols = []
        for _ in range(m):
            col = []
            for _ in range(rank_):
                p = ring.zero()
                for _ in range(rng.randint(0, 2)):
                    p = p + ring.monomial(rng.choice(monos), F(rng.randint(-2, 2)))
                col.append(p)
            cols.append(col)
        mgb = module_buchberger(ring, rank_, cols)
        for vec, rep in zip(mgb.basis, mgb.representation):
            assert combine(cols, rep) == vec
        for s in syzygies(ring, rank_, cols):
            assert vec_is_zero(combine(cols, s))


def test_randomized_completeness_homogeneous():
    rng = random.Random(137)
    ring = PolyRing(["x", "y"])
    for _ in range(8):
        rank_ = rng.randint(1, 2)
        m = rng.randint(2, 3)
        degrees = [rng.randint(1, 2) for _ in range(m)]
        cols = []
        for k in range(m):
            col = []
            for _ in range(rank_):
                p = ring.zero()
                for mono in ring.monomials_of_degree(degrees[k]):
                    p = p + ring.monomial(mono, F(rng.randint(-1, 1)))
                col.append(p)
            cols.append(col)
        check_complete(ring, rank_, cols, degrees, 5)
