import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

import cising.polyring
from cising.errors import (
    GradingError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from cising.polyring import (
    Poly,
    PolyRing,
    RingPresentation,
    _min_transversal,
    _reduce,
    buchberger,
    hilbert_function,
    is_regular_sequence,
    is_square_zero,
    normal_form,
    normal_form_with_cofactors,
    square_zero_filtration,
    tower_ring,
    vec_combine,
)
from cising.syzygies import module_buchberger

F = Fraction


@pytest.fixture
def xy():
    return PolyRing(["x", "y"])


def rand_poly(rng, ring, max_deg=3, max_terms=4, span=3):
    terms = {}
    monos = [m for d in range(max_deg + 1) for m in ring.monomials_of_degree(d)]
    for _ in range(rng.randint(1, max_terms)):
        expo = rng.choice(monos)
        terms[expo] = F(rng.randint(-span, span))
    return sum((ring.monomial(e, c) for e, c in terms.items()), ring.zero())


# -- parsing and printing ----------------------------------------------------

def test_parse_basic(xy):
    p = xy.parse("x^2 + 2*x*y - 1/2*y^2")
    assert p == xy.var("x")**2 + 2 * xy.var("x") * xy.var("y") \
        - F(1, 2) * xy.var("y")**2


def test_parse_leading_minus_and_constants(xy):
    assert xy.parse("-x + 2") == -xy.var("x") + xy.constant(2)
    assert xy.parse("0").is_zero()
    assert xy.parse("3/4") == xy.constant(F(3, 4))


def test_parse_repeated_variable_factors(xy):
    assert xy.parse("x*x*y") == xy.var("x")**2 * xy.var("y")


def test_parse_errors(xy):
    with pytest.raises(ParseError):
        xy.parse("x^^2")
    with pytest.raises(ParseError):
        xy.parse("z + 1")
    with pytest.raises(ParseError):
        xy.parse("x*2")
    with pytest.raises(ParseError):
        xy.parse("")
    with pytest.raises(ParseError):
        xy.parse("1/0")
    with pytest.raises(ParseError):
        xy.parse("x + ")
    with pytest.raises(ParseError):
        xy.parse("x ? y")


def test_str_parse_round_trip_randomized(xy):
    rng = random.Random(7)
    for _ in range(60):
        p = rand_poly(rng, xy)
        assert xy.parse(str(p)) == p


# -- arithmetic, derivatives, evaluation --------------------------------------

def test_square_expansion(xy):
    x, y = xy.gens()
    assert (x + y)**2 == x**2 + 2 * x * y + y**2


def test_derivative_and_eval(xy):
    p = xy.parse("x^3 + x*y^2 - 2*y")
    assert p.diff("x") == xy.parse("3*x^2 + y^2")
    assert p.diff("y") == xy.parse("2*x*y - 2")
    assert p.subs([F(1, 2), F(2)]) == F(1, 8) + F(1, 2) * 4 - 4


@pytest.mark.parametrize("build", [
    lambda r: r.parse("x + y") * 0.1,
    lambda r: 0.1 * r.parse("x + y"),
    lambda r: r.constant(0.5),
    lambda r: r.monomial((1, 0), 0.3),
    lambda r: Poly(r, {(1, 0): 0.25}),
    lambda r: r.parse("x*y").subs([F(1), 0.5]),
], ids=["times", "rtimes", "constant", "monomial", "terms", "subs"])
def test_floats_are_refused(xy, build):
    """A float's binary value is not the rational meant (0.1 is
    3602879701896397/36028797018963968), so exact polynomials refuse it;
    ints, Fractions and strings still convert exactly."""
    with pytest.raises(ValidationError, match="floating-point value"):
        build(xy)
    assert xy.parse("x + y") * "1/10" == xy.parse("1/10*x + 1/10*y")
    assert xy.constant(2).subs([F(1, 2), "1/3"]) == 2


@pytest.mark.parametrize("expo", [
    (1,), (1, 2, 3), (-1, 2), (1, 2.5), (1, 2.0), (F(1, 2), 0), ("1", 0),
    (32768, 0), (0, 32768), (20000, 20000), 7,
], ids=["short", "long", "negative", "float", "integral-float", "fraction",
        "string", "over-x", "over-y", "degree-over", "not-a-tuple"])
@pytest.mark.parametrize("build", [
    lambda r, e: r.monomial(e),
    lambda r, e: r.monomial(e, 0),
    lambda r, e: Poly(r, {e: 1}),
], ids=["monomial", "zero-monomial", "terms"])
def test_bad_exponent_tuples_are_refused(xy, build, expo):
    """An exponent tuple must be one nonnegative integer per variable, of
    weighted degree at most 32767, even where its coefficient is zero."""
    with pytest.raises(ValidationError, match="nonnegative integers"):
        build(xy, expo)


def test_hash_agrees_with_equality(xy):
    x, y = xy.gens()
    p, q = (x + y) * (x - y), xy.parse("-y^2 + x^2")
    assert p == q and hash(p) == hash(q)
    assert len({p, q, x * x - y * y, x}) == 2
    for c in (0, 3, F(1, 2)):
        assert xy.constant(c) == c and hash(xy.constant(c)) == hash(c)


@pytest.mark.parametrize("var", ["w", 5, 2, -1, None])
def test_derivative_rejects_an_unknown_variable(xy, var):
    with pytest.raises(ValidationError, match="no variable"):
        xy.parse("x^2 + y").diff(var)


def test_homogeneous_degree(xy):
    assert xy.parse("x^2 + y^2").homogeneous_degree() == 2
    with pytest.raises(GradingError):
        xy.parse("x^2 + y").homogeneous_degree()
    wring = PolyRing(["x", "y"], weights=(1, 2))
    assert wring.parse("x^2 + y").homogeneous_degree() == 2


# -- monomial orders ----------------------------------------------------------

def test_grevlex_leading_terms(xy):
    assert xy.parse("x^2 + y^2").lm == (2, 0)
    assert xy.parse("x*y + y^2").lm == (1, 1)
    assert xy.parse("x^2 - y").lm == (2, 0)


def test_lex_leading_terms():
    ring = PolyRing(["x", "y"], order="lex")
    assert ring.parse("x + y^5").lm == (1, 0)


def test_weighted_grevlex_degree_dominates():
    ring = PolyRing(["x", "y"], weights=(1, 3))
    # y has weighted degree 3, so it beats x^2
    assert ring.parse("x^2 + y").lm == (0, 1)


# -- Groebner bases -----------------------------------------------------------

def test_buchberger_frozen_example(xy):
    gb = buchberger([xy.parse("x^2 - y"), xy.parse("y^2 - x")])
    assert [str(g) for g in gb.basis] == ["y^2 - x", "x^2 - y"]


def assert_same_ideal(gens, gb):
    """Each basis element is an explicit combination of ``gens`` -- its
    cofactors against a relations run's basis pushed through that run's
    representation rows, carried as ``[b_k | rep_k]`` through the
    reduction of ``[g | 0]``, which leaves minus the row -- and each
    generator reduces to 0 against ``gb``."""
    ring = gens[0].ring
    mgb = module_buchberger(ring, 1, [[f] for f in gens])
    lifted = [b + rep for b, rep in zip(mgb.basis, mgb.representation)]
    for g in gb.basis:
        remainder, *carried = _reduce(ring, [g] + [ring.zero()] * len(gens),
                                      lifted, width=1)
        assert remainder.is_zero()
        row = vec_combine(ring, len(gens), [(ring.constant(-1), carried)])
        assert sum((c * f for c, f in zip(row, gens)), ring.zero()) == g
    for f in gens:
        assert normal_form(f, gb).is_zero()


def test_buchberger_representation_identity(xy):
    gens = [xy.parse("x^2 - y"), xy.parse("y^2 - x"), xy.parse("x^3 - 1")]
    assert_same_ideal(gens, buchberger(gens))


def test_buchberger_representation_identity_randomized(xy):
    rng = random.Random(19)
    for _ in range(15):
        gens = [rand_poly(rng, xy) for _ in range(2)]
        if all(g.is_zero() for g in gens):
            continue
        assert_same_ideal(gens, buchberger(gens))


def test_buchberger_spair_certificate_randomized(xy):
    rng = random.Random(29)
    for _ in range(12):
        gens = [rand_poly(rng, xy, max_deg=2), rand_poly(rng, xy, max_deg=3)]
        if all(g.is_zero() for g in gens):
            continue
        gb = buchberger(gens)
        basis = gb.basis
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                ei, ej = basis[i].lm, basis[j].lm
                lcm = tuple(max(a, b) for a, b in zip(ei, ej))
                mi = xy.monomial(tuple(l - e for l, e in zip(lcm, ei)))
                mj = xy.monomial(tuple(l - e for l, e in zip(lcm, ej)))
                s = mi * basis[i] - mj * basis[j]
                assert normal_form(s, gb).is_zero()


def test_ideal_membership_soundness_randomized(xy):
    rng = random.Random(31)
    gens = [xy.parse("x^2 - y"), xy.parse("y^2 - x")]
    gb = buchberger(gens)
    for _ in range(25):
        combo = sum((rand_poly(rng, xy) * g for g in gens), xy.zero())
        assert normal_form(combo, gb).is_zero()


def test_normal_form_frozen_lex():
    ring = PolyRing(["x", "y"], order="lex")
    gb = buchberger([ring.parse("x^2 - y")])
    assert str(normal_form(ring.parse("x^3"), gb)) == "x*y"


def test_normal_form_idempotent_randomized(xy):
    rng = random.Random(37)
    gb = buchberger([xy.parse("x^2 - y"), xy.parse("y^2 - x")])
    for _ in range(25):
        p = rand_poly(rng, xy, max_deg=4)
        nf = normal_form(p, gb)
        assert normal_form(nf, gb) == nf


def test_normal_form_cofactors_identity(xy):
    rng = random.Random(41)
    gb = buchberger([xy.parse("x^2"), xy.parse("y^2")])
    for _ in range(25):
        p = rand_poly(rng, xy, max_deg=4)
        r, cofs = normal_form_with_cofactors(p, gb)
        rebuilt = sum((c * b for c, b in zip(cofs, gb.basis)), r)
        assert rebuilt == p


def test_buchberger_deterministic(xy):
    gens = [xy.parse("x^2 - y"), xy.parse("y^2 - x"), xy.parse("x*y - 1")]
    first = buchberger(gens)
    second = buchberger(gens)
    assert [str(g) for g in first.basis] == [str(g) for g in second.basis]


def test_scalar_groebner_runs_build_no_representation_rows(monkeypatch):
    """An ideal S-vector has one component and a representation row one per
    generator, so on three generators a combination of any other length is
    a row, which no scalar run needs."""
    combine = cising.polyring.vec_combine

    def one_component_only(ring, n, terms):
        if n != 1:
            raise AssertionError(f"row of length {n}")
        return combine(ring, n, terms)

    monkeypatch.setattr(cising.polyring, "vec_combine", one_component_only)
    ring = PolyRing(["x", "y", "z"])
    gens = [ring.parse(g) for g in ("x^2 + y*z", "y^2 + x*z", "z^2 + x*y")]
    assert len(buchberger(gens).basis) > len(gens)
    rp = RingPresentation(ring, gens)
    tower_ring(ring, gens, 2)
    is_regular_sequence(ring, gens)
    hilbert_function(rp, 4)


def test_monomial_cap(xy):
    with pytest.raises(ResourceLimitError):
        buchberger([xy.parse("x^2 - y"), xy.parse("y^2 - x")], max_monomials=3)


# -- Hilbert functions ---------------------------------------------------------

def series_product(a, b, bound):
    out = [F(0)] * (bound + 1)
    for i, ai in enumerate(a):
        if i > bound:
            break
        for j, bj in enumerate(b):
            if i + j > bound:
                break
            out[i + j] += ai * bj
    return out


def series_quotient(num, den, bound):
    assert den[0] == 1
    out = []
    for k in range(bound + 1):
        val = F(num[k]) if k < len(num) else F(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            val -= den[i] * out[k - i]
        out.append(val)
    return out


def hilbert_series_oracle(weights, rel_degrees, bound):
    num = [F(1)]
    for d in rel_degrees:
        minus = [F(0)] * (d + 1)
        minus[0], minus[d] = F(1), F(-1)
        num = series_product(num, minus, bound)
    den = [F(1)]
    for w in weights:
        minus = [F(0)] * (w + 1)
        minus[0], minus[w] = F(1), F(-1)
        den = series_product(den, minus, bound)
    return [int(c) for c in series_quotient(num, den, bound)]


def test_hilbert_frozen_circle(xy):
    rp = RingPresentation(xy, [xy.parse("x^2 + y^2")])
    assert hilbert_function(rp, 4) == [1, 2, 2, 2, 2]


def test_hilbert_weighted_free_ring():
    ring = PolyRing(["x", "y"], weights=(1, 2))
    rp = RingPresentation(ring, [])
    assert hilbert_function(rp, 4) == [1, 1, 2, 2, 3]


def test_hilbert_rejects_inhomogeneous(xy):
    rp = RingPresentation(xy, [xy.parse("x^2 - y")])
    with pytest.raises(GradingError):
        hilbert_function(rp, 3)


def test_hilbert_matches_series_oracle():
    cases = [
        (PolyRing(["x", "y"]), ["x^2", "y^2"]),
        (PolyRing(["x", "y"]), ["x^2 + y^2"]),
        (PolyRing(["x", "y"], weights=(1, 2)), ["y^2 + x^4"]),
        (PolyRing(["x", "y", "z"]), ["x^2 + y*z", "z^3"]),
    ]
    for ring, rel_strings in cases:
        rels = [ring.parse(s) for s in rel_strings]
        assert is_regular_sequence(ring, rels)
        rp = RingPresentation(ring, rels)
        degrees = [g.homogeneous_degree() for g in rels]
        expected = hilbert_series_oracle(ring.weights, degrees, 10)
        assert hilbert_function(rp, 10) == expected


@pytest.mark.parametrize("slack", [-1, 0])
def test_hilbert_function_checks_every_degree_before_listing(monkeypatch,
                                                            slack):
    """A cap one below the monomial count of the largest degree refuses
    before any degree is listed, with the message of standard_monomials; a
    cap equal to it lets every degree be listed."""
    ring = PolyRing(list("abcdefghijkl"))
    cap = ring.monomial_count(4) + slack        # C(15, 4) = 1365
    rp = RingPresentation(ring, [ring.parse("a^2"), ring.parse("b^2")],
                          max_monomials=cap)
    if slack < 0:
        def refuse(self, d):
            raise AssertionError(f"monomials of degree {d} were listed")

        # every listing, tuples or packed, goes through _packed_monomials
        monkeypatch.setattr(PolyRing, "_packed_monomials", refuse)
        message = "degree 4 has 1365 monomials, over the monomial cap 1364"
        with pytest.raises(ResourceLimitError, match=message):
            hilbert_function(rp, 4)
        with pytest.raises(ResourceLimitError, match=message):
            rp.standard_monomials(4)
    else:
        assert hilbert_function(rp, 4) == \
            hilbert_series_oracle(ring.weights, [2, 2], 4)


# -- regular sequences ----------------------------------------------------------

def test_regular_sequence_cases(xy):
    assert is_regular_sequence(xy, [xy.parse("x^2"), xy.parse("y^2")])
    assert is_regular_sequence(xy, [xy.parse("x^2 + y^2")])
    assert is_regular_sequence(xy, [xy.parse("x^2 + y^2"), xy.parse("x^2")])
    assert is_regular_sequence(xy, [])
    assert not is_regular_sequence(xy, [xy.parse("x"), xy.parse("x")])
    assert not is_regular_sequence(xy, [xy.parse("x^2"), xy.parse("x^3")])
    assert not is_regular_sequence(xy, [xy.parse("x"), xy.parse("y"),
                                        xy.parse("x + y")])


def test_unit_ideal_is_not_a_regular_sequence(xy):
    x = PolyRing(["x"])
    assert not is_regular_sequence(x, [x.parse("x"), x.one()])
    assert not is_regular_sequence(x, [x.one()])
    assert not is_regular_sequence(xy, [xy.parse("x"), xy.parse("y"), xy.one()])
    assert not is_regular_sequence(xy, [xy.parse("x^2"), xy.constant(3)])


def test_regular_sequence_forty_variables():
    ring = PolyRing([f"x{i}" for i in range(40)])
    regular = [ring.parse("x0^2 + x1*x2 + x39^2"), ring.parse("x0*x1 + x3^2 + x38*x39")]
    shared = [ring.parse("x0*x1"), ring.parse("x0*x2")]
    start = time.perf_counter()
    assert is_regular_sequence(ring, regular)
    assert not is_regular_sequence(ring, shared)
    assert time.perf_counter() - start < 1.0


def test_min_transversal_matches_subset_enumeration():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(1, 7)
        supports = [frozenset(rng.sample(range(n), rng.randint(1, min(n, 3))))
                    for _ in range(rng.randint(1, 5))]
        # brute force: the largest variable subset containing no support
        free = max(len(subset) for mask in range(1 << n)
                   for subset in [{i for i in range(n) if mask >> i & 1}]
                   if not any(s <= subset for s in supports))
        tau = n - free
        for limit in range(n + 1):
            expected = tau if tau <= limit else limit + 1
            assert _min_transversal(supports, limit) == expected


def test_regular_sequence_requires_homogeneous(xy):
    with pytest.raises(GradingError):
        is_regular_sequence(xy, [xy.parse("x^2 - y")])


# -- towers and square-zero stages ---------------------------------------------

def test_tower_frozen_example(xy):
    rp = tower_ring(xy, [xy.parse("x^2 + y^2")], 2)
    assert hilbert_function(rp, 10) == [1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4]


def test_tower_order_one_is_original(xy):
    f = xy.parse("x^2 + y^2")
    rp = tower_ring(xy, [f], 1)
    assert [str(g) for g in rp.gb.basis] == \
        [str(g) for g in RingPresentation(xy, [f]).gb.basis]


def test_tower_rejects_order_zero(xy):
    with pytest.raises(ValidationError):
        tower_ring(xy, [xy.parse("x")], 0)


def test_tower_monotone_and_stabilizing(xy):
    gens = [xy.parse("x^2"), xy.parse("y^3")]
    ambient = hilbert_function(RingPresentation(xy, []), 8)
    min_deg = 2
    previous = None
    for n in range(1, 4):
        hf = hilbert_function(tower_ring(xy, gens, n), 8)
        if previous is not None:
            assert all(a <= b for a, b in zip(previous, hf))
        for d in range(9):
            if n * min_deg > d:
                assert hf[d] == ambient[d]
        previous = hf


def test_square_zero_frozen():
    ring = PolyRing(["x"])
    quartic = RingPresentation(ring, [ring.parse("x^4")])
    assert is_square_zero(quartic, [ring.parse("x^2")])
    cubic = RingPresentation(ring, [ring.parse("x^3")])
    assert not is_square_zero(cubic, [ring.parse("x")])


def test_square_zero_filtration_frozen(xy):
    ring = PolyRing(["x"])
    assert square_zero_filtration(ring, [ring.parse("x")], 3) == [True, True]
    assert square_zero_filtration(xy, [xy.parse("x^2 + y^2")], 2) == [True]
    assert square_zero_filtration(ring, [ring.parse("x")], 1) == []


def square_zero_stages_by_groebner(ring, gens, n):
    """The filtration by algebra: stage k presents the quotient by the
    products of k+1 generators and the pure n-th powers, then checks that
    the products of k generators square to zero there."""
    def products(k):
        return [prod(combo, start=ring.one())
                for combo in combinations_with_replacement(gens, k)]

    pure = [g ** n for g in gens]
    return [is_square_zero(RingPresentation(ring, products(k + 1) + pure),
                           products(k))
            for k in range(n - 1, 0, -1)]


def test_square_zero_filtration_randomized():
    rng = random.Random(43)
    ring = PolyRing(["x", "y"])
    pool = ["x^2 + y^2", "x*y", "x^2 - y^2", "x^2", "y^2 + x*y"]
    for _ in range(6):
        count = rng.randint(1, 2)
        gens = [ring.parse(rng.choice(pool)) for _ in range(count)]
        n = rng.randint(1, 3)
        assert (square_zero_filtration(ring, gens, n)
                == square_zero_stages_by_groebner(ring, gens, n))


ABCD = PolyRing(["a", "b", "c", "d"])


@pytest.mark.parametrize("ring, gens, n", [
    (ABCD, ["a^2", "b^2", "c^2", "d^2", "0"], 3),
    (PolyRing(["x", "y"]), ["x", "1"], 3),
    (PolyRing(["x", "y", "z"], weights=[1, 2, 3]), ["x^2 + y", "x*y - z"], 3),
    (ABCD, ["a^2 + b*c", "b^2 + c*d", "c^2 + d*a"], 1),
    (ABCD, ["a^2 + b*c", "b^2 + c*d", "c^2 + d*a"], 2),
    (ABCD, ["a^2 + b*c", "b^2 + c*d", "c^2 + d*a"], 3),
], ids=["zero-generator", "unit-generator", "weighted", "quadrics-1",
        "quadrics-2", "quadrics-3"])
def test_square_zero_filtration_matches_the_groebner_stages(ring, gens, n):
    gens = [ring.parse(g) for g in gens]
    expected = square_zero_stages_by_groebner(ring, gens, n)
    assert square_zero_filtration(ring, gens, n) == expected == [True] * (n - 1)


def test_square_zero_filtration_refuses_a_generator_outside_the_ring(xy):
    other = PolyRing(["x", "y", "z"])
    for stranger in (other.parse("x"), 1):
        with pytest.raises(ValidationError, match="polynomials in the ring"):
            square_zero_filtration(xy, [xy.parse("x"), stranger], 2)


@pytest.mark.parametrize("build", [tower_ring])
@pytest.mark.parametrize("n", [12, 64])
def test_power_expansion_refused_before_buchberger(monkeypatch, build, n):
    # all 15 degree-2 monomials in 5 variables: q^5 already has 1001 terms
    ring = PolyRing(["a", "b", "c", "d", "e"])
    q = sum((ring.monomial(m) for m in ring.monomials_of_degree(2)), ring.zero())
    entered = []
    monkeypatch.setattr(cising.polyring, "buchberger",
                        lambda *args, **kwargs: entered.append(args))
    with pytest.raises(ResourceLimitError, match="product of generators"):
        build(ring, [q], n, max_monomials=1000)
    assert entered == []


def test_standard_monomials_cap_raises_before_listing(monkeypatch):
    # 12 variables: C(14, 3) = 364 monomials of degree 3, C(15, 4) = 1365 of 4
    rp = RingPresentation(PolyRing(list("abcdefghijkl")), [], max_monomials=364)
    assert len(rp.standard_monomials(3)) == 364
    listed = []
    monkeypatch.setattr(PolyRing, "_packed_monomials",
                        lambda self, d: listed.append(d))
    with pytest.raises(ResourceLimitError, match="monomial cap 364"):
        rp.standard_monomials(4)
    assert listed == []


@pytest.mark.parametrize("ring", [
    PolyRing(["x", "y", "z"]),
    PolyRing(["a", "b", "c"], weights=[1, 2, 3]),
    PolyRing(["s", "t", "u"], weights=[2, 2, 2]),
    PolyRing([]),
])
def test_monomial_count_counts_without_listing(ring):
    for d in range(-2, 13):
        assert ring.monomial_count(d) == len(ring.monomials_of_degree(d))
