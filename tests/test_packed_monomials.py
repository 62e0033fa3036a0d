"""Property tests of the packed monomials in ``polyring``: each operation on
packed ints against the same operation on exponent tuples, kept here as
references, on grevlex, lex and weighted rings; the limit of a field; and
the CLI's exit code when a product crosses it.
"""

import json
from operator import add, le, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cising.cli import main
from cising.errors import ResourceLimitError, ValidationError
from cising.polyring import MAX_EXPONENT, PolyRing, buchberger, normal_form
from cising.syzygies import syzygies

PROPERTY = settings(max_examples=100)
RINGS = [PolyRing(["x", "y", "z"]), PolyRing(["x", "y", "z"], order="lex"),
         PolyRing(["a", "b", "c"], weights=[1, 2, 3]),
         PolyRing(["a", "b", "c"], weights=[3, 1, 2], order="lex")]


def exponents(ring, top):
    """Exponent tuples of weighted degree at most ``top``: small ones, and
    ones near the limit when ``top`` is large."""
    bound = top // sum(ring.weights)
    small = st.integers(0, 3)
    return st.tuples(*[st.one_of(small, st.integers(0, bound))] * ring.nvars)


@st.composite
def pairs(draw, top=MAX_EXPONENT // 2):
    """A ring and two exponent tuples whose product is within the limit."""
    ring = draw(st.sampled_from(RINGS))
    return ring, draw(exponents(ring, top)), draw(exponents(ring, top))


@PROPERTY
@given(pairs())
def test_pack_round_trips_and_keeps_the_degree(case):
    ring, a, _ = case
    m = ring._pack(a)
    assert ring._unpack(m) == a
    assert ring._degree(m) == ring.wdeg(a)
    assert ring.monomial(a).lm == a


@PROPERTY
@given(pairs(), st.data())
def test_order_key_is_the_sort_key(case, data):
    """Against a second tuple and against a rearrangement of the first,
    which often has the same weighted degree."""
    ring, a, b = case
    for c in (b, tuple(data.draw(st.permutations(a)))):
        ka, kc = ring._key(ring._pack(a)), ring._key(ring._pack(c))
        sa, sc = ring.sort_key(a), ring.sort_key(c)
        assert (ka < kc, ka == kc) == (sa < sc, sa == sc)


@PROPERTY
@given(pairs())
def test_divisibility_quotient_product_and_lcm(case):
    ring, a, b = case
    pa, pb = ring._pack(a), ring._pack(b)
    divides = all(map(le, a, b))
    assert ring._divides(pa, pb) == divides
    if divides:
        assert pb - pa == ring._pack(tuple(map(sub, b, a)))
    assert pa + pb == ring._pack(tuple(map(add, a, b)))
    assert ring.monomial(a) * ring.monomial(b) == ring.monomial(tuple(map(add, a, b)))
    assert ring._lcm(pa, pb) == ring._pack(tuple(map(max, a, b)))


@pytest.mark.parametrize("ring", RINGS)
def test_the_largest_exponent_is_accepted_and_the_next_refused(ring):
    for i, w in enumerate(ring.weights):
        top = [0] * ring.nvars
        top[i] = MAX_EXPONENT // w
        assert ring.monomial(top).lm == tuple(top)
        top[i] += 1
        with pytest.raises(ValidationError, match="at most 32767"):
            ring.monomial(top)


def test_a_weight_over_the_limit_is_refused_with_the_ring():
    """A weight over the limit would make every monomial in its variable
    fail to pack, so the ring refuses it and names it."""
    assert PolyRing(["x", "y"], weights=[1, MAX_EXPONENT]).monomial((0, 1)).lm == (0, 1)
    with pytest.raises(ValidationError, match="at most 32767, not 40000"):
        PolyRing(["x", "y"], weights=[1, 40000])


@pytest.mark.parametrize("ring", RINGS)
def test_a_product_over_the_limit_is_refused(ring):
    top = [MAX_EXPONENT // w for w in ring.weights]
    x = ring.monomial(top[:1] + [0] * (ring.nvars - 1))
    y = ring.monomial([0, top[1]] + [0] * (ring.nvars - 2))
    with pytest.raises(ResourceLimitError, match="over 32767"):
        x * ring.gens()[0]
    with pytest.raises(ResourceLimitError, match="over 32767"):
        x * y
    # coprime leads: their lcm is over the limit, but the product criterion
    # drops the pair, so no S-vector is formed and nothing is refused
    assert set(buchberger([x, y]).basis) == {x, y}
    # a relations run reduces every pair, so it forms that S-vector
    with pytest.raises(ResourceLimitError, match="over 32767"):
        syzygies(ring, 1, [[x], [y]])


def test_a_reduction_step_over_the_limit_is_refused():
    # under lex x leads x - y^30000, so x^2 reduces through x*y^30000
    ring = PolyRing(["x", "y"], order="lex")
    gb = buchberger([ring.parse("x - y^30000")])
    with pytest.raises(ResourceLimitError, match="over 32767"):
        normal_form(ring.parse("x^2"), gb)


def test_cli_exits_3_when_a_power_crosses_the_limit(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "tower", "variables": ["x", "y"],
                                "map": ["x^20000 + y^20000"], "n": 2}))
    assert main(["tower", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "over 32767" in captured.err
