import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import cising
import cising.ciext
from cising.ciext import (
    DGModule,
    ExtModule,
    FG_CERTIFIED,
    FG_NOT,
    FG_WINDOW,
    FreeResolution,
    GradedModulePresentation,
    coherence_report,
    cyclic_module,
    default_window,
    eisenbud_ops,
    ext_module,
    fg_check,
    hstar_dims,
    minimal_generators,
    minimal_resolution,
    minimize_dg,
    new_generator_counts,
    residue_field_module,
)
from cising.errors import (
    GradingError,
    InvariantError,
    NotRegularSequenceError,
    ReduceVariablesError,
    ResourceLimitError,
    ValidationError,
)
from cising.exactq import Mat, rank

from cising.polyring import PolyRing, RingPresentation, vec_is_zero
from cising.syzygies import syzygies

from randomized_lifts import randomized_lifts

F = Fraction


def presentation(variables, ideal_strings, weights=None):
    ring = PolyRing(variables, weights=weights)
    return RingPresentation(ring, [ring.parse(s) for s in ideal_strings])


def cols_as_strings(columns):
    return [[str(p) for p in col] for col in columns]


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


def test_resolution_k_over_dual_numbers():
    rp = presentation(["x"], ["x^2"])
    res = minimal_resolution(rp, residue_field_module(rp), 5)
    assert res.betti == [1, 1, 1, 1, 1, 1]
    for i in range(1, 6):
        assert cols_as_strings(res.differential(i)) == [["x"]]
    assert res.twists == [[0], [1], [2], [3], [4], [5]]


def test_resolution_k_over_polynomial_ring():
    ring = PolyRing(["x"])
    rp = RingPresentation(ring, [])
    res = minimal_resolution(rp, residue_field_module(rp), 3)
    assert res.betti == [1, 1, 0, 0]
    assert cols_as_strings(res.differential(1)) == [["x"]]
    assert res.differential(2) == []


def test_resolution_k_over_two_quadrics():
    rp = presentation(["x", "y"], ["x^2", "y^2"])
    res = minimal_resolution(rp, residue_field_module(rp), 3)
    assert res.betti == [1, 2, 3, 4]


def series_product(a, b, n):
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(n + 1)]


def series_inverse(a, n):
    assert a[0] == 1
    inv = [F(1)] + [F(0)] * n
    for d in range(1, n + 1):
        inv[d] = -sum(a[i] * inv[d - i] for i in range(1, d + 1))
    return inv


def poincare_series(nvars, weights_of_quadrics, n):
    """Coefficients of (1+t)^nvars / prod_j (1 - t^2) through degree n."""
    out = [F(0)] * (n + 1)
    out[0] = F(1)
    one_plus_t = [F(1), F(1)] + [F(0)] * max(0, n - 1)
    for _ in range(nvars):
        out = series_product(out, one_plus_t[:n + 1], n)
    denom = [F(1)] + [F(0)] * n
    for _ in range(weights_of_quadrics):
        factor = [F(1)] + [F(0)] * n
        if n >= 2:
            factor[2] = F(-1)
        denom = series_product(denom, factor, n)
    return series_product(out, series_inverse(denom, n), n)


def test_betti_match_poincare_series():
    cases = [
        (["x"], ["x^2"], 8),
        (["x", "y"], ["x^2", "y^2"], 8),
        (["x", "y"], ["x^2 + y^2"], 8),
        (["x", "y", "z"], ["x^2", "y^2"], 5),
    ]
    for variables, ideal, top in cases:
        rp = presentation(variables, ideal)
        res = minimal_resolution(rp, residue_field_module(rp), top)
        expected = poincare_series(len(variables), len(ideal), top)
        assert [F(b) for b in res.betti] == expected


def test_resolution_is_minimal_and_a_complex():
    rp = presentation(["x", "y"], ["x^2", "y^2"])
    res = minimal_resolution(rp, residue_field_module(rp), 5)
    assert res.is_minimal()
    for cols in res.differentials:
        for col in cols:
            for p in col:
                assert p.constant_coefficient() == 0


def _slice_matrix(rp, src_twists, tgt_twists, columns, e):
    """Degree-e slice of the map given by ``columns``, as a rational matrix."""
    src = [(k, m) for k, t in enumerate(src_twists)
           for m in rp.standard_monomials(e - t)]
    tgt = {}
    for k, t in enumerate(tgt_twists):
        for m in rp.standard_monomials(e - t):
            tgt[(k, m)] = len(tgt)
    vecs = []
    for k, mono in src:
        mp = rp.ring.monomial(mono)
        vec = [F(0)] * len(tgt)
        for r, p in enumerate(columns[k]):
            image = rp.normal_form(mp * p)
            for expo, coeff in image.terms.items():
                vec[tgt[(r, expo)]] = coeff
        vecs.append(vec)
    return vecs, len(tgt)


def test_resolution_exactness_by_slices():
    # independent check: in each degree slice, rank(d_i) + rank(d_{i+1})
    # accounts for the whole middle dimension
    rp = presentation(["x", "y"], ["x^2", "y^2"])
    res = minimal_resolution(rp, residue_field_module(rp), 4)
    for i in range(1, 4):
        src = res.twists[i]
        for e in range(0, 7):
            mid_dim = sum(len(rp.standard_monomials(e - t)) for t in src)
            out_vecs, _ = _slice_matrix(rp, src, res.twists[i - 1],
                                        res.differential(i), e)
            in_vecs, in_dim = _slice_matrix(rp, res.twists[i + 1], src,
                                            res.differential(i + 1), e)
            rank_out = rank(Mat.from_columns(out_vecs, sum(
                len(rp.standard_monomials(e - t)) for t in res.twists[i - 1]))) \
                if out_vecs else 0
            rank_in = rank(Mat.from_columns(in_vecs, in_dim)) if in_vecs else 0
            assert rank_out + rank_in == mid_dim


def test_resolution_deterministic():
    rp = presentation(["x", "y"], ["x^2", "y^2"])
    a = minimal_resolution(rp, residue_field_module(rp), 4)
    b = minimal_resolution(rp, residue_field_module(rp), 4)
    assert a.twists == b.twists
    assert [cols_as_strings(c) for c in a.differentials] == \
        [cols_as_strings(c) for c in b.differentials]


# SHA-256 of the JSON list of differentials, each a list of columns of entry
# strings, computed with the code as it was before monomial normal forms were
# cached and engine certificates reused.
DEEP_DIFFERENTIALS_SHA256 = (
    "91e405cbce03c630dccac529ee2258598909ab088853e8ca458f6647755fd510")


def test_resolution_pin_above_the_benchmark_degrees():
    """k over (a^2+bc, b^2+cd, c^2+de) out to step 5: degree-5 syzygies,
    beyond those of the benchmark jobs, where a wrong cached normal form or
    certificate would change the minimal generators."""
    rp = presentation(list("abcde"), ["a^2 + b*c", "b^2 + c*d", "c^2 + d*e"])
    res = minimal_resolution(rp, residue_field_module(rp), 5)
    assert res.betti == [1, 5, 13, 25, 41, 61]
    rendered = json.dumps([cols_as_strings(c) for c in res.differentials])
    assert hashlib.sha256(rendered.encode()).hexdigest() == \
        DEEP_DIFFERENTIALS_SHA256


# SHA-256 of the JSON list of differentials of the resolution below, computed
# with the code as it was before the engine took over the relations of the
# pairs its criteria drop.
NONLINEAR_DIFFERENTIALS_SHA256 = (
    "6f6d693a050a0c173d46bf6b2075577f14abbc9d38189313ccd5f916438de304")


def test_resolution_pin_of_a_nonlinear_resolution():
    """A/(ab, cd + e^2) over A = k[a..e]/(a^2+bc, b^2+cd, c^2+de) out to step
    5.  Unlike k, its resolution is not linear: the twists jump from 2 to 5
    at step 2, so kernels of mixed degree pass through the kernel step."""
    rp = presentation(list("abcde"), ["a^2 + b*c", "b^2 + c*d", "c^2 + d*e"])
    ring = rp.ring
    module = cyclic_module(rp, [ring.parse("a*b"), ring.parse("c*d + e^2")])
    res = minimal_resolution(rp, module, 5)
    assert res.betti == [1, 2, 3, 7, 14, 23]
    assert res.twists[:3] == [[0], [2, 2], [4, 5, 5]]
    assert res.twists[3:] == [[6] * 7, [7] * 14, [8] * 23]
    rendered = json.dumps([cols_as_strings(c) for c in res.differentials])
    assert hashlib.sha256(rendered.encode()).hexdigest() == \
        NONLINEAR_DIFFERENTIALS_SHA256


def test_resolution_rejects_non_regular_sequence():
    rp = presentation(["x", "y"], ["x*y", "x^2"])
    with pytest.raises(NotRegularSequenceError):
        minimal_resolution(rp, residue_field_module(rp), 3)


def test_resolution_rejects_inhomogeneous():
    ring = PolyRing(["x", "y"])
    rp = RingPresentation(ring, [ring.parse("x^2 + y")])
    with pytest.raises(GradingError) as err:
        minimal_resolution(rp, residue_field_module(rp), 3)
    assert "tangentlie" in str(err.value)


def test_resolution_rejects_foreign_module():
    rp = presentation(["x"], ["x^2"])
    other = presentation(["x"], ["x^3"])
    with pytest.raises(ValidationError):
        minimal_resolution(rp, residue_field_module(other), 3)


def test_unit_cancellation_in_presentation():
    rp = presentation(["x"], ["x^2"])
    ring = rp.ring
    x = ring.var("x")
    # generator 2 equals x * generator 1 and nothing else is imposed, so this
    # bloated presentation is secretly free of rank one
    bloated_free = GradedModulePresentation(
        rp, [0, 1],
        [[x, ring.constant(-1)], [ring.zero(), x]])
    res = minimal_resolution(rp, bloated_free, 4)
    assert res.betti == [1, 0, 0, 0, 0]

    # same thing plus "x * generator 1 = 0" collapses to the residue field
    bloated_k = GradedModulePresentation(
        rp, [0, 1],
        [[x, ring.constant(-1)], [ring.zero(), x], [x, ring.zero()]])
    res_k = minimal_resolution(rp, bloated_k, 4)
    clean = minimal_resolution(rp, residue_field_module(rp), 4)
    assert res_k.betti == clean.betti
    assert [cols_as_strings(c) for c in res_k.differentials] == \
        [cols_as_strings(c) for c in clean.differentials]


def test_zero_module_resolves_to_nothing():
    rp = presentation(["x"], ["x^2"])
    ring = rp.ring
    zero_mod = cyclic_module(rp, [ring.one()])
    res = minimal_resolution(rp, zero_mod, 3)
    assert res.betti == [0, 0, 0, 0]


def test_free_module_resolution_stops():
    rp = presentation(["x"], ["x^2"])
    res = minimal_resolution(rp, GradedModulePresentation(rp, [0, 2], []), 3)
    assert res.betti == [2, 0, 0, 0]


def test_minimal_generators_drops_redundant():
    rp = presentation(["x", "y"], [])
    ring = rp.ring
    x, y = ring.gens()
    cols = [[x], [y], [x + y], [x * y]]
    kept, degrees = minimal_generators(rp, [0], cols)
    assert degrees == [1, 1]
    assert cols_as_strings(kept) == [["x"], ["y"]]


# ---------------------------------------------------------------------------
# operators and Ext
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variables, ideal", [
    (["x", "y"], ["x^2", "y^2"]),                       # zero columns
    (["a", "b", "c", "d"], ["a*b + c^2", "b*d - a^2"]),  # a repeated syzygy
])
def test_kernel_generators_drop_zero_and_repeated_columns(variables, ideal):
    """The kernel step hands minimal_generators the source coordinates of
    the syzygies as they come; it keeps the same generators as when zero
    columns and repeats are dropped first, or when more are added."""
    rp = presentation(variables, ideal)
    ring = rp.ring
    res = minimal_resolution(rp, residue_field_module(rp), 4)
    for i in range(1, res.length):
        target, columns = res.twists[i - 1], res.differentials[i - 1]
        ambient = [list(c) for c in columns]
        for f in rp.ideal:
            for k in range(len(target)):
                column = [ring.zero()] * len(target)
                column[k] = f
                ambient.append(column)
        found = syzygies(ring, len(target), ambient)
        assert not any(vec_is_zero(s) for s in found)
        raw = [s[:len(columns)] for s in found]
        kernel = []
        for s in raw:
            if any(not p.is_zero() for p in s) and s not in kernel:
                kernel.append(s)
        kept = (res.differentials[i], res.twists[i + 1])
        assert minimal_generators(rp, res.twists[i], kernel) == kept
        assert minimal_generators(rp, res.twists[i], raw) == kept
        noisy = raw + [[ring.zero()] * len(columns)] + raw
        assert minimal_generators(rp, res.twists[i], noisy) == kept


def test_ext_dims_dual_numbers():
    rp = presentation(["x"], ["x^2"])
    ext = ext_module(rp, residue_field_module(rp), 6)
    assert ext.dims == [1, 1, 1, 1, 1, 1, 1]
    for op in ext.operators[0]:
        assert op.rows == [[F(1)]]


def test_ext_dims_two_quadrics():
    rp = presentation(["x", "y"], ["x^2", "y^2"])
    ext = ext_module(rp, residue_field_module(rp), 4)
    assert ext.dims == [1, 2, 3, 4, 5]


def test_ext_dims_polynomial_ring():
    ring = PolyRing(["x"])
    rp = RingPresentation(ring, [])
    ext = ext_module(rp, residue_field_module(rp), 4)
    assert ext.dims == [1, 1, 0, 0, 0]
    assert ext.operators == []


def test_zero_module_zero_operators():
    rp = presentation(["x"], ["x^2"])
    ext = ext_module(rp, cyclic_module(rp, [rp.ring.one()]), 5)
    assert ext.dims == [0, 0, 0, 0, 0, 0]
    for ops in ext.operators:
        for op in ops:
            assert op.nrows == 0 and op.ncols == 0


def test_operators_reject_linear_ideal_generator():
    # weights make x + y^2 homogeneous, but its order at the origin is 1
    rp = presentation(["x", "y"], ["x + y^2"], weights=[2, 1])
    with pytest.raises(ReduceVariablesError):
        ext_module(rp, residue_field_module(rp), 4)


def test_operator_lift_independence():
    """R/(xy, z^2) has differential entries of degree 2, the degree of the
    f_j, so random ideal multiples do change its lifts; the operators read
    off them do not change."""
    rp = presentation(["x", "y", "z"], ["x^2 + y*z", "y^2 - x*z"])
    ring = rp.ring
    module = cyclic_module(rp, [ring.parse("x*y"), ring.parse("z^2")])
    reference = ext_module(rp, module, 6)
    for seed in (1, 2, 3):
        lifted = randomized_lifts(rp, reference.resolution, random.Random(seed))
        # at least one entry changed, so the check is never vacuous
        assert lifted.differentials != reference.resolution.differentials
        operators, _ = eisenbud_ops(rp, lifted)
        assert operators == reference.operators


def test_ext_builds_each_composite_once(monkeypatch):
    """The d∘d check and the operators read the same composites
    d_i∘d_{i+1}, built once per resolution: one ``vec_combine`` per column
    of d_{i+1}, i = 1..length-1."""
    calls = []
    original = cising.ciext.vec_combine

    def spy(*args):
        calls.append(1)
        return original(*args)

    rp = presentation(["x", "y", "z"], ["x^2 + y*z", "y^2 - x*z"])
    monkeypatch.setattr(cising.ciext, "vec_combine", spy)
    ext = ext_module(rp, residue_field_module(rp), 5)
    assert len(calls) == sum(ext.resolution.betti[2:]) > 0


def _compose_columns(outer, target_rank, inner):
    """Columns of outer . inner over the ambient ring."""
    zero = None
    out = []
    for v in inner:
        col = None
        for k, coeff in enumerate(v):
            term = [coeff * p for p in outer[k]]
            col = term if col is None else [a + b for a, b in zip(col, term)]
        if col is None:
            col = []
        out.append(col)
    return out


def test_operator_chain_map_property():
    # d . t_j agrees with t_j . d after reduction, in every available degree
    for variables, ideal in [
        (["x"], ["x^2"]),
        (["x", "y"], ["x^2", "y^2"]),
        (["x", "y"], ["x^2 + y^2"]),
    ]:
        rp = presentation(variables, ideal)
        ext = ext_module(rp, residue_field_module(rp), 6)
        res = ext.resolution
        for j, lift_family in enumerate(ext.operator_lifts):
            for i in range(1, res.length - 1):
                left = _compose_columns(res.differential(i), res.betti[i - 1],
                                        lift_family[i])
                right = _compose_columns(lift_family[i - 1], res.betti[i - 1],
                                         res.differential(i + 2))
                for lc, rc in zip(left, right):
                    for a, b in zip(lc, rc):
                        assert rp.normal_form(a - b).is_zero()


def test_ext_from_nonminimal_complex_matches_betti():
    # independent route to the Ext dims: dualize a NON-minimal resolution of
    # k over k[x]/(x^2) (a trivial two-term summand glued in) and take
    # cohomology of the constant parts
    rp = presentation(["x"], ["x^2"])
    x = rp.ring.var("x")
    zero, one = rp.ring.zero(), rp.ring.one()
    betti = [1, 2, 2, 1]
    consts = {
        1: Mat([[F(0), F(0)]], 2),
        2: Mat([[F(0), F(0)], [F(0), F(1)]], 2),
        3: Mat([[F(0)], [F(0)]], 1),
    }
    dims = []
    for i in range(4):
        incoming = consts.get(i)
        outgoing = consts.get(i + 1)
        d = betti[i]
        d -= rank(incoming) if incoming is not None else 0
        d -= rank(outgoing) if outgoing is not None else 0
        dims.append(d)
    minimal = minimal_resolution(rp, residue_field_module(rp), 3)
    assert dims == minimal.betti


def test_hypersurface_betti_periodicity():
    for variables, ideal, start in [
        (["x"], ["x^2"], 1),
        (["x", "y"], ["x^2 + y^2"], 2),
    ]:
        rp = presentation(variables, ideal)
        res = minimal_resolution(rp, residue_field_module(rp), 8)
        for i in range(start, 7):
            assert res.betti[i + 2] == res.betti[i]


# ---------------------------------------------------------------------------
# finite-generation verdicts
# ---------------------------------------------------------------------------


def test_fg_certified_dual_numbers():
    rp = presentation(["x"], ["x^2"])
    ext = ext_module(rp, residue_field_module(rp), 8)
    verdict = fg_check(ext, (4, 8))
    assert verdict.status == FG_CERTIFIED
    assert verdict.generator_degrees == [0, 1]
    assert verdict.certificate == {"period": 2, "start": 1}


def test_fg_window_two_quadrics():
    rp = presentation(["x", "y"], ["x^2", "y^2"])
    ext = ext_module(rp, residue_field_module(rp), 10)
    verdict = fg_check(ext, (6, 10))
    assert verdict.status == FG_WINDOW
    assert verdict.generator_degrees == [0, 1, 1, 2]
    assert verdict.certificate is None


def test_fg_synthetic_not_fg():
    ops = [[Mat.zero(1, 1) for _ in range(9)] for _ in range(2)]
    ext = ExtModule(dims=[1] * 11, operators=ops)
    verdict = fg_check(ext, (5, 10))
    assert verdict.status == FG_NOT
    assert verdict.certificate == {
        "new_generators_in_window": [5, 6, 7, 8, 9, 10]}


def test_fg_window_validation():
    rp = presentation(["x"], ["x^2"])
    ext = ext_module(rp, residue_field_module(rp), 6)
    with pytest.raises(ValidationError):
        fg_check(ext, (1, 6))
    with pytest.raises(ValidationError):
        fg_check(ext, (4, 5))
    with pytest.raises(ValidationError):
        fg_check(ext, (4, 12))


def test_new_generator_counts_dual_numbers():
    rp = presentation(["x"], ["x^2"])
    ext = ext_module(rp, residue_field_module(rp), 6)
    assert new_generator_counts(ext, 6) == [1, 1, 0, 0, 0, 0, 0]


def test_default_window():
    assert default_window(10) == (5, 10)
    assert default_window(9) == (5, 9)


def test_coherence_report_examples():
    rp = presentation(["x", "y"], ["x^2 + y^2"])
    report = coherence_report(rp, residue_field_module(rp), (5, 10))
    assert report.verdict.status == FG_CERTIFIED
    assert report.betti == [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]

    rp2 = presentation(["x", "y"], ["x^2", "y^2"])
    report2 = coherence_report(rp2, cyclic_module(rp2, [rp2.ring.var("x")]),
                               (5, 10))
    assert report2.verdict.status == FG_WINDOW
    assert report2.betti == [1] * 11

    ring3 = PolyRing(["x"])
    rp3 = RingPresentation(ring3, [])
    report3 = coherence_report(rp3, residue_field_module(rp3))
    assert report3.verdict.status == FG_CERTIFIED
    assert report3.dims == [1, 1] + [0] * 9


def test_twisted_residue_field_certifies():
    rp = presentation(["x"], ["x^2"])
    ext = ext_module(rp, residue_field_module(rp, twist=3), 8)
    verdict = fg_check(ext, (4, 8))
    assert verdict.status == FG_CERTIFIED
    assert ext.resolution.twists[0] == [3]


# ---------------------------------------------------------------------------
# DG modules over the operator ring
# ---------------------------------------------------------------------------


def chi_ring(c=1):
    return PolyRing([f"ch{j + 1}" for j in range(c)], weights=[2] * c)


def test_dg_validation():
    ring = chi_ring()
    with pytest.raises(ValidationError):
        DGModule(ring=PolyRing(["t"]), degrees=[0], differential=[[PolyRing(["t"]).zero()]])
    with pytest.raises(ValidationError):
        DGModule(ring=ring, degrees=[0, 1], differential=[[ring.zero()]])
    with pytest.raises(GradingError):
        DGModule(ring=ring, degrees=[0, 0],
                 differential=[[ring.zero(), ring.var("ch1")],
                               [ring.zero(), ring.zero()]])
    with pytest.raises(ValidationError):
        # d^2 != 0: two stacked identity arrows 0 -> 1 -> 2
        DGModule(ring=ring, degrees=[0, 1, 2],
                 differential=[[ring.zero()] * 3,
                               [ring.one(), ring.zero(), ring.zero()],
                               [ring.zero(), ring.one(), ring.zero()]])


def test_minimize_free_rank_one():
    ring = chi_ring()
    dg = DGModule(ring=ring, degrees=[0], differential=[[ring.zero()]])
    result = minimize_dg(dg)
    assert result.minimal.degrees == [0]
    assert result.hstar == {t: (1 if t % 2 == 0 else 0) for t in range(11)}


def test_minimize_identity_cone():
    ring = chi_ring()
    dg = DGModule(ring=ring, degrees=[0, 1],
                  differential=[[ring.zero(), ring.zero()],
                                [ring.one(), ring.zero()]])
    result = minimize_dg(dg)
    assert result.minimal.degrees == []
    assert result.hstar == {t: 0 for t in range(11)}


def test_minimize_operator_cone():
    ring = chi_ring()
    dg = DGModule(ring=ring, degrees=[0, 1],
                  differential=[[ring.zero(), ring.var("ch1")],
                                [ring.zero(), ring.zero()]])
    result = minimize_dg(dg)
    assert result.minimal.degrees == [0, 1]  # already minimal
    assert result.hstar[0] == 1
    assert all(v == 0 for t, v in result.hstar.items() if t != 0)


def test_hstar_dims_negative_range():
    ring = chi_ring()
    dg = DGModule(ring=ring, degrees=[-2], differential=[[ring.zero()]])
    dims = hstar_dims(dg, -4, 2)
    assert dims == {-4: 0, -3: 0, -2: 1, -1: 0, 0: 1, 1: 0, 2: 1}


def test_hstar_slice_cap_is_the_largest_slice_built():
    ring = chi_ring(2)
    dg = DGModule(ring=ring, degrees=[0, 1, 2],
                  differential=[[ring.zero(), ring.var("ch1"), ring.zero()],
                                [ring.zero()] * 3, [ring.zero()] * 3])
    lo, hi = -1, 9
    largest = max(sum(len(ring.monomials_of_degree(tau - d)) for d in dg.degrees)
                  for tau in range(lo - 1, hi + 2))
    uncapped = hstar_dims(dg, lo, hi, max_monomials=None)
    assert hstar_dims(dg, lo, hi, max_monomials=largest) == uncapped
    with pytest.raises(ResourceLimitError, match=f"cap {largest - 1}"):
        hstar_dims(dg, lo, hi, max_monomials=largest - 1)
    with pytest.raises(ResourceLimitError):
        minimize_dg(dg, through=hi, max_monomials=largest - 1)


def _matmul(ring, a, b):
    n = len(a)
    return [[sum((a[r][k] * b[k][c] for k in range(n)), ring.zero())
             for c in range(n)] for r in range(n)]


def random_dg(rng, c):
    """A DG module assembled from standard pieces, disguised by a random
    change of basis (degree-0 unipotent automorphism)."""
    ring = chi_ring(c)
    degrees = []
    blocks = []  # (row, col, poly) entries
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["free", "acyclic", "cone"])
        base = rng.randint(-1, 2)
        if kind == "free":
            degrees.append(base)
        elif kind == "acyclic":
            u = len(degrees)
            degrees.extend([base, base + 1])
            blocks.append((u + 1, u, ring.one()))
        else:
            power = rng.randint(1, 2)
            v = len(degrees)
            degrees.extend([base, base + 2 * power - 1])
            chi = ring.var(f"ch{rng.randint(1, c)}")
            blocks.append((v, v + 1, chi ** power))
    n = len(degrees)
    matrix = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for r, col, p in blocks:
        matrix[r][col] = p
    # conjugate by elementary unipotent automorphisms
    for _ in range(rng.randint(0, 4)):
        pairs = [(r, col) for r in range(n) for col in range(n)
                 if r != col and degrees[col] - degrees[r] >= 0
                 and (degrees[col] - degrees[r]) % 2 == 0]
        if not pairs:
            break
        r, col = rng.choice(pairs)
        monos = ring.monomials_of_degree(degrees[col] - degrees[r])
        if not monos:
            continue
        lam = ring.monomial(rng.choice(monos), F(rng.randint(-2, 2)))
        s = [[ring.one() if i == j else ring.zero() for j in range(n)]
             for i in range(n)]
        sinv = [list(row) for row in s]
        s[r][col] = lam
        sinv[r][col] = -lam
        matrix = _matmul(ring, sinv, _matmul(ring, matrix, s))
    return DGModule(ring=ring, degrees=degrees, differential=matrix)


def test_minimize_preserves_cohomology_randomized():
    rng = random.Random(211)
    for _ in range(20):
        dg = random_dg(rng, rng.randint(1, 2))
        lo = min(dg.degrees) - 1
        hi = 8
        before = hstar_dims(dg, lo, hi)
        result = minimize_dg(dg)
        after = hstar_dims(result.minimal, lo, hi)
        assert before == after
        assert all(p.constant_coefficient() == 0
                   for row in result.minimal.differential for p in row)


# ---------------------------------------------------------------------------
# library cross-checks raise InvariantError, also under python -O
# ---------------------------------------------------------------------------


def _bad_resolution():
    """d1 = (x), d2 = (y) over k[x,y]/(x^2): minimal, but d1 d2 = xy != 0."""
    rp = presentation(["x", "y"], ["x^2"])
    x, y = rp.ring.var("x"), rp.ring.var("y")
    return FreeResolution(rp=rp, twists=[[0], [1], [2]],
                          differentials=[[[x]], [[y]]])


def test_assert_resolution_rejects_nonzero_composite():
    with pytest.raises(InvariantError, match="compose to zero"):
        cising.ciext._assert_resolution(_bad_resolution())


def test_assert_resolution_rejects_unit_entry():
    rp = presentation(["x"], ["x^2"])
    res = FreeResolution(rp=rp, twists=[[0], [0]],
                         differentials=[[[rp.ring.one()]]])
    with pytest.raises(InvariantError, match="unit entry"):
        cising.ciext._assert_resolution(res)


def test_assert_resolution_survives_python_O():
    script = (
        "import sys\n"
        "assert False, 'asserts must be stripped'\n"
        "from cising.ciext import FreeResolution, _assert_resolution\n"
        "from cising.errors import InvariantError\n"
        "from cising.polyring import PolyRing, RingPresentation\n"
        "ring = PolyRing(['x', 'y'])\n"
        "rp = RingPresentation(ring, [ring.parse('x^2')])\n"
        "x, y = ring.var('x'), ring.var('y')\n"
        "res = FreeResolution(rp=rp, twists=[[0], [1], [2]],\n"
        "                     differentials=[[[x]], [[y]]])\n"
        "try:\n"
        "    _assert_resolution(res)\n"
        "except InvariantError:\n"
        "    print('InvariantError', sys.flags.optimize)\n"
    )
    src = str(pathlib.Path(cising.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "InvariantError 1\n"


def test_assert_commuting_rejects_noncommuting_operators():
    swap = Mat([[0, 1], [1, 0]], 2)
    diag = Mat([[1, 0], [0, 2]], 2)
    ext = ExtModule(dims=[2, 2, 2, 2, 2],
                    operators=[[swap, swap, swap], [diag, diag, diag]])
    with pytest.raises(InvariantError, match="do not commute"):
        cising.ciext._assert_commuting(ext)


def test_ideal_cofactors_rejects_element_outside_ideal():
    rp = presentation(["x", "y"], ["x^2"])
    with pytest.raises(InvariantError, match="lie in the ideal"):
        cising.ciext._ideal_cofactors(rp, rp.ring.parse("x*y"), {})


def test_complete_intersection_check_reuses_the_presentations_basis(
        monkeypatch):
    """The regular-sequence check reads the leading supports of the
    Groebner basis the presentation holds (built under its own cap), so a
    resolution runs no Buchberger of its own on the ideal."""
    calls = []
    original = cising.polyring.buchberger

    def spy(generators, max_monomials=None):
        calls.append(len(generators))
        return original(generators, max_monomials=max_monomials)

    rp = presentation(["x", "y"], ["x^2", "y^2"])
    monkeypatch.setattr(cising.polyring, "buchberger", spy)
    minimal_resolution(rp, residue_field_module(rp), 2)
    assert calls == []


def test_minimize_rejects_changed_cohomology(monkeypatch):
    original = cising.ciext.hstar_dims

    def skewed(dg, lo, hi, **cap):
        dims = original(dg, lo, hi, **cap)
        return dims if dg is cone else {t: v + 1 for t, v in dims.items()}

    ring = chi_ring()
    cone = DGModule(ring=ring, degrees=[0, 1],
                    differential=[[ring.zero(), ring.zero()],
                                  [ring.one(), ring.zero()]])
    monkeypatch.setattr(cising.ciext, "hstar_dims", skewed)
    with pytest.raises(InvariantError, match="changed the cohomology"):
        minimize_dg(cone, through=6)


def test_minimize_hstar_comes_from_one_minimal_model_pass(monkeypatch):
    calls = []
    original = cising.ciext.hstar_dims

    def spy(dg, lo, hi, **cap):
        calls.append((dg.degrees, lo, hi))
        return original(dg, lo, hi, **cap)

    ring = chi_ring()
    dg = DGModule(ring=ring, degrees=[0, 1, 2],
                  differential=[[ring.zero(), ring.zero(), ring.zero()],
                                [ring.one(), ring.zero(), ring.var("ch1")],
                                [ring.zero(), ring.zero(), ring.zero()]])
    monkeypatch.setattr(cising.ciext, "hstar_dims", spy)
    result = minimize_dg(dg, through=6)
    assert result.minimal.degrees == [2]
    assert calls == [([2], -1, 6), ([0, 1, 2], -1, 6)]
    assert result.hstar == {2: 1, 3: 0, 4: 1, 5: 0, 6: 1}
