"""End-to-end acceptance checks.

Each test exercises one advertised guarantee of the package, at the stated
sizes, with exact rational equality throughout — no tolerances anywhere.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from cising.chevalley import ce_cohomology, chevalley_cochain, extract_bracket
from cising.ciext import (
    DGModule,
    ExtModule,
    FG_CERTIFIED,
    FG_NOT,
    FG_WINDOW,
    coherence_report,
    cyclic_module,
    eisenbud_ops,
    ext_module,
    fg_check,
    hstar_dims,
    minimal_resolution,
    minimize_dg,
    residue_field_module,
)
from cising.cli import main
from cising.exactq import Mat
from cising.polyring import (
    PolyRing,
    RingPresentation,
    hilbert_function,
    square_zero_filtration,
    tower_ring,
)
from cising.tangentlie import (hessian_direct, hessian_snake, tangent_fiber,
                               tangent_lie)

from randomized_lifts import randomized_lifts

F = Fraction

JOBS = pathlib.Path(__file__).parent / "jobs"


def pmap(variables, strings):
    ring = PolyRing(variables)
    return [ring.parse(s) for s in strings]


def origin(n):
    return [F(0)] * n


def presentation(variables, ideal_strings):
    ring = PolyRing(variables)
    return RingPresentation(ring, [ring.parse(s) for s in ideal_strings])


FIXED_MAPS = [
    (["x", "y"], ["x^2 + y^2"], [0, 0]),
    (["x", "y"], ["x^2 + y^3"], [0, 0]),
    (["x", "y"], ["x^2", "y^2"], [0, 0]),
    (["x", "y"], ["x^2 - y", "y^2 - x"], [1, 1]),
]


def rand_zero_map(rng, nvars, npolys, max_deg=4):
    names = ["x", "y", "z", "w"][:nvars]
    ring = PolyRing(names)
    point = [F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(nvars)]
    monos = [m for d in range(max_deg + 1)
             for m in ring.monomials_of_degree(d)]
    polys = []
    for _ in range(npolys):
        g = ring.zero()
        for _ in range(rng.randint(1, 5)):
            g = g + ring.monomial(rng.choice(monos), F(rng.randint(-2, 2)))
        polys.append(g - ring.constant(g.subs(point)))
    return polys, point


# ---------------------------------------------------------------------------
# 1. the two bracket constructions agree exactly
# ---------------------------------------------------------------------------


def test_criterion_1_hessian_constructions_agree():
    started = time.time()
    for variables, strings, point in FIXED_MAPS:
        polys = pmap(variables, strings)
        fiber = tangent_fiber(polys, [F(c) for c in point])
        assert hessian_direct(fiber) == hessian_snake(fiber)
    rng = random.Random(17)
    for _ in range(200):
        polys, point = rand_zero_map(rng, rng.randint(1, 4), rng.randint(1, 4))
        fiber = tangent_fiber(polys, point)
        assert hessian_direct(fiber) == hessian_snake(fiber)
    assert time.time() - started < 30.0


# ---------------------------------------------------------------------------
# 2. cochain model round trip recovers the bracket
# ---------------------------------------------------------------------------


def test_criterion_2_bracket_round_trip():
    for variables, strings, point in FIXED_MAPS:
        lie = tangent_lie(pmap(variables, strings), [F(c) for c in point])
        assert extract_bracket(chevalley_cochain(lie)) == lie.bracket
    rng = random.Random(29)
    for _ in range(60):
        polys, point = rand_zero_map(rng, rng.randint(1, 4), rng.randint(1, 4))
        lie = tangent_lie(polys, point)
        assert extract_bracket(chevalley_cochain(lie)) == lie.bracket


# ---------------------------------------------------------------------------
# 3. cochain cohomology of regular quadric data: concentrated in degree 0,
#    matching the quotient ring's Hilbert function by an independent path
# ---------------------------------------------------------------------------


def test_criterion_3_quadric_cohomology_matches_hilbert():
    suite = [
        (["x", "y"], ["x^2 + y^2"]),
        (["x", "y"], ["x^2", "y^2"]),
        (["x", "y", "z"], ["x^2 + y^2 + z^2"]),
        (["x", "y"], ["x^2 + y^2", "x*y"]),
    ]
    for variables, strings in suite:
        polys = pmap(variables, strings)
        lie = tangent_lie(polys, origin(len(variables)))
        ce = chevalley_cochain(lie)
        dims = ce_cohomology(ce, 8)
        for p in range(1, ce.odd_count + 1):
            assert dims.row(p) == [0] * 9
        quotient = RingPresentation(polys[0].ring, polys)
        assert dims.row(0) == hilbert_function(quotient, 8)


# ---------------------------------------------------------------------------
# 4. Betti numbers of the residue field, with a series cross-check
# ---------------------------------------------------------------------------


def _series_product(a, b, n):
    return [sum(a[i] * b[d - i] for i in range(d + 1)) for d in range(n + 1)]


def _series_inverse(a, n):
    inv = [F(1)] + [F(0)] * n
    for d in range(1, n + 1):
        inv[d] = -sum(a[i] * inv[d - i] for i in range(1, d + 1))
    return inv


def _rational_power_series(nvars, nquadrics, n):
    """Coefficients of (1+t)^nvars / (1-t^2)^nquadrics through degree n."""
    out = [F(1)] + [F(0)] * n
    for _ in range(nvars):
        out = _series_product(out, [F(1), F(1)] + [F(0)] * (n - 1), n)
    denominator = [F(1)] + [F(0)] * n
    for _ in range(nquadrics):
        factor = [F(1), F(0), F(-1)] + [F(0)] * (n - 2)
        denominator = _series_product(denominator, factor, n)
    return _series_product(out, _series_inverse(denominator, n), n)


def test_criterion_4_betti_numbers_with_series_check():
    rp = presentation(["x"], ["x^2"])
    res = minimal_resolution(rp, residue_field_module(rp), 10)
    assert res.betti == [1] * 11
    assert [F(b) for b in res.betti] == _rational_power_series(1, 1, 10)

    rp2 = presentation(["x", "y"], ["x^2", "y^2"])
    res2 = minimal_resolution(rp2, residue_field_module(rp2), 10)
    assert res2.betti == list(range(1, 12))
    assert [F(b) for b in res2.betti] == _rational_power_series(2, 2, 10)


# ---------------------------------------------------------------------------
# 5. finite-generation verdicts over the coherent suite
# ---------------------------------------------------------------------------


SUITE_RINGS = [
    (["x"], ["x^2"], True),
    (["x", "y"], ["x^2 + y^2"], True),
    (["x", "y"], ["x^2", "y^2"], False),
]


def test_criterion_5_fg_verdicts():
    window = (5, 10)
    for variables, ideal, hypersurface in SUITE_RINGS:
        rp = presentation(variables, ideal)
        modules = [
            residue_field_module(rp),
            cyclic_module(rp, [rp.ring.var("x")]),
            residue_field_module(rp, twist=2),
        ]
        for module in modules:
            verdict = coherence_report(rp, module, window).verdict
            assert verdict.status in (FG_WINDOW, FG_CERTIFIED)
            if hypersurface:
                assert verdict.status == FG_CERTIFIED
                assert verdict.certificate is not None
                assert verdict.certificate["period"] == 2
                assert verdict.certificate["start"] >= 1

    synthetic = ExtModule(
        dims=[1] * 11,
        operators=[[Mat.zero(1, 1) for _ in range(9)] for _ in range(2)])
    verdict = fg_check(synthetic, window)
    assert verdict.status == FG_NOT
    assert verdict.certificate["new_generators_in_window"] == [5, 6, 7, 8, 9, 10]


# ---------------------------------------------------------------------------
# 6. operators: lift-independent and pairwise commuting
# ---------------------------------------------------------------------------


def test_criterion_6_operator_lift_independence_and_commutativity():
    # R/(xy, z^2) has entries of degree 2 = deg f_j, so its lifts can change
    rp = presentation(["x", "y", "z"], ["x^2 + y*z", "y^2 - x*z"])
    ring = rp.ring
    plain = ext_module(rp, cyclic_module(rp, [ring.parse("x*y"),
                                              ring.parse("z^2")]), 8)
    for seed in (7, 8):
        lifted = randomized_lifts(rp, plain.resolution, random.Random(seed))
        assert lifted.differentials != plain.resolution.differentials
        assert eisenbud_ops(rp, lifted)[0] == plain.operators

    for variables, ideal, _ in SUITE_RINGS:
        rp = presentation(variables, ideal)
        deep = ext_module(rp, residue_field_module(rp), 10)
        c = len(deep.operators)
        for j in range(c):
            for l in range(c):
                for i in range(7):
                    left = deep.operators[l][i + 2].mul(deep.operators[j][i])
                    right = deep.operators[j][i + 2].mul(deep.operators[l][i])
                    assert left == right


# ---------------------------------------------------------------------------
# 7. DG minimization preserves cohomology
# ---------------------------------------------------------------------------


def _chi_ring(c):
    return PolyRing([f"ch{j + 1}" for j in range(c)], weights=[2] * c)


def _matmul(ring, a, b):
    n = len(a)
    return [[sum((a[r][k] * b[k][c] for k in range(n)), ring.zero())
             for c in range(n)] for r in range(n)]


def _random_semifree(rng, c):
    ring = _chi_ring(c)
    degrees = []
    entries = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["free", "acyclic", "cone"])
        base = rng.randint(-1, 2)
        if kind == "free":
            degrees.append(base)
        elif kind == "acyclic":
            u = len(degrees)
            degrees.extend([base, base + 1])
            entries.append((u + 1, u, ring.one()))
        else:
            power = rng.randint(1, 2)
            v = len(degrees)
            degrees.extend([base, base + 2 * power - 1])
            chi = ring.var(f"ch{rng.randint(1, c)}")
            entries.append((v, v + 1, chi ** power))
    n = len(degrees)
    matrix = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for r, col, p in entries:
        matrix[r][col] = p
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


def test_criterion_7_minimize_fixed_examples():
    ring = _chi_ring(1)
    chi = ring.var("ch1")

    free = DGModule(ring=ring, degrees=[0], differential=[[ring.zero()]])
    outcome = minimize_dg(free)
    assert outcome.minimal.degrees == [0]
    assert outcome.hstar == {t: (1 if t % 2 == 0 else 0) for t in range(11)}

    cone = DGModule(ring=ring, degrees=[0, 1],
                    differential=[[ring.zero(), ring.zero()],
                                  [ring.one(), ring.zero()]])
    outcome = minimize_dg(cone)
    assert outcome.minimal.degrees == []
    assert outcome.hstar == {t: 0 for t in range(11)}

    chi_cone = DGModule(ring=ring, degrees=[0, 1],
                        differential=[[ring.zero(), chi],
                                      [ring.zero(), ring.zero()]])
    outcome = minimize_dg(chi_cone)
    assert outcome.minimal.degrees == [0, 1]
    assert outcome.minimal.differential == chi_cone.differential
    assert outcome.hstar[0] == 1
    assert all(v == 0 for t, v in outcome.hstar.items() if t != 0)


def test_criterion_7_minimize_randomized():
    rng = random.Random(101)
    for _ in range(100):
        dg = _random_semifree(rng, rng.randint(1, 2))
        assert len(dg.degrees) <= 6
        lo = min(dg.degrees) - 1
        before = hstar_dims(dg, lo, 10)
        outcome = minimize_dg(dg, through=10)
        after = hstar_dims(outcome.minimal, lo, 10)
        assert before == after
        assert all(p.constant_coefficient() == 0
                   for row in outcome.minimal.differential for p in row)


# ---------------------------------------------------------------------------
# 8. thickening towers and square-zero stages
# ---------------------------------------------------------------------------


def test_criterion_8_tower_and_filtration():
    ring = PolyRing(["x", "y"])
    f = [ring.parse("x^2 + y^2")]
    for n in range(1, 7):
        values = hilbert_function(tower_ring(ring, f, n), 10)
        for d in range(11):
            if 2 * n > d:
                assert values[d] == d + 1
    for n in range(1, 6):
        stages = square_zero_filtration(ring, f, n)
        assert len(stages) == n - 1
        assert all(stages)


# ---------------------------------------------------------------------------
# 9. CLI reports are byte-identical across runs
# ---------------------------------------------------------------------------


GOLDEN_JOBS = [
    ("tangent", "tangent_cone.json"),
    ("chevalley", "chevalley_a1.json"),
    ("resolve", "resolve_two_quadrics.json"),
    ("ext", "ext_dual_numbers.json"),
    ("fgcheck", "fgcheck_hypersurface.json"),
    ("fgcheck", "fgcheck_quotient_module.json"),
    ("tower", "tower_cone.json"),
    ("squarezero", "squarezero_cone.json"),
    ("minimize", "minimize_cone.json"),
    ("validate", "validate_findings.json"),
]


def test_criterion_9_cli_determinism(capsys):
    for command, name in GOLDEN_JOBS:
        path = str(JOBS / name)
        for fmt in ("text", "json"):
            outputs = []
            for _ in range(2):
                code = main([command, path, "--format", fmt])
                captured = capsys.readouterr()
                assert code == 0, (name, captured.err)
                outputs.append(captured.out)
            assert outputs[0] == outputs[1], (name, fmt)
            if fmt == "json":
                json.loads(outputs[0])
