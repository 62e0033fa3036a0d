import hashlib
import json
import pathlib
import subprocess
import sys

import pytest

import cising.cli
import cising.polyring
import cising.tangentlie
from cising.cli import build_parser, main
from cising.polyring import PolyRing

JOBS = pathlib.Path(__file__).parent / "jobs"
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN = [
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


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tangent_report(capsys):
    code, out, err = run_cli(capsys, "tangent", str(JOBS / "tangent_cone.json"))
    assert code == 0 and err == ""
    assert "bracket, output coordinate 1:" in out
    assert "  2  0\n  0  2\n" in out
    assert "direct = snake: true" in out
    assert "status: ok" in out


def test_off_locus_point_exits_2(capsys):
    code, out, err = run_cli(capsys, "tangent",
                             str(JOBS / "tangent_offlocus.json"))
    assert code == 2
    assert out == ""
    assert "zero locus" in err


def test_malformed_polynomial_exits_1(capsys):
    code, out, err = run_cli(capsys, "resolve", str(JOBS / "bad_parse.json"))
    assert code == 1
    assert "error:" in err


def test_declared_command_mismatch_exits_1(capsys):
    code, _, err = run_cli(capsys, "ext", str(JOBS / "tangent_cone.json"))
    assert code == 1
    assert "declares command" in err


def test_unknown_flag_exits_1(capsys):
    code, _, err = run_cli(capsys, "resolve",
                           str(JOBS / "resolve_two_quadrics.json"), "--bogus")
    assert code == 1


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "resolve", str(JOBS / "no_such_job.json"))
    assert code == 1
    assert "cannot read" in err


def test_invalid_json_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json at all")
    code, _, err = run_cli(capsys, "resolve", str(path))
    assert code == 1
    assert "not valid JSON" in err


def test_non_regular_sequence_exits_2(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "variables": ["x", "y"], "map": ["x*y", "x^2"], "degree": 3}))
    code, _, err = run_cli(capsys, "resolve", str(path))
    assert code == 2


def test_unit_ideal_is_not_a_regular_sequence_exits_2(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"variables": ["x"], "map": ["x", "1"]}))
    code, out, err = run_cli(capsys, "resolve", str(path))
    assert code == 2 and out == ""
    assert "regular sequence" in err


# all 15 degree-2 monomials in 5 variables summed: q^5 already has 1001 terms
FIVE = ["a", "b", "c", "d", "e"]
QUADRIC = {"variables": FIVE,
           "map": [" + ".join(f"{u}*{v}" for i, u in enumerate(FIVE)
                              for v in FIVE[i:])]}


# tower expands q^64 and stops at the cap; squarezero expands no power, so
# the same job and cap finish (the squarezero case keeps its id from when its
# stages expanded the power too)
@pytest.mark.parametrize("command, expected", [("tower", 3), ("squarezero", 0)],
                         ids=["tower", "squarezero"])
def test_power_cap_exits_3(capsys, tmp_path, command, expected):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**QUADRIC, "command": command, "n": 64}))
    code, out, err = run_cli(capsys, "--max-monomials", "1000", command,
                             str(path))
    assert code == expected
    if expected == 3:
        assert out == "" and "monomial cap 1000" in err
    else:
        assert err == "" and "all stages square to zero: true" in out


def test_width_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, "resolve",
                           str(JOBS / "resolve_two_quadrics.json"),
                           "--max-width", "3")
    assert code == 3
    assert "error:" in err


def test_monomial_cap_exits_3(capsys):
    code, _, err = run_cli(capsys, "resolve",
                           str(JOBS / "resolve_two_quadrics.json"),
                           "--max-monomials", "4")
    assert code == 3


def _refuse_enumeration(self, d):
    raise AssertionError(f"monomials of degree {d} were enumerated")


def test_chevalley_slice_cap_exits_3_before_enumerating(capsys, tmp_path,
                                                        monkeypatch):
    # 6 even and 2 odd generators: slice (1, 66) has 2 * C(71, 5) coordinates
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "chevalley", "variables": ["a", "b", "c", "d", "e", "f"],
        "map": ["a*b + c^2", "d*e - f^2"]}))
    monkeypatch.setattr(PolyRing, "_packed_monomials", _refuse_enumeration)
    code, out, err = run_cli(capsys, "chevalley", str(path), "--degree", "64")
    assert code == 3 and out == ""
    assert "monomial cap 1000000" in err


@pytest.mark.parametrize("cap, code", [(10, 3), (11, 0)])
def test_chevalley_slice_cap_takes_the_flag(capsys, cap, code):
    # 2 even generators through degree 8: the largest slice, (0, 10), has 11
    # coordinates
    got, _, _ = run_cli(capsys, "chevalley", str(JOBS / "chevalley_a1.json"),
                        "--max-monomials", str(cap))
    assert got == code


def test_minimize_slice_cap_exits_3_before_enumerating(capsys, tmp_path,
                                                       monkeypatch):
    # one generator over 3 weight-2 operators: the slice of total degree 2t
    # has C(t + 2, 2) coordinates, 91 at degree 24 and 105 at degree 26
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "command": "minimize", "variables": ["s", "t", "u"],
        "weights": [2, 2, 2], "dg": {"degrees": [0], "matrix": [["0"]]}}))
    code, out, _ = run_cli(capsys, "minimize", str(path), "--degree", "64",
                           "--format", "json")
    assert code == 0 and json.loads(out)["result"]["hstar"][-1] == [64, 561]
    code, _, _ = run_cli(capsys, "minimize", str(path), "--degree", "24",
                         "--max-monomials", "100")
    assert code == 0
    monkeypatch.setattr(PolyRing, "_packed_monomials", _refuse_enumeration)
    code, out, err = run_cli(capsys, "minimize", str(path), "--degree", "64",
                             "--max-monomials", "100")
    assert code == 3 and out == ""
    assert "monomial cap 100" in err


TWELVE = list("abcdefghijkl")


def _listing_at_most(cap):
    """``_packed_monomials``, which every listing goes through, refusing any
    degree with over ``cap`` monomials."""
    original = PolyRing._packed_monomials

    def listing(self, d):
        if self.monomial_count(d) > cap:
            raise AssertionError(f"monomials of degree {d} were enumerated")
        return original(self, d)

    return listing


def test_tower_cap_exits_3_before_enumerating(capsys, tmp_path, monkeypatch):
    # 12 variables: degree 4 has C(15, 4) = 1365 monomials
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "tower", "variables": TWELVE,
                                "map": ["a^2", "b^2"], "n": 1}))
    monkeypatch.setattr(PolyRing, "_packed_monomials", _listing_at_most(1000))
    code, out, err = run_cli(capsys, "tower", str(path), "--degree", "64",
                             "--max-monomials", "1000")
    assert code == 3 and out == ""
    assert "monomial cap 1000" in err


def test_tower_checks_every_degree_before_listing_any(capsys, tmp_path,
                                                    monkeypatch):
    # 12 variables: degree 12 is the first with more than 10^6 monomials,
    # C(23, 11) = 1352078; nothing is listed before the job exits
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "tower", "variables": TWELVE,
                                "map": ["a^2", "b^2"], "n": 1}))
    monkeypatch.setattr(PolyRing, "_packed_monomials", _refuse_enumeration)
    code, out, err = run_cli(capsys, "tower", str(path), "--degree", "64")
    assert code == 3 and out == ""
    assert err == ("error: degree 12 has 1352078 monomials, over the monomial "
                   "cap 1000000\n")


@pytest.mark.parametrize("cap, code", [(363, 3), (364, 0)])
def test_tower_cap_takes_the_flag(capsys, tmp_path, cap, code):
    # 12 variables through degree 3: the largest degree has C(14, 3) = 364
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "tower", "variables": TWELVE,
                                "map": ["a^2", "b^2"], "n": 1, "degree": 3}))
    got, _, _ = run_cli(capsys, "tower", str(path), "--max-monomials", str(cap))
    assert got == code


SQUARES = {"command": "squarezero", "variables": ["a", "b", "c", "d"],
           "map": ["a^2", "b^2", "c^2", "d^2"]}


def test_squarezero_at_n_64_finishes_with_no_polynomial_built(capsys, tmp_path,
                                                               monkeypatch):
    # every stage squares to zero by counting factors, so no cap is reached
    def refuse(*args, **kwargs):
        raise AssertionError("squarezero built a polynomial")

    monkeypatch.setattr(cising.polyring, "_capped_product", refuse)
    monkeypatch.setattr(cising.polyring, "buchberger", refuse)
    monkeypatch.setattr(cising.polyring.Poly, "__mul__", refuse)
    for job in (SQUARES, {**QUADRIC, "command": "squarezero"}):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({**job, "n": 64}))
        for cap in ([], ["--max-monomials", "1"]):
            code, out, err = run_cli(capsys, "squarezero", str(path), *cap)
            assert code == 0 and err == ""
            assert "stages: " + ", ".join(["true"] * 63) + "\n" in out
            assert "all stages square to zero: true" in out


def test_squarezero_cap_exits_3_before_building_a_stage(capsys, tmp_path,
                                                        monkeypatch):
    # the job that once stopped at the cap while expanding the pure powers
    # (4 generators at n = 64) now expands no product at all and finishes
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**SQUARES, "n": 64}))
    built = []
    original = cising.polyring._capped_product

    def spy(factors, max_monomials):
        built.append(len(factors))
        return original(factors, max_monomials)

    monkeypatch.setattr(cising.polyring, "_capped_product", spy)
    code, out, err = run_cli(capsys, "squarezero", str(path),
                             "--max-monomials", "1000")
    assert code == 0 and err == ""
    assert "stages: " + ", ".join(["true"] * 63) + "\n" in out
    assert built == []


# ids kept from when cap 23 stopped this n = 3 job with exit 3 and cap 24 let
# it through; the stages are certified now, so the report ignores the cap
@pytest.mark.parametrize("cap", [23, 24], ids=["23-3", "24-0"])
def test_squarezero_cap_takes_the_flag(capsys, tmp_path, cap):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({**SQUARES, "n": 3}))
    uncapped = run_cli(capsys, "squarezero", str(path))
    capped = run_cli(capsys, "squarezero", str(path),
                     "--max-monomials", str(cap))
    assert capped == uncapped
    assert capped[0] == 0 and "stages: true, true\n" in capped[1]


@pytest.mark.parametrize("flag", ["--max-monomials", "--max-width"])
@pytest.mark.parametrize("command", ["resolve", "validate"])
def test_non_positive_cap_exits_1(capsys, flag, command):
    for value in ("-1", "0"):
        code, out, err = run_cli(capsys, command,
                                 str(JOBS / "resolve_two_quadrics.json"),
                                 flag, value)
        assert code == 1 and out == ""
        assert f"argument {flag}:" in err


def test_validate_reports_findings(capsys):
    code, out, _ = run_cli(capsys, "validate",
                           str(JOBS / "validate_findings.json"),
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    findings = report["result"]["findings"]
    assert len(findings) == 2
    assert any("'z'" in f for f in findings)
    assert any("window" in f for f in findings)


def test_validate_clean_job(capsys):
    code, out, _ = run_cli(capsys, "validate", str(JOBS / "tangent_cone.json"))
    assert code == 0
    assert "findings: none" in out


@pytest.mark.parametrize("order", ["", False, 0, []])
def test_falsy_order_is_an_unknown_order(capsys, tmp_path, order):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "resolve", "variables": ["x", "y"],
                                "map": ["x^2", "y^2"], "order": order}))
    finding = f"unknown monomial order {order!r}"
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and finding in out
    code, out, err = run_cli(capsys, "resolve", str(path))
    assert code == 1 and out == ""
    assert err == f"error: {finding}\n"


def test_null_order_means_grevlex(capsys, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "resolve", "variables": ["x", "y"],
                                "map": ["x^2", "y^2"], "order": None}))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0 and "findings: none" in out
    code, out, _ = run_cli(capsys, "resolve", str(path))
    assert code == 0 and "status: ok" in out


def test_json_report_structure(capsys):
    path = JOBS / "fgcheck_hypersurface.json"
    code, out, _ = run_cli(capsys, "fgcheck", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "cross_checks", "input_sha256", "result"}
    assert report["input_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert report["result"]["verdict"] == "CertifiedFG"
    assert report["result"]["certificate"] == {"period": 2, "start": 3}
    assert report["cross_checks"]["operators commute"] is True


def test_quotient_module_verdict(capsys):
    code, out, _ = run_cli(capsys, "fgcheck",
                           str(JOBS / "fgcheck_quotient_module.json"),
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "WindowFG"
    assert report["result"]["betti"] == [1] * 11


def test_tower_report_values(capsys):
    code, out, _ = run_cli(capsys, "tower", str(JOBS / "tower_cone.json"),
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["hilbert"] == [1, 2, 3, 4, 5, 6, 6, 6, 6]
    assert report["result"]["agrees_with_ambient_through"] == 5


def test_squarezero_report_values(capsys):
    code, out, _ = run_cli(capsys, "squarezero",
                           str(JOBS / "squarezero_cone.json"),
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["stages"] == [True, True, True]
    assert report["cross_checks"]["all stages square to zero"] is True


def test_minimize_report_values(capsys):
    code, out, _ = run_cli(capsys, "minimize", str(JOBS / "minimize_cone.json"),
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["minimal_degrees"] == [0, 1]
    assert report["result"]["hstar"][0] == [0, 1]
    assert report["cross_checks"]["cohomology preserved"] is True


def test_degree_flag_overrides(capsys):
    code, out, _ = run_cli(capsys, "ext", str(JOBS / "ext_dual_numbers.json"),
                           "--degree", "4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["dims"] == [1, 1, 1, 1, 1]


def test_window_flag_overrides(capsys):
    code, out, _ = run_cli(capsys, "fgcheck",
                           str(JOBS / "fgcheck_hypersurface.json"),
                           "--window", "6:10", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["window"] == [6, 10]


def test_flags_do_not_carry_over_between_calls(capsys, monkeypatch):
    # one parser serves every call; each parse starts from the defaults
    built = []

    def spy():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cising.cli, "build_parser", spy)
    cising.cli._parser.cache_clear()
    ext = str(JOBS / "ext_dual_numbers.json")
    resolve = str(JOBS / "resolve_two_quadrics.json")
    golden = (GOLDEN_DIR / "ext_dual_numbers.json").read_text()
    code, out, _ = run_cli(capsys, "ext", ext, "--degree", "9", "--format",
                           "json")
    assert code == 0 and out != golden
    assert run_cli(capsys, "ext", ext, "--format", "json")[:2] == (0, golden)
    assert run_cli(capsys, "resolve", resolve, "--max-monomials", "4")[0] == 3
    golden = (GOLDEN_DIR / "resolve_two_quadrics.json").read_text()
    assert run_cli(capsys, "resolve", resolve, "--format", "json")[:2] == (
        0, golden)
    assert built == [1]


# Malformed jobs that validate flags. A run must refuse each with exit 1 and a
# one-line error: no traceback, and no silent default for a misspelt field.
MALFORMED = {
    "map_number": ("tangent", {"variables": ["x"], "map": [3]}),
    "relation_number": ("resolve", {
        "variables": ["x", "y"], "map": ["x^2", "y^2"],
        "module": {"twists": [0], "relations": [[1]]}}),
    "weights_not_integers": ("resolve", {
        "variables": ["x", "y"], "weights": ["a", 1], "map": ["x^2"]}),
    "twists_not_integers": ("resolve", {
        "variables": ["x"], "map": ["x^2"],
        "module": {"twists": ["a"], "relations": []}}),
    "dg_degrees_not_integers": ("minimize", {
        "variables": ["ch1"], "weights": [2],
        "dg": {"degrees": ["a"], "matrix": [["0"]]}}),
    "window_not_integers": ("fgcheck", {
        "variables": ["x"], "map": ["x^2"], "window": ["a", 4]}),
    "dg_entry_number": ("minimize", {
        "variables": ["ch1"], "weights": [2],
        "dg": {"degrees": [0, 1], "matrix": [[0, "ch1"], ["0", "0"]]}}),
    "degree_typo": ("resolve", {
        "variables": ["x"], "map": ["x^2"], "degre": 3}),
}

BUNDLED = sorted(path.name for path in JOBS.glob("*.json"))


@pytest.mark.parametrize("name", sorted(MALFORMED) + BUNDLED)
def test_run_refuses_exactly_what_validate_flags(capsys, tmp_path, name):
    if name in MALFORMED:
        command, data = MALFORMED[name]
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(data, command=command)))
    else:
        path = JOBS / name
        command = json.loads(path.read_text())["command"]
    code, out, _ = run_cli(capsys, "validate", str(path), "--format", "json")
    assert code == 0
    findings = json.loads(out)["result"]["findings"]
    assert findings or name not in MALFORMED
    code, out, err = run_cli(capsys, command, str(path))
    assert bool(findings) == (code == 1), (findings, code, err)
    if findings:
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


# Jobs the library refuses once a run has started, and DG degrees past the
# bound that keeps a run's slice count finite: validate lists each refusal
# as a finding, and a run exits 1 with the finding as its message.
REFUSED_BY_VALIDATE = {
    "tangent_empty_map": ("tangent", {"variables": ["x"], "map": []},
                          "need at least one polynomial"),
    "chevalley_empty_map": ("chevalley", {"variables": ["x"], "map": []},
                            "need at least one polynomial"),
    "tower_empty_map": ("tower", {"variables": ["x"], "map": []},
                        "need at least one generator"),
    "squarezero_empty_map": ("squarezero", {"variables": ["x"], "map": []},
                             "need at least one generator"),
    "dg_not_square_zero": ("minimize", {
        "variables": ["s"], "weights": [2],
        "dg": {"degrees": [0, 1, 2],
               "matrix": [["0", "s", "0"], ["0", "0", "s"], ["0", "0", "0"]]}},
        "the differential does not square to zero"),
    "dg_weight_1": ("minimize", {
        "variables": ["s"], "dg": {"degrees": [0], "matrix": [["0"]]}},
        "operator variables must all have weight 2"),
    "map_exponent_over_cap": ("tower", {
        "variables": ["x", "y"], "map": ["x^40000"], "n": 2, "degree": 3},
        "map[0]: exponent (40000, 0) is not 2 nonnegative integers of "
        "weighted degree at most 32767"),
    "weight_over_cap": ("tower", {
        "variables": ["x"], "weights": [40000], "map": ["x"]},
        "weights must be at most 32767, not 40000"),
    "dg_degree_far_negative": ("minimize", {
        "variables": ["s"], "weights": [2],
        "dg": {"degrees": [-10**9, 0], "matrix": [["0", "0"], ["0", "0"]]}},
        "dg degree -1000000000 outside -64..64"),
    "fgcheck_default_window_start": ("fgcheck", {
        "variables": ["x"], "map": ["x^2"], "degree": 2},
        "default window [1, 2] of degree 2 too narrow: need start >= 2 and "
        "end >= start + 2"),
    "fgcheck_default_window_end": ("fgcheck", {
        "variables": ["x"], "map": ["x^2"], "degree": 3},
        "default window [2, 3] of degree 3 too narrow: need start >= 2 and "
        "end >= start + 2"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_BY_VALIDATE))
def test_validate_lists_what_a_run_refuses(capsys, tmp_path, name):
    command, data, finding = REFUSED_BY_VALIDATE[name]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(data, command=command)))
    code, out, _ = run_cli(capsys, "validate", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["result"]["findings"] == [finding]
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, out, err) == (1, "", f"error: {finding}\n")


# an empty map, and a degree whose default window is too narrow, are fine for
# the commands that take them
@pytest.mark.parametrize("command, data, code", [
    ("resolve", {"variables": ["x"], "map": [], "degree": 3}, 0),
    ("ext", {"variables": ["x"], "map": [], "degree": 3}, 0),
    ("fgcheck", {"variables": ["x"], "map": [], "degree": 4}, 0),
    # inhomogeneous entry: a precondition of the computation, not a finding
    ("minimize", {"variables": ["s"], "weights": [2],
                  "dg": {"degrees": [0, 1], "matrix": [["0", "s^2"],
                                                       ["0", "0"]]}}, 2),
])
def test_validate_passes_what_a_run_accepts_or_rejects_later(capsys, tmp_path,
                                                             command, data,
                                                             code):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(data, command=command)))
    validated, out, _ = run_cli(capsys, "validate", str(path))
    assert validated == 0 and "findings: none" in out
    assert run_cli(capsys, command, str(path))[0] == code


def test_failed_cross_check_exits_4(capsys, monkeypatch):
    original = cising.tangentlie.hessian_snake

    def skewed(fiber):
        bracket = original(fiber)
        bracket[0][0] = [c + 1 for c in bracket[0][0]]
        return bracket

    monkeypatch.setattr(cising.tangentlie, "hessian_snake", skewed)
    code, out, err = run_cli(capsys, "tangent", str(JOBS / "tangent_cone.json"))
    assert code == 4
    assert out == ""
    assert err == "error: the two bracket constructions disagree\n"


def test_tower_lists_no_ambient_monomial(capsys, monkeypatch):
    """The ambient Hilbert function is counted in closed form: each degree
    0..8 of the job is listed once, for the tower, and the report is the
    pinned one."""
    listed = []
    original = PolyRing._packed_monomials

    def spy(self, d):
        listed.append(d)
        return original(self, d)

    monkeypatch.setattr(PolyRing, "_packed_monomials", spy)
    code, out, _ = run_cli(capsys, "tower", str(JOBS / "tower_cone.json"))
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / "tower_cone.txt").read_bytes()
    assert listed == list(range(9))


def test_all_golden_jobs_byte_identical(capsys):
    """Every bundled job renders exactly its pinned report, in both formats.

    The pins under ``tests/golden/`` are regenerated only on purpose, when
    an answer is meant to change.
    """
    for command, name in GOLDEN:
        stem = name.removesuffix(".json")
        for fmt, suffix in (("text", "txt"), ("json", "json")):
            code, out, err = run_cli(capsys, command, str(JOBS / name),
                                     "--format", fmt)
            assert code == 0 and err == "", (name, fmt)
            pinned = (GOLDEN_DIR / f"{stem}.{suffix}").read_bytes()
            assert out.encode("utf-8") == pinned, (name, fmt)


def test_subprocess_byte_identical():
    args = [sys.executable, "-m", "cising.cli", "resolve",
            str(JOBS / "resolve_two_quadrics.json"), "--format", "json"]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout


def test_report_embeds_job_digest(capsys):
    for command, name in GOLDEN:
        path = JOBS / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        code, out, _ = run_cli(capsys, command, str(path))
        assert code == 0
        assert f"input sha256: {digest}" in out
