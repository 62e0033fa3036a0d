"""Job-file front end.

A job is a small JSON document declaring a ring, a polynomial map, and
optionally a point, a module presentation, or a DG module.  The command —
given on the command line, optionally echoed in the file — picks which
computation runs.  Reports are deterministic: the same job bytes produce
byte-identical output, and every report embeds the SHA-256 digest of the
job file so golden tests catch input drift.

Every job is parsed once, by :class:`Job`: ``validate`` prints its
findings, and the other commands refuse a job with any.  Report
cross-checks are the library's own, which raise :class:`InvariantError`.

Exit codes: 0 success; 1 parse or validation problem; 2 mathematical
precondition violated (point off the zero locus, inhomogeneous input, not a
regular sequence, nonzero linear part); 3 resource cap exceeded; 4 an
internal cross-check failed.
"""

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction

from .chevalley import ce_cohomology, chevalley_cochain
from .ciext import (
    DEFAULT_MAX_WIDTH,
    DGModule,
    GradedModulePresentation,
    coherence_report,
    default_window,
    ext_module,
    minimal_resolution,
    minimize_dg,
    residue_field_module,
)
from .errors import (
    GradingError,
    InvariantError,
    NotRegularSequenceError,
    OffLocusError,
    ParseError,
    ReduceVariablesError,
    ResourceLimitError,
    ValidationError,
)
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    PolyRing,
    RingPresentation,
    hilbert_function,
    square_zero_filtration,
    tower_ring,
)
from .tangentlie import tangent_lie

_TOP_KEYS = {"command", "variables", "weights", "order", "map", "point",
             "module", "dg", "degree", "window", "n"}

# degree bound of a command whose job sets none; any other command: 10
_DEGREE_DEFAULTS = {"chevalley": 8}

# the library's refusal of an empty map, for each command that needs one
_NONEMPTY_MAP = {"tangent": "need at least one polynomial",
                 "chevalley": "need at least one polynomial",
                 "tower": "need at least one generator",
                 "squarezero": "need at least one generator"}

_MAX_DEGREE = 64
_MAX_N = 64


# ---------------------------------------------------------------------------
# job loading and validation
# ---------------------------------------------------------------------------


def load_job(path):
    """Read a job file; returns ``(data, sha256-hex-digest)``."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as err:
        raise ParseError(f"cannot read job file: {err}") from err
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise ParseError(f"job file is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ParseError("job file must be a JSON object")
    return data, digest


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(value, test=None, length=None):
    """Whether ``value`` is a list, of ``length`` items if given, each of
    which passes ``test`` if given."""
    return isinstance(value, list) and length in (None, len(value)) \
        and (test is None or all(test(item) for item in value))


class Job:
    """The typed inputs of one job, parsed once for validate and for runs.

    Each problem becomes a line of ``findings``; parsing never raises.  With
    no findings every input is set, defaults applied, and the flags in
    ``options`` (the parsed command line) override the job's fields:
    ``ring``; ``polys`` (the ``map``); ``point`` (the origin by default);
    ``module`` as ``(twists, relation columns)``, ``None`` for the residue
    field; ``dg`` as a :class:`DGModule`, or the :class:`GradingError`
    building it raised, which a run raises; ``degree``, ``n``, ``window``.
    ``validate`` parses for the command the file declares, if that is a
    known one.
    """

    def __init__(self, data, command, options):
        self.findings = []
        self.ring = self.point = self.module = self.dg = None
        self.polys = []
        self._note_unknown(data, _TOP_KEYS, "field")
        if command == "validate":
            command = data.get("command")
            command = command if command in COMMANDS else None
        data = dict(data)
        for key in ("order", "degree", "n", "window"):
            if getattr(options, key) is not None:
                data[key] = getattr(options, key)
        self._parse_command(data.get("command"), command)
        self._parse_ring(data)
        self._parse_map(data.get("map"), command)
        self._parse_point(data.get("point"))
        self._parse_module(data.get("module"))
        self._parse_dg(data.get("dg"), command)
        self._parse_parameters(data, command)

    def _note(self, message):
        self.findings.append(message)

    def _note_unknown(self, obj, known, what):
        for key in sorted(set(obj) - known):
            self._note(f"unknown {what} {key!r}")

    def _parse_command(self, declared, command):
        if declared is None:
            return
        if declared not in COMMANDS:
            self._note(f"unknown command {declared!r}")
        elif command is not None and declared != command:
            self._note(f"job file declares command {declared!r} but "
                       f"{command!r} was requested")

    def _parse_ring(self, data):
        variables = data.get("variables")
        if not variables \
                or not _list_of(variables, lambda v: isinstance(v, str)):
            self._note("'variables' must be a nonempty list of names")
            return
        weights = data.get("weights")
        if weights is not None and not _list_of(
                weights, lambda w: _is_int(w) and w >= 1, len(variables)):
            self._note("'weights' must list a positive integer per variable")
            weights = None
        order = data.get("order")
        if order is None:
            order = "grevlex"
        elif order not in ("grevlex", "lex"):
            self._note(f"unknown monomial order {order!r}")
            order = "grevlex"
        try:
            self.ring = PolyRing(variables, weights=weights, order=order)
        except (ParseError, ValidationError) as err:
            self._note(str(err))

    def _parse_all(self, field, strings):
        """Parsed polynomials, or ``None`` after noting the first bad one."""
        out = []
        for k, text in enumerate(strings):
            if not isinstance(text, str):
                self._note(f"{field}[{k}] must be a polynomial string")
                return None
            try:
                out.append(self.ring.parse(text))
            except (ParseError, ValidationError) as err:
                self._note(f"{field}[{k}]: {err}")
                return None
        return out

    def _parse_map(self, polys, command):
        if polys is None:
            if command not in (None, "minimize"):
                self._note("'map' is required for this command")
            return
        if not isinstance(polys, list):
            self._note("'map' must be a list of polynomial strings")
        elif not polys and command in _NONEMPTY_MAP:
            self._note(_NONEMPTY_MAP[command])
        elif self.ring is not None:
            self.polys = self._parse_all("map", polys)

    def _parse_point(self, point):
        if point is None:
            if self.ring is not None:
                self.point = [Fraction(0)] * self.ring.nvars
            return
        if not isinstance(point, list):
            self._note("'point' must be a list of rationals")
            return
        self.point = []
        for k, value in enumerate(point):
            try:
                if not (_is_int(value) or isinstance(value, str)):
                    raise ValueError
                self.point.append(Fraction(value))
            except (ValueError, ZeroDivisionError):
                self._note(f"point[{k}] is not a rational: {value!r}")
        if self.ring is not None and len(point) != self.ring.nvars:
            self._note(f"point has {len(point)} coordinates for "
                       f"{self.ring.nvars} variables")

    def _parse_module(self, module):
        if module is None:
            return
        if not isinstance(module, dict):
            self._note("'module' must be an object with twists and relations")
            return
        self._note_unknown(module, {"twists", "relations"}, "module field")
        twists = module.get("twists")
        if not twists or not _list_of(twists, _is_int):
            self._note("module 'twists' must be a nonempty list of integers")
            return
        relations = module.get("relations", [])
        if not isinstance(relations, list):
            self._note("module 'relations' must be a list of columns")
            return
        columns = []
        for k, column in enumerate(relations):
            if not isinstance(column, list) or len(column) != len(twists):
                self._note(f"relation column {k} must list one entry per "
                           f"generator ({len(twists)})")
                return
            if self.ring is not None:
                column = self._parse_all(f"relations[{k}]", column)
                if column is None:
                    return
                columns.append(column)
        self.module = (twists, columns)

    def _parse_dg(self, dg, command):
        if dg is None:
            if command == "minimize":
                self._note("'dg' is required for minimize")
            return
        if not isinstance(dg, dict):
            self._note("'dg' must be an object with degrees and matrix")
            return
        self._note_unknown(dg, {"degrees", "matrix"}, "dg field")
        degrees = dg.get("degrees")
        if not _list_of(degrees, _is_int):
            self._note("dg 'degrees' must be a list of integers")
            return
        far = [d for d in degrees if abs(d) > _MAX_DEGREE]
        if far:
            self._note(f"dg degree {far[0]} outside "
                       f"{-_MAX_DEGREE}..{_MAX_DEGREE}")
            return
        matrix = dg.get("matrix")
        n = len(degrees)
        if not _list_of(matrix, lambda row: _list_of(row, length=n), n):
            self._note(f"dg 'matrix' must be a {n} by {n} list of rows")
            return
        if self.ring is None:
            return
        entries = self._parse_all("dg matrix", [p for row in matrix for p in row])
        if entries is None:
            return
        try:
            self.dg = DGModule(self.ring, degrees,
                               [entries[r * n:(r + 1) * n] for r in range(n)])
        except ValidationError as err:
            self._note(str(err))
        except GradingError as err:
            # well-formed input that the computation refuses (exit 2)
            self.dg = err

    def _bounded_int(self, data, key, label, low, high, default):
        """The field ``key`` if it is an integer in ``low..high``."""
        value = data.get(key)
        if value is None:
            return default
        if not _is_int(value):
            self._note(f"{key!r} must be an integer")
        elif not low <= value <= high:
            self._note(f"{label} {value} outside {low}..{high}")
        else:
            return value
        return default

    def _parse_parameters(self, data, command):
        self.degree = self._bounded_int(data, "degree", "degree", 0,
                                        _MAX_DEGREE,
                                        _DEGREE_DEFAULTS.get(command, 10))
        self.n = self._bounded_int(data, "n", "n =", 1, _MAX_N, 2)
        window = data.get("window")
        self.window = default_window(self.degree)
        if window is None:
            if command != "fgcheck":
                return
            what = f"default window {list(self.window)} of degree {self.degree}"
        elif not _list_of(window, _is_int, 2):
            self._note("'window' must be a pair of integers")
            return
        else:
            self.window = tuple(window)
            what = f"window {window}"
        lo, hi = self.window
        if lo > hi:
            self._note(f"window start {lo} exceeds end {hi}")
        elif lo < 2 or hi < lo + 2:
            self._note(f"{what} too narrow: need "
                       "start >= 2 and end >= start + 2")
        elif hi > self.degree:
            self._note(f"window end {hi} exceeds computed degree "
                       f"{self.degree}")


# ---------------------------------------------------------------------------
# command handlers: each returns (result, cross_checks)
# ---------------------------------------------------------------------------


def _strings(rows):
    return [[str(entry) for entry in row] for row in rows]


def _columns_to_rows(columns, nrows):
    return [[str(column[r]) for column in columns] for r in range(nrows)]


def _run_tangent(job, options):
    # tangent_lie raises InvariantError unless both constructions agree
    lie = tangent_lie(job.polys, job.point)
    fiber, bracket = lie.fiber, lie.bracket
    bracket_tables = [
        [[str(bracket[a][b][c]) for b in range(fiber.g1_dim)]
         for a in range(fiber.g1_dim)]
        for c in range(fiber.g2_dim)]
    result = {
        "point": [str(c) for c in fiber.point],
        "jacobian": _strings(fiber.jacobian.rows),
        "g1_dim": fiber.g1_dim,
        "g2_dim": fiber.g2_dim,
        "kernel_basis": _strings(fiber.kernel),
        "bracket": bracket_tables,
    }
    return result, {"direct = snake": True}


def _run_chevalley(job, options):
    lie = tangent_lie(job.polys, job.point)
    # chevalley_cochain raises InvariantError unless the bracket round-trips
    ce = chevalley_cochain(lie)
    dims = ce_cohomology(ce, job.degree, max_monomials=options.max_monomials)
    result = {
        "even_generators": ce.even_count,
        "odd_generators": ce.odd_count,
        "differentials": [str(q) for q in ce.differentials],
        "degree": job.degree,
        "cohomology": [dims.row(p) for p in range(ce.odd_count + 1)],
        "positive_cohomology_vanishes": all(
            value == 0 for p in range(1, ce.odd_count + 1)
            for value in dims.row(p)),
    }
    return result, {"bracket round trip": True}


def _quotient_module(job, options):
    """The quotient by the job's map, and the job's module over it."""
    rp = RingPresentation(job.ring, job.polys,
                          max_monomials=options.max_monomials)
    if job.module is None:
        return rp, residue_field_module(rp)
    return rp, GradedModulePresentation(rp, *job.module)


def _run_resolve(job, options):
    rp, module = _quotient_module(job, options)
    # minimal_resolution raises InvariantError unless the result is minimal
    # and its differentials compose to zero
    res = minimal_resolution(rp, module, job.degree,
                             max_width=options.max_width,
                             max_monomials=options.max_monomials)
    result = {
        "length": res.length,
        "betti": list(res.betti),
        "twists": [list(t) for t in res.twists],
        "differentials": [
            _columns_to_rows(res.differential(i), res.betti[i - 1])
            for i in range(1, res.length + 1)],
    }
    return result, {"differentials compose to zero": True,
                    "no unit entries": True}


def _run_ext(job, options):
    rp, module = _quotient_module(job, options)
    # ext_module raises InvariantError unless the operators commute
    ext = ext_module(rp, module, job.degree, max_width=options.max_width,
                     max_monomials=options.max_monomials)
    result = {
        "dims": list(ext.dims),
        "betti": list(ext.resolution.betti),
        "operators": [[_strings(op.rows) for op in family]
                      for family in ext.operators],
    }
    return result, {"operators commute": True}


def _run_fgcheck(job, options):
    rp, module = _quotient_module(job, options)
    # built on ext_module, which checks that the operators commute
    report = coherence_report(rp, module, job.window,
                              max_width=options.max_width,
                              max_monomials=options.max_monomials)
    verdict = report.verdict
    result = {
        "betti": list(report.betti),
        "dims": list(report.dims),
        "verdict": verdict.status,
        "window": list(verdict.window),
        "generator_degrees": list(verdict.generator_degrees),
        "certificate": verdict.certificate,
    }
    return result, {"operators commute": True}


def _run_tower(job, options):
    tower = tower_ring(job.ring, job.polys, job.n,
                       max_monomials=options.max_monomials)
    values = hilbert_function(tower, job.degree)
    ambient_values = [job.ring.monomial_count(d) for d in range(job.degree + 1)]
    agree = [d for d in range(job.degree + 1)
             if values[:d + 1] == ambient_values[:d + 1]]
    result = {
        "n": job.n,
        "hilbert": values,
        "ambient_hilbert": ambient_values,
        "agrees_with_ambient_through": max(agree, default=-1),
    }
    return result, {}


def _run_squarezero(job, options):
    stages = square_zero_filtration(job.ring, job.polys, job.n)
    return ({"n": job.n, "stages": stages},
            {"all stages square to zero": all(stages)})


def _run_minimize(job, options):
    dg = job.dg
    if isinstance(dg, GradingError):
        raise dg
    # minimize_dg cancels every unit entry, and raises InvariantError unless
    # the cohomology is preserved; the minimal model of a finite input is
    # finite, so it is perfect
    outcome = minimize_dg(dg, through=job.degree,
                          max_monomials=options.max_monomials)
    minimal = outcome.minimal
    result = {
        "input_degrees": list(dg.degrees),
        "minimal_degrees": list(minimal.degrees),
        "minimal_differential": _strings(minimal.differential),
        "perfect": True,
        "hstar": [[t, outcome.hstar[t]] for t in sorted(outcome.hstar)],
    }
    return result, {"cohomology preserved": True, "no unit entries": True}


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _aligned(rows, indent="  "):
    """Rows of cells -> lines with columns padded to equal width."""
    if not rows:
        return [indent + "(empty)"]
    ncols = max(len(row) for row in rows)
    widths = [max((len(str(row[c])) for row in rows if c < len(row)),
                  default=0) for c in range(ncols)]
    lines = []
    for row in rows:
        cells = [str(cell).rjust(widths[c]) for c, cell in enumerate(row)]
        lines.append((indent + "  ".join(cells)).rstrip())
    return lines


def _csv(values):
    return ", ".join(str(v) for v in values) if values else "(none)"


def _bool(value):
    return "true" if value else "false"


def _text_tangent(result, lines):
    lines.append(f"point: {_csv(result['point'])}")
    lines.append("jacobian:")
    lines.extend(_aligned(result["jacobian"]))
    lines.append(f"degree 1 dimension: {result['g1_dim']}")
    lines.append(f"degree 2 dimension: {result['g2_dim']}")
    lines.append("kernel basis (rows):")
    lines.extend(_aligned(result["kernel_basis"]))
    for c, table in enumerate(result["bracket"]):
        lines.append(f"bracket, output coordinate {c + 1}:")
        lines.extend(_aligned(table))


def _text_chevalley(result, lines):
    lines.append(f"even generators: {result['even_generators']}")
    lines.append(f"odd generators: {result['odd_generators']}")
    lines.append("differentials:")
    for q in result["differentials"]:
        lines.append(f"  {q}")
    lines.append(f"cohomology dimensions through degree {result['degree']} "
                 "(one row per exterior degree):")
    lines.extend(_aligned(result["cohomology"]))
    lines.append("positive cohomology vanishes: "
                 + _bool(result["positive_cohomology_vanishes"]))


def _text_resolve(result, lines):
    lines.append(f"length: {result['length']}")
    lines.append("betti numbers: " + _csv(result["betti"]))
    lines.append("generator twists per step:")
    for i, twists in enumerate(result["twists"]):
        lines.append(f"  step {i}: {_csv(twists)}")
    for i, rows in enumerate(result["differentials"]):
        lines.append(f"differential {i + 1}:")
        lines.extend(_aligned(rows))


def _text_ext(result, lines):
    lines.append("dimensions: " + _csv(result["dims"]))
    lines.append("betti numbers: " + _csv(result["betti"]))
    for j, family in enumerate(result["operators"]):
        for i, matrix in enumerate(family):
            lines.append(f"operator {j + 1}, degree {i} -> {i + 2}:")
            lines.extend(_aligned(matrix))


def _text_fgcheck(result, lines):
    lines.append("betti numbers: " + _csv(result["betti"]))
    lines.append("dimensions: " + _csv(result["dims"]))
    lines.append(f"verdict: {result['verdict']}")
    lines.append(f"window: {result['window'][0]}..{result['window'][1]}")
    lines.append("generator degrees: " + _csv(result["generator_degrees"]))
    certificate = result["certificate"]
    if certificate is None:
        lines.append("certificate: (none)")
    else:
        lines.append("certificate:")
        for key in sorted(certificate):
            value = certificate[key]
            rendered = _csv(value) if isinstance(value, list) else str(value)
            lines.append(f"  {key}: {rendered}")


def _text_tower(result, lines):
    lines.append(f"n: {result['n']}")
    lines.append("hilbert function: " + _csv(result["hilbert"]))
    lines.append("ambient hilbert function: " + _csv(result["ambient_hilbert"]))
    lines.append("agrees with ambient through degree: "
                 + str(result["agrees_with_ambient_through"]))


def _text_squarezero(result, lines):
    lines.append(f"n: {result['n']}")
    lines.append("stages: " + _csv([_bool(s) for s in result["stages"]]))


def _text_minimize(result, lines):
    lines.append("input degrees: " + _csv(result["input_degrees"]))
    lines.append("minimal degrees: " + _csv(result["minimal_degrees"]))
    lines.append("minimal differential:")
    lines.extend(_aligned(result["minimal_differential"]))
    lines.append(f"perfect: {_bool(result['perfect'])}")
    lines.append("cohomology dimensions:")
    lines.extend(_aligned([["degree", "dim"]] + result["hstar"]))


def _text_validate(result, lines):
    findings = result["findings"]
    if not findings:
        lines.append("findings: none")
    else:
        lines.append(f"findings: {len(findings)}")
        for k, finding in enumerate(findings):
            lines.append(f"  {k + 1}. {finding}")


# each command's handler, ``(job, options) -> (result, cross-checks)``, and
# the text section of its report
_COMMAND_TABLE = {
    "tangent": (_run_tangent, _text_tangent),
    "chevalley": (_run_chevalley, _text_chevalley),
    "resolve": (_run_resolve, _text_resolve),
    "ext": (_run_ext, _text_ext),
    "fgcheck": (_run_fgcheck, _text_fgcheck),
    "tower": (_run_tower, _text_tower),
    "squarezero": (_run_squarezero, _text_squarezero),
    "minimize": (_run_minimize, _text_minimize),
}
COMMANDS = tuple(_COMMAND_TABLE)


def _render_text(report, section):
    lines = [f"command: {report['command']}",
             f"input sha256: {report['input_sha256']}"]
    section(report["result"], lines)
    checks = report["cross_checks"]
    if checks:
        lines.append("cross-checks:")
        for key in checks:
            lines.append(f"  {key}: {_bool(checks[key])}")
    lines.append("status: ok")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_job(command, path, options=None):
    """Execute one job; returns ``(exit_code, rendered_report)``.

    ``options`` is the parsed command line; ``None`` means no flags.
    Raises the package exceptions on bad input; :func:`main` maps them onto
    exit codes and stderr messages.  A run refuses, with
    :class:`ValidationError`, every job that ``validate`` would flag.
    """
    options = options or _parser().parse_args([command, "--", path])
    data, digest = load_job(path)
    job = Job(data, command, options)
    if command == "validate":
        result, checks, section = {"findings": job.findings}, {}, _text_validate
    elif job.findings:
        raise ValidationError("; ".join(job.findings))
    else:
        handler, section = _COMMAND_TABLE[command]
        result, checks = handler(job, options)
    report = {
        "command": command,
        "input_sha256": digest,
        "result": result,
        "cross_checks": checks,
    }
    if options.format == "json":
        return 0, json.dumps(report, indent=2, sort_keys=True) + "\n"
    return 0, _render_text(report, section)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _window_flag(text):
    lo, _, hi = text.partition(":")
    try:
        return [int(lo), int(hi)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window must look like D0:D with integers, got {text!r}") from None


def _positive_flag(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def build_parser():
    parser = _ArgumentParser(
        prog="cising",
        description="Exact computations with graded quotient rings: "
                    "tangent brackets, cochain cohomology, minimal "
                    "resolutions, operator actions, and finite-generation "
                    "checks.")
    parser.add_argument("command", choices=COMMANDS + ("validate",),
                        help="what to compute")
    parser.add_argument("jobfile", help="path to a JSON job file")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report rendering (default text)")
    parser.add_argument("--degree", type=int,
                        help="degree bound override")
    parser.add_argument("--window", type=_window_flag,
                        help="verdict window as D0:D")
    parser.add_argument("--order", choices=("grevlex", "lex"),
                        help="monomial order override")
    parser.add_argument("--n", type=int,
                        help="thickening order override")
    parser.add_argument("--max-monomials", type=_positive_flag,
                        default=DEFAULT_MAX_MONOMIALS,
                        help="cap on tracked monomials per basis run and "
                             "on coordinates per graded slice")
    parser.add_argument("--max-width", type=_positive_flag,
                        default=DEFAULT_MAX_WIDTH,
                        help="cap on resolution width")
    return parser


@functools.cache
def _parser():
    """The command-line parser, built on first use and shared by every call
    after it: each ``parse_args`` starts a fresh namespace from the
    defaults, so no flag carries over from one call to the next."""
    return build_parser()


# the exit code of each error main reports; any other error is a bug
_EXIT_CODES = {
    ParseError: 1, ValidationError: 1,
    GradingError: 2, OffLocusError: 2, NotRegularSequenceError: 2,
    ReduceVariablesError: 2,
    ResourceLimitError: 3,
    InvariantError: 4,
}


def main(argv=None):
    try:
        options = _parser().parse_args(argv)
        code, rendered = run_job(options.command, options.jobfile, options)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(exit_code for kind, exit_code in _EXIT_CODES.items()
                    if isinstance(err, kind))
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
