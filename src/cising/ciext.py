"""Resolutions and operator actions over complete-intersection quotients.

Given a graded quotient ring R = k[x_1..x_n]/(f_1..f_c) by a homogeneous
regular sequence, this module computes minimal graded free resolutions of
finitely presented modules, the dimensions of Ext against the residue field,
the family of degree-2 operators acting on Ext (one per ideal generator,
built by lifting the differentials to the ambient ring and decomposing the
composite over the f_j by one exact solve per degree), and a finite-generation
verdict for Ext as a module over the operator polynomial ring.  A companion
set of routines minimizes DG modules over that operator ring and reports
their cohomology.

Everything is exact, deterministic, and graded; non-graded input is
rejected (pointwise invariants at a rational zero live in
:mod:`cising.tangentlie` instead).
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from .errors import (
    GradingError,
    InvariantError,
    NotRegularSequenceError,
    ReduceVariablesError,
    ResourceLimitError,
    ValidationError,
)
from .exactq import IncrementalSpan, Mat, solver, span_of
from .polyring import (
    DEFAULT_MAX_MONOMIALS,
    GradedSlice,
    Poly,
    PolyRing,
    RingPresentation,
    _check_cap,
    _from_ints,
    _is_regular_given_basis,
    vec_combine,
    vec_is_zero,
)
from .syzygies import syzygies

#: Default cap on the rank of any free module in a resolution.
DEFAULT_MAX_WIDTH = 1000

_GRADED_HINT = (" (this machinery needs graded input; for pointwise invariants"
                " at a rational zero use the tangentlie routines)")

FG_CERTIFIED = "CertifiedFG"
FG_WINDOW = "WindowFG"
FG_NOT = "NotFGWithinWindow"


def _column_degree(ring, twists, column, what):
    """Common degree of a homogeneous column of integer forms, or None
    when it is zero.

    Entry ``i`` of a degree-``d`` column must be homogeneous of degree
    ``d - twists[i]``.
    """
    degree = None
    for i, (den, terms) in enumerate(column):
        if not terms:
            continue
        degrees = set(map(ring._degree, terms))
        if len(degrees) > 1:    # the entry's own GradingError names it
            _from_ints(ring, den, terms).homogeneous_degree()
        d = twists[i] + degrees.pop()
        if degree is None:
            degree = d
        elif degree != d:
            raise GradingError(
                f"{what} mixes degrees {degree} and {d}" + _GRADED_HINT)
    return degree


class GradedModulePresentation:
    """A graded module over a quotient ring: generators and relations.

    ``twists[k]`` is the degree of generator ``k``.  ``relations`` is a list
    of columns of length ``len(twists)`` whose entries are stored in normal
    form; each column is homogeneous with respect to the twists.
    """

    __slots__ = ("rp", "twists", "relations", "degrees")

    def __init__(self, rp, twists, relations):
        twists = [int(t) for t in twists]
        cleaned = []
        degrees = []
        for j, column in enumerate(relations):
            column = list(column)
            if len(column) != len(twists):
                raise ValidationError(
                    f"relation column {j + 1} has length {len(column)}, "
                    f"expected {len(twists)}")
            nf = []
            for p in column:
                if not isinstance(p, Poly) or p.ring != rp.ring:
                    raise ValidationError(
                        "relation entries must be polynomials in the ring")
                nf.append(rp._integer_normal_form(p))
            degrees.append(_column_degree(rp.ring, twists, nf,
                                          f"relation column {j + 1}"))
            cleaned.append([_from_ints(rp.ring, *f) for f in nf])
        self.rp = rp
        self.twists = twists
        self.relations = cleaned
        self.degrees = degrees

    def __repr__(self):
        return (f"GradedModulePresentation({len(self.twists)} generators, "
                f"{len(self.relations)} relations)")


def residue_field_module(rp, twist=0):
    """The residue field as a module: one generator killed by every variable."""
    ring = rp.ring
    columns = [[ring.var(name)] for name in ring.variables]
    return GradedModulePresentation(rp, [twist], columns)


def cyclic_module(rp, gens):
    """The quotient of the ring by the given elements, one degree-0 generator."""
    return GradedModulePresentation(rp, [0], [[g] for g in gens])


def free_module(rp, twists):
    return GradedModulePresentation(rp, twists, [])


@dataclass
class FreeResolution:
    """A finite stretch of a graded free resolution.

    ``twists[i]`` lists the generator degrees of the i-th free module,
    ``i = 0..length``.  ``differentials[i]`` is the map from module ``i+1``
    to module ``i``, stored as a list of columns (one per source generator,
    entries in normal form).  Minimality means no entry has a constant term.
    """

    rp: RingPresentation
    twists: list
    differentials: list

    @property
    def length(self):
        return len(self.twists) - 1

    @property
    def betti(self):
        return [len(t) for t in self.twists]

    def differential(self, i):
        """Columns of d_i (1-indexed, i = 1..length)."""
        if not 1 <= i <= self.length:
            raise ValidationError(f"no differential d_{i} in this resolution")
        return self.differentials[i - 1]

    def is_minimal(self):
        return all(p.constant_coefficient() == 0
                   for cols in self.differentials for col in cols for p in col)

    @cached_property
    def composites(self):
        """``composites[i - 1]``: d_i applied to each column of d_{i+1}, in
        the ambient ring (i = 1..length-1), built once and read by both
        :func:`_assert_resolution` and :func:`eisenbud_ops`."""
        return [[vec_combine(self.rp.ring, len(self.twists[i - 1]),
                             zip(v, self.differentials[i - 1]))
                 for v in self.differentials[i]]
                for i in range(1, self.length)]


# ---------------------------------------------------------------------------
# graded slices and minimal generating sets
# ---------------------------------------------------------------------------


def minimal_generators(rp, twists, columns, *, counts=None):
    """Minimal homogeneous generating set of the span of ``columns``.

    Returns ``(kept_columns, degrees)``.  The kept columns are a subset of
    the input (normal-form entries), listed by ascending degree and original
    position; a column is kept exactly when its class modulo the span of the
    lower-degree part (and the columns already kept in its own degree) is
    nonzero.  Columns that are zero in the quotient are dropped.  The
    lower-degree part of degree ``e`` is spanned by the multiples of kept
    columns by standard monomials, encoded in normal form by
    :meth:`RingPresentation.encode_multiples`.  Offered columns are read
    as integer normal forms; only the kept ones are built as polynomials.

    ``counts``, when given, maps each degree to the number of minimal
    generators known to lie there (Tate's, in :func:`minimal_resolution`).
    Degrees it does not list are skipped, and a degree stops once it has
    kept that many columns: every later one is then dependent.  A degree
    that keeps fewer is the caller's to refuse.
    """
    ring, cols = rp.ring, []
    for j, column in enumerate(columns):
        nf = [rp._integer_normal_form(p) for p in column]
        d = _column_degree(ring, twists, nf, f"column {j + 1}")
        if d is not None:
            cols.append((d, j, nf))
    accepted = []
    for e in sorted({d for d, _, _ in cols}):
        want = None if counts is None else counts.get(e, 0)
        if want == 0:
            continue
        coords = GradedSlice(rp, ((k, e - t) for k, t in enumerate(twists)))
        span, start = IncrementalSpan(), len(accepted)
        # the kept columns of lower degree generate what all of them do
        for d, _, v in accepted:
            for vec in rp.encode_multiples(coords, enumerate(v), e - d):
                span.add(vec)
        for d, j, nf in cols:
            if d != e:
                continue
            den = lcm(*(dk for dk, _ in nf))
            if span.add({coords.index[k][m]: c * (den // dk)
                         for k, (dk, t) in enumerate(nf) for m, c in t.items()}):
                accepted.append((d, j, [_from_ints(ring, *f) for f in nf]))
                if len(accepted) - start == want:
                    break
    return [v for _, _, v in accepted], [d for d, _, _ in accepted]


def _first_unit(table):
    """``(a, b)`` for the first entry ``table[a][b]``, scanning rows in
    order, whose constant coefficient is nonzero; None if there is none."""
    for a, row in enumerate(table):
        for b, p in enumerate(row):
            if p.constant_coefficient():
                return a, b
    return None


def _eliminate(table, r, c, rows, cols, reduce=None):
    """Gaussian update on the unit entry ``table[r][c]`` (constant part
    ``c0``): ``t[y][x] - t[y][c] * t[r][x] / c0`` for ``y`` in ``rows``, ``x``
    in ``cols``, then ``reduce``d; rows with ``t[y][c] == 0`` are copied."""
    inv = 1 / table[r][c].constant_coefficient()
    pivot = table[r]
    out = []
    for y in rows:
        row = table[y]
        if row[c].is_zero():
            out.append([row[x] for x in cols])
            continue
        new = [row[x] - row[c] * inv * pivot[x] for x in cols]
        out.append(new if reduce is None else [reduce(p) for p in new])
    return out


def _cancel_units(rp, twists, columns):
    """Remove presentation redundancy: while some relation has a constant
    entry, use it to delete that generator and that relation.  The module
    is unchanged up to isomorphism; afterwards the generators are minimal."""
    twists = list(twists)
    columns = [list(c) for c in columns]
    while (found := _first_unit(columns)) is not None:
        j, i = found
        rows = [y for y in range(len(columns)) if y != j]
        cols = [x for x in range(len(twists)) if x != i]
        columns = _eliminate(columns, j, i, rows, cols, rp.normal_form)
        del twists[i]
    columns = [c for c in columns if not vec_is_zero(c)]
    return twists, columns


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


def _require_graded_ci(rp):
    """Refuse unless ``rp`` is a quotient by a homogeneous regular sequence,
    read off the Groebner basis it already holds."""
    try:
        rp.require_homogeneous()
    except GradingError as e:
        raise GradingError(f"{e}{_GRADED_HINT}") from None
    if not _is_regular_given_basis(rp.ideal, rp.gb.basis):
        raise NotRegularSequenceError(
            "the ideal generators do not form a regular sequence; "
            "the quotient is not a complete intersection presented this way")


def _order_below_two(rp):
    """``(j, order)`` for the first ideal generator ``f_j`` (1-indexed) with
    a term of order below 2 at the origin, or None when every one lies in
    the square of the maximal ideal."""
    for j, f in enumerate(rp.ideal):
        for expo in f.terms:
            if sum(expo) < 2:
                return j + 1, sum(expo)
    return None


def _tate_betti(rp, twists, relations, length):
    """Tate's graded Betti numbers of the residue field, as one Counter
    ``{degree: count}`` per step ``0..length``, when the presentation (after
    :func:`_cancel_units`) is the residue field and every ``f_j`` lies in
    m^2; otherwise None.

    The presentation is the residue field when it has one generator and
    its relations include a nonzero multiple of every variable.  Over
    S/(f) with f a regular sequence in m^2, Tate's complex resolves it
    minimally (Tate, Illinois J. Math. 1, 1957), so step ``i`` has the
    coefficient of ``s^i`` in ``t^twist prod_i (1 + s t^(w_i)) / prod_j
    (1 - s^2 t^(deg f_j))``.
    """
    ring = rp.ring
    variables = {tuple(int(k == v) for k in range(ring.nvars))
                 for v in range(ring.nvars)}
    if (len(twists) != 1 or _order_below_two(rp) is not None
            or not variables <= {next(iter(p.terms)) for [p] in relations
                                 if len(p.terms) == 1}):
        return None
    betti = [Counter() for _ in range(length + 1)]
    betti[0][twists[0]] = 1
    for w in ring.weights:      # times 1 + s t^w, top step first
        for i in range(length, 0, -1):
            betti[i].update({e + w: n for e, n in betti[i - 1].items()})
    for f in rp.ideal:          # over 1 - s^2 t^d, bottom step first
        d = f.homogeneous_degree()
        for i in range(2, length + 1):
            betti[i].update({e + d: n for e, n in betti[i - 2].items()})
    return betti


def _generators(rp, twists, columns, tate, step):
    """:func:`minimal_generators` of ``columns`` for resolution step
    ``step``, bounded by Tate's counts ``tate[step]`` when ``tate`` is not
    None; a degree that keeps fewer raises :class:`InvariantError`."""
    if tate is None:
        return minimal_generators(rp, twists, columns)
    kept, degrees = minimal_generators(rp, twists, columns, counts=tate[step])
    if short := sorted(tate[step] - Counter(degrees)):
        e = short[0]
        raise InvariantError(
            f"resolution step {step} has {degrees.count(e)} generators in "
            f"degree {e}, Tate's count is {tate[step][e]}: the kernel missed one")
    return kept, degrees


def minimal_resolution(rp, module, length, max_width=DEFAULT_MAX_WIDTH,
                       max_monomials=DEFAULT_MAX_MONOMIALS):
    """Minimal graded free resolution of ``module`` out to step ``length``.

    The quotient must be by a homogeneous regular sequence (raises
    :class:`NotRegularSequenceError` otherwise).  Each step takes the kernel
    of the previous differential and extracts a minimal generating set, so
    the bases -- and therefore the differential matrices -- are
    deterministic.

    When the module is the residue field and every ``f_j`` lies in m^2
    (see :func:`_tate_betti`), Tate's closed-form Betti numbers bound each
    step: the syzygies stop at the top degree of the next step
    (``syzygies(..., cap=)``) and :func:`minimal_generators` at its counts.
    The output is the unbounded one, as neither drops a column the minimal
    set would keep, and a step that falls short of Tate's count raises
    :class:`InvariantError`, which checks exactness there.  Every other
    input takes the unbounded path.
    """
    length = int(length)
    if length < 0:
        raise ValidationError("resolution length must be nonnegative")
    if module.rp.ring != rp.ring or module.rp.ideal != rp.ideal:
        raise ValidationError("module is presented over a different ring")
    _require_graded_ci(rp)

    twists0, relations = _cancel_units(rp, module.twists, module.relations)
    # step 1's counts are read even when length is 0
    tate = _tate_betti(rp, twists0, relations, max(length, 1))
    current, degrees = _generators(rp, twists0, relations, tate, 1)
    twists = [twists0]
    differentials = []
    for i in range(1, length + 1):
        if len(degrees) > max_width:
            raise ResourceLimitError(
                f"resolution width {len(degrees)} exceeds the cap {max_width} "
                f"at step {i}")
        differentials.append(current)
        twists.append(degrees)
        if i == length:
            break
        if not current or (tate is not None and not tate[i + 1]):
            current, degrees = [], []
            continue
        # the kernel over the quotient: syzygies of the columns modulo f,
        # through the top degree of step i + 1 when Tate's numbers bound it
        cap = None if tate is None else [max(tate[i + 1]) - t
                                         for t in twists[i - 1]]
        kernel = syzygies(rp.ring, len(twists[i - 1]), current,
                          max_monomials=max_monomials, modulo=rp.ideal, cap=cap)
        current, degrees = _generators(rp, twists[i], kernel, tate, i + 1)

    resolution = FreeResolution(rp=rp, twists=twists, differentials=differentials)
    _assert_resolution(resolution)
    return resolution


def _assert_resolution(res):
    """Raise :class:`InvariantError` unless ``res`` is minimal and d o d = 0."""
    if not res.is_minimal():
        raise InvariantError("resolution differential has a unit entry")
    rp = res.rp
    for i, composites in enumerate(res.composites, 1):
        for composite in composites:
            for s in composite:
                if not rp.normal_form(s).is_zero():
                    raise InvariantError(
                        f"differentials d_{i} and d_{i + 1} do not compose "
                        "to zero")


# ---------------------------------------------------------------------------
# degree-2 operators on Ext
# ---------------------------------------------------------------------------


def _ideal_cofactors(rp, p, solvers):
    """Cofactors ``c`` with ``p == sum_j c[j] * f_j`` for a homogeneous ``p``,
    by one exact solve in the ambient slice of degree ``e = deg p`` whose
    columns are the multiples ``x^m * f_j``; ``solvers`` keeps each degree's
    solver.  Over a regular sequence two decompositions differ by Koszul
    relations, whose entries lie in (f), inside the maximal ideal, so the
    constant parts -- all the operators read -- do not depend on the one
    the solve picks."""
    ring = rp.ring
    if p.is_zero():
        return [ring.zero()] * len(rp.ideal)
    e = p.homogeneous_degree()
    if e not in solvers:
        rp._require_listable(e)
        coords = GradedSlice(ring, [(0, e)])
        source = GradedSlice(ring, [(j, e - f.homogeneous_degree())
                                    for j, f in enumerate(rp.ideal) if f])
        columns = coords.images(source, lambda j: [(0, rp.ideal[j])])
        solvers[e] = coords, source, solver(Mat.from_columns(
            [[v.get(c, 0) for c in range(len(coords))] for v in columns],
            len(coords)))
    coords, source, solve = solvers[e]
    b = coords.encode([(0, p)])
    x = solve([b.get(c, 0) for c in range(len(coords))])
    if x is None:
        raise InvariantError("entry expected to lie in the ideal")
    return [Poly._of(ring, {m: x[i] for m, i in source.index.get(j, {}).items()
                            if x[i]}) for j in range(len(rp.ideal))]


def eisenbud_ops(rp, resolution):
    """Degree-2 operator family on Ext, one operator per ideal generator.

    Lift the differentials to the ambient polynomial ring, decompose the
    composite of consecutive lifts over the ideal generators, and read the
    induced maps on Ext off the constant parts (the resolution is minimal,
    so Ext against the residue field is the dual of the resolution with
    zero differential).  The induced maps are independent of the lifts and
    of the decomposition chosen (Eisenbud, Trans. AMS 260, 1980); the
    differentials and the solve's decomposition are used as given.

    Returns ``(operators, lifts)``: ``operators[j][i]`` is the rational
    matrix Ext^i -> Ext^{i+2} for ideal generator ``j`` (i = 0..length-2);
    ``lifts[j][i]`` is the ambient-ring matrix from module ``i+2`` to
    module ``i`` of the resolution, stored as columns.

    Every ideal generator must have order at least 2 at the origin;
    otherwise a :class:`ReduceVariablesError` asks for the linear variables
    to be eliminated first.
    """
    low = _order_below_two(rp)
    if low is not None:
        raise ReduceVariablesError(
            f"ideal generator {low[0]} has a term of order {low[1]} "
            "at the origin; eliminate the linear variables before "
            "constructing the operators")
    c = len(rp.ideal)
    betti = resolution.betti

    operators = [[] for _ in range(c)]
    lifts = [[] for _ in range(c)]
    solvers = {}
    # the differentials' entries are ambient polynomials: their own lifts,
    # so the composites are the resolution's own
    for i, composites in enumerate(resolution.composites):
        # cofs[cidx][r][j]: entry (r, cidx) of the composite over the f_j
        cofs = [[_ideal_cofactors(rp, entry, solvers) for entry in composite]
                for composite in composites]
        for j in range(c):
            tcols = [[cf[j] for cf in column] for column in cofs]
            operators[j].append(Mat([[p.constant_coefficient() for p in col]
                                     for col in tcols], betti[i]))
            lifts[j].append(tcols)
    return operators, lifts


@dataclass
class ExtModule:
    """Ext against the residue field, with the degree-2 operator action.

    ``dims[i]`` is dim Ext^i for i = 0..D.  ``operators[j][i]`` maps
    Ext^i -> Ext^{i+2} (shape dims[i+2] x dims[i]).  ``resolution`` and
    ``operator_lifts`` carry the construction; synthetic instances built
    for verdict testing may leave them None.
    """

    dims: list
    operators: list
    resolution: FreeResolution | None = None
    operator_lifts: list | None = None

    @property
    def top_degree(self):
        return len(self.dims) - 1


def ext_module(rp, module, length, max_width=DEFAULT_MAX_WIDTH,
               max_monomials=DEFAULT_MAX_MONOMIALS):
    """Ext of the module against the residue field, out to degree ``length``.

    Dimensions are the Betti numbers of the minimal resolution; the
    operator family is attached via :func:`eisenbud_ops`.  Operators
    pairwise commute on Ext; that is checked up to degree ``length - 4``.
    """
    resolution = minimal_resolution(rp, module, length, max_width=max_width,
                                    max_monomials=max_monomials)
    operators, lifts = eisenbud_ops(rp, resolution)
    ext = ExtModule(dims=resolution.betti, operators=operators,
                    resolution=resolution, operator_lifts=lifts)
    _assert_commuting(ext)
    return ext


def _assert_commuting(ext):
    """Raise :class:`InvariantError` unless the operators pairwise commute."""
    c = len(ext.operators)
    top = ext.top_degree
    for j in range(c):
        for l in range(j + 1, c):
            for i in range(max(0, top - 3)):
                left = ext.operators[l][i + 2].mul(ext.operators[j][i])
                right = ext.operators[j][i + 2].mul(ext.operators[l][i])
                if left != right:
                    raise InvariantError(
                        f"operators {j + 1} and {l + 1} do not commute on "
                        f"Ext^{i}")


# ---------------------------------------------------------------------------
# finite-generation verdicts
# ---------------------------------------------------------------------------


@dataclass
class FGVerdict:
    """Outcome of the finite-generation check over the operator ring."""

    status: str
    window: tuple
    generator_degrees: list
    certificate: dict | None


def default_window(top=10):
    """Window used when none is supplied: start at the ceiling of half."""
    return (-(-top // 2), top)


def new_generator_counts(ext, through):
    """Count of fresh generators of Ext (over the operator ring) per degree:
    dim Ext^i minus the rank of everything reachable from Ext^{i-2}."""
    if through > ext.top_degree:
        raise ValidationError("requested degree exceeds the computed range")
    counts = []
    for i in range(through + 1):
        images = [ops[i - 2] for ops in ext.operators] if i >= 2 else []
        reached = span_of(op.column(c) for op in images for c in range(op.ncols))
        counts.append(ext.dims[i] - reached.dim)
    return counts


def _periodicity_certificate(resolution):
    """Smallest i with d_{i+2} = d_i and d_{i+3} = d_{i+1} exactly (shapes
    and entries, under the deterministic bases), or None."""
    def shape_and_columns(k):
        return (len(resolution.twists[k - 1]), resolution.differentials[k - 1])

    for i in range(1, resolution.length - 2):
        if (shape_and_columns(i + 2) == shape_and_columns(i)
                and shape_and_columns(i + 3) == shape_and_columns(i + 1)):
            return {"period": 2, "start": i}
    return None


def fg_check(ext, window):
    """Finite-generation verdict for Ext over the operator ring.

    With window (D0, D): if fresh generators appear in [D0, D] the verdict
    is NotFGWithinWindow (certificate lists the offending degrees).  If not,
    the verdict is WindowFG -- upgraded to CertifiedFG when there is at most
    one operator and the resolution carries an exact 2-periodicity
    certificate.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo < 2:
        raise ValidationError("window start must be at least 2")
    if hi < lo + 2:
        raise ValidationError("window end must be at least the start plus 2")
    if hi > ext.top_degree:
        raise ValidationError(
            f"window end {hi} exceeds the computed degree range {ext.top_degree}")
    counts = new_generator_counts(ext, hi)
    generator_degrees = [i for i, g in enumerate(counts) for _ in range(g)]
    offending = [i for i in range(lo, hi + 1) if counts[i] > 0]
    if offending:
        return FGVerdict(status=FG_NOT, window=(lo, hi),
                         generator_degrees=generator_degrees,
                         certificate={"new_generators_in_window": offending})
    if len(ext.operators) <= 1 and ext.resolution is not None:
        certificate = _periodicity_certificate(ext.resolution)
        if certificate is not None:
            return FGVerdict(status=FG_CERTIFIED, window=(lo, hi),
                             generator_degrees=generator_degrees,
                             certificate=certificate)
    return FGVerdict(status=FG_WINDOW, window=(lo, hi),
                     generator_degrees=generator_degrees, certificate=None)


# ---------------------------------------------------------------------------
# DG modules over the operator ring
# ---------------------------------------------------------------------------


@dataclass
class DGModule:
    """A free DG module over the operator polynomial ring.

    All ring variables must have weight 2 (the operators' cohomological
    degree).  ``degrees[k]`` is the degree of generator ``k``;
    ``differential[r][c]`` is the coefficient of generator ``r`` in the
    differential of generator ``c``, homogeneous of weighted degree
    ``degrees[c] + 1 - degrees[r]``.  The differential must square to zero.
    """

    ring: PolyRing
    degrees: list
    differential: list

    def __post_init__(self):
        if any(w != 2 for w in self.ring.weights):
            raise ValidationError("operator variables must all have weight 2")
        self.degrees = [int(d) for d in self.degrees]
        n = len(self.degrees)
        if len(self.differential) != n or any(len(row) != n
                                              for row in self.differential):
            raise ValidationError(
                "differential must be square over the generators")
        for r in range(n):
            for c in range(n):
                p = self.differential[r][c]
                if not isinstance(p, Poly) or p.ring != self.ring:
                    raise ValidationError(
                        "differential entries must live in the operator ring")
                if p.is_zero():
                    continue
                need = self.degrees[c] + 1 - self.degrees[r]
                if p.homogeneous_degree() != need:
                    raise GradingError(
                        f"differential entry ({r + 1},{c + 1}) must be "
                        f"homogeneous of degree {need}, got {p}")
        columns = [[row[c] for row in self.differential] for c in range(n)]
        for column in columns:
            if not vec_is_zero(vec_combine(self.ring, n, zip(column, columns))):
                raise ValidationError("the differential does not square to zero")

    @property
    def rank(self):
        return len(self.degrees)


def hstar_dims(dg, lo, hi, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Cohomology dimensions of the DG module in total degrees lo..hi.

    Raises :class:`ResourceLimitError`, before any slice is built, when a
    total-degree slice would have more than ``max_monomials`` coordinates.
    """
    ring = dg.ring
    lo, hi = int(lo), int(hi)
    taus = range(lo - 1, hi + 2)
    for tau in taus:
        _check_cap(f"DG slice of total degree {tau}",
                   sum(ring.monomial_count(tau - dk) for dk in dg.degrees),
                   "coordinates", max_monomials)
    coords = {tau: GradedSlice(ring, ((k, tau - dk)
                                     for k, dk in enumerate(dg.degrees)))
              for tau in taus}

    # the nonzero entries of each column of the differential
    columns = [[(r, row[k]) for r, row in enumerate(dg.differential) if row[k]]
               for k in range(dg.rank)]

    ranks = {tau: span_of(coords[tau + 1].images(coords[tau],
                                                 columns.__getitem__)).dim
             for tau in range(lo - 1, hi + 1)}
    return {tau: len(coords[tau]) - ranks[tau] - ranks[tau - 1]
            for tau in range(lo, hi + 1)}


@dataclass
class MinimizeResult:
    minimal: DGModule
    hstar: dict


def minimize_dg(dg, through=None, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Minimal model of a DG module, by canceling unit differential entries.

    Repeatedly find an entry with nonzero constant part (scanning rows then
    columns), cancel the corresponding pair of generators with the usual
    Gaussian update, and stop when every entry lies in the augmentation
    ideal.  The result is quasi-isomorphic to the input.  ``hstar`` reports
    cohomology dims from the smallest generator degree through ``through``
    (default: 10 past the largest degree).

    Raises :class:`InvariantError` unless the input and the minimal model
    have the same cohomology from one below the smallest input degree
    through ``through``, and :class:`ResourceLimitError` when a slice of
    either would have more than ``max_monomials`` coordinates.
    """
    degrees = list(dg.degrees)
    matrix = [list(row) for row in dg.differential]
    while (found := _first_unit(matrix)) is not None:
        b, a = found
        keep = [k for k in range(len(degrees)) if k not in (a, b)]
        matrix = _eliminate(matrix, b, a, keep, keep)
        degrees = [degrees[k] for k in keep]
    minimal = DGModule(ring=dg.ring, degrees=degrees, differential=matrix)
    lo = min(degrees, default=0)
    hi = through if through is not None else max(degrees, default=0) + 10
    check_lo = min(dg.degrees, default=0) - 1
    dims = hstar_dims(minimal, min(lo, check_lo), hi,
                      max_monomials=max_monomials)
    if (hstar_dims(dg, check_lo, hi, max_monomials=max_monomials)
            != {t: dims[t] for t in dims if t >= check_lo}):
        raise InvariantError("minimization changed the cohomology")
    return MinimizeResult(minimal=minimal,
                          hstar={t: dims[t] for t in dims if t >= lo})


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


@dataclass
class CoherenceReport:
    """Bundle of the full pipeline: resolution, Ext, operators, verdict."""

    betti: list
    twists: list
    dims: list
    verdict: FGVerdict
    ext: ExtModule


def coherence_report(rp, module, window=None, max_width=DEFAULT_MAX_WIDTH,
                     max_monomials=DEFAULT_MAX_MONOMIALS):
    """Resolve, compute Ext with its operators, and return the verdict."""
    if window is None:
        window = default_window()
    lo, hi = int(window[0]), int(window[1])
    ext = ext_module(rp, module, hi, max_width=max_width,
                     max_monomials=max_monomials)
    verdict = fg_check(ext, (lo, hi))
    return CoherenceReport(betti=ext.resolution.betti,
                           twists=ext.resolution.twists,
                           dims=ext.dims, verdict=verdict, ext=ext)
