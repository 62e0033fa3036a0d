"""Multivariate polynomials over the rationals with weighted gradings.

Provides polynomial arithmetic and a text grammar for it, reduced Groebner
bases, normal forms, Hilbert functions of graded quotients, a
regular-sequence test, and nilpotent thickening towers with their
square-zero checks.

One Buchberger engine (``_groebner_ints``) and one reduction routine
(``_reduce_ints``) serve ideals (the rank-1 case) and free modules, on
vectors ordered term over position: :func:`buchberger` interreduces the
engine's rank-1 basis, and :mod:`cising.syzygies` asks it for relations,
carried as rows beside each S-vector.  Other sums of polynomial multiples
of vectors go through :func:`vec_combine`.

Monomials are packed, one ``int`` each (Monagan and Pearce, J. Symb. Comp.
46, 2011): a 16-bit field per variable and one for the weighted degree, each
topped by a guard bit, so exponents and degrees are at most
:data:`MAX_EXPONENT`.  A product is ``a + b`` (a set guard bit raises
:class:`ResourceLimitError`), ``a`` divides ``b`` when ``((b | G) - a) & G
== G``, and the order compares ``m - 2 * (m & low)`` (``PolyRing.__init__``
lays out the fields).  Exponent tuples are taken and given only at the
edge, and a bad one raises :class:`ValidationError`.

Coefficients are ``fractions.Fraction`` in every input and output; there is
no floating point (a ``float`` is refused).  Inside, everything works
fraction-free on integer forms ``(d, {packed: int})``
(:meth:`Poly.integer_form`), summed over one common denominator; the engine
keeps its elements so, and a ``Fraction`` is built only for a polynomial a
caller keeps.  Two monomial orders are supported: weight-compatible graded
reverse lexicographic (``"grevlex"``, the default) and plain lexicographic
(``"lex"``).  Everything is deterministic -- pair selection, reducer
selection and output ordering follow fixed conventions in the docstrings.
"""

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from types import MappingProxyType

from .errors import (
    GradingError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

#: Default cap on stored monomials per Groebner run.
DEFAULT_MAX_MONOMIALS = 10**6

_FIELD = 16
_MASK = (1 << _FIELD) - 1
#: Largest exponent and weighted degree of a monomial (packed fields).
MAX_EXPONENT = (1 << _FIELD - 1) - 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class PolyRing:
    """A rational polynomial ring with positive integer weights and an order.

    The order is ``"grevlex"`` (graded by the weights, ties broken reverse
    lexicographically) or ``"lex"`` on the variables as listed.
    """

    __slots__ = ("variables", "weights", "order", "_index", "_shifts",
                 "_dshift", "_low", "_units", "_guard", "_zero")

    def __init__(self, variables, weights=None, order="grevlex"):
        variables = tuple(variables)
        for name in variables:
            if not _NAME_RE.match(name):
                raise ValidationError(f"invalid variable name {name!r}")
        if len(set(variables)) != len(variables):
            raise ValidationError("duplicate variable names")
        if weights is None:
            weights = (1,) * len(variables)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(variables):
            raise ValidationError("need one weight per variable")
        if any(w < 1 for w in weights):
            raise ValidationError("weights must be positive integers")
        if max(weights, default=0) > MAX_EXPONENT:
            raise ValidationError(
                f"weights must be at most {MAX_EXPONENT}, not {max(weights)}")
        if order not in ("grevlex", "lex"):
            raise ValidationError(f"unknown monomial order {order!r}")
        self.variables = variables
        self.weights = weights
        self.order = order
        self._index = {name: i for i, name in enumerate(variables)}
        # grevlex: variable i in field i, the degree on top; lex: in field
        # n - i, the degree at the bottom; so m - 2 * (m & low) keys the order
        n, grevlex = len(variables), order == "grevlex"
        self._shifts = tuple(_FIELD * (i if grevlex else n - i) for i in range(n))
        self._dshift = _FIELD * n if grevlex else 0
        self._low = (1 << self._dshift) - 1
        self._units = tuple((1 << s) + (w << self._dshift)
                            for s, w in zip(self._shifts, weights))
        self._guard = sum(1 << s + _FIELD - 1 for s in self._shifts + (self._dshift,))
        self._zero = Poly._of(self, {})     # polynomials are immutable: one zero

    @property
    def nvars(self):
        return len(self.variables)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and self.variables == other.variables
                and self.weights == other.weights and self.order == other.order)

    def __hash__(self):
        return hash((self.variables, self.weights, self.order))

    def __repr__(self):
        return (f"PolyRing({list(self.variables)!r}, weights={list(self.weights)!r}, "
                f"order={self.order!r})")

    def wdeg(self, expo):
        return sum(map(mul, self.weights, expo))

    def sort_key(self, expo):
        """Sortable key: bigger key means bigger monomial in the ring order."""
        if self.order == "lex":
            return tuple(expo)
        return (self.wdeg(expo), tuple(-e for e in reversed(expo)))

    def _pack(self, expo):
        """The packed monomial of an exponent tuple of ``nvars`` nonnegative
        integers, weighted degree at most the limit; else ValidationError."""
        try:
            ints = tuple(map(index, expo))
            if (len(ints) == self.nvars and min(ints, default=0) >= 0
                    and self.wdeg(ints) <= MAX_EXPONENT):
                return sum(map(mul, ints, self._units))
        except TypeError:
            pass
        raise ValidationError(f"exponent {expo!r} is not {self.nvars} nonnegative "
                              f"integers of weighted degree at most {MAX_EXPONENT}")

    def _unpack(self, m):
        return tuple([m >> s & _MASK for s in self._shifts])

    def _key(self, m):
        """The packed monomial's sort key: bigger for a bigger monomial."""
        return m - 2 * (m & self._low)

    def _degree(self, m):
        return m >> self._dshift & _MASK

    def _divides(self, a, b):
        """True when packed monomial ``a`` divides packed monomial ``b``."""
        return ((b | self._guard) - a) & self._guard == self._guard

    def _lcm(self, a, b):
        # not refused: only the degree field can pass the limit (to at most
        # twice it); the pair criteria still read it exactly or miss it (so
        # keep a pair), and _s_pair refuses it
        return sum(map(mul, map(max, self._unpack(a), self._unpack(b)), self._units))

    def zero(self):
        return self._zero

    def one(self):
        return Poly._of(self, {0: ONE})

    def constant(self, c):
        c = _exact(c)
        return Poly._of(self, {0: c} if c else {})

    def var(self, name):
        i = self._index.get(name)
        if i is None:
            raise ValidationError(f"no variable named {name!r}")
        return Poly._of(self, {self._units[i]: ONE})

    def gens(self):
        return [self.var(name) for name in self.variables]

    def monomial(self, expo, coeff=ONE):
        coeff = _exact(coeff)
        m = self._pack(expo)
        return Poly._of(self, {m: coeff} if coeff else {})

    def monomials_of_degree(self, d):
        """All exponent tuples of weighted degree exactly ``d``, listed with
        earlier variables taking the largest exponents first."""
        return list(map(self._unpack, self._packed_monomials(d)))

    def _packed_monomials(self, d):
        """:meth:`monomials_of_degree`, packed."""
        if d > MAX_EXPONENT:
            raise ValidationError(f"degree {d} is over {MAX_EXPONENT}")
        if not self._units:
            return [0] if d == 0 else []
        *head, (last, w_last) = zip(self._units, self.weights)
        level = [(0, d)] if d >= 0 else []      # (packed prefix, degree left)
        for u, w in head:
            level = [(m + e * u, rest - e * w) for m, rest in level
                     for e in range(rest // w, -1, -1)]
        return [m + rest // w_last * last for m, rest in level if not rest % w_last]

    def monomial_count(self, d):
        """How many exponent tuples have weighted degree exactly ``d``,
        counted without listing them."""
        if d < 0:
            return 0
        return _monomial_counts(self.weights, d)[d]

    def format_exponent(self, expo):
        parts = []
        for name, e in zip(self.variables, expo):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def parse(self, text):
        return parse_poly(self, text)


def _monomial_counts(weights, d):
    """``counts[k]``, for ``k`` in ``0..d``: how many monomials in variables
    of the given weights have weighted degree ``k``."""
    counts = [1] + [0] * d
    for w in weights:
        for k in range(w, d + 1):
            counts[k] += counts[k - w]
    return counts


def _refuse_overflow(ring, monomials):
    """ResourceLimitError when a product set a guard bit in ``monomials``."""
    if any(map(ring._guard.__and__, monomials)):
        raise ResourceLimitError(
            f"a product has an exponent or weighted degree over {MAX_EXPONENT}")


def _exact(c):
    """``c`` as a ``Fraction``; a ``float`` is refused with
    :class:`ValidationError`, since its binary value is not what was meant."""
    if isinstance(c, float):
        raise ValidationError(f"floating-point value {c!r}: pass an int, "
                              "a Fraction or a string such as '1/10'")
    return Fraction(c)


class Poly:
    """A polynomial: an immutable map from (packed) exponents to Fractions."""

    __slots__ = ("ring", "_terms", "_lead", "_integer")

    def __init__(self, ring, terms):
        clean = {}
        for expo, coeff in terms.items():
            m = ring._pack(expo)
            if not isinstance(coeff, Fraction):
                coeff = _exact(coeff)
            if coeff:
                clean[m] = coeff
        self.ring = ring
        self._terms = clean
        self._lead = None
        self._integer = None

    @classmethod
    def _of(cls, ring, terms, lead=None):
        """The polynomial on packed ``terms`` (nonzero ``Fraction``s, taken
        as they are), with its packed lead when the caller knows it."""
        p = cls.__new__(cls)
        p.ring, p._terms, p._lead, p._integer = ring, terms, lead, None
        return p

    @property
    def terms(self):
        """A read-only ``{exponent tuple: Fraction}`` view, built on read."""
        unpack = self.ring._unpack
        return MappingProxyType({unpack(m): c for m, c in self._terms.items()})

    def is_zero(self):
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def _leading(self):
        """Leading ``(packed monomial, coefficient)`` pair."""
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        if self._lead is None:
            self._lead = max(self._terms, key=self.ring._key)
        return self._lead, self._terms[self._lead]

    def lead(self):
        """Leading ``(exponent, coefficient)`` pair in the ring order."""
        m, c = self._leading()
        return self.ring._unpack(m), c

    def integer_form(self):
        """``(d, terms)``: ``d`` the least common denominator of the
        coefficients and ``terms`` the polynomial times ``d`` as ``{packed
        monomial: int}``, built on the first call and kept (a reducer is
        read by many reductions).  Callers must not mutate ``terms``."""
        if self._integer is None:
            d = lcm(*(c.denominator for c in self._terms.values()))
            self._integer = (d, {m: c.numerator * (d // c.denominator)
                                 for m, c in self._terms.items()})
        return self._integer

    @property
    def lm(self):
        return self.lead()[0]

    @property
    def lc(self):
        return self._leading()[1]

    def constant_coefficient(self):
        return self._terms.get(0, ZERO)

    def homogeneous_degree(self):
        """The common weighted degree of all terms; None for the zero poly.

        Raises :class:`GradingError` when the support mixes degrees.
        """
        if not self._terms:
            return None
        degrees = set(map(self.ring._degree, self._terms))
        if len(degrees) > 1:
            raise GradingError(f"not homogeneous: {self} has degrees {sorted(degrees)}")
        return degrees.pop()

    def is_homogeneous(self):
        return len(set(map(self.ring._degree, self._terms))) <= 1

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self._terms)
        for m, coeff in other._terms.items():
            s = terms.get(m, ZERO) + coeff
            if s:
                terms[m] = s
            else:
                del terms[m]
        return Poly._of(self.ring, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly._of(self.ring, {m: -c for m, c in self._terms.items()},
                        self._lead)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """A scalar multiple keeps the known lead.  A product of polynomials
        is summed fraction-free, as :func:`vec_combine` sums."""
        if not isinstance(other, Poly):
            c = other if isinstance(other, Fraction) else _exact(other)
            if not c:
                return self.ring.zero()
            return Poly._of(self.ring, {m: c * v for m, v in self._terms.items()},
                            self._lead)
        if other.ring != self.ring:
            raise ValidationError("polynomials from different rings")
        return vec_combine(self.ring, 1, [(self, [other])])[0]

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == self.ring.constant(other)
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):     # a constant hashes as the number it equals
        t = self._terms
        return hash(t.get(0, ZERO)) if t.keys() <= {0} else hash(frozenset(t.items()))

    def diff(self, var):
        """Partial derivative with respect to a variable, by name or by index
        in ``0..nvars-1``; :class:`ValidationError` for any other."""
        i = self.ring._index.get(var) if isinstance(var, str) else var
        if i not in range(self.ring.nvars):
            raise ValidationError(f"no variable {var!r}")
        shift, unit = self.ring._shifts[i], self.ring._units[i]
        terms = {}
        for m, coeff in self._terms.items():
            e = m >> shift & _MASK
            if e:
                terms[m - unit] = coeff * e
        return Poly._of(self.ring, terms)

    def subs(self, point):
        """Evaluate at a rational point (one value per variable)."""
        if len(point) != self.ring.nvars:
            raise ValidationError("point length does not match variable count")
        point = [p if isinstance(p, Fraction) else _exact(p) for p in point]
        total = ZERO
        for m, coeff in self._terms.items():
            value = coeff
            for p, shift in zip(point, self.ring._shifts):
                for _ in range(m >> shift & _MASK):
                    value *= p
            total += value
        return total

    def __str__(self):
        ring, parts = self.ring, []
        for m in sorted(self._terms, key=ring._key, reverse=True):
            coeff, mono = self._terms[m], ring.format_exponent(ring._unpack(m))
            mag = abs(coeff)
            body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
            sign = "-" if coeff < 0 else "+" if parts else ""
            parts.append(f"{sign} {body}" if parts else sign + body)
        return " ".join(parts) or "0"

    def __repr__(self):
        return f"Poly({self})"

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise ValidationError("polynomials from different rings")
            return other
        return self.ring.constant(other)


# ---------------------------------------------------------------------------
# parsing
#
# poly   := ['-'] term (('+'|'-') term)*
# term   := coeff ('*' varpow)*  |  varpow ('*' varpow)*
# varpow := name ('^' nat)?
# coeff  := nat ('/' posnat)?
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<op>[-+*/^])")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def parse_poly(ring, text):
    """Parse a polynomial string into ``ring``.

    Multiplication is always explicit (``2*x*y``), exponents use ``^`` with a
    nonnegative integer, coefficients are integers or fractions ``p/q``.
    Unknown variable names and malformed exponents raise :class:`ParseError`
    with the offending position.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(kind, what):
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ParseError(f"expected {what} at end of input")
        if tok[0] != kind:
            raise ParseError(f"expected {what} at position {tok[2]}, found {tok[1]!r}")
        pos += 1
        return tok

    def at_op(op):
        tok = peek()
        return tok is not None and tok[0] == "op" and tok[1] == op

    def parse_varpow():
        tok = take("name", "a variable name")
        idx = ring._index.get(tok[1])
        if idx is None:
            raise ParseError(f"unknown variable {tok[1]!r} at position {tok[2]}")
        exponent = 1
        if at_op("^"):
            take("op", "'^'")
            exponent = int(take("int", "a nonnegative integer exponent")[1])
        return idx, exponent

    def parse_term():
        tok = peek()
        if tok is None:
            raise ParseError("expected a term at end of input")
        coeff, expo = ONE, [0] * ring.nvars
        if tok[0] == "int":
            take("int", "an integer")
            coeff = Fraction(int(tok[1]))
            if at_op("/"):
                take("op", "'/'")
                dtok = take("int", "a positive denominator")
                if int(dtok[1]) == 0:
                    raise ParseError(f"zero denominator at position {dtok[2]}")
                coeff /= int(dtok[1])
        elif tok[0] == "name":
            idx, e = parse_varpow()
            expo[idx] += e
        else:
            raise ParseError(f"expected a term at position {tok[2]}, found {tok[1]!r}")
        while at_op("*"):
            take("op", "'*'")
            idx, e = parse_varpow()
            expo[idx] += e
        return tuple(expo), coeff

    terms = {}

    def accumulate(sign):
        expo, coeff = parse_term()
        s = terms.get(expo, ZERO) + sign * coeff
        if s:
            terms[expo] = s
        else:
            terms.pop(expo, None)

    tok = peek()
    if tok is None:
        raise ParseError("empty polynomial")
    sign = ONE
    if tok[0] == "op" and tok[1] == "-":
        take("op", "'-'")
        sign = -ONE
    accumulate(sign)
    while (tok := peek()) is not None:
        if tok[0] != "op" or tok[1] not in "+-":
            raise ParseError(f"expected '+' or '-' at position {tok[2]}, found {tok[1]!r}")
        take("op", "'+' or '-'")
        accumulate(ONE if tok[1] == "+" else -ONE)
    return Poly(ring, terms)


# ---------------------------------------------------------------------------
# Groebner bases
# ---------------------------------------------------------------------------


def vec_is_zero(v):
    return all(p.is_zero() for p in v)


def vec_lead(v):
    """Leading ``(component, packed monomial, coefficient)`` of a vector.

    The winning term has the largest ring monomial; among components sharing
    that monomial the smallest index wins.  Returns None for the zero vector.
    """
    best = None
    for comp, p in enumerate(v):
        if p._terms:
            m, coeff = p._leading()
            if best is None or p.ring._key(m) > p.ring._key(best[1]):
                best = (comp, m, coeff)
    return best


@dataclass
class GroebnerBasis:
    """A reduced Groebner basis: ``basis`` is monic and sorted by leading
    monomial (ascending)."""

    ring: PolyRing
    basis: list

    def __post_init__(self):
        # rank-1 reducers, built once: a quotient takes many normal forms
        self._reducers = [[g] for g in self.basis]
        self._leads = [vec_lead(v) for v in self._reducers]
        self._forms = {}    # the reducers' integer forms, as _reduce uses them

    def __iter__(self):
        return iter(self.basis)


def _check_cap(what, count, unit, cap):
    """Raise :class:`ResourceLimitError` when ``count``, the closed-form size
    of work not yet done, is over the monomial ``cap`` (``None``: no cap)."""
    if cap is not None and count > cap:
        raise ResourceLimitError(
            f"{what} has {count} {unit}, over the monomial cap {cap}")


class _MonomialBudget:
    """Cumulative monomial counter enforcing a resource cap."""

    __slots__ = ("cap", "used")

    def __init__(self, cap):
        self.cap = cap
        self.used = 0

    def charge(self, n):
        self.used += n
        if self.cap is not None and self.used > self.cap:
            raise ResourceLimitError(
                f"monomial cap {self.cap} exceeded during Groebner computation")


def _reducer_form(g, comp, lt):
    """The integer form ``(d, lc, parts)`` of the vector ``g`` whose packed
    lead ``lt`` sits in component ``comp``: ``parts`` lists ``(k, d / d_k,
    d_k * g_k)`` per nonzero component, from :meth:`Poly.integer_form`, over
    their common ``d``, and ``lc`` is the integer lead of ``d * g``."""
    parts = [(k, p.integer_form()) for k, p in enumerate(g) if p._terms]
    d = lcm(*(dk for _, (dk, _) in parts))
    parts = [(k, d // dk, terms) for k, (dk, terms) in parts]
    return d, next(f * terms[lt] for k, f, terms in parts if k == comp), parts


def _integer_vector(v):
    """``(scale, cur)``: the polynomial vector ``v`` times one positive
    ``scale``, one fresh ``{packed: int}`` per component."""
    integer = [p.integer_form() for p in v]
    scale = lcm(*(d for d, _ in integer))
    return scale, [{e: c * (scale // d) for e, c in terms.items()}
                   for d, terms in integer]


def _monic(cur, comp, expo):
    """``(d, ints)``: ``cur`` (``{packed: int}``s) over its term at ``expo``
    in component ``comp`` as ``ints / d``, ``d > 0`` coprime to the ints."""
    a = cur[comp][expo]
    g = gcd(a, *(c for t in cur for c in t.values()))
    if a < 0:
        g = -g
    return a // g, cur if g == 1 else [{e: c // g for e, c in t.items()} for t in cur]


def _reduce(ring, v, reducers, leads=None, budget=None, forms=None, width=None):
    """Fully reduce the components ``< width`` (default: all) of the module
    vector ``v`` by ``reducers``, scanned in order (first divisor wins).

    Returns ``v - sum_k q_k * reducers[k]`` for the reduction's cofactors
    ``q``: its first ``width`` components are the remainder, with no term
    divisible by a reducer's lead (same component, dividing monomial), and
    the rest are *carried*, updated by each step but never reduced or
    charged, so carrying unit vectors (reducers ``[g_k | e_k]``) leaves
    minus the cofactors there.  ``leads`` are the :func:`vec_lead`\\s of
    the reducers' first ``width`` components when the caller has them.
    Each step charges ``budget`` the number of reduced terms left.  This is
    the polynomial entry to :func:`_reduce_ints`; the reducers'
    :func:`_reducer_form`\\s go in ``forms``, which a caller may keep.
    """
    width = len(v) if width is None else width
    if leads is None:
        leads = [vec_lead(g[:width]) for g in reducers]
    forms = {} if forms is None else forms
    for k, lead in enumerate(leads):
        if lead is not None and k not in forms:
            forms[k] = _reducer_form(reducers[k], lead[0], lead[1])
    scale, cur = _reduce_ints(ring, *_integer_vector(v), forms, leads, budget, width)
    return [_from_ints(ring, scale, t, next(iter(t), None) if k < width else None)
            for k, t in enumerate(cur)]


def _reduce_ints(ring, scale, cur, forms, leads, budget, width):
    """:func:`_reduce` of the vector ``cur / scale``, one ``{packed: int}``
    per component (taken over and changed), by the reducers whose
    :func:`_reducer_form`\\s are ``forms[k]``.  Returns ``(scale, out)``:
    the result is ``out / scale``, and each remainder component of ``out``
    lists its lead first.

    Terms are taken largest first (term over position) from a heap of ints,
    a live term's negated sort key above its component; an entry whose term
    has since cancelled is skipped when popped.  A step on the term ``a /
    scale`` by a reducer ``g`` with integer lead ``lc`` sets ``v <- (lc/h) *
    v - (a/h) * x^m * d * g`` with ``h = gcd(a, lc)`` (signs moved so that
    ``scale`` grows by ``|lc/h|``, and only when that is not 1); ``scale``
    never shrinks, as dividing the content out at each growth timed slower.
    """
    guard, low = ring._guard, ring._low
    bits = (width - 1).bit_length()
    cmask = (1 << bits) - 1
    push = heapq.heappush
    divisors = [[] for _ in range(width)]      # per component: (reducer, packed lead)
    for hit, lead in enumerate(leads):
        if lead is not None and lead[0] < width:
            divisors[lead[0]].append((hit, lead[1]))
    heap = [((2 * (e & low) - e) << bits) | comp
            for comp in range(width) for e in cur[comp]]
    heapq.heapify(heap)
    rem = [{} for _ in range(width)]
    while heap:
        top = heapq.heappop(heap)
        comp, expo = top & cmask, top >> bits
        expo = 2 * (expo & low) - expo
        a = cur[comp].get(expo)
        if a is None:
            continue
        over = expo | guard
        for hit, lt in divisors[comp]:
            if (over - lt) & guard == guard:
                break
        else:
            rem[comp][expo] = a
            del cur[comp][expo]
            continue
        _, lc, parts = forms[hit]
        shift = expo - lt
        h = gcd(a, lc)
        mult, b = lc // h, a // h
        if mult < 0:
            mult, b = -mult, -b
        if mult != 1:
            scale *= mult
            cur = [{e: c * mult for e, c in terms.items()} for terms in cur]
            rem = [{e: c * mult for e, c in terms.items()} for terms in rem]
        for gcomp, factor, g in parts:
            terms, bk, live = cur[gcomp], b * factor, gcomp < width
            for e, c in g.items():
                e += shift
                s = terms.get(e)
                if s is None:
                    if e & guard:
                        _refuse_overflow(ring, (e,))
                    if live:
                        push(heap, ((2 * (e & low) - e) << bits) | gcomp)
                    terms[e] = -bk * c
                else:
                    s -= bk * c
                    if s:
                        terms[e] = s
                    else:
                        del terms[e]
        if budget is not None:
            budget.charge(sum(map(len, cur[:width])))
    return scale, rem + cur[width:]


def vec_combine(ring, n, terms):
    """``sum(q * v for q, v in terms)`` over length-``n`` vectors of
    polynomials, summed fraction-free: each product of a multiplier and an
    entry, from their :meth:`Poly.integer_form`\\s, is added up in
    ``int``\\s over one common denominator ``D``, one dict per component,
    and each nonzero sum becomes one ``Fraction(c, D)``."""
    acc = [{} for _ in range(n)]
    parts = []
    for q, v in terms:
        if q._terms:
            dq, tq = q.integer_form()
            for out, p in zip(acc, v):
                if p._terms:
                    dp, tp = p.integer_form()
                    parts.append((dq * dp, tq, tp, out))
    denom = lcm(*(part[0] for part in parts))
    for d, tq, tp, out in parts:
        factor = denom // d
        for e1, c1 in tq.items():
            c1 *= factor
            for e2, c2 in tp.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
    _refuse_overflow(ring, (e for t in acc for e in t))
    return [_from_ints(ring, denom, {e: c for e, c in t.items() if c}) if t
            else ring._zero for t in acc]


def _from_ints(ring, den, ints, lead=None):
    """``ints / den`` (packed ``ints``, no zero value) handed its
    :meth:`Poly.integer_form`, ``den`` and ``ints`` over their gcd, and its
    packed lead when the caller knows it."""
    if not ints:
        return ring._zero
    g = gcd(den, *ints.values())
    if g != 1:
        den //= g
        ints = {e: c // g for e, c in ints.items()}
    p = Poly._of(ring, {e: Fraction(c, den) for e, c in ints.items()} if den != 1
                 else {e: Fraction(c) for e, c in ints.items()}, lead)
    p._integer = den, ints
    return p


def _s_pair(ring, n, ei, ej, fi, fj):
    """The S-vector of two reducers whose monic leads, at packed ``ei`` and
    ``ej``, share a component, from their :func:`_reducer_form`\\s (a monic
    integer lead is ``d``): ``(D, cur)``, its ``n`` components times ``D =
    lcm(d_i, d_j)`` as ``{packed: int}``.  The lcm of the leads and every
    shifted term are refused over the limit."""
    top = ring._lcm(ei, ej)
    _refuse_overflow(ring, (top,))
    den = lcm(fi[0], fj[0])
    acc = [{} for _ in range(n)]
    for shift, f, (d, _, parts) in ((top - ei, 1, fi), (top - ej, -1, fj)):
        f *= den // d
        for comp, factor, terms in parts:
            out, k = acc[comp], f * factor
            for e, c in terms.items():
                e += shift
                s = out.get(e)
                if s is None:
                    if e & ring._guard:
                        _refuse_overflow(ring, (e,))
                    out[e] = k * c
                elif s := s + k * c:
                    out[e] = s
                else:
                    del out[e]
    return den, acc


def _groebner_ints(ring, columns, budget, relations=None, seeds=(), *, cap=None):
    """Module Groebner basis of the span of ``columns`` (lists of polynomials,
    ordered term over position), with representation rows on relations runs.

    Pairs are formed only between vectors whose leads share a component and
    are taken lowest weighted lcm degree first, ties by index.  On ideals
    (every column of length 1) with no ``relations`` asked for, each new
    element prunes them by the Gebauer-Moeller update (J. Symb. Comp. 6,
    1988): it drops a pending pair whose lcm its lead divides, unless its
    lcm with one of the pair's members is that same lcm (B_k); a new pair
    whose lcm another's properly divides (M); all but the first new pair per
    lcm (F); and every new pair sharing its lcm with one of coprime leads
    (Buchberger's product criterion).  The product criterion fails for
    module vectors, and every pair a criterion drops would still owe its
    relation, so longer vectors and relations runs reduce every pair.
    Returns ``(elements, leads)``: per basis vector (monic, not
    interreduced) its element ``(d, ints)``, components ``ints[k] / d``,
    then on relations runs its row, with ``basis[i] == sum_k
    representation[i][k] * columns[k]`` modulo the span of the nonzero
    ``seeds`` (which enter after the columns with zero rows), and its
    :func:`vec_lead`.  :func:`_split` builds the polynomials.

    Each element is one reducer, lifted to ``basis[k] + representation[k]``
    on relations runs (Moeller, Mora and Traverso, ISSAC 1992), made monic
    by dividing its ``int``\\s by their lead once (:func:`_monic`).  A
    pair's S-vector is summed from the two :func:`_reducer_form`\\s
    (:func:`_s_pair`) and reduced with the row part carried: the carried
    ``row`` is ``mi * reps[i] - mj * reps[j] - sum_k q_k * reps[k]`` (``q``
    the cofactors), a new element's row, or, when the S-vector is zero or
    reduces to zero, the relation ``sum_k row[k] * columns[k] == 0`` modulo
    the seeds, which a dict passed as ``relations`` receives as ``(i, j) ->
    row`` of polynomials.  So every same-component pair but those that
    added an element (whose relation is zero) gives its relation.

    ``cap[k]``, when given, is the largest weighted lcm degree of a pair
    formed in component ``k``.  On input homogeneous for twists ``t``, with
    ``cap[k] == D - t[k]``, the elements and relations of twisted degree at
    most ``D`` are the uncapped run's, in the same order: a vector above
    ``D`` divides no term at or below it, and its index only shifts later
    ones up.
    """
    elements, leads, heap = [], [], []
    forms = []    # the elements' reducer forms, one per element for the run
    pending = {}  # (j, i) -> lcm of the pair's leads; the heap may hold more
    prune = relations is None and all(len(c) == 1 for c in columns)
    track = relations is not None
    rows = len(columns) if track else 0

    def add_element(cur, comp, expo):
        d, ints = _monic(cur, comp, expo)
        elements.append((d, ints))
        forms.append((d, d, [(k, 1, t) for k, t in enumerate(ints) if t]))
        budget.charge(sum(map(len, ints[:len(ints) - rows])))
        i = len(elements) - 1
        new = {}
        for j, (jcomp, jexpo, _) in enumerate(leads):
            if jcomp == comp:
                new.setdefault(ring._lcm(jexpo, expo), []).append(j)
        if prune:
            # B_k, then M, F and the product criterion on the new pairs
            divides = ring._divides
            for (a, b), lcm in list(pending.items()):
                if (divides(expo, lcm)
                        and ring._lcm(leads[a][1], expo) != lcm
                        and ring._lcm(leads[b][1], expo) != lcm):
                    del pending[a, b]
            new = {lcm: js[:1] for lcm, js in new.items()
                   if not any(o != lcm and divides(o, lcm) for o in new)
                   and not any(leads[j][1] + expo == lcm for j in js)}
        for lcm, js in new.items():
            degree = ring._degree(lcm)
            if cap is not None and degree > cap[comp]:
                continue
            for j in js:
                pending[j, i] = lcm
                heapq.heappush(heap, (degree, j, i))
        leads.append((comp, expo, ONE))

    for k, c in enumerate(columns + list(seeds)):
        if not vec_is_zero(c):
            scale, cur = _integer_vector(c)
            # the unit row of an input column, a zero row for a seed
            cur += [{0: scale} if j == k else {} for j in range(rows)]
            add_element(cur, *vec_lead(c)[:2])

    while heap:
        _, i, j = heapq.heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        n = len(elements[i][1])
        rank = n - rows
        scale, cur = _s_pair(ring, n, leads[i][1], leads[j][1], forms[i], forms[j])
        if any(cur[:rank]):
            scale, cur = _reduce_ints(ring, scale, cur, forms, leads, budget, rank)
        elif not track:
            continue
        # each remainder component lists its lead first (term over position)
        heads = [(ring._key(next(iter(t))), -k)
                 for k, t in enumerate(cur[:rank]) if t]
        if heads:
            comp = -max(heads)[1]
            add_element(cur, comp, next(iter(cur[comp])))
        elif track:
            relations[i, j] = [_from_ints(ring, scale, t) for t in cur[rank:]]

    return elements, leads


def _split(ring, elements, rows):
    """``(basis, representation)`` of the engine's ``elements``, each ending
    in a row of length ``rows``, built as polynomials handed their leads."""
    built = [[_from_ints(ring, d, t, max(t, key=ring._key, default=None))
              for t in ints] for d, ints in elements]
    return [v[:len(v) - rows] for v in built], [v[len(v) - rows:] for v in built]


def normal_form(p, gb):
    """Fully reduced normal form of ``p`` modulo a :class:`GroebnerBasis`."""
    return _reduce(p.ring, [p], gb._reducers, gb._leads, forms=gb._forms)[0]


def normal_form_with_cofactors(p, gb):
    """Normal form plus the cofactors against the basis elements: ``[p | 0]``
    reduced by the ``[g_k | e_k]`` with the unit vectors carried, which
    leaves minus the cofactors there."""
    ring, n = p.ring, len(gb.basis)
    lifted = [[g] + [ring.one() if j == k else ring._zero for j in range(n)]
              for k, g in enumerate(gb.basis)]
    out = _reduce(ring, [p] + [ring._zero] * n, lifted, gb._leads, width=1)
    return out[0], [-q for q in out[1:]]


def module_normal_form(ring, v, gb):
    """Normal form of the module vector ``v`` against a module Groebner basis
    (:class:`cising.syzygies.ModuleGroebnerBasis`), uncapped."""
    return _reduce(ring, v, gb.basis)


def buchberger(generators, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Reduced Groebner basis of the ideal the generators span.

    The basis is :func:`_groebner_ints`'s on rank-1 vectors: pairs are pruned by
    Buchberger's product criterion and the Gebauer-Moeller chain criteria,
    and the rest are taken lowest weighted lcm degree first, ties by the
    pair's indices.  The returned basis is monic, fully interreduced, and
    sorted by leading monomial.
    """
    generators = list(generators)
    if not generators:
        raise ValidationError("need at least one generator (possibly zero)")
    ring = generators[0].ring
    for g in generators:
        if g.ring != ring:
            raise ValidationError("generators from different rings")
    elements, leads = _groebner_ints(ring, [[g] for g in generators],
                                     _MonomialBudget(max_monomials))

    # interreduce the integer forms: prune elements whose lead another lead
    # divides, then tail-reduce each survivor (leads kept, so still in
    # ascending order) against the others, and build only those
    final = []
    for k in sorted(range(len(elements)), key=lambda k: ring._key(leads[k][1])):
        if not any(ring._divides(leads[h][1], leads[k][1]) for h in final):
            final.append(k)
    leads = [leads[k] for k in final]
    forms = [(d, d, [(0, 1, t)]) for d, [t] in (elements[k] for k in final)]
    basis, guard = [], ring._guard
    for idx, (d, _, [(_, _, t)]) in enumerate(forms):
        lt = leads[idx][1]
        # tail-reduce by the others (its own lead None) if one divides a term
        if any(((m | guard) - o) & guard == guard for m in t for _, o, _ in leads
               if o != lt):
            others = leads[:idx] + [None] + leads[idx + 1:]
            _, r = _reduce_ints(ring, d, [dict(t)], forms, others, None, 1)
            d, [t] = _monic(r, 0, lt)    # the lead is kept
            forms[idx] = d, d, [(0, 1, t)]
        basis.append(_from_ints(ring, d, t, lt))
    return GroebnerBasis(ring=ring, basis=basis)


# ---------------------------------------------------------------------------
# graded quotient rings
# ---------------------------------------------------------------------------


class RingPresentation:
    """A graded quotient of a weighted polynomial ring by an ideal.

    The ideal's Groebner basis is computed on construction.  Two caches
    live as long as the presentation and fill as they are asked: the normal
    form of each monomial as its integer form ``(d, {packed: int})``, which
    the normal forms and encoders sum (the normal form is linear), and the
    packed standard monomials of each degree.  ``max_monomials`` caps the
    Groebner computation and every degree whose standard monomials are
    listed.
    """

    __slots__ = ("ring", "ideal", "gb", "max_monomials", "_monomial_nf",
                 "_standard")

    def __init__(self, ring, ideal, max_monomials=DEFAULT_MAX_MONOMIALS):
        ideal = list(ideal)
        for g in ideal:
            if not isinstance(g, Poly) or g.ring != ring:
                raise ValidationError("ideal generators must be polynomials in the ring")
        self.ring = ring
        self.ideal = ideal
        self.max_monomials = max_monomials
        if any(not g.is_zero() for g in ideal):
            self.gb = buchberger(ideal, max_monomials=max_monomials)
        else:
            self.gb = GroebnerBasis(ring, [])
        self._monomial_nf = {}
        self._standard = {}

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.ideal) or "0"
        return f"RingPresentation({self.ring!r} mod ({gens}))"

    def normal_form(self, p):
        """Normal form of ``p``, built from :meth:`_integer_normal_form`."""
        return _from_ints(self.ring, *self._integer_normal_form(p)) if p._terms else p

    def _integer_normal_form(self, p):
        """The normal form of ``p`` as ``(d > 0, {packed: int})``, summed
        from the cached normal forms of its monomials (it is linear)."""
        dp, terms = p.integer_form()
        parts = [(c, self._monomial_normal_form(m)) for m, c in terms.items()]
        den = lcm(*(d for _, (d, _) in parts))
        acc = {}
        for c, (d, nf) in parts:
            c *= den // d
            for e, a in nf.items():
                acc[e] = acc.get(e, 0) + c * a
        return den * dp, {e: c for e, c in acc.items() if c}

    def encode_multiples(self, coords, entries, degree):
        """``coords.encode`` of the normal form of ``x^m * sum(label * poly
        for label, poly in entries)`` for each standard monomial ``m`` of
        weighted degree ``degree``, in :meth:`standard_monomials` order, read
        from the packed cache: the cached normal forms of the shifted
        monomials are summed straight into the slice coordinates, in
        ``int``\\s over one common denominator, so neither a product nor a
        normal form polynomial is built.  A coordinate is an ``int`` when
        that denominator is 1, else a ``Fraction``."""
        forms = [(coords.index[label], poly.integer_form())
                 for label, poly in entries if poly._terms]
        den = lcm(*(d for _, (d, _) in forms))
        terms = [(block, m, c * (den // d))
                 for block, (d, t) in forms for m, c in t.items()]
        nf = self._monomial_normal_form
        out = []
        for shift in self._packed_monomials(degree):
            parts = [(block, c, nf(shift + m)) for block, m, c in terms]
            scale = lcm(*(d for _, _, (d, _) in parts))
            vec = {}
            for block, c, (d, t) in parts:
                c *= scale // d
                for e, a in t.items():
                    k = block[e]
                    vec[k] = vec.get(k, 0) + c * a
            scale *= den
            out.append({k: a if scale == 1 else Fraction(a, scale)
                        for k, a in vec.items() if a})
        return out

    def _monomial_normal_form(self, m):
        """The :meth:`Poly.integer_form` ``(d, {packed: int})`` of the
        normal form of ``m``, reduced once and cached."""
        reduced = self._monomial_nf.get(m)
        if reduced is None:
            _refuse_overflow(self.ring, (m,))
            reduced = self._monomial_nf[m] = normal_form(
                Poly._of(self.ring, {m: ONE}, m), self.gb).integer_form()
        return reduced

    def standard_monomials(self, d):
        """Exponents of weighted degree ``d`` outside the leading-term ideal,
        as a fresh list.  Raises :class:`ResourceLimitError`, before listing
        any, when the ring has more monomials of degree ``d`` than the cap."""
        return list(map(self.ring._unpack, self._packed_monomials(d)))

    def _packed_monomials(self, d):
        """:meth:`standard_monomials`, packed, listed once and kept."""
        found = self._standard.get(d)
        if found is None:
            self._require_listable(d)
            leads = [g._leading()[0] for g in self.gb.basis]
            found = self._standard[d] = [
                m for m in self.ring._packed_monomials(d)
                if not any(self.ring._divides(lt, m) for lt in leads)]
        return found

    def _require_listable(self, d):
        """Refuse degree ``d`` when it has more monomials than the cap."""
        _check_cap(f"degree {d}", self.ring.monomial_count(d), "monomials",
                   self.max_monomials)

    def require_homogeneous(self):
        for k, g in enumerate(self.ideal):
            if not g.is_homogeneous():
                raise GradingError(
                    f"ideal generator {k + 1} is not homogeneous: {g}")


class GradedSlice:
    """Coordinates of a graded slice of a free module, one per ``(label,
    monomial)``: ``pieces`` are ``(label, degree)``, one per label, over every
    monomial of a :class:`PolyRing` ``source`` or the standard ones of a
    :class:`RingPresentation`.  ``encode`` gives :class:`exactq.IncrementalSpan`
    its sparse vectors."""

    __slots__ = ("ring", "index", "size")

    def __init__(self, source, pieces):
        self.ring = source.ring if isinstance(source, RingPresentation) else source
        self.index = {}     # label -> {packed monomial: coordinate}
        listed, size = {}, 0
        for label, degree in pieces:
            monomials = listed.get(degree)
            if monomials is None:
                monomials = listed[degree] = source._packed_monomials(degree)
            self.index.setdefault(label, {}).update(
                zip(monomials, range(size, size + len(monomials))))
            size += len(monomials)
        self.size = size

    def __len__(self):
        return self.size

    def __iter__(self):
        return ((label, self.ring._unpack(m)) for label, block in self.index.items()
                for m in block)

    def encode(self, entries, shift=None):
        """Sparse coordinates of ``x^shift * sum(label * poly for label, poly
        in entries)``; every term must lie in the slice.  The shift adds
        exponents, so no product polynomial is built."""
        return self._encode(entries, 0 if shift is None else self.ring._pack(shift))

    def images(self, source, entries):
        """``encode(entries(label), shift=mono)`` per coordinate of ``source``."""
        return [self._encode(entries(label), m)
                for label, block in source.index.items() for m in block]

    def _encode(self, entries, shift):
        index = self.index
        vec = {}
        for label, poly in entries:
            if not poly._terms:
                continue
            block = index[label]
            for m, coeff in poly._terms.items():
                c = block[m + shift]
                s = vec.get(c)
                s = coeff if s is None else s + coeff
                if s:
                    vec[c] = s
                else:
                    del vec[c]
        return vec


def hilbert_function(presentation, degree):
    """Dimensions of the graded pieces of the quotient, degrees 0..degree.

    Counts standard monomials of the leading-term ideal; requires every
    ideal generator to be homogeneous for the declared weights.  Every
    degree is checked against the cap before any is listed.  Only the
    variables of some leading monomial are listed: a monomial is standard
    exactly when its part in those variables is, so each degree convolves
    their standard monomials with the closed-form count of the others.
    """
    presentation.require_homogeneous()
    for d in range(degree + 1):
        presentation._require_listable(d)
    ring = presentation.ring
    leads = [g.lm for g in presentation.gb.basis]
    used = [i for i in range(ring.nvars) if any(lt[i] for lt in leads)]
    listed = PolyRing([ring.variables[i] for i in used],
                      [ring.weights[i] for i in used])
    leads = [listed._pack([lt[i] for i in used]) for lt in leads]
    standard = [sum(1 for m in listed._packed_monomials(t)
                    if not any(listed._divides(lt, m) for lt in leads))
                for t in range(degree + 1)]
    others = _monomial_counts([w for i, w in enumerate(ring.weights)
                               if i not in used], degree)
    return [sum(standard[t] * others[d - t] for t in range(d + 1))
            for d in range(degree + 1)]


def _min_transversal(supports, limit):
    """Fewest indices meeting every set in ``supports``, or ``limit + 1``
    when more than ``limit`` are needed.

    Branches on the indices of the first set no chosen index meets yet, so
    the search tree has depth at most ``limit`` and fan-out at most the
    largest set size.
    """
    def search(chosen):
        missed = next((s for s in supports if not s & chosen), None)
        if missed is None:
            return len(chosen)
        if len(chosen) == limit:
            return limit + 1
        return min(search(chosen | {i}) for i in sorted(missed))

    return search(frozenset())


def _is_regular_given_basis(gens, basis):
    """Whether homogeneous ``gens`` form a regular sequence, given a
    Groebner ``basis`` of the ideal they generate.

    The codimension of the ideal is that of its leading-term ideal: the
    fewest variables meeting every leading support (a minimum transversal).
    The sequence is regular exactly when that equals ``len(gens)``; a zero
    generator never is.
    """
    if any(g.is_zero() for g in gens):
        return False
    supports = [frozenset(i for i, e in enumerate(g.lm) if e) for g in basis]
    if frozenset() in supports:     # a unit: the quotient is the zero ring
        return False
    return _min_transversal(supports, len(gens)) == len(gens)


def is_regular_sequence(ring, gens, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Exact regular-sequence test for homogeneous generators, by the
    leading supports of their Groebner basis (:func:`buchberger`)."""
    gens = list(gens)
    for k, g in enumerate(gens):
        if not isinstance(g, Poly) or g.ring != ring:
            raise ValidationError("generators must be polynomials in the ring")
        if not g.is_homogeneous():
            raise GradingError(f"generator {k + 1} is not homogeneous: {g}")
    if not gens:
        return True
    if any(g.is_zero() for g in gens):
        return False
    return _is_regular_given_basis(
        gens, buchberger(gens, max_monomials=max_monomials).basis)


def _capped_product(factors, max_monomials):
    """Product of the nonempty list ``factors``, refused with
    :class:`ResourceLimitError` once a partial product has more than
    ``max_monomials`` terms, before :func:`buchberger` would charge it."""
    product = factors[0]
    for f in factors[1:]:
        product = product * f
        if max_monomials is not None and len(product._terms) > max_monomials:
            raise ResourceLimitError(
                f"monomial cap {max_monomials} exceeded while expanding a "
                "product of generators")
    return product


def tower_ring(ring, gens, n, max_monomials=DEFAULT_MAX_MONOMIALS):
    """Presentation of the order-``n`` thickening: quotient by the n-th
    powers of the given generators.  ``n`` must be at least 1."""
    n = int(n)
    if n < 1:
        raise ValidationError("thickening order n must be >= 1")
    gens = list(gens)
    if not gens:
        raise ValidationError("need at least one generator")
    return RingPresentation(ring, [_capped_product([g] * n, max_monomials)
                                   for g in gens],
                            max_monomials=max_monomials)


def is_square_zero(presentation, gens):
    """True when the ideal spanned by ``gens`` squares to zero in the
    presented quotient: every pairwise product reduces to 0."""
    gens = list(gens)
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            # a check reduces few whole products: no monomial cache pays back
            if not normal_form(gens[i] * gens[j], presentation.gb).is_zero():
                return False
    return True


def square_zero_filtration(ring, gens, n):
    """Per-stage square-zero verdicts for the order-``n`` thickening.

    Stage ``k`` (for ``k = n-1`` down to ``1``) asks whether the ideal
    spanned by the products of ``k`` generators squares to zero in the
    quotient by the products of ``k+1`` generators together with the pure
    ``n``-th powers.  It always does: the square is spanned by products of
    two ``k``-products, each a product of ``2k >= k+1`` generators and so a
    multiple of any ``k+1`` of its factors.  The argument needs nothing of
    the generators -- zero, units, inhomogeneous or weighted alike -- so the
    verdicts, in stage order, are all True and no polynomial is built;
    :func:`is_square_zero` is the check on a given presentation.
    """
    n = int(n)
    if n < 1:
        raise ValidationError("thickening order n must be >= 1")
    gens = list(gens)
    if not gens:
        raise ValidationError("need at least one generator")
    for g in gens:
        if not isinstance(g, Poly) or g.ring != ring:
            raise ValidationError("generators must be polynomials in the ring")
    return [True] * (n - 1)
