"""
Polynomial rings, Groebner bases, Hilbert functions
===================================================

The polynomial layer is dense-free and exact: terms live in a dictionary
keyed by exponent tuples, coefficients are Fractions, and the monomial
order is degree-graded (grevlex by default, optionally lex), with optional
positive weights on the variables.
"""

from cising import PolyRing, RingPresentation, buchberger, hilbert_function

# Multiplication in the string grammar is always explicit: 2*x*y, x^2.
ring = PolyRing(["x", "y"])
f = ring.parse("x^2 + 3*x*y")
g = ring.parse("y^2 - 1/2*x*y")
print("f =", f)
print("g =", g)
print("f*g =", f * g)
print("df/dx =", f.diff(0))

# The reduced Groebner basis: monic, interreduced, sorted by leading term.
gb = buchberger([f, g])
print("groebner basis:", [str(p) for p in gb.basis])

# Quotient rings are wrapped in a presentation that memoizes the basis and
# answers normal-form and dimension queries.
rp = RingPresentation(ring, [ring.parse("x^2"), ring.parse("y^2")])
print("normal form of x^2*y + x*y:", rp.normal_form(ring.parse("x^2*y + x*y")))
print("standard monomials in degree 2:",
      [str(ring.monomial(m)) for m in rp.standard_monomials(2)])

# The Hilbert function counts standard monomials degree by degree.
print("hilbert function through degree 5:", hilbert_function(rp, 5))

# Weighted gradings work the same way; here y counts double.
weighted = PolyRing(["x", "y"], weights=[1, 2])
wp = RingPresentation(weighted, [weighted.parse("x^2 + y")])
print("weighted hilbert function:", hilbert_function(wp, 6))
