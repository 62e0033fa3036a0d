"""
Tangent fibers and the quadratic bracket
========================================

At a point of the zero locus of a polynomial map, the two-step tangent
fiber has a degree-1 part (kernel of the Jacobian) and a degree-2 part
(cokernel), tied together by a symmetric bracket built from second
derivatives.  The package computes that bracket two independent ways and
insists the answers agree.
"""

from fractions import Fraction

from cising import (PolyRing, hessian_direct, hessian_snake, tangent_fiber,
                    tangent_lie)

F = Fraction

ring = PolyRing(["x", "y"])
cone = [ring.parse("x^2 + y^2")]
origin = [F(0), F(0)]

# The fiber: Jacobian, Hessians, and the kernel and cokernel of the Jacobian,
# from one pass over the partial derivatives.  Both routes start from it.
fiber = tangent_fiber(cone, origin)

# Route one: contract the second-derivative tensors with kernel vectors.
direct = hessian_direct(fiber)
print("kernel dimension:", fiber.g1_dim)
print("cokernel dimension:", fiber.g2_dim)
print("bracket by contraction:", direct)

# Route two: a connecting map in a six-term diagram of differential-operator
# fibers.  The interior lift is arbitrary; the answer provably is not.
snaked = hessian_snake(fiber)
print("bracket by boundary map:", snaked)
print("agree exactly:", direct == snaked)

# tangent_lie bundles both routes and raises if they ever disagree.
lie = tangent_lie(cone, origin)
print("assembled bracket:", lie.bracket)

# The cusp x^2 + y^3: the cubic term contributes nothing to the bracket,
# so the second basis direction squares to zero.
cusp = [ring.parse("x^2 + y^3")]
print("cusp bracket:", tangent_lie(cusp, origin).bracket)

# Points other than the origin work too -- differentiation recenters there.
shifted = [ring.parse("x^2 - 2*x + 1"), ring.parse("x*y - y")]
lie = tangent_lie(shifted, [F(1), F(0)])
print("bracket at (1, 0):", lie.bracket)
