"""Randomized ambient lifts of a resolution's differentials.

The Eisenbud operators read off :func:`cising.ciext.eisenbud_ops` do not
depend on how the differentials are lifted to the ambient ring.  The tests
check that by handing ``eisenbud_ops`` a resolution whose entries carry
random multiples of the ideal generators.
"""

from fractions import Fraction

from cising.ciext import FreeResolution


def randomized_lifts(rp, resolution, rng):
    """``resolution`` with a random ``g * f`` added, for each ideal generator
    ``f`` and about half the entries of degree at least ``deg f`` (``g`` a
    monomial times an integer in [-2, 2]).  Every entry keeps its class
    modulo the ideal."""
    ring = rp.ring
    lifted = []
    for i, cols in enumerate(resolution.differentials):
        src, tgt = resolution.twists[i + 1], resolution.twists[i]
        new_cols = []
        for cidx, col in enumerate(cols):
            new_col = list(col)
            for ridx in range(len(new_col)):
                for f in rp.ideal:
                    dd = src[cidx] - tgt[ridx] - f.homogeneous_degree()
                    if dd < 0 or rng.random() < 0.5:
                        continue
                    g = ring.monomial(rng.choice(ring.monomials_of_degree(dd)),
                                      Fraction(rng.randint(-2, 2)))
                    new_col[ridx] = new_col[ridx] + g * f
            new_cols.append(new_col)
        lifted.append(new_cols)
    return FreeResolution(rp=rp, twists=resolution.twists,
                          differentials=lifted)
