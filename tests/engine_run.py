"""The Groebner engine's run built as polynomials, for the tests that read
its basis and representation rows directly."""

from cising.polyring import _groebner_ints, _split


def _groebner(ring, columns, budget, relations=None, seeds=()):
    """``(basis, representation)`` of the :func:`_groebner_ints` run, built
    by ``_split`` as :class:`ModuleGroebnerBasis` builds them; the rows are
    None unless ``relations`` is given."""
    track = relations is not None
    elements, _ = _groebner_ints(ring, columns, budget, relations, seeds)
    basis, reps = _split(ring, elements, len(columns) if track else 0)
    return basis, reps if track else None
