"""Every name the package exports resolves, and none is listed twice."""

import cising


def test_every_export_is_an_attribute_of_the_package():
    missing = [name for name in cising.__all__ if not hasattr(cising, name)]
    assert missing == []


def test_exports_are_listed_once():
    assert len(cising.__all__) == len(set(cising.__all__))
