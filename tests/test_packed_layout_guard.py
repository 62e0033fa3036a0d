"""Only ``polyring`` reads its packed layout.

A ``Poly`` stores its terms as ``{packed int: Fraction}`` and caches an
integer form; both are ``polyring``'s own.  The modules built on it --
``ciext``, ``chevalley``, ``tangentlie`` and ``cli`` -- go through the
public surface (``terms``, ``homogeneous_degree``, ``normal_form``,
``GradedSlice.encode`` and its ``(label, exponent)`` iteration,
``encode_multiples``), so a change of layout stays inside ``polyring``.
This parses each of them and fails on any read or import of the packed
layout or the integer forms.  None of these modules reads a list's
``.index``, so every ``.index`` attribute counts as a slice's packed index.
"""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).parent.parent / "src" / "cising"
MODULES = ["ciext", "chevalley", "tangentlie", "cli"]

PACKED = {"_terms", "_integer", "integer_form", "_integer_normal_form",
          "_from_ints", "_pack", "_unpack", "_degree", "index"}


def packed_reads(tree):
    """``(line, what)`` for each read or import of the packed layout."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in PACKED:
                found.append((node.lineno, f".{node.attr}"))
            elif (node.attr == "_of" and isinstance(node.value, ast.Name)
                  and node.value.id == "Poly"):
                found.append((node.lineno, "Poly._of"))
        elif isinstance(node, ast.Name) and node.id in PACKED - {"index"}:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {alias.name}")
                      for alias in node.names if alias.name in PACKED]
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_no_read_of_the_packed_layout(module):
    path = SOURCE / f"{module}.py"
    found = packed_reads(ast.parse(path.read_text(), filename=str(path)))
    assert found == [], f"{module}.py reads polyring's packed layout: {found}"


@pytest.mark.parametrize("snippet, what", [
    ("p._terms", "._terms"),
    ("coords.index[k][m]", ".index"),
    ("Poly._of(ring, {})", "Poly._of"),
    ("from .polyring import _from_ints", "import _from_ints"),
    ("rp._integer_normal_form(p)", "._integer_normal_form"),
    ("ring._degree(m)", "._degree"),
    ("_from_ints(ring, den, terms)", "_from_ints"),
])
def test_the_guard_sees_each_kind_of_read(snippet, what):
    found = [w for _, w in packed_reads(ast.parse(snippet))]
    assert found == [what]
