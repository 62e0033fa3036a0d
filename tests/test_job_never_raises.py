"""``cising.cli.Job`` turns every problem with a job into a finding and
never raises.  The property draws JSON-shaped dicts over the eleven
top-level keys -- well-formed values, values of the wrong shape, and values
past the library's bounds (an exponent or a weight of 40000, a DG degree of
-10**9) -- for every command and for ``validate``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cising.cli import _TOP_KEYS, COMMANDS, Job, build_parser

NAMES = ["x", "y", "ch1", ""]
POLYS = ["x", "y", "x^2", "x*y + y^2", "x^2 - 1/2*y^2", "x^40000", "ch1",
         "x^2*ch1", "z", "1/0", "x^", "0", "1"]
INTEGERS = [0, 1, 2, 3, -1, -2, 64, 65, 40000, -10**9]

leaves = st.one_of(st.none(), st.booleans(), st.sampled_from(INTEGERS),
                   st.just(1.5), st.sampled_from(NAMES + POLYS),
                   st.sampled_from(list(COMMANDS) + ["grevlex", "lex"]))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["degrees", "matrix", "twists", "relations", "w"]),
        inner, max_size=3),
    max_leaves=8)
polys = st.sampled_from(POLYS)


@st.composite
def dg_objects(draw):
    n = draw(st.integers(1, 3))
    return {"degrees": draw(st.lists(st.sampled_from(INTEGERS), min_size=n,
                                     max_size=n)),
            "matrix": draw(st.lists(st.lists(polys, min_size=n, max_size=n),
                                    min_size=n, max_size=n))}


@st.composite
def module_objects(draw):
    n = draw(st.integers(1, 2))
    return {"twists": draw(st.lists(st.sampled_from(INTEGERS), min_size=n,
                                    max_size=n)),
            "relations": draw(st.lists(
                st.lists(polys, min_size=n, max_size=n), max_size=2))}


SHAPED = {
    "command": st.sampled_from(COMMANDS),
    "variables": st.sampled_from([["x"], ["x", "y"], ["ch1"], ["x", "x"],
                                  [""]]),
    "weights": st.lists(st.sampled_from([1, 2, 40000, 0]), min_size=1,
                        max_size=2),
    "order": st.sampled_from(["grevlex", "lex"]),
    "map": st.lists(polys, min_size=1, max_size=3),
    "point": st.lists(st.sampled_from([0, 1, "1/2", "x", "1/0"]),
                      max_size=3),
    "module": module_objects(),
    "dg": dg_objects(),
    "degree": st.sampled_from(INTEGERS),
    "window": st.lists(st.sampled_from(INTEGERS), min_size=2, max_size=2),
    "n": st.sampled_from(INTEGERS),
}


@st.composite
def jobs(draw):
    """Each key absent, of its own shape (half the time), or any JSON."""
    data = {}
    for key in sorted(_TOP_KEYS):
        kind = draw(st.sampled_from(["shaped", "shaped", "json", "absent"]))
        if kind != "absent":
            data[key] = draw(SHAPED[key] if kind == "shaped" else json_values)
    return data


@settings(max_examples=400)
@given(jobs(), st.sampled_from(COMMANDS + ("validate",)))
def test_job_never_raises(data, command):
    options = build_parser().parse_args([command, "job.json"])
    job = Job(data, command, options)
    assert all(isinstance(finding, str) for finding in job.findings)
