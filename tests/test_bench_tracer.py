"""The benchmark's tracer still finds every function it patches.

``bench/tracing.py`` patches library functions by name; a rename in ``src/``
would break ``bench/run.py --trace 1`` without failing any library test.
"""

import importlib.util
import sys
from pathlib import Path

import cising.cli  # noqa: F401  (imports every cising module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cising_namespaces():
    """Every attribute of every cising module and of the classes they define."""
    out = {}
    for key, module in sorted(sys.modules.items()):
        if key != "cising" and not key.startswith("cising."):
            continue
        for attr, value in vars(module).items():
            out[(key, attr)] = value
            if isinstance(value, type) and value.__module__ == key:
                for name, raw in vars(value).items():
                    out[(key, attr, name)] = raw
    return out


def test_tracer_installs_every_target_and_restores_every_original():
    tracing = load_tracing()
    before = cising_namespaces()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for short, names in tracing.TARGETS.items():
            home = sys.modules[f"cising.{short}"]
            for dotted in names:
                owner, _, attr = dotted.rpartition(".")
                holder = getattr(home, owner) if owner else home
                raw = vars(holder)[attr]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                assert hasattr(fn, "__wrapped__"), f"{short}.{dotted} not traced"
    finally:
        tracer.remove()
    after = cising_namespaces()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, f"{key} not restored"
