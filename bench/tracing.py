"""Spans around the public functions of each cising module.

The tracer is installed from the benchmark only: it replaces each traced
function, in every ``cising`` module namespace that binds it, with a wrapper
that records a span, and puts the originals back on removal.  ``Poly`` and
``Fraction`` arithmetic are not wrapped; their cost lands in the self time of
the innermost traced caller.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``job`` the job id set by the caller.
Spans stay in memory for the life of the tracer; ``run.py`` keeps the
tracer of every traced round until the run ends.  The self time
of a span is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

import functools
import sys
import time

# module -> traced public names ("Class.method" for methods)
TARGETS = {
    "exactq": ("IncrementalSpan.add", "rref", "Mat.mul", "Mat.from_columns",
               "snake_boundary"),
    "polyring": ("buchberger", "normal_form", "normal_form_with_cofactors",
                 "RingPresentation.standard_monomials", "hilbert_function",
                 "is_regular_sequence", "square_zero_filtration"),
    "syzygies": ("module_buchberger", "syzygies"),
    "ciext": ("minimal_generators", "minimal_resolution", "eisenbud_ops",
              "fg_check", "hstar_dims", "minimize_dg"),
    "chevalley": ("chevalley_cochain", "ce_cohomology"),
    "tangentlie": ("hessian_direct", "hessian_snake", "tangent_lie"),
    "cli": ("run_job",),
}


def _accepted(args, result):
    return {"accepted": 1 if result else 0}


def _cells(args, result):
    return {"cells": args[0].nrows * args[0].ncols}


def _basis_out(args, result):
    return {"basis_out": len(result.basis)}


def _relations_out(args, result):
    return {"relations_out": len(result)}


def _generators(args, result):
    return {"offered": len(args[2]), "kept": len(result[0])}


def _report_bytes(args, result):
    return {"report_bytes": len(result[1].encode())}


# span name -> counts taken from the call's arguments and result
QUANTITIES = {
    "exactq.IncrementalSpan.add": _accepted,
    "exactq.rref": _cells,
    "polyring.buchberger": _basis_out,
    "syzygies.module_buchberger": _basis_out,
    "syzygies.syzygies": _relations_out,
    "ciext.minimal_generators": _generators,
    "cli.run_job": _report_bytes,
}


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.job = None
        self._stack = []
        self._patches = []      # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        quantities = QUANTITIES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if quantities is not None:
                for key, value in quantities(args, result).items():
                    counts[(name, key)] = counts.get((name, key), 0) + value
            return result

        return traced

    def install(self):
        """Patch every traced name into every cising namespace binding it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "cising" or key.startswith("cising.")]
        for short, names in TARGETS.items():
            home = sys.modules[f"cising.{short}"]
            for dotted in names:
                span_name = f"{short}.{dotted}"
                if "." in dotted:
                    cls_name, attr = dotted.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(span_name, raw.__func__))
                    else:
                        wrapped = self._wrap(span_name, raw)
                    self._patch(cls, attr, raw, wrapped)
                    continue
                original = getattr(home, dotted)
                wrapped = self._wrap(span_name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def remove(self):
        """Put every original back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def summary(self):
        """Per span name: ``calls``, total ``self_s`` and the summed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[idx]
        for (name, key), value in self.counts.items():
            out[name][key] = value
        return out
