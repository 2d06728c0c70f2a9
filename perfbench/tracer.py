"""Span tracer for sympl, installed from outside the library.

`Tracer.install` wraps the public functions of every sympl module and a
few key methods, and rebinds each wrapped name in every sympl module
namespace that holds it, so nested calls such as
orbitclassify -> weyl -> weights -> scalars nest as spans. A span's
layer is the module that defines the function. Self time is a span's
duration minus the durations of its direct children.

Spans are kept in memory (up to SPAN_CAP) and written when the run ends;
the per-layer totals and work counters are kept for every span.
"""

import functools
import inspect
import json
import sys
import time

# `import sympl` leaves out cli and serialize; the tracer wraps every layer
import sympl.cli  # noqa: F401
import sympl.serialize  # noqa: F401
from sympl.errors import DomainError
from sympl.laurent import LaurentPoly

LAYERS = ("scalars", "weights", "weyl", "embeddings", "ehw", "orbitclassify",
          "laurent", "lfactors", "fourier", "serialize", "cli")

KEY_METHODS = {
    "Weight": ("__post_init__",),
    "WeylElement": ("__post_init__",),
    "CharacterDatum": ("__post_init__",),
    "SymMatrix": ("__post_init__",),
    "FourierExpansion": ("__init__",),
    "SatakeDatum": ("__init__",),
    "LaurentPoly": ("__init__", "__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
                    "__pow__", "__eq__", "evaluate", "parse"),
    "RationalFunction": ("__init__", "__mul__", "__truediv__", "cancelled", "numerator",
                         "denominator", "__eq__", "evaluate"),
}

SPAN_CAP = 100_000


class Aggregate:
    """Per-layer calls, self time and rejections plus named work counters."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.rejections = dict.fromkeys(LAYERS, 0)
        self.counters = {}

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def merge(self, data):
        for field in ("calls", "self_s", "rejections"):
            mine = getattr(self, field)
            for layer, value in data[field].items():
                mine[layer] += value
        for name, value in data["counters"].items():
            self.add(name, value)

    def as_dict(self):
        return {"calls": self.calls, "self_s": self.self_s,
                "rejections": self.rejections, "counters": self.counters}


def _point_count(grid):
    try:
        return len(grid.points)
    except TypeError:
        return 0


def _on_mul(tracer, args, result, frame):
    a, b = args
    tracer.agg.add("laurent.term_products", len(a.terms) * (len(b.terms) if isinstance(b, LaurentPoly) else 1))
    for open_frame in reversed(tracer.stack):
        if open_frame[2] == tracer.eq_index:
            open_frame[3] = True
            break


def _on_evaluate(tracer, args, result, frame):
    tracer.agg.add("laurent.evaluations")
    if tracer.stack and tracer.stack[-1][2] == tracer.pit_index:
        tracer.agg.add("fourier.pit_points_evaluated")


def _on_eq(tracer, args, result, frame):
    tracer.agg.add("lfactors.eq_calls")
    if not frame[3]:
        tracer.agg.add("lfactors.eq_structural")


def _counter(name, amount=lambda args, result: 1):
    return lambda tracer, args, result, frame: tracer.agg.add(name, amount(args, result))


HOOKS = {
    "weights.Weight.__post_init__": _counter("weights.built"),
    "weyl.dominant_orbit_elements": _counter("weyl.dominant_reps", lambda a, r: len(r)),
    "orbitclassify.classify_levels": _counter("orbitclassify.levels", lambda a, r: r.x_max + 1),
    "orbitclassify.duality_check": _counter("orbitclassify.levels", lambda a, r: 2),
    "embeddings.klingen_embedding_inverse": _counter("embeddings.round_trips"),
    "fourier.is_psd": _counter("fourier.matrices_tested"),
    "fourier.is_pd": _counter("fourier.matrices_tested"),
    "fourier.rank": _counter("fourier.matrices_tested"),
    "fourier.build_pd_grid": _counter("fourier.grid_points_built", lambda a, r: _point_count(r)),
    "laurent.LaurentPoly.__mul__": _on_mul,
    "laurent.LaurentPoly.__rmul__": _on_mul,
    "laurent.LaurentPoly.evaluate": _on_evaluate,
    "lfactors.RationalFunction.__eq__": _on_eq,
}


def _targets():
    """(qualified name, layer, owner, attribute, original) for every traced callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"sympl.{layer}"]
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not name.startswith("_") or (layer == "cli" and name.startswith("_cmd_")):
                    out.append((f"{layer}.{name}", layer, module, name, obj))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for method in KEY_METHODS.get(name, ()):
                    raw = obj.__dict__.get(method)
                    if raw is not None:
                        out.append((f"{layer}.{name}.{method}", layer, obj, method, raw))
    return out


class Tracer:
    def __init__(self):
        self.agg = Aggregate()
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = 0
        self.names = []
        self.origin = time.perf_counter()
        self._restore = []
        self._wrapped = [(qual, layer, owner, attr, raw, self._wrap(qual, layer, raw))
                         for qual, layer, owner, attr, raw in _targets()]
        self.eq_index = self._index("lfactors.RationalFunction.__eq__")
        self.pit_index = self._index("fourier.pit_vanishes")

    def _index(self, qual):
        if qual not in self.names:
            self.names.append(qual)
        return self.names.index(qual)

    def _wrap(self, qual, layer, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(qual, layer, raw.__func__))
        q = self._index(qual)
        hook = HOOKS.get(qual)
        agg, stack, spans = self.agg, self.stack, self.spans
        calls, self_s, rejections = agg.calls, agg.self_s, agg.rejections
        perf = time.perf_counter
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            tracer.next_id += 1
            # child time, span id, name index, "a LaurentPoly product ran below"
            frame = [0.0, tracer.next_id, q, False]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                result = raw(*args, **kwargs)
            except DomainError as exc:
                # count a rejection once, in the innermost layer that raised it
                if not getattr(exc, "_counted", False):
                    exc._counted = True
                    rejections[layer] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                calls[layer] += 1
                self_s[layer] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((frame[1], parent, q, tracer.op_id, t0, t1))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, result, frame)
            return result

        return wrapper

    def install(self):
        """Rebind every traced name, in every sympl namespace that holds it."""
        namespaces = [m for name, m in sys.modules.items() if name == "sympl" or name.startswith("sympl.")]
        for qual, layer, owner, attr, raw, wrapper in self._wrapped:
            if inspect.isclass(owner):
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            for module in namespaces:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._restore.append((module, name, raw))
                        setattr(module, name, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def span_dump(self):
        return {
            "names": self.names,
            "dropped": self.dropped,
            "fields": ["id", "parent", "name", "op", "start_s", "end_s"],
            "spans": [(i, p, q, op, round(t0 - self.origin, 7), round(t1 - self.origin, 7))
                      for i, p, q, op, t0, t1 in self.spans],
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"aggregate": self.agg.as_dict(), **self.span_dump()}, fh)
