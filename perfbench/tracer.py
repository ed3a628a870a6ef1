"""Outside-in tracer for the slackkit layers.

The tracer rebinds every public function of the layer modules, in every
``slackkit.*`` namespace that holds a reference to it, to a wrapper that
records a span (name, start, end, parent, output size).  A few methods are
wrapped on their class.  The monomial helpers ``poly.mono_*`` run millions of
times, so four of them get a call counter and none gets a span.  Nothing
inside ``src/`` is changed: the wrappers exist only in the process that
installs them.
"""

import importlib
import json
import sys
import time

# The package modules; a layer's metrics are named after its module.
LAYERS = ("cli", "rationals", "geometry", "slack", "scaling", "groebner", "poly")

# Methods timed on their class: (module, class) -> method names.
METHODS = {
    ("rationals", "RationalMatrix"): ("kernel_basis", "rank", "det"),
    ("poly", "Polynomial"): ("substitute_ones",),
}

# Monomial helpers that are counted and not timed; the other ``mono_*``
# helpers are left alone (mono_deg is called once per mono_lcm call in pair
# selection, and wrapping it too would double the tracing cost).
COUNTED = ("poly.mono_lcm", "poly.mono_divides", "poly.mono_mul", "poly.mono_div")


class Tracer:
    """Spans and call counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, output size, request]
        self.counts = {}  # name -> one-element list holding the call count
        self.request = None  # the task that the next spans belong to
        self._stack = []
        self._undo = []  # (owner, attribute, original value)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if isinstance(out, (list, tuple)):
                rec[4] = len(out)
            return out

        return wrapper

    def _counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap the layer functions; every namespace that refers to an
        original by identity is rebound to its wrapper."""
        modules = {name: importlib.import_module(f"slackkit.{name}")
                   for name in LAYERS}
        replace = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(value)
                        or isinstance(value, type)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in COUNTED:
                    replace[id(value)] = (value, self._counted(name, value))
                elif not attr.startswith("mono_"):
                    replace[id(value)] = (value, self._spanned(name, value))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slackkit"
                                   or mod_name.startswith("slackkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth,
                        self._spanned(f"{layer}.{cls_name}.{meth}", original))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-function and per-layer statistics of the recorded spans.

        ``<fn>.calls`` counts calls, ``<fn>.s`` sums the durations of calls
        not nested in another call of the same function, ``<fn>.self_s``
        subtracts the time covered by traced callees, ``<fn>.out`` and
        ``<fn>.out_max`` sum and bound the lengths of list results.
        ``groebner.saturate_by_variables.steps`` counts the Buchberger runs
        made inside saturations, and ``layer.<module>.self_s`` sums self
        time over a module's traced functions.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, size, _) in enumerate(spans):
            dur = end - start
            self_s = dur - child_time[i]
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", self_s)
            add(f"layer.{name.split('.', 1)[0]}.self_s", self_s)
            outermost, in_saturation = True, False
            p = parent
            while p >= 0:
                outer = spans[p][0]
                outermost = outermost and outer != name
                in_saturation = (in_saturation
                                 or outer == "groebner.saturate_by_variables")
                p = spans[p][3]
            if outermost:
                add(f"{name}.s", dur)
            if in_saturation and name == "groebner.buchberger":
                add("groebner.saturate_by_variables.steps", 1)
            if size is not None:
                add(f"{name}.out", size)
                out[f"{name}.out_max"] = max(out.get(f"{name}.out_max", 0), size)
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = cell[0]
        return out

    def write_spans(self, path):
        """One JSON line per span: name, start, end, parent, output size,
        request."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
