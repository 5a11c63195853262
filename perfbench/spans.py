"""Spans around the public entry points of every chromalg layer.

`Tracer.install()` replaces each public function and method of the layer
modules with a wrapper that counts calls and accumulates total and self time
("self" is a span's duration minus the time covered by its child spans).  A
function is replaced where it is defined and under every name another
chromalg module binds it to, so `bp.smith_normal_form` and
`linalg.smith_normal_form` are one span.  Methods are replaced on the class
that defines them, so inherited methods are traced once under that class.

Spans are kept in memory; `Tracer.report()` returns them after the pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# the modules under chromalg that are layers
LAYERS = ("rings", "series", "poly", "linalg", "convert", "elliptic", "fgl",
          "bp", "steenrod", "moduli", "kforms")

# dunder methods that are arithmetic or comparison entry points
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
           "__rmul__", "__neg__", "__pow__", "__eq__", "__getitem__"}

# constructors of the value types built in the innermost loops; they only
# store fields, and a span around each would mostly measure the tracer
UNTRACED = {("series", "Series.__init__"), ("series", "SeriesCtx.__init__"),
            ("poly", "Poly.__init__")}


class Tracer:
    def __init__(self):
        # span name -> [calls, total_s, self_s, depth]
        self.stats: dict[str, list] = {}
        # child time accumulated by each open span
        self._open: list[float] = [0.0]
        # extra per-span figures: name -> {"pairs": n, "max_prec": n, ...}
        self.sizes: dict[str, dict] = {}

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, size=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        opened = self._open
        sizes = self.sizes.setdefault(name, {}) if size else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if size is not None:
                size(sizes, args)
            opened.append(0.0)
            st[3] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                st[3] -= 1
                st[0] += 1
                st[2] += dt - opened.pop()
                if not st[3]:
                    st[1] += dt          # recursion counts once in total_s
                opened[-1] += dt

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def install(self, sizes=None):
        """Wrap every layer module that is imported; `sizes` maps a span name
        to a function (accumulator dict, call args) recording operand sizes."""
        sizes = sizes or {}
        modules = {name: sys.modules[f"chromalg.{name}"] for name in LAYERS
                   if f"chromalg.{name}" in sys.modules}
        replaced = {}                     # id(original) -> wrapper; the wrapper keeps
                                          # the original alive, so ids stay unique
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, sizes)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, sizes.get(name))
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("chromalg"):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        return self

    def _wrap_class(self, layer, cls, sizes):
        done = {}
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            kind = None
            if isinstance(obj, (staticmethod, classmethod)):
                kind, obj = type(obj), obj.__func__
            if not inspect.isfunction(obj):
                continue
            qual = f"{cls.__name__}.{obj.__name__}"
            if (layer, qual) in UNTRACED:
                continue
            name = f"{layer}.{qual}"
            if id(obj) not in done:           # __radd__ = __add__ shares a span
                done[id(obj)] = self.wrap(name, obj, sizes.get(name))
            wrapped = done[id(obj)]
            setattr(cls, attr, kind(wrapped) if kind else wrapped)

    # -- results -------------------------------------------------------------

    def report(self) -> dict:
        return {name: {"calls": c, "total_s": t, "self_s": s, **self.sizes.get(name, {})}
                for name, (c, t, s, _) in self.stats.items() if c}
