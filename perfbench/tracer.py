"""Per-layer tracing of sl2bar from outside the package.

``Tracer.install()`` replaces every public function of each layer module,
and every public method of the classes those modules define, with a
counting wrapper.  Names other modules bound with ``from .x import y`` are
re-pointed at the same wrappers.  A wrapper always counts the call; it
opens a span only when the call crosses from one layer into another, so
a layer's self time is its span time minus the spans it opened in other
layers.  Spans are aggregated in memory per (caller layer, callee layer)
edge and handed back by ``summary()`` when the run ends.

``FieldElt`` constructions are counted by wrapping ``__post_init__``; the
first call of ``ensure_log_table`` for a level is the call that builds
that level's tables, so those calls are counted and timed as builds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("gf2poly", "conway", "gf2_field", "closure", "sl2_core", "finite_engine", "endo", "verify", "cli")
OUTSIDE = len(LAYERS)  # the caller that is not part of the package
_WRAPPABLE = (type(lambda: 0), type(functools.lru_cache()(lambda: 0)))


class Tracer:
    def __init__(self):
        size = OUTSIDE + 1
        self.stack = [OUTSIDE]
        self.span_ns = [0] * size  # wall time of spans opened in each layer
        self.child_ns = [0] * size  # span time opened by each layer in other layers
        self.edges: dict[tuple[int, int], list[int]] = {}  # (caller, callee) -> [spans, ns]
        self.fn_calls: dict[str, list[int]] = {}  # "layer.qualname" -> [calls]
        self.elt_new = [0]
        self.log_builds: dict[int, int] = {}  # level -> ns of the building call
        self._caches: dict[str, object] = {}

    def _wrap(self, fn, layer: int, key: str):
        cell = self.fn_calls.setdefault(key, [0])
        stack, span_ns, child_ns, edges = self.stack, self.span_ns, self.child_ns, self.edges
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            cell[0] += 1
            parent = stack[-1]
            if parent == layer:
                return fn(*args, **kwargs)
            stack.append(layer)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span_ns[layer] += dt
                child_ns[parent] += dt
                edge = edges.get((parent, layer))
                if edge is None:
                    edges[(parent, layer)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt

        functools.update_wrapper(traced, fn)
        if hasattr(fn, "cache_info"):  # keep the cache controls the package calls
            traced.cache_info, traced.cache_clear = fn.cache_info, fn.cache_clear
        return traced

    def install(self) -> None:
        mods = {name: importlib.import_module(f"sl2bar.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for li, name in enumerate(LAYERS):
            mod = mods[name]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, _WRAPPABLE):
                    if hasattr(val, "cache_info"):
                        self._caches[f"{name}.{attr}"] = val
                    wrapped[id(val)] = w = self._wrap(val, li, f"{name}.{attr}")
                    setattr(mod, attr, w)
                elif inspect.isclass(val):
                    for m_name, m_val in list(vars(val).items()):
                        if not m_name.startswith("_") and isinstance(m_val, type(lambda: 0)):
                            setattr(val, m_name, self._wrap(m_val, li, f"{name}.{attr}.{m_name}"))
        for mod in mods.values():  # names re-bound by `from .x import y`
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    setattr(mod, attr, wrapped[id(val)])

        gf = mods["gf2_field"]
        post_init, count = gf.FieldElt.__post_init__, self.elt_new

        def counted_post_init(elt):
            count[0] += 1
            post_init(elt)

        gf.FieldElt.__post_init__ = counted_post_init

        ensure, builds = gf.ensure_log_table, self.log_builds

        def timed_first_build(n):
            if n in builds:
                return ensure(n)
            t0 = time.perf_counter_ns()
            try:
                return ensure(n)
            finally:
                builds[n] = time.perf_counter_ns() - t0

        for mod in mods.values():
            if getattr(mod, "ensure_log_table", None) is ensure:
                mod.ensure_log_table = timed_first_build

    def summary(self) -> dict:
        layers = {}
        for li, name in enumerate(LAYERS):
            calls = sum(c[0] for k, c in self.fn_calls.items() if k.split(".", 1)[0] == name)
            layers[name] = {"calls": calls, "self_ns": self.span_ns[li] - self.child_ns[li]}
        names = LAYERS + ("outside",)
        return {
            "layers": layers,
            "fn_calls": {k: c[0] for k, c in sorted(self.fn_calls.items()) if c[0]},
            "edges": [[names[a], names[b], n, ns] for (a, b), (n, ns) in sorted(self.edges.items())],
            "elt_new": self.elt_new[0],
            "log_table_builds": len(self.log_builds),
            "log_table_build_ns": sum(self.log_builds.values()),
            "cache_misses": {k: f.cache_info().misses for k, f in sorted(self._caches.items())},
        }
