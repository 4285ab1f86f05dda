"""Outside-in layer tracing for the lemnis benchmark.

`Tracer.install` wraps every public function of the seven lemnis modules
at every binding site in `lemnis.*` (so `curves` -> `theta.theta` calls are
caught through the name `curves` imported), and `Tracer.restore` puts every
original binding back.  A span is opened when a call enters a layer from a
different layer (or from outside the package); same-layer nesting counts
once.  Each span is kept in memory as [layer, start, end, parent] and is
summarised after the traced pass.

The public methods, properties and dunders (constructors, operators such
as `@` and `==`) of the classes each layer module defines are wrapped the
same way, in the class `__dict__`, so `cli` calling `CircuitMatrix @` or
`.order()` is charged to `monodromy`.  Methods inherited from outside
lemnis (Enum, tuple, object) stay unwrapped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("numerics", "theta", "hypergeometric", "curves", "monodromy", "meaniter", "cli")

# Public work counts read from return values, keyed by (layer, function).
_WORK = {
    ("meaniter", "iterate_until_converged"): ("steps", "iterations"),
    ("monodromy", "group_closure"): ("closure_elements", "elements_explored"),
}

_MARK = "_perfbench_layer"


def lemnis_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "lemnis" or n.startswith("lemnis.")}


def layer_module(layer: str):
    # `lemnis.theta` as an attribute is the function that __init__ re-exports,
    # so every module is reached through sys.modules.
    return sys.modules["lemnis." + layer]


def lemnis_namespaces() -> dict:
    """Every loaded lemnis module, and every class one of them defines, by name."""
    spaces = {}
    for n, m in lemnis_modules().items():
        spaces[n] = m
        for k, v in vars(m).items():
            if inspect.isclass(v) and v.__module__ == n:
                spaces[f"{n}.{k}"] = v
    return spaces


def bindings() -> dict:
    """Identity snapshot of every attribute of every lemnis module and class."""
    return {(n, k): id(v) for n, ns in lemnis_namespaces().items() for k, v in vars(ns).items()}


def _traced_callable(member):
    """The function a class member runs: a method, its descriptor's function, a getter."""
    if isinstance(member, (classmethod, staticmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    return member if inspect.isfunction(member) else None


def find_wrappers() -> list[str]:
    """Names of lemnis attributes and class members that are still trace wrappers."""
    return [
        f"{n}.{k}"
        for n, ns in lemnis_namespaces().items()
        for k, v in vars(ns).items()
        if hasattr(v, _MARK) or hasattr(_traced_callable(v), _MARK)
    ]


def _is_traced_name(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work = {"steps": 0, "closure_elements": 0}
        self._open: list[list] = []
        self._patched: list[tuple] = []

    def install(self) -> int:
        """Wrap every public function at every binding, and the layer classes'
        methods; returns the number of bindings replaced."""
        import lemnis.cli  # noqa: F401  every layer is traced, loaded or not

        originals = {}
        for layer in LAYERS:
            mod = layer_module(layer)
            for name, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self._wrap_class(layer, obj)
                elif not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(layer, obj, _WORK.get((layer, name))))
        for mod in lemnis_modules().values():
            for name, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        return len(self._patched)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, member in list(vars(cls).items()):
            fn = _traced_callable(member)
            # Enum copies its own __new__ into each subclass; that is not lemnis code
            if fn is None or not _is_traced_name(name) or fn.__module__ != cls.__module__:
                continue
            wrapped = self._wrap(layer, fn, None)
            if isinstance(member, property):
                wrapped = property(wrapped, member.fset, member.fdel, member.__doc__)
            elif not inspect.isfunction(member):
                wrapped = type(member)(wrapped)
            self._patched.append((cls, name, member))
            setattr(cls, name, wrapped)

    def restore(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, layer: str, fn, work):
        spans, open_, clock, counts = self.spans, self._open, time.perf_counter, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and open_[-1][0] is layer:
                result = fn(*args, **kwargs)
            else:
                span = [layer, clock(), 0.0, open_[-1] if open_ else None]
                open_.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    open_.pop()
                    spans.append(span)
            if work is not None:
                counts[work[0]] += getattr(result, work[1])
            return result

        setattr(wrapper, _MARK, layer)
        return wrapper

    def summary(self) -> dict:
        """Per-layer entries and self time, plus the time of top-level spans.

        Self time is a span's duration minus its child spans, which always
        belong to another layer.  `nested_ok` checks that every child lies
        inside its parent and that top-level spans do not overlap, which is
        what makes self times plus the time outside lemnis add up to the
        traced wall time.
        """
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        top_s = 0.0
        nested_ok = True
        last_top_end = -1.0
        # spans are appended as they close, so top-level spans come in time order
        for layer, start, end, parent in self.spans:
            d = end - start
            calls[layer] += 1
            self_s[layer] += d
            if parent is None:
                top_s += d
                nested_ok &= start >= last_top_end
                last_top_end = end
            else:
                self_s[parent[0]] -= d
                nested_ok &= parent[0] is not layer and parent[1] <= start and end <= parent[2]
        nested_ok &= all(v >= -1e-9 for v in self_s.values())
        return {"calls": calls, "self_s": self_s, "top_s": top_s, "nested_ok": nested_ok, **self.work}
