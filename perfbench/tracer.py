"""In-memory span tracer that wraps cayleykit's functions from outside.

Modules import functions by name (``montecarlo.explore``,
``heights.unique_cyclic_vertex``), so each function is replaced at every
module attribute that holds it, and dataclass methods are replaced on
their class.  Nothing under ``src/`` changes.  A span records its layer
(the defining module), name, start, end, its parent span and the trace
id of the command it belongs to.
"""

from __future__ import annotations

import enum
import functools
import gzip
import importlib
import inspect
import json
import time

LAYERS = ("core", "exploration", "bijection", "enumeration", "montecarlo", "heights", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_span = 0
        self._undo: list[tuple[object, str, object]] = []

    def new_trace(self) -> None:
        """Start a new trace id; spans recorded from now on share it."""
        self.trace_id += 1

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_span += 1
            span = self._next_span
            parent = stack[-1] if stack else 0
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.trace_id, span, parent, name, start, end))

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap the public functions and methods of every layer module."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, enum.Enum):
                        self._install_class(obj)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                # unwrap to see through decorators such as lru_cache
                fn = inspect.unwrap(obj) if callable(obj) and not inspect.isclass(obj) else None
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith(package.__name__ + "."):
                    continue
                if id(obj) not in wrapped:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    wrapped[id(obj)] = self._wrap(f"{layer}.{fn.__qualname__}", obj)
                self._replace(mod, attr, wrapped[id(obj)])

    def _install_class(self, cls) -> None:
        layer = cls.__module__.rsplit(".", 1)[1]
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._replace(cls, attr, type(obj)(self._wrap(name, obj.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Self time in seconds and span count per layer.

        A span's self time is its duration minus the durations of its
        direct children; a layer's self time sums its spans' self time.
        """
        child_ns: dict[int, int] = {}
        for _trace, _span, parent, _name, start, end in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        totals = {layer: [0, 0] for layer in LAYERS}
        for _trace, span, _parent, name, start, end in self.spans:
            entry = totals[name.split(".", 1)[0]]
            entry[0] += end - start - child_ns.get(span, 0)
            entry[1] += 1
        return {layer: (ns / 1e9, count) for layer, (ns, count) in totals.items()}

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for trace, span, parent, name, start, end in self.spans:
                fh.write(json.dumps({"trace": trace, "span": span, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
