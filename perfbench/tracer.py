"""Span tracer that wraps the public functions of every graphstates module.

Layers are found at run time: every module of the package is a layer, so a
module added later shows up without a change here.  Each public function
(module-level, defined in that module, name not starting with ``_``) is
wrapped everywhere it is bound, including names imported into other
modules (``from .stab import stabilizer_parity``).  Private helpers are not
wrapped, so their time counts toward the public function that called them.

A timed wrapper records a span (function, start, end, parent span, op id)
and the function's self time (span minus child spans).  Hot leaves, called
around 10^5 to 10^6 times per pass, get a counting wrapper only: timing
them would cost more than the work they do.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import pkgutil
from collections import Counter
from time import perf_counter

# Called over 10^5 times per pass somewhere in the benchmark; counted, not timed.
HOT_LEAVES = frozenset({
    "stab.stabilizer_parity",
    "stab.induced_edge_count",
    "stab.correlation_index",
    "gf2.dot",
    "gf2.scatter",
    "gf2.restrict",
    "gf2.mask_to_string",
    "gf2.vertices_of",
})


def discover(package) -> list:
    """Import and return every submodule of the package (its layers)."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("_")
    ]


class Tracer:
    def __init__(self, package):
        self.modules = discover(package)
        self.layers = sorted(m.__name__.rpartition(".")[2] for m in self.modules)
        self.names: list[str] = []  # "layer.function", indexed by function id
        originals = {}  # id(function) -> function id
        for mod in self.modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in sorted(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    originals[id(obj)] = len(self.names)
                    self.names.append(f"{layer}.{name}")
        self.layer_of = [name.partition(".")[0] for name in self.names]
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.layer_errors: Counter = Counter()
        self.calls_by_n: list[Counter] = [Counter() for _ in self.names]
        self.spans: list = []
        self.op = -1
        self._open: list = []  # [span index, fid, child seconds] per open span
        # every place a public function is bound, the package itself included
        self._bindings = []
        for mod in [package, *self.modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in originals:
                    self._bindings.append((mod, name, obj, originals[id(obj)]))
        self._wrappers = {}
        for _, _, fn, fid in self._bindings:
            if fid not in self._wrappers:
                hot = self.names[fid] in HOT_LEAVES
                self._wrappers[fid] = (self._counted if hot else self._timed)(fid, fn)

    def fid(self, name: str):
        """Function id of "layer.function", or None when it does not exist."""
        try:
            return self.names.index(name)
        except ValueError:
            return None

    def install(self) -> None:
        for mod, name, _, fid in self._bindings:
            setattr(mod, name, self._wrappers[fid])

    def uninstall(self) -> None:
        for mod, name, fn, _ in self._bindings:
            setattr(mod, name, fn)

    def _counted(self, fid, fn):
        calls, errors = self.calls, self.errors

        def counted(*args, **kwargs):
            calls[fid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise

        return counted

    def _timed(self, fid, fn):
        calls, self_s, errors, spans = self.calls, self.self_s, self.errors, self.spans
        by_n = self.calls_by_n[fid]
        layer_of = self.layer_of
        layer = layer_of[fid]
        open_spans = self._open

        def timed(*args, **kwargs):
            parent = open_spans[-1] if open_spans else None
            frame = [len(spans), fid, 0.0]
            spans.append(None)
            open_spans.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                if parent is None or layer_of[parent[1]] != layer:
                    self.layer_errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                open_spans.pop()
                elapsed = end - start
                self_s[fid] += elapsed - frame[2]
                calls[fid] += 1
                by_n[getattr(args[0], "n", 0) if args else 0] += 1
                if parent is not None:
                    parent[2] += elapsed
                spans[frame[0]] = (fid, start, end, parent[0] if parent else -1, self.op)

        return timed

    def layer_totals(self) -> dict:
        out = {layer: {"calls": 0, "self_s": 0.0, "errors": self.layer_errors[layer]}
               for layer in self.layers}
        for fid, layer in enumerate(self.layer_of):
            out[layer]["calls"] += self.calls[fid]
            out[layer]["self_s"] += self.self_s[fid]
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for fid, start, end, parent, op in self.spans:
                fh.write(json.dumps([self.names[fid], start, end, parent, op]) + "\n")
