"""Spans around the public functions of each dpogl module, from outside.

``instrument`` replaces every public function defined in a layer module, and
every other dpogl module attribute bound to it by ``from ... import``, with a
wrapper that records one span per call.  No file of the program changes, and
``restore`` puts the original functions back.

A span is (execution id, parent span id, name, start ns, end ns); its id is
its index in ``Tracer.spans``.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

import numpy as np

# The dpogl modules that count as layers; ``cli`` is a thin shell over harness.
LAYERS = ("data", "topology", "rng", "models", "trainer", "accountant",
          "harness")

# Calls whose distinct argument tuples are counted, to measure repeated work.
KEYED = frozenset({"accountant.degradation_mu"})


def _freeze(value):
    """A hashable stand-in for an argument, equal for equal arguments."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted(_freeze(v) for v in value)))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_freeze(v) for v in value))
    if isinstance(value, (int, float, str, bool, type(None), np.generic)):
        return value
    return ("object", id(value))  # per-run objects such as the LSI state


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.execution = 0
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keys = self.keys.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add((self.execution, _freeze(args),
                          _freeze(sorted(kwargs.items()))))
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.execution, parent, name, start, end)

        return traced


def instrument(tracer: Tracer):
    """Wrap every layer's public functions; returns a function that undoes it."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"dpogl.{layer}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    replaced = []
    for name, module in list(sys.modules.items()):
        if name != "dpogl" and not name.startswith("dpogl."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                replaced.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def restore() -> None:
        for module, attr, obj in replaced:
            setattr(module, attr, obj)

    return restore


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list, execution: int) -> dict:
    """Per-name call counts and times for one execution's spans.

    ``self_s``: span time minus all child spans.  ``layer_s``: span time
    minus the child spans of other layers, so the layer's own work under a
    call, nested calls within the layer included.  ``total_s``: span time.
    """
    ids = [k for k, s in enumerate(spans) if s is not None and s[0] == execution]
    child_ns = {k: 0 for k in ids}
    nested_ns = {k: 0 for k in ids}  # own-layer time of same-layer children
    layer_ns = {}
    for k in ids:
        _, parent, name, start, end = spans[k]
        if parent in child_ns:
            child_ns[parent] += end - start
    # Children are recorded after their parents, so a reverse sweep sees every
    # child's own-layer time before its parent needs it.
    for k in reversed(ids):
        _, parent, name, start, end = spans[k]
        layer_ns[k] = end - start - child_ns[k] + nested_ns[k]
        if parent in child_ns and layer_of(spans[parent][2]) == layer_of(name):
            nested_ns[parent] += layer_ns[k]
    stats: dict[str, dict] = {}
    for k in ids:
        _, _, name, start, end = spans[k]
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "layer_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - child_ns[k]) / 1e9
        entry["layer_s"] += layer_ns[k] / 1e9
    return stats


def write_spans(spans: list, path) -> None:
    """Write the spans as gzipped JSON lines, one object per span."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
        for sid, (execution, parent, name, start, end) in enumerate(spans):
            out.write(json.dumps({"id": sid, "execution": execution,
                                  "parent": parent, "name": name,
                                  "start_ns": start, "end_ns": end},
                                 separators=(",", ":")) + "\n")
