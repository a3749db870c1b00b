"""Span tracing of diarnn's layers from outside the package.

diarnn's modules import each other's functions by name
(``from .net import gaussian_log_pdf``), so wrapping a function means
rebinding every module-level name that refers to it.  ``install`` does
that for every public function of every layer module and ``uninstall``
puts the originals back.

Spans are kept in memory as four flat arrays (name, parent, start, end)
and summarised, or written out, when the run ends.  A span's self time is
its duration minus the durations of its direct children; calls in one
thread nest, so the children never overlap.
"""

import functools
import importlib
import inspect
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("sequences", "prior", "net", "model", "decoder", "trainer", "metrics", "io", "cli")


class Tracer:
    def __init__(self):
        self._package = importlib.import_module("diarnn")
        self._modules = [importlib.import_module(f"diarnn.{name}") for name in LAYERS]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.regions: dict[str, list[tuple[int, int]]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def _finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; its (first, past-the-last) span
        indices, which enclose every span opened inside it, are appended
        to ``regions[name]``."""
        index = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(index)
            self.regions.setdefault(name, []).append((index, len(self.start)))

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        return traced

    def install(self) -> None:
        """Rebind every public function of every layer, wherever it is
        imported by name inside the package, to a span-recording wrapper."""
        if self._patches:
            return
        holders = [self._package, *self._modules]
        for layer, module in zip(LAYERS, self._modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> "SpanSummary":
        return SpanSummary(self.names, **self.spans())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


class SpanSummary:
    """Per-call statistics of the spans recorded inside given regions, such
    as every instance of one benchmark stage."""

    def __init__(self, names, name_id, parent, start, end):
        self._ids = {name: i for i, name in enumerate(names)}
        self.name_id = name_id
        self.duration = end - start
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(end)
        )
        self.self_time = self.duration - children

    def _picked(self, name: str, region) -> np.ndarray:
        lo, hi = region
        return lo + np.flatnonzero(self.name_id[lo:hi] == self._ids.get(name, -1))

    def calls(self, name: str, region) -> int:
        return len(self._picked(name, region))

    def durations(self, name: str, regions) -> np.ndarray:
        return np.concatenate([self.duration[self._picked(name, r)] for r in regions])

    def self_times(self, name: str, regions) -> np.ndarray:
        return np.concatenate([self.self_time[self._picked(name, r)] for r in regions])
