"""Call tracing installed from outside the library.

Two kinds of wrapper replace library callables in every ``reinsgame`` module
that refers to them (and on classes for methods):

* a *span* records one interval per call (name, start, end, parent span and
  the time of kernel calls made directly inside it); used at module
  boundaries, where calls are few;
* a *kernel* only adds to per-name counters (calls, summed time, self time,
  failures); used for hot functions called millions of times per operation,
  so memory stays bounded.

A span's self time is its duration minus the part of it that child spans
cover and minus its direct kernel time (``self_times``).  A kernel's self
time is its duration minus the time of every wrapped call made inside it.
A span opened inside a kernel has no parent span: its time is already part
of that kernel's duration.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    kernel_s: float = 0.0


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    fails: int = 0


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: duration minus child-span cover and kernel time."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.end - span.start - covered - span.kernel_s
    return result


@dataclass
class _Frame:
    span_id: int | None  # None for a kernel frame
    is_span: bool
    inner_s: float = 0.0  # kernel frame: all wrapped children; span frame: kernels only


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[Span] = []
        self._frames = [_Frame(None, True)]
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Zero every counter in place (installed kernels keep their Stat)."""
        for stat in self.stats.values():
            stat.calls, stat.total_s, stat.self_s, stat.fails = 0, 0.0, 0.0, 0
        self.spans.clear()

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    # -- wrappers -------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        frames, clock, spans = self._frames, self.clock, self.spans

        def traced(*args, **kwargs):
            parent = frames[-1]
            frame = _Frame(len(spans), True)
            spans.append(None)  # reserve the id; filled on exit
            frames.append(frame)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed = True
                raise
            finally:
                end = clock()
                frames.pop()
                spans[frame.span_id] = Span(frame.span_id,
                                            parent.span_id if parent.is_span else None,
                                            name, start, end, frame.inner_s)
                if not parent.is_span:
                    parent.inner_s += end - start
                stat = self.stat(name)
                stat.calls += 1
                stat.total_s += end - start
                stat.fails += failed

        traced.__wrapped__ = fn
        return traced

    def kernel(self, name: str, fn: Callable) -> Callable:
        frames, clock = self._frames, self.clock
        stat = self.stat(name)

        def counted(*args, **kwargs):
            frame = _Frame(None, False)
            frames.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.fails += 1
                raise
            finally:
                elapsed = clock() - start
                frames.pop()
                frames[-1].inner_s += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame.inner_s

        counted.__wrapped__ = fn
        return counted

    def root_finder(self, name: str, fn: Callable) -> Callable:
        """Kernel whose first argument, the residual, is counted as an evaluation.

        Evaluations are kept per defining module of the residual
        (``<name>.eval@<module>``): time spent in the residual's own code
        belongs to the layer that wrote it, not to the root finder.
        """
        kernel = self.kernel

        def finder(f, *args, **kwargs):
            inner = f
            while hasattr(inner, "__wrapped__"):
                inner = inner.__wrapped__
            module = (getattr(inner, "__module__", None) or "unknown").rsplit(".", 1)[-1]
            return fn(kernel(f"{name}.eval@{module}", f), *args, **kwargs)

        return self.kernel(name, finder)

    # -- installation ---------------------------------------------------
    def install(self, owner: object, attr: str, name: str, kind: str) -> None:
        """Wrap ``owner.attr`` wherever a ``reinsgame`` module refers to it.

        ``owner`` is a module (functions) or a class (methods).  Nothing is
        installed when the attribute does not exist, so the benchmark keeps
        running against versions of the library that have removed it.
        """
        original = vars(owner).get(attr)
        if original is None:
            return
        wrapper = {"span": self.span, "kernel": self.kernel,
                   "root": self.root_finder}[kind](name, original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "reinsgame"
                                      or mod_name.startswith("reinsgame.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def _patch(self, owner: object, key: str, wrapper: Callable) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)


@dataclass
class Report:
    """Per-name totals of spans and kernels, with layer self times."""

    stats: dict[str, Stat] = field(default_factory=dict)
    layer_self_s: dict[str, float] = field(default_factory=dict)


def summarize(tracer: Tracer) -> Report:
    """Fold span self times into the per-name stats and sum self time per module."""
    stats = {name: Stat(s.calls, s.total_s, s.self_s, s.fails)
             for name, s in tracer.stats.items()}
    selfs = self_times(tracer.spans)
    for span in tracer.spans:
        stats[span.name].self_s += selfs[span.id]
    layers: dict[str, float] = {}
    for name, stat in stats.items():
        module = name.split("@")[1] if "@" in name else name.split(".", 1)[0]
        layers[module] = layers.get(module, 0.0) + stat.self_s
    return Report(stats, layers)
