"""Timing shims around the layers' public entry points, and span arithmetic.

The traced pass wraps a fixed table of public functions and methods (see
``bench/layers.py``) from *outside* the program: nothing under ``src/`` is
edited.  A shim records ``(name, start, end)`` into an in-memory
:class:`Recorder`; parents are derived afterwards from interval nesting, so
the spans that ``repro.obs.telemetry_session()`` already records can be
merged into the same tree.  Self time of a span is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

#: (name, start, end, tid) -- seconds on the ``time.perf_counter`` clock.
Span = Tuple[str, float, float, int]

NameRule = Union[str, Callable[..., str]]
CountRule = Callable[[Dict[str, float], Any], None]

_clock = time.perf_counter


class Recorder:
    """Spans and counters of one traced pass, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}

    def add(self, name: str, start: float, end: float, tid: int = 0) -> None:
        self.spans.append((name, start, end, tid))

    def add_telemetry_events(self, events: Iterable[Dict[str, Any]], origin: float,
                             *, worker_tid_base: int = 100) -> None:
        """Merge ``Tracer.events()`` ("X" spans, microseconds from ``origin``).

        ``shard.execute`` spans are reconstructed by the parent per worker;
        they overlap the main thread in time, so they move to their own tids.
        """
        for event in events:
            if event.get("ph") != "X":
                continue
            start = origin + event["ts"] / 1e6
            tid = event.get("tid", 0)
            if event["name"] == "shard.execute":
                tid += worker_tid_base
            self.spans.append((event["name"], start, start + event["dur"] / 1e6, tid))


def _make_shim(fn: Callable[..., Any], name: NameRule, recorder: Recorder,
               count: Optional[CountRule]) -> Callable[..., Any]:
    spans = recorder.spans
    counts = recorder.counts
    dynamic = callable(name)

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        label = name(*args, **kwargs) if dynamic else name
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.append((label, start, _clock(), 0))
        if count is not None:
            count(counts, result)
        return result

    return shim


def _make_generator_shim(fn: Callable[..., Any], name: str,
                         recorder: Recorder) -> Callable[..., Any]:
    """For generator functions: one span per resumption, so only the time
    spent *inside* the generator is attributed to it, not its consumer's."""
    spans = recorder.spans

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        generator = fn(*args, **kwargs)
        try:
            while True:
                start = _clock()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    spans.append((name, start, _clock(), 0))
                yield item
        finally:
            generator.close()

    return shim


@dataclass(frozen=True)
class Target:
    """One public entry point to time.

    ``path`` is ``"package.module:function"`` or ``"package.module:Class.method"``.
    ``subclasses`` also patches every loaded subclass that overrides the
    method (abstract interfaces such as ``SwitchAlgorithm.schedule``).
    """

    span: NameRule
    path: str
    subclasses: bool = False
    generator: bool = False
    count: Optional[CountRule] = None


class ShimSet:
    """Installs shims for a table of targets and restores the originals.

    A function is rebound in its defining module *and* in every loaded
    ``repro`` module that imported the name (``from x import f`` copies the
    binding); a method is rebound on its class.  :meth:`uninstall` puts the
    very same objects back, so a patched module ends up identical to how it
    started.
    """

    def __init__(self, targets: Sequence[Target], recorder: Recorder,
                 *, package: str = "repro") -> None:
        self.targets = tuple(targets)
        self.recorder = recorder
        self.package = package
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "ShimSet":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("shims already installed")
        try:
            for target in self.targets:
                self._install_one(target)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        if target.generator:
            if not isinstance(target.span, str):
                raise ValueError("generator shims take a fixed span name")
            return _make_generator_shim(fn, target.span, self.recorder)
        return _make_shim(fn, target.span, self.recorder, target.count)

    def _install_one(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attribute = qualname.rpartition(".")
        if not owner_name:
            self._patch_function(module, attribute, target)
            return
        cls = getattr(module, owner_name)
        classes = [cls]
        if target.subclasses:
            classes += _all_subclasses(cls)
        for klass in classes:
            if attribute in vars(klass):
                self._patch_method(klass, attribute, target)

    def _patch_function(self, module: Any, attribute: str, target: Target) -> None:
        original = getattr(module, attribute)
        shim = self._wrap(original, target)
        prefix = self.package + "."
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not (name == self.package or name.startswith(prefix)):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._undo.append((candidate, key, original))
                    setattr(candidate, key, shim)

    def _patch_method(self, klass: type, attribute: str, target: Target) -> None:
        raw = vars(klass)[attribute]
        if isinstance(raw, staticmethod):
            shim: Any = staticmethod(self._wrap(raw.__func__, target))
        elif isinstance(raw, classmethod):
            shim = classmethod(self._wrap(raw.__func__, target))
        else:
            shim = self._wrap(raw, target)
        self._undo.append((klass, attribute, raw))
        setattr(klass, attribute, shim)


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


# --------------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------------- #
def nest(spans: Sequence[Span]) -> List[int]:
    """Parent index of every span (-1 for roots), from interval nesting.

    A span's parent is the innermost span of the same ``tid`` that was open
    when it started.
    """
    parents = [-1] * len(spans)
    order = sorted(range(len(spans)), key=lambda i: (spans[i][3], spans[i][1], -spans[i][2]))
    stack: List[int] = []
    tid: Optional[int] = None
    for index in order:
        _, start, _, span_tid = spans[index]
        if span_tid != tid:
            stack, tid = [], span_tid
        while stack and spans[stack[-1]][2] <= start:
            stack.pop()
        if stack:
            parents[index] = stack[-1]
        stack.append(index)
    return parents


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span], parents: Optional[Sequence[int]] = None) -> List[float]:
    """Per span: duration minus the part of it its child spans cover."""
    if parents is None:
        parents = nest(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            _, start, end, _ = spans[index]
            children.setdefault(parent, []).append((max(start, p_start), min(end, p_end)))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = _covered(children[index]) if index in children else 0.0
        result.append(max(0.0, (end - start) - covered))
    return result


@dataclass
class SpanTotals:
    """Per span name: call count, inclusive seconds and self seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def totals_by_name(spans: Sequence[Span]) -> Dict[str, SpanTotals]:
    parents = nest(spans)
    selfs = self_times(spans, parents)
    table: Dict[str, SpanTotals] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        row = table.get(name)
        if row is None:
            row = table[name] = SpanTotals()
        row.calls += 1
        row.total_s += end - start
        row.self_s += own
    return table


def covered_seconds(spans: Sequence[Span], start: float, end: float, *, tid: int = 0) -> float:
    """How much of ``[start, end]`` any span of ``tid`` covers."""
    return _covered([
        (max(s, start), min(e, end))
        for _, s, e, t in spans
        if t == tid and e > start and s < end
    ])


def write_chrome_trace(spans: Sequence[Span], path: Path, *, per_name_cap: int = 2000,
                       metadata: Optional[Dict[str, Any]] = None) -> None:
    """Write spans as Chrome trace events (open at ui.perfetto.dev).

    Hot leaf shims fire hundreds of thousands of times; the file keeps the
    first ``per_name_cap`` events of each name and records how many it left
    out (the layer table is computed from the full in-memory set).
    """
    parents = nest(spans)
    origin = min((s for _, s, _, _ in spans), default=0.0)
    written: Dict[str, int] = {}
    dropped: Dict[str, int] = {}
    events = []
    for index, (name, start, end, tid) in enumerate(spans):
        if written.get(name, 0) >= per_name_cap:
            dropped[name] = dropped.get(name, 0) + 1
            continue
        written[name] = written.get(name, 0) + 1
        parent = parents[index]
        events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 0,
            "tid": tid,
            "args": {"id": index, "parent": parent,
                     "parent_name": spans[parent][0] if parent >= 0 else None},
        })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_per_name": dropped, **(metadata or {})},
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle)
