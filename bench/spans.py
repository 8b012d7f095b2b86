"""In-memory span tracer that wraps the package's public functions.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces each target function in every ``molscreen`` module namespace that
holds it (so calls made through ``from x import f`` bindings are seen too)
and ``uninstall`` puts the originals back. A target missing from the
package is skipped, so the tracer keeps working when a later commit renames
or deletes a function; its metrics then read zero.

A span is ``(name, start, end, parent, run, failed)``: ``parent`` is the
index of the enclosing span or -1, ``run`` the identifier shared by all
spans of one benchmark operation.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, RUN, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.run, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield record
        except BaseException:
            record[FAILED] = True
            raise
        finally:
            self._close(record)

    def wrap(self, func, name, hook=None):
        """``func`` recorded as a span. ``name`` is a string or a callable
        of the call's arguments; ``hook(tracer, args, kwargs, result)`` runs
        after a successful call, outside the span."""

        def wrapper(*args, **kwargs):
            record = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record[FAILED] = True
                raise
            finally:
                self._close(record)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``(module, attribute, name, hook)`` target found.

        ``attribute`` may be ``Class.method``. Module functions are replaced
        wherever a loaded ``molscreen`` module binds them."""
        for module_name, attribute, name, hook in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, "__dict__", {}).get(method)
                if original is None:
                    continue
                self._replace(cls, method, self.wrap(original, name, hook))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, hook)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("molscreen"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, wrapper)

    def _replace(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for index, (name, start, end, parent, run, failed) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "run": run, "failed": failed,
                }) + "\n")


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and children
    nest inside their parent; the covered time is the children's sum.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def busy(spans, name: str) -> float:
    """Total time inside spans called ``name``, counting a span nested in
    another of the same name once."""
    total = 0.0
    for s in spans:
        if s[NAME] != name:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += s[END] - s[START]
    return total


def durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float | None]:
    """(value, percentile) for the highest percentile of ``TAIL_LADDER``
    with at least ten samples beyond it (nearest-rank); with fewer than
    twenty samples there is none and the maximum is returned with ``None``."""
    n = len(values)
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return ordered[rank - 1], pct
    return (ordered[-1] if ordered else 0.0), None


def latency(values: list[float]) -> dict:
    """Median, tail and maximum in milliseconds, with the sample count."""
    if not values:
        return {"p50_ms": 0.0, "tail_ms": 0.0, "tail_pct": None, "max_ms": 0.0, "samples": 0}
    value, pct = tail(values)
    return {
        "p50_ms": 1e3 * statistics.median(values),
        "tail_ms": 1e3 * value,
        "tail_pct": pct,
        "max_ms": 1e3 * max(values),
        "samples": len(values),
    }


def top_level_time(spans) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
