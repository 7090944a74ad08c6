"""In-memory span recorder that wraps a package's public functions from outside.

Each wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent). Spans live in flat arrays
until the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import inspect
import time
from array import array
from pathlib import Path

_NO_PARENT = -1


class Tracer:
    """Records nested spans for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [_NO_PARENT]
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def wrap(self, fn, name: str, on_return=None):
        """A stand-in for fn that records a span named name around each call.

        on_return(args, kwargs, result) runs after the span has closed, so
        whatever it costs lands in the parent's self time, never in fn's.
        """
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules, on_return=None) -> list[str]:
        """Wrap every public function defined in modules, in every module that binds it.

        A function imported by value (``from .solver import zeros``) is bound
        under another module's namespace, and sometimes under another name
        (``solve_zeros``); each binding is replaced, so no call path escapes.
        The span name is ``<defining module>.<function name>``. on_return maps
        a span name to a callback for wrap(). Returns the span names.
        """
        on_return = on_return or {}
        by_name = {m.__name__: m for m in modules}
        targets = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in by_name:
                    continue
                short = obj.__module__.rsplit(".", 1)[-1]
                targets.setdefault(id(obj), (obj, f"{short}.{obj.__name__}"))
        for fn, span_name in targets.values():
            wrapped = self.wrap(fn, span_name, on_return.get(span_name))
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapped)
        return sorted(name for _, name in targets.values())

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        """Duration minus the summed duration of direct children, per span.

        Calls are synchronous on one thread, so children never overlap and
        their sum is the part of the parent's interval they cover.
        """
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        out = array("d", own)
        for i, p in enumerate(self.parent):
            if p != _NO_PARENT:
                out[p] -= own[i]
        return out

    def check_nesting(self) -> None:
        """Every span is closed and lies inside its parent's interval."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        for i, p in enumerate(self.parent):
            if self.end[i] < self.start[i]:
                raise RuntimeError(f"span {i} ({self.span_name(i)}) ends before it starts")
            if p != _NO_PARENT and not (
                self.start[p] <= self.start[i] and self.end[i] <= self.end[p]
            ):
                raise RuntimeError(f"span {i} ({self.span_name(i)}) escapes its parent {p}")

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write(self, path: Path) -> None:
        """Write every span as gzip'd TSV: index, name, start, end, parent."""
        with gzip.open(path, "wt") as handle:
            handle.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.span_name(i)}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n"
                )
