"""Timing wrappers around qfibounds' public functions, installed from outside.

``Tracer.install`` replaces every public function defined in a qfibounds
module, in every qfibounds module namespace where it is bound, by a wrapper
that records a span (name, start, end, parent).  It does the same for the
methods of ``ParametricChannel`` and ``ChannelSpec``, and for the
``kraus_fn`` / ``kraus_grad_fn`` / ``spectral_fn`` fields of every channel
a wrapped call returns.  ``uninstall`` puts every original back.

Self time is a span's duration minus the durations of its direct children;
spans nest on one thread, so that is the part no child covers.  Counts and
self times are kept per span name for the whole run, so the span list
itself can be capped; the first ``SPAN_CAP`` spans are written out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import time

# Helpers so small that a span would cost more than the work it times.
UNTRACED = {
    "linalg.max_abs",
    "linalg.hermitian_part",
    "channels.ParametricChannel.theta_vector",
    "channels.ParametricChannel.in_domain",
}
CHANNEL_FIELDS = ("kraus_fn", "kraus_grad_fn", "spectral_fn")
# Spans kept for the trace file; counts and self times cover every span.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        self._paused = 0
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self._stack: list[list] = []       # [name id, start, child ns, span index]
        self._open: dict[int, int] = {}    # name id -> how many are on the stack
        self.spans: list[tuple] = []       # (index, name id, start, end, parent index)
        self._next_index = 0
        self.dropped = 0
        self.watches: dict[tuple, list[int]] = {}   # (child, ancestors) -> [calls, errors]
        self._patches: list[tuple] = []
        self._channel_type = None

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            for series in (self.calls, self.self_ns, self.total_ns):
                series.append(0)
        return nid

    def watch(self, child: str, *ancestors: str) -> None:
        """Count calls of child made while every named ancestor is open."""
        self.watches[(child, ancestors)] = [0, 0]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        watched = [(key, [self._id(a) for a in key[1]]) for key in self.watches if key[0] == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or self._paused:
                return fn(*args, **kwargs)
            hits = [key for key, ids in watched if all(self._open.get(i) for i in ids)]
            for key in hits:
                self.watches[key][0] += 1
            index = self._next_index
            self._next_index += 1
            parent = self._stack[-1][3] if self._stack else -1
            frame = [nid, time.perf_counter_ns(), 0, index]
            self._stack.append(frame)
            self._open[nid] = self._open.get(nid, 0) + 1
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._open[nid] -= 1
                duration = end - frame[1]
                self.calls[nid] += 1
                self.total_ns[nid] += duration
                self.self_ns[nid] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                if failed:
                    for key in hits:
                        self.watches[key][1] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((index, nid, frame[1], end, parent))
                else:
                    self.dropped += 1
            return self._instrument(result)

        wrapper.__bench_original__ = fn
        return wrapper

    def _instrument(self, result):
        """Wrap the Kraus and spectral callables of a returned channel."""
        if type(result) is not self._channel_type:
            return result
        changes = {}
        for name in CHANNEL_FIELDS:
            fn = getattr(result, name)
            if fn is not None and not hasattr(fn, "__bench_original__"):
                changes[name] = self._wrap(fn, f"channels.{name}")
        return dataclasses.replace(result, **changes) if changes else result

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        import qfibounds
        from qfibounds.channels import ParametricChannel
        from qfibounds.specfile import ChannelSpec

        self._channel_type = ParametricChannel
        modules = [qfibounds] + [
            importlib.import_module(f"qfibounds.{info.name}")
            for info in pkgutil.iter_modules(qfibounds.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("qfibounds."):
                    continue
                name = f"{value.__module__[len('qfibounds.'):]}.{value.__name__}"
                if name in UNTRACED:
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value, name)
                self._patches.append((module, attr, value))
                setattr(module, attr, wrapper)
        for cls in (ParametricChannel, ChannelSpec):
            prefix = f"{cls.__module__[len('qfibounds.'):]}.{cls.__name__}"
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") or f"{prefix}.{attr}" in UNTRACED:
                    continue
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, f"{prefix}.{attr}"))
                elif inspect.isfunction(raw):
                    patched = self._wrap(raw, f"{prefix}.{attr}")
                else:
                    continue
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, patched)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-name and per-watch figures, for differencing."""
        return {
            "calls": dict(zip(self._names, self.calls)),
            "self_ns": dict(zip(self._names, self.self_ns)),
            "total_ns": dict(zip(self._names, self.total_ns)),
            "watch": {key: list(v) for key, v in self.watches.items()},
        }

    def write(self, path) -> None:
        doc = {
            "names": self._names,
            "fields": ["index", "name", "start_ns", "end_ns", "parent"],
            "spans": sorted(self.spans),
            "dropped": self.dropped,
            "calls": dict(zip(self._names, self.calls)),
            "self_s": {n: s / 1e9 for n, s in zip(self._names, self.self_ns)},
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def difference(after: dict, before: dict) -> dict:
    out = {}
    for key in ("calls", "self_ns", "total_ns"):
        out[key] = {n: v - before[key].get(n, 0) for n, v in after[key].items()}
    out["watch"] = {
        k: [a - b for a, b in zip(v, before["watch"].get(k, [0, 0]))]
        for k, v in after["watch"].items()
    }
    return out


def add(total: dict, part: dict) -> None:
    for key in ("calls", "self_ns", "total_ns"):
        bucket = total.setdefault(key, {})
        for n, v in part[key].items():
            bucket[n] = bucket.get(n, 0) + v
    watches = total.setdefault("watch", {})
    for k, v in part["watch"].items():
        acc = watches.setdefault(k, [0, 0])
        acc[0] += v[0]
        acc[1] += v[1]
