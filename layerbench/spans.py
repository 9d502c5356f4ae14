"""In-memory span tracer that wraps a package's public functions.

Tracer.install() replaces every public function of the given modules with a
wrapper, in every namespace where callers look it up (the defining module,
modules that imported it by name, the package root).  Each call records a
span: id, parent span id, name, start and end (perf_counter_ns) and the op
id.  Self time (duration minus the time child spans cover) and call counts
are rolled up online per name; raw spans are kept up to a cap and written
once, at the end of the run.

Spans nest strictly within one thread, so the time a span's children cover
is the sum of their durations.
"""
from __future__ import annotations

import inspect
import json
import time

OP_SPAN = "bench.op"
KEEP_SPANS = 50_000         # raw spans kept for writing out; the rollup sees all


class Tracer:
    def __init__(self, error_type: type = Exception):
        self.error_type = error_type
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.errors: list[int] = []
        self.durations: dict[int, list] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = -1
        # frames are [span id, child ns]; the sentinel catches stray calls
        self.stack: list[list] = [[-1, 0]]
        self._restore: list[tuple] = []
        self._op_sid = -1
        self._op_t0 = 0
        self._op_nid = self._nid(OP_SPAN)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for table in (self.calls, self.total_ns, self.self_ns, self.errors):
                table.append(0)
        return self._ids[name]

    def _close(self, nid, sid, frame, parent, t0, t1):
        dur = t1 - t0
        parent[1] += dur
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - frame[1]
        if sid < KEEP_SPANS:
            self.spans.append((sid, parent[0], nid, t0, t1, self.op_id))

    # -- op root spans: the benchmark's own time inside an op -------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_sid = self.next_id
        self.next_id += 1
        self.stack.append([self._op_sid, 0])
        self._op_t0 = time.perf_counter_ns()

    def end_op(self) -> int:
        """Close the op span; returns its duration in ns."""
        t1 = time.perf_counter_ns()
        frame = self.stack.pop()
        self._close(self._op_nid, self._op_sid, frame, self.stack[-1], self._op_t0, t1)
        return t1 - self._op_t0

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, on_args=None, on_result=None, keep_durations=False):
        """Traced version of fn, recorded under name."""
        nid = self._nid(name)
        if keep_durations:
            self.durations[nid] = []
        durations = self.durations.get(nid)
        stack = self.stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if on_args is not None:
                on_args(args, kwargs)
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if isinstance(exc, tracer.error_type):
                    tracer.errors[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tracer._close(nid, sid, frame, parent, t0, t1)
                if durations is not None:
                    durations.append(t1 - t0)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package, layers: dict, hooks: dict | None = None) -> None:
        """Wrap the public functions of each layer module, where callers find them.

        layers maps a layer name to its module; hooks maps a span name to
        keyword arguments for wrap().  The package root and every layer
        module are patched.
        """
        hooks = hooks or {}
        wrappers: dict[int, dict[str, object]] = {}
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers.setdefault(id(obj), {})[attr] = self.wrap(
                    name, obj, **hooks.get(name, {}))
        for mod in [package, *layers.values()]:
            for attr, obj in list(vars(mod).items()):
                by_name = wrappers.get(id(obj))
                if by_name is None or not inspect.isfunction(obj):
                    continue
                wrapper = by_name.get(attr) or next(iter(by_name.values()))
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def rollup(self) -> dict:
        """name -> {calls, total_ns, self_ns, errors} for every name seen."""
        return {name: {"calls": self.calls[i], "total_ns": self.total_ns[i],
                       "self_ns": self.self_ns[i], "errors": self.errors[i]}
                for i, name in enumerate(self.names) if self.calls[i]}

    def durations_of(self, name: str) -> list:
        """Span durations (ns) of a name wrapped with keep_durations=True."""
        return self.durations.get(self._ids.get(name), [])

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many were written."""
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, nid, t0, t1, op in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": self.names[nid],
                                    "start_ns": t0, "end_ns": t1, "op": op}) + "\n")
        return len(self.spans)
