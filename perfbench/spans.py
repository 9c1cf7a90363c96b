"""
Span tracing by wrapping module attributes.

The tracer replaces a function in every module namespace that binds it
with a wrapper that records one span per call: name, start, end, parent
span and op id.  Layers of modepuma call one another through module
globals (``modepuma.bench.simulate_snapshots``, ``numpy.linalg.eigvalsh``,
...), so the wrappers see every cross-layer call without any change to the
package.  Spans stay in memory and are written out once at the end.

Self time is a span's duration minus the durations of its direct child
spans; it is accumulated while the spans close, so no tree walk is needed.
"""

import array
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One traced function ``module.attr``, recorded as ``<layer>.<attr>``.

    The layer is the last part of the module name.  ``namer(args)`` may
    return a more specific span name per call, and ``observe(args, result)``
    a small record kept for counters read from results.
    """

    module: str
    attr: str
    namer: object = None
    observe: object = None

    @property
    def name(self):
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array.array("i")
        self._parent = array.array("i")
        self._op = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._self = array.array("d")
        self._stack = []  # [span id, time covered by direct children]
        self._installed = []  # (namespace, attr, original)
        self.op = -1
        self.observed = []  # (span name, observe(args, result))

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, target):
        tracer = self
        fixed_id = None if target.namer else self._name_id(target.name)
        namer, observe = target.namer, target.observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer._start)
            name_id = fixed_id if namer is None else tracer._name_id(namer(args))
            tracer._name.append(name_id)
            tracer._parent.append(stack[-1][0] if stack else -1)
            tracer._op.append(tracer.op)
            tracer._start.append(0.0)
            tracer._end.append(0.0)
            tracer._self.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                tracer._start[sid] = t0
                tracer._end[sid] = t1
                tracer._self[sid] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                tracer.observed.append((tracer.names[name_id], observe(args, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap each target in every ``modepuma`` module that binds it."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "modepuma" or key.startswith("modepuma."))
        ]
        for target in targets:
            home = sys.modules[target.module]
            fn = getattr(home, target.attr)
            wrapper = self._wrap(fn, target)
            for mod in [home] + [mod for mod in modules if mod is not home]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._installed.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed = []

    def spans(self):
        """All recorded spans as numpy arrays, keyed by field."""
        return {
            "name_id": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self._op, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "self": np.frombuffer(self._self, dtype=np.float64).copy(),
        }

    def export(self, path):
        """Write the spans to ``path`` (numpy .npz; times in seconds)."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())
