"""Span tracer that wraps the package's layer functions from outside.

Each layer is a public function of a ``wellposed`` module. Installing the
tracer swaps that function, in every ``wellposed`` module namespace that
holds it, for a wrapper that records a span (name, start, end, parent, op)
and exact work counts. Nothing under ``src/`` changes; ``restore`` puts every
original back. Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
from collections import defaultdict
from time import perf_counter


def _arg(bound, name):
    return bound.arguments[name]


# (module, function, {counter: f(bound arguments, result) -> int})
LAYERS = (
    ("cli", "main", {}),
    ("laplace", "verify_resolvent_entries", {}),
    ("laplace", "laplace_transform",
     {"samples": lambda b, r: _arg(b, "sig").n_samples * _arg(b, "sig").width}),
    ("signals", "exp_conv_trajectory",
     {"samples": lambda b, r: (int(_arg(b, "n_steps")) + 1) * len(_arg(b, "alpha")),
      "bytes_out": lambda b, r: 16 * (int(_arg(b, "n_steps")) + 1) * len(_arg(b, "alpha"))}),
    ("signals", "exp_conv_final", {}),
    ("laxphillips", "step_extended_state", {}),
    ("laxphillips", "control_to_state", {}),
    ("signals", "write_signal_csv",
     {"bytes": lambda b, r: os.path.getsize(_arg(b, "path"))}),
    ("signals", "read_signal_csv", {}),
    ("laxphillips", "save_extended_state", {}),
    ("heat", "reconstruct_temperature", {}),
    ("system", "m13_sup_scan",
     {"points": lambda b, r: int(_arg(b, "steps")) * _arg(b, "sys").n_modes}),
    ("system", "compatibility_check", {}),
    ("admissibility", "observation_gram", {}),
    ("admissibility", "control_gram", {}),
    ("admissibility", "admissibility_report", {}),
    ("spectral", "resolvent_apply", {}),
    ("signals", "resample", {}),
    ("certificate", "canonical_json", {}),
)

# stats that are exact counts rather than times
COUNT_STATS = {"calls"} | {key for _, _, counters in LAYERS for key in counters}


class Tracer:
    """Records spans only while an op is active (``op`` is not None), so the
    benchmark's own output checks never show up as layer work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self.op: int | None = None
        self.wrapper_s = 0.0
        self.missing: list[str] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counters: dict):
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            stack = self._stack()
            index = len(self.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            self.spans.append(span)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = {key: int(f(bound, result)) for key, f in counters.items()}
            self.wrapper_s += (t0 - t_in) + (perf_counter() - t1)
            return result

        return wrapper

    def install(self) -> None:
        layer_modules = [importlib.import_module(f"wellposed.{mod_name}")
                         for mod_name, _, _ in LAYERS]
        modules = [m for key, m in list(sys.modules.items())
                   if key == "wellposed" or key.startswith("wellposed.")]
        for module, (mod_name, fn_name, counters) in zip(layer_modules, LAYERS):
            original = getattr(module, fn_name, None)
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counters)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        leftover = [f"{h.__name__}.{a}" for h, a, o in self._saved
                    if getattr(h, a) is not o]
        self._saved.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrapped names behind: {leftover}")

    def summary(self, ops) -> dict[str, float]:
        """Per-layer totals over the spans of the given op ids.

        ``s`` is inclusive time (outermost span of a name only), ``self_s``
        subtracts the time covered by direct child spans, ``calls`` and the
        counters are exact sums.
        """
        ops = set(ops)
        child_time = defaultdict(float)
        for name, start, end, parent, op, _ in self.spans:
            if op in ops and parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
            if op not in ops:
                continue
            add(f"{name}.calls", 1)
            add(f"{name}.self_s", (end - start) - child_time[index])
            if not self._has_ancestor(parent, name):
                add(f"{name}.s", end - start)
            for key, value in (counts or {}).items():
                add(f"{name}.{key}", value)
        return out

    def _has_ancestor(self, parent, name) -> bool:
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "missing": self.missing, "spans": self.spans}, fh)
