"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records a span (id, parent id, name, start, end), and does so
under every name a module bound the function to at import, e.g.
`oldb2d.dynamics.irfft2`, `oldb2d.integrate.make_grid` and
`oldb2d.picard.to_real`.  `uninstall()` puts the originals back, so untraced
solves run the program unwrapped.  Spans stay in memory until `write()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("spectral", "dynamics", "integrate", "fields", "diagnostics",
          "snapshots", "picard", "config", "cli")
"""Modules of `oldb2d` that are traced; `checks` only calls these."""

EXTRA = {"picard": ("_u_norm", "_sigma_norm", "_rho_norm")}
"""Private functions traced because a per-layer metric names them."""

SKIP = {"spectral": ("fft_workers",)}
"""Public functions left unwrapped: reading an environment variable per FFT
call would double the span count for no information."""

FFT = ("spectral.to_spectral", "spectral.to_real", "spectral.rfft2", "spectral.irfft2")


def _layer_functions(module, layer: str) -> list:
    names = [name for name, obj in vars(module).items()
             if inspect.isfunction(obj) and obj.__module__ == module.__name__
             and not name.startswith("_") and name not in SKIP.get(layer, ())]
    return names + list(EXTRA.get(layer, ()))


class Tracer:
    """Span and counter store plus the patching of the layer modules."""

    def __init__(self):
        self.spans = []       # (solve, id, parent, name, start, end)
        self.counters = {}
        self.solve = 0
        self._mark = 0
        self._stack = []
        self._next_id = 0
        self._patches = []    # (module, attribute, original)

    def begin(self, solve: int) -> None:
        """Start attributing spans and counters to a new solve."""
        self.solve = solve
        self.counters = {}
        self._mark = len(self.spans)

    def solve_spans(self) -> "SolveSpans":
        return SolveSpans(self.spans[self._mark:])

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, fn, hook=None):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            finish = hook(self, args) if hook else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.solve, span_id, parent, name, start, end))
            if finish:
                finish(result)
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"oldb2d.{layer}")
            for fname in _layer_functions(module, layer):
                name = f"{layer}.{fname}"
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(name, fn, HOOKS.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "oldb2d" and not modname.startswith("oldb2d."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:  # ids are stable: `originals` holds each fn
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, originals[id(obj)][1])

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for solve, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"solve": solve, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


# --- counters computed at the boundary ---------------------------------------

def _fft_hook(inverse_c2c: bool):
    """Planes, and bytes read plus written, computed from array shapes.  The
    complex-to-complex inverse behind `to_real` writes a complex array of
    the input's shape before the real part is taken."""
    def hook(tracer: Tracer, args):
        values = args[0]

        def finish(result):
            written = values.nbytes if inverse_c2c else result.nbytes
            tracer.count("spectral.fft_planes", math.prod(values.shape[:-2]))
            tracer.count("spectral.fft_bytes", values.nbytes + written)

        return finish

    return hook


def _file_growth_hook(path_arg: int):
    def hook(tracer: Tracer, args):
        path = args[path_arg]
        before = os.path.getsize(path) if os.path.exists(path) else 0

        def finish(_result):
            tracer.count("snapshots.bytes", os.path.getsize(path) - before)

        return finish

    return hook


HOOKS = {name: _fft_hook(name == "spectral.to_real") for name in FFT}
HOOKS["snapshots.write_snapshot"] = _file_growth_hook(1)
HOOKS["snapshots.append_timeseries"] = _file_growth_hook(1)


# --- per-solve span arithmetic -----------------------------------------------

class SolveSpans:
    """The spans of one solve, with inclusive and self-time queries."""

    def __init__(self, spans):
        self.by_id = {s[1]: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s[2], []).append(s)

    def count(self, *names) -> int:
        return sum(1 for s in self.by_id.values() if s[3] in names)

    def _has_ancestor_in(self, span, names) -> bool:
        parent = span[2]
        while parent is not None:
            above = self.by_id[parent]
            if above[3] in names:
                return True
            parent = above[2]
        return False

    def time(self, *names) -> float:
        """Wall time inside any of `names`, nested calls counted once."""
        return sum((s[5] - s[4] for s in self.by_id.values()
                    if s[3] in names and not self._has_ancestor_in(s, names)), 0.0)

    def self_time(self, name: str) -> float:
        """Time in `name` minus the time of its direct child spans."""
        total = 0.0
        for s in self.by_id.values():
            if s[3] == name:
                kids = self.children.get(s[1], ())
                total += (s[5] - s[4]) - sum(k[5] - k[4] for k in kids)
        return total
