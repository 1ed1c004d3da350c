"""In-memory span recorder for moptrans layers.

Spans are recorded from outside the program: `Tracer.install()` replaces
every public function of each layer module, wherever a moptrans module
refers to it, with a wrapper that records (layer, name, start, end,
parent, op).  `uninstall()` puts the originals back, so untraced
operations run the unmodified code.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "config", "hybridize", "response", "quantumstats", "sfg", "timedomain", "calibrate")
PACKAGE = "moptrans"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def _open(self, layer: str, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "layer": layer,
            "name": name,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            "error": False,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, name: str):
        rec = self._open(layer, name)
        try:
            yield rec
        except BaseException:
            rec["error"] = True
            raise
        finally:
            self._close(rec)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(layer, name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec["error"] = True
                raise
            finally:
                self._close(rec)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module."""
        if self._patches:
            return
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((namespace, key, value))
                    namespace[key] = hit[1]

    def uninstall(self) -> None:
        for namespace, key, value in reversed(self._patches):
            namespace[key] = value
        self._patches.clear()

    @contextmanager
    def installed(self, op):
        self.op = op
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.op = None
