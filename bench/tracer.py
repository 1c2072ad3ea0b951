"""Outside-in call tracer for the cotsum package.

The tracer never edits the program. It replaces each public function of a
cotsum module with a timing wrapper in every module namespace that binds it,
so a call made through a name imported elsewhere (``distribution`` imports
``classify``, ``phi_range_direct`` and ``euler_phi`` by name) is still seen.

Per function it keeps three numbers, not individual spans: calls, total time
and self time. Self time is total time minus the time spent in traced callees,
found with a stack of open calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from types import ModuleType

LAYERS = ("exact", "core", "numeric", "totient", "distribution", "verify", "cli")


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []  # one [child_time] cell per open call
        self._patched: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        """A wrapper of fn that charges its calls to the aggregate `name`."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer, in every binding module."""
        modules = {m: importlib.import_module(f"cotsum.{m}") for m in LAYERS}
        binders = [importlib.import_module("cotsum"), *modules.values()]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isclass(fn) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue  # re-exported from elsewhere; wrapped where defined
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for binder in binders:
                    for key, value in vars(binder).items():
                        if value is fn:
                            self._patched.append((binder, key, fn))
                            setattr(binder, key, wrapper)

    def uninstall(self) -> None:
        for binder, key, fn in reversed(self._patched):
            setattr(binder, key, fn)
        self._patched.clear()
