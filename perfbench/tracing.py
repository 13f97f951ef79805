"""Per-layer spans around the access-time modules, recorded from outside.

``Installation`` replaces every binding of each boundary function inside the
package (the package ``__init__``, ``cli``, ``access`` and ``simulate`` import
them by name, so patching the defining module alone would under-count) with
a wrapper that times the call.  ``uninstall`` puts the originals back so an
untraced run times unpatched code.

A span's self time is its duration minus the durations of the spans it
directly encloses, so nested layers (SCC check inside a column solve inside
the full matrix) are not counted twice.
"""
from __future__ import annotations

import functools
import sys
import time

PACKAGE = "access_time"

#: span name -> (defining module, function); ``_require_solvable`` is the one
#: private function, wrapped because it is the SCC check layer
BOUNDARIES = {
    "cli.main": ("access_time.cli", "main"),
    "chains.build": ("access_time.chains", "build_chain"),
    "chains.validate": ("access_time.chains", "validate_chain"),
    "chains.distribution": ("access_time.chains", "build_distribution"),
    "hitting.scc": ("access_time.hitting", "_require_solvable"),
    "hitting.matrix": ("access_time.hitting", "hitting_time_matrix"),
    "hitting.column": ("access_time.hitting", "hitting_time_to"),
    "hitting.stationary": ("access_time.hitting", "stationary_distribution"),
    "hitting.max": ("access_time.hitting", "max_hitting_time"),
    "access.scan": ("access_time.access", "access_time"),
    "access.bounds": ("access_time.access", "general_bounds"),
    "access.family_report": ("access_time.access", "family_report"),
    "access.verify": ("access_time.access", "verify_family"),
    "simulate.kernel": ("access_time.simulate", "simulate_rule"),
}

_MARK = "__perfbench_span__"


class Layer:
    """Aggregate of every span of one boundary."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans into per-boundary aggregates.

    Beyond calls and times it keeps what the derived layer metrics need:
    column solves made outside a full matrix, the state count of every
    column solve, and the distinct chains each request ran the SCC check on.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.layers = {name: Layer() for name in BOUNDARIES}
        self.direct_columns = 0
        self.column_sizes: list[int] = []
        self.checked_chains = 0
        self._request_chains: set[int] = set()
        self._stack: list[list] = []  # [name, child seconds] per open span

    def start_request(self) -> None:
        """Close the previous request's chain tally and open a new one."""
        self.checked_chains += len(self._request_chains)
        self._request_chains = set()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = tracer.clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                layer = tracer.layers[name]
                layer.calls += 1
                layer.total_s += duration
                layer.self_s += duration - frame[1]
                if name == "hitting.column":
                    tracer.column_sizes.append(args[0].size)
                    if parent != "hitting.matrix":
                        tracer.direct_columns += 1
                elif name == "hitting.scc":
                    tracer._request_chains.add(id(args[0]))

        setattr(traced, _MARK, name)
        return traced


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def _bindings(match) -> list[str]:
    return [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, value in vars(m).items() if match(value)]


class Installation:
    """Wraps every package binding of each boundary; ``uninstall`` puts them back."""

    def __init__(self, tracer: Tracer) -> None:
        self.originals = {name: getattr(sys.modules[mod], fn) for name, (mod, fn) in BOUNDARIES.items()}
        if any(hasattr(fn, _MARK) for fn in self.originals.values()):
            raise RuntimeError("spans are already installed")
        self.replaced: list[tuple] = []  # (module, attribute, original)
        self.bindings = {name: 0 for name in BOUNDARIES}
        wrappers = {name: tracer.wrap(name, fn) for name, fn in self.originals.items()}
        by_id = {id(fn): name for name, fn in self.originals.items()}
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                name = by_id.get(id(value))
                if name is not None:
                    setattr(module, attr, wrappers[name])
                    self.replaced.append((module, attr, value))
                    self.bindings[name] += 1

    def missed(self) -> list[str]:
        """Package bindings that still hold an unwrapped boundary function."""
        originals = {id(fn) for fn in self.originals.values()}
        return _bindings(lambda value: id(value) in originals)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced.clear()


def wrappers_left() -> list[str]:
    """Package bindings that still hold a span wrapper."""
    return _bindings(lambda value: hasattr(value, _MARK))
