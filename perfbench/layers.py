"""Timing wrappers the benchmark slips between the program's layers.

Each wrapper is handed to the program through a public constructor
argument — a strategy instance to ``Session``/``OptimizationServer``/
``explore``, a store to ``ResultCache(path=...)``, a ``ResultCache``
subclass as the server's cache — and records one span per call into the
wrapped layer.  Results pass through untouched, and the wrappers expose
the wrapped object's identity (strategy name and cache token), so cache
keys and answers are those of the unwrapped program.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from harness import Tracer
from repro.engine.cache import ResultCache
from repro.obs import trace as obs_trace


def _program_context() -> Dict[str, Optional[str]]:
    """Trace id (the served request's) and innermost span id of the program
    code making the call, when the program traces."""
    ctx = obs_trace.current_context()
    return {"rid": ctx[0], "xparent": ctx[1]} if ctx else {}


class TimedStrategy:
    """A search strategy that records a ``core.search`` span per solve."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def search(self, spec: Any, machine: Any) -> Any:
        with self.tracer.span("core.search", "core", **_program_context()):
            return self.inner.search(spec, machine)

    def cache_token(self) -> Mapping[str, Any]:
        return self.inner.cache_token()

    # The server memoizes cache keys per (shape, strategy): compare and
    # hash like the wrapped strategy.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, TimedStrategy) and other.inner == self.inner

    def __hash__(self) -> int:
        return hash(self.inner)


class TimedStore:
    """A disk store that records ``engine.store_get``/``store_put`` spans."""

    def __init__(self, inner: Any, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self.tracer.span("engine.store_get", "engine", **_program_context()):
            return self.inner.get(key)

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        with self.tracer.span("engine.store_put", "engine", **_program_context()):
            self.inner.put(key, payload)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class TimedResultCache(ResultCache):
    """A ``ResultCache`` that records an ``engine.cache_*`` span per lookup."""

    def __init__(self, *args: Any, tracer: Tracer, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def get(self, key: str):
        with self.tracer.span("engine.cache_get", "engine", **_program_context()):
            return super().get(key)

    def get_many(self, keys, **kwargs: Any):
        context = _program_context()
        # The server reads its disk tier on a pool thread that does not
        # carry the request's trace context: that lookup is a lane of its
        # own, as no request can be named for it.
        detached = not context and not kwargs.get("memory_only", False)
        with self.tracer.span("engine.cache_get", "engine", lane=detached, **context):
            return super().get_many(keys, **kwargs)

    def get_or_compute(self, key: str, compute):
        with self.tracer.span("engine.get_or_compute", "engine", **_program_context()):
            return super().get_or_compute(key, compute)
