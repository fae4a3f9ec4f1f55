"""Unified metrics registry: counters, gauges, histograms, collectors.

One process-wide :class:`MetricsRegistry` replaces the per-subsystem
stat dicts that accumulated across PRs (the reliability substrate's
flat health-counter map, ``CompileCache.stats()``,
``table_cache_stats()``, ``solve_pool.pool_stats()``).  Subsystems
either

* own first-class instruments — ``REGISTRY.counter("health.pool_rebuilds")``
  — created on first use and snapshot deterministically, or
* keep their internal bookkeeping and register a *collector*: a zero-arg
  callable returning their existing stats dict, merged into
  :func:`snapshot` under the collector's name.

The collector path is what lets :meth:`repro.api.Session.performance_stats`
and ``OptimizationServer.stats_snapshot()`` keep their exact historical
payload shapes while becoming pure views over this registry.

Histograms use *fixed* bucket boundaries chosen at creation so two
snapshots of the same registry are structurally identical (same keys,
same order) regardless of what was observed — a requirement for golden
tests and for diffing snapshots across runs.

Everything here is thread-safe behind per-instrument locks plus one
registry lock for creation, and fork-inherited state stays valid (plain
ints and lists; no file descriptors).
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "snapshot",
]

#: Default histogram boundaries (seconds-flavored, log-ish spacing).
#: Fixed at creation so snapshots are deterministic in shape.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


class Counter:
    """Monotonically increasing integer; :meth:`inc` returns the new value."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> int:
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """Last-write-wins float, for levels (queue depth, cache size)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> float:
        with self._lock:
            self._value += delta
            return self._value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    ``boundaries`` are upper-inclusive bucket edges; observations above
    the last edge land in the implicit ``+inf`` bucket.  The boundary
    tuple is frozen at creation, so every snapshot of this histogram has
    the same keys in the same order.
    """

    __slots__ = ("name", "boundaries", "_lock", "_counts", "_count",
                 "_sum", "_min", "_max")

    def __init__(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        edges = tuple(sorted(float(b) for b in boundaries))
        if not edges:
            raise ValueError("histogram needs at least one bucket boundary")
        self.name = name
        self.boundaries = edges
        self._lock = threading.Lock()
        self._counts = [0] * (len(edges) + 1)  # +1 for the +inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.boundaries, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            buckets = {
                f"le_{edge:g}": count
                for edge, count in zip(self.boundaries, self._counts)
            }
            buckets["le_inf"] = self._counts[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "buckets": buckets,
            }

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.boundaries) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = math.inf
            self._max = -math.inf


class MetricsRegistry:
    """Process-wide instrument registry plus named stat collectors."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # -- instrument creation (idempotent, create-on-first-use) ---------
    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(
        self, name: str, boundaries: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, boundaries)
            return inst

    # -- peeking without creating --------------------------------------
    def counter_value(self, name: str) -> int:
        """Current value of ``name``; 0 if it was never created."""
        with self._lock:
            inst = self._counters.get(name)
        return inst.value if inst is not None else 0

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        """``{stripped_name: value}`` for counters under ``prefix``.

        Only counters that exist are returned — a caller that never
        incremented anything gets an empty dict: the only-what-fired
        contract of the ``"reliability"`` collector over ``health.``.
        """
        with self._lock:
            items = [
                (name[len(prefix):], inst)
                for name, inst in self._counters.items()
                if name.startswith(prefix)
            ]
        return {name: inst.value for name, inst in items}

    def histograms_with_prefix(self, prefix: str) -> Dict[str, Dict[str, Any]]:
        """``{stripped_name: snapshot}`` for histograms under ``prefix``.

        Same only-what-fired contract as :meth:`counters_with_prefix`:
        a histogram exists once something observed into it.
        """
        with self._lock:
            items = [
                (name[len(prefix):], inst)
                for name, inst in sorted(self._histograms.items())
                if name.startswith(prefix)
            ]
        return {name: inst.snapshot() for name, inst in items}

    # -- collectors ----------------------------------------------------
    def register_collector(
        self, name: str, fn: Callable[[], Dict[str, Any]]
    ) -> None:
        """Merge ``fn()`` into :meth:`snapshot` under ``name``.

        Re-registering a name overwrites (module reloads in tests).
        """
        with self._lock:
            self._collectors[name] = fn

    def collect(self, name: str) -> Dict[str, Any]:
        """Run one registered collector by name (KeyError if absent)."""
        with self._lock:
            fn = self._collectors[name]
        return fn()

    # -- snapshot / reset ----------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One deterministic dict over everything the process exports.

        Shape: ``{"counters": {...}, "gauges": {...}, "histograms":
        {...}, <collector>: <its dict>, ...}`` with every sub-dict
        key-sorted.  Collector failures surface as ``{"error": str}``
        rather than poisoning the whole snapshot.
        """
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
            collectors = sorted(self._collectors.items())
        snap: Dict[str, Any] = {
            "counters": {name: inst.value for name, inst in counters},
            "gauges": {name: inst.value for name, inst in gauges},
            "histograms": {name: inst.snapshot() for name, inst in histograms},
        }
        for name, fn in collectors:
            try:
                snap[name] = fn()
            except Exception as exc:  # pragma: no cover - defensive
                snap[name] = {"error": str(exc)}
        return snap

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero instruments (all of them, or just those under ``prefix``).

        Collectors are left registered — they mirror live subsystem
        state the registry does not own.
        """
        with self._lock:
            instruments: List[Any] = [
                inst
                for group in (self._counters, self._gauges, self._histograms)
                for name, inst in group.items()
                if prefix is None or name.startswith(prefix)
            ]
        for inst in instruments:
            inst.reset()

    def remove(self, prefix: str) -> None:
        """Drop instruments under ``prefix`` entirely (not just zero them).

        This is what a *clearing* reset needs: a removed counter no
        longer appears in snapshots, restoring the only-what-fired
        contract of the health counters (``remove("health.")``).
        """
        with self._lock:
            for group in (self._counters, self._gauges, self._histograms):
                for name in [n for n in group if n.startswith(prefix)]:
                    del group[name]


#: The process-wide registry every subsystem shares.
REGISTRY = MetricsRegistry()


def snapshot() -> Dict[str, Any]:
    """Shorthand for ``REGISTRY.snapshot()`` — the one-stop stats view."""
    return REGISTRY.snapshot()
