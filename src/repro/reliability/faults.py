"""Deterministic fault injection: named, seedable failure points.

The hot paths of the system (solve pool dispatch, disk-cache put/get,
serving solves, sweep-candidate evaluation) each contain a **named fault
point** — a call into this module that is a no-op unless a
:class:`FaultInjector` is active.  Tests (and the ``chaos`` CI job) arm
specific points and get deterministic failures: *kill the pool worker on
the 2nd dispatch*, *corrupt cache entry 3*, *raise ENOSPC on the 1st
put*, *stall the solve of request S* — which is what turns the
recovery code from scattered try/excepts into a testable subsystem.

Usage::

    injector = FaultInjector()
    injector.arm("cache.put_oserror", error=OSError(28, "No space left"))
    with activate(injector):
        ...   # the next ChunkedResultStore.put raises exactly once

Arming knobs: ``times`` (how often to fire; ``None`` = every time),
``after`` (skip the first N matching calls), ``key`` (only fire for a
matching call-site key, e.g. one candidate machine's name), and
``probability`` + ``seed`` (fire on a deterministic pseudo-random
subset of calls).  ``injector.fired("point")`` reports how many times a
point actually fired.

The module-level check is deliberately branch-cheap: one global
``None`` test per fault point when no injector is active, so production
paths pay nothing.
"""

from __future__ import annotations

import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Union

ErrorSpec = Union[BaseException, Callable[[], BaseException], type]


@dataclass
class _Armed:
    """One armed fault point's firing rule and bookkeeping."""

    error: Optional[ErrorSpec] = None
    action: Optional[Callable[[], Any]] = None
    times: Optional[int] = 1
    after: int = 0
    key: Optional[str] = None
    probability: Optional[float] = None
    seed: int = 0
    calls: int = 0
    fired: int = 0

    def should_fire(self, key: Optional[str]) -> bool:
        if self.key is not None and key != self.key:
            return False
        self.calls += 1
        if self.calls <= self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability is not None:
            digest = zlib.crc32(f"{self.seed}:{self.calls}".encode("ascii"))
            draw = (digest & 0xFFFFFFFF) / 4294967296.0
            if draw >= self.probability:
                return False
        self.fired += 1
        return True

    def build_error(self) -> BaseException:
        error = self.error
        assert error is not None
        if isinstance(error, BaseException):
            return error
        return error()


class FaultInjector:
    """A set of armed fault points, thread-safe, activated as a context."""

    def __init__(self) -> None:
        self._armed: Dict[str, _Armed] = {}
        self._lock = threading.Lock()

    def arm(
        self,
        point: str,
        *,
        error: Optional[ErrorSpec] = None,
        action: Optional[Callable[[], Any]] = None,
        times: Optional[int] = 1,
        after: int = 0,
        key: Optional[str] = None,
        probability: Optional[float] = None,
        seed: int = 0,
    ) -> "FaultInjector":
        """Arm ``point`` to raise ``error`` or run ``action`` when hit.

        At most one of ``error`` / ``action`` may be given; neither is
        also valid for pure boolean points (the call site checks
        :func:`fault_fires` and performs the failure itself, e.g.
        killing a pool worker or corrupting a just-written entry).
        Returns ``self`` so arming chains.
        """
        if error is not None and action is not None:
            raise ValueError("arm at most one of error= or action=")
        if times is not None and times < 1:
            raise ValueError("times must be >= 1 (or None for always)")
        if after < 0:
            raise ValueError("after must be >= 0")
        if probability is not None and not 0 <= probability <= 1:
            raise ValueError("probability must be within [0, 1]")
        with self._lock:
            self._armed[point] = _Armed(
                error=error,
                action=action,
                times=times,
                after=after,
                key=key,
                probability=probability,
                seed=seed,
            )
        return self

    def disarm(self, point: str) -> None:
        """Remove one armed point (no error if it was never armed)."""
        with self._lock:
            self._armed.pop(point, None)

    def fired(self, point: str) -> int:
        """How many times ``point`` actually fired."""
        with self._lock:
            armed = self._armed.get(point)
            return armed.fired if armed is not None else 0

    def fired_counts(self) -> Dict[str, int]:
        """Snapshot: every armed point's fire count."""
        with self._lock:
            return {point: armed.fired for point, armed in self._armed.items()}

    # ------------------------------------------------------------------
    def _claim(self, point: str, key: Optional[str]) -> Optional[_Armed]:
        with self._lock:
            armed = self._armed.get(point)
            if armed is None or not armed.should_fire(key):
                return None
            return armed

    def check(self, point: str, key: Optional[str] = None) -> None:
        """Raise/act if ``point`` is armed and due to fire."""
        armed = self._claim(point, key)
        if armed is None:
            return
        if armed.error is not None:
            raise armed.build_error()
        if armed.action is not None:
            armed.action()

    def fires(self, point: str, key: Optional[str] = None) -> bool:
        """Boolean form for call sites that act themselves (pool kill)."""
        armed = self._claim(point, key)
        if armed is None:
            return False
        if armed.action is not None:
            armed.action()
        return True


# ----------------------------------------------------------------------
# Process-global activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultInjector] = None


def active_injector() -> Optional[FaultInjector]:
    """The currently activated injector, or ``None`` (production)."""
    return _ACTIVE


@contextmanager
def activate(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for the duration of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def fault_point(point: str, key: Optional[str] = None) -> None:
    """Hot-path hook: raise/act when ``point`` is armed; else a no-op."""
    if _ACTIVE is not None:
        _ACTIVE.check(point, key)


def fault_fires(point: str, key: Optional[str] = None) -> bool:
    """Hot-path boolean hook (the caller performs the failure itself)."""
    if _ACTIVE is not None:
        return _ACTIVE.fires(point, key)
    return False
