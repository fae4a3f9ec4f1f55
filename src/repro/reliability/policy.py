"""Retry policy: deadline-aware exponential backoff with deterministic jitter.

One :class:`RetryPolicy` value describes *when to try again* for every
transient-failure site in the system — pool re-dispatch, TCP reconnect,
sweep-candidate retry — so the knobs live in one place instead of one
ad-hoc loop per call site.

Two properties matter for a reproduction repo:

* **Determinism.**  Jitter is derived from ``(seed, attempt)`` through a
  CRC hash, not from a global RNG, so two runs of the same failing
  scenario sleep the same schedule and chaos tests can assert on it.
* **Deadline awareness.**  ``run`` never sleeps past ``deadline_s`` from
  its own start; the last observed exception is re-raised instead of
  burning wall-clock a caller no longer has.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple, Type, TypeVar

from ..obs.metrics import REGISTRY

T = TypeVar("T")


def _jitter_fraction(seed: int, attempt: int) -> float:
    """Deterministic pseudo-uniform value in [0, 1) for one attempt."""
    digest = zlib.crc32(f"{seed}:{attempt}".encode("ascii"))
    return (digest & 0xFFFFFFFF) / 4294967296.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule shared by every retrying call site.

    ``max_attempts`` counts *total* tries (1 means no retry at all).
    The delay before retry ``n`` (1-based) is
    ``base_delay_s * multiplier**(n-1)`` capped at ``max_delay_s``, then
    spread by ``jitter`` (a fraction: 0.1 picks uniformly from ±10% of
    the delay, deterministically from ``seed``).  ``deadline_s`` bounds
    the whole :meth:`run` call — a retry that would start after the
    deadline is abandoned and the last error re-raised.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    deadline_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter included."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(
            self.base_delay_s * (self.multiplier ** (attempt - 1)),
            self.max_delay_s,
        )
        if self.jitter == 0 or raw == 0:
            return raw
        spread = (2.0 * _jitter_fraction(self.seed, attempt) - 1.0) * self.jitter
        return max(0.0, raw * (1.0 + spread))

    def delays(self) -> Iterator[float]:
        """The full backoff schedule (``max_attempts - 1`` delays)."""
        for attempt in range(1, self.max_attempts):
            yield self.delay_for(attempt)

    def run(
        self,
        fn: Callable[[], T],
        *,
        retry_on: Tuple[Type[BaseException], ...] = (Exception,),
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        counter: Optional[str] = None,
    ) -> T:
        """Call ``fn`` until it succeeds, retries run out, or the deadline.

        ``on_retry(attempt, error)`` observes each failure that will be
        retried; ``counter`` names a health counter (the registry's
        ``health.<counter>``) incremented once per retry (not per call).  Exceptions outside ``retry_on`` propagate
        immediately.
        """
        start = clock()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as error:
                if attempt >= self.max_attempts:
                    raise
                delay = self.delay_for(attempt)
                if self.deadline_s is not None and (
                    clock() - start + delay > self.deadline_s
                ):
                    raise
                if counter is not None:
                    REGISTRY.counter("health." + counter).inc()
                if on_retry is not None:
                    on_retry(attempt, error)
                if delay > 0:
                    sleep(delay)


#: Conservative default shared by call sites that take an optional policy.
DEFAULT_RETRY_POLICY = RetryPolicy()
