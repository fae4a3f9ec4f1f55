"""Fault-tolerant execution substrate: retries, fault injection, health.

Large design-space sweeps and long-lived serving replicas only pay off
if partial failure — a killed pool worker, a corrupt cache file, a full
disk, a hung peer — degrades the run instead of killing it.  This
package is the shared substrate the hot paths build that on:

* :class:`RetryPolicy` — deadline-aware exponential backoff with
  deterministic jitter, one schedule type for every retrying call site
  (TCP reconnect, sweep-candidate retry).
* :class:`FaultInjector` — named, seedable failure points threaded
  through the hot paths (``solve_pool.kill_worker``,
  ``cache.put_oserror``, ``cache.corrupt_entry``, ``serving.solve``,
  ``dse.evaluate``), making every recovery path deterministically
  testable.
* health counters — one ``health.<subsystem>.<event>`` counter of the
  metrics registry (:data:`repro.obs.metrics.REGISTRY`) per
  degradation/recovery event, incremented where it happens.  Importing
  this package registers the ``"reliability"`` collector that folds
  every counter that fired, prefix stripped, into
  :meth:`repro.api.Session.performance_stats` and the serving
  ``stats_snapshot()`` under ``"reliability"``.  Counter names are
  dotted ``subsystem.event`` strings except the two pool counters the
  solve pool's stats already used flat names for (``pool_rebuilds``,
  ``serial_fallbacks``).

The wired recovery behaviors (see each subsystem's docs):

* ``core.solve_pool`` runs a search whose pool broke (a worker died)
  again on a rebuilt pool, and inline, bitwise-identically, if the
  rebuilt pool breaks under it too;
* ``engine.cache`` quarantines corrupt on-disk entries and degrades to
  memory-only mode on persistent write failures;
* ``serving`` answers over-budget solves with a cheaper fallback
  strategy (``degraded`` responses), times out hung TCP peers and fails
  hung in-flight requests at their deadline;
* ``dse.explorer`` isolates per-candidate failures as recorded
  ``failed`` outcomes and keeps sweeping.
"""

from .faults import (
    FaultInjector,
    activate,
    active_injector,
    fault_fires,
    fault_point,
)
from ..obs.metrics import REGISTRY
from .policy import DEFAULT_RETRY_POLICY, RetryPolicy

REGISTRY.register_collector(
    "reliability", lambda: REGISTRY.counters_with_prefix("health.")
)

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FaultInjector",
    "RetryPolicy",
    "activate",
    "active_injector",
    "fault_fires",
    "fault_point",
]
