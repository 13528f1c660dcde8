"""Fingerprint-routed multi-worker serving (``fairank serve --workers N``).

One ``fairank serve`` process scales until a single Python process is the
bottleneck; beyond that a deployment is *sharded*: N worker processes, each
booted from the same catalog snapshot (so every worker serves byte-identical
answers), behind a :class:`~repro.shard.router.ShardRouter` — a shared-nothing
HTTP proxy that routes each request by the **content fingerprints** of the
resources it references.  Requests over the same (dataset, function) pair
always land on the same worker, so that worker's
:class:`~repro.core.scorestore.ScoreStore` pool and result cache stay hot
while the fleet as a whole serves the full catalogue in parallel.

* :mod:`repro.shard.routing` — the deterministic routing function
  (references → fingerprints → worker slot);
* :mod:`repro.shard.pool` — :class:`WorkerPool`, the subprocess lifecycle:
  boot on ephemeral ports, readiness-poll ``/v2/health``, restart-on-crash
  with capped exponential backoff;
* :mod:`repro.shard.router` — :class:`ShardRouter`, the stdlib HTTP front
  (the same acceptor threads as the single-process server: each serves the
  connections it accepts): per-kind forwarding with retry-on-failure,
  ``/v2/batch`` split/fan-out/reassembly, aggregated ``/v2/health`` and a
  proxied ``/v2/catalog``.
"""

from repro.shard.pool import WorkerHandle, WorkerPool
from repro.shard.router import ShardRouter
from repro.shard.routing import request_references, routing_key, worker_slot

__all__ = [
    "ShardRouter",
    "WorkerHandle",
    "WorkerPool",
    "request_references",
    "routing_key",
    "worker_slot",
]
