"""Shared-memory multi-process serving of frozen WC-INDEX images.

A frozen index is an immutable memory image (``.wcxb`` v3: aligned,
size-stamped sections — see :mod:`repro.core.serialize`), which is
exactly the shape lock-free multi-process fan-out wants:

* :class:`ShmIndexImage` publishes one image into
  ``multiprocessing.shared_memory``; any process that knows the segment
  name attaches the *same physical pages* and builds a zero-copy frozen
  engine over them with :func:`attach_image` — no copies, no locks, no
  coordination, because nobody ever writes.
* :class:`QueryServer` wraps the whole arrangement into a synchronous
  serving facade: it publishes the image, spawns N worker processes that
  answer ``distance_many`` batches through the shared
  :func:`~repro.core.query.batch_merge_flat` kernel, and exposes
  ``.query()`` / ``.query_batch()``; ``.close()`` shuts the pool down
  and releases/unlinks the segment.

The pool is treated as long-lived infrastructure, not a best-effort
fan-out — label indexes are expensive to rebuild, so serving them must
survive its own processes failing:

* :class:`Supervisor` (``QueryServer(supervise=True)``) respawns dead
  workers against the current image generation, with exponential
  backoff and a restart-rate circuit breaker; :meth:`QueryServer.health`
  snapshots the pool.
* ``query_batch(timeout=..., retries=...)`` deadlines and reroutes
  chunks; a pool without quorum raises the typed
  :class:`PoolUnavailableError` / :class:`QueryTimeoutError` fast
  instead of blocking, and ``fallback=True`` answers in-process off the
  shared image so readers never go dark.
* :func:`recover_segments` sweeps orphaned ``/dev/shm`` generations
  left by crashed publishers (the CLI ``serve`` runs it at startup).
* :class:`FaultPlan` (:mod:`repro.serve.faults`) injects deterministic
  worker kills, delays, drops and image corruption — the chaos suite
  and robustness bench prove the layer instead of hoping.

Network serving sits on top of the pool (or any engine):

* :mod:`repro.serve.protocol` — the length-prefixed binary frame
  protocol (HELLO/QUERY/ANSWER/HEALTH/ERROR, versioned, size-capped).
* :class:`NetServer` (:mod:`repro.serve.net`) — the asyncio TCP front
  door: micro-batches concurrent requests into ``distance_many``
  calls, sheds load with typed :class:`ServerOverloadedError` frames
  when the in-flight budget fills, and serves latency percentiles
  estimated from its registry histogram over the ``HEALTH`` frame
  (:class:`~repro.serve.stats.ServerStats`).  Telemetry — the metrics
  registry, per-query trace sampling and the slow-query log — lives in
  :mod:`repro.obs` and is wired through every tier here (``STATS``
  frame, ``repro top``).
* :class:`QueryClient` (:mod:`repro.serve.client`) — one client API
  over every tier: :class:`InProcessClient` (an engine),
  :class:`PoolClient` (the shm pool), :class:`NetClient` (TCP).
* :class:`AnswerCache` / :class:`CachingClient`
  (:mod:`repro.serve.cache`) — the sharded LRU answer cache any tier
  wraps: quality-bucket-quantized canonical keys, journal-driven
  invalidation on ``swap_image`` (attach with
  :meth:`QueryServer.attach_cache`), counters in ``health()`` and the
  ``HEALTH`` frame.

The CLI counterparts are ``python -m repro serve`` (add ``--listen``
for the TCP front door) and ``python -m repro loadgen``.
"""

from .cache import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_CACHE_SHARDS,
    MISS,
    AnswerCache,
    CachingClient,
)
from .client import InProcessClient, NetClient, PoolClient, QueryClient
from .errors import (
    PoolUnavailableError,
    QueryTimeoutError,
    RemoteQueryError,
    ServeError,
    ServerOverloadedError,
)
from .faults import (
    NO_FAULTS,
    FaultPlan,
    InjectedCrash,
    flip_bit_in_section,
    section_span,
    truncate_at_section,
)
from .health import epoch_of, pool_report
from .net import NetServer, NetServerThread
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameTooLargeError,
    ProtocolError,
    VersionMismatchError,
)
from .recovery import pid_alive, recover_segments
from .server import QueryServer
from .shm import AttachedIndex, ShmIndexImage, attach_image
from .stats import ServerStats
from .supervisor import Supervisor

__all__ = [
    "AnswerCache",
    "AttachedIndex",
    "CachingClient",
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_CACHE_SHARDS",
    "FaultPlan",
    "FrameDecoder",
    "FrameTooLargeError",
    "InjectedCrash",
    "InProcessClient",
    "MISS",
    "NO_FAULTS",
    "NetClient",
    "NetServer",
    "NetServerThread",
    "PROTOCOL_VERSION",
    "PoolClient",
    "PoolUnavailableError",
    "ProtocolError",
    "QueryClient",
    "QueryServer",
    "QueryTimeoutError",
    "RemoteQueryError",
    "ServeError",
    "ServerOverloadedError",
    "ServerStats",
    "ShmIndexImage",
    "Supervisor",
    "VersionMismatchError",
    "attach_image",
    "epoch_of",
    "flip_bit_in_section",
    "pid_alive",
    "pool_report",
    "recover_segments",
    "section_span",
    "truncate_at_section",
]
