"""The multi-process query server over one shared frozen image.

:class:`QueryServer` publishes a frozen index into shared memory
(:class:`~repro.serve.shm.ShmIndexImage`), spawns N worker processes
that attach zero-copy, and fans ``distance_many`` batches out over
per-worker task queues.  The engine is immutable, so the workers share
the physical index pages with no locking and no per-worker copy —
worker memory cost is the page tables, not the index.

Every worker owns its task queue (single consumer) *and* its result
pipe (single producer): a worker that dies — even killed mid-``get``
or mid-``send`` — can poison only its own channels, never a sibling's.
The pool is fault-tolerant beyond routing around the dead:

* a chunk assigned to a worker that then died is **redispatched** to a
  live worker (bounded by ``retries``), so a mid-batch crash is
  invisible to the caller;
* ``query_batch(timeout=...)`` puts a deadline on every chunk — a
  wedged or overloaded worker's chunk is rerouted, and the batch fails
  with a typed :class:`~repro.serve.errors.QueryTimeoutError` instead
  of hanging when the budget runs out;
* a pool with **no live workers fails fast** with
  :class:`~repro.serve.errors.PoolUnavailableError` — never a blocking
  wait on the result pipes;
* ``fallback=True`` converts either failure into an in-process answer
  straight off the shared image (bit-identical — same kernel), so
  readers never go dark while the pool recovers;
* ``supervise=True`` attaches a :class:`~repro.serve.supervisor.Supervisor`
  that respawns dead workers against the current image generation with
  exponential backoff and a restart-rate circuit breaker;
  :meth:`QueryServer.health` snapshots the pool either way.

The facade is synchronous: :meth:`QueryServer.query_batch` splits a
batch into chunks, round-robins them over the live workers, and
reassembles the answers in order; :meth:`QueryServer.query` is the
single-query convenience.  :meth:`QueryServer.swap_image` hot-swaps the
pool onto a new index generation between batches (the live-update
republish path — see :mod:`repro.live.publisher`).
:meth:`QueryServer.close` (or the context manager) shuts the workers
down and releases/unlinks the shared segment.

A deterministic :class:`~repro.serve.faults.FaultPlan` can be threaded
through the pool (``fault_plan=...``) to inject worker kills, response
delays and dropped responses — the chaos suite's lever, a no-op by
default.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import queue as queue_module
import signal
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.kernels import resolve_backend
from ..obs.metrics import BATCH_SIZE_BUCKETS, Histogram
from .errors import PoolUnavailableError, QueryTimeoutError, ServeError
from .health import closed_report, pool_report
from .shm import ShmIndexImage, attach_image
from .stats import size_summary

__all__ = [
    "QueryServer",
    "PoolUnavailableError",
    "QueryTimeoutError",
    "ServeError",
]

#: How many chunks each worker gets per large batch (load-balance
#: granularity).
_CHUNKS_PER_WORKER = 4

#: Fewest queries in a chunk cut finer than one per live worker.  Finer
#: chunks only balance load: each pays a worker round trip, and a small
#: one falls under the numpy kernel's floor.  In the pool sweep
#: (CHANGES.md) no batch got faster from chunks under 512 queries, and a
#: 512-query batch on one worker took 1.6 ms whole against 3.2 ms in
#: two chunks.
_MIN_CHUNK = 512

#: Seconds between liveness checks while waiting for batch results —
#: the ceiling on how long a chunk sits before rerouting when its owner
#: dies without its result pipe reaching EOF (a pipe at EOF ends the
#: wait at once).
_POLL_SECONDS = 0.25

#: Seconds :meth:`QueryServer.close` gives all workers together to
#: finish their queued work before the laggards are terminated.
_SHUTDOWN_SECONDS = 10.0

#: Floor on the result-queue wait, so tight deadlines still make progress.
_MIN_WAIT = 0.005

#: Default redispatch budget per chunk (beyond the initial dispatch).
_DEFAULT_RETRIES = 2


def _worker_main(
    slot, image_name, tasks, results, fault_plan, backend=None
) -> None:
    """Worker loop: attach to the image, process jobs off this worker's
    own task queue until the ``None`` sentinel, then detach cleanly.

    Jobs are ``(job_id, kind, payload)``: ``"query"`` answers a batch,
    ``"swap"`` re-attaches to the named next-generation image (the hot
    republish path).  A worker that cannot attach the new generation
    exits instead of serving the stale one — the pool routes around it.

    ``results`` is this worker's *own* pipe end — like the task queue,
    never shared with a sibling, so a worker SIGKILLed at any instant
    (even mid-send) can corrupt only its own channel; the client sees
    EOF there and redispatches, while every other worker keeps
    answering.  (A shared results queue would hold a cross-process
    write lock during sends — one unlucky kill would orphan the lock
    and wedge the whole pool.)

    ``fault_plan`` injects this slot's scheduled faults (see
    :mod:`repro.serve.faults`); ``None`` means none, and the counters
    restart with every respawned process.
    """
    kill_after = delay = None
    drop_left = 0
    if fault_plan is not None:
        kill_after = fault_plan.kill_after.get(slot)
        delay = fault_plan.delay_seconds.get(slot)
        drop_left = fault_plan.drop_first.get(slot, 0)
    handled = 0
    attached = attach_image(image_name, backend=backend)
    try:
        while True:
            job = tasks.get()
            if job is None:
                return
            job_id, kind, payload = job
            if kind == "swap":
                try:
                    fresh = attach_image(payload, backend=backend)
                except Exception as exc:
                    results.send(
                        (job_id, "error", f"{type(exc).__name__}: {exc}")
                    )
                    return
                attached.close()
                attached = fresh
                results.send((job_id, "ok", None))
                continue
            if kill_after is not None and handled >= kill_after:
                # Die *with the chunk assigned and unanswered* — the
                # client-side reroute path, not a clean exit.
                os.kill(os.getpid(), signal.SIGKILL)
            handled += 1
            try:
                answers = attached.engine.distance_many(payload)
            except Exception as exc:  # surface, don't kill the pool
                status, outcome = "error", f"{type(exc).__name__}: {exc}"
            else:
                status, outcome = "ok", answers
            if delay:
                time.sleep(delay)
            if drop_left > 0:
                drop_left -= 1
                continue  # swallow the response; the client retries
            results.send((job_id, status, outcome))
    finally:
        attached.close()


class _Chunk:
    """One in-flight slice of a batch: where it lands in the answer
    array, which worker currently owns it (and that worker's result
    pipe), and its retry/deadline state."""

    __slots__ = ("start", "queries", "attempts", "owner", "pipe", "deadline")

    def __init__(self, start: int, queries: list) -> None:
        self.start = start
        self.queries = queries
        self.attempts = 0
        self.owner = None
        self.pipe = None
        self.deadline: Optional[float] = None


class QueryServer:
    """Synchronous multi-process serving facade.

    ``source`` is any index engine (all three families, frozen or
    list-backed) or an index path.  ``workers`` processes attach to one
    shared image; every answer is produced by the same pluggable batch
    kernel (:mod:`repro.core.kernels`) as the single-process frozen
    engine, so results are bit-identical.  ``kernel`` selects the
    backend — ``None``/``"auto"`` auto-detects (numpy when installed),
    and an explicit unavailable name fails fast at construction; the
    resolved name is pinned into every worker and the fallback engine.

    ``start_method`` picks the ``multiprocessing`` context (default:
    ``fork`` where available — instant workers — else ``spawn``).
    ``validate`` (default on) integrity-scans a path source once at
    startup — workers attach without re-scanning; pass ``False`` for
    trusted images.

    Robustness knobs:

    * ``supervise`` starts a :class:`~repro.serve.supervisor.Supervisor`
      over the pool (``supervisor_options`` forwards keyword arguments
      such as ``max_restarts`` / ``restart_window`` to it).
    * ``fallback`` answers from an in-process engine over the shared
      image whenever the pool cannot (dead or timed out) instead of
      raising.
    * ``fault_plan`` threads a deterministic
      :class:`~repro.serve.faults.FaultPlan` into the workers (tests
      and chaos benches only; ``None`` injects nothing).
    """

    def __init__(
        self,
        source,
        *,
        workers: int = 2,
        start_method: Optional[str] = None,
        validate: bool = True,
        segment_name: Optional[str] = None,
        supervise: bool = False,
        supervisor_options: Optional[dict] = None,
        fallback: bool = False,
        fault_plan=None,
        kernel=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        # Resolve eagerly: an explicit-but-unavailable kernel fails fast
        # here, in the parent, not inside N workers.  Workers receive
        # the resolved *name*, so "auto" pins the parent's choice.
        self._kernel = resolve_backend(kernel).name
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        context = multiprocessing.get_context(start_method)
        self._context = context
        self._fault_plan = fault_plan
        self._fallback_enabled = fallback
        self._fallback_engine = None
        self._supervisor = None
        #: Answer caches notified on every swap_image (republish).
        self._caches: List[object] = []
        #: Dispatch bookkeeping: how the pool splits and reroutes work.
        #: Its count is the number of chunks dispatched (surfaced by
        #: :meth:`health` and the metrics bridge, ``bind_pool``).
        self.chunk_sizes = Histogram(
            "repro_pool_chunk_size",
            "Queries per chunk dispatched to a pool worker",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self._redispatches = 0
        #: Serializes structural mutation of the worker table (dispatch,
        #: respawn, swap, close) against the supervisor thread.
        self._lock = threading.RLock()
        self._image: Optional[ShmIndexImage] = ShmIndexImage(
            source, validate=validate, name=segment_name
        )
        # Anything failing past this point (queue fds, fork limits) must
        # not orphan the published segment.
        try:
            self._task_queues = [
                context.SimpleQueue() for _ in range(workers)
            ]
            # Each worker gets its own result pipe (created per spawn
            # in _start_worker): a shared results queue would carry a
            # cross-process write lock that a worker killed mid-send
            # leaves held forever, wedging every survivor.  With one
            # pipe per worker there is no shared lock to orphan — a
            # kill at any instant breaks only that worker's pipe, which
            # the client sees as EOF and routes around.
            self._result_readers: List[Optional[object]] = [None] * workers
            self._retired_readers: List[object] = []
            self._next_job = 0
            self._round_robin = itertools.count()
            self._workers = []
            for slot in range(workers):
                self._workers.append(self._start_worker(slot))
            if supervise:
                from .supervisor import Supervisor

                self._supervisor = Supervisor(
                    self, **(supervisor_options or {})
                )
                self._supervisor.start()
        except Exception:
            # Stop any workers that did start (they are attached to the
            # image and blocked on their task queue), then drop the
            # segment — a failed construction must not leave processes
            # or /dev/shm pages behind.
            for process in getattr(self, "_workers", []):
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
            image, self._image = self._image, None
            image.destroy()
            raise

    def _start_worker(self, slot: int):
        """Start a fresh worker for ``slot``, attached to the currently
        published image and wired to its own private result pipe."""
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(
                slot,
                self._image.name,
                self._task_queues[slot],
                writer,
                self._fault_plan,
                self._kernel,
            ),
            daemon=True,
            name=f"wcindex-worker-{slot}",
        )
        process.start()
        # Close the parent's copy of the write end, so the reader hits
        # EOF the instant the worker — the pipe's only writer — dies.
        writer.close()
        old = self._result_readers[slot]
        if old is not None:
            # Keep draining the dead predecessor's pipe until its EOF:
            # answers it sent before dying are still valid (results of
            # superseded jobs are discarded by job id anyway).
            self._retired_readers.append(old)
        self._result_readers[slot] = reader
        return process

    # ------------------------------------------------------------------
    # Worker table (shared with the supervisor)
    # ------------------------------------------------------------------
    def _alive(self, slot: int) -> bool:
        """Whether ``slot``'s worker is alive.  A worker whose result
        pipe reached EOF is dead even while ``is_alive()`` still lags
        behind its exit: nothing it answers could be read."""
        return (
            self._result_readers[slot] is not None
            and self._workers[slot].is_alive()
        )

    def _live_workers(self) -> List[Tuple[int, object]]:
        """``(slot, process)`` snapshot of the currently live workers."""
        with self._lock:
            return [
                (slot, process)
                for slot, process in enumerate(self._workers)
                if self._alive(slot)
            ]

    def worker_states(self) -> List[dict]:
        """Per-slot liveness snapshot (stable order, one entry per slot)."""
        with self._lock:
            return [
                {
                    "slot": slot,
                    "pid": process.pid,
                    "alive": self._alive(slot),
                    "exitcode": process.exitcode,
                }
                for slot, process in enumerate(self._workers)
            ]

    def respawn_worker(self, slot: int) -> bool:
        """Replace a dead worker with a fresh process attached to the
        *current* image generation (the supervisor's repair primitive).

        Returns ``True`` when a new worker was started; ``False`` when
        the server is closed or the slot's worker is still alive.  The
        dead worker's queue is replaced wholesale — jobs stranded on it
        belong to chunks whose owner is dead, which the batch loop
        redispatches — so no job is ever half-shared between the old
        and new process.
        """
        with self._lock:
            if self._image is None:
                return False
            if not 0 <= slot < len(self._workers):
                raise ValueError(f"no worker slot {slot}")
            if self._alive(slot):
                return False
            old_queue = self._task_queues[slot]
            self._task_queues[slot] = self._context.SimpleQueue()
            self._workers[slot] = self._start_worker(slot)
            try:
                old_queue.close()
            except OSError:
                pass
            return True

    def _get_result(self, wait: float):
        """One ``(job_id, status, payload)`` off any worker's result
        pipe, or :class:`queue.Empty` after ``wait`` seconds.

        Results arrive on per-worker pipes (no shared lock — see
        :func:`_worker_main`), polled together with
        :func:`multiprocessing.connection.wait`.  A pipe at EOF — its
        worker died, possibly mid-``send``, leaving at most a torn
        message that dies with the pipe — is retired here and ends the
        wait at once (:class:`queue.Empty`), so the caller's repair
        path reroutes whatever the worker was carrying without waiting
        for ``is_alive()`` to notice.  Only this process's client
        thread ever reads results, so wait-then-recv cannot race
        another reader.
        """
        deadline = time.monotonic() + wait
        while True:
            with self._lock:
                readers = [
                    conn
                    for conn in self._result_readers
                    if conn is not None
                ]
                readers.extend(self._retired_readers)
            remaining = deadline - time.monotonic()
            if not readers:
                # Nothing can ever answer; behave like a timed-out
                # wait so the caller runs its repair path.
                if remaining > 0:
                    time.sleep(remaining)
                raise queue_module.Empty
            ready = multiprocessing.connection.wait(
                readers, timeout=max(0.0, remaining)
            )
            if not ready:
                raise queue_module.Empty
            for conn in ready:
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    self._retire_reader(conn)
                    raise queue_module.Empty from None
            if time.monotonic() >= deadline:
                raise queue_module.Empty

    def _retire_reader(self, conn) -> None:
        """Close and forget a result pipe that reached EOF (its worker,
        the only writer, is gone)."""
        with self._lock:
            try:
                self._retired_readers.remove(conn)
            except ValueError:
                for slot, reader in enumerate(self._result_readers):
                    if reader is conn:
                        self._result_readers[slot] = None
        try:
            conn.close()
        except OSError:
            pass
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.wake()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        s: int,
        t: int,
        w: float,
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> float:
        """Answer one ``(s, t, w)`` constrained-distance query."""
        return self.query_batch(
            [(s, t, w)], timeout=timeout, retries=retries
        )[0]

    def query_batch(
        self,
        queries: Sequence[Tuple[int, int, float]],
        *,
        chunk_size: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        trace_sink=None,
    ) -> List[float]:
        """Answer a batch of ``(s, t, w)`` queries, preserving order.

        The batch is split into ``chunk_size`` pieces dealt round-robin
        over the live workers' task queues.  By default it goes out as
        one chunk per live worker — so on one worker a small batch (a
        coalesced TCP batch, a burst of cache misses) is one round trip
        and one kernel call — and is cut finer, up to
        :data:`_CHUNKS_PER_WORKER` chunks per worker, only while every
        chunk keeps :data:`_MIN_CHUNK` queries.

        ``timeout`` (seconds, default none) deadlines every chunk from
        its dispatch; ``retries`` (default 2) bounds how many times a
        chunk is redispatched to another live worker after its owner
        died or its deadline passed.  When the budget is exhausted the
        batch raises :class:`QueryTimeoutError` (deadline missed with
        live workers) or :class:`PoolUnavailableError` (no live worker
        left) — or, with ``fallback=True``, the unanswered chunks are
        answered in-process off the shared image and the batch still
        returns.  A dead pool always fails fast, never blocks.

        ``trace_sink`` (a ``sink(name, start, end, **meta)`` callable)
        receives one ``pool-dispatch`` span covering the fan-out and
        gather of this batch — the worker-job-protocol leg of a sampled
        per-query trace.
        """
        if self._image is None:
            raise RuntimeError("query server is closed")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries is None:
            retries = _DEFAULT_RETRIES
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        queries = list(queries)
        if not queries:
            return []
        dispatch_start = time.monotonic() if trace_sink is not None else 0.0
        live = self._live_workers()
        if not live:
            return self._answer_in_process(
                queries, "no live query workers"
            )
        if chunk_size is None:
            per_worker = -(-len(queries) // len(live))
            finest = -(-per_worker // _CHUNKS_PER_WORKER)
            chunk_size = max(finest, min(per_worker, _MIN_CHUNK))
        elif chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")

        chunks = [
            _Chunk(at, queries[at:at + chunk_size])
            for at in range(0, len(queries), chunk_size)
        ]
        answers: List[float] = [0.0] * len(queries)
        jobs: Dict[int, _Chunk] = {}
        pending = set()
        for chunk in chunks:
            if self._dispatch(chunk, jobs, timeout):
                pending.add(chunk)
            else:
                self._fill_in_process(
                    [chunk], answers, "no live query workers"
                )
        while pending:
            wait = _POLL_SECONDS
            if timeout is not None:
                nearest = min(
                    chunk.deadline for chunk in pending
                    if chunk.deadline is not None
                )
                wait = max(
                    _MIN_WAIT, min(_POLL_SECONDS, nearest - time.monotonic())
                )
            try:
                job_id, status, payload = self._get_result(wait)
            except queue_module.Empty:
                self._repair_stalls(
                    pending, answers, jobs, timeout, retries
                )
                continue
            chunk = jobs.get(job_id)
            if chunk is None or chunk not in pending:
                continue  # stale result of a superseded or earlier job
            if status == "error":
                raise RuntimeError(f"query worker failed: {payload}")
            answers[chunk.start:chunk.start + len(payload)] = payload
            pending.discard(chunk)
        if trace_sink is not None:
            trace_sink(
                "pool-dispatch",
                dispatch_start,
                time.monotonic(),
                chunks=len(chunks),
                chunk_size=chunk_size,
                workers=len(live),
            )
        return answers

    def _dispatch(
        self, chunk: _Chunk, jobs: Dict[int, _Chunk], timeout
    ) -> bool:
        """Hand ``chunk`` to the next live worker (round-robin); returns
        ``False`` when no worker is live."""
        with self._lock:
            live = self._live_workers()
            if not live:
                return False
            slot, process = live[next(self._round_robin) % len(live)]
            job_id = self._next_job
            self._next_job += 1
            if chunk.attempts:
                self._redispatches += 1
            chunk.attempts += 1
            chunk.owner = process
            chunk.pipe = self._result_readers[slot]
            chunk.deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            jobs[job_id] = chunk
            self.chunk_sizes.observe(len(chunk.queries))
            self._task_queues[slot].put((job_id, "query", chunk.queries))
            return True

    def _repair_stalls(
        self, pending, answers, jobs, timeout, retries
    ) -> None:
        """Redispatch (or fail) every pending chunk whose owner died or
        whose deadline passed.  Called from the result-poll loop on
        every empty wait.  An owner is dead once its result pipe is
        retired at EOF, even before ``is_alive()`` reports it."""
        now = time.monotonic()
        for chunk in list(pending):
            dead = chunk.pipe.closed or not chunk.owner.is_alive()
            late = chunk.deadline is not None and now >= chunk.deadline
            if not dead and not late:
                continue
            if chunk.attempts <= retries and self._dispatch(
                chunk, jobs, timeout
            ):
                continue  # rerouted to a live worker; keep waiting
            # Retry budget exhausted, or nobody alive to take it.
            if self._fallback_enabled:
                self._fill_in_process(pending, answers, None)
                pending.clear()
                return
            if not self._live_workers():
                raise PoolUnavailableError(
                    "no live query workers: the whole pool died with "
                    f"chunks of this batch assigned (last owner "
                    f"{chunk.owner.name}, exitcode {chunk.owner.exitcode})"
                )
            if dead:
                raise PoolUnavailableError(
                    f"chunk lost {chunk.attempts} worker(s) in a row "
                    f"(last: {chunk.owner.name}, exitcode "
                    f"{chunk.owner.exitcode}); retry budget exhausted"
                )
            raise QueryTimeoutError(
                f"chunk missed its {timeout}s deadline "
                f"{chunk.attempts} time(s); retry budget exhausted"
            )

    # ------------------------------------------------------------------
    # Graceful degradation (in-process fallback)
    # ------------------------------------------------------------------
    def _fallback(self):
        """The lazily attached in-process engine over the current image."""
        if self._fallback_engine is None:
            self._fallback_engine = self._image.attach_engine(
                backend=self._kernel
            )
        return self._fallback_engine

    def _release_fallback(self) -> None:
        engine, self._fallback_engine = self._fallback_engine, None
        if engine is not None:
            engine.release()

    def _answer_in_process(self, queries, reason: str) -> List[float]:
        """A whole batch answered by the fallback engine — or the typed
        refusal when fallback is off."""
        if not self._fallback_enabled:
            raise PoolUnavailableError(reason)
        return self._fallback().distance_many(queries)

    def _fill_in_process(self, chunks, answers, reason) -> None:
        """Answer the given chunks in-process (fallback on), or raise."""
        if not self._fallback_enabled:
            raise PoolUnavailableError(reason)
        engine = self._fallback()
        for chunk in chunks:
            answers[chunk.start:chunk.start + len(chunk.queries)] = (
                engine.distance_many(chunk.queries)
            )

    # ------------------------------------------------------------------
    # Hot republish
    # ------------------------------------------------------------------
    def attach_cache(self, cache):
        """Register an :class:`~repro.serve.cache.AnswerCache`: every
        :meth:`swap_image` forwards its dirty set (or orders a flush)
        so cached answers never outlive the image they were computed
        from, and :meth:`health` reports the cache counters.  Returns
        the cache."""
        with self._lock:
            if cache not in self._caches:
                self._caches.append(cache)
        return cache

    def swap_image(
        self,
        source,
        *,
        validate: bool = True,
        segment_name: Optional[str] = None,
        dirty=None,
        incremental: bool = False,
    ) -> None:
        """Swap the pool over to a new index image with no downtime.

        Publishes ``source`` (any engine or index path) as a new shared
        segment, tells every live worker to re-attach, waits for the
        acks, then unlinks the old generation.  Call between batches —
        the facade is synchronous, so no query can be in flight — and
        every batch issued after this returns answers from the new
        image.  Workers that die mid-swap are routed around like on the
        query path; if none survive, the swap still commits (the pool
        then raises on the next batch).  The server lock is held
        throughout, so a supervisor respawn can never land between the
        re-attach orders and the old generation's unlink — respawned
        workers always attach the committed generation.

        ``dirty`` / ``incremental`` describe the update that produced
        ``source`` (the journal's dirty-vertex set, and whether the
        refreeze kept the vertex order): attached answer caches evict
        precisely the entries depending on a dirty vertex when
        ``incremental=True``, and flush entirely otherwise — the
        default, so a swap of unknown provenance can never serve stale
        answers.
        """
        if self._image is None:
            raise RuntimeError("query server is closed")
        new_image = ShmIndexImage(source, validate=validate, name=segment_name)
        with self._lock:
            live = [slot for slot, _ in self._live_workers()]
            if not live:
                new_image.destroy()
                raise PoolUnavailableError("no live query workers to swap")
            pending: Dict[int, int] = {}
            for index in live:
                job_id = self._next_job
                self._next_job += 1
                try:
                    self._task_queues[index].put(
                        (job_id, "swap", new_image.name)
                    )
                except Exception:
                    # The swap order cannot reach this worker, so it
                    # would keep serving the generation about to be
                    # unlinked; stop it rather than leave a stale
                    # answerer routed to.
                    process = self._workers[index]
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=1.0)
                    continue
                pending[job_id] = index
            while pending:
                try:
                    job_id, status, _payload = self._get_result(
                        _POLL_SECONDS
                    )
                except queue_module.Empty:
                    live_slots = {slot for slot, _ in self._live_workers()}
                    for job, owner in list(pending.items()):
                        if owner not in live_slots:
                            pending.pop(job)
                    continue
                if job_id not in pending:
                    continue  # stale result of an earlier failed batch
                pending.pop(job_id)
                # An "error" ack means the worker could not attach the
                # new generation and exited; survivors carry the pool.
            self._release_fallback()
            old_image, self._image = self._image, new_image
        old_image.destroy()
        # Only after the swap committed: evicting earlier would let a
        # recomputation against the outgoing generation refill the
        # cache with answers the new image contradicts (stale fills in
        # flight across the swap are dropped by their generation token).
        engine = source if hasattr(source, "num_vertices") else None
        for cache in self._caches:
            cache.on_republish(
                engine=engine, dirty=dirty, incremental=incremental
            )

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._workers)

    @property
    def supervisor(self):
        """The attached :class:`~repro.serve.supervisor.Supervisor`, or
        ``None`` when the pool runs unsupervised."""
        return self._supervisor

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel backend name every worker (and the in-process
        fallback) answers with — ``"stdlib"`` or ``"numpy"``."""
        return self._kernel

    @property
    def image_name(self) -> str:
        """Segment name of the currently published image."""
        if self._image is None:
            raise RuntimeError("query server is closed")
        return self._image.name

    @property
    def image_bytes(self) -> int:
        """Size of the published index image in bytes."""
        if self._image is None:
            raise RuntimeError("query server is closed")
        return self._image.size

    @property
    def closed(self) -> bool:
        return self._image is None

    def dispatch_snapshot(self) -> dict:
        """The pool's dispatch bookkeeping: chunks handed to workers,
        redispatches (repairs after a death or deadline miss), and the
        chunk-size summary of :attr:`chunk_sizes`."""
        chunk_sizes = size_summary(self.chunk_sizes)
        with self._lock:
            redispatches = self._redispatches
        return {
            "chunks": chunk_sizes["batches"],
            "redispatches": redispatches,
            "chunk_sizes": chunk_sizes,
        }

    def health(self) -> dict:
        """The one structured pool snapshot (:mod:`repro.serve.health`):
        overall state, segment/epoch, kernel, and per-worker liveness —
        with restart counts and backoff states when supervised, the
        attached answer cache's counters under ``"cache"``, and the
        dispatch bookkeeping under ``"dispatch"``."""
        if self._supervisor is not None:
            report = self._supervisor.health()
        elif self._image is None:
            report = closed_report(kernel=self._kernel, supervised=False)
        else:
            report = pool_report(
                segment=self._image.name,
                kernel=self._kernel,
                workers=self.worker_states(),
                supervised=False,
            )
        if self._caches:
            report["cache"] = self._caches[0].snapshot()
        report["dispatch"] = self.dispatch_snapshot()
        return report

    def close(self) -> None:
        """Shut the pool down and release/unlink the shared segment
        (idempotent).  Queued work finishes first — each worker's
        sentinel lines up behind it on that worker's own queue."""
        # Stop the supervisor before taking the lock: its thread takes
        # the same lock to respawn, and joining it while holding the
        # lock would deadlock.
        supervisor, self._supervisor = self._supervisor, None
        if supervisor is not None:
            supervisor.stop()
        with self._lock:
            image = self._image
            if image is None:
                return
            self._image = None
            self._release_fallback()
            for tasks in self._task_queues:
                tasks.put(None)
        # One deadline for the whole pool, so a stuck pool of N workers
        # takes as long to close as a stuck pool of one.
        deadline = time.monotonic() + _SHUTDOWN_SECONDS
        for process in self._workers:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        laggards = [p for p in self._workers if p.is_alive()]
        for process in laggards:
            process.terminate()
        for process in laggards:
            process.join(timeout=1.0)
        for tasks in self._task_queues:
            tasks.close()
        with self._lock:
            readers = [
                conn for conn in self._result_readers if conn is not None
            ]
            readers.extend(self._retired_readers)
            self._result_readers = [None] * len(self._result_readers)
            del self._retired_readers[:]
        for conn in readers:
            try:
                conn.close()
            except OSError:
                pass
        image.destroy()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        if self._image is None:
            return "QueryServer(closed)"
        return (
            f"QueryServer(workers={len(self._workers)}, "
            f"image={self._image.size} bytes)"
        )
