"""Worker supervision: respawn, backoff, circuit breaker, health.

A :class:`Supervisor` watches a :class:`~repro.serve.server.QueryServer`
pool from a background thread and keeps it at full strength:

* a dead worker slot is **respawned** against the *current* shared
  image generation (the server's repair primitive,
  :meth:`~repro.serve.server.QueryServer.respawn_worker`, holds the
  same lock as image swaps — a respawn can never attach a generation
  about to be unlinked);
* consecutive deaths of one slot back off **exponentially** (first
  respawn is immediate — a one-off crash costs nothing — later ones
  wait ``backoff_base * 2^k`` capped at ``backoff_max``; the counter
  resets once a respawned worker survives ``backoff_reset`` seconds);
* a **circuit breaker** bounds the restart rate pool-wide: more than
  ``max_restarts`` respawns inside ``restart_window`` seconds marks the
  pool *degraded* and stops respawning — a poisoned image or a
  hard-crashing kernel must not turn the supervisor into a
  crash-looping fork bomb.  :meth:`reset` re-arms it.

:meth:`health` snapshots everything an operator needs: overall state
(``ok`` / ``degraded`` / ``unavailable``), the served segment and its
epoch, and per-slot liveness, restart counts and pids.  The supervisor
never touches answers — queries route, retry and fall back exactly as
without it; it only restores capacity.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import List, Optional


class Supervisor:
    """Respawn dead workers of a :class:`QueryServer`, rate-limited.

    Created (and started) by ``QueryServer(supervise=True, ...)``;
    direct construction is for tests that drive :meth:`check`
    synchronously instead of via the monitor thread.
    """

    def __init__(
        self,
        server,
        *,
        poll_interval: float = 0.05,
        max_restarts: int = 5,
        restart_window: float = 30.0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        backoff_reset: float = 5.0,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive: {poll_interval}")
        if max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1: {max_restarts}")
        if restart_window <= 0:
            raise ValueError(f"restart_window must be positive: {restart_window}")
        self._server = server
        self._poll_interval = poll_interval
        self._max_restarts = max_restarts
        self._restart_window = restart_window
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._backoff_reset = backoff_reset
        workers = server.num_workers
        #: Total respawns per slot (monotonic; health's restart counts).
        self._restarts: List[int] = [0] * workers
        #: Consecutive quick deaths per slot (drives the backoff).
        self._consecutive: List[int] = [0] * workers
        #: Monotonic time each slot's current worker was (re)spawned.
        self._spawned_at: List[Optional[float]] = [None] * workers
        #: Scheduled respawn time per slot (None = not scheduled).
        self._due: List[Optional[float]] = [None] * workers
        #: Recent respawn timestamps (the circuit breaker's window).
        self._events = deque()
        self._degraded = False
        self._stop_event = threading.Event()
        #: Cuts the poll wait short (:meth:`wake`, :meth:`stop`).
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Monitor loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the monitor thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="wcindex-supervisor"
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop and join the monitor thread (idempotent)."""
        self._stop_event.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)

    def wake(self) -> None:
        """Run the next supervision pass now instead of at the end of
        the poll interval — the server calls this when a worker's result
        pipe reaches EOF, so a dead worker is replaced without waiting
        out the poll."""
        self._wake.set()

    def _run(self) -> None:
        while True:
            self._wake.wait(self._poll_interval)
            self._wake.clear()
            if self._stop_event.is_set():
                return
            try:
                self.check()
            except Exception:
                # The server is closing underneath us; the stop() in
                # close() ends the loop on the next wait.
                if self._server.closed:
                    return

    def check(self, now: Optional[float] = None) -> int:
        """One supervision pass; returns how many workers were respawned.

        Public so tests (and synchronous callers) can drive supervision
        deterministically without the thread.
        """
        server = self._server
        if server.closed:
            return 0
        if now is None:
            now = time.monotonic()
        respawned = 0
        for state in server.worker_states():
            slot = state["slot"]
            if state["alive"]:
                # A worker that survived long enough earns its slot a
                # clean backoff slate.
                spawned = self._spawned_at[slot]
                if (
                    self._consecutive[slot]
                    and spawned is not None
                    and now - spawned >= self._backoff_reset
                ):
                    self._consecutive[slot] = 0
                continue
            if self._degraded:
                continue
            if self._due[slot] is None:
                self._due[slot] = now + self._backoff_delay(slot)
            if now < self._due[slot]:
                continue
            self._prune_events(now)
            if len(self._events) >= self._max_restarts:
                # Restart storm: stop respawning, mark degraded.  The
                # pool keeps serving on whatever workers survive (and
                # the fallback engine if enabled).
                self._degraded = True
                continue
            if server.respawn_worker(slot):
                self._due[slot] = None
                self._restarts[slot] += 1
                self._consecutive[slot] += 1
                self._spawned_at[slot] = now
                self._events.append(now)
                respawned += 1
        return respawned

    def _backoff_delay(self, slot: int) -> float:
        """Exponential per-slot backoff; a first death respawns at once."""
        consecutive = self._consecutive[slot]
        if consecutive == 0:
            return 0.0
        return min(
            self._backoff_max, self._backoff_base * (2 ** (consecutive - 1))
        )

    def _prune_events(self, now: float) -> None:
        while self._events and now - self._events[0] > self._restart_window:
            self._events.popleft()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the circuit breaker opened (sticky; see :meth:`reset`)."""
        return self._degraded

    @property
    def total_restarts(self) -> int:
        return sum(self._restarts)

    @property
    def restart_counts(self) -> List[int]:
        """Per-slot respawn totals (a copy; the metrics bridge reads
        this at scrape time)."""
        return list(self._restarts)

    def reset(self) -> None:
        """Re-arm an open circuit breaker and forget the restart history."""
        self._events.clear()
        self._degraded = False
        self._consecutive = [0] * len(self._consecutive)
        self._due = [None] * len(self._due)

    def health(self) -> dict:
        """The supervised pool snapshot (the shared shape of
        :mod:`repro.serve.health`, with restart counts and per-slot
        backoff states filled in)."""
        from .health import closed_report, pool_report

        server = self._server
        try:
            segment = server.image_name
        except RuntimeError:  # closed (possibly mid-call — close races us)
            return closed_report(
                kernel=server.kernel_backend, supervised=True
            )
        workers = server.worker_states()
        now = time.monotonic()
        slot_states = {}
        for state in workers:
            slot = state["slot"]
            if state["alive"]:
                continue
            if self._degraded:
                slot_states[slot] = "dead"
            elif self._due[slot] is not None and now < self._due[slot]:
                slot_states[slot] = "backoff"
            else:
                slot_states[slot] = "respawning"
        return pool_report(
            segment=segment,
            kernel=server.kernel_backend,
            workers=workers,
            supervised=True,
            slot_restarts=self._restarts,
            slot_states=slot_states,
            degraded=self._degraded,
        )

    def __repr__(self) -> str:
        state = "degraded" if self._degraded else "ok"
        return (
            f"Supervisor({state}, restarts={self.total_restarts}, "
            f"window={self._restart_window}s)"
        )
