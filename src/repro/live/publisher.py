"""Hot republish: zero-downtime epoch swaps of a serving pool.

:class:`LivePublisher` closes the loop from graph mutation to serving
fleet.  It owns

* a journaled live index (:mod:`repro.live.tracked` — the list engine
  stays the source of truth),
* a frozen snapshot of the last published state (the refreeze baseline),
* a :class:`~repro.serve.server.QueryServer` pool serving the current
  generation out of shared memory, and
* optionally an on-disk ``.wcxb`` image kept in sync.

Each :meth:`LivePublisher.apply` / :meth:`LivePublisher.republish` turns
the journal's dirty set into generation ``N+1``: incremental refreeze
(:mod:`repro.live.refreeze`), image update (in-place byte-range patch,
appended delta blob, or full rewrite), then an epoch-numbered
shared-memory swap — generation ``N+1`` is published under a fresh
segment name, the workers flip over between batches, and generation
``N`` is unlinked.  Queries issued before the swap answer from the old
index, queries after from the new one; none are dropped.

The sequence is crash-safe when an ``image_path`` is kept: every
republish brackets the image write with an epoch manifest
(:mod:`repro.live.recovery` — ``publishing`` before, ``committed``
after the swap), so a publisher restarted over the same image detects a
half-published generation, rolls a torn delta back or finishes the
commit, and sweeps the dead predecessor's shared-memory segments.  The
report lands in :attr:`LivePublisher.recovered`.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from ..core.serialize import save_frozen
from ..serve.faults import NO_FAULTS, FaultPlan, InjectedCrash
from ..serve.server import QueryServer
from .recovery import (
    STATE_COMMITTED,
    STATE_PUBLISHING,
    RecoveryReport,
    recover_publish,
    write_manifest,
)
from .refreeze import apply_image_update, refreeze

PathLike = Union[str, Path]

#: Image update modes for publishers that keep an on-disk image.
IMAGE_MODES = ("patch", "delta", "rewrite")

#: Distinguishes segment names of publishers living in one process.
_instance_ids = itertools.count()


@dataclass
class PublishReport:
    """What one republish did."""

    epoch: int
    ops: int
    dirty_count: int
    incremental: bool
    segment_name: Optional[str] = None
    image_mode: Optional[str] = None
    image_bytes_written: Optional[int] = None

    @property
    def published(self) -> bool:
        return self.segment_name is not None


class LivePublisher:
    """A serving pool that absorbs journaled updates with epoch swaps.

    ``live`` is a journaled wrapper from :mod:`repro.live.tracked` (any
    family).  ``image_path`` (optional) names a ``.wcxb`` file the
    publisher creates and keeps updated per ``image_mode``:

    * ``"patch"`` (default) — rewrite only the changed byte ranges in
      place; the file stays the canonical v3 image.
    * ``"delta"`` — append a delta blob per batch; cheapest write, the
      chain is compacted to canonical on the next full rewrite.
    * ``"rewrite"`` — full ``save_frozen`` every batch.

    Shared-memory generations are epoch-numbered: segment names are
    ``<prefix>g<epoch>`` so an operator can see which generation a pool
    serves in ``/dev/shm``.

    Robustness knobs forward to the pool: ``supervise`` starts a
    :class:`~repro.serve.supervisor.Supervisor` (tuned via
    ``supervisor_options``), ``fallback`` arms the in-process
    degradation path, and ``fault_plan`` threads a deterministic
    :class:`~repro.serve.faults.FaultPlan` through the workers *and*
    this publisher (``fail_republish_at`` raises
    :class:`~repro.serve.faults.InjectedCrash` after the image write
    but before the swap — the exact window the manifest protects).
    """

    def __init__(
        self,
        live,
        *,
        workers: int = 2,
        image_path: Optional[PathLike] = None,
        image_mode: str = "patch",
        start_method: Optional[str] = None,
        segment_prefix: Optional[str] = None,
        supervise: bool = False,
        supervisor_options: Optional[dict] = None,
        fallback: bool = False,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if image_mode not in IMAGE_MODES:
            raise ValueError(
                f"unknown image mode {image_mode!r}; "
                f"choose from {IMAGE_MODES}"
            )
        self._live = live
        self._image_mode = image_mode
        self._image_path = Path(image_path) if image_path is not None else None
        self._epoch = 0
        #: Publish counters (the metrics bridge reads these at scrape
        #: time): committed republishes and journal ops applied.
        self._publishes = 0
        self._ops_applied = 0
        self._prefix = (
            segment_prefix
            if segment_prefix is not None
            else f"wcx{os.getpid()}i{next(_instance_ids)}"
        )
        self._faults = fault_plan if fault_plan is not None else NO_FAULTS
        #: Report of the crash recovery run against ``image_path``
        #: before this publisher wrote anything; ``None`` without one.
        self.recovered: Optional[RecoveryReport] = None
        self._frozen = live.freeze()
        if self._image_path is not None:
            if self._image_path.exists():
                self.recovered = recover_publish(self._image_path)
            self._write_manifest(STATE_PUBLISHING, 0)
            save_frozen(self._frozen, self._image_path)
        self._server: Optional[QueryServer] = QueryServer(
            self._frozen,
            workers=workers,
            start_method=start_method,
            validate=False,
            segment_name=self._segment_name(0),
            supervise=supervise,
            supervisor_options=supervisor_options,
            fallback=fallback,
            fault_plan=self._faults,
        )
        if self._image_path is not None:
            self._write_manifest(STATE_COMMITTED, 0)

    def _segment_name(self, epoch: int) -> str:
        return f"{self._prefix}g{epoch}"

    def _write_manifest(self, state: str, epoch: int) -> None:
        write_manifest(
            self._image_path,
            {
                "state": state,
                "epoch": epoch,
                "pid": os.getpid(),
                "prefix": self._prefix,
                "image_mode": self._image_mode,
            },
        )

    # ------------------------------------------------------------------
    # Queries (served by the pool)
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
        return self._require_server().query(
            s, t, w, timeout=timeout, retries=retries
        )

    def query_batch(
        self,
        queries,
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
    ) -> List[float]:
        return self._require_server().query_batch(
            queries, timeout=timeout, retries=retries
        )

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def apply(self, mutations) -> PublishReport:
        """Apply a batch of parsed mutations and republish."""
        self._require_server()
        self._live.apply(mutations)
        return self.republish()

    def republish(self) -> PublishReport:
        """Publish the journal's accumulated updates as the next epoch.

        No-op (same epoch, nothing swapped) when the journal carries no
        dirt.  Otherwise: refreeze (incremental unless the vertex order
        changed), update the on-disk image, swap the pool, clear the
        journal.
        """
        server = self._require_server()
        journal = self._live.journal
        dirty = journal.dirty_vertices()
        ops = len(journal)
        if not dirty:
            journal.clear()
            return PublishReport(self._epoch, ops, 0, incremental=True)
        result = refreeze(self._frozen, self._live.index, dirty)
        epoch = self._epoch + 1
        mode = None
        bytes_written = None
        if self._image_path is not None:
            self._write_manifest(STATE_PUBLISHING, epoch)
            mode, bytes_written = apply_image_update(
                result, dirty, self._image_path, self._image_mode
            )
        if self._faults.fail_republish_at == epoch:
            # The fault harness's crash window: the image write landed,
            # the swap has not — exactly what recover_publish repairs.
            raise InjectedCrash(
                f"injected publisher crash before swapping epoch {epoch}"
            )
        name = self._segment_name(epoch)
        # The dirty set was captured before journal.clear(): attached
        # answer caches evict exactly the entries whose endpoints (or
        # hub reach) changed labels — or flush, if the order changed.
        server.swap_image(
            result.engine,
            validate=False,
            segment_name=name,
            dirty=dirty,
            incremental=result.incremental,
        )
        self._epoch = epoch
        self._frozen = result.engine
        self._publishes += 1
        self._ops_applied += ops
        journal.clear()
        if self._image_path is not None:
            self._write_manifest(STATE_COMMITTED, epoch)
        return PublishReport(
            epoch=epoch,
            ops=ops,
            dirty_count=result.dirty_count,
            incremental=result.incremental,
            segment_name=name,
            image_mode=mode,
            image_bytes_written=bytes_written,
        )

    # ------------------------------------------------------------------
    # Lifecycle / introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def publishes(self) -> int:
        """Committed republishes (no-op republishes excluded)."""
        return self._publishes

    @property
    def ops_applied(self) -> int:
        """Journal operations carried into committed republishes."""
        return self._ops_applied

    @property
    def live(self):
        return self._live

    @property
    def journal(self):
        return self._live.journal

    @property
    def image_path(self) -> Optional[Path]:
        return self._image_path

    @property
    def frozen(self):
        """The frozen engine of the currently published generation (the
        refreeze baseline — also what answer caches should bind to)."""
        return self._frozen

    @property
    def num_workers(self) -> int:
        return self._require_server().num_workers

    @property
    def server(self) -> QueryServer:
        """The serving pool (for clients and cache wiring)."""
        return self._require_server()

    def attach_cache(self, cache):
        """Register an answer cache with the pool: every republish
        forwards the journal's dirty set for precise invalidation (see
        :meth:`~repro.serve.server.QueryServer.attach_cache`)."""
        return self._require_server().attach_cache(cache)

    @property
    def segment_name(self) -> str:
        """Segment name of the generation currently served."""
        return self._require_server().image_name

    def health(self) -> dict:
        """The pool's structured health snapshot (see
        :meth:`~repro.serve.server.QueryServer.health`)."""
        return self._require_server().health()

    @property
    def closed(self) -> bool:
        return self._server is None

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        server, self._server = self._server, None
        if server is not None:
            server.close()

    def _require_server(self) -> QueryServer:
        if self._server is None:
            raise RuntimeError("live publisher is closed")
        return self._server

    def __enter__(self) -> "LivePublisher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        if self._server is None:
            return "LivePublisher(closed)"
        return (
            f"LivePublisher(epoch={self._epoch}, "
            f"workers={self._server.num_workers}, "
            f"family={self._live.family.name})"
        )
