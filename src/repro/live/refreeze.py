"""Incremental refreeze: dirty-vertex rebuilds of frozen images.

After a journaled update batch, the list engine (source of truth) and a
frozen snapshot of the pre-batch state disagree only on the journal's
dirty vertices.  :func:`incremental_refreeze` rebuilds *only those
vertices'* flat sections — every clean vertex's entries move as raw byte
runs through :func:`~repro.core.frozen.splice_column` — and returns a
frozen engine **bit-identical** to ``index.freeze()`` at a fraction of
the cost (the full freeze pays a Python-level loop per label entry; the
splice pays per *dirty* entry plus an O(n) offset walk).

Getting the new state onto disk has three shapes:

* :func:`make_patch` / :class:`DeltaPatch` — diff the old ``.wcxb`` v3
  image against the new canonical image and rewrite **only the changed
  byte ranges** (the 8-byte-aligned, size-stamped section layout keeps
  the diff ranges well-defined); the patched file is byte-identical to
  a from-scratch ``save_frozen``.  The default apply is *atomic* — it
  stages a full copy and swaps it in — so the patch's value is keeping
  the file canonical and crash-safe, not minimizing I/O; pass
  ``atomic=False`` for the true in-place write.
* :func:`~repro.core.serialize.append_delta` (re-exported here) — append
  the dirty vertices' replacement labels as a delta blob; the base image
  is untouched, so this is the cheapest write path (O(dirty) bytes) and
  loaders splice the chain back in at attach time.
* plain :func:`~repro.core.serialize.save_frozen` — the full rewrite,
  also the fallback when an update changed the vertex order (hub ranks
  are order-relative, so a new order dirties everything).

:func:`refreeze` wraps the decision: incremental when the order held,
full otherwise.
"""

from __future__ import annotations

import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..core.frozen import splice_label_side
from ..core.serialize import append_delta, save_frozen

__all__ = [
    "DeltaPatch",
    "append_delta",
    "apply_image_update",
    "diff_image",
    "fsync_directory",
    "incremental_refreeze",
    "make_patch",
    "refreeze",
]

PathLike = Union[str, Path]

#: Byte-compare granularity of :func:`diff_image`; dirty chunks coalesce
#: into write ranges, so the patch is at most this much wider per range
#: than the true byte diff.
_DIFF_CHUNK = 4096


def fsync_directory(directory: PathLike) -> None:
    """fsync ``directory`` so a just-``os.replace``\\d entry survives a
    crash.

    ``os.replace`` is atomic against concurrent readers but the *rename
    itself* lives in the directory, and directories have their own
    durability: until the directory inode is flushed, a power cut can
    roll the rename back and resurrect the old file.  Platforms whose
    directories cannot be opened (Windows) skip silently — the rename
    is still atomic there, just not durable-on-crash.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def incremental_refreeze(old_frozen, index, dirty):
    """Refreeze ``index`` against its pre-update frozen snapshot.

    ``old_frozen`` is the frozen engine of the state *before* the update
    batch, ``index`` the updated list engine of the same family, and
    ``dirty`` the vertices whose labels changed (a journal's
    ``dirty_vertices()``).  Returns a new frozen engine bit-identical to
    ``index.freeze()``; raises ``ValueError`` when the vertex order
    changed (every flat section is then stale — freeze from scratch, or
    use :func:`refreeze` which falls back automatically).
    """
    if list(old_frozen.order) != list(index.order):
        raise ValueError(
            "vertex order changed since the snapshot: hub ranks are "
            "order-relative, so every vertex is dirty; freeze() from "
            "scratch instead"
        )
    if old_frozen.tracks_parents != index.tracks_parents:
        raise ValueError(
            "parent tracking of the snapshot disagrees with the index"
        )
    family = getattr(old_frozen, "family", None)
    if not hasattr(old_frozen, "sides") or family is not index.family:
        raise TypeError(
            f"cannot refreeze {type(index).__name__} against a "
            f"{type(old_frozen).__name__}"
        )
    n = index.num_vertices
    dirty = sorted(set(dirty))
    if dirty and not (0 <= dirty[0] and dirty[-1] < n):
        raise ValueError(f"dirty vertex out of range [0, {n})")
    sides = [
        splice_label_side(
            old_side,
            {v: (*labels(v), *(parents(v) if parents else ())) for v in dirty},
        )
        for old_side, (labels, parents) in zip(
            old_frozen.sides(), family.side_sources(index)
        )
    ]
    return type(old_frozen).from_sides(index.order, sides)


@dataclass
class RefreezeResult:
    """Outcome of :func:`refreeze`."""

    engine: object
    incremental: bool
    dirty_count: int


def refreeze(old_frozen, index, dirty) -> RefreezeResult:
    """Incremental refreeze with the full-``freeze()`` fallback.

    Falls back when the vertex order changed (the one case splicing
    cannot express); the returned engine is identical either way.
    """
    dirty = set(dirty)
    try:
        engine = incremental_refreeze(old_frozen, index, dirty)
        return RefreezeResult(engine, True, len(dirty))
    except ValueError:
        if list(old_frozen.order) == list(index.order):
            raise  # a real argument error, not the order fallback
        return RefreezeResult(index.freeze(), False, len(dirty))


# ----------------------------------------------------------------------
# In-place image patching
# ----------------------------------------------------------------------
@dataclass
class DeltaPatch:
    """The byte ranges that turn one ``.wcxb`` image into another.

    Produced by :func:`diff_image` / :func:`make_patch`; applied with
    :meth:`apply`, which rewrites only the listed ranges and truncates
    or extends the file to the new size.  The result is byte-identical
    to writing the new image from scratch.
    """

    old_size: int
    new_size: int
    ranges: List[Tuple[int, bytes]]

    @property
    def bytes_written(self) -> int:
        return sum(len(chunk) for _, chunk in self.ranges)

    def apply(self, path: PathLike, *, atomic: bool = True) -> None:
        """Patch the image at ``path``.

        Refuses to touch a file whose size disagrees with the image the
        patch was computed against — a stale patch applied to the wrong
        image would corrupt it silently.

        ``atomic`` (default) stages the patch on a same-directory
        temporary copy, fsyncs, and ``os.replace``\\s it over ``path``:
        a crash mid-apply can never tear the only on-disk copy, and a
        process currently mmap-attached to ``path`` keeps reading its
        (old, intact) generation instead of seeing bytes change under
        it.  ``atomic=False`` writes the ranges straight into the file
        — cheapest, but only safe for images nothing is attached to and
        whose loss a rebuild can absorb.
        """
        path = Path(path)
        size = path.stat().st_size
        if size != self.old_size:
            raise ValueError(
                f"patch was computed against a {self.old_size}-byte "
                f"image, {path} has {size} bytes"
            )
        if not atomic:
            with open(path, "r+b") as out:
                for offset, chunk in self.ranges:
                    out.seek(offset)
                    out.write(chunk)
                out.truncate(self.new_size)
            return
        # A fresh staging name per apply: concurrent appliers of the
        # same image must not clobber each other's half-written copy.
        handle, staging = tempfile.mkstemp(
            prefix=path.name + ".patch-", dir=path.parent
        )
        os.close(handle)
        staging = Path(staging)
        try:
            shutil.copyfile(path, staging)
            with open(staging, "r+b") as out:
                for offset, chunk in self.ranges:
                    out.seek(offset)
                    out.write(chunk)
                out.truncate(self.new_size)
                out.flush()
                os.fsync(out.fileno())
            os.replace(staging, path)
            fsync_directory(path.parent)
        except Exception:
            staging.unlink(missing_ok=True)
            raise


def diff_image(old: bytes, new: bytes) -> DeltaPatch:
    """Chunk-granular byte diff of two images.

    Compares :data:`_DIFF_CHUNK`-sized chunks (C-level ``memcmp``, no
    per-byte Python work) and coalesces adjacent dirty chunks into write
    ranges; a size change forces everything past the common length into
    the final range.
    """
    common = min(len(old), len(new))
    view_old = memoryview(old)
    view_new = memoryview(new)
    ranges: List[Tuple[int, bytes]] = []
    start = None
    for at in range(0, common, _DIFF_CHUNK):
        stop = min(at + _DIFF_CHUNK, common)
        if view_old[at:stop] == view_new[at:stop]:
            if start is not None:
                ranges.append((start, bytes(view_new[start:at])))
                start = None
        elif start is None:
            start = at
    if len(new) > common:
        # The grown tail is one range, merged with a pending dirty run.
        at = start if start is not None else common
        ranges.append((at, bytes(view_new[at:])))
    elif start is not None:
        ranges.append((start, bytes(view_new[start:common])))
    return DeltaPatch(len(old), len(new), ranges)


def image_bytes(engine) -> bytes:
    """The canonical v3 image of ``engine`` as bytes."""
    buffer = io.BytesIO()
    save_frozen(engine, buffer)
    return buffer.getvalue()


def make_patch(old_image, engine) -> DeltaPatch:
    """A :class:`DeltaPatch` turning ``old_image`` (bytes or a ``.wcxb``
    path) into the canonical image of ``engine``."""
    if isinstance(old_image, (str, Path)):
        old = Path(old_image).read_bytes()
    else:
        old = bytes(old_image)
    return diff_image(old, image_bytes(engine))


def apply_image_update(
    result: RefreezeResult,
    dirty,
    path: PathLike,
    mode: str,
    *,
    source: Optional[PathLike] = None,
) -> Tuple[str, int]:
    """Write a :func:`refreeze` result into the v3 image at ``path``.

    The one place encoding the image-update policy (the CLI ``update``
    and :class:`~repro.live.publisher.LivePublisher` both defer here):
    ``"patch"`` rewrites only the changed byte ranges (staged on a
    temporary copy and atomically swapped in — see
    :meth:`DeltaPatch.apply`), ``"delta"`` appends a blob with the
    dirty vertices' labels, ``"rewrite"`` saves from scratch — and a
    non-incremental result (the order changed, so every section is
    stale) forces a rewrite whatever was requested.  When ``source``
    names a different file, ``path`` is seeded from it first — except
    on the rewrite path, which never reads the old image.  Returns
    ``(mode actually used, bytes written)``.
    """
    if mode not in ("patch", "delta", "rewrite"):
        raise ValueError(
            f"unknown image mode {mode!r}; "
            f"choose 'patch', 'delta' or 'rewrite'"
        )
    path = Path(path)
    if mode == "rewrite" or not result.incremental:
        save_frozen(result.engine, path)
        return "rewrite", path.stat().st_size
    if source is not None and Path(source) != path:
        shutil.copyfile(source, path)
    if mode == "delta":
        return "delta", append_delta(result.engine, path, sorted(dirty))
    patch = make_patch(path, result.engine)
    patch.apply(path)
    return "patch", patch.bytes_written
