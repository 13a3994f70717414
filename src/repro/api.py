"""The unified index-opening entry point: :func:`open_index`.

A saved index is one ``.wcxb`` v3 image (:mod:`repro.core.serialize`),
and it can back a frozen engine three ways: copied out of a file
(:func:`~repro.core.serialize.load_frozen`), attached zero-copy to an
mmap of the file or to any buffer
(:func:`~repro.core.serialize.attach_frozen`), or attached to a
published shared-memory segment (:func:`~repro.serve.shm.attach_image`).
:func:`open_index` is the one front door over all of them: say *how*
the engine should be backed (``mode``) and *which kernel* should answer
(``backend``).  It always returns the frozen engine of the family the
image holds; ``.thaw()`` gives the list-backed engine.  The CLI
``query`` / ``stats`` / ``serve`` commands all route through it.
"""

from __future__ import annotations

from pathlib import Path

from .core.serialize import load_frozen

__all__ = ["open_index"]

_MODES = ("read", "mmap", "shm", "attach")


def open_index(source, *, mode: str = "read", backend="auto"):
    """Open ``source`` as a frozen query engine.

    ``source`` is a path to a ``.wcxb`` v3 image (any file name: the
    format is recognised by its magic bytes), a shared-memory segment
    name (``mode="shm"``), or a buffer exporting the image bytes
    (``mode="attach"``).  A file that is not a v3 image raises
    :class:`~repro.core.serialize.IndexFormatError`.

    ``mode`` picks the storage behind the engine:

    * ``"read"`` (default) — sections copied into owned arrays.
    * ``"mmap"`` — zero-copy typed views over an mmap of the file
      (``load_frozen(mode="mmap")``).
    * ``"shm"`` — attach to a published shared-memory segment by name
      (:func:`~repro.serve.shm.attach_image`); returns the engine, and
      closing/releasing it detaches the segment.
    * ``"attach"`` — zero-copy attach to a buffer already in memory
      (:func:`~repro.core.serialize.attach_frozen`).

    ``backend`` selects the batch-kernel backend (``"auto"`` /
    ``"stdlib"`` / ``"numpy"``).  Every returned engine answers
    ``distance`` / ``distance_many`` identically — mode and backend are
    performance choices, never answer changes.
    """
    if mode not in _MODES:
        raise ValueError(
            f"unknown mode {mode!r}; use one of {', '.join(_MODES)}"
        )
    if mode == "shm":
        return _attach_shm(source, backend)
    if mode == "attach":
        from .core.serialize import attach_frozen

        return attach_frozen(source, backend=backend)
    if not isinstance(source, (str, Path)):
        raise TypeError(
            f"mode={mode!r} opens a path; got {type(source).__name__} "
            f"(buffers need mode='attach', segment names mode='shm')"
        )
    return load_frozen(source, mode=mode, backend=backend)


class _ShmEngine:
    """A frozen engine attached to a shared-memory segment, owning the
    attach lifetime: ``release()`` (or ``close()``) detaches both the
    engine views and the segment.  All query methods delegate."""

    def __init__(self, attached) -> None:
        self._attached = attached
        self._engine = attached.engine

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def release(self) -> None:
        attached, self._attached = self._attached, None
        if attached is not None:
            attached.close()

    close = release

    def __enter__(self) -> "_ShmEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        state = "detached" if self._attached is None else "attached"
        return f"_ShmEngine({type(self._engine).__name__}, {state})"


def _attach_shm(segment_name, backend):
    from .serve.shm import attach_image

    if not isinstance(segment_name, str):
        raise TypeError(
            f"mode='shm' opens a segment name, got "
            f"{type(segment_name).__name__}"
        )
    return _ShmEngine(attach_image(segment_name, backend=backend))
