"""Publishing and attaching frozen index images in shared memory.

The creator serializes an index to the v3 ``.wcxb`` layout and copies it
into one ``multiprocessing.shared_memory`` segment
(:class:`ShmIndexImage`); attachers map the same pages by name and build
zero-copy engines over them (:func:`attach_image` →
:class:`AttachedIndex`).  Ownership is asymmetric, like the POSIX
objects underneath: the creator closes *and unlinks* the segment
(:meth:`ShmIndexImage.destroy`), attachers only close their own mapping
(:meth:`AttachedIndex.close`) — and attach untracked, so worker exits
neither double-unlink the segment nor trip ``resource_tracker`` leak
warnings.

Every family is the one :class:`~repro.core.frozen.FrozenIndex` engine,
so one segment layout serves all three.  An image path holding a plain
v3 image is published byte for byte; a delta-carrying image is re-saved
as a canonical v3 image first, and a file that is not a v3 image (a
v1/v2 image, a retired text index) is rejected with
:class:`~repro.core.serialize.IndexFormatError`.
"""

from __future__ import annotations

import io
import threading
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Optional, Union

from ..core.serialize import (
    attach_frozen,
    describe_frozen,
    load_frozen,
    save_frozen,
)

PathLike = Union[str, Path]


def _image_bytes(source, validate: bool) -> bytes:
    """The v3 image of ``source`` — an index engine of any family (list
    engines are frozen first) or an image path (a delta-carrying image
    is normalized to a canonical v3 image so attachers can cast into
    the segment).

    ``validate`` applies to path sources: the integrity scan runs once
    here, at publish time, because attachers skip it — an engine source
    was produced in-process and needs no scan.
    """
    if isinstance(source, (str, Path)):
        if not describe_frozen(source)["deltas"]:
            data = Path(source).read_bytes()
            if validate:
                attach_frozen(data, validate=True).release()
            return data
        # A delta chain would force every attacher through the copying
        # splice path; compact it at publish time so the workers keep
        # their zero-copy attach.
        source = load_frozen(source, validate=validate)
    buffer = io.BytesIO()
    save_frozen(source, buffer)
    return buffer.getvalue()


#: Serializes the pre-3.13 registration-suppression window below.
_REGISTER_PATCH_LOCK = threading.Lock()


def _open_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without registering it with the
    resource tracker.

    The creator owns the segment's lifetime; before Python 3.13 a plain
    attach also registers with the tracker, which double-unlinks the
    segment and spams "leaked shared_memory objects" warnings when the
    attaching process exits.  Registration is *suppressed* rather than
    undone afterwards: forked workers share the creator's tracker
    process, so an unregister there would erase the creator's own
    registration (and a second one crashes the tracker loop).

    The suppression briefly patches ``resource_tracker.register``
    process-wide (serialized by a lock); on Python < 3.13 an unrelated
    thread creating its own ``SharedMemory`` at the same instant would
    also skip registration.  3.13+ uses the real ``track=False``.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        with _REGISTER_PATCH_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                return shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


def _unregister_quietly(shm: shared_memory.SharedMemory) -> None:
    """Drop ``shm``'s resource-tracker registration, ignoring every
    failure — the registration may already be gone (3.13+ unlinks
    unregister themselves) or the tracker may not be running."""
    try:
        resource_tracker.unregister(
            getattr(shm, "_name", shm.name), "shared_memory"
        )
    except Exception:
        pass


class ShmIndexImage:
    """One frozen index image published in shared memory (creator side).

    ``source`` is any index engine (frozen or list-backed, all three
    families) or a ``.wcxb`` path.  The segment holds the plain v3 image,
    so ``attach_image(image.name)`` — from this or any other process —
    serves it zero-copy.  The publisher owns the segment: call
    :meth:`destroy` (or use the image as a context manager) to release
    and unlink it; the segment is immutable once published.

    Validation happens here, once, at publish time (attachers always
    skip it): a path source is integrity-scanned before publishing so a
    corrupt file fails loudly instead of being served; pass
    ``validate=False`` for trusted images to publish at raw read speed.
    Engine sources were produced in-process and are published as-is.
    """

    def __init__(
        self, source, *, name: Optional[str] = None, validate: bool = True
    ) -> None:
        data = _image_bytes(source, validate)
        self._shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(
                create=True, size=max(len(data), 1), name=name
            )
        )
        self._shm.buf[: len(data)] = data
        self.name: str = self._shm.name
        #: Exact image size — the segment itself is page-rounded.
        self.size: int = len(data)

    def attach_engine(self, *, validate: bool = False, backend=None):
        """A zero-copy frozen engine over the creator's own mapping.

        ``backend`` selects the kernel backend of the returned engine
        (see :func:`repro.core.kernels.resolve_backend`).

        Call ``engine.release()`` before :meth:`destroy`.
        """
        if self._shm is None:
            raise ValueError("shared-memory image already destroyed")
        return attach_frozen(
            self._shm.buf, validate=validate, exact=False, backend=backend
        )

    def destroy(self) -> None:
        """Close the local mapping and unlink the segment (idempotent —
        including against the segment being unlinked *externally*, e.g.
        by a sweeping supervisor's :func:`~repro.serve.recovery.recover_segments`
        after this process was presumed dead).

        The segment is unlinked *before* the close, so a destroy can
        never leave it behind in ``/dev/shm`` — even when closing
        raises ``BufferError`` because an engine from
        :meth:`attach_engine` was not released.  In that case the
        handle is kept so the caller can ``engine.release()`` and call
        :meth:`destroy` again to finish the close cleanly.
        """
        shm = self._shm
        if shm is None:
            return
        try:
            shm.unlink()
        except FileNotFoundError:
            # Already unlinked — by a failed earlier destroy, or by an
            # external sweep.  unlink() raised before it could drop the
            # creator's resource-tracker registration, so drop it here:
            # a stale registration makes the tracker unlink a *future*
            # segment of the same name and spam warnings at exit.
            _unregister_quietly(shm)
        shm.close()
        self._shm = None

    def close(self) -> None:
        """Alias of :meth:`destroy` — the creator closing its image
        always also unlinks it (ownership is asymmetric; see the module
        docstring)."""
        self.destroy()

    def __enter__(self) -> "ShmIndexImage":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()

    def __repr__(self) -> str:
        state = "destroyed" if self._shm is None else f"{self.size} bytes"
        return f"ShmIndexImage(name={self.name!r}, {state})"


class AttachedIndex:
    """A frozen engine borrowed from a shared-memory image (attacher
    side): :attr:`engine` reads straight out of the shared pages.

    :meth:`close` releases the engine's views and the local mapping; it
    never unlinks — the segment belongs to the publishing
    :class:`ShmIndexImage`.
    """

    def __init__(self, engine, shm: shared_memory.SharedMemory) -> None:
        self.engine = engine
        self._shm: Optional[shared_memory.SharedMemory] = shm

    def close(self) -> None:
        """Release the engine views and the local mapping (idempotent)."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        self.engine.release()
        shm.close()

    def __enter__(self) -> "AttachedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._shm is None else type(self.engine).__name__
        return f"AttachedIndex({state})"


def attach_image(
    name: str, *, validate: bool = False, backend=None
) -> AttachedIndex:
    """Attach to a published image by segment name.

    Returns an :class:`AttachedIndex` whose engine answers queries
    zero-copy out of the shared pages.  ``validate`` defaults to off —
    the creator validated (or produced) the image; attaching must stay
    near-constant in index size.  ``backend`` selects the engine's
    kernel backend (``None`` auto-detects).
    """
    shm = _open_untracked(name)
    try:
        engine = attach_frozen(
            shm.buf, validate=validate, exact=False, backend=backend
        )
    except Exception:
        shm.close()
        raise
    return AttachedIndex(engine, shm)
