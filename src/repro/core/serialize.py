"""WC-INDEX serialization: the ``.wcxb`` image.

A built index is expensive (it is the whole point of an index) so it must
be persistable.  There is one on-disk format, the servable memory image
of a frozen index, recognised by its ``WCXB`` magic bytes — never by the
file name.  Version 3 lays the file out so a server can *attach* to it
instead of parsing it: a fixed little-endian header carrying a **variant
tag** (undirected / directed / weighted), followed by a **size-stamped
section table** (one ``(absolute byte offset, byte size)`` int64 pair per
array section), followed by the raw little-endian arrays, every section
padded to an **8-byte-aligned** offset.  Every family is the one
two-sided :class:`~repro.core.frozen.FrozenIndex` engine, so one layout
rule covers all three: ``order``, then each label side of
``engine.sides()`` in file order — ``offsets, hubs, dists, quals`` and,
when the parents flag is set, the family's parent columns:

* undirected — ``order, offsets, hubs, dists, quals[, parents]``
* directed — ``order``, then the ``L_in`` side
  (``in_offsets, in_hubs, in_dists, in_quals[, in_parents]``), then the
  ``L_out`` side (``out_...``)
* weighted — ``order, offsets, hubs, dists, quals[, parent_vertices,
  parent_entries]``

Because sections are aligned and size-stamped, a v3 image is directly
servable from any buffer: :func:`attach_frozen` builds the frozen engine
out of ``memoryview.cast`` views over the buffer — **zero copies** — and
``load_frozen(path, mode="mmap")`` does the same over an ``mmap`` of the
file, so a multi-GB index starts serving in near-constant time and pages
in on demand.  The default ``mode="read"`` materializes owned arrays (one
``frombytes`` per section, file handle closed afterwards) with the
section table cross-checked against the real positions, plus an optional
(default-on) integrity scan of the kernel invariants; trusted reloads can
disable it for raw array-read startup.  Only version 3 is read: the
version 1 (undirected, no section table) and version 2 (unaligned,
unstamped) layouts raise :class:`IndexFormatError` naming the version.
:func:`append_delta` appends ``WCXD`` delta blobs — per-batch dirty-vertex
label replacements, laid out per side like the base image — that the
loaders splice back in.
:func:`save_frozen` / :func:`load_frozen` are the entry points
(``load_frozen`` returns the family's frozen engine —
:class:`FrozenWCIndex`, :class:`FrozenDirectedWCIndex` or
:class:`FrozenWeightedWCIndex`; call ``.thaw()`` on it for the list
engine).  Any other file — including the retired line-oriented text
format — raises :class:`IndexFormatError` (``bad binary magic``).
:func:`describe_frozen` reports the header and per-section byte layout
without constructing an engine.
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
from array import array
from pathlib import Path
from typing import BinaryIO, List, Optional, Union

from .frozen import (
    ENGINES,
    FAMILIES,
    HUB_TYPECODE,
    OFFSET_TYPECODE,
    VALUE_TYPECODE,
    _FlatSide,
    splice_label_side,
)
from .kernels import available_backends

PathLike = Union[str, Path]
BINARY_MAGIC = b"WCXB"
BINARY_VERSION = 3
_BINARY_PREFIX = struct.Struct("<4sH")  # magic, version
#: v3 header: magic, version, variant, flags, section count, n.
_BINARY_HEADER = struct.Struct("<4sHHHHq")
_FLAG_PARENTS = 1

#: Sections of a v3 image start at 8-byte-aligned offsets so typed
#: ``memoryview.cast`` views can attach to them in place.
_ALIGNMENT = 8
#: Byte position of the v3 section table (the 20-byte header, aligned).
_TABLE_AT = 24

_ITEMSIZES = {HUB_TYPECODE: 4, VALUE_TYPECODE: 8, OFFSET_TYPECODE: 8}
#: Typecodes of a label side's ``hubs`` / ``dists`` / ``quals`` sections.
_LABEL_TYPECODES = (HUB_TYPECODE, VALUE_TYPECODE, VALUE_TYPECODE)

#: Delta blobs: incremental label replacements appended *after* the base
#: sections of a v3 image (:func:`append_delta`).  Each blob carries the
#: replacement label sets of a batch's dirty vertices; the loaders splice
#: blobs into the base arrays in append order, producing an engine
#: bit-identical to a from-scratch freeze of the updated index.
DELTA_MAGIC = b"WCXD"
DELTA_VERSION = 1
#: Delta blob header: magic, version, reserved, dirty-vertex count.
_DELTA_HEADER = struct.Struct("<4sHHq")
#: Byte position of a blob's section table, relative to the blob start
#: (the 16-byte header is already 8-byte aligned).
_DELTA_TABLE_AT = 16


def _align(position: int) -> int:
    """Round ``position`` up to the section alignment."""
    return (position + _ALIGNMENT - 1) & ~(_ALIGNMENT - 1)


def _layout(family, with_parents: bool, head: str, counts: str) -> list:
    """``(name, typecode)`` of every section in file order: ``head``
    (``order`` in a base image, ``ids`` in a delta blob), then per label
    side its ``counts`` column (``offsets`` / ``sizes``), the entry
    columns and — with parents — the family's parent columns."""
    columns = [(counts, OFFSET_TYPECODE)]
    columns += zip(("hubs", "dists", "quals"), _LABEL_TYPECODES)
    if with_parents:
        columns += [(name, HUB_TYPECODE) for name in family.parent_columns]
    return [(head, OFFSET_TYPECODE)] + [
        (prefix + name, typecode)
        for prefix in family.side_prefixes
        for name, typecode in columns
    ]


class IndexFormatError(ValueError):
    """A serialized index could not be parsed.

    When the damage is recoverable by truncation — a torn delta blob
    appended after an intact base image — :attr:`recoverable_size`
    carries the byte count that restores the last consistent image
    (``None`` otherwise), so crash-recovery code can roll back without
    parsing the error message.
    """

    recoverable_size: Optional[int] = None


# ----------------------------------------------------------------------
# Saving and loading
# ----------------------------------------------------------------------
def _freeze_for_save(index):
    """Normalize any supported index to its frozen engine."""
    if getattr(index, "family", None) is None:
        raise ValueError(
            f"cannot serialize {type(index).__name__} as a frozen index"
        )
    return index if hasattr(index, "sides") else index.freeze()


def _write_sectioned(out: BinaryIO, header: bytes, table_at: int, sections):
    """``header``, zero padding up to ``table_at``, the size-stamped
    ``(offset, nbytes)`` table, then every section at an 8-byte-aligned
    offset (offsets relative to the header's first byte)."""
    table = array(OFFSET_TYPECODE)
    cursor = _align(table_at + 2 * 8 * len(sections))
    for section in sections:
        nbytes = section.itemsize * len(section)
        table.append(cursor)
        table.append(nbytes)
        cursor = _align(cursor + nbytes)
    out.write(header)
    out.write(b"\x00" * (table_at - len(header)))
    _write_array(out, table)
    written = table_at + 2 * 8 * len(sections)
    for section, offset in zip(sections, table[0::2]):
        out.write(b"\x00" * (offset - written))
        _write_array(out, section)
        written = offset + section.itemsize * len(section)


def save_frozen(index, destination: Union[PathLike, BinaryIO]) -> None:
    """Write the binary frozen image of ``index`` (path or binary handle).

    Accepts every index family — list-backed engines are frozen first,
    frozen engines are dumped as-is; the header's variant tag records
    which family the image holds.  The layout is the v3 attachable image:
    header, size-stamped section table, then the raw little-endian arrays
    at 8-byte-aligned offsets — see the module docstring.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "wb") as handle:
            save_frozen(index, handle)
        return
    frozen = _freeze_for_save(index)
    sections = [array(OFFSET_TYPECODE, frozen.order)]
    for side in frozen.raw_sides():
        sections += side
    header = _BINARY_HEADER.pack(
        BINARY_MAGIC,
        BINARY_VERSION,
        frozen.family.variant,
        _FLAG_PARENTS if frozen.tracks_parents else 0,
        len(sections),
        frozen.num_vertices,
    )
    _write_sectioned(destination, header, _TABLE_AT, sections)


class _SectionReader:
    """Sequential section reads, cross-checked against the
    size-stamped table — every mismatch names the offending section.

    ``attach=True`` returns zero-copy ``memoryview.cast`` views over the
    image buffer instead of owned arrays; :meth:`release` drops them
    again (the error path must, or the buffer could never be closed).
    """

    def __init__(
        self,
        base: memoryview,
        names: List[str],
        table: array,
        *,
        attach: bool,
        exact: bool,
    ) -> None:
        self._base = base
        self._names = names
        self._table = table
        self._attach = attach
        self._exact = exact
        self._next = 0
        self._cursor = _TABLE_AT + 2 * 8 * len(names)
        self._views: List[memoryview] = []

    def read(self, typecode: str, count: int):
        index = self._next
        name = self._names[index]
        offset = self._table[2 * index]
        nbytes = self._table[2 * index + 1]
        expected_at = _align(self._cursor)
        if offset != expected_at:
            raise IndexFormatError(
                f"section '{name}' offset {offset} disagrees with its "
                f"expected position {expected_at}"
            )
        expected_bytes = _ITEMSIZES[typecode] * count
        if nbytes != expected_bytes:
            raise IndexFormatError(
                f"section '{name}' size stamp {nbytes} disagrees with "
                f"the expected {expected_bytes} bytes"
            )
        if offset + nbytes > len(self._base):
            raise IndexFormatError(
                f"truncated binary index: section '{name}' wants "
                f"{nbytes} bytes at {offset}, "
                f"{max(len(self._base) - offset, 0)} available"
            )
        self._next += 1
        self._cursor = offset + nbytes
        chunk = self._base[offset:offset + nbytes]
        if self._attach:
            view = chunk.cast(typecode)
            self._views.append(view)
            return view
        values = array(typecode)
        values.frombytes(chunk)
        if sys.byteorder == "big":
            values.byteswap()
        return values

    def finish(self) -> None:
        if self._next != len(self._names):
            raise IndexFormatError(
                f"image declares {len(self._names)} sections, "
                f"loader consumed {self._next}"
            )
        if self._exact and self._cursor != len(self._base):
            raise IndexFormatError(
                f"trailing data after index body "
                f"({len(self._base) - self._cursor} bytes)"
            )

    def release(self) -> None:
        """Release every view handed out so far (attach error path)."""
        for view in self._views:
            view.release()
        self._views.clear()


def _read_order(reader, n: int, validate: bool) -> List[int]:
    order = list(reader.read(OFFSET_TYPECODE, n))
    # The O(n log n) permutation check rides the validate flag like the
    # other integrity scans, so a trusted mmap/shm attach skips it.
    if validate and sorted(order) != list(range(n)):
        raise IndexFormatError("order is not a permutation of the vertex ids")
    return order


def _read_side(reader, n: int, width: int) -> tuple:
    """One label side: offsets, hubs, dists, quals, then ``width``
    parent columns."""
    offsets = reader.read(OFFSET_TYPECODE, n + 1)
    total = offsets[n] if n else 0
    if total < 0:
        raise IndexFormatError("negative entry count in offset table")
    columns = [reader.read(typecode, total) for typecode in _LABEL_TYPECODES]
    columns += [reader.read(HUB_TYPECODE, total) for _ in range(width)]
    return (offsets, *columns)


def _assemble_engine(family, reader, n, with_parents, validate, backend=None):
    """Read the base sections off ``reader`` (copied or attached) and
    construct the family's engine with kernel backend ``backend``."""
    order = _read_order(reader, n, validate)
    width = len(family.parent_columns) if with_parents else 0
    sides = [_read_side(reader, n, width) for _ in family.side_prefixes]
    reader.finish()
    if validate:
        for side in sides:
            _validate_side(family, n, *side)
    try:
        return ENGINES[family.variant].from_sides(
            order, [_FlatSide(n, *side) for side in sides], backend=backend
        )
    except (ValueError, IndexError) as exc:
        raise IndexFormatError(f"inconsistent binary index: {exc}") from exc


def _parse_header(data, action: str):
    """Validate and unpack the v3 header: ``(family, with_parents, n,
    section names)``.  ``action`` names the caller in the version
    error."""
    if len(data) < _BINARY_PREFIX.size:
        raise IndexFormatError("truncated binary index: missing header")
    magic, version = _BINARY_PREFIX.unpack_from(data)
    if magic != BINARY_MAGIC:
        raise IndexFormatError(f"bad binary magic {magic!r}")
    if version != BINARY_VERSION:
        raise IndexFormatError(
            f"cannot {action} a version {version} image: only version "
            f"{BINARY_VERSION} .wcxb images are supported; rebuild the "
            f"index to write one"
        )
    if len(data) < _BINARY_HEADER.size:
        raise IndexFormatError("truncated binary index: missing header")
    _, _, variant, flags, section_count, n = _BINARY_HEADER.unpack_from(data)
    family = FAMILIES.get(variant)
    if family is None:
        raise IndexFormatError(f"unknown index variant tag {variant}")
    if n < 0:
        raise IndexFormatError(f"negative vertex count {n}")
    with_parents = bool(flags & _FLAG_PARENTS)
    names = [name for name, _ in _layout(family, with_parents, "order", "offsets")]
    if section_count != len(names):
        raise IndexFormatError(
            f"{family.name} image must have "
            f"{len(names)} sections, header declares {section_count}"
        )
    return family, with_parents, n, names


def load_frozen(
    source: Union[PathLike, BinaryIO],
    *,
    validate: bool = True,
    mode: str = "read",
    backend=None,
):
    """Read a ``.wcxb`` file into the frozen engine its variant tag names
    (:class:`FrozenWCIndex`, :class:`FrozenDirectedWCIndex` or
    :class:`FrozenWeightedWCIndex`) — the arrays land directly in flat
    storage, no per-entry parsing.

    ``mode`` selects the storage the engine is backed by:

    * ``"read"`` (default) — the sections are copied into owned arrays;
      the file can be deleted afterwards.
    * ``"mmap"`` — the engine **attaches** to an ``mmap`` of the file:
      every flat store is a zero-copy typed view into the mapping, so
      attach time is near-constant in index size and pages fault in on
      demand.  Requires a path (not a handle) and a little-endian host;
      call :meth:`~repro.core.frozen.FrozenIndex.release` on the engine
      to let the mapping close.

    Only v3 images are read; a v1/v2 image raises
    :class:`IndexFormatError` naming its version.  ``validate``
    (default on) additionally runs an O(entries) integrity scan —
    offset monotonicity, hub sortedness, the Theorem 3 staircase,
    parent ranges — so a corrupted file fails loudly instead of
    silently answering queries wrongly.  Servers reloading images they
    themselves wrote can pass ``validate=False`` to keep startup at
    attach / raw-read speed.

    ``backend`` selects the engine's query-kernel backend (``"auto"`` /
    ``"stdlib"`` / ``"numpy"``; see :mod:`repro.core.kernels`).
    """
    if mode not in ("read", "mmap"):
        raise ValueError(f"unknown load mode {mode!r}; use 'read' or 'mmap'")
    if isinstance(source, (str, Path)):
        if mode == "mmap":
            return _mmap_attach(source, validate, backend)
        with open(source, "rb") as handle:
            return load_frozen(handle, validate=validate, backend=backend)
    if mode == "mmap":
        raise ValueError("mode='mmap' requires a file path, not a handle")
    return _engine_of_image(
        memoryview(source.read()),
        attach=False,
        exact=True,
        validate=validate,
        backend=backend,
    )


def attach_frozen(
    buffer, *, validate: bool = True, exact: bool = True, backend=None
):
    """Attach zero-copy to a v3 image held in ``buffer`` (any object
    exporting a C-contiguous byte buffer: ``bytes``, an ``mmap``, a
    ``multiprocessing.shared_memory`` block's ``.buf``).

    Returns the matching frozen engine; every flat store is a
    ``memoryview.cast`` view into ``buffer`` — no section is copied, so
    attaching is near-constant in index size.  The caller owns the
    buffer's lifetime: call ``engine.release()`` before closing it.
    ``exact=False`` tolerates trailing bytes after the last section
    (shared-memory segments are rounded up to page size).  ``backend``
    selects the engine's query-kernel backend (``"auto"`` / ``"stdlib"``
    / ``"numpy"``; see :mod:`repro.core.kernels`).
    """
    if sys.byteorder == "big":
        raise IndexFormatError(
            "zero-copy attach requires a little-endian host; "
            "use load_frozen(..., mode='read')"
        )
    base = memoryview(buffer)
    try:
        if base.format != "B":
            base = base.cast("B")
        return _engine_of_image(
            base, attach=True, exact=exact, validate=validate, backend=backend
        )
    finally:
        base.release()


def _engine_of_image(base, *, attach, exact, validate, backend):
    """The engine of the v3 image in ``base``: attached (zero-copy views)
    or copied, with any appended delta chain spliced in."""
    family, with_parents, n, names = _parse_header(
        base, "attach to" if attach else "load"
    )
    table = _read_table(base, names)
    blobs, end = _scan_delta_blobs(base, family, with_parents, table)
    if not blobs:
        reader = _SectionReader(base, names, table, attach=attach, exact=exact)
        try:
            return _assemble_engine(
                family, reader, n, with_parents, validate, backend
            )
        except Exception:
            reader.release()
            raise
    # A delta chain must be spliced, so the engine is built from owned
    # arrays (independent of the buffer) — correct everywhere, but no
    # longer zero-copy; compact the image with save_frozen to restore
    # the true attach.
    if exact and end != len(base):
        raise IndexFormatError(
            f"trailing data after delta chain ({len(base) - end} bytes)"
        )
    reader = _SectionReader(base, names, table, attach=False, exact=False)
    engine = _assemble_engine(family, reader, n, with_parents, False, backend)
    for blob in blobs:
        # Splicing builds a fresh engine; re-pin the requested backend.
        engine = _apply_delta_blob(engine, blob, n).select_backend(backend)
    if validate:
        if sorted(engine.order) != list(range(n)):
            raise IndexFormatError("order is not a permutation of the vertex ids")
        for side in engine.raw_sides():
            _validate_side(family, n, *side)
    return engine


def _mmap_attach(path: PathLike, validate: bool, backend=None):
    """``load_frozen(mode="mmap")``: map the file, attach to the map."""
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # empty file cannot be mapped
            raise IndexFormatError(
                "truncated binary index: missing header"
            ) from exc
    try:
        return attach_frozen(
            mapped, validate=validate, exact=True, backend=backend
        )
    except Exception:
        mapped.close()
        raise


def _read_table(data, names: List[str]) -> array:
    """The ``(offset, nbytes)`` int64 pairs of the v3 section table."""
    table, _ = _read_array(data, _TABLE_AT, OFFSET_TYPECODE, 2 * len(names))
    return table


# ----------------------------------------------------------------------
# Delta blobs (incremental refreeze)
# ----------------------------------------------------------------------
def _delta_column(column, offsets, dirty: List[int]) -> array:
    """Concatenated entries of the dirty vertices from one flat column."""
    out = array(column.format)
    for v in dirty:
        out.frombytes(bytes(column[offsets[v]:offsets[v + 1]]))
    return out


def append_delta(
    index, destination: PathLike, dirty, *, durable: bool = False
) -> int:
    """Append a delta blob with ``index``'s label sets of the ``dirty``
    vertices to an existing v3 ``.wcxb`` file.

    ``index`` is the *updated* index (any family, list-backed or frozen)
    whose non-dirty labels must equal the image's; the blob records only
    the dirty vertices' replacement entries, so appending is O(dirty)
    bytes while the base image stays untouched.  ``load_frozen`` /
    ``attach_frozen`` splice the delta chain back in at load time,
    producing an engine bit-identical to a from-scratch freeze of
    ``index`` — at the cost of the copying load path (use
    :func:`save_frozen` to compact the chain and restore the zero-copy
    attach).  Returns the number of bytes appended (0 for no dirt).

    The blob is staged in memory and lands in one write, keeping the
    torn-append window small; a crash mid-append is recoverable (the
    loader names the truncation offset that restores the previous
    image).  ``durable=True`` additionally fsyncs before returning —
    off by default, matching :func:`save_frozen`'s durability.
    """
    frozen = _freeze_for_save(index)
    path = Path(destination)
    with open(path, "rb") as handle:
        head = handle.read(_BINARY_HEADER.size)
    family, with_parents, n, _ = _parse_header(head, "append a delta to")
    if family is not frozen.family:
        raise IndexFormatError(
            f"cannot append a {frozen.family.name} delta to a "
            f"{family.name} image"
        )
    if with_parents != frozen.tracks_parents:
        raise IndexFormatError(
            "parent tracking of the delta disagrees with the image"
        )
    if n != frozen.num_vertices:
        raise IndexFormatError(
            f"delta has {frozen.num_vertices} vertices, image has {n}"
        )
    # Hub ranks are order-relative: splicing against a different order
    # would corrupt the image silently, so the order section is checked.
    with open(path, "rb") as handle:
        data = handle.read(_TABLE_AT + 2 * 8)
        order_entry, _ = _read_array(data, _TABLE_AT, OFFSET_TYPECODE, 2)
        handle.seek(order_entry[0])
        raw_order = handle.read(order_entry[1])
    image_order = array(OFFSET_TYPECODE)
    image_order.frombytes(raw_order)
    if sys.byteorder == "big":
        image_order.byteswap()
    if list(image_order) != list(frozen.order):
        raise IndexFormatError(
            "vertex order of the delta disagrees with the image; "
            "re-save the image with save_frozen instead"
        )
    dirty = sorted(set(dirty))
    if dirty and not (0 <= dirty[0] and dirty[-1] < n):
        raise ValueError(f"dirty vertex out of range [0, {n})")
    if not dirty:
        return 0
    # Per side: the dirty vertices' new label sizes, then their entries
    # of every entry-parallel column, mirroring the base side line-up.
    sections = [array(OFFSET_TYPECODE, dirty)]
    for offsets, *columns in frozen.raw_sides():
        sections.append(
            array(OFFSET_TYPECODE, [offsets[v + 1] - offsets[v] for v in dirty])
        )
        sections += [_delta_column(column, offsets, dirty) for column in columns]
    blob = io.BytesIO()
    _write_sectioned(
        blob,
        _DELTA_HEADER.pack(DELTA_MAGIC, DELTA_VERSION, 0, len(dirty)),
        _DELTA_TABLE_AT,
        sections,
    )
    with open(path, "r+b") as out:
        out.seek(0, 2)
        size = out.tell()
        start = _align(size)
        out.write(b"\x00" * (start - size))
        out.write(blob.getvalue())
        if durable:
            out.flush()
            os.fsync(out.fileno())
        end = out.tell()
    return end - start


def _base_extent(table: array) -> int:
    """End of the last base section (sections are laid out in order)."""
    if not len(table):
        return _TABLE_AT
    return table[-2] + table[-1]


def _scan_delta_blobs(data, family, with_parents: bool, table: array):
    """Parse the delta chain after a v3 image's base sections.

    Returns ``(blobs, end)``: each blob as its list of sections in file
    order (owned, native-order arrays), and the byte position just past
    the last blob — the caller's trailing-data checks anchor there.  A
    chain stops at the first position that does not carry the delta
    magic (shared-memory page-rounding zeros land here).
    """
    layout = _layout(family, with_parents, "ids", "sizes")
    end = _base_extent(table)
    blobs = []
    cursor = _align(end)
    total_len = len(data)
    while cursor + _DELTA_HEADER.size <= total_len:
        magic, dversion, _, num_dirty = _DELTA_HEADER.unpack_from(data, cursor)
        if magic != DELTA_MAGIC:
            break
        try:
            sections, end = _read_delta_blob(
                data, cursor, layout, num_dirty, dversion
            )
        except IndexFormatError as exc:
            # A damaged blob fails the whole load, but the bytes up to
            # the previous blob's end (``end``) are a consistent image
            # — tell the operator how to get back to it, and carry the
            # truncation point structurally for automated rollback.
            error = IndexFormatError(
                f"{exc} (damaged delta blob at byte {cursor}; truncating "
                f"the file to {end} bytes drops it and everything "
                f"after it, recovering the last consistent image)"
            )
            error.recoverable_size = end
            raise error from None
        blobs.append(sections)
        cursor = _align(end)
    return blobs, end


def _read_delta_blob(data, cursor: int, layout, num_dirty: int, dversion: int):
    """Parse one delta blob's sections; returns ``(sections, end)``.

    ``ids`` and every side's ``sizes`` hold one item per dirty vertex;
    the entry columns after a ``sizes`` section hold that side's sum."""
    if dversion != DELTA_VERSION:
        raise IndexFormatError(f"unsupported delta version {dversion}")
    if num_dirty < 0:
        raise IndexFormatError(f"negative delta vertex count {num_dirty}")
    dtable, _ = _read_array(
        data, cursor + _DELTA_TABLE_AT, OFFSET_TYPECODE, 2 * len(layout)
    )
    sections = []
    total = 0
    rel_cursor = _DELTA_TABLE_AT + 2 * 8 * len(layout)
    for i, (name, typecode) in enumerate(layout):
        offset, nbytes = dtable[2 * i], dtable[2 * i + 1]
        expected_at = _align(rel_cursor)
        if offset != expected_at:
            raise IndexFormatError(
                f"delta section '{name}' offset {offset} disagrees "
                f"with its expected position {expected_at}"
            )
        count = num_dirty if typecode == OFFSET_TYPECODE else total
        expected_bytes = _ITEMSIZES[typecode] * count
        if nbytes != expected_bytes:
            raise IndexFormatError(
                f"delta section '{name}' size stamp {nbytes} disagrees "
                f"with the expected {expected_bytes} bytes"
            )
        values, _ = _read_array(data, cursor + offset, typecode, count)
        if name.endswith("sizes"):
            total = sum(values)
        sections.append(values)
        rel_cursor = offset + nbytes
    return sections, cursor + rel_cursor


def _column_chunks(ids, sizes, column):
    """Per-vertex chunks of one entry-parallel delta column, as typed
    views (the one place walking a blob's ``sizes`` prefix sums)."""
    repl = {}
    view = memoryview(column)
    a = 0
    for i, v in enumerate(ids):
        size = sizes[i]
        if size < 0:
            raise IndexFormatError(f"negative delta label size for vertex {v}")
        b = a + size
        repl[v] = view[a:b]
        a = b
    return repl


def _check_delta_ids(ids, n: int) -> None:
    prev = -1
    for v in ids:
        if not 0 <= v < n:
            raise IndexFormatError(
                f"delta vertex id {v} out of range [0, {n})"
            )
        if v <= prev:
            raise IndexFormatError("delta vertex ids not strictly ascending")
        prev = v


def _apply_delta_blob(engine, blob, n: int):
    """Splice one delta blob's replacements into ``engine``; returns the
    new engine (owned arrays — clean runs copied bytewise)."""
    ids = list(blob[0])
    _check_delta_ids(ids, n)
    old_sides = engine.sides()
    per_side = (len(blob) - 1) // len(old_sides)
    try:
        sides = []
        for i, old_side in enumerate(old_sides):
            sizes, *columns = blob[1 + i * per_side:1 + (i + 1) * per_side]
            chunks = [_column_chunks(ids, sizes, column) for column in columns]
            repl = {v: [chunk[v] for chunk in chunks] for v in ids}
            sides.append(splice_label_side(old_side, repl))
        return type(engine).from_sides(engine.order, sides)
    except (ValueError, IndexError) as exc:
        if isinstance(exc, IndexFormatError):
            raise
        raise IndexFormatError(f"inconsistent delta blob: {exc}") from exc


def describe_frozen(source: Union[PathLike, BinaryIO]) -> dict:
    """Header and section layout of a ``.wcxb`` v3 image, without
    building an engine.

    Returns ``{"format_version", "variant", "num_vertices",
    "tracks_parents", "sections", "deltas", "total_bytes",
    "kernel_backends"}`` where ``sections`` is the ordered ``[{"name",
    "offset", "nbytes"}, ...]`` list and ``kernel_backends`` names the
    query-kernel backends available on *this* host (a property of the
    machine, not the image — any backend can attach to any image).  Only
    the header, the size-stamped section table and the delta headers are
    read — constant work however large the index.  A v1/v2 image raises
    :class:`IndexFormatError` naming its version.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            return describe_frozen(handle)
    head = source.read(_BINARY_HEADER.size)
    family, with_parents, n, names = _parse_header(head, "describe")
    rest = source.read(_TABLE_AT + 2 * 8 * len(names) - _BINARY_HEADER.size)
    table = _read_table(head + rest, names)
    sections = [
        {
            "name": name,
            "offset": table[2 * i],
            "nbytes": table[2 * i + 1],
        }
        for i, name in enumerate(names)
    ]
    deltas, total = _describe_deltas(
        source, family, with_parents, _base_extent(table)
    )
    return {
        "format_version": BINARY_VERSION,
        "variant": family.name,
        "num_vertices": n,
        "tracks_parents": with_parents,
        "sections": sections,
        "deltas": deltas,
        "total_bytes": total,
        "kernel_backends": list(available_backends()),
    }


def _describe_deltas(source: BinaryIO, family, with_parents: bool, total: int):
    """Walk the delta chain after the base sections (headers and tables
    only — constant work per blob).  Returns ``(deltas, total)``."""
    count = len(_layout(family, with_parents, "ids", "sizes"))
    deltas: List[dict] = []
    cursor = _align(total)
    try:
        size = source.seek(0, 2)
    except (OSError, ValueError):  # unseekable stream: stop scanning
        return deltas, total
    while cursor + _DELTA_HEADER.size <= size:
        source.seek(cursor)
        head = source.read(_DELTA_HEADER.size)
        if len(head) < _DELTA_HEADER.size:
            break
        magic, dversion, _, num_dirty = _DELTA_HEADER.unpack_from(head)
        if magic != DELTA_MAGIC:
            break
        if dversion != DELTA_VERSION:
            raise IndexFormatError(f"unsupported delta version {dversion}")
        raw_table = source.read(2 * 8 * count)
        dtable, _ = _read_array(
            head + raw_table, _DELTA_TABLE_AT, OFFSET_TYPECODE, 2 * count
        )
        end = cursor + dtable[-2] + dtable[-1] if len(dtable) else cursor
        # A corrupt table whose extent does not clear the blob's own
        # header and table (or runs past the file) cannot advance the
        # scan; fail loudly instead of describing forever.
        if end < cursor + _DELTA_TABLE_AT + 2 * 8 * count or end > size:
            raise IndexFormatError(
                f"inconsistent delta section table at byte {cursor}"
            )
        deltas.append(
            {"offset": cursor, "nbytes": end - cursor, "num_dirty": num_dirty}
        )
        total = end
        cursor = _align(end)
    return deltas, total


def _validate_side(family, n, offsets, hubs, dists, quals, *parents) -> None:
    """Integrity scan over one loaded label side.

    Checks exactly the structural invariants the merge kernels rely on:
    offsets monotonic from 0; per vertex, hub ranks in range and
    non-decreasing (groups contiguous and sorted); within a hub group,
    distances and qualities non-decreasing (the Theorem 3 staircase —
    the kernels take the first quality-feasible entry of a group as the
    minimal-distance one); and the parent columns the family's
    validator accepts.  A file violating them would load but silently
    answer queries wrongly.  Dominated duplicate entries (equal
    distance/quality) are wasteful but harmless, so they are accepted.
    """
    if n and offsets[0] != 0:
        raise IndexFormatError(f"offset table must start at 0, got {offsets[0]}")
    previous = 0
    for v in range(n):
        if offsets[v + 1] < previous:
            raise IndexFormatError(
                f"offset table not monotonic at vertex {v}"
            )
        previous = offsets[v + 1]
    for v in range(n):
        start, stop = offsets[v], offsets[v + 1]
        for i in range(start, stop):
            hub = hubs[i]
            if not 0 <= hub < n:
                raise IndexFormatError(
                    f"hub rank {hub} out of range [0, {n})"
                )
            if i > start:
                if hub < hubs[i - 1]:
                    raise IndexFormatError(
                        f"hub ranks of vertex {v} not sorted at entry {i}"
                    )
                if hub == hubs[i - 1] and (
                    quals[i] < quals[i - 1] or dists[i] < dists[i - 1]
                ):
                    raise IndexFormatError(
                        f"entries of vertex {v}, hub {hub} not an ascending "
                        f"distance/quality staircase at entry {i}"
                    )
    if parents:
        try:
            family.validate_parents(n, offsets, parents)
        except ValueError as exc:
            raise IndexFormatError(str(exc)) from None


def _write_array(out: BinaryIO, values) -> None:
    """Write an ``array`` or typed ``memoryview`` little-endian."""
    if sys.byteorder == "big":
        typecode = getattr(values, "typecode", None) or values.format
        swapped = array(typecode, values)
        swapped.byteswap()
        out.write(swapped.tobytes())
        return
    out.write(values.tobytes())


def _read_array(data, cursor: int, typecode: str, count: int):
    values = array(typecode)
    nbytes = values.itemsize * count
    if cursor + nbytes > len(data):
        raise IndexFormatError(
            f"truncated binary index: wanted {nbytes} bytes at {cursor}, "
            f"have {len(data) - cursor}"
        )
    values.frombytes(memoryview(data)[cursor:cursor + nbytes])
    if sys.byteorder == "big":
        values.byteswap()
    return values, cursor + nbytes
