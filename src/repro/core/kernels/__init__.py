"""Pluggable query-kernel backends for the frozen flat-array engines.

The frozen engines (:mod:`repro.core.frozen`) answer ``distance_many``
batches through one *kernel backend*: an object that knows how to
run the batch hub-intersection merge over
:class:`~repro.core.frozen._FlatSide` stores (their typed memoryviews
and whatever per-side state it derives from them).
Two backends ship:

* ``stdlib`` (:mod:`repro.core.kernels.stdlib`) — the pure-Python flat
  kernels.  Always available; the correctness oracle every other
  backend is tested bit-identical against.
* ``numpy`` (:mod:`repro.core.kernels.numpy_backend`) — wraps the same
  buffers with ``numpy.frombuffer`` (zero copies) and answers whole
  workloads with vectorized group intersection and feasibility scans —
  no Python-level inner loop.  Available only when numpy is installed.
  Its cost grows with the distinct thresholds of a batch, the stdlib
  merge's with its queries, so a batch with too few queries per
  distinct ``w`` (a small one, or one with nearly a threshold per
  query) is answered by the stdlib kernel — bit-identically, and
  without building numpy state — whether ``numpy`` was chosen by
  ``"auto"`` or by name.

Backend selection is a *name* threaded through every layer — engine
constructors, ``load_frozen`` / ``attach_frozen``, the shared-memory
serving stack, and the CLI's ``--kernel`` flag:

* ``"auto"`` (or ``None``) — numpy when importable, else stdlib.  The
  default everywhere, so installing numpy speeds the whole stack up
  without touching a call site.
* ``"stdlib"`` / ``"numpy"`` — the named backend, explicitly.  Naming
  an unavailable backend raises :class:`KernelUnavailableError`
  immediately — never a silent fallback.

Adding a third backend (a C/cython kernel, a GPU path) is one module
implementing :class:`KernelBackend` plus a registry entry here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

__all__ = [
    "BACKEND_CHOICES",
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "default_backend_name",
    "numpy_available",
    "resolve_backend",
]

#: The names the dispatch layer (and every ``--kernel`` flag) accepts.
BACKEND_CHOICES = ("auto", "stdlib", "numpy")


class KernelUnavailableError(RuntimeError):
    """An explicitly named kernel backend cannot run on this machine
    (e.g. ``"numpy"`` without numpy installed).  Raised at resolution
    time so a bad selection fails fast instead of silently falling back
    to a slower backend."""


class KernelBackend:
    """One query-kernel implementation over the frozen flat layout.

    A backend is stateless and shared (the registry hands out one
    instance per name).  :meth:`batch` receives the engine's
    :class:`~repro.core.frozen._FlatSide` stores themselves; a backend
    that derives per-side state fetches it with
    ``side.kernel_state(self)``, which builds it once through
    :meth:`prepare_side`, caches it per backend name on the side and
    drops it on :meth:`~repro.core.frozen._FlatSide.release`.
    """

    #: Registry name; also what ``stats`` / ``health()`` report.
    name = "abstract"

    def prepare_side(self, side):
        """Build this backend's per-side state over a ``_FlatSide``.

        Must not copy the label arrays — wrap the side's typed
        memoryviews (numpy: ``numpy.frombuffer``).  Derived structures
        (group directories, hash maps, sorted keys) are fair game: they
        are metadata, not label data.  A backend with no per-side state
        beyond the side's own hub groups (stdlib) never needs it.
        """
        raise NotImplementedError

    def batch(
        self,
        queries,
        side_s,
        side_t,
        n: int,
    ) -> List[float]:
        """Answer ``(s, t, w)`` queries; ``side_s`` serves the source
        vertices, ``side_t`` the targets (the same side for the
        undirected and weighted engines, out-/in-side for the directed
        engine).  Must return answers bit-identical to the stdlib
        backend and raise ``ValueError`` with the same message on an
        out-of-range vertex."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _load_numpy():
    """The numpy module, or ``None`` when not importable.  The single
    availability probe — tests monkeypatch this to exercise the
    no-numpy paths on machines that do have numpy."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_available() -> bool:
    """Whether the numpy backend can run here."""
    return _load_numpy() is not None


def available_backends() -> Tuple[str, ...]:
    """Names of the backends that can run on this machine, stdlib
    first (it is always present)."""
    names = ["stdlib"]
    if numpy_available():
        names.append("numpy")
    return tuple(names)


def default_backend_name() -> str:
    """What ``"auto"`` resolves to here: numpy when importable, else
    stdlib."""
    return "numpy" if numpy_available() else "stdlib"


#: One shared instance per backend name (backends are stateless).
_INSTANCES: dict = {}


def resolve_backend(
    spec: Optional[Union[str, KernelBackend]] = None,
) -> KernelBackend:
    """The backend instance a selection names.

    ``None`` and ``"auto"`` auto-detect (numpy if importable, else
    stdlib); ``"stdlib"`` / ``"numpy"`` name a backend explicitly and
    raise :class:`KernelUnavailableError` when it cannot run — an
    explicit choice never silently degrades.  A
    :class:`KernelBackend` instance passes through unchanged.
    """
    if isinstance(spec, KernelBackend):
        return spec
    if spec is None or spec == "auto":
        spec = default_backend_name()
    if spec == "stdlib":
        backend = _INSTANCES.get("stdlib")
        if backend is None:
            from .stdlib import StdlibKernelBackend

            backend = _INSTANCES["stdlib"] = StdlibKernelBackend()
        return backend
    if spec == "numpy":
        if not numpy_available():
            raise KernelUnavailableError(
                "kernel backend 'numpy' is not available: numpy is not "
                "installed; install numpy, or select 'stdlib' / 'auto'"
            )
        backend = _INSTANCES.get("numpy")
        if backend is None:
            from .numpy_backend import NumpyKernelBackend

            backend = _INSTANCES["numpy"] = NumpyKernelBackend()
        return backend
    raise ValueError(
        f"unknown kernel backend {spec!r}; choose from {BACKEND_CHOICES}"
    )
