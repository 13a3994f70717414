"""The paper's contribution: WC-INDEX and its variants.

* :class:`WCIndex` + :class:`WCIndexBuilder` /
  :func:`build_wc_index` / :func:`build_wc_index_plus` — the undirected
  unweighted index (Sections IV).
* :class:`FrozenIndex` — the one immutable buffer-backed flat-array
  query engine, two-sided (``L_out`` answers ``s``, ``L_in`` answers
  ``t``; symmetric families share one side), with the family subclasses
  :class:`FrozenWCIndex` / :class:`FrozenDirectedWCIndex` /
  :class:`FrozenWeightedWCIndex` (``freeze()`` / ``thaw()`` on every
  list engine);
  variant-tagged binary ``.wcxb`` persistence via :func:`save_frozen` /
  :func:`load_frozen` (``mode="mmap"`` attaches zero-copy), plus
  :func:`attach_frozen` over arbitrary buffers and shared-memory serving
  in :mod:`repro.serve`.
* Query kernels (Algorithms 2/4/5) in :mod:`~repro.core.query`, each in a
  list-layout and a flat-layout (``*_flat``) variant; the frozen engines'
  batch path runs through pluggable kernel backends
  (:mod:`~repro.core.kernels` — pure-Python ``stdlib``, vectorized
  ``numpy``), selected with ``backend=`` / ``resolve_backend``.
* Vertex orderings (Section IV.D) in :mod:`~repro.core.ordering`.
* Extensions (Section V): :class:`WCPathIndex` (shortest paths),
  :class:`DirectedWCIndex`, :class:`WeightedWCIndex`.
* Future-work extension: :class:`DynamicWCIndex`.
* Invariant checkers (Theorems 1 and 3) in :mod:`~repro.core.validation`.
"""

from .construction import (
    ConstructionStats,
    WCIndexBuilder,
    build_wc_index,
    build_wc_index_plus,
)
from .directed import DirectedWCIndex
from .dynamic import DynamicWCIndex
from .frozen import (
    BYTES_PER_GROUP,
    FrozenDirectedWCIndex,
    FrozenIndex,
    FrozenWCIndex,
    FrozenWeightedWCIndex,
)
from .index_stats import IndexStatistics, collect_statistics
from .labels import BYTES_PER_ENTRY, WCIndex
from .ordering import (
    degree_order,
    default_core_threshold,
    hybrid_order,
    identity_order,
    ordering_names,
    random_order,
    resolve_order,
    treedec_order,
)
from .paths import WCPathIndex, is_valid_w_path, path_bottleneck, path_length
from .profile import (
    bottleneck_quality,
    distance_profile,
    profile_distance,
    profile_is_staircase,
    widest_path_quality,
)
from .kernels import (
    BACKEND_CHOICES,
    KernelBackend,
    KernelUnavailableError,
    available_backends,
    default_backend_name,
    numpy_available,
    resolve_backend,
)
from .query import (
    merge_binary,
    merge_binary_flat,
    merge_linear,
    merge_linear_flat,
    merge_naive,
    merge_naive_flat,
)
from .serialize import (
    IndexFormatError,
    attach_frozen,
    describe_frozen,
    load_frozen,
    save_frozen,
)
from .validation import (
    IndexReport,
    completeness_violations,
    dominated_entries,
    soundness_violations,
    theorem3_violations,
    unnecessary_entries,
    verify_index,
)
from .weighted import WeightedWCIndex, constrained_dijkstra

__all__ = [
    "WCIndex",
    "FrozenIndex",
    "FrozenWCIndex",
    "WCIndexBuilder",
    "ConstructionStats",
    "build_wc_index",
    "build_wc_index_plus",
    "BYTES_PER_ENTRY",
    "BYTES_PER_GROUP",
    "WCPathIndex",
    "path_length",
    "path_bottleneck",
    "is_valid_w_path",
    "DirectedWCIndex",
    "FrozenDirectedWCIndex",
    "WeightedWCIndex",
    "FrozenWeightedWCIndex",
    "constrained_dijkstra",
    "DynamicWCIndex",
    "distance_profile",
    "profile_distance",
    "bottleneck_quality",
    "widest_path_quality",
    "profile_is_staircase",
    "save_frozen",
    "load_frozen",
    "attach_frozen",
    "describe_frozen",
    "IndexFormatError",
    "IndexStatistics",
    "collect_statistics",
    "degree_order",
    "treedec_order",
    "hybrid_order",
    "identity_order",
    "random_order",
    "resolve_order",
    "ordering_names",
    "default_core_threshold",
    "merge_naive",
    "merge_binary",
    "merge_linear",
    "merge_naive_flat",
    "merge_binary_flat",
    "merge_linear_flat",
    "BACKEND_CHOICES",
    "KernelBackend",
    "KernelUnavailableError",
    "available_backends",
    "default_backend_name",
    "numpy_available",
    "resolve_backend",
    "verify_index",
    "IndexReport",
    "theorem3_violations",
    "dominated_entries",
    "unnecessary_entries",
    "soundness_violations",
    "completeness_violations",
]
