"""The metrics registry: Counter / Gauge / Histogram.

This module is the one substrate every layer of the serving stack
reports through: the front door's admission counters, latency and
batch-size histograms, the pool's chunk sizes, the answer cache's
hit/miss totals, the supervisor's restart tallies, the publisher's
epoch.

* :class:`Counter` — a monotonically increasing total (``_total`` names
  by convention).  ``inc()`` only; going down is a bug and raises.
* :class:`Gauge` — a value that moves both ways (queue depth, open
  connections, the published epoch).
* :class:`Histogram` — fixed cumulative buckets plus ``_sum`` and
  ``_count`` samples, the Prometheus shape; use
  :data:`DEFAULT_LATENCY_BUCKETS` for latencies and
  :data:`BATCH_SIZE_BUCKETS` for batch sizes.  :func:`histogram_quantile`
  estimates a quantile from its cumulative buckets, as Prometheus does.

All three support labels (``labelnames`` at registration,
``.labels(...)`` for a child) and are thread-safe (one lock per
metric family — the asyncio loop, executor threads and the scrape path
all touch them).  Everything is stdlib-only.

:class:`MetricsRegistry` holds the metrics of one process (or one
server instance — tests and benches isolate by constructing their
own).  Registration is get-or-create: asking twice for the same name
returns the same metric, asking with a different type raises.  Scrape
output comes in two shapes from the same :meth:`collect` pass:
:meth:`render_prometheus` (the text exposition format, served over the
``STATS`` frame) and :meth:`snapshot` (a flat JSON-safe dict, embedded
in the ``HEALTH`` report and the periodic JSONL flush).

Components whose counters live elsewhere (the sharded cache keeps
per-shard tallies under per-shard locks; the pool's restart counts live
in the supervisor) join the registry through *collectors* — callables
returning :class:`MetricFamily` rows at scrape time
(:meth:`register_collector`; see :mod:`repro.obs.export` for the
stock bridges) — so hot paths pay nothing for exposition.  The
serving stack wires one registry per server, so two servers in one
process never share counters.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "histogram_quantile",
]

#: Latency buckets in seconds: 5us (an answer-cache hit, the paper's
#: microsecond-scale query regime) up to 10s (a stuck pool), roughly
#: log-spaced.
DEFAULT_LATENCY_BUCKETS = (
    0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)

#: Power-of-two buckets for coalesced/kernel batch sizes.
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

_INF = float("inf")


def histogram_quantile(
    q: float, buckets: Sequence[Tuple[float, float]]
) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Estimate the ``q``-quantile (``0 <= q <= 1``) from ascending
    ``(upper_bound, cumulative_count)`` buckets ending at ``+inf``, as
    Prometheus ``histogram_quantile`` does: linear inside the bucket
    holding rank ``q * count`` (the first starts at 0; the ``+inf`` one
    estimates as the highest finite bound).  Returns the estimate and
    that bucket's ``(lo, hi)``, which hold the exact nearest-rank
    quantile; ``(nan, None)`` when the histogram is empty."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = buckets[-1][1] if buckets else 0
    if total <= 0:
        return float("nan"), None
    rank = q * total
    lo, below = 0.0, 0
    for hi, cumulative in buckets:
        # The first non-empty bucket reaching the rank (q == 0 asks for
        # the smallest sample, which sits in the first non-empty one).
        if cumulative >= rank and cumulative > below:
            break
        lo, below = hi, cumulative
    if hi == _INF:
        return lo, (lo, hi)
    estimate = lo + (hi - lo) * (rank - below) / (cumulative - below)
    return estimate, (lo, hi)


def _escape_label(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == _INF:
        return "+Inf"
    if value == -_INF:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _sample_name(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels.items()
    )
    return f"{name}{{{rendered}}}"


class MetricFamily:
    """One exposition row group: name, type, help and its samples.

    ``samples`` is a list of ``(suffix, labels, value)`` tuples —
    ``suffix`` is appended to the family name (histograms use
    ``_bucket`` / ``_sum`` / ``_count``; plain metrics use ``""``).
    Collectors registered on a :class:`MetricsRegistry` return these.
    """

    __slots__ = ("name", "type", "help", "samples")

    def __init__(
        self,
        name: str,
        type: str,
        help: str = "",
        samples: Optional[List[Tuple[str, Dict[str, object], float]]] = None,
    ) -> None:
        if type not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric type {type!r}")
        self.name = name
        self.type = type
        self.help = help
        self.samples = samples if samples is not None else []

    def add_sample(
        self, suffix: str, labels: Dict[str, object], value: float
    ) -> None:
        self.samples.append((suffix, labels, value))


class _Metric:
    """Base of the three primitives: a labeled family of children."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            # The unlabeled family is its own single child.
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, *values, **kv):
        """The child carrying the given label values (created on first
        use).  Accepts positional values in ``labelnames`` order or
        keywords."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name")
            try:
                values = tuple(str(kv[name]) for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc.args[0]!r}") from None
            if len(kv) != len(self.labelnames):
                raise ValueError(
                    f"expected labels {self.labelnames}, got {tuple(kv)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label value(s), "
                f"got {len(values)}"
            )
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child()
                self._children[values] = child
            return child

    def _default_child(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; call "
                f".labels(...) first"
            )
        return self._children[()]

    def _iter_children(self):
        with self._lock:
            return list(self._children.items())

    def collect(self) -> MetricFamily:
        family = MetricFamily(self.name, self.kind, self.help)
        for values, child in self._iter_children():
            labels = dict(zip(self.labelnames, values))
            child._emit(family, labels)
        return family


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _emit(self, family: MetricFamily, labels: Dict[str, object]) -> None:
        family.add_sample("", labels, self.value)


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    @property
    def value(self) -> float:
        return self._default_child().value


class _GaugeChild:
    __slots__ = ("_lock", "_value", "_fn")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read the gauge from ``fn`` at every scrape instead of a
        stored value (for values that already live elsewhere)."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            if self._fn is not None:
                return self._fn()
            return self._value

    def _emit(self, family: MetricFamily, labels: Dict[str, object]) -> None:
        family.add_sample("", labels, self.value)


class Gauge(_Metric):
    """A value that moves both ways."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1) -> None:
        self._default_child().dec(amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._default_child().set_function(fn)

    @property
    def value(self) -> float:
        return self._default_child().value


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds + (_INF,)
        self._counts = [0] * len(self._bounds)
        self._sum = 0.0

    def observe(self, value: float) -> None:
        for at, bound in enumerate(self._bounds):
            if value <= bound:
                break
        with self._lock:
            self._counts[at] += 1
            self._sum += value

    def cumulative(self) -> Tuple[List[Tuple[float, int]], float, int]:
        """``(upper_bound, cumulative_count)`` per bucket, the last
        bound ``+inf``, plus the sum and count — one consistent read."""
        with self._lock:
            counts = list(self._counts)
            sum_ = self._sum
        buckets: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            buckets.append((bound, running))
        return buckets, sum_, running

    def _emit(self, family: MetricFamily, labels: Dict[str, object]) -> None:
        buckets, sum_, total = self.cumulative()
        for bound, cumulative in buckets:
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_value(bound)
            family.add_sample("_bucket", bucket_labels, cumulative)
        family.add_sample("_sum", dict(labels), sum_)
        family.add_sample("_count", dict(labels), total)


class Histogram(_Metric):
    """Fixed cumulative buckets + ``_sum`` / ``_count``."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds in {buckets}")
        self._bounds = bounds
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self._bounds)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def cumulative(self) -> Tuple[List[Tuple[float, int]], float, int]:
        return self._default_child().cumulative()


class MetricsRegistry:
    """The metrics of one process (or one server instance).

    Registration is get-or-create by name; a name re-registered with a
    different type (or different labels/buckets) raises — two owners of
    one name is a wiring bug, not a merge.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[[], Iterable[MetricFamily]]] = []

    def _register(self, cls, name, help, labelnames, **extra):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as a "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(name, help, labelnames, **extra)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        metric = self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )
        if metric._bounds != tuple(sorted(float(b) for b in buckets)):
            raise ValueError(
                f"metric {name!r} already registered with buckets "
                f"{metric._bounds}"
            )
        return metric

    def register_collector(
        self, fn: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add a scrape-time collector: called on every :meth:`collect`
        pass, returning :class:`MetricFamily` rows built from state that
        lives elsewhere (cache shards, the supervisor, the publisher).
        A collector that raises is skipped for that scrape — a closed
        pool must not take the whole exposition down with it."""
        with self._lock:
            self._collectors.append(fn)

    def collect(self) -> List[MetricFamily]:
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        families = [metric.collect() for metric in metrics]
        for fn in collectors:
            try:
                families.extend(fn())
            except Exception:
                continue  # scrape survives a torn-down component
        return families

    # -- exposition ----------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.collect():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.type}")
            for suffix, labels, value in family.samples:
                lines.append(
                    f"{_sample_name(family.name + suffix, labels)} "
                    f"{_format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, float]:
        """A flat JSON-safe dict: exposition sample name -> value."""
        flat: Dict[str, float] = {}
        for family in self.collect():
            for suffix, labels, value in family.samples:
                flat[_sample_name(family.name + suffix, labels)] = value
        return flat

