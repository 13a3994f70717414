"""What every workload shares: the run context, timed series, results,
memory and shared-memory accounting, and the in-process layer probes."""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from calib import NOMINAL_REF_S, SAMPLE_INTERVAL_S, Calibration, SpeedSampler
from layers import PER_LAYER, Shims
from oracle import Checker

#: End-to-end metrics: name -> unit.  Every workload reports all of them.
#: The request tail is p95: beyond about the 97th percentile, per-batch
#: latency on this host is set by rare pauses, and p99 moved by 15-25%
#: (quartile distance over median) between runs of identical code.
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "index_bytes": "bytes",
    "query_qps": "queries/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "publish_p50_ms": "ms",
    "publish_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_SHM_DIR = Path("/dev/shm")


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Series:
    """Timed operations, each tagged with the calibration sample taken
    just before its window, so it can be reported raw or calibrated."""

    def __init__(self, cal: Calibration) -> None:
        self._cal = cal
        self.ops: List[Tuple[int, float, int]] = []  # (position, seconds, queries)

    def add(self, position: int, seconds: float, queries: int = 0) -> None:
        self.ops.append((position, seconds, queries))

    def __len__(self) -> int:
        return len(self.ops)

    def seconds(self, calibrated: bool) -> List[float]:
        if not calibrated:
            return [seconds for _, seconds, _ in self.ops]
        return [seconds * self._cal.factor(position) for position, seconds, _ in self.ops]

    def rate(self, calibrated: bool) -> float:
        """Queries per second over all operations."""
        return self.queries() / sum(self.seconds(calibrated))

    def queries(self) -> int:
        return sum(queries for _, _, queries in self.ops)


@dataclass
class Context:
    """One run: its arguments, calibration, checker and set-up clock.

    Set-up is timed from process start to ``end_setup()``.
    ``setup_mark()`` calls split it into segments; each segment is
    calibrated by the speed samples taken inside it (or, if it is too
    short to hold one, by the reference slices at its ends), and the
    time the samples and slices took is not set-up.  A construction call
    timed with ``timed_build`` is calibrated by the samples inside it.
    """

    seed: int
    seconds: float
    trace: bool
    started: float
    scratch: Path
    cal: Calibration = field(default_factory=Calibration)
    checker: Checker = field(default_factory=Checker)
    shims: Optional[Shims] = None
    attempted: int = 0
    failed: int = 0
    sampler: SpeedSampler = field(default_factory=SpeedSampler)
    _marks: List[Tuple[int, float, float]] = field(default_factory=list)
    _builds: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    _setup: Dict[bool, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trace:
            self.shims = Shims()
        self.sampler.start()

    def setup_mark(self) -> None:
        """Close the current set-up segment with a reference slice."""
        before = time.perf_counter()
        position = self.cal.mark()
        self._marks.append((position, before, time.perf_counter()))

    def timed_build(self, family: str, build):
        """Run one construction call, keeping its time for ``build_s``."""
        begun = time.perf_counter()
        index = build()
        self._builds[family] = (begun, time.perf_counter())
        return index

    def _stretch(self, begin: float, end: float, fallback: float) -> Dict[bool, float]:
        """Raw and calibrated time of a stretch of set-up."""
        raw = end - begin - self.sampler.spent(begin, end)
        factor = self.sampler.factor(begin, end)
        return {False: raw, True: raw * (fallback if factor is None else factor)}

    def end_setup(self) -> None:
        self.setup_mark()
        self.sampler.stop()
        self._setup = {False: 0.0, True: 0.0}
        opened = self.started
        for at, (position, before, after) in enumerate(self._marks):
            fallback = (NOMINAL_REF_S / self.cal.samples[position] if at == 0
                        else self.cal.factor(self._marks[at - 1][0]))
            for calibrated, value in self._stretch(opened, before, fallback).items():
                self._setup[calibrated] += value
            opened = after
        self._build_times = {}
        for family, (begun, ended) in self._builds.items():
            fallback = self.cal.overall()
            self._build_times[family] = self._stretch(begun, ended, fallback)

    def setup_s(self, calibrated: bool) -> float:
        return self._setup[calibrated]

    def build_s(self, family: Optional[str], calibrated: bool) -> float:
        """One family's construction time, or all families' with ``None``."""
        return sum(times[calibrated] for name, times in self._build_times.items()
                   if family is None or name == family)

    def speed_record(self) -> dict:
        """The set-up speed samples, for the run's record."""
        return {
            "interval_s": SAMPLE_INTERVAL_S if self.sampler.samples else None,
            "short_slices_s": [round(s, 6) for _, s in self.sampler.samples],
        }

    def phases(self) -> List[Tuple[str, float]]:
        """``(name, deadline)`` of the measured phases: one untraced
        phase, or for a traced run an untraced half then a traced half
        (their throughputs give the tracing overhead)."""
        now = time.perf_counter()
        if not self.trace:
            return [("untraced", now + self.seconds)]
        half = self.seconds / 2.0
        return [("untraced", now + half), ("traced", now + 2 * half)]


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Peak resident memory of this process plus the given processes
    (``VmHWM``, read while they still run)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def process_tree(pid: int) -> List[int]:
    """``pid`` and its descendants (Linux ``/proc`` children lists)."""
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        try:
            with open(f"/proc/{current}/task/{current}/children") as handle:
                todo.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return tree


def shm_segments() -> set:
    return set(os.listdir(_SHM_DIR)) if _SHM_DIR.is_dir() else set()


def check_no_leaks(ctx: Context, before: set) -> None:
    leaked = sorted(shm_segments() - before)
    if leaked:
        ctx.failed += 1
        ctx.checker.fail(f"shared-memory segments left behind: {leaked}")


def check_gone(ctx: Context, pids: Sequence[int], grace_s: float = 5.0) -> None:
    """Every process in ``pids`` must exit within ``grace_s`` (a helper
    such as multiprocessing's resource tracker exits just after its
    parent; zombies count as gone)."""

    def running(pid: int) -> bool:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                return stat.read().rpartition(")")[2].split()[0] != "Z"
        except OSError:
            return False

    deadline = time.monotonic() + grace_s
    left = [pid for pid in pids if running(pid)]
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = [pid for pid in left if running(pid)]
    for pid in left:
        ctx.failed += 1
        ctx.checker.fail(f"process {pid} left behind")


def median_call_us(call, args_list: Sequence, repeats: int) -> float:
    """Median microseconds of ``call(args)`` over ``repeats`` calls,
    cycling through ``args_list``."""
    samples = []
    for i in range(repeats):
        args = args_list[i % len(args_list)]
        begun = time.perf_counter()
        call(args)
        samples.append(time.perf_counter() - begun)
    return statistics.median(samples) * 1e6


def kernel_probe(engines_and_queries, scale: float) -> Dict[str, float]:
    """``kernels.call_us.b2048`` / ``.b32``: an engine's
    ``distance_many`` at both batch sizes on the workload's own images
    and queries, in process; the mean over the workload's engines of
    each engine's median call."""
    out = {}
    for size, repeats in ((2048, 40), (32, 400)):
        per_engine = []
        for engine, queries in engines_and_queries:
            batches = [queries[at:at + size] for at in range(0, len(queries) - size + 1, size)]
            engine.distance_many(batches[0])  # settle lazy kernel state
            per_engine.append(median_call_us(engine.distance_many, batches, repeats))
        out[f"kernels.call_us.b{size}"] = statistics.fmean(per_engine) * scale
    return out


def codec_probe(frame_queries: Sequence, scale: float) -> Dict[str, float]:
    """``protocol.*``: encoding one 16-query QUERY frame and decoding
    one 16-answer ANSWER payload, with no socket."""
    from repro.serve import protocol

    answers = [float(i) for i in range(len(frame_queries))]
    answer_payload = protocol.encode_answer(7, answers)[8:]  # strip the header
    protocol.decode_answer(answer_payload)
    return {
        "protocol.encode_query_us": median_call_us(
            lambda q: protocol.encode_query(7, q), [frame_queries], 3000) * scale,
        "protocol.decode_answer_us": median_call_us(
            protocol.decode_answer, [answer_payload], 3000) * scale,
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    record: dict

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def finish(ctx: Context, calibrated: Dict[str, float], raw: Dict[str, float],
           layers: Dict[str, float], extra: Optional[dict] = None) -> Result:
    """Assemble the run's result: end-to-end metrics for an untraced
    run, every per-layer metric (0 where the workload does not run the
    layer) for a traced one, and the record of raw values."""
    missing = set(END_TO_END) - set(calibrated)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    if ctx.trace:
        metrics = {name: (float(layers.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
        unknown = set(layers) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"unknown per-layer metrics {sorted(unknown)}")
    else:
        metrics = {name: (float(calibrated[name]), unit) for name, unit in END_TO_END.items()}
    record = {
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "calibrated": calibrated,
        "raw": raw,
        "calibration": ctx.cal.summary(),
        "setup_speed": ctx.speed_record(),
        "checked_answers": ctx.checker.checked,
        "mismatches": ctx.checker.mismatches,
    }
    if extra:
        record.update(extra)
    return Result(ctx.checker.ok, ctx.attempted, ctx.failed, metrics, record)
