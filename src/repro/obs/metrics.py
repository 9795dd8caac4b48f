"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` unifies every telemetry surface in the
repo.  Hot paths mutate native :class:`Counter` / :class:`Gauge` /
:class:`Histogram` instruments; a serving fact is recorded on one, in
the service's own store (:class:`~repro.serve.metrics.ServeMetrics`).
Surfaces another component owns — the banks' ``CommandStats`` behind
the device PMU, the pager, the replica/router counters — plug in as
*collectors*: callables invoked at scrape time that read that state
and return :class:`Sample` rows, so nothing is counted twice.

Every instrument records through one add-by-key: ``inc``/``add``/
``observe`` resolve their ``**labels`` to a series key and call it.  A
hot caller that records the same series over and over (the service's
per-tenant request counters) resolves each key once and calls
``Counter._add`` / ``Histogram._observe`` with it, which skips the
per-call kwargs dict and sort; the recorded values are the same.

Two read paths: :meth:`MetricsRegistry.snapshot` (JSON-friendly dict)
and :meth:`MetricsRegistry.prometheus_text` (Prometheus text
exposition format, consumable by ``promtool``/Grafana agents and the
``python -m repro stats`` CLI).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Iterable

#: Fixed exponential histogram buckets (seconds): 10µs · 2^i, i<20 —
#: spans 10µs to ~5.2s which covers every latency in the simulator.
DEFAULT_BUCKETS = tuple(1e-5 * 2.0 ** i for i in range(20))

LabelDict = "dict[str, str]"


def _label_key(labels: "dict[str, str]") -> "tuple[tuple[str, str], ...]":
    if not labels:  # the hot path of every unlabelled instrument
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(items: "tuple[tuple[str, str], ...]") -> str:
    if not items:
        return ""
    # Prometheus text exposition: backslash must be escaped first,
    # then the quote and the (otherwise row-breaking) newline.
    body = ",".join(
        '%s="%s"' % (k, v.replace("\\", "\\\\").replace('"', '\\"')
                     .replace("\n", "\\n"))
        for k, v in items)
    return "{%s}" % body


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class Sample:
    """One exposition row, as produced by metrics and collectors."""
    name: str
    value: float
    labels: "tuple[tuple[str, str], ...]" = ()
    type: str = "gauge"
    help: str = ""


class _Metric:
    """Shared machinery: a named family of label→value series."""

    type = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: "dict[tuple[tuple[str, str], ...], float]" = {}

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def series(self) -> "dict[tuple[tuple[str, str], ...], float]":
        with self._lock:
            return dict(self._series)

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def _add(self, key: "tuple[tuple[str, str], ...]",
             amount: float) -> None:
        """Add ``amount`` to the series ``key`` (a :func:`_label_key`)."""
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def samples(self) -> "list[Sample]":
        series = self.series()
        if not series:
            # Schema stability: a registered instrument that has seen
            # no traffic still exposes one zero-valued (label-less)
            # series, so scrapes carry the same metric families from
            # process start — dashboards never see families pop into
            # existence at first traffic.
            return [Sample(self.name, 0.0, (), self.type, self.help)]
        return [Sample(self.name, v, k, self.type, self.help)
                for k, v in sorted(series.items())]


class Counter(_Metric):
    """Monotonically increasing count (requests, errors, retries)."""

    type = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._add(_label_key(labels), amount)


class Gauge(_Metric):
    """Point-in-time value (queue depth, RTT, inflight lanes)."""

    type = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        self._add(_label_key(labels), amount)


class Histogram:
    """Cumulative fixed-bucket histogram in the Prometheus layout:
    ``name_bucket{le=...}`` counts, plus ``name_sum``/``name_count``."""

    type = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: "Iterable[float] | None" = None) -> None:
        self.name = name
        self.help = help
        bounds = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._lock = threading.Lock()
        # label key -> (per-bucket counts + inf slot, sum)
        self._series: "dict[tuple[tuple[str, str], ...], list]" = {}

    def observe(self, value: float, **labels: str) -> None:
        self._observe(_label_key(labels), value)

    def _observe(self, key: "tuple[tuple[str, str], ...]",
                 value: float) -> None:
        """Record ``value`` in the series ``key`` (a :func:`_label_key`).

        The bucket is the first bound ``>= value`` (bisection).  A NaN
        compares false with every bound, so bisection alone would file
        it under the first; it belongs in ``+Inf``.
        """
        slot = (bisect_left(self.bounds, value) if value == value
                else len(self.bounds))
        with self._lock:
            row = self._series.get(key)
            if row is None:
                row = [[0] * (len(self.bounds) + 1), 0.0]
                self._series[key] = row
            row[0][slot] += 1
            row[1] += value

    def count(self, **labels: str) -> int:
        with self._lock:
            row = self._series.get(_label_key(labels))
            return 0 if row is None else sum(row[0])

    def sum(self, **labels: str) -> float:
        with self._lock:
            row = self._series.get(_label_key(labels))
            return 0.0 if row is None else row[1]

    def quantile(self, q: float, **labels: str) -> float:
        """Upper-bound estimate of quantile ``q`` from bucket counts
        (returns the smallest bound whose cumulative count covers q)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            row = self._series.get(_label_key(labels))
            if row is None or sum(row[0]) == 0:
                return 0.0
            counts = row[0]
            target = q * sum(counts)
            seen = 0
            for i, n in enumerate(counts[:-1]):
                seen += n
                if seen >= target:
                    return self.bounds[i]
            return math.inf

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def samples(self) -> "list[Sample]":
        out: list[Sample] = []
        with self._lock:
            rows = {k: ([list(v[0])], v[1]) for k, v in
                    self._series.items()}
        if not rows:
            # Schema stability before first observation: expose the
            # full zero-valued bucket/sum/count family (see _Metric).
            rows = {(): ([[0] * (len(self.bounds) + 1)], 0.0)}
        for key, ((counts,), total) in sorted(rows.items()):
            cum = 0
            for bound, n in zip(self.bounds, counts[:-1]):
                cum += n
                out.append(Sample(self.name + "_bucket", cum,
                                  key + (("le", _format_value(bound)),),
                                  self.type, self.help))
            cum += counts[-1]
            out.append(Sample(self.name + "_bucket", cum,
                              key + (("le", "+Inf"),),
                              self.type, self.help))
            out.append(Sample(self.name + "_sum", total, key,
                              self.type, self.help))
            out.append(Sample(self.name + "_count", cum, key,
                              self.type, self.help))
        return out


@dataclass
class _CollectorEntry:
    fn: "Callable[[], Iterable[Sample]]"
    name: str = ""


class MetricsRegistry:
    """Get-or-create registry of instruments plus scrape-time
    collectors; the single source for exporters and the CLI."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "dict[str, Any]" = {}
        self._collectors: "list[_CollectorEntry]" = []

    # -- instruments -------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {cls.__name__}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: "Iterable[float] | None" = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- collectors --------------------------------------------------------
    def register_collector(self, fn: "Callable[[], Iterable[Sample]]",
                           name: str = "") -> None:
        """Add a scrape-time sample source (a reader of state another
        component owns).  Re-registering the same non-empty ``name`` replaces
        the previous collector, so re-created services do not stack."""
        with self._lock:
            if name:
                self._collectors = [c for c in self._collectors
                                    if c.name != name]
            self._collectors.append(_CollectorEntry(fn, name))

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors = [c for c in self._collectors
                                if c.name != name]

    # -- scraping ----------------------------------------------------------
    def collect(self) -> "list[Sample]":
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        samples: list[Sample] = []
        for metric in metrics:
            samples.extend(metric.samples())
        for entry in collectors:
            try:
                samples.extend(entry.fn())
            except Exception as exc:  # noqa: BLE001 - scrape must survive
                samples.append(Sample("repro_collector_errors_total", 1.0,
                                      (("collector", entry.name or "?"),
                                       ("error", type(exc).__name__)),
                                      "counter",
                                      "collectors that raised at scrape"))
        return samples

    def snapshot(self) -> "dict[str, Any]":
        """JSON-friendly scrape: {metric name: {type, help, series}}."""
        out: "dict[str, Any]" = {}
        for s in self.collect():
            entry = out.setdefault(s.name, {"type": s.type,
                                            "help": s.help, "series": []})
            entry["series"].append({"labels": dict(s.labels),
                                    "value": s.value})
        return out

    def prometheus_text(self) -> str:
        """Prometheus text exposition format (one scrape)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for s in self.collect():
            family = s.name
            for suffix in ("_bucket", "_sum", "_count"):
                if s.type == "histogram" and family.endswith(suffix):
                    family = family[: -len(suffix)]
                    break
            if family not in seen_header:
                seen_header.add(family)
                if s.help:
                    lines.append(f"# HELP {family} {s.help}")
                lines.append(f"# TYPE {family} {s.type}")
            lines.append(f"{s.name}{_format_labels(s.labels)} "
                         f"{_format_value(s.value)}")
        return "\n".join(lines) + "\n"

    def reset(self) -> None:
        """Zero every instrument; instruments and collectors stay."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()

    def clear(self) -> None:
        """Drop every instrument and collector (bench/test reuse)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


#: Process-wide default registry used when callers don't inject one.
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _GLOBAL_REGISTRY
