"""Observability: spans, unified metrics, and trace/metric exporters.

The subsystem has four small parts:

* :mod:`repro.obs.clock` — the monotonic time source every timestamp
  in the repo goes through (``time.time()`` is lint-banned in
  ``src/repro``);
* :mod:`repro.obs.tracing` — span trees recording each request's path
  ``serve.admit → serve.pack → router.place → replica.transport →
  cluster.dispatch → engine.execute → serve.scatter``, with a no-op
  fast path when tracing is off and dict serialization so replica
  child processes can ship their subtrees home over the result pipe;
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and exponential-bucket histograms (a service records its
  serving facts on instruments of its own, in
  :class:`~repro.serve.metrics.ServeMetrics`), plus scrape-time
  collectors that read state other components own (the banks'
  ``CommandStats``, the pager, the replica tier);
* :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and,
  via the registry, Prometheus text exposition;
* :mod:`repro.obs.pmu` — the device PMU: per-bank counters read at
  scrape from the banks' own command stats, plus one O(1) tally per
  control-unit dispatch (kernel identity and a command-time
  utilization timeline), exported as ``repro_pmu_*``;
* :mod:`repro.obs.flightrec` — the always-on flight recorder (bounded
  event ring, crash spill files, merged postmortem dumps);
* :mod:`repro.obs.alerts` — SLO burn-rate rules over the registry;
* :mod:`repro.obs.dashboard` — the ``repro top`` renderer and the
  shared ``refresh_loop`` that ``stats --watch`` reuses.
"""

from . import clock
from .alerts import (AlertEvent, AlertManager, AlertRule, MetricsView,
                     default_rules)
from .dashboard import collect_view, refresh_loop, render_top
from .export import chrome_trace_dict, chrome_trace_events, \
    write_chrome_trace
from .flightrec import FlightRecorder, get_flight_recorder, postmortem
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry, Sample,
                      get_registry)
from .pmu import DevicePmu, get_pmu
from .tracing import (NOOP_SPAN, Span, Tracer, current_span, get_tracer,
                      span, use_span)

__all__ = [
    "clock",
    "Span", "Tracer", "NOOP_SPAN", "span", "current_span", "use_span",
    "get_tracer",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Sample",
    "get_registry",
    "chrome_trace_dict", "chrome_trace_events", "write_chrome_trace",
    "DevicePmu", "get_pmu",
    "FlightRecorder", "get_flight_recorder", "postmortem",
    "AlertRule", "AlertManager", "AlertEvent", "MetricsView",
    "default_rules",
    "render_top", "collect_view", "refresh_loop",
]
