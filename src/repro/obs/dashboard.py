"""Rendering for ``repro top`` and the ``stats --watch`` loop.

Pure-text rendering (``render_top``) over a plain-dict view
(``collect_view``), plus ``refresh_loop`` — the shared frame driver
that uses curses when stdout is an interactive terminal and falls
back to ANSI clear-and-reprint (or plain appends) everywhere else,
so tests and piped output stay deterministic.
"""

from __future__ import annotations

import sys
import time  # noqa: TID251 - frame pacing is wall-clock by nature

from repro.obs import clock

BAR_WIDTH = 24


def bar(fraction: float, width: int = BAR_WIDTH) -> str:
    """``[####....]`` utilization bar, clamped to [0, 1]."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def collect_view(stats: "dict | None" = None, *, alerts=None,
                 pmu=None, recorder=None, title: str = "repro top"
                 ) -> dict:
    """Assemble the dashboard view: service ``stats()`` snapshot,
    PMU snapshot, active alert states and the flight-recorder tail."""
    view = {"title": title, "t": clock.now(), "stats": stats or {}}
    view["pmu"] = pmu.snapshot() if pmu is not None else {}
    if alerts is not None:
        view["alerts"] = [
            {"rule": s.rule.name, "since": s.since,
             "value": s.last_value, "burn_short": s.burn_short,
             "burn_long": s.burn_long,
             "description": s.rule.description}
            for s in alerts.active()]
        view["rules"] = [rule.name for rule in alerts.rules()]
        view["transitions"] = [str(e) for e in alerts.events[-6:]]
    else:
        view["alerts"], view["rules"], view["transitions"] = [], [], []
    if recorder is not None:
        view["events"] = recorder.events()[-8:]
        view["n_events"] = recorder.n_recorded
    else:
        view["events"], view["n_events"] = [], 0
    return view


def _serving_lines(stats: dict) -> "list[str]":
    lines: "list[str]" = []
    req = stats.get("requests", {})
    lat = stats.get("latency_ms", {})
    slo = stats.get("slo", {})
    pack = stats.get("packing", {})
    lines.append(
        "serving   submitted %5d  completed %5d  shed %4d  "
        "in-flight %3d" % (req.get("submitted", 0),
                           req.get("completed", 0),
                           req.get("shed", 0),
                           req.get("in_flight", 0)))
    lines.append(
        "latency   p50 %7.2f ms   p99 %7.2f ms   goodput %6.2f rps"
        % (lat.get("p50", 0.0), lat.get("p99", 0.0),
           slo.get("goodput_rps", 0.0)))
    lines.append(
        "device    occupancy %s %4.0f%%   dispatches %d"
        % (bar(pack.get("lane_occupancy", 0.0)),
           100.0 * pack.get("lane_occupancy", 0.0),
           pack.get("dispatches", 0)))
    flushes = pack.get("flushes")
    if flushes:
        lines.append("flushes   " + "  ".join(
            "%s %d" % item for item in flushes.items()))
    tenants = stats.get("tenants", {})
    for tenant in sorted(tenants):
        counters = tenants[tenant]
        lines.append(
            "tenant    %-10s lanes %6d  completed %5d  shed %4d"
            % (tenant, counters.get("lanes", 0),
               counters.get("completed", 0), counters.get("shed", 0)))
    return lines


def _pmu_lines(pmu_snapshot: dict) -> "list[str]":
    lines: "list[str]" = []
    modules = pmu_snapshot.get("modules", {})
    for module_id in sorted(modules):
        row = modules[module_id]
        lines.append(
            "pmu m%-3s  util %s %4.0f%%  duty %4.0f%%  %6.0f nJ"
            % (module_id, bar(row["utilization"]),
               100.0 * row["utilization"], 100.0 * row["duty_cycle"],
               row["energy_nj"]))
        banks = row.get("banks", [])
        peak = max([b["activations"] for b in banks] + [1.0])
        for index, bank in enumerate(banks):
            lines.append(
                "  bank %-3d %s %8.0f acts  %6.0f AAP"
                % (index, bar(bank["activations"] / peak),
                   bank["activations"], bank["n_aap"]))
    return lines


def _alert_lines(view: dict) -> "list[str]":
    lines: "list[str]" = []
    active = view.get("alerts", [])
    if active:
        for state in active:
            burn = state.get("burn_short")
            lines.append("ALERT FIRING  %-24s burn %s  %s"
                         % (state["rule"],
                            "-" if burn is None else f"{burn:6.2f}",
                            state.get("description", "")))
    else:
        lines.append("alerts    none firing (%d rules armed)"
                     % len(view.get("rules", [])))
    for transition in view.get("transitions", []):
        lines.append("  " + transition)
    return lines


def render_top(view: dict) -> str:
    """Render one dashboard frame as plain text."""
    lines = ["=== %s · t=%.1fs · %d flight events ==="
             % (view.get("title", "repro top"), view.get("t", 0.0),
                view.get("n_events", 0))]
    lines.extend(_serving_lines(view.get("stats", {})))
    lines.extend(_pmu_lines(view.get("pmu", {})))
    lines.extend(_alert_lines(view))
    events = view.get("events", [])
    if events:
        lines.append("recent events:")
        for event in events:
            extra = {k: v for k, v in event.items()
                     if k not in ("t", "kind")}
            lines.append("  %9.3f %-18s %s"
                         % (event.get("t", 0.0), event.get("kind", ""),
                            extra if extra else ""))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the shared refresh loop
# ----------------------------------------------------------------------
def _curses_available() -> bool:
    try:
        import curses  # noqa: F401
    except ImportError:
        return False
    return True


def _curses_loop(frame_fn, interval_s: float,
                 frames: "int | None") -> int:
    import curses

    def run(screen) -> int:
        curses.use_default_colors()
        screen.timeout(max(1, int(interval_s * 1000)))
        shown = 0
        while frames is None or shown < frames:
            text = frame_fn(shown)
            screen.erase()
            rows, cols = screen.getmaxyx()
            for y, line in enumerate(text.splitlines()[:rows - 1]):
                screen.addnstr(y, 0, line, cols - 1)
            screen.addnstr(rows - 1, 0, "q to quit", cols - 1)
            screen.refresh()
            shown += 1
            if screen.getch() in (ord("q"), ord("Q")):
                break
        return shown

    return curses.wrapper(run)


def refresh_loop(frame_fn, interval_s: float = 1.0,
                 frames: "int | None" = None, screen: str = "auto",
                 out=None) -> int:
    """Drive ``frame_fn(index) -> str`` periodically.

    ``screen``: ``"curses"`` | ``"plain"`` | ``"auto"`` (curses only
    on an interactive terminal).  Returns the number of frames shown;
    a ``KeyboardInterrupt`` exits cleanly.
    """
    out = out or sys.stdout
    use_curses = (screen == "curses"
                  or (screen == "auto"
                      and getattr(out, "isatty", lambda: False)()
                      and _curses_available()))
    try:
        if use_curses and _curses_available():
            return _curses_loop(frame_fn, interval_s, frames)
        shown = 0
        clear = getattr(out, "isatty", lambda: False)()
        while frames is None or shown < frames:
            text = frame_fn(shown)
            if clear:
                out.write("\x1b[2J\x1b[H")
            out.write(text + "\n")
            out.flush()
            shown += 1
            if frames is None or shown < frames:
                time.sleep(interval_s)
        return shown
    except KeyboardInterrupt:
        return -1
