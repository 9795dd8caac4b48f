"""Tests for the command-line interface."""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
#: The documents whose ``python -m repro ...`` lines must stay runnable.
DOCS = (ROOT / "README.md", ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
COMMAND = "python -m repro "


def documented_commands(text: str) -> list[str]:
    """The argument string of every ``python -m repro ...`` command in
    a markdown text: one per line of a fenced block (up to a ``#``
    comment), one per inline code span (which may wrap lines)."""
    commands = []
    for index, chunk in enumerate(text.split("```")):
        if index % 2:   # inside a fence
            lines = chunk.splitlines()
        else:
            lines = (" ".join(span.split())
                     for span in re.findall(r"`([^`]+)`", chunk))
        commands += [line.split(COMMAND, 1)[1].split(" #")[0]
                     for line in lines if COMMAND in line]
    return commands


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_op_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "frobnicate", "8"])

    def test_backend_choices(self):
        args = build_parser().parse_args(
            ["compile", "add", "8", "--backend", "ambit"])
        assert args.backend == "ambit"


class TestDocumentedCommands:
    @pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
    def test_every_documented_command_parses(self, doc):
        """Docs cannot cite a verb or flag the CLI no longer has."""
        commands = documented_commands(doc.read_text())
        assert commands
        for command in commands:
            try:
                build_parser().parse_args(shlex.split(command))
            except SystemExit:
                pytest.fail(f"{doc.name}: `python -m repro {command}` "
                            f"does not parse")


class TestCommands:
    def test_ops_lists_catalog(self, capsys):
        assert main(["ops"]) == 0
        out = capsys.readouterr().out
        assert "add" in out and "xor_red" in out
        assert "paper" in out and "extension" in out

    def test_compile_prints_listing(self, capsys):
        assert main(["compile", "add", "8"]) == 0
        out = capsys.readouterr().out
        assert "AAP" in out and "latency" in out

    def test_compile_full_listing(self, capsys):
        assert main(["compile", "gt", "4", "--full"]) == 0
        out = capsys.readouterr().out
        assert "more)" not in out

    def test_compare_prints_platforms(self, capsys):
        assert main(["compare", "add", "8"]) == 0
        out = capsys.readouterr().out
        for platform in ("CPU", "GPU", "Ambit:1", "SIMDRAM:16"):
            assert platform in out

    def test_demo_runs_green(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "verified against numpy" in out

    def test_cluster_runs_green(self, capsys):
        assert main(["cluster", "--modules", "2", "--op", "add",
                     "--n", "200", "--cols", "32", "--data-rows", "64",
                     "--banks", "1"]) == 0
        out = capsys.readouterr().out
        assert "2-module cluster" in out
        assert "OK" in out and "MISMATCH" not in out

    def test_cluster_paging_path(self, capsys):
        """Tiny D-group forces the CLI run through spill/fill."""
        assert main(["cluster", "--modules", "1", "--op", "mul",
                     "--n", "64", "--width", "4", "--cols", "16",
                     "--data-rows", "48", "--banks", "1"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out

    def test_serve_demo_runs_green(self, capsys):
        """The serving load generator verifies every request."""
        assert main(["serve", "--requests", "24", "--modules", "2",
                     "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "24 / 24" in out
        assert "lane occupancy" in out
        assert "tenant 'pro'" in out

    def test_serve_stream_runs_green(self, capsys):
        """Two staggered waves of streams, each verified against the
        numpy fold, share dispatches across streams."""
        assert main(["serve", "--stream", "--requests", "4",
                     "--steps", "3", "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "streams verified" in out and "4 / 4" in out
        assert "4 staggered streams x 3 steps" in out

    def test_kill_one_needs_replicas(self, capsys):
        assert main(["serve", "--kill-one"]) == 2
        assert "--backend replicas" in capsys.readouterr().err

    def test_stats_zero_traffic_scrape_is_schema_stable(self, capsys):
        """``stats --requests 0`` runs no traffic at all, yet the
        scrape still exposes every serve metric family (zero-valued),
        including the SLO and energy series."""
        assert main(["stats", "--requests", "0"]) == 0
        out = capsys.readouterr().out
        assert 'repro_serve_requests_total{state="submitted"} 0' in out
        assert "repro_serve_goodput 0" in out
        assert 'repro_serve_requests_total{state="shed"} 0' in out
        assert "repro_request_energy_joules_count 0" in out
        assert "repro_serve_request_latency_seconds_count 0" in out

    def test_stats_reports_slo_traffic(self, capsys):
        """The default stats workload carries deadlines: one request
        is intentionally lapsed (shed), the rest complete."""
        assert main(["stats", "--requests", "9"]) == 0
        out = capsys.readouterr().out
        assert 'repro_serve_requests_total{state="shed"} 1' in out
        assert 'repro_serve_slo_requests_total{state="on_time"} 2' \
            in out
        assert "repro_request_energy_joules_count 8" in out


class TestObservabilityCommands:
    def test_stats_watch_reprints_scrapes(self, capsys):
        assert main(["stats", "--requests", "6", "--watch", "0.01",
                     "--frames", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("# TYPE repro_serve_requests_total counter") == 3

    def test_top_steady_renders_dashboard(self, capsys):
        assert main(["top", "--scenario", "steady", "--plain",
                     "--frames", "2", "--interval", "0.01",
                     "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "repro top · steady:steady" in out
        assert "serving   submitted" in out
        assert "flushes   full " in out and "  timer 0  " in out
        assert "pmu m" in out and "bank 0" in out
        assert "none firing (4 rules armed)" in out

    def test_top_collapse_fires_and_resolves_goodput_alert(self, capsys):
        """The acceptance scenario: a synthetic goodput collapse fires
        a burn-rate alert on screen and recovery resolves it."""
        assert main(["top", "--scenario", "collapse", "--plain",
                     "--frames", "12", "--interval", "0.01",
                     "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "ALERT FIRING  goodput_floor" in out
        assert "[FIRING] goodput_floor" in out
        assert "[RESOLVED] goodput_floor" in out

    def test_serve_cluster_postmortem_dump(self, capsys, tmp_path):
        import json
        path = tmp_path / "postmortem.json"
        assert main(["serve", "--backend", "replicas", "--replicas", "2",
                     "--requests", "6", "--lanes", "8", "--kill-one",
                     "--postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(path) in out and "6 / 6" in out
        dump = json.loads(path.read_text())
        assert dump["reason"] == "serve drill"
        assert any(source.startswith("replica-")
                   for source in dump["segments"])
        assert any(e["kind"] == "replica.death" for e in dump["events"])


class TestExplain:
    def test_explain_fits_one_screen_and_names_every_stage(self, capsys):
        assert main(["explain", "add", "8"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) <= 24
        for needle in ("gates", "built", "optimized", "XOR3 pass-through",
                       "topological", "<- kept", "sibling pairs: 8 placed",
                       "two-wordline installs: 16", "DCC round trips",
                       "temp-row high-water: 0", "in0 -> bg"):
            assert needle in out, needle

    def test_explain_ambit_backend_has_no_pairs(self, capsys):
        assert main(["explain", "mul", "4", "--backend", "ambit"]) == 0
        out = capsys.readouterr().out
        assert "sibling pairs: 0 placed" in out
        assert "XOR3 pass-through" not in out
