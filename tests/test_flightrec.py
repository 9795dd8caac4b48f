"""Tests for the always-on flight recorder.

Units drive a private :class:`FlightRecorder` (ring bound, spill
files, segment adoption, merged dumps); the integration tests run real
replica processes and assert the cross-process black-box story — a
cleanly-stopped replica ships its ring home over the pipe, a
SIGKILLed one is recovered from its continuously-rewritten spill file,
and the merged postmortem contains the dead replica's final events.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.framework import SimdramConfig
from repro.dram.geometry import DramGeometry
from repro.errors import ReplicaError
from repro.obs.flightrec import (FlightRecorder, get_flight_recorder,
                                 postmortem, read_spill)
from repro.runtime import SimdramCluster
from repro.runtime.replica import ReplicaSet, WorkDescriptor
from repro.serve import ServeConfig, SimdramService


def small_config() -> SimdramConfig:
    return SimdramConfig(geometry=DramGeometry.sim_small(
        cols=32, data_rows=512, banks=2))


def add_desc(width: int = 8) -> WorkDescriptor:
    return WorkDescriptor(kind="op", op_name="add", root=None,
                          slot_names=(), width=width, engine="auto")


class TestRing:
    def test_record_and_events(self):
        rec = FlightRecorder(capacity=8, source="t")
        rec.record("a", x=1)
        rec.record("b")
        kinds = [e["kind"] for e in rec.events()]
        assert kinds == ["a", "b"]
        assert rec.events()[0]["x"] == 1
        assert all("t" in e for e in rec.events())

    def test_ring_bounded_and_drop_count(self):
        rec = FlightRecorder(capacity=4, source="t")
        for i in range(10):
            rec.record("e", i=i)
        assert len(rec.events()) == 4
        assert [e["i"] for e in rec.events()] == [6, 7, 8, 9]
        assert rec.n_recorded == 10
        assert rec.n_dropped == 6

    def test_snapshot_is_json_ready(self):
        rec = FlightRecorder(capacity=4, source="snap")
        rec.record("e", label="x")
        snap = json.loads(json.dumps(rec.snapshot()))
        assert snap["source"] == "snap"
        assert snap["pid"] == os.getpid()
        assert snap["n_recorded"] == 1 and snap["n_dropped"] == 0

    def test_clear(self):
        rec = FlightRecorder(capacity=4)
        rec.record("e")
        rec.adopt_segment({"source": "o", "events": []})
        rec.clear()
        assert rec.events() == [] and rec.segments() == []
        assert rec.n_recorded == 0


class TestSpill:
    def test_spill_appended_every_event(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        rec.record("first")
        assert read_spill(str(path))["n_recorded"] == 1
        rec.record("second")
        payload = read_spill(str(path))
        assert payload["source"] == "child"
        assert payload["pid"] == os.getpid()
        assert payload["n_recorded"] == 2 and payload["n_dropped"] == 0
        assert [e["kind"] for e in payload["events"]] == \
            ["first", "second"]
        # One header line, then one line per event, each valid JSON.
        header, *lines = path.read_text().splitlines()
        assert json.loads(header)["capacity"] == 8
        assert [json.loads(line)["kind"] for line in lines] == \
            ["first", "second"]

    def test_spill_every_n(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path), every=3)
        rec.record("a")
        rec.record("b")
        assert not path.exists()
        rec.record("c")
        assert read_spill(str(path))["n_recorded"] == 3
        rec.record("d")
        rec.record("e")
        assert read_spill(str(path))["n_recorded"] == 3
        rec.record("f")             # the second batch is an append
        assert [e["kind"] for e in read_spill(str(path))["events"]] \
            == list("abcdef")

    def test_spill_now_and_remove(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path), every=1000)
        rec.record("a")
        assert not path.exists()
        rec.spill_now()
        assert read_spill(str(path))["n_recorded"] == 1
        rec.record("b")
        rec.spill_now()
        assert read_spill(str(path))["n_recorded"] == 2
        rec.remove_spill()
        assert not path.exists()
        rec.record("c")              # spilling is off after removal
        assert not path.exists()

    def test_broken_spill_path_never_raises(self):
        rec = FlightRecorder(capacity=4)
        rec.configure_spill("/nonexistent-dir/nope/spill.json")
        rec.record("survives")
        assert rec.events()[-1]["kind"] == "survives"

    def test_unserializable_field_never_raises(self, tmp_path):
        """``record`` promises "never raises": a field JSON cannot
        render goes through ``str``, and an event that defeats even
        that (a tuple-keyed dict) is treated like a broken disk — it
        stays in the ring and is missing from the file."""
        rec = FlightRecorder(capacity=4)
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        rec.record("numpy", lanes=np.int64(3), shape=np.arange(2))
        rec.record("hopeless", table={(1, 2): 3})
        rec.record("after")
        assert rec.events()[0]["lanes"] == 3     # the ring keeps values
        assert [e["kind"] for e in rec.events()] == \
            ["numpy", "hopeless", "after"]
        payload = read_spill(str(path))
        assert payload["events"][0]["lanes"] == "3"
        assert [e["kind"] for e in payload["events"]] == \
            ["numpy", "after"]
        assert payload["n_recorded"] == 3 and payload["n_dropped"] == 1

    def test_torn_last_line_is_dropped(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        for kind in ("a", "b", "c"):
            rec.record(kind)
        with open(path, "ab") as handle:     # SIGKILL inside a write
            handle.write(b'{"t": 1.0, "kind": "to')
        payload = read_spill(str(path))
        assert [e["kind"] for e in payload["events"]] == ["a", "b", "c"]
        assert payload["n_recorded"] == 3
        parent = FlightRecorder(capacity=8)
        assert parent.adopt_spill_file(str(path), source="replica-0")
        assert parent.segments() == ["replica-0"]
        # Torn inside the header (or not a spill at all): unreadable.
        path.write_bytes(b'{"source": "chi')
        assert read_spill(str(path)) is None
        assert not parent.adopt_spill_file(str(path))
        path.write_bytes(b'[1, 2]\n')
        assert read_spill(str(path)) is None

    def test_compaction_bounds_the_file(self, tmp_path):
        """The file is rewritten from the ring before it passes
        2 x capacity event lines, and the counts survive it."""
        capacity = 8
        rec = FlightRecorder(capacity=capacity, source="child")
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        rewrites, longest = 0, 0
        inode = None
        for i in range(5 * capacity + 3):
            rec.record("e", i=i)
            n_lines = len(path.read_bytes().splitlines())
            longest = max(longest, n_lines)
            if os.stat(path).st_ino != inode:
                inode = os.stat(path).st_ino
                rewrites += 1
            payload = read_spill(str(path))
            assert payload["n_recorded"] == i + 1
            assert payload["n_dropped"] == max(0, i + 1 - capacity)
            assert [e["i"] for e in payload["events"]] == list(
                range(max(0, i + 1 - capacity), i + 1))
        assert longest == 2 * capacity + 1
        # Appends in between: a rewrite once per ~capacity events.
        assert rewrites <= 5
        assert not list(tmp_path.glob("*.tmp-*"))

    def test_clear_starts_the_spill_over(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        path = tmp_path / "spill.json"
        rec.configure_spill(str(path))
        rec.record("old")
        rec.clear()
        rec.record("new")
        payload = read_spill(str(path))
        assert payload["n_recorded"] == 1
        assert [e["kind"] for e in payload["events"]] == ["new"]

    def test_spilled_record_cost_is_flat_in_occupancy(self, tmp_path):
        """The point of the append-only file: an event costs the same
        with 10 events in the ring as with a full one (the whole-ring
        rewrite it replaces cost 300x more at a full ring)."""
        import time

        def per_event(occupancy: int, n: int) -> float:
            best = float("inf")
            for attempt in range(3):
                rec = FlightRecorder(capacity=4096)
                for i in range(occupancy):
                    rec.record("fill", i=i)
                rec.configure_spill(
                    str(tmp_path / f"spill-{occupancy}-{attempt}"))
                rec.record("open")       # creates the file
                start = time.perf_counter()
                for i in range(n):
                    rec.record("replica.job", replica=0, job_id=i,
                               op="add", width=8)
                best = min(best, time.perf_counter() - start)
            return best / n

        nearly_empty = per_event(10, 400)
        # Longer than the ring, so the full ring's share of
        # compactions is in the sample.
        full = per_event(4096, 4200)
        assert full <= 2 * nearly_empty
        assert nearly_empty <= 2 * full


class TestAdoptionAndDump:
    def test_adopt_segment_and_merged_dump(self):
        rec = FlightRecorder(capacity=8, source="main")
        rec.record("local.event")
        rec.adopt_segment({"source": "replica-0",
                           "events": [{"t": 0.5, "kind": "remote.early"},
                                      {"t": 1e12, "kind": "remote.late"}]})
        dump = rec.dump(reason="why not")
        assert dump["reason"] == "why not"
        assert set(dump["segments"]) == {"main", "replica-0"}
        assert dump["n_events"] == 3
        kinds = [e["kind"] for e in dump["events"]]
        # Time-sorted across segments, each event source-tagged.
        assert kinds[0] == "remote.early" and kinds[-1] == "remote.late"
        sources = {e["source"] for e in dump["events"]}
        assert sources == {"main", "replica-0"}

    def test_adopt_replaces_same_source(self):
        rec = FlightRecorder(capacity=8)
        rec.adopt_segment({"source": "r", "events": [{"t": 1, "kind": "a"}]})
        rec.adopt_segment({"source": "r", "events": [{"t": 2, "kind": "b"}]})
        assert [e["kind"] for e in rec.dump()["events"]
                if e["source"] == "r"] == ["b"]

    def test_adopt_garbage_ignored(self):
        rec = FlightRecorder(capacity=8)
        rec.adopt_segment("not a dict")
        rec.adopt_segment({"no_events_key": True})
        assert rec.segments() == []

    def test_adopt_spill_file_missing_is_false(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        assert not rec.adopt_spill_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{{{")
        assert not rec.adopt_spill_file(str(bad))

    def test_dump_to_writes_json(self, tmp_path):
        rec = FlightRecorder(capacity=8, source="main")
        rec.record("e")
        path = rec.dump_to(str(tmp_path / "out.json"), reason="r")
        payload = json.loads(open(path).read())
        assert payload["reason"] == "r" and payload["n_events"] == 1

    def test_dump_to_default_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHTREC_DIR", str(tmp_path / "fr"))
        rec = FlightRecorder(capacity=8)
        rec.record("e")
        path = rec.dump_to(reason="r")
        assert path.startswith(str(tmp_path / "fr"))
        assert os.path.exists(path)

    def test_postmortem_helper_uses_global_recorder(self, tmp_path):
        get_flight_recorder().record("postmortem.test.marker")
        path = postmortem("unit test", str(tmp_path / "pm.json"))
        payload = json.loads(open(path).read())
        assert any(e["kind"] == "postmortem.test.marker"
                   for e in payload["events"])


class TestReplicaBlackBox:
    def test_clean_stop_ships_ring_home(self):
        with ReplicaSet(1, config=small_config()) as replicas:
            a = np.arange(8)
            replicas.submit(0, add_desc(), [a, a], lanes=8).result(60)
        recorder = get_flight_recorder()
        assert "replica-0" in recorder.segments()
        dump = recorder.dump()
        kinds = [e["kind"] for e in dump["events"]
                 if e["source"] == "replica-0"]
        assert "replica.ready" in kinds
        assert "replica.job" in kinds and "replica.job.done" in kinds
        assert "replica.stop" in kinds

    def test_kill_drill_recovers_black_box(self):
        """The acceptance drill: SIGKILL a replica mid-flight and read
        its final events back out of the merged postmortem."""
        with ReplicaSet(2, config=small_config()) as replicas:
            a = np.arange(8)
            replicas.submit(0, add_desc(), [a, a], lanes=8).result(60)
            spill = os.path.join(replicas.spool_dir, "replica-0.json")
            assert os.path.exists(spill)   # continuously rewritten
            future = replicas.submit(0, add_desc(), [a, a], lanes=8)
            replicas.kill(0)
            with pytest.raises(ReplicaError):
                future.result(60)
            dump = get_flight_recorder().dump(reason="kill drill")

        assert "replica-0" in dump["segments"]
        dead = [e for e in dump["events"] if e["source"] == "replica-0"]
        kinds = [e["kind"] for e in dead]
        # The black box holds the dead replica's final moments ...
        assert "replica.ready" in kinds and "replica.job" in kinds
        # ... and the parent recorded the death with recovery status.
        deaths = [e for e in dump["events"]
                  if e["kind"] == "replica.death" and e["replica"] == 0]
        assert deaths and deaths[-1]["black_box_recovered"]

    def test_spool_dir_removed_on_close(self):
        with ReplicaSet(1, config=small_config()) as replicas:
            spool = replicas.spool_dir
            assert os.path.isdir(spool)
        assert not os.path.exists(spool)


class TestServeEvents:
    def test_serve_lifecycle_events_recorded(self):
        recorder = get_flight_recorder()
        mark = recorder.n_recorded
        with SimdramCluster(1, config=small_config()) as cluster, \
                SimdramService(cluster,
                               ServeConfig(max_wait_s=0.001,
                                           slo_aware=True)) as service:
            a = np.arange(8)
            service.submit("add", a, a, width=8,
                           deadline_s=30.0).result(60)
        fresh = [e for e in recorder.events()
                 if e.get("kind", "").startswith(("serve.", "pmu."))]
        kinds = {e["kind"] for e in fresh}
        assert {"serve.admit", "serve.dispatch", "pmu.delta"} <= kinds
        assert recorder.n_recorded > mark
