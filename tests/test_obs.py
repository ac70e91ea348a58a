"""The telemetry plane (DESIGN.md §13): tracing, metrics, profiler.

The contract under test is double-sided: with ``REPRO_OBS`` unset the
plane must be *invisible* (bit-identical stats, no telemetry section, no
files); with it set, the event stream and metric series must be
complete, crash-recoverable, schema-versioned and digest-neutral.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from helpers import stats_dict
from repro.api import env as api_env
from repro.api.cli import main as cli_main
from repro.api.result import KNOWN_SECTIONS, CellResult, RunResult
from repro.api.session import Session
from repro.api.spec import (
    ExperimentSpec,
    SamplingSpec,
    StoreSpec,
    WindowSpec,
    default_mechanisms,
)
from repro.obs import (
    NULL_TRACER,
    RECORD_FORMAT,
    MetricsHub,
    ObsSpec,
    Tracer,
    activated,
    current,
    decode_record,
    encode_record,
    format_record,
    obs_tracer,
    read_events,
)
from repro.pipeline.config import MechanismConfig
from repro.pipeline.stats import Stats
from repro.service.faults import FaultPlan
from repro.service.supervisor import (
    ShardReport,
    ShardedSweepResult,
    ShardSupervisor,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    settings_ = dict(
        benchmarks=("mcf",),
        mechanisms=default_mechanisms(),
        seeds=(1,),
        window=WindowSpec(warmup=128, measure=512),
        store=StoreSpec(enabled=False),
    )
    settings_.update(overrides)
    return ExperimentSpec(**settings_)


def obs_env(monkeypatch, tmp_path, every: int = 100) -> str:
    directory = str(tmp_path / "obs")
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", directory)
    monkeypatch.setenv("REPRO_METRICS_EVERY", str(every))
    return directory


def all_event_names(directory: str) -> set[str]:
    names: set[str] = set()
    for path in glob.glob(os.path.join(directory, "events-*.jsonl")):
        records, _ = read_events(path)
        names |= {record["name"] for record in records}
    return names


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------

scalar = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
)


class TestRecordCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["begin", "end", "event"]),
        name=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=24,
        ),
        t=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        pid=st.integers(min_value=1, max_value=1 << 22),
        tags=st.dictionaries(st.text(min_size=1, max_size=8), scalar,
                             max_size=4),
    )
    def test_round_trip(self, kind, name, t, pid, tags):
        record = {"v": RECORD_FORMAT, "t": t, "pid": pid, "kind": kind,
                  "name": name, "id": 7, "parent": None, "tags": tags}
        assert decode_record(encode_record(record)) == json.loads(
            encode_record(record)
        )
        # One flat line, always.
        assert "\n" not in encode_record(record)
        format_record(record)  # must never raise

    def test_rejects_future_format(self):
        line = encode_record({"v": RECORD_FORMAT + 1, "t": 0.0, "pid": 1,
                              "kind": "event", "name": "x"})
        with pytest.raises(ValueError, match="newer"):
            decode_record(line)

    def test_rejects_garbage(self):
        for line in ('{"v": 1', "[]", '{"v": 1, "kind": "noise", '
                     '"name": "x", "t": 0, "pid": 1}'):
            with pytest.raises(ValueError):
                decode_record(line)

    def test_rejects_nested_tags(self):
        line = encode_record({"v": 1, "t": 0.0, "pid": 1, "kind": "event",
                              "name": "x", "tags": {"deep": {"no": 1}}})
        with pytest.raises(ValueError, match="flat"):
            decode_record(line)

    def test_torn_tail_is_dropped_not_raised(self, tmp_path):
        """Crash truncation: every complete record recovered, the torn
        final line counted."""
        path = tmp_path / "events-1.jsonl"
        good = encode_record({"v": 1, "t": 1.0, "pid": 1, "kind": "event",
                              "name": "a"})
        future = encode_record({"v": RECORD_FORMAT + 1, "t": 2.0, "pid": 1,
                                "kind": "event", "name": "b"})
        path.write_text(good + "\n" + future + "\n" + good[: len(good) // 2],
                        encoding="utf-8")
        records, dropped = read_events(path)
        assert [r["name"] for r in records] == ["a"]
        assert dropped == 2  # the future-format record and the torn tail


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_assigns_parents(self, tmp_path):
        path = tmp_path / "events-{pid}.jsonl"
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1.0
            return clock_value[0]

        tracer = Tracer(str(path), clock=clock)
        with tracer.span("outer", layer=1):
            with tracer.span("inner"):
                tracer.event("point", note="here")
        tracer.close()
        records, dropped = read_events(tmp_path / f"events-{os.getpid()}.jsonl")
        assert dropped == 0
        by_name = {(r["name"], r["kind"]): r for r in records}
        outer = by_name[("outer", "begin")]
        inner = by_name[("inner", "begin")]
        assert outer["parent"] is None
        assert inner["parent"] == outer["id"]
        assert by_name[("point", "event")]["parent"] == inner["id"]
        assert by_name[("outer", "begin")]["tags"] == {"layer": 1}
        # begin/end pairs share ids; the monotonic stub orders them.
        assert by_name[("outer", "end")]["id"] == outer["id"]
        assert by_name[("outer", "end")]["t"] > outer["t"]

    def test_span_tags_error_class_on_exception(self, tmp_path):
        tracer = Tracer(str(tmp_path / "events-{pid}.jsonl"))
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        tracer.close()
        records, _ = read_events(tmp_path / f"events-{os.getpid()}.jsonl")
        end = [r for r in records if r["kind"] == "end"][0]
        assert end["tags"]["error"] == "RuntimeError"

    def test_explicit_begin_end_for_interleaved_work(self, tmp_path):
        """The supervisor's slot coroutines interleave: explicit ids must
        not depend on a nesting stack."""
        tracer = Tracer(str(tmp_path / "events-{pid}.jsonl"))
        a = tracer.begin("task", shard=0)
        b = tracer.begin("task", shard=1)
        tracer.end(a, "task", shard=0, status="ok")
        tracer.end(b, "task", shard=1, status="failed")
        tracer.close()
        records, _ = read_events(tmp_path / f"events-{os.getpid()}.jsonl")
        ends = {r["tags"]["shard"]: r for r in records if r["kind"] == "end"}
        begins = {r["tags"]["shard"]: r for r in records
                  if r["kind"] == "begin"}
        assert ends[0]["id"] == begins[0]["id"] != begins[1]["id"]
        assert ends[1]["id"] == begins[1]["id"]

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.active
        with NULL_TRACER.span("anything", tag=1):
            NULL_TRACER.event("nothing")
        NULL_TRACER.end(NULL_TRACER.begin("x"), "x")
        NULL_TRACER.close()

    def test_no_obs_no_runtime_no_files(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert current() is None
        assert obs_tracer() is NULL_TRACER


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetricsHub:
    def test_cadence_and_growth(self, monkeypatch, tmp_path):
        obs_env(monkeypatch, tmp_path, every=50)
        spec = tiny_spec(window=WindowSpec(warmup=0, measure=3000))
        result = Session.for_spec(spec).run(spec)
        assert result.telemetry is not None
        cells = result.telemetry["cells"]
        assert len(cells) == len(spec.mechanisms)
        for cell in cells:
            series = cell["series"]
            total = series["total_committed"]
            assert cell["samples"] == len(total) > 256 / 50  # grew if needed
            # x-axis strictly increasing; boundary overshoot bounded by
            # the commit width (8-wide core).
            assert all(b > a for a, b in zip(total, total[1:]))
            for value, boundary in zip(total, range(50, 10**9, 50)):
                assert boundary <= value < boundary + 8
            # cumulative counters never decrease
            for name in ("cycles", "committed", "branches"):
                column = series[name]
                assert all(b >= a for a, b in zip(column, column[1:]))

    def test_rejects_nonpositive_cadence(self):
        with pytest.raises(ValueError):
            MetricsHub(0)

    def test_metrics_off_when_cadence_zero(self, monkeypatch, tmp_path):
        obs_env(monkeypatch, tmp_path, every=0)
        spec = tiny_spec()
        result = Session.for_spec(spec).run(spec)
        # Tracing active, metric series empty: cells list has no entries.
        assert result.telemetry is not None
        assert result.telemetry["cells"] == []


# ---------------------------------------------------------------------------
# The golden contract: observed == unobserved, bit for bit
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @pytest.mark.parametrize("sampled,stored",
                             [(1, 1), (1, 0), (0, 1), (0, 0)])
    def test_obs_is_invisible_on_every_compute_plane(
        self, monkeypatch, tmp_path, sampled, stored
    ):
        # The planes are detail vs sampled (functional warming + drains)
        # execution, and a freshly interpreted vs a store-loaded trace:
        # with a store, the observed run loads what the baseline wrote.
        spec = tiny_spec(
            benchmarks=("mcf", "dealII"),
            sampling=SamplingSpec(enabled=bool(sampled), interval=128,
                                  detail_ratio=0.5, detail_warmup=32),
            store=StoreSpec(path=str(tmp_path / "store"),
                            enabled=bool(stored)),
        )

        monkeypatch.delenv("REPRO_OBS", raising=False)
        baseline = Session.for_spec(spec).run(spec)
        assert baseline.telemetry is None

        obs_env(monkeypatch, tmp_path, every=64)
        observed = Session.for_spec(spec).run(spec)
        assert observed.telemetry is not None
        assert observed.digest() == baseline.digest()
        for cell_a, cell_b in zip(baseline.cells, observed.cells):
            assert stats_dict(cell_a.stats) == stats_dict(cell_b.stats)

    def test_obs_spec_never_joins_the_fingerprint(self):
        spec = tiny_spec()
        loud = tiny_spec(obs=ObsSpec(enabled=True, dir="/tmp/x",
                                     metrics_every=7))
        assert spec.fingerprint() == loud.fingerprint()

    def test_stats_layout_unchanged(self):
        """The digest covers sorted asdict(Stats): the plane must not
        have grown the dataclass."""
        assert "telemetry" not in {f.name for f in
                                   dataclasses.fields(Stats)}


# ---------------------------------------------------------------------------
# Activation precedence
# ---------------------------------------------------------------------------


class TestActivation:
    def test_explicit_spec_beats_environment(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        spec_dir = tmp_path / "explicit"
        with activated(ObsSpec(enabled=True, dir=str(spec_dir),
                               metrics_every=10)) as runtime:
            assert current() is runtime
            assert str(runtime.dir) == str(spec_dir)
        assert current() is None

    def test_disabled_spec_does_not_suppress_env(self, monkeypatch,
                                                 tmp_path):
        directory = obs_env(monkeypatch, tmp_path)
        with activated(ObsSpec(enabled=False)) as runtime:
            assert runtime is not None
            assert str(runtime.dir) == directory

    def test_session_run_with_spec_obs(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        directory = tmp_path / "spec-obs"
        spec = tiny_spec(obs=ObsSpec(enabled=True, dir=str(directory),
                                     metrics_every=100))
        result = Session.for_spec(spec).run(spec)
        assert result.telemetry is not None
        assert result.telemetry["format"] == 1
        assert result.telemetry["cells"]
        assert "sweep.cell" in all_event_names(str(directory))
        # The installed runtime is scoped to the run.
        assert current() is None

    def test_env_runtime_swaps_on_value_change(self, monkeypatch, tmp_path):
        obs_env(monkeypatch, tmp_path, every=10)
        first = current()
        monkeypatch.setenv("REPRO_METRICS_EVERY", "20")
        second = current()
        assert first is not second
        assert second.metrics_every == 20


# ---------------------------------------------------------------------------
# Artifact: telemetry section + forward compatibility
# ---------------------------------------------------------------------------


class TestArtifact:
    def _result(self, telemetry=None, extra=None) -> RunResult:
        spec = tiny_spec()
        stats = Stats()
        stats.committed, stats.cycles = 512, 700
        return RunResult(
            spec=spec,
            cells=[CellResult("mcf", "baseline", 1, stats)],
            telemetry=telemetry,
            extra_sections=extra or {},
        )

    def test_telemetry_round_trips_and_digest_is_neutral(self, tmp_path):
        bare = self._result()
        loud = self._result(telemetry={"format": 1, "metrics_every": 10,
                                       "events_dir": "x", "cells": []})
        assert bare.digest() == loud.digest()
        path = tmp_path / "artifact.json"
        loud.save(path)
        loaded = RunResult.load(path)
        assert loaded.telemetry == loud.telemetry
        assert loaded.digest() == bare.digest()
        # An untelemetered artifact has no telemetry key at all.
        bare.save(path)
        assert "telemetry" not in json.loads(path.read_text())

    def test_unknown_sections_survive_a_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "artifact.json"
        result.save(path)
        payload = json.loads(path.read_text())
        payload["provenance_v9"] = {"future": True}
        path.write_text(json.dumps(payload))
        loaded = RunResult.load(path)
        assert loaded.extra_sections == {"provenance_v9": {"future": True}}
        assert loaded.digest() == result.digest()
        again = tmp_path / "again.json"
        loaded.save(again)
        assert json.loads(again.read_text())["provenance_v9"] == {
            "future": True
        }
        assert "provenance_v9" not in KNOWN_SECTIONS

    def test_inspect_renders_extra_sections(self, tmp_path, capsys):
        result = self._result(extra={"provenance_v9": {"future": True}})
        path = tmp_path / "artifact.json"
        result.save(path)
        assert cli_main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "provenance_v9" in out
        assert "not understood by this build" in out

    def test_inspect_metrics_renders_series(self, monkeypatch, tmp_path,
                                            capsys):
        obs_env(monkeypatch, tmp_path, every=100)
        spec = tiny_spec()
        result = Session.for_spec(spec).run(spec)
        path = tmp_path / "artifact.json"
        result.save(path)
        assert cli_main(["inspect", str(path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry" in out
        assert "total_committed" in out


# ---------------------------------------------------------------------------
# Fault matrix under observation
# ---------------------------------------------------------------------------


class TestFaultedShardedSweep:
    def test_lifecycle_events_match_injected_faults(self, monkeypatch,
                                                    tmp_path):
        directory = obs_env(monkeypatch, tmp_path, every=100)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        spec = tiny_spec(benchmarks=("mcf", "dealII"))
        supervisor = ShardSupervisor(
            backoff_base=0.01, backoff_cap=0.05, deadline=60.0,
            poll_interval=0.005, faults=FaultPlan.parse("crash:0,corrupt:1"),
        )
        outcome = supervisor.run(spec, shards=2)
        assert outcome.complete
        # Reports mirror the injected plan, kind for kind.
        assert outcome.shard_reports[0].failure_kinds == ("death",)
        assert outcome.shard_reports[1].failure_kinds == ("corrupt",)
        for report in outcome.shard_reports.values():
            assert report.attempts == 2
            assert report.backoff_seconds > 0
            assert not report.quarantined
        # The event stream tells the same story.
        names = all_event_names(directory)
        for needed in ("shard.plan", "shard.dispatch", "shard.attempt",
                       "shard.retry", "shard.merge", "worker.shard"):
            assert needed in names, needed
        failed = []
        for path in glob.glob(os.path.join(directory, "events-*.jsonl")):
            records, _ = read_events(path)
            failed += [r for r in records if r["name"] == "shard.attempt"
                       and r["kind"] == "end"
                       and r["tags"].get("status") == "failed"]
        assert sorted(r["tags"]["kind"] for r in failed) == [
            "corrupt", "death",
        ]
        # Telemetry (with the shard extra) survives save/load + digest.
        telemetry = outcome.result.telemetry
        assert telemetry is not None and "shards" in telemetry
        assert telemetry["shards"]["0"]["failure_kinds"] == ["death"]
        path = tmp_path / "merged.json"
        outcome.result.save(path)
        loaded = RunResult.load(path)
        assert loaded.telemetry == telemetry
        assert loaded.digest() == outcome.result.digest()

    def test_quarantine_event_and_report(self, monkeypatch, tmp_path):
        directory = obs_env(monkeypatch, tmp_path)
        spec = tiny_spec(benchmarks=("mcf", "dealII"))
        supervisor = ShardSupervisor(
            backoff_base=0.01, backoff_cap=0.02, deadline=60.0,
            poll_interval=0.005, max_attempts=2,
            faults=FaultPlan.parse("crash:0:*"),
        )
        outcome = supervisor.run(spec, shards=2)
        assert not outcome.complete
        assert outcome.shard_reports[0].quarantined
        assert outcome.shard_reports[0].failure_kinds == ("death", "death")
        assert "shard.quarantine" in all_event_names(directory)

    def test_shard_report_round_trip(self):
        report = ShardReport(attempts=3, failure_kinds=("death", "hang"),
                             backoff_seconds=0.15, quarantined=True)
        assert ShardReport.from_dict(report.to_dict()) == report

    def test_sharded_result_round_trip_keeps_reports(self):
        stats = Stats()
        stats.committed, stats.cycles = 512, 700
        inner = RunResult(spec=tiny_spec(),
                          cells=[CellResult("mcf", "baseline", 1, stats)])
        outcome = ShardedSweepResult(
            result=inner, attempts={0: 2},
            shard_reports={0: ShardReport(attempts=2,
                                          failure_kinds=("corrupt",),
                                          backoff_seconds=0.01)},
        )
        loaded = ShardedSweepResult.from_dict(outcome.to_dict())
        assert loaded.shard_reports[0].failure_kinds == ("corrupt",)
        # Pre-telemetry payloads load with empty reports.
        legacy = outcome.to_dict()
        del legacy["shard_reports"]
        assert ShardedSweepResult.from_dict(legacy).shard_reports == {}


# ---------------------------------------------------------------------------
# Profiler + overhead gate
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_phase_profile_attributes_stages(self):
        from repro.obs.profile import phase_profile, render_profile

        payload = phase_profile(benchmarks=("mcf",), warmup=200,
                                measure=1000)
        assert payload["format"] == 2
        assert "combos" not in payload
        stages = payload["stages_seconds"]
        for stage in ("commit", "issue", "rename", "fetch", "idle",
                      "interp", "warm"):
            assert stage in stages
        assert payload["instructions"] > 0
        # The hot stages really accumulate wall.
        assert stages["commit"] > 0 and stages["issue"] > 0
        text = render_profile(payload)
        assert "commit" in text and "KIPS instrumented" in text

    def test_overhead_gate_stats_identical(self, tmp_path):
        from repro.obs.profile import overhead_gate, render_gate

        ok, report = overhead_gate(
            warmup=300, measure=3000, repeats=2, metrics_every=200,
            tolerance=0.9,  # generous: the test pins identity, CI pins 5%
            obs_dir=str(tmp_path / "gate"),
        )
        assert report["stats_identical"], report
        assert ok, report
        assert "bit-identical: True" in render_gate(report)

    def test_profile_cli(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        assert cli_main(["profile", "--benchmark", "mcf", "--warmup", "200",
                         "--measure", "1000", "--json", str(out_path)]) == 0
        assert "phase profile" in capsys.readouterr().out
        assert json.loads(out_path.read_text())["format"] == 2


# ---------------------------------------------------------------------------
# CLI: tail and events
# ---------------------------------------------------------------------------


class TestEventCli:
    def _write_events(self, directory) -> None:
        tracer = Tracer(str(directory / "events-{pid}.jsonl"))
        with tracer.span("sweep.cell", benchmark="mcf"):
            tracer.event("sample.point", index=0)
        tracer.close()

    def test_tail_renders_complete_lines_only(self, tmp_path, capsys):
        self._write_events(tmp_path)
        # A torn (in-flight) line must not be consumed.
        path = tmp_path / f"events-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "t": 9')
        assert cli_main(["tail", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep.cell" in out and "sample.point" in out
        assert '"t": 9' not in out

    def test_tail_empty_dir(self, tmp_path, capsys):
        assert cli_main(["tail", "--dir", str(tmp_path)]) == 0
        assert "no events" in capsys.readouterr().out

    def test_inspect_events(self, tmp_path, capsys):
        self._write_events(tmp_path)
        path = tmp_path / f"events-{os.getpid()}.jsonl"
        assert cli_main(["inspect", "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out or "3 record(s)" in out
        assert "sweep.cell" in out


# ---------------------------------------------------------------------------
# Environment front door
# ---------------------------------------------------------------------------


class TestEnvFrontDoor:
    def test_new_variables_are_known(self, monkeypatch):
        for name in ("REPRO_OBS", "REPRO_OBS_DIR", "REPRO_METRICS_EVERY"):
            assert name in api_env.KNOWN_VARS
            monkeypatch.setenv(name, "1")
        assert api_env.warn_unknown_vars() == []

    def test_typed_readers(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS", raising=False)
        monkeypatch.delenv("REPRO_OBS_DIR", raising=False)
        monkeypatch.delenv("REPRO_METRICS_EVERY", raising=False)
        assert api_env.obs_enabled() is False
        assert api_env.obs_dir_from_env() is None
        assert api_env.metrics_every_from_env() == 1000
        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_OBS_DIR", "/tmp/somewhere")
        monkeypatch.setenv("REPRO_METRICS_EVERY", "250")
        assert api_env.obs_enabled() is True
        assert api_env.obs_dir_from_env() == "/tmp/somewhere"
        assert api_env.metrics_every_from_env() == 250
        spec = ObsSpec.from_env()
        assert spec.enabled and spec.dir == "/tmp/somewhere"
        assert spec.metrics_every == 250
