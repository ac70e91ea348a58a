"""Spec-level result lake: sound keys, robustness, plane equivalence.

DESIGN.md §14: per-cell ``Stats`` artifacts live in the trace store,
content-addressed on the complete cell fingerprint.  These tests pin the
three contracts the ISSUE demands: corrupt/truncated/foreign/tampered
entries are misses that get overwritten, a lake-served cell is
digest-identical to a fresh simulation on every compute-plane
combination, and the gate (off by default) keeps today's behaviour
bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro

from repro.api.session import Session
from repro.api.spec import ExperimentSpec, StoreSpec, WindowSpec
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.simulator import Simulator
from repro.workloads import store as store_module
from repro.workloads.store import CELL_FORMAT, TraceStore, cell_stats_digest

from helpers import run_oracle, stats_dict  # noqa: E402

KWARGS = dict(seed=1, warmup=256, measure=1000)


def _engine(root, **extra) -> SweepEngine:
    return SweepEngine(
        simulator=Simulator(trace_store=TraceStore(root)),
        result_lake=True,
        **extra,
    )


def _cell_files(root) -> list[Path]:
    return sorted(Path(root).glob("*.cell"))


class TestLakeRoundTrip:
    def test_fresh_process_serves_from_lake(self, tmp_path):
        cold = _engine(tmp_path)
        baseline = cold.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert cold.cell_misses == 1
        assert cold.lake_misses == 1 and cold.lake_writes == 1
        assert len(_cell_files(tmp_path)) == 1

        warm = _engine(tmp_path)  # a fresh engine = a fresh process's view
        served = warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert warm.cell_misses == 0  # zero simulations
        assert warm.lake_hits == 1
        assert stats_dict(served.stats) == stats_dict(baseline.stats)

    def test_memo_takes_precedence_over_lake(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert engine.cell_hits == 1  # memo, not a second lake read
        assert engine.lake_hits == 0
        assert engine.simulator.trace_store.cell_hits == 0

    def test_lake_off_is_todays_behaviour(self, tmp_path):
        # Default-off: same store, no .cell artifact, stats identical.
        gated = SweepEngine(simulator=Simulator(trace_store=TraceStore(
            tmp_path / "gated"
        )))
        plain = gated.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert not _cell_files(tmp_path / "gated")
        laked = _engine(tmp_path / "laked").run_cell(
            "mcf", MechanismConfig.baseline(), **KWARGS
        )
        assert stats_dict(plain.stats) == stats_dict(laked.stats)

    def test_env_gates_when_unpinned(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        engine = SweepEngine(
            simulator=Simulator(trace_store=TraceStore(tmp_path))
        )
        assert engine.result_lake is None and engine.lake_enabled()
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert len(_cell_files(tmp_path)) == 1
        monkeypatch.setenv("REPRO_RESULT_LAKE", "0")
        assert not engine.lake_enabled()

    def test_no_store_means_no_lake(self):
        engine = SweepEngine(
            simulator=Simulator(trace_store=None), result_lake=True
        )
        assert not engine.lake_enabled()
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert engine.lake_hits == engine.lake_misses == 0


class TestKeySoundness:
    def test_core_config_is_part_of_the_lake_key(self, tmp_path):
        # The regression the ISSUE names: two cores must never share a
        # lake cell.  Same benchmark/seed/window/mechanism, different
        # core -> different artifact, different stats.
        default = _engine(tmp_path)
        default.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        small = default.variant(CoreConfig(rob_entries=16))
        small.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert len(_cell_files(tmp_path)) == 2

        warm = _engine(tmp_path)
        a = warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        b = warm.variant(CoreConfig(rob_entries=16)).run_cell(
            "mcf", MechanismConfig.baseline(), **KWARGS
        )
        assert warm.cell_misses == 0  # both served, each from its own cell
        assert stats_dict(a.stats) != stats_dict(b.stats)

    def test_window_seed_mechanism_split_cells(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=2, warmup=256, measure=1000)
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=1, warmup=256, measure=1500)
        engine.run_cell("mcf", MechanismConfig.move_elimination(), **KWARGS)
        assert len(_cell_files(tmp_path)) == 4

    def test_mechanism_display_name_is_not(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run_cell("mcf", MechanismConfig.rsep_ideal(), **KWARGS)
        renamed = dataclasses.replace(
            MechanismConfig.rsep_ideal(), name="rsep-again"
        )
        warm = _engine(tmp_path)
        result = warm.run_cell("mcf", renamed, **KWARGS)
        assert warm.cell_misses == 0 and warm.lake_hits == 1
        assert result.mechanism == "rsep-again"


class TestLakeRobustness:
    """Anything unreadable is a miss that re-simulation overwrites."""

    def _seed_one_cell(self, root) -> Path:
        engine = _engine(root)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        (path,) = _cell_files(root)
        return path

    def _assert_recovers(self, root, reference=None):
        engine = _engine(root)
        result = engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        store = engine.simulator.trace_store
        assert engine.lake_hits == 0 and engine.cell_misses == 1
        assert store.cell_recovered == 1
        if reference is not None:
            assert stats_dict(result.stats) == stats_dict(reference)
        # The bad artifact was overwritten: the next engine hits.
        after = _engine(root)
        after.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert after.lake_hits == 1 and after.cell_misses == 0

    def test_corrupt_entry_is_a_miss_and_overwritten(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        reference = json.loads(path.read_text())["stats"]
        path.write_text("{not json at all", encoding="utf-8")
        self._assert_recovers(tmp_path)
        assert json.loads(path.read_text())["stats"] == reference

    def test_truncated_entry_is_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self._assert_recovers(tmp_path)

    def test_foreign_format_is_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        payload = json.loads(path.read_text())
        payload["format"] = CELL_FORMAT + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_recovers(tmp_path)

    def test_tampered_stats_are_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        payload = json.loads(path.read_text())
        reference = dict(payload["stats"])
        payload["stats"]["cycles"] = payload["stats"]["cycles"] + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        # Edited counters under a stale digest must never be served.
        self._assert_recovers(tmp_path)
        assert json.loads(path.read_text())["stats"] == reference

    def test_schema_drift_is_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        payload = json.loads(path.read_text())
        payload["stats"]["counter_from_the_future"] = 7
        payload["digest"] = cell_stats_digest(payload["stats"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_recovers(tmp_path)

    def test_workload_version_splits_cells(self, tmp_path, monkeypatch):
        self._seed_one_cell(tmp_path)
        monkeypatch.setattr(
            store_module.__name__ + ".workload_code_version",
            lambda: "0" * 16,
        )
        import repro.harness.sweep as sweep_module

        monkeypatch.setattr(
            sweep_module, "workload_code_version", lambda: "0" * 16
        )
        warm = _engine(tmp_path)
        warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        # A code edit means a different token: miss, new artifact.
        assert warm.lake_hits == 0 and warm.cell_misses == 1
        assert len(_cell_files(tmp_path)) == 2


class TestPlaneEquivalence:
    def test_lake_served_cell_identical_on_all_four_planes(self, tmp_path):
        """A laked cell serves bit-identically to fresh simulation on the
        runtime plane and to every generated/generic × columnar/eager
        oracle combination (planes never join the cell key: they are
        bit-identical by the equivalence suite, and this pins that the
        lake agrees)."""
        from repro.sampling import SamplingConfig

        sampling = SamplingConfig(
            enabled=True, interval=500, detail_ratio=0.5, detail_warmup=64
        )
        window = dict(warmup=256, measure=1000, sampling=sampling)
        kwargs = dict(seed=1, **window)
        mechanism = MechanismConfig.rsep_realistic()
        _engine(tmp_path).run_cell("mcf", mechanism, **kwargs)
        warm = _engine(tmp_path)
        served = stats_dict(warm.run_cell("mcf", mechanism, **kwargs).stats)
        assert warm.cell_misses == 0
        fresh = SweepEngine(
            simulator=Simulator(trace_store=None)
        ).run_cell("mcf", mechanism, **kwargs)
        assert served == stats_dict(fresh.stats)
        for generic in (False, True):
            for eager in (False, True):
                oracle = run_oracle(
                    "mcf", mechanism, generic=generic, eager=eager, **window
                )
                assert served == oracle, (generic, eager)


class TestParallelAndSharded:
    def test_sharded_service_populates_the_shared_lake(self, tmp_path):
        spec = ExperimentSpec(
            benchmarks=("mcf", "dealII"),
            mechanisms=(MechanismConfig.baseline(),),
            seeds=(1,),
            window=WindowSpec(warmup=256, measure=1000),
            store=StoreSpec(path=str(tmp_path), result_lake=True),
            shards=2,
        )
        session = Session(store=spec.store)
        outcome = session.run_sharded(spec)
        assert not outcome.holes
        assert len(_cell_files(tmp_path)) == 2  # shards wrote the lake

        # In process (shards=0): this session's own engine reads the lake.
        warm = Session(store=spec.store)
        result = warm.run(dataclasses.replace(spec, shards=0))
        assert warm.engine.cell_misses == 0
        assert warm.engine.lake_hits == 2
        assert result.digest() == outcome.result.digest()


class TestFrontDoor:
    def test_session_round_trip_is_digest_identical(self, tmp_path):
        spec = ExperimentSpec(
            benchmarks=("mcf",),
            window=WindowSpec(warmup=256, measure=1000),
            store=StoreSpec(path=str(tmp_path), result_lake=True),
        )
        cold = Session(store=spec.store).run(spec)
        warm_session = Session(store=spec.store)
        warm = warm_session.run(spec)
        assert warm_session.engine.cell_misses == 0
        assert warm.digest() == cold.digest()

    def test_store_spec_reads_env_and_round_trips(self, monkeypatch):
        assert StoreSpec.from_env().result_lake is False
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        assert StoreSpec.from_env().result_lake is True
        spec = ExperimentSpec(
            benchmarks=("mcf",),
            store=StoreSpec(result_lake=True),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        # The lake never changes stats, so it never joins the
        # fingerprint.
        plain = dataclasses.replace(spec, store=StoreSpec())
        assert spec.fingerprint() == plain.fingerprint()

    def test_session_pins_the_spec_store_over_env(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        session = Session(store=StoreSpec(path=str(tmp_path)))
        assert session.engine.result_lake is False
        assert not session.engine.lake_enabled()


class TestVersionSnapshot:
    def test_snapshot_signature_always_describes_the_bytes(self, tmp_path):
        """An edit racing the stat/read passes can no longer memoise a
        signature from one version with bytes from another."""
        target = tmp_path / "module.py"
        target.write_text("ORIGINAL = 1\n")

        class RacingPath(type(Path())):
            """Reads the old bytes, then lets an 'edit' land before the
            consistency re-stat — forcing the retry loop."""

            raced = False

            def read_bytes(self):
                data = super().read_bytes()
                if not RacingPath.raced:
                    RacingPath.raced = True
                    Path(str(self)).write_text("EDITED = 2\n" * 100)
                return data

        signature, data = store_module._snapshot_source(RacingPath(target))
        stat = target.stat()
        assert signature == (str(target), stat.st_mtime_ns, stat.st_size)
        assert data == target.read_bytes()  # the post-edit bytes

    def test_version_memo_invalidates_on_edit(self, tmp_path, monkeypatch):
        source = tmp_path / "workload.py"
        source.write_text("A = 1\n")
        monkeypatch.setattr(
            store_module, "_module_sources", lambda: [source]
        )
        monkeypatch.setattr(store_module, "_version_cache", None)
        first = store_module.workload_code_version()
        assert store_module.workload_code_version() == first  # memo hit
        source.write_text("A = 2\n")
        assert store_module.workload_code_version() != first


# ---------------------------------------------------------------------------
# Timing-model code identity: an edited model never serves old results
# ---------------------------------------------------------------------------

#: One lake-on full-detail cell and one checkpointed sampled run of mcf
#: on the store at argv[1]; prints the lake and checkpoint counters.
_PROBE = """
import json, sys
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import MechanismConfig
from repro.pipeline.simulator import Simulator
from repro.sampling import SamplingConfig
from repro.workloads.store import TraceStore

store = TraceStore(sys.argv[1])
engine = SweepEngine(simulator=Simulator(trace_store=store), result_lake=True)
engine.run_cell("mcf", MechanismConfig.baseline(), seed=1, warmup=256,
                measure=2000)
Simulator(trace_store=store).run_benchmark(
    "mcf", MechanismConfig.baseline(), warmup=256, measure=2000, seed=1,
    sampling=SamplingConfig(enabled=True, interval=1000, detail_ratio=0.25,
                            detail_warmup=128),
)
print(json.dumps({"lake_hits": engine.lake_hits,
                  "simulated": engine.cell_misses,
                  "checkpoint_hits": store.checkpoint_hits}))
"""


class TestModelCodeIdentity:
    def test_model_version_covers_timing_code_only(self):
        store_module.model_code_version()
        hashed = {relative for relative, _ in store_module._model_sources}
        assert {"memory/dram.py", "pipeline/core.py",
                "harness/sweep.py", "workloads/kernels.py"} <= hashed
        for excluded in ("api/cli.py", "harness/reporting.py",
                         "obs/tracer.py", "service/supervisor.py",
                         "cluster/dispatch.py"):
            assert excluded not in hashed

    def test_timing_model_edit_misses_lake_and_checkpoints(self, tmp_path):
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        store_root = tmp_path / "store"

        def probe() -> dict:
            env = dict(os.environ, PYTHONPATH=str(package.parent))
            proc = subprocess.run(
                [sys.executable, "-c", _PROBE, str(store_root)],
                capture_output=True, text=True, env=env, check=True,
            )
            return json.loads(proc.stdout.strip().splitlines()[-1])

        assert probe()["simulated"] == 1
        assert probe() == {
            "lake_hits": 1, "simulated": 0, "checkpoint_hits": 1,
        }
        # A DRAM latency edit changes the stats without touching any
        # workload source: both caches must stop serving.
        dram = package / "memory" / "dram.py"
        source = dram.read_text(encoding="utf-8")
        line = "latency = queue_delay + service\n"
        assert line in source
        dram.write_text(
            source.replace(line, "latency = queue_delay + service + 300\n"),
            encoding="utf-8",
        )
        assert probe() == {
            "lake_hits": 0, "simulated": 1, "checkpoint_hits": 0,
        }
