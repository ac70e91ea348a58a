"""Sampled-simulation subsystem: bit-identity, fidelity and checkpoints.

The contract under test (DESIGN.md §8):

* the degenerate 100%-duty configuration — both through the public
  ``Simulator`` path and through the ``SampledRun`` controller itself —
  is bit-identical to a plain full-detail run, including on the golden
  cells the scheduler refactors are gated on;
* an active sampled run populates the interval/CI fields, covers the
  requested window, is deterministic, and lands near the full-detail
  IPC;
* µarch checkpoints round-trip: a run that restores a stored checkpoint
  is bit-identical to the run that captured it, and corrupt or
  stale-format checkpoints fall back to warming;
* functional warming trains the memory side exactly as replaying its
  loads, stores and fetches through the hierarchy does (store-heavy
  span);
* a cell pauses the cyclic collector and always restores the caller's
  GC state;
* ``Stats.reset_window`` zeroes every counter field, present and future
  (dataclass introspection), so new interval/CI fields can never leak
  across the warm-up boundary.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import weakref

import pytest

from repro.harness.reporting import format_ipc
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import _TRACE_SLACK, Simulator
from repro.pipeline.stats import Stats
from repro.sampling import SampledRun, SamplingConfig
from repro.sampling.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.sampling.controller import confidence_halfwidth
from repro.workloads.store import TraceStore


from helpers import eager_trace, stats_dict  # noqa: E402  (shared helpers)


#: Degenerate: full duty cycle — must be indistinguishable from detail.
DEGENERATE = SamplingConfig(enabled=True, interval=512, detail_ratio=1.0)

#: A small active configuration for fast tests.
ACTIVE = SamplingConfig(
    enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128
)


class TestSamplingConfig:
    def test_degenerate_is_inactive_and_folds_fingerprint(self):
        assert not DEGENERATE.active
        assert DEGENERATE.fingerprint() == "off"
        assert SamplingConfig.disabled().fingerprint() == "off"

    def test_active_spans(self):
        assert ACTIVE.active
        assert ACTIVE.detail_span == 250
        assert ACTIVE.ramp_span == 128
        assert ACTIVE.detail_span + ACTIVE.skip_span == ACTIVE.interval

    def test_ramp_never_exceeds_gap(self):
        config = SamplingConfig(
            enabled=True, interval=100, detail_ratio=0.9, detail_warmup=512
        )
        assert config.ramp_span == config.skip_span

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(interval=0)
        with pytest.raises(ValueError):
            SamplingConfig(detail_ratio=0.0)
        with pytest.raises(ValueError):
            SamplingConfig(detail_warmup=-1)

    def test_from_environment(self, monkeypatch):
        from repro.api.env import sampling_from_env

        assert not sampling_from_env().enabled
        monkeypatch.setenv("REPRO_SAMPLING", "1")
        monkeypatch.setenv("REPRO_INTERVAL", "3000")
        monkeypatch.setenv("REPRO_DETAIL_RATIO", "0.2")
        monkeypatch.setenv("REPRO_DETAIL_WARMUP", "64")
        config = sampling_from_env()
        assert config.enabled and config.active
        assert config.interval == 3000
        assert config.detail_span == 600
        assert config.detail_warmup == 64
        monkeypatch.setenv("REPRO_SAMPLING", "off")
        assert not sampling_from_env().enabled


class TestDegenerateBitIdentity:
    """100% duty cycle must reproduce full-detail runs exactly."""

    CASES = [
        ("mcf", MechanismConfig.baseline(), 1000, 4000),
        ("mcf", MechanismConfig.rsep_realistic(), 1000, 4000),
        ("libquantum", MechanismConfig.rsep_plus_vp(), 0, 8000),
    ]

    @pytest.mark.parametrize("bench,mechanism,warmup,measure", CASES)
    def test_simulator_path(self, bench, mechanism, warmup, measure):
        plain = Simulator().run_benchmark(
            bench, mechanism, warmup=warmup, measure=measure, seed=1
        )
        degenerate = Simulator().run_benchmark(
            bench, mechanism, warmup=warmup, measure=measure, seed=1,
            sampling=DEGENERATE,
        )
        assert stats_dict(degenerate.stats) == stats_dict(plain.stats)

    @pytest.mark.parametrize("bench,mechanism,warmup,measure", CASES)
    def test_controller_chunked_loop(
        self, bench, mechanism, warmup, measure
    ):
        """The controller itself, forced through interval chunking."""
        simulator = Simulator()
        plain = simulator.run_benchmark(
            bench, mechanism, warmup=warmup, measure=measure, seed=1
        )
        trace = simulator.trace_for(
            bench, 1, warmup + measure + _TRACE_SLACK
        )
        pipeline = Pipeline(trace, simulator.core_config, mechanism, 1)
        pipeline.run_until(warmup)
        stats = SampledRun(pipeline, DEGENERATE).measure(measure)
        assert stats_dict(stats) == stats_dict(plain.stats)


class TestSampledRun:
    def test_fields_window_and_determinism(self):
        results = [
            Simulator().run_benchmark(
                "mcf", MechanismConfig.rsep_realistic(),
                warmup=512, measure=4000, seed=1, sampling=ACTIVE,
            )
            for _ in range(2)
        ]
        stats = results[0].stats
        assert stats.sampled
        assert stats.intervals >= 2
        assert stats.warmed > 0
        # Covered window: exact up to commit-width overshoot per detailed
        # span (ramp + measured, per interval).
        assert 4000 <= stats.sampled_window <= 4000 + 16 * stats.intervals
        # Ramps are detailed but unmeasured, so measured commits plus
        # warmed instructions undershoot the covered window.
        assert stats.committed + stats.warmed <= stats.sampled_window
        assert stats.committed < 4000
        assert stats.ipc > 0
        assert stats_dict(results[0].stats) == stats_dict(results[1].stats)

    def test_ipc_near_full_detail(self):
        full = Simulator().run_benchmark(
            "hmmer", MechanismConfig.baseline(),
            warmup=1000, measure=8000, seed=1,
        )
        sampled = Simulator().run_benchmark(
            "hmmer", MechanismConfig.baseline(),
            warmup=1000, measure=8000, seed=1,
            sampling=SamplingConfig(
                enabled=True, interval=2000, detail_ratio=0.25,
                detail_warmup=256,
            ),
        )
        assert abs(sampled.ipc - full.ipc) / full.ipc < 0.25

    def test_confidence_halfwidth(self):
        assert confidence_halfwidth([], 0.95) == 0.0
        assert confidence_halfwidth([1.0], 0.95) == 0.0
        assert confidence_halfwidth([1.0, 1.0, 1.0], 0.95) == 0.0
        assert confidence_halfwidth([0.5, 1.5], 0.95) > 0.0
        assert confidence_halfwidth([0.5, 1.5], 0.99) > confidence_halfwidth(
            [0.5, 1.5], 0.90
        )


class TestSweepIntegration:
    def test_sampling_joins_cell_fingerprint(self):
        engine = SweepEngine(simulator=Simulator(trace_store=None))
        kwargs = dict(seed=1, warmup=256, measure=1000)
        engine.run_cell(
            "mcf", MechanismConfig.baseline(),
            sampling=SamplingConfig.disabled(), **kwargs,
        )
        engine.run_cell(
            "mcf", MechanismConfig.baseline(), sampling=ACTIVE, **kwargs
        )
        assert engine.cell_misses == 2  # distinct cells
        engine.run_cell(
            "mcf", MechanismConfig.baseline(), sampling=ACTIVE, **kwargs
        )
        assert engine.cell_hits == 1  # memoised sampled cell
        # Degenerate folds onto the plain cell.
        engine.run_cell(
            "mcf", MechanismConfig.baseline(), sampling=DEGENERATE, **kwargs
        )
        assert engine.cell_hits == 2
        assert engine.cell_misses == 2


class TestCheckpoints:
    KWARGS = dict(warmup=800, measure=2000, seed=1)

    # rsep_ideal covers the non-sampling RSEP commit path, whose warmer
    # state (producer ring) once leaked across the checkpoint boundary.
    @pytest.mark.parametrize("mechanism", [
        MechanismConfig.rsep_realistic(), MechanismConfig.rsep_ideal(),
    ], ids=["rsep-realistic", "rsep-ideal"])
    def test_restore_matches_capture_run(self, tmp_path, mechanism):
        store = TraceStore(tmp_path)
        first_sim = Simulator(trace_store=store)
        first = first_sim.run_benchmark(
            "xalancbmk", mechanism, sampling=ACTIVE, **self.KWARGS,
        )
        assert store.checkpoint_writes == 1
        second_sim = Simulator(trace_store=TraceStore(tmp_path))
        second = second_sim.run_benchmark(
            "xalancbmk", mechanism, sampling=ACTIVE, **self.KWARGS,
        )
        assert second_sim.trace_store.checkpoint_hits == 1
        assert second_sim.trace_store.checkpoint_writes == 0
        assert stats_dict(first.stats) == stats_dict(second.stats)

    def test_corrupt_checkpoint_falls_back_to_warming(self, tmp_path):
        store = TraceStore(tmp_path)
        simulator = Simulator(trace_store=store)
        reference = simulator.run_benchmark(
            "mcf", MechanismConfig.baseline(), sampling=ACTIVE, **self.KWARGS
        )
        artifacts = list(tmp_path.glob("*.ckpt"))
        assert len(artifacts) == 1
        artifacts[0].write_bytes(b"not a pickle")
        again_sim = Simulator(trace_store=TraceStore(tmp_path))
        again = again_sim.run_benchmark(
            "mcf", MechanismConfig.baseline(), sampling=ACTIVE, **self.KWARGS
        )
        assert again_sim.trace_store.checkpoint_misses == 1
        assert again_sim.trace_store.checkpoint_writes == 1  # re-captured
        assert stats_dict(again.stats) == stats_dict(reference.stats)

    def test_stale_format_checkpoint_is_rewarmed(self, tmp_path):
        """A format-1 payload is a miss wherever it sits: under its own
        (format-keyed) name it is never read, and at the current name
        restore rejects it.  Either way the cell re-warms, writes a
        current-format payload, and its stats do not change."""
        mechanism = MechanismConfig.rsep_realistic()
        reference_sim = Simulator(trace_store=TraceStore(tmp_path))
        reference = reference_sim.run_benchmark(
            "mcf", mechanism, sampling=ACTIVE, **self.KWARGS
        )
        [current] = tmp_path.glob("*.ckpt")
        payload = pickle.loads(current.read_bytes())
        assert payload["format"] == CHECKPOINT_FORMAT == 2
        stale = pickle.dumps(_format_1(payload))

        # Left behind under the name the format-1 code keyed it by.
        token = reference_sim._checkpoint_token(
            mechanism, self.KWARGS["warmup"]
        )
        assert token.endswith("ckpt2")
        old_path = reference_sim.trace_store.checkpoint_path(
            "mcf", 1, token[:-1] + "1"
        )
        current.unlink()
        old_path.write_bytes(stale)
        again_sim = Simulator(trace_store=TraceStore(tmp_path))
        again = again_sim.run_benchmark(
            "mcf", mechanism, sampling=ACTIVE, **self.KWARGS
        )
        assert again_sim.trace_store.checkpoint_hits == 0
        assert again_sim.trace_store.checkpoint_writes == 1
        assert stats_dict(again.stats) == stats_dict(reference.stats)

        # Planted under the current name: rejected, re-warmed, replaced.
        current.write_bytes(stale)
        third_sim = Simulator(trace_store=TraceStore(tmp_path))
        third = third_sim.run_benchmark(
            "mcf", mechanism, sampling=ACTIVE, **self.KWARGS
        )
        assert third_sim.trace_store.checkpoint_writes == 1
        assert pickle.loads(current.read_bytes())["format"] == 2
        assert stats_dict(third.stats) == stats_dict(reference.stats)

        restored_sim = Simulator(trace_store=TraceStore(tmp_path))
        restored = restored_sim.run_benchmark(
            "mcf", mechanism, sampling=ACTIVE, **self.KWARGS
        )
        assert restored_sim.trace_store.checkpoint_hits == 1
        assert restored_sim.trace_store.checkpoint_writes == 0
        assert stats_dict(restored.stats) == stats_dict(reference.stats)

    def test_mechanism_mismatch_is_rejected(self):
        simulator = Simulator(trace_store=None)
        trace = simulator.trace_for("mcf", 1, 4000)
        warmed = Pipeline(
            trace, simulator.core_config, MechanismConfig.rsep_realistic(), 1
        )
        SampledRun(warmed, ACTIVE).warm_up(2000)
        payload = capture_checkpoint(warmed)
        other = Pipeline(
            trace, simulator.core_config, MechanismConfig.baseline(), 1
        )
        with pytest.raises(CheckpointError):
            restore_checkpoint(other, payload)

    def test_state_roundtrip_in_place(self):
        """Restore writes into the live structures without rebinding."""
        simulator = Simulator(trace_store=None)
        trace = simulator.trace_for("bzip2", 1, 6000)
        warmed = Pipeline(
            trace, simulator.core_config, MechanismConfig.rsep_realistic(), 1
        )
        SampledRun(warmed, ACTIVE).warm_up(4000)
        payload = capture_checkpoint(warmed)
        fresh = Pipeline(
            trace, simulator.core_config, MechanismConfig.rsep_realistic(), 1
        )
        base_table = fresh.rsep.predictor._base_distance
        l1d_sets = fresh.hierarchy.l1d._tags
        btb_sets = fresh.branch_unit.btb._storage
        restore_checkpoint(fresh, payload)
        # identity preserved (generated fast paths close over these, and
        # the inlined L1 hit paths read the set containers)
        assert fresh.rsep.predictor._base_distance is base_table
        assert fresh.hierarchy.l1d._tags is l1d_sets
        assert fresh.branch_unit.btb._storage is btb_sets
        assert btb_sets == warmed.branch_unit.btb._storage
        # values restored
        assert fresh.history._bits == warmed.history._bits
        assert (
            fresh.rsep.predictor._base_distance
            == warmed.rsep.predictor._base_distance
        )
        assert fresh.hierarchy.l1d._tags == warmed.hierarchy.l1d._tags
        assert fresh.cycle == warmed.cycle
        assert fresh._cursor == warmed._cursor


def _format_1(snap):
    """*snap* re-encoded the way format 1 did: no bulk nodes, one node
    per element, under a format-1 header."""
    if not isinstance(snap, dict):
        return snap
    if "roots" in snap:
        roots = {name: _format_1(root) for name, root in snap["roots"].items()}
        return {**snap, "format": 1, "roots": roots}
    kind = snap["k"]
    if kind == "V":
        node = {"k": snap["t"], "v": list(snap["v"]), "o": False}
        if "m" in snap:
            node["m"] = snap["m"]
        return node
    if kind == "O":
        return {**snap, "a": {n: _format_1(v) for n, v in snap["a"].items()}}
    if kind == "D":
        return {**snap, "v": [(_format_1(k), _format_1(v))
                              for k, v in snap["v"]]}
    if kind in ("L", "T", "S", "FS", "Q"):
        return {**snap, "v": [_format_1(item) for item in snap["v"]]}
    return snap


class TestStoreWarming:
    """Warming a store-heavy span leaves the memory side exactly where
    replaying that span's fetches, loads and stores through the
    hierarchy leaves it — dirty lines included."""

    SPAN = 4000

    @staticmethod
    def _replay(rows, core_config):
        """The warmer's memory-side call sequence, made directly."""
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(core_config.memory)
        cycle = 0
        last_line = -1
        for d in rows:
            cycle += 1
            if d.line != last_line:
                hierarchy.fetch(d.pc, cycle)
                last_line = d.line
            if d.is_branch:
                if d.taken:
                    last_line = -1
            elif d.is_load:
                hierarchy.load(d.pc, d.addr, cycle)
            elif d.is_store:
                hierarchy.store(d.pc, d.addr, cycle)
        return hierarchy

    @pytest.mark.parametrize("plane", ["columnar", "eager"])
    def test_store_span_matches_hierarchy_replay(self, plane):
        simulator = Simulator(trace_store=None)
        length = self.SPAN + _TRACE_SLACK
        eager = eager_trace("lbm", 1, length)
        trace = (
            simulator.trace_for("lbm", 1, length) if plane == "columnar"
            else eager
        )
        pipeline = Pipeline(
            trace, simulator.core_config, MechanismConfig.baseline(), 1
        )
        assert SampledRun(pipeline, ACTIVE).warm_up(self.SPAN) == self.SPAN
        rows = eager.instructions[:self.SPAN]
        assert sum(d.is_store for d in rows) > self.SPAN // 10
        expected = self._replay(rows, simulator.core_config)
        warmed = pipeline.hierarchy
        assert expected.l1d._dirty  # the span really dirties lines
        assert warmed.l1d._dirty == expected.l1d._dirty
        for level in ("l1d", "l2", "l3"):
            assert getattr(warmed, level)._tags == getattr(
                expected, level
            )._tags, level


@pytest.fixture
def gc_guard():
    """Leave the collector enabled whatever a test does to it."""
    yield
    gc.enable()


@pytest.mark.usefixtures("gc_guard")
class TestGcPause:
    """One pause per cell; the caller's GC state survives every exit."""

    KWARGS = dict(warmup=500, measure=1500, seed=1)

    def _run(self, simulator, sampled):
        return simulator.run_benchmark(
            "mcf", MechanismConfig.rsep_realistic(),
            sampling=ACTIVE if sampled else SamplingConfig.disabled(),
            **self.KWARGS,
        )

    @pytest.mark.parametrize("sampled", [False, True], ids=["plain", "sampled"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_survives_cell(self, tmp_path, monkeypatch, sampled,
                                 enabled):
        seen = []
        original = Simulator.trace_for

        def spy(self, *args):
            seen.append(gc.isenabled())
            return original(self, *args)

        monkeypatch.setattr(Simulator, "trace_for", spy)
        (gc.enable if enabled else gc.disable)()
        self._run(Simulator(trace_store=TraceStore(tmp_path)), sampled)
        assert gc.isenabled() is enabled
        assert seen == [False]  # trace load already inside the pause

    @pytest.mark.parametrize("sampled", [False, True], ids=["plain", "sampled"])
    def test_state_survives_raising_cell(self, monkeypatch, sampled):
        def boom(self, target):
            raise RuntimeError("injected")

        monkeypatch.setattr(Pipeline, "run_until", boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="injected"):
            self._run(Simulator(trace_store=None), sampled)
        assert gc.isenabled()

    @pytest.mark.parametrize("sampled", [False, True], ids=["plain", "sampled"])
    def test_dead_pipeline_is_young_garbage(self, tmp_path, monkeypatch,
                                            sampled):
        """The cell's pipeline (a reference cycle) is unreachable before
        the pause ends, so the youngest-generation collection frees it;
        one still referenced when the collector resumes is promoted and
        lingers until a full collection (peak RSS grows cell by cell)."""
        pipelines = []
        original = Pipeline.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            pipelines.append(weakref.ref(self))

        monkeypatch.setattr(Pipeline, "__init__", spy)
        gc.enable()
        self._run(Simulator(trace_store=TraceStore(tmp_path)), sampled)
        gc.collect(0)
        assert [ref() for ref in pipelines] == [None]

    def test_state_survives_corrupt_checkpoint_fallback(self, tmp_path):
        reference = self._run(Simulator(trace_store=TraceStore(tmp_path)),
                              True)
        [artifact] = tmp_path.glob("*.ckpt")
        # A readable payload whose roots cannot apply: restore raises
        # mid-cell and the simulator rebuilds and re-warms.
        unusable = pickle.dumps(
            {"format": CHECKPOINT_FORMAT, "cursor": 0, "cycle": 0,
             "roots": {}}
        )
        for enabled in (True, False):
            artifact.write_bytes(unusable)
            (gc.enable if enabled else gc.disable)()
            simulator = Simulator(trace_store=TraceStore(tmp_path))
            again = self._run(simulator, True)
            assert gc.isenabled() is enabled
            assert simulator.trace_store.checkpoint_writes == 1
            assert stats_dict(again.stats) == stats_dict(reference.stats)


class TestResetWindowIntegrity:
    def test_reset_window_zeroes_every_counter_field(self):
        """Dataclass introspection: no field may survive the window reset.

        Guards the new interval/CI fields and any counters future PRs
        add — a field that survives ``reset_window`` would leak warm-up
        state into the measurement window.
        """
        stats = Stats()
        for field in dataclasses.fields(Stats):
            if field.name == "extra":
                continue
            current = getattr(stats, field.name)
            sentinel = 1.5 if isinstance(current, float) else 3
            setattr(stats, field.name, sentinel)
        stats.extra["kept"] = 2.0
        stats.reset_window()
        for field in dataclasses.fields(Stats):
            if field.name == "extra":
                continue
            assert getattr(stats, field.name) == 0, field.name
        assert stats.extra == {"kept": 2.0}  # extras survive by design


class TestReporting:
    def test_format_ipc_plain_and_sampled(self):
        stats = Stats(cycles=1000, committed=1234)
        assert format_ipc(stats) == "1.234"
        stats.warmed = 5000
        stats.ipc_ci = 0.0123
        assert format_ipc(stats) == "1.234 ±0.012"
