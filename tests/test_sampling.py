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
  is bit-identical to the run that captured it, and corrupt checkpoints
  fall back to warming;
* ``Stats.reset_window`` zeroes every counter field, present and future
  (dataclass introspection), so new interval/CI fields can never leak
  across the warm-up boundary.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.reporting import format_ipc
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import _TRACE_SLACK, Simulator
from repro.pipeline.stats import Stats
from repro.sampling import SampledRun, SamplingConfig
from repro.sampling.checkpoint import (
    CheckpointError,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.sampling.controller import confidence_halfwidth
from repro.workloads.store import TraceStore


from helpers import stats_dict  # noqa: E402  (shared test helper)


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
        restore_checkpoint(fresh, payload)
        # identity preserved (generated fast paths close over these)
        assert fresh.rsep.predictor._base_distance is base_table
        assert fresh.hierarchy.l1d._tags is l1d_sets
        # values restored
        assert fresh.history._bits == warmed.history._bits
        assert (
            fresh.rsep.predictor._base_distance
            == warmed.rsep.predictor._base_distance
        )
        assert fresh.hierarchy.l1d._tags == warmed.hierarchy.l1d._tags
        assert fresh.cycle == warmed.cycle
        assert fresh._cursor == warmed._cursor


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
