"""The sampled-simulation controller (DESIGN.md §8).

Drives one pipeline through a measurement window as alternating detailed
intervals and functionally warmed gaps:

* **warm-up** runs entirely in functional warming (or is skipped by a
  restored µarch checkpoint — see :mod:`repro.sampling.checkpoint`);
* each **interval** starts with ``detail_span`` instructions on the
  cycle-level pipeline, then drains speculation back to the committed
  frontier and warms the remaining ``skip_span`` instructions;
* per-interval ``(committed, cycles)`` samples aggregate into the
  windowed IPC estimate — the plain ratio estimator, which is exactly
  ``Stats.ipc`` since counters only tick during detailed intervals —
  plus a confidence interval on the per-interval IPC spread.

The degenerate 100%-duty configuration (``skip_span == 0``) never
drains, never warms and never writes the sampling fields: the loop is
then a chain of ``run_until`` calls with increasing targets, which is
bit-identical to one plain full-detail run (golden-stats gated).
"""

from __future__ import annotations

import dataclasses
import math

from repro.common.gcpause import gc_paused
from repro.common.rng import XorShift64
from repro.obs.runtime import obs_tracer
from repro.pipeline.stats import Stats
from repro.sampling.config import SamplingConfig
from repro.sampling.warming import FunctionalWarmer

#: Seed of the (deterministic) gap-jitter stream.
_JITTER_SEED = 0x5A3D_11E7_AB1E_0001

#: Stats fields written by the controller itself (never debited).
_SAMPLING_FIELDS = ("intervals", "warmed", "sampled_window", "ipc_ci")

#: Every window counter: the ramp's contribution is subtracted from
#: exactly these, so raw statistics cover measured spans alone.
_COUNTER_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(Stats)
    if f.name != "extra" and f.name not in _SAMPLING_FIELDS
)

#: Two-sided normal critical values for the supported confidence levels.
_Z_VALUES = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def z_value(confidence: float) -> float:
    """Critical value for the nearest supported confidence level."""
    nearest = min(_Z_VALUES, key=lambda level: abs(level - confidence))
    return _Z_VALUES[nearest]


def confidence_halfwidth(values: list[float], confidence: float) -> float:
    """Half-width of the CI on the mean of *values* (0.0 below 2 samples)."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return z_value(confidence) * math.sqrt(variance / n)


class SampledRun:
    """One sampled execution of a pipeline over its trace."""

    def __init__(self, pipeline, config: SamplingConfig) -> None:
        self.pipeline = pipeline
        self.config = config
        self.warmer = FunctionalWarmer(pipeline)
        # Per-interval gap jitter (uniform within ±half the nominal gap)
        # decorrelates interval boundaries from program periodicity —
        # systematic sampling aliases badly on loop-phased kernels.
        # Deterministically seeded: sampled runs stay reproducible.
        self._rng = XorShift64(_JITTER_SEED)

    # ------------------------------------------------------------------

    def warm_up(self, instructions: int) -> int:
        """Cover the warm-up window with functional warming alone.

        Mirrors the checkpoint methodology of §V: all microarchitectural
        state is primed, no cycles are measured.  Returns the number of
        instructions actually warmed (less than requested only when the
        trace halts early).
        """
        pipeline = self.pipeline
        if instructions <= 0:
            return 0
        start = pipeline._cursor
        with obs_tracer().span(
            "sample.warmup", start=start, instructions=instructions
        ):
            end, cycle = self.warmer.warm(start, instructions, pipeline.cycle)
        pipeline.skip_to(end, cycle)
        return end - start

    def measure(self, instructions: int):
        """Sample a window of *instructions* and return the pipeline Stats.

        Each interval is ``[detailed ramp | measured detail span | warmed
        gap]``.  The ramp refills the drained backend before measurement
        and is excluded from every counter (its per-field contribution is
        debited at the end); the measured span feeds both the raw
        counters and the per-interval IPC samples; the gap runs through
        the functional warmer.  With ``skip_span == 0`` (degenerate) the
        loop chains measured spans only and the result is bit-identical
        to a plain full-detail run.  The cyclic collector is paused over
        the window (a no-op inside ``Simulator.run_benchmark``, whose
        pause covers the whole cell).
        """
        pipeline = self.pipeline
        config = self.config
        detail = config.detail_span
        skip = config.skip_span
        ramp = config.ramp_span
        warm_span = skip - ramp
        stats = pipeline.stats
        trace_length = len(pipeline.trace)
        # Resolved once per window: a few spans per *interval* (not per
        # step), and the null tracer's span is one shared no-op object.
        tracer = obs_tracer()
        samples: list[tuple[int, int]] = []
        debits = [0] * len(_COUNTER_FIELDS) if skip > 0 and ramp else None
        covered = 0
        warmed = 0

        # The measurement window starts from pipeline state alone — the
        # warmer's producer ring is an in-flight emulation that a drain
        # (or a checkpoint restore, which captures pipeline state only)
        # legitimately empties.  Resetting it here keeps cold and
        # checkpoint-restored runs bit-identical for every mechanism.
        self.warmer.reset_producer_ring()
        with gc_paused():
            stats.reset_window()
            while covered < instructions and not pipeline._finished():
                if debits is not None:
                    # Detailed ramp after a cold (just-warmed) restart.
                    before = [
                        getattr(stats, name) for name in _COUNTER_FIELDS
                    ]
                    committed_before = stats.committed
                    pipeline.run_until(pipeline.total_committed + ramp)
                    covered += stats.committed - committed_before
                    for position, name in enumerate(_COUNTER_FIELDS):
                        debits[position] += (
                            getattr(stats, name) - before[position]
                        )
                    if covered >= instructions:
                        break
                span = min(detail, instructions - covered)
                committed_before = stats.committed
                cycles_before = stats.cycles
                with tracer.span(
                    "sample.interval", index=len(samples), span=span,
                    start=pipeline.total_committed,
                ):
                    pipeline.run_until(pipeline.total_committed + span)
                d_committed = stats.committed - committed_before
                d_cycles = stats.cycles - cycles_before
                if d_committed:
                    samples.append((d_committed, d_cycles))
                covered += d_committed
                if covered >= instructions or skip <= 0:
                    if skip <= 0 and covered < instructions:
                        continue  # degenerate: chain the next detail span
                    break
                resume = pipeline.drain_inflight()
                if resume >= trace_length:
                    break
                if warm_span > 0:
                    half = warm_span >> 1
                    jittered = warm_span - half + self._rng.next_below(
                        2 * half + 1
                    )
                    with tracer.span(
                        "sample.warm_gap", start=resume,
                        instructions=min(jittered, instructions - covered),
                    ):
                        end, cycle = self.warmer.warm(
                            resume,
                            min(jittered, instructions - covered),
                            pipeline.cycle,
                        )
                    warmed += end - resume
                    covered += end - resume
                    pipeline.skip_to(end, cycle)
                    if end >= trace_length:
                        break

        if debits is not None:
            for name, debit in zip(_COUNTER_FIELDS, debits):
                setattr(stats, name, getattr(stats, name) - debit)
        if skip > 0:
            stats.intervals = len(samples)
            stats.warmed = warmed
            stats.sampled_window = covered
            stats.ipc_ci = confidence_halfwidth(
                [committed / cycles for committed, cycles in samples if cycles],
                config.confidence,
            )
        return stats
