"""The phase profiler behind ``repro profile`` (and the CI overhead gate).

Two tools in one module:

* :func:`phase_profile` runs the perf harness's protocol (trace built
  outside the timed region, fresh pipeline per run) with every pipeline
  stage wrapped in a wall-clock accumulator on the one runtime plane
  (columnar fetch, generated rename/issue — DESIGN.md §12), and emits
  one comparable, versioned JSON payload.  Stage wrapping is
  instance-attribute shadowing — the same binding trick the columnar
  fetch and generated loops use — so whatever is installed is exactly
  what gets attributed.
* :func:`overhead_gate` is the observability plane's own CI gate: it
  A/B-times the identical run with obs off and on (interleaved repeats,
  best-of), requires bit-identical stats and an on-plane throughput
  within tolerance (default 5%) of the off plane.

Timing wrappers cost real wall (5 ``perf_counter`` pairs per cycle), so
profiled KIPS are *not* comparable to ``repro perf`` numbers — only the
per-stage shares are; the payload carries both so nobody has to guess.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace

#: Profile payload layout version (2: one plane, stage results at the
#: top level instead of a ``combos`` map).
PROFILE_FORMAT = 2

#: Stage name -> the pipeline attribute it times.  ``idle`` is the
#: event-driven fast-forward (DESIGN.md §7); ``interp`` (trace build)
#: and ``warm`` (functional warming) are timed at their call sites.
STAGE_ATTRS: tuple[tuple[str, str], ...] = (
    ("commit", "_commit"),
    ("issue", "_issue"),
    ("rename", "_rename"),
    ("fetch", "_fetch"),
    ("idle", "_fast_forward_idle"),
)

DEFAULT_BENCHMARKS: tuple[str, ...] = ("mcf", "bzip2")


@contextmanager
def _env_overrides(**overrides: str | None):
    """Set/unset environment variables for a scope (``None`` = unset)."""
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _instrument_stages(pipeline, acc: dict[str, float]) -> None:
    """Shadow each stage with a timing wrapper accumulating into *acc*.

    ``getattr`` picks up whatever is installed — generated loops, the
    columnar fetch, class methods — and the wrapper becomes the instance
    attribute ``_step`` dispatches to.
    """
    clock = time.perf_counter
    for stage, attr in STAGE_ATTRS:
        inner = getattr(pipeline, attr)

        def timed(*args, _inner=inner, _stage=stage):
            start = clock()
            try:
                return _inner(*args)
            finally:
                acc[_stage] += clock() - start

        setattr(pipeline, attr, timed)


def _profile_stages(benchmarks, mechanism, warmup: int, measure: int,
                    sampling, seed: int) -> dict:
    """Stage attribution over *benchmarks*."""
    from repro.pipeline.core import Pipeline
    from repro.pipeline.simulator import _TRACE_SLACK, Simulator
    from repro.sampling import SampledRun

    clock = time.perf_counter
    # A private, store-less simulator: interpretation really runs (and
    # is really timed) instead of hitting a shared cache.
    simulator = Simulator(trace_store=None)
    stages = {name: 0.0 for name, _ in STAGE_ATTRS}
    stages["interp"] = 0.0
    stages["warm"] = 0.0
    wall = 0.0
    covered = 0
    sampled_active = sampling is not None and sampling.active
    for benchmark in benchmarks:
        start = clock()
        trace = simulator.trace_for(
            benchmark, seed, warmup + measure + _TRACE_SLACK
        )
        stages["interp"] += clock() - start
        pipeline = Pipeline(trace, simulator.core_config, mechanism, seed)
        _instrument_stages(pipeline, stages)
        start = clock()
        if sampled_active:
            run = SampledRun(pipeline, sampling)
            inner_warm = run.warmer.warm

            def timed_warm(*args, _inner=inner_warm):
                warm_start = clock()
                try:
                    return _inner(*args)
                finally:
                    stages["warm"] += clock() - warm_start

            run.warmer.warm = timed_warm
            warmed = run.warm_up(warmup)
            stats = run.measure(measure)
            covered += warmed + (stats.sampled_window or stats.committed)
        else:
            pipeline.run(measure, warmup)
            covered += pipeline.total_committed
        wall += clock() - start
    attributed = sum(stages.values()) - stages["interp"]
    return {
        "stages_seconds": {k: round(v, 4) for k, v in sorted(stages.items())},
        "wall_seconds": round(wall, 4),
        "other_seconds": round(max(0.0, wall - attributed), 4),
        "instructions": covered,
        "kips_instrumented": round(covered / wall / 1000.0, 1) if wall else 0.0,
    }


def phase_profile(
    benchmarks=DEFAULT_BENCHMARKS,
    mechanism_name: str = "rsep-realistic",
    warmup: int | None = None,
    measure: int | None = None,
    sampling=None,
    seed: int = 1,
) -> dict:
    """Per-stage wall attribution of one profiled run.

    The default run is sampled (so warming shows up as a phase); pass an
    inactive *sampling* for a full-detail profile.
    """
    from repro.api import env as api_env
    from repro.pipeline.config import MechanismConfig

    if warmup is None or measure is None:
        default_warmup, default_measure = api_env.window_from_env()
        warmup = default_warmup if warmup is None else warmup
        measure = default_measure if measure is None else measure
    if sampling is None:
        sampling = replace(api_env.sampling_from_env(), enabled=True)
    mechanism = MechanismConfig.preset(mechanism_name)
    return {
        "format": PROFILE_FORMAT,
        "unit": "seconds of wall clock per stage (instrumented run)",
        "benchmarks": list(benchmarks),
        "mechanism": mechanism.name,
        "warmup": warmup,
        "measure": measure,
        "sampled": bool(sampling is not None and sampling.active),
        "seed": seed,
        **_profile_stages(
            benchmarks, mechanism, warmup, measure, sampling, seed
        ),
    }


def render_profile(payload: dict) -> str:
    """Human-readable table of one :func:`phase_profile` payload."""
    lines = [
        f"phase profile (format {payload['format']}): "
        f"{', '.join(payload['benchmarks'])} × {payload['mechanism']}, "
        f"warmup {payload['warmup']}, measure {payload['measure']}, "
        f"{'sampled' if payload['sampled'] else 'full detail'}",
    ]
    # Interpretation is timed outside the pipeline-run wall, so shares
    # are of the combined (interp + run) total.
    wall = (
        payload["wall_seconds"]
        + payload["stages_seconds"].get("interp", 0.0)
    ) or 1e-9
    lines.append(f"run wall {payload['wall_seconds']:.3f}s (+ interp), "
                 f"~{payload['kips_instrumented']:.0f} KIPS instrumented")
    stage_items = sorted(
        payload["stages_seconds"].items(),
        key=lambda item: -item[1],
    )
    for stage, seconds in stage_items:
        share = 100.0 * seconds / wall
        lines.append(f"  {stage:<8} {seconds:>8.3f}s  {share:5.1f}%")
    lines.append(
        f"  {'other':<8} {payload['other_seconds']:>8.3f}s  "
        f"{100.0 * payload['other_seconds'] / wall:5.1f}%"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The observability overhead gate (CI)
# ---------------------------------------------------------------------------


def overhead_gate(
    benchmark: str = "mcf",
    mechanism_name: str = "rsep-realistic",
    warmup: int = 2000,
    measure: int = 12000,
    repeats: int = 3,
    metrics_every: int = 500,
    tolerance: float = 0.05,
    obs_dir: str | None = None,
    seed: int = 1,
) -> tuple[bool, dict]:
    """A/B-verify the obs-on plane: bit-identical stats, bounded slowdown.

    Repeats alternate off/on so host-noise drift hits both arms equally;
    best-of wall per arm is the throughput estimate (the perf harness's
    robust estimator).  Returns ``(ok, report)``: ``ok`` requires the
    on-arm stats to equal the off-arm stats field-for-field AND on-KIPS
    >= ``(1 - tolerance) * off-KIPS``.
    """
    from repro.harness.sweep import shared_engine
    from repro.pipeline.config import MechanismConfig
    from repro.pipeline.core import Pipeline
    from repro.pipeline.simulator import _TRACE_SLACK

    clock = time.perf_counter
    simulator = shared_engine().simulator
    mechanism = MechanismConfig.preset(mechanism_name)
    trace = simulator.trace_for(
        benchmark, seed, warmup + measure + _TRACE_SLACK
    )
    if obs_dir is None:
        obs_dir = tempfile.mkdtemp(prefix="repro-obs-gate-")
    best: dict[str, float | None] = {"off": None, "on": None}
    observed_stats: dict[str, dict] = {}
    arm_env = {
        "off": dict(REPRO_OBS=None, REPRO_OBS_DIR=None,
                    REPRO_METRICS_EVERY=None),
        "on": dict(REPRO_OBS="1", REPRO_OBS_DIR=obs_dir,
                   REPRO_METRICS_EVERY=str(metrics_every)),
    }
    for _ in range(max(1, repeats)):
        for arm in ("off", "on"):
            with _env_overrides(**arm_env[arm]):
                pipeline = Pipeline(
                    trace, simulator.core_config, mechanism, seed
                )
                start = clock()
                stats = pipeline.run(measure, warmup)
                wall = clock() - start
            observed_stats[arm] = dataclasses.asdict(stats)
            simulated = pipeline.total_committed
            if best[arm] is None or wall < best[arm]:
                best[arm] = wall
    kips = {
        arm: simulated / best[arm] / 1000.0 for arm in ("off", "on")
    }
    identical = observed_stats["off"] == observed_stats["on"]
    within = kips["on"] >= (1.0 - tolerance) * kips["off"]
    report = {
        "benchmark": benchmark,
        "mechanism": mechanism.name,
        "warmup": warmup,
        "measure": measure,
        "repeats": repeats,
        "metrics_every": metrics_every,
        "tolerance": tolerance,
        "kips_off": round(kips["off"], 1),
        "kips_on": round(kips["on"], 1),
        "overhead_pct": round(100.0 * (1.0 - kips["on"] / kips["off"]), 2),
        "stats_identical": identical,
        "ok": identical and within,
    }
    return report["ok"], report


def render_gate(report: dict) -> str:
    verdict = "ok" if report["ok"] else "FAILED"
    return (
        f"obs overhead gate: {report['benchmark']} × {report['mechanism']} "
        f"(best of {report['repeats']})\n"
        f"  off: {report['kips_off']:.1f} KIPS   "
        f"on: {report['kips_on']:.1f} KIPS   "
        f"overhead {report['overhead_pct']:+.1f}% "
        f"(tolerance {100 * report['tolerance']:.0f}%)\n"
        f"  stats bit-identical: {report['stats_identical']}\n"
        f"  -> {verdict}"
    )


def write_json(payload: dict, path: str) -> None:
    from repro.common.atomicio import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True)
                      + "\n")
