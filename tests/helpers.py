"""Shared helpers for the test suites (no fixtures, plain imports)."""

from __future__ import annotations

import dataclasses


def stats_dict(stats) -> dict:
    """Stats as a plain dict (without the free-form extras).

    The canonical bit-for-bit comparison form used by the golden,
    equivalence, store, sampling and sweep suites alike.
    """
    data = dataclasses.asdict(stats)
    data.pop("extra")
    return data


def generic_stages(pipeline):
    """Drop the generated rename/issue bindings from *pipeline*.

    ``Pipeline.__init__`` always installs the per-mechanism generated
    loops as instance attributes (DESIGN.md §12); removing them lets the
    generic ``Pipeline._rename`` / ``_issue`` class methods run — the
    differential oracle for the generated plane.  Returns *pipeline*.
    """
    for name in ("_rename", "_issue"):
        vars(pipeline).pop(name, None)
    return pipeline


def eager_trace(benchmark: str, seed: int, instructions: int):
    """Interpret *benchmark* into an eager ``DynInst`` :class:`Trace`.

    The runtime only ever hands the pipeline a ``ColumnarTrace``; an
    eager trace selects the object-walking fetch and warming loops — the
    differential oracle for the columnar plane (DESIGN.md §9).
    """
    from repro.workloads.spec2006 import build_benchmark
    from repro.workloads.trace import execute

    built = build_benchmark(benchmark, seed)
    return execute(built.program, instructions, built.machine())


def run_oracle(
    benchmark: str,
    mechanism,
    warmup: int,
    measure: int,
    *,
    seed: int = 1,
    sampling=None,
    eager: bool = True,
    generic: bool = False,
    checkpoint: dict | None = None,
) -> dict:
    """One cell on a reference plane, as :func:`stats_dict`.

    Mirrors ``Simulator.run_benchmark`` (full detail, or sampled warm-up
    then measurement) on an eager trace (``eager``, the default) or the
    runtime's columnar trace, with the generic rename/issue methods when
    ``generic``.  A µarch *checkpoint* payload is restored in place of
    the sampled warm-up.
    """
    from repro.pipeline.config import CoreConfig
    from repro.pipeline.core import Pipeline
    from repro.pipeline.simulator import _TRACE_SLACK, Simulator
    from repro.sampling import SampledRun, restore_checkpoint

    length = warmup + measure + _TRACE_SLACK
    trace = (
        eager_trace(benchmark, seed, length) if eager
        else Simulator(trace_store=None).trace_for(benchmark, seed, length)
    )
    pipeline = Pipeline(trace, CoreConfig(), mechanism, seed)
    if generic:
        generic_stages(pipeline)
    if sampling is None or not sampling.active:
        return stats_dict(pipeline.run(measure, warmup))
    run = SampledRun(pipeline, sampling)
    if checkpoint is not None:
        restore_checkpoint(pipeline, checkpoint)
    elif warmup > 0:
        run.warm_up(warmup)
    return stats_dict(run.measure(measure))
