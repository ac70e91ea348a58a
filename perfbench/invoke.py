"""One benchmark invocation: a fresh process through the public front door.

    python3 perfbench/invoke.py '<request JSON>'

The request names an operation:

* ``import`` only loads the front door: the set-up of a workload whose
  store starts empty.
* ``prepare`` warms a trace store for a grid: it builds every
  benchmark's functional trace (and, for sampled grids, the µarch
  checkpoints of the warm-up), so a later ``run`` on the same store
  starts warm.  This is set-up work, never timed as an invocation.
* ``run`` builds an ``ExperimentSpec`` from the request, executes it
  with ``Session.run`` (or ``Session.run_sharded`` when ``shards > 1``),
  saves the artifact and prints one summary JSON line: digest,
  completeness, cell counters and the simulated-model counts.

The process imports ``repro.api.cli`` first, the module graph the
``repro`` console command loads, so every invocation pays the start-up
a user of ``repro sweep`` pays.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

#: Instructions built past a cell's window when warming a trace store.
#: The simulator asks for the window plus its own in-flight slack of
#: 4096; a stored trace built longer than that covers the request.
TRACE_MARGIN = 8192

#: The model counters summed over every cell of an artifact.
MODEL_FIELDS = (
    "cycles", "committed", "warmed", "dist_pred", "rsep_mispredicts",
    "squashes_rsep", "branch_mispredicts",
)


def build_spec(request: dict):
    from repro.api import ExperimentSpec, StoreSpec, WindowSpec
    from repro.pipeline.config import MechanismConfig
    from repro.sampling import SamplingConfig
    from repro.workloads.spec2006 import benchmark_names

    benchmarks = request["benchmarks"]
    return ExperimentSpec(
        benchmarks=benchmark_names() if benchmarks == "all" else benchmarks,
        mechanisms=[MechanismConfig.preset(n) for n in request["mechanisms"]],
        seeds=(request["seed"],),
        window=WindowSpec(warmup=request["warmup"],
                          measure=request["measure"]),
        sampling=SamplingConfig(enabled=request["sampled"]),
        store=StoreSpec(path=request["store"],
                        result_lake=request["lake"]),
        shards=request["shards"],
    )


def _harmonic_mean(values: list[float]) -> float:
    return len(values) / sum(1.0 / value for value in values)


def model_counts(result) -> dict:
    """Simulated-time counts of an artifact (exact; no host time)."""
    counts = {
        field: sum(getattr(cell.stats, field) for cell in result.cells)
        for field in MODEL_FIELDS
    }
    names = result.mechanism_names()
    hmean = {
        name: _harmonic_mean(
            [result.ipc(benchmark, name) for benchmark in result.benchmarks]
        )
        for name in names
    }
    for name in names:
        counts[f"ipc_hmean.{name}"] = hmean[name]
        if name != "baseline" and "baseline" in hmean:
            counts[f"speedup_pct.{name}"] = (
                100.0 * (hmean[name] / hmean["baseline"] - 1.0)
            )
    return counts


def prepare(request: dict) -> dict:
    from repro.api import Session, WindowSpec

    spec = build_spec(request)
    session = Session.for_spec(spec)
    length = spec.window.warmup + spec.window.measure + TRACE_MARGIN
    for benchmark in spec.benchmarks:
        session.simulator.trace_for(benchmark, request["seed"], length)
    if spec.sampling.active and spec.window.warmup > 0:
        # Checkpoints depend on the warm-up, not on the measure window:
        # a one-instruction measure captures exactly the checkpoints the
        # timed spec restores.
        session.run(replace(
            spec, window=WindowSpec(warmup=spec.window.warmup, measure=1)
        ))
    return {"op": "prepare"}


def run(request: dict) -> dict:
    from repro.api import Session

    spec = build_spec(request)
    session = Session.for_spec(spec)
    summary: dict = {"op": "run"}
    if spec.shards > 1:
        outcome = session.run_sharded(spec)
        result = outcome.result
        summary.update(
            complete=outcome.complete,
            holes=len(outcome.holes),
            attempts=sum(outcome.attempts.values()),
            failures=len(outcome.failures),
            backoff_s=sum(r.backoff_seconds
                          for r in outcome.shard_reports.values()),
        )
    else:
        result = session.run(spec)
        summary.update(
            complete=True, holes=0, attempts=0, failures=0, backoff_s=0.0,
        )
    result.save(request["artifact"])
    summary.update(
        digest=result.digest(),
        cells=len(result.cells),
        commit_width=session.simulator.core_config.commit_width,
        min_committed=min(cell.stats.committed for cell in result.cells),
        max_committed=max(cell.stats.committed for cell in result.cells),
        model=model_counts(result) if summary["complete"] else {},
    )
    return summary


def main(argv: list[str]) -> int:
    import repro.api.cli  # noqa: F401  (the front door's import graph)

    request = json.loads(argv[0])
    operations = {"import": lambda request: {"op": "import"},
                  "prepare": prepare, "run": run}
    summary = operations[request["op"]](request)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
