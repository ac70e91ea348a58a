"""Per-layer metrics from the span files of one traced invocation.

A layer's self time is the duration of its spans minus the part their
child spans cover, summed over every process of the invocation (the
main process and any forked shard worker).  Counts are banked by the
wrappers in ``traced.py`` where the work happens.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

LAYERS = ("api", "harness", "workloads", "sampling", "pipeline", "service")

#: Self time of one span name, reported as ``<name>_s``.
TIMED_SPANS = (
    "api.import", "api.artifact",
    "harness.cell_token", "harness.lake_load", "harness.lake_save",
    "workloads.build", "workloads.interp", "workloads.pack",
    "workloads.trace_save", "workloads.trace_load",
    "sampling.warm", "sampling.detail", "sampling.ckpt_load",
    "sampling.ckpt_restore",
    "pipeline.run", "pipeline.construct",
    "service.plan", "service.validate", "service.merge",
)

#: Exact counts banked by the wrappers.
COUNTS = (
    "api.modules_loaded", "harness.cells", "harness.cells_simulated",
    "harness.lake_hits", "harness.lake_writes", "workloads.interp_insts",
    "workloads.trace_hits", "workloads.trace_misses",
    "sampling.warmed_insts", "sampling.ckpt_hits", "pipeline.insts",
    "pipeline.constructs",
)

#: Every per-layer metric the benchmark prints with ``--trace 1``.
METRICS: dict[str, str] = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNTS},
    "api.numpy_loaded": "flag",
    "harness.lake_hit_ratio": "ratio",
    "sampling.warm_kips": "kinst/s",
    "pipeline.kips": "kinst/s",
    "service.shard_s": "s",
    "service.idle_s": "s",
    "service.attempts": "count",
    "service.failures": "count",
    "service.backoff_s": "s",
    # Simulated-model counts from the artifact (``invoke.model_counts``).
    "model.cycles": "cycles",
    "model.committed": "inst",
    "model.warmed": "inst",
    "model.dist_pred": "count",
    "model.rsep_mispredicts": "count",
    "model.squashes_rsep": "count",
    "model.branch_mispredicts": "count",
    "model.ipc_hmean.baseline": "inst/cycle",
    "model.speedup_pct.rsep-realistic": "%",
    "obs.wall_s": "s",
    "obs.plain_wall_s": "s",
    "obs.overhead_pct": "%",
    "obs.unattributed_s": "s",
}

#: Metrics ``run.py`` takes from the plain (untraced) invocations of a
#: traced run rather than from the spans: the untraced wall time and the
#: tracing overhead (traced against plain CPU time).
PLAIN = ("obs.plain_wall_s", "obs.overhead_pct")


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def from_spans(spans_dir: Path, main_pid: int, wall: float,
               summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation of *wall* seconds."""
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    shard_s = 0.0
    shards = 0
    main_top: list[tuple[float, float]] = []
    for path in sorted(spans_dir.glob("spans-*.json")):
        record = json.loads(path.read_text())
        for name, start, end, child, top in record["spans"]:
            self_time[name] += end - start - child
            if name == "service.shard":
                shard_s += end - start
                shards += 1
            if top and record["pid"] == main_pid:
                main_top.append((start, end))
        for name, value in record["counts"].items():
            counts[name] += value
    metrics = {f"{name}_s": self_time[name] for name in TIMED_SPANS}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for name, value in self_time.items()
            if name.split(".")[0] == layer
        )
    metrics.update({name: counts[name] for name in COUNTS})
    metrics["api.numpy_loaded"] = counts["api.numpy_loaded"]
    cells = counts["harness.cells"]
    metrics["harness.lake_hit_ratio"] = (
        counts["harness.lake_hits"] / cells if cells else 0.0
    )
    warm_s = self_time["sampling.warm"]
    metrics["sampling.warm_kips"] = (
        counts["sampling.warmed_insts"] / warm_s / 1000 if warm_s else 0.0
    )
    run_s = self_time["pipeline.run"]
    metrics["pipeline.kips"] = (
        counts["pipeline.insts"] / run_s / 1000 if run_s else 0.0
    )
    # Two worker slots (nproc) for the whole invocation, minus the time
    # a shard call held one: fork, imbalance and the merge tail.
    metrics["service.shard_s"] = shard_s
    metrics["service.idle_s"] = 2 * wall - shard_s if shards else 0.0
    metrics["service.attempts"] = summary["attempts"]
    metrics["service.failures"] = summary["failures"]
    metrics["service.backoff_s"] = summary["backoff_s"]
    for name in METRICS:
        if name.startswith("model."):
            metrics[name] = summary["model"][name[len("model."):]]
    metrics["obs.wall_s"] = wall
    metrics["obs.unattributed_s"] = wall - _union(main_top)
    return metrics
