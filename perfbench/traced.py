"""Traced invocation: ``invoke.py`` with a span around each layer call.

    python3 perfbench/traced.py '<request JSON>'

The request is an ``invoke.py`` request plus ``"spans": DIR``.  Before
running the same front door, this bootstrap times a fresh import of
``repro.api.cli`` and wraps the public functions of each layer (the
table in ``TARGETS``).  Spans stay in memory per process and are written
once, to ``DIR/spans-<pid>.json``: by the main process when the
invocation ends, and by each forked shard worker when its shard call
returns, because workers leave through ``os._exit`` and never run
``atexit``.  ``layers.py`` turns the files into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import invoke  # noqa: E402

_now = time.perf_counter


class Recorder:
    """Closed spans ``[name, start, end, child_time, top_level]`` and
    counters of one process; a forked child starts a fresh record."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)

    def own(self) -> "Recorder":
        if os.getpid() != self.pid:
            self.__init__()
        return self

    def close(self, record: list) -> None:
        self.stack.pop()
        duration = record[2] - record[1]
        if self.stack:
            self.stack[-1][3] += duration
        record.append(not self.stack)
        self.spans.append(record)

    def flush(self, directory: str) -> None:
        path = Path(directory) / f"spans-{self.pid}.json"
        path.write_text(json.dumps(
            {"pid": self.pid, "spans": self.spans, "counts": self.counts}
        ))


RECORDER = Recorder()


def traced(function, name: str, count=None, flush_to: str | None = None):
    """*function* wrapped in a span called *name*.

    *count* receives ``(counts, result, args)`` after the call, to bank
    exact counts where the work happens.  *flush_to* writes this
    process's spans when the call returns (the shard worker's exit).
    """

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder = RECORDER.own()
        record = [name, _now(), 0.0, 0.0]
        recorder.stack.append(record)
        try:
            result = function(*args, **kwargs)
        finally:
            record[2] = _now()
            recorder.close(record)
        if count is not None:
            count(recorder.counts, result, args)
        if flush_to is not None:
            recorder.flush(flush_to)
        return result

    return wrapper


def _incr(key):
    def count(counts, result, args):
        counts[key] += 1
    return count


def _trace_load(counts, result, args):
    counts["workloads.trace_hits" if result is not None
           else "workloads.trace_misses"] += 1


def _lake_load(counts, result, args):
    if result is not None:
        counts["harness.lake_hits"] += 1


def _lake_save(counts, result, args):
    if result is not None:
        counts["harness.lake_writes"] += 1


def _ckpt_load(counts, result, args):
    if result is not None:
        counts["sampling.ckpt_hits"] += 1


def _interp(counts, result, args):
    counts["workloads.interp_insts"] += len(result)


def _warm(counts, result, args):
    # FunctionalWarmer.warm(self, start, count, cycle) -> (end, cycle)
    counts["sampling.warmed_insts"] += result[0] - args[1]


def _pipeline_run(counts, result, args):
    counts["pipeline.insts"] += args[0].total_committed


#: (module, attribute path, span name, counter).  ``execute``,
#: ``pack_trace``, ``restore_checkpoint`` and the service functions are
#: wrapped where their caller bound them by name.
TARGETS = [
    ("repro.api.session", "Session.run", "api.session", None),
    ("repro.api.session", "Session.run_sharded", "api.session", None),
    ("repro.api.result", "RunResult.digest", "api.artifact", None),
    ("repro.api.result", "RunResult.save", "api.artifact", None),
    ("repro.harness.sweep", "SweepEngine.sweep", "harness.sweep", None),
    ("repro.harness.sweep", "SweepEngine.run_cell", "harness.run_cell",
     _incr("harness.cells")),
    ("repro.harness.sweep", "SweepEngine.cell_token", "harness.cell_token",
     None),
    ("repro.workloads.store", "TraceStore.load_cell", "harness.lake_load",
     _lake_load),
    ("repro.workloads.store", "TraceStore.save_cell", "harness.lake_save",
     _lake_save),
    ("repro.pipeline.simulator", "Simulator.run_benchmark",
     "harness.simulate", _incr("harness.cells_simulated")),
    ("repro.pipeline.simulator", "Simulator.trace_for", "workloads.trace_for",
     None),
    ("repro.pipeline.simulator", "build_benchmark", "workloads.build", None),
    ("repro.pipeline.simulator", "execute", "workloads.interp", _interp),
    ("repro.pipeline.simulator", "pack_trace", "workloads.pack", None),
    ("repro.workloads.store", "TraceStore.load", "workloads.trace_load",
     _trace_load),
    ("repro.workloads.store", "TraceStore.save_payload",
     "workloads.trace_save", None),
    ("repro.sampling.warming", "FunctionalWarmer.warm", "sampling.warm",
     _warm),
    ("repro.sampling.controller", "SampledRun.measure", "sampling.detail",
     None),
    ("repro.sampling.controller", "SampledRun.warm_up", "sampling.warm_up",
     None),
    ("repro.workloads.store", "TraceStore.load_checkpoint",
     "sampling.ckpt_load", _ckpt_load),
    ("repro.pipeline.simulator", "restore_checkpoint", "sampling.ckpt_restore",
     None),
    ("repro.pipeline.simulator", "capture_checkpoint", "sampling.ckpt_capture",
     None),
    ("repro.workloads.store", "TraceStore.save_checkpoint",
     "sampling.ckpt_save", None),
    ("repro.pipeline.core", "Pipeline.__init__", "pipeline.construct",
     _incr("pipeline.constructs")),
    ("repro.pipeline.core", "Pipeline.run", "pipeline.run", _pipeline_run),
    ("repro.service.supervisor", "ShardSupervisor.run", "service.supervise",
     None),
    ("repro.service.supervisor", "plan_shards", "service.plan", None),
    ("repro.service.supervisor", "validate_shard_result", "service.validate",
     None),
    ("repro.service.supervisor", "merge_shards", "service.merge", None),
]


def install(spans_dir: str) -> None:
    for module_name, path, name, count in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, attribute,
                traced(getattr(owner, attribute), name, count))
    supervisor = importlib.import_module("repro.service.supervisor")
    supervisor.shard_process_main = traced(
        supervisor.shard_process_main, "service.shard", flush_to=spans_dir
    )


def main(argv: list[str]) -> int:
    request = json.loads(argv[0])
    start = _now()
    import repro.api.cli  # noqa: F401  (timed: a fresh front-door import)
    RECORDER.spans.append(["api.import", start, _now(), 0.0, True])
    RECORDER.counts["api.modules_loaded"] = len(sys.modules)
    RECORDER.counts["api.numpy_loaded"] = float("numpy" in sys.modules)
    try:
        install(request["spans"])
        return invoke.main(argv)
    finally:
        if os.getpid() == RECORDER.pid:
            RECORDER.flush(request["spans"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
