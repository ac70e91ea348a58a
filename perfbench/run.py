"""The repository benchmark: two sweep workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is one fresh Python
process through the public front door (``invoke.py``: ``ExperimentSpec``
to ``Session.run`` or ``Session.run_sharded``), timed from outside, so
start-up is part of its time.  The load is a closed loop with one
client: the next invocation starts when the previous one has exited,
until ``--seconds`` have passed.  The seed goes into the spec's
``seeds`` and selects the checkpoint every trace is built from.

``--trace 0`` prints the end-to-end metrics (medians over the run's
invocations): ``cpu_s``, ``kips`` (window kilo-instructions of every
cell per second of ``cpu_s``), ``setup_s`` (median of the repeated
set-up) and ``peak_rss_mb`` (largest resident set of any process of an
invocation, shard workers included).  ``--trace 1`` alternates plain
and traced invocations (``traced.py``) and prints the per-layer
metrics of ``layers.py``.

Host time is CPU time: user plus system seconds of the invocation's
whole process tree (shard workers included), from ``wait4``.  On a
virtual machine whose CPUs the hypervisor shares, wall time also counts
the time the hypervisor gave the CPUs to other guests (steal), which
swings by tens of percent from minute to minute and is not the
program's cost; CPU time leaves it out (it still moves with the host's
CPU speed, which medians over a long run even out).  The untraced wall
time is still printed with the per-layer metrics, as
``obs.plain_wall_s``.

The simulated ``model.*`` numbers are counts of an unvalidated model:
the repository holds no real-hardware reference, so no error figure is
given.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
invocation, set-up included, is one attempted operation; a non-zero
exit, a failed output check or a sharded result with holes fails it.
Progress goes to standard error.  All files live under
``.perfbench-work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
#: Each workload works in ``.perfbench-work/<workload>``, wiped per run.
WORK = ROOT / ".perfbench-work"

#: Set-up runs this often per run (each into a fresh store); the last
#: one serves the timed invocations and ``setup_s`` is the median.
SETUP_REPEATS = 3
#: An invocation still running after this long is killed and failed.
INVOCATION_TIMEOUT = 100.0
#: A run makes at least this many timed invocations, however long they
#: take (a traced run: one plain and one traced).
MIN_INVOCATIONS = 3
MECHANISMS = ("baseline", "rsep-realistic")



@dataclass(frozen=True)
class Grid:
    """Benchmarks (``"all"``: every one) × ``MECHANISMS`` over one window."""

    benchmarks: tuple[str, ...] | str
    warmup: int
    measure: int
    sampled: bool = False


#: ``full`` is the benchmark; ``tiny`` is the self-test's quick pass.
GRIDS = {
    "sampled": {
        "full": Grid(("mcf", "bzip2", "hmmer", "lbm"), 20000, 40000, True),
        "tiny": Grid(("mcf", "lbm"), 2000, 20000, True),
    },
    "sweep": {
        "full": Grid("all", 1000, 3000),
        "tiny": Grid(("mcf", "lbm", "gamess", "hmmer"), 200, 500),
    },
}


@dataclass(frozen=True)
class Workload:
    """How a workload sets up, runs and checks its invocations.

    ``setup`` is the set-up operation, repeated into fresh stores:
    ``prepare`` warms the trace store (and a sampled grid's
    checkpoints), ``import`` only loads the front door (a cold workload
    has nothing to warm).  ``in_process_reference`` computes the
    reference digest once in-process, untimed, after the timed
    invocations; without it, the first timed invocation's digest is
    the one the others must repeat.  ``exact_commits`` checks that every
    cell of a full-detail grid commits its measure window.
    """

    grid: str
    setup: str
    lake: bool = False
    shards: int = 0
    fresh_store: bool = False
    in_process_reference: bool = False
    exact_commits: bool = False


WORKLOADS = {
    "sampled": Workload("sampled", "prepare"),
    "cold_sharded": Workload("sweep", "import", lake=True, shards=2,
                             fresh_store=True, in_process_reference=True,
                             exact_commits=True),
}

END_TO_END = {"cpu_s": "s", "kips": "kinst/s", "setup_s": "s",
              "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    pid: int
    summary: dict | None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env(work: Path) -> dict[str, str]:
    """The environment of every invocation: no ambient ``REPRO_*``
    setting, the checkout's sources, and temporary files and any
    default store kept inside the work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # NumPy's BLAS pool is never used by the simulator; its idle threads
    # would only add scheduler noise to the CPU time.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["TMPDIR"] = str(work / "tmp")
    env["REPRO_TRACE_STORE"] = str(work / "default-store")
    return env


class Bench:
    def __init__(self, name: str, seed: int, size: str) -> None:
        self.workload = WORKLOADS[name]
        self.grid = GRIDS[self.workload.grid][size]
        self.seed = seed
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        self.env = child_env(self.work)
        self.invocations: list[Invocation] = []

    def request(self, op: str, store: Path, shards: int,
                spans: Path | None = None, lake: bool | None = None) -> dict:
        grid = self.grid
        request = {
            "op": op, "benchmarks": grid.benchmarks,
            "mechanisms": list(MECHANISMS), "seed": self.seed,
            "warmup": grid.warmup, "measure": grid.measure,
            "sampled": grid.sampled, "store": str(store),
            "lake": self.workload.lake if lake is None else lake,
            "shards": shards,
            "artifact": str(self.work / "artifact.json"),
        }
        if spans is not None:
            request["spans"] = str(spans)
        return request

    def invoke(self, request: dict, script: str = "invoke.py") -> Invocation:
        """Run one invocation to its end; times and peak RSS from outside.

        ``wait4`` reports the CPU time and the largest resident set of
        the child and of every descendant it waited for (the shard
        workers).
        """
        command = [sys.executable, str(HERE / script), json.dumps(request)]
        start = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(
            INVOCATION_TIMEOUT, os.killpg, (process.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            output = process.stdout.read().decode(errors="replace")
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
            process.stdout.close()
        wall = time.perf_counter() - start
        # Reaped by wait4 above; Popen must not wait for it again.
        process.returncode = os.waitstatus_to_exitcode(status)
        invocation = Invocation(wall, usage.ru_utime + usage.ru_stime,
                                usage.ru_maxrss / 1024, process.pid, None)
        if process.returncode != 0:
            invocation.problems.append(
                f"exit code {process.returncode}: {output[-2000:]}"
            )
        else:
            try:
                invocation.summary = json.loads(output.splitlines()[-1])
            except (IndexError, ValueError):
                invocation.problems.append(f"no summary: {output[-2000:]}")
        self.invocations.append(invocation)
        return invocation

    def check(self, invocation: Invocation, reference: str | None) -> None:
        """The output checks of a ``run`` invocation."""
        summary = invocation.summary
        if summary is None:
            return
        problems = invocation.problems
        if not summary["complete"]:
            problems.append(f"{summary['holes']} hole(s) in the merge")
        if reference is not None and summary["digest"] != reference:
            problems.append(
                f"digest {summary['digest']} differs from {reference}"
            )
        if self.workload.exact_commits:
            low, high = self.grid.measure, (
                self.grid.measure + summary["commit_width"]
            )
            if not (low <= summary["min_committed"]
                    and summary["max_committed"] <= high):
                problems.append(
                    f"committed {summary['min_committed']}.."
                    f"{summary['max_committed']}, window {low}..{high}"
                )

    def setup(self, repeats: int) -> tuple[list[float], Path]:
        """Set up *repeats* times, each into a fresh store.

        Returns the set-up CPU times and the last store.
        """
        times: list[float] = []
        store = self.work
        for index in range(repeats):
            store = self.work / f"store-{index}"
            invocation = self.invoke(
                self.request(self.workload.setup, store, 0)
            )
            times.append(invocation.cpu)
            log(f"setup {index}: {invocation.cpu:.3f}s cpu "
                f"{invocation.wall:.3f}s wall", invocation)
        return times, store


def log(message: str, invocation: Invocation) -> None:
    status = "ok" if invocation.ok else "FAILED " + "; ".join(
        invocation.problems
    )
    print(f"[perfbench] {message} {status}", file=sys.stderr)


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", faults: str | None = None) -> dict:
    """One benchmark run; returns the result object to print.

    *faults* is a ``REPRO_FAULTS`` plan for every invocation (self-test).
    """
    bench = Bench(name, seed, size)
    if faults is not None:
        bench.env["REPRO_FAULTS"] = faults
    workload = bench.workload
    setup_times, store = bench.setup(1 if trace else SETUP_REPEATS)
    reference = None
    plain: list[Invocation] = []
    traced: list[tuple[Invocation, Path]] = []
    started = time.perf_counter()
    while True:
        if workload.fresh_store:
            store = bench.work / "cold-store"
            shutil.rmtree(store, ignore_errors=True)
        spans = None
        if trace and len(plain) > len(traced):
            spans = bench.work / f"spans-{len(traced)}"
            spans.mkdir()
        request = bench.request("run", store, workload.shards, spans)
        invocation = bench.invoke(
            request, "invoke.py" if spans is None else "traced.py"
        )
        if spans is None:
            plain.append(invocation)
        else:
            traced.append((invocation, spans))
        count = len(plain) + len(traced)
        if time.perf_counter() - started >= seconds and (
            count >= (2 if trace else MIN_INVOCATIONS)
        ):
            break
    if workload.in_process_reference:
        # Untimed, after the loop: the last cold store holds the traces
        # the shards interpreted, and with the lake off every cell is
        # computed again in this one process.
        invocation = bench.invoke(bench.request("run", store, 0, lake=False))
        bench.check(invocation, None)
        log(f"in-process reference: {invocation.wall:.3f}s wall", invocation)
        if invocation.summary is not None:
            reference = invocation.summary["digest"]
    timed = plain + [invocation for invocation, _ in traced]
    for index, invocation in enumerate(timed):
        if reference is None and invocation.summary is not None:
            reference = invocation.summary["digest"]
        bench.check(invocation, reference)
        log(f"run {index}{' traced' if index >= len(plain) else ''}: "
            f"{invocation.cpu:.3f}s cpu {invocation.wall:.3f}s wall "
            f"{invocation.rss_mb:.0f}MB", invocation)

    median = statistics.median
    if trace:
        samples = [
            layers.from_spans(spans, inv.pid, inv.wall, inv.summary)
            for inv, spans in traced if inv.ok
        ]
        values = {
            metric: median([sample[metric] for sample in samples])
            if samples else 0.0
            for metric in layers.METRICS if metric not in layers.PLAIN
        }
        values["obs.overhead_pct"] = 100.0 * (
            median([inv.cpu for inv, _ in traced])
            / median([inv.cpu for inv in plain]) - 1.0
        )
        values["obs.plain_wall_s"] = median([inv.wall for inv in plain])
        units = layers.METRICS
    else:
        cpu = median([inv.cpu for inv in plain])
        cells = next((inv.summary["cells"] for inv in plain if inv.summary), 0)
        window_kinst = cells * (bench.grid.warmup + bench.grid.measure) / 1000
        values = {
            "cpu_s": cpu,
            "kips": window_kinst / cpu,
            "setup_s": median(setup_times),
            "peak_rss_mb": median([inv.rss_mb for inv in plain]),
        }
        units = END_TO_END
    failed = sum(not inv.ok for inv in bench.invocations)
    return {
        "correct": failed == 0,
        "attempted": len(bench.invocations),
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
