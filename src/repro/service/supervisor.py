"""The async shard supervisor: the service's robustness core.

Shards go into an :class:`asyncio.Queue`; a bounded set of worker-slot
coroutines drains it, each attempt running in its own worker *process*
(one process per attempt, so one shard's death can never take another
shard's state with it).  The supervisor watches every attempt with a
wall-clock deadline and classifies the outcome:

* **worker death** (non-zero exit, e.g. OOM-kill or segfault) — the
  shard is re-enqueued with exponential backoff and picked up by any
  free slot: reassignment, not restart-the-world;
* **hang** (deadline exceeded) — the worker is killed, then the same
  retry path;
* **corrupt / tampered artifact** (parse failure, digest mismatch,
  foreign fingerprint, wrong cell set) — rejected at the load boundary
  and re-executed;
* **poison shard** (attempt budget exhausted) — quarantined: its cells
  become explicit holes in the merged result instead of aborting the
  sweep;
* **no workers at all** (process spawn fails, or ``max_workers=0``) —
  graceful degradation to the in-process
  :class:`~repro.harness.sweep.SweepEngine` path, same digest-verified
  merge.

Because every cell is deterministic and every artifact digest-verified,
a merged sharded run — even one that crashed, hung and corrupted its way
through retries — is bit-identical to an unfaulted in-process run; the
CI smoke gate (:mod:`repro.service.smoke`) pins exactly that.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.api import env as api_env
from repro.api.result import RunResult
from repro.api.spec import ExperimentSpec
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import obs_tracer
from repro.service.faults import FaultPlan
from repro.service.shards import (
    CellId,
    ShardResult,
    ShardSpec,
    merge_shards,
    plan_shards,
    validate_shard_result,
)
from repro.service.worker import execute_shard, shard_process_main


@dataclass
class ShardReport:
    """One shard's attempt summary: why it retried, for how long.

    The retry/quarantine story used to live only in the supervisor's
    event log; this summary travels inside the merged result, so a hole
    is explainable (`which kinds of failure, how much backoff, was it
    quarantined`) without the event stream.
    """

    attempts: int = 0
    failure_kinds: tuple[str, ...] = ()
    backoff_seconds: float = 0.0
    quarantined: bool = False

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "failure_kinds": list(self.failure_kinds),
            "backoff_seconds": round(self.backoff_seconds, 4),
            "quarantined": self.quarantined,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardReport":
        return cls(
            attempts=int(payload["attempts"]),
            failure_kinds=tuple(payload["failure_kinds"]),
            backoff_seconds=float(payload["backoff_seconds"]),
            quarantined=bool(payload["quarantined"]),
        )


@dataclass
class ShardedSweepResult:
    """What a sharded sweep returns: the artifact plus its fault story.

    ``result`` carries every cell that completed; ``holes`` explicitly
    enumerates the (benchmark, mechanism, seed) cells lost to
    quarantined shards — an incomplete sweep is a *partial result*, not
    an exception.  ``attempts`` and ``failures`` are the audit trail;
    ``shard_reports`` is its per-shard digest (attempts, failure kinds,
    total backoff, quarantine verdict).
    """

    result: RunResult
    holes: tuple[CellId, ...] = ()
    quarantined: tuple[int, ...] = ()
    attempts: dict[int, int] = field(default_factory=dict)
    failures: tuple[str, ...] = ()
    mode: str = "sharded"
    shard_reports: dict[int, ShardReport] = field(default_factory=dict)
    #: Cluster runs only: per-host status/dispatch summary keyed by host
    #: label (``repro.cluster.pool.HostPool.report``); empty otherwise.
    host_reports: dict[str, dict] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.holes

    def digest(self) -> str:
        return self.result.digest()

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "holes": [list(hole) for hole in self.holes],
            "quarantined": list(self.quarantined),
            "attempts": {str(k): v for k, v in self.attempts.items()},
            "failures": list(self.failures),
            "mode": self.mode,
            "shard_reports": {
                str(index): report.to_dict()
                for index, report in sorted(self.shard_reports.items())
            },
            "host_reports": dict(sorted(self.host_reports.items())),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardedSweepResult":
        return cls(
            result=RunResult.from_dict(payload["result"]),
            holes=tuple(
                (hole[0], hole[1], hole[2]) for hole in payload["holes"]
            ),
            quarantined=tuple(payload["quarantined"]),
            attempts={int(k): v for k, v in payload["attempts"].items()},
            failures=tuple(payload["failures"]),
            mode=payload["mode"],
            # Absent in pre-telemetry payloads: reports stay empty.
            shard_reports={
                int(index): ShardReport.from_dict(report)
                for index, report in payload.get("shard_reports", {}).items()
            },
            # Absent in pre-cluster (and non-clustered) payloads.
            host_reports=dict(payload.get("host_reports", {})),
        )


class ShardSupervisor:
    """Fans shards out to worker processes and survives their failures."""

    def __init__(
        self,
        *,
        deadline: float | None = None,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_workers: int | None = None,
        poll_interval: float = 0.01,
        faults: FaultPlan | str | None = None,
        dispatcher=None,
    ) -> None:
        self.deadline = (
            api_env.shard_timeout_from_env() if deadline is None else deadline
        )
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Concurrent worker slots; ``None`` = sized per run, ``0`` =
        #: never spawn processes (forces in-process degradation).
        self.max_workers = max_workers
        self.poll_interval = poll_interval
        if faults is None:
            faults = FaultPlan.parse(api_env.faults_from_env())
        elif isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self.faults = faults
        #: Execution backend for attempts; ``None`` = fork a worker
        #: process per attempt.  A :class:`~repro.cluster.dispatch
        #: .RemoteDispatcher` routes attempts to pooled hosts instead —
        #: the whole retry/reassignment/quarantine ladder is agnostic.
        self.dispatcher = dispatcher

    # ------------------------------------------------------------------

    def run(
        self, spec: ExperimentSpec, shards: int | None = None
    ) -> ShardedSweepResult:
        """Execute *spec* sharded; blocking front of :meth:`run_async`."""
        return asyncio.run(self.run_async(spec, shards=shards))

    async def run_async(
        self, spec: ExperimentSpec, shards: int | None = None
    ) -> ShardedSweepResult:
        """Async core, callable from a running loop (``repro serve``)."""
        count = spec.shards if shards is None else shards
        # max_workers=0 means "never fork" — which only forces the
        # in-process rung when forking is the backend at all.
        no_backend = self.max_workers == 0 and self.dispatcher is None
        if count <= 1 or no_backend or spec.cells < 2:
            return await asyncio.get_running_loop().run_in_executor(
                None, self._run_in_process, spec
            )
        return await self._run_sharded(spec, count)

    # ------------------------------------------------------------------

    def _run_in_process(self, spec: ExperimentSpec) -> ShardedSweepResult:
        """Degradation ladder's last rung: the classic engine path.

        ``shards=0`` keeps :meth:`Session.run` in process (it would
        otherwise route straight back here); the artifact still records
        the spec as given.
        """
        from repro.api.session import Session

        result = Session.for_spec(spec).run(replace(spec, shards=0))
        result.spec = spec
        return ShardedSweepResult(result=result, mode="in-process")

    async def _run_sharded(
        self, spec: ExperimentSpec, count: int
    ) -> ShardedSweepResult:
        shard_specs = plan_shards(spec, count)
        spool = Path(tempfile.mkdtemp(prefix="repro-shards-"))
        results: dict[int, ShardResult] = {}
        attempts: dict[int, int] = {s.index: 0 for s in shard_specs}
        reports: dict[int, ShardReport] = {
            s.index: ShardReport() for s in shard_specs
        }
        failures: list[str] = []
        quarantined: list[int] = []
        queue: asyncio.Queue = asyncio.Queue()
        for shard in shard_specs:
            queue.put_nowait((shard, 0))
        if self.dispatcher is not None:
            slots = min(len(shard_specs), self.dispatcher.width)
        else:
            slots = min(len(shard_specs), self.max_workers or 2)
        outstanding = len(shard_specs)
        loop = asyncio.get_running_loop()
        # Slot coroutines interleave, so spans use the explicit
        # begin/end API (a thread-nested stack would mis-parent them).
        tracer = obs_tracer()
        tracer.event(
            "shard.plan", shards=len(shard_specs), cells=spec.cells,
            fingerprint=spec.fingerprint(),
        )

        def finish_one() -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                for _ in range(slots):
                    queue.put_nowait(None)

        async def slot() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                shard, attempt = item
                attempts[shard.index] = attempt + 1
                report = reports[shard.index]
                report.attempts = attempt + 1
                tracer.event(
                    "shard.dispatch", shard=shard.index, attempt=attempt + 1,
                    cells=len(shard.cell_ids()),
                )
                span = tracer.begin(
                    "shard.attempt", shard=shard.index, attempt=attempt + 1
                )
                outcome = await self._attempt(shard, attempt, spool)
                if isinstance(outcome, ShardResult):
                    tracer.end(span, "shard.attempt",
                               shard=shard.index, status="ok")
                    results[shard.index] = outcome
                    finish_one()
                    continue
                kind, reason = outcome
                tracer.end(span, "shard.attempt",
                           shard=shard.index, status="failed", kind=kind)
                report.failure_kinds = report.failure_kinds + (kind,)
                failures.append(
                    f"shard {shard.index} attempt {attempt + 1}/"
                    f"{self.max_attempts}: {reason}"
                )
                if attempt + 1 >= self.max_attempts:
                    report.quarantined = True
                    tracer.event(
                        "shard.quarantine", shard=shard.index,
                        attempts=attempt + 1, kind=kind,
                    )
                    quarantined.append(shard.index)
                    finish_one()
                    continue
                # Exponential backoff, scheduled off-slot so this slot
                # is immediately free for other shards.
                delay = min(
                    self.backoff_cap, self.backoff_base * (2 ** attempt)
                )
                report.backoff_seconds += delay
                tracer.event(
                    "shard.retry", shard=shard.index,
                    next_attempt=attempt + 2, backoff=round(delay, 4),
                    kind=kind,
                )
                loop.call_later(
                    delay, queue.put_nowait, (shard, attempt + 1)
                )

        try:
            await asyncio.gather(*(slot() for _ in range(slots)))
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        with tracer.span(
            "shard.merge", shards=len(results), holes_expected=len(quarantined)
        ):
            merged, holes = merge_shards(
                spec, [results[index] for index in sorted(results)]
            )
        runtime = obs_runtime.current()
        if runtime is not None:
            merged.telemetry = runtime.telemetry_payload(
                extra={
                    "shards": {
                        str(index): report.to_dict()
                        for index, report in sorted(reports.items())
                    }
                }
            )
        return ShardedSweepResult(
            result=merged,
            holes=holes,
            quarantined=tuple(sorted(quarantined)),
            attempts=attempts,
            failures=tuple(failures),
            mode=(
                "sharded" if self.dispatcher is None
                else self.dispatcher.mode
            ),
            shard_reports=reports,
        )

    # ------------------------------------------------------------------

    async def _attempt(
        self, shard: ShardSpec, attempt: int, spool: Path
    ) -> ShardResult | tuple[str, str]:
        """One attempt at one shard; a ``(kind, reason)`` return is a
        retriable failure — ``kind`` is the machine-readable class
        (spawn/hang/death/no-artifact/corrupt/foreign), ``reason`` the
        human-readable line that lands in ``failures``."""
        fault = self.faults.fault_for(shard.index, attempt)
        if self.dispatcher is not None:
            # Cluster backend: the dispatcher runs the attempt remotely
            # and returns the exact same contract, so retry, backoff,
            # reassignment and quarantine above need no cluster
            # awareness at all.
            return await self.dispatcher.attempt(shard, attempt, fault)
        out_path = spool / f"shard-{shard.index}-attempt-{attempt}.json"
        process = multiprocessing.Process(
            target=shard_process_main,
            args=(shard.to_json(), str(out_path), fault),
            daemon=True,
        )
        try:
            process.start()
        except OSError as error:
            # Can't spawn workers at all: degrade to executing the shard
            # inline.  Results stay digest-verified by the merge.
            del process
            try:
                return execute_shard(shard)
            except Exception as inline_error:  # noqa: BLE001
                return (
                    "spawn",
                    f"no worker process ({error}) and inline execution "
                    f"failed: {inline_error}",
                )
        loop = asyncio.get_running_loop()
        deadline_at = loop.time() + self.deadline
        while process.is_alive() and loop.time() < deadline_at:
            await asyncio.sleep(self.poll_interval)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - SIGTERM sufficed
                process.kill()
                process.join(timeout=5.0)
            return (
                "hang",
                f"deadline exceeded ({self.deadline:g}s); worker killed",
            )
        process.join()
        if process.exitcode != 0:
            return ("death", f"worker died (exit code {process.exitcode})")
        try:
            text = out_path.read_text(encoding="utf-8")
        except OSError as error:
            return (
                "no-artifact",
                f"worker exited cleanly but left no artifact ({error})",
            )
        try:
            result = ShardResult.from_json(text)
        except (ValueError, KeyError, TypeError) as error:
            return ("corrupt", f"shard artifact rejected: {error}")
        return validate_shard_result(shard, result) or result
