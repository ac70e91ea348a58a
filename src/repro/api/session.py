"""The :class:`Session` facade: specs in, versioned artifacts out.

A session owns the infrastructure — the shared trace store and the
memoising sweep engine — and exposes one operation: ``run(spec) ->
RunResult``.  In process it routes into the
:class:`~repro.harness.sweep.SweepEngine`, so every guarantee that
engine gives (interpret once per machine, simulate each unique cell once
per process) holds unchanged.  With ``spec.shards > 1`` the cells the
memo lacks first fan out through the one parallel executor, the
:class:`~repro.service.supervisor.ShardSupervisor`; the merged cells
are filed in the engine's memo and the artifact is assembled from there.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.result import CellResult, RunResult
from repro.api.spec import ExperimentSpec, StoreSpec
from repro.obs import runtime as obs_runtime
from repro.harness.sweep import SweepEngine, shared_engine
from repro.pipeline.config import CoreConfig
from repro.pipeline.simulator import SimulationResult, Simulator
from repro.workloads.store import TraceStore


class IncompleteRun(RuntimeError):
    """A sharded :meth:`Session.run` lost cells to quarantined shards."""

    def __init__(self, holes) -> None:
        self.holes = tuple(holes)
        listed = ", ".join(
            f"{benchmark} × {mechanism} × seed {seed}"
            for benchmark, mechanism, seed in self.holes
        )
        super().__init__(
            f"sharded run incomplete: {len(self.holes)} cell(s) lost to "
            f"quarantined shards ({listed}); Session.run_sharded returns "
            "the partial result"
        )


class Session:
    """Owns the engine/store; runs :class:`ExperimentSpec` values.

    The default session shares the process-wide engine (and with it the
    persistent trace store and cell memo) with every other default
    session, bench and example in the process.  Pass a
    :class:`StoreSpec` or a non-default :class:`CoreConfig` to get a
    private engine instead — e.g. a throwaway store root in tests.
    """

    def __init__(
        self,
        store: StoreSpec | None = None,
        core_config: CoreConfig | None = None,
        engine: SweepEngine | None = None,
    ) -> None:
        if engine is not None:
            if store is not None:
                raise ValueError("pass a store spec or an engine, not both")
            self.engine = engine
        elif store is None:
            self.engine = shared_engine(core_config)
        else:
            root = store.resolve_root()
            self.engine = SweepEngine(
                simulator=Simulator(
                    core_config,
                    trace_store=(
                        TraceStore(root) if root is not None else None
                    ),
                ),
                # Pinned, not env-following: an explicit spec always
                # wins over ambient state (shared-engine sessions follow
                # the environment, which for_spec only allows when the
                # spec agrees with it anyway).
                result_lake=store.result_lake,
            )
        self.simulator = self.engine.simulator

    @classmethod
    def for_spec(cls, spec: ExperimentSpec,
                 core_config: CoreConfig | None = None) -> "Session":
        """A session honouring *spec*'s store configuration.

        The shared engine is used only when the spec's store agrees
        with what the environment resolves to anyway — then sharing is
        observationally equivalent and buys the cross-run memo.  Any
        disagreement (an explicit path, a pinned ``result_lake`` that
        the environment contradicts) gets a private engine with the spec's
        settings, so an explicit spec always wins over ambient state.
        (One documented exception: ``path=None`` means "the default
        cache location" and resolves through the environment, so a
        process that disabled persistence is never forced to write the
        user's cache — see :meth:`StoreSpec.resolve_root`.)
        """
        if spec.store == StoreSpec() and StoreSpec.from_env() == spec.store:
            return cls(core_config=core_config)
        return cls(store=spec.store, core_config=core_config)

    # ------------------------------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunResult:
        """Execute every cell of *spec* and return the artifact.

        The spec is fully resolved — the environment is never consulted
        here — so the recorded window/sampling/seeds are exactly what
        ran, and running the same spec twice (or on another session
        with the same engine state) yields digest-identical artifacts.
        With ``spec.shards > 1`` the cells this session has not
        memoised fan out through :meth:`run_sharded` first; a merge with
        holes raises :class:`IncompleteRun`, so ``run`` never returns a
        partial result.
        """
        # The telemetry plane (DESIGN.md §13) activates for this scope
        # when the spec enables it; otherwise REPRO_OBS steers it like
        # any other plane variable.  Off (the default) is free: no
        # runtime resolves and the artifact carries no telemetry.
        with obs_runtime.activated(spec.obs):
            telemetry = None
            if spec.shards > 1:
                telemetry = self._prefill_sharded(spec)
            swept = self.engine.sweep(
                list(spec.benchmarks),
                list(spec.mechanisms),
                seeds=list(spec.seeds),
                warmup=spec.window.warmup,
                measure=spec.window.measure,
                sampling=spec.sampling,
            )
            cells = [
                CellResult(benchmark, name, result.seed, result.stats)
                for (benchmark, name), results in swept.items()
                for result in results
            ]
            result = RunResult(spec=spec, cells=cells, telemetry=telemetry)
            active = obs_runtime.current()
            if active is not None and telemetry is None:
                result.telemetry = active.telemetry_payload()
        return result

    def _prefill_sharded(self, spec: ExperimentSpec) -> dict | None:
        """Simulate *spec*'s unmemoised mechanisms through the shard
        supervisor and file the merged cells in this session's memo.

        Mechanisms whose every cell is already memoised (the baseline of
        the next figure of ``repro figures``) are not dispatched again.
        Returns the merged artifact's telemetry section, if any.
        """
        if self.engine.core_config != CoreConfig():
            # Shard workers build their engines from the spec alone.
            raise ValueError(
                "a sharded run simulates the default core configuration; "
                "run this spec with shards=0 on a custom-core session"
            )
        window, sampling = spec.window, spec.sampling
        missing = tuple(
            mechanism for mechanism in spec.mechanisms
            if not all(
                self.engine.memoised(
                    benchmark, mechanism, seed, window.warmup,
                    window.measure, sampling,
                )
                for benchmark in spec.benchmarks for seed in spec.seeds
            )
        )
        if not missing:
            return None
        outcome = self.run_sharded(replace(spec, mechanisms=missing))
        if outcome.holes:
            raise IncompleteRun(outcome.holes)
        by_name = {mechanism.name: mechanism for mechanism in missing}
        for cell in outcome.result.cells:
            self.engine.remember(
                SimulationResult(
                    cell.benchmark, cell.mechanism, cell.seed, cell.stats
                ),
                by_name[cell.mechanism], window.warmup, window.measure,
                sampling,
            )
        return outcome.result.telemetry

    def run_sharded(
        self,
        spec: ExperimentSpec,
        shards: int | None = None,
        supervisor=None,
    ):
        """Execute *spec* through the fault-tolerant sharded service.

        Shards fan out to worker processes under a
        :class:`~repro.service.supervisor.ShardSupervisor` (deadlines,
        retry with backoff, reassignment, quarantine — DESIGN.md §11)
        and merge digest-verified; the returned
        :class:`~repro.service.supervisor.ShardedSweepResult` is
        digest-identical to an in-process :meth:`run` when complete and
        carries explicit holes otherwise.  ``shards <= 1`` (and a grid
        too small to split) degrades gracefully to the in-process engine
        path.
        """
        from repro.service.supervisor import ShardSupervisor

        if supervisor is None:
            supervisor = ShardSupervisor()
        count = spec.shards if shards is None else shards
        return supervisor.run(spec, shards=count)

    def run_clustered(
        self,
        spec: ExperimentSpec,
        hosts=None,
        shards: int | None = None,
    ):
        """Execute *spec* across remote ``repro serve --tcp`` hosts.

        *hosts* is ``"a:9091,b:9091"`` (or a sequence of
        :class:`~repro.cluster.hosts.HostSpec`); ``None`` reads
        ``REPRO_HOSTS``.  The shards fan out to the host pool through a
        :class:`~repro.cluster.dispatch.RemoteDispatcher` under the same
        :class:`~repro.service.supervisor.ShardSupervisor` retry ladder
        as :meth:`run_sharded`, and hosts opportunistically publish lake
        entries back so this session's result lake goes warm.  The
        merged result is digest-identical to :meth:`run` when complete,
        whatever crashed along the way (DESIGN.md §15).
        """
        from repro.cluster.dispatch import run_clustered

        return run_clustered(spec, hosts=hosts, shards=shards, session=self)


def run(spec: ExperimentSpec) -> RunResult:
    """One-shot convenience: build the right session and run *spec*."""
    return Session.for_spec(spec).run(spec)
