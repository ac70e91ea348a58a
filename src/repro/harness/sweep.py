"""Shared sweep engine: interpret once, simulate each unique cell once.

Every figure bench, ablation, example and CI gate ultimately runs the
same kind of sweep — benchmark × mechanism × seed cells over a common
window.  Before this module each script owned a private runner, so the
same functional trace was re-interpreted per script and the same cell
(fig. 4's baseline is also fig. 6's, fig. 7's and Table I's) was
re-simulated per script.
The sweep engine removes both redundancies:

* **Traces** come from the engine's :class:`Simulator`, which memoises in
  memory and persists through the on-disk
  :class:`~repro.workloads.store.TraceStore` — each trace is interpreted
  at most once per machine, ever (build-once / run-many, in the style of
  artifact-caching experiment infrastructures).
* **Cells** are memoised on a content fingerprint of everything that
  determines the result — benchmark, seed, resolved window and the full
  mechanism configuration *minus its display name* — so two presets with
  different names but identical settings share one simulation.  Each
  simulation runs on a fresh ``Pipeline``, so a memoised result is
  bit-identical to a rerun (the same determinism guarantee the golden
  tests pin down).

The engine itself is sequential.  Parallel sweeps go through the one
parallel executor, :class:`~repro.service.supervisor.ShardSupervisor`
(``ExperimentSpec.shards`` / ``REPRO_SHARDS``, DESIGN.md §11): its
workers run :class:`SweepEngine` cells against the shared on-disk trace
store, and :meth:`SweepEngine.remember` files the merged cells back into
the caller's memo.

``python -m repro.harness.sweep --smoke`` is the CI gate: it runs a tiny
sweep cold, re-runs it through the memo and through a fresh engine on
the warmed store, and fails if any path disagrees.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.api import env as api_env
from repro.obs.runtime import obs_tracer
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.simulator import SimulationResult, Simulator
from repro.pipeline.stats import Stats
from repro.sampling import SamplingConfig
from repro.workloads.store import (
    CELL_FORMAT,
    model_code_version,
    workload_code_version,
)

#: Cell key: (benchmark, seed, warmup, measure, mechanism fingerprint,
#: sampling fingerprint, core-config fingerprint).  The core fingerprint
#: makes the memo sound for any core configuration — two cores can
#: never collide on a key — which is also what lets engines with
#: different cores share one cell table (see :meth:`SweepEngine.variant`)
#: and what makes a persistent result lake keyed the same way safe.
CellKey = tuple[str, int, int, int, str, str, str]

#: The exact Stats schema this build writes/reads in lake cells.  A lake
#: entry whose stats keys differ (written by an older/newer build under
#: the same CELL_FORMAT) is a miss, never a misread.
_STATS_FIELDS = frozenset(f.name for f in dataclasses.fields(Stats))


def mechanism_fingerprint(mechanism: MechanismConfig) -> str:
    """Content fingerprint of a mechanism configuration.

    The display name is excluded: it labels the experiment, not the
    machine being simulated.  Everything else is a tree of frozen
    dataclasses, enums and scalars with deterministic ``repr``.
    """
    return mechanism.fingerprint()


def _copy_result(
    result: SimulationResult, benchmark: str, name: str, seed: int
) -> SimulationResult:
    """A fresh result view (own ``Stats``) labelled for the caller."""
    stats = dataclasses.replace(result.stats, extra=dict(result.stats.extra))
    return SimulationResult(benchmark, name, seed, stats)


class SweepEngine:
    """Memoising sweep executor shared by benches, examples and tests."""

    def __init__(
        self,
        core_config: CoreConfig | None = None,
        simulator: Simulator | None = None,
        sampling: SamplingConfig | None = None,
        result_lake: bool | None = None,
    ) -> None:
        self.simulator = simulator or Simulator(core_config)
        self.core_config = self.simulator.core_config
        self._core_fp = self.core_config.fingerprint()
        #: Engine-wide sampling default; ``None`` follows the environment
        #: (``REPRO_SAMPLING`` and friends) at each call.
        self.sampling = sampling
        #: Result-lake gate (DESIGN.md §14): ``None`` follows the
        #: environment (``REPRO_RESULT_LAKE``) at each call; an explicit
        #: bool (a :class:`~repro.api.spec.StoreSpec` threading through
        #: :class:`~repro.api.session.Session`) pins it.  The lake lives
        #: in the simulator's trace store, so no store means no lake.
        self.result_lake = result_lake
        self._cells: dict[CellKey, SimulationResult] = {}
        self._variants: dict[str, SweepEngine] = {}
        self.cell_hits = 0
        self.cell_misses = 0
        self.lake_hits = 0
        self.lake_misses = 0
        self.lake_writes = 0

    # ------------------------------------------------------------------

    def variant(self, core_config: CoreConfig | None) -> "SweepEngine":
        """An engine simulating *core_config* that shares this engine's
        caches.

        The variant reuses the same on-disk trace store, the same
        in-memory trace cache (traces are core-independent), the same
        cell memo (sound: cell keys cover the core fingerprint) and the
        same result-lake gate.  Repeated requests for one core config
        return the same object, so its hit/miss counters accumulate
        across callers — unlike the pre-lake behaviour where every
        non-default core got a throwaway private engine that
        re-simulated everything.
        """
        if core_config is None:
            return self
        fingerprint = core_config.fingerprint()
        if fingerprint == self._core_fp:
            return self
        engine = self._variants.get(fingerprint)
        if engine is None:
            engine = SweepEngine(
                simulator=Simulator(
                    core_config,
                    trace_store=self.simulator.trace_store,
                ),
                sampling=self.sampling,
                result_lake=self.result_lake,
            )
            engine._cells = self._cells
            engine.simulator._trace_cache = self.simulator._trace_cache
            self._variants[fingerprint] = engine
        return engine

    def lake_enabled(self) -> bool:
        """Whether cell lookups consult (and misses populate) the lake."""
        if self.simulator.trace_store is None:
            return False
        if self.result_lake is not None:
            return self.result_lake
        return api_env.result_lake_from_env()

    # ------------------------------------------------------------------

    def _resolve_sampling(
        self, sampling: SamplingConfig | None
    ) -> SamplingConfig:
        if sampling is not None:
            return sampling
        if self.sampling is not None:
            return self.sampling
        return api_env.sampling_from_env()

    def _key(
        self, benchmark: str, mechanism: MechanismConfig, seed: int,
        warmup: int | None, measure: int | None,
        sampling: SamplingConfig,
    ) -> CellKey:
        if warmup is None or measure is None:
            default_warmup, default_measure = api_env.window_from_env()
            warmup = default_warmup if warmup is None else warmup
            measure = default_measure if measure is None else measure
        return (
            benchmark, seed, warmup, measure,
            mechanism_fingerprint(mechanism),
            sampling.fingerprint(),
            self._core_fp,
        )

    def cell_token(
        self, mechanism: MechanismConfig, warmup: int, measure: int,
        sampling: SamplingConfig,
    ) -> str:
        """Everything beyond (benchmark, seed) a lake cell depends on.

        The complete fingerprint: resolved window, sampling fingerprint,
        mechanism fingerprint (name-free), core-config fingerprint,
        workload-code and model-code versions and the cell format — a
        cell written under any other configuration, or by any other
        timing-model code, hashes to a different file name and can never
        be served.

        Public because the cluster coordinator recomputes tokens locally
        to verify lake entries a remote host published (a host cannot
        make the coordinator file a cell under a key of the host's
        choosing).
        """
        return "\x00".join((
            str(warmup), str(measure), sampling.fingerprint(),
            mechanism.fingerprint(), self._core_fp,
            workload_code_version(), model_code_version(),
            f"cell{CELL_FORMAT}",
        ))

    def _cell_meta(
        self, mechanism: MechanismConfig, warmup: int, measure: int,
        sampling: SamplingConfig,
    ) -> dict:
        """The informational meta block lake cells carry (queryable by
        ``repro report --lake``; never part of the self-digest)."""
        return {
            "mechanism": mechanism.name,
            "warmup": warmup,
            "measure": measure,
            "sampling": sampling.fingerprint(),
            "core": hashlib.sha256(
                self._core_fp.encode()
            ).hexdigest()[:12],
            "workload_version": workload_code_version(),
        }

    def lake_entry(
        self, result: SimulationResult, mechanism: MechanismConfig,
        warmup: int, measure: int, sampling: SamplingConfig,
    ) -> dict:
        """One cell as a portable lake-entry payload.

        What a cluster host ships back beside its shard artifact so the
        coordinator's lake goes warm: the exact (benchmark, seed, token,
        stats, meta) tuple :meth:`_lake_store` would write locally.  The
        coordinator re-verifies token and stats against the
        digest-verified shard result before filing it.
        """
        return {
            "benchmark": result.benchmark,
            "seed": result.seed,
            "token": self.cell_token(mechanism, warmup, measure, sampling),
            "stats": dataclasses.asdict(result.stats),
            "meta": self._cell_meta(mechanism, warmup, measure, sampling),
        }

    def _lake_load(
        self, benchmark: str, mechanism: MechanismConfig, seed: int,
        token: str,
    ) -> SimulationResult | None:
        """One cell from the lake, or ``None`` on any miss.

        The store validates payload shape and self-digest; the stats
        schema is checked here against this build's ``Stats`` fields, so
        an entry from a build with a different schema is a miss that the
        fresh simulation overwrites.
        """
        payload = self.simulator.trace_store.load_cell(
            benchmark, seed, token, fields=_STATS_FIELDS
        )
        if payload is None:
            return None
        stats = Stats(**payload["stats"])
        stats.extra = dict(stats.extra)
        return SimulationResult(benchmark, mechanism.name, seed, stats)

    def run_cell(
        self,
        benchmark: str,
        mechanism: MechanismConfig,
        seed: int = 1,
        warmup: int | None = None,
        measure: int | None = None,
        sampling: SamplingConfig | None = None,
    ) -> SimulationResult:
        """Simulate (or recall) one cell; returns a private result copy.

        Lookup order: in-memory memo, then (when the lake is enabled)
        the on-disk result lake, then simulation — which also populates
        the lake, so any process that has ever run this cell serves it
        from disk from then on.
        """
        sampling = self._resolve_sampling(sampling)
        if warmup is None or measure is None:
            default_warmup, default_measure = api_env.window_from_env()
            warmup = default_warmup if warmup is None else warmup
            measure = default_measure if measure is None else measure
        key = self._key(benchmark, mechanism, seed, warmup, measure, sampling)
        cached = self._cells.get(key)
        if cached is not None:
            self.cell_hits += 1
            obs_tracer().event(
                "sweep.cell.memo", benchmark=benchmark,
                mechanism=mechanism.name, seed=seed,
            )
            return _copy_result(cached, benchmark, mechanism.name, seed)
        lake = self.lake_enabled()
        token = ""
        if lake:
            token = self.cell_token(mechanism, warmup, measure, sampling)
            result = self._lake_load(benchmark, mechanism, seed, token)
            if result is not None:
                self.lake_hits += 1
                obs_tracer().event(
                    "sweep.cell.lake", benchmark=benchmark,
                    mechanism=mechanism.name, seed=seed,
                )
                self._cells[key] = result
                return _copy_result(result, benchmark, mechanism.name, seed)
            self.lake_misses += 1
        self.cell_misses += 1
        with obs_tracer().span(
            "sweep.cell", benchmark=benchmark, mechanism=mechanism.name,
            seed=seed,
        ):
            result = self.simulator.run_benchmark(
                benchmark, mechanism, warmup=warmup, measure=measure,
                seed=seed, sampling=sampling,
            )
        self._cells[key] = result
        if lake:
            self._lake_store(
                result, benchmark, mechanism, seed, warmup, measure,
                sampling, token,
            )
        return _copy_result(result, benchmark, mechanism.name, seed)

    def _lake_store(
        self, result: SimulationResult, benchmark: str,
        mechanism: MechanismConfig, seed: int, warmup: int, measure: int,
        sampling: SamplingConfig, token: str,
    ) -> None:
        """Write one freshly simulated cell into the lake (best-effort)."""
        written = self.simulator.trace_store.save_cell(
            dataclasses.asdict(result.stats), benchmark, seed, token,
            meta=self._cell_meta(mechanism, warmup, measure, sampling),
        )
        if written is not None:
            self.lake_writes += 1
            obs_tracer().event(
                "sweep.cell.lake_write", benchmark=benchmark,
                mechanism=mechanism.name, seed=seed,
            )

    def sweep(
        self,
        benchmarks: list[str],
        mechanisms: list[MechanismConfig],
        seeds: list[int] | None = None,
        warmup: int | None = None,
        measure: int | None = None,
        sampling: SamplingConfig | None = None,
    ) -> dict[tuple[str, str], list[SimulationResult]]:
        """Run every benchmark × mechanism × seed cell, in grid order.

        Returns ``{(benchmark, mechanism name): [result per seed]}``;
        memoised cells are recalled, the rest simulated (or lake-served)
        by :meth:`run_cell`.
        """
        seeds = seeds or [1]
        sampling = self._resolve_sampling(sampling)
        return {
            (benchmark, mechanism.name): [
                self.run_cell(
                    benchmark, mechanism, seed, warmup, measure, sampling
                )
                for seed in seeds
            ]
            for benchmark in benchmarks
            for mechanism in mechanisms
        }

    def memoised(
        self, benchmark: str, mechanism: MechanismConfig, seed: int,
        warmup: int, measure: int, sampling: SamplingConfig,
    ) -> bool:
        """Whether :meth:`run_cell` would recall this cell from memory."""
        return self._key(
            benchmark, mechanism, seed, warmup, measure, sampling
        ) in self._cells

    def remember(
        self, result: SimulationResult, mechanism: MechanismConfig,
        warmup: int, measure: int, sampling: SamplingConfig,
    ) -> None:
        """File a cell simulated elsewhere (a shard worker) in the memo.

        Cells are deterministic, so a digest-verified result from another
        process is exactly what :meth:`run_cell` would compute; a later
        sweep in this process recalls it instead of re-simulating.  The
        hit/miss counters are untouched: nothing ran here.
        """
        key = self._key(
            result.benchmark, mechanism, result.seed, warmup, measure,
            sampling,
        )
        self._cells.setdefault(key, _copy_result(
            result, result.benchmark, result.mechanism, result.seed
        ))


# ---------------------------------------------------------------------------
# Shared default engine
# ---------------------------------------------------------------------------

_shared: SweepEngine | None = None


def shared_engine(core_config: CoreConfig | None = None) -> SweepEngine:
    """The process-wide engine for sweeps of any core configuration.

    Scripts running in one process (e.g. every figure bench of a pytest
    session) share its trace and cell memos.  Cell keys cover the
    core-config fingerprint, so a non-default core no longer gets a
    throwaway private engine that re-simulates everything: it gets the
    shared engine's :meth:`~SweepEngine.variant`, sharing the trace
    store, the in-memory trace cache and the (now sound) cell memo.
    """
    global _shared
    if _shared is None:
        _shared = SweepEngine()
    return _shared.variant(core_config)


def reset_shared_engine() -> None:
    """Drop the process-wide engine (tests use this for isolation)."""
    global _shared
    _shared = None


# ---------------------------------------------------------------------------
# CI smoke gate
# ---------------------------------------------------------------------------


def _smoke_sampled(benchmarks, mechanisms, kwargs) -> int:
    """Sampled-mode gates, run against a private temporary store.

    Checks, in order: the degenerate 100%-duty configuration shares the
    plain cell (bit-identical by construction, fingerprint-folded); an
    active sampled sweep is deterministic cold == memoised == restored
    from its own µarch checkpoints; its fields are populated; and its
    IPC lands within a loose sanity band of the full-detail result.
    """
    import tempfile

    from repro.workloads.store import TraceStore

    degenerate = SamplingConfig(enabled=True, detail_ratio=1.0)
    active = SamplingConfig(
        enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128
    )
    with tempfile.TemporaryDirectory(prefix="repro-smoke-sampled-") as root:
        engine = SweepEngine(simulator=Simulator(trace_store=TraceStore(root)))
        full = engine.sweep(benchmarks, mechanisms, **kwargs)
        degen = engine.sweep(
            benchmarks, mechanisms, sampling=degenerate, **kwargs
        )
        for key in full:
            for a, b in zip(full[key], degen[key]):
                if dataclasses.asdict(a.stats) != dataclasses.asdict(b.stats):
                    print(f"sampled smoke: degenerate diverged for {key}")
                    return 1
        cold = engine.sweep(benchmarks, mechanisms, sampling=active, **kwargs)
        memo = engine.sweep(benchmarks, mechanisms, sampling=active, **kwargs)
        # A fresh engine on the same store restores the µarch checkpoints
        # the cold sweep captured; results must not change.
        warm_engine = SweepEngine(
            simulator=Simulator(trace_store=TraceStore(root))
        )
        warm = warm_engine.sweep(
            benchmarks, mechanisms, sampling=active, **kwargs
        )
        if warm_engine.simulator.trace_store.checkpoint_hits == 0:
            print("sampled smoke: no checkpoint was restored")
            return 1
        for key in cold:
            for a, b, c in zip(cold[key], memo[key], warm[key]):
                if not (
                    dataclasses.asdict(a.stats)
                    == dataclasses.asdict(b.stats)
                    == dataclasses.asdict(c.stats)
                ):
                    print(f"sampled smoke: stats diverged for {key}")
                    return 1
                stats = a.stats
                if not (stats.warmed > 0 and stats.intervals > 0
                        and stats.sampled_window > 0):
                    print(f"sampled smoke: sampling fields unset for {key}")
                    return 1
                reference = full[key][0].ipc
                if reference > 0 and abs(
                    stats.ipc - reference
                ) / reference > 0.35:
                    print(
                        f"sampled smoke: IPC off by more than 35% for {key} "
                        f"(sampled {stats.ipc:.3f} vs full {reference:.3f})"
                    )
                    return 1
    print("sampled smoke: degenerate bit-identical, sampled cold == "
          f"memoised == checkpoint-restored ({len(cold)} cells)")
    return 0


def _smoke(sampled: bool = False) -> int:
    """Fail (non-zero) unless memoised and store-warmed sweeps agree."""
    import tempfile

    from repro.workloads.store import TraceStore

    benchmarks = ["mcf", "dealII"]
    mechanisms = [
        MechanismConfig.baseline(), MechanismConfig.rsep_realistic()
    ]
    kwargs = dict(seeds=[1], warmup=512, measure=2000)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-store-") as root:
        store = TraceStore(root)
        cold_engine = SweepEngine(simulator=Simulator(trace_store=store))
        cold = cold_engine.sweep(benchmarks, mechanisms, **kwargs)
        memo = cold_engine.sweep(benchmarks, mechanisms, **kwargs)
        if cold_engine.cell_misses != len(benchmarks) * len(mechanisms):
            print("smoke: unexpected cell miss count "
                  f"({cold_engine.cell_misses})")
            return 1
        stored = list(store.root.glob("*.trace"))
        if len(stored) != len(benchmarks):
            print(f"smoke: store did not persist ({len(stored)} artifacts "
                  f"for {len(benchmarks)} benchmarks)")
            return 1

        warm_store = TraceStore(root)
        warm_engine = SweepEngine(simulator=Simulator(trace_store=warm_store))
        warm = warm_engine.sweep(benchmarks, mechanisms, **kwargs)
        if warm_store.hits != len(benchmarks):
            print(f"smoke: warm store missed (hits={warm_store.hits}, "
                  f"expected {len(benchmarks)})")
            return 1

        for key in cold:
            for a, b, c in zip(cold[key], memo[key], warm[key]):
                if not (
                    dataclasses.asdict(a.stats)
                    == dataclasses.asdict(b.stats)
                    == dataclasses.asdict(c.stats)
                ):
                    print(f"smoke: stats diverged for {key}")
                    return 1
    print("sweep smoke: cold == memoised == warm-store "
          f"({len(cold)} cells over {benchmarks})")
    if sampled:
        return _smoke_sampled(benchmarks, mechanisms, kwargs)
    return 0


def _lake_child(root: str, lake_flag: str) -> int:
    """Hidden entry point for the ``--lake`` gate.

    Runs the smoke grid in *this* process against the store at *root*
    with the result lake pinned on or off, then prints one
    machine-readable line (``digest=... simulated=... lake_hits=...
    lake_writes=...``) the parent gate compares across processes.
    """
    import json

    from repro.workloads.store import TraceStore

    benchmarks = ["mcf", "dealII"]
    mechanisms = [
        MechanismConfig.baseline(), MechanismConfig.rsep_realistic()
    ]
    engine = SweepEngine(
        simulator=Simulator(trace_store=TraceStore(root)),
        result_lake=(lake_flag == "on"),
    )
    results = engine.sweep(
        benchmarks, mechanisms, seeds=[1], warmup=512, measure=2000,
    )
    payload = {
        "|".join(key): [dataclasses.asdict(r.stats) for r in cell]
        for key, cell in sorted(results.items())
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]
    print(
        f"digest={digest} simulated={engine.cell_misses} "
        f"lake_hits={engine.lake_hits} lake_writes={engine.lake_writes}"
    )
    return 0


def _smoke_lake() -> int:
    """Incremental-sweep gate (ISSUE 9 / DESIGN.md §14).

    A cold child process populates the lake; a *fresh* child on the warm
    lake must simulate zero cells and produce a digest-identical
    artifact; a lake-off child on the same store must never touch the
    lake yet stay digest-identical — the `REPRO_RESULT_LAKE` off =
    today's behaviour guarantee.
    """
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def child(root: str, flag: str) -> dict | None:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness.sweep",
             "--lake-child", root, flag],
            capture_output=True, text=True, env=env,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"lake smoke: child ({flag}) failed:\n"
                  f"{proc.stdout}{proc.stderr}")
            return None
        line = proc.stdout.strip().splitlines()[-1]
        return dict(part.split("=", 1) for part in line.split())

    with tempfile.TemporaryDirectory(prefix="repro-smoke-lake-") as root:
        cold = child(root, "on")
        if cold is None:
            return 1
        if int(cold["simulated"]) == 0:
            print("lake smoke: cold run simulated nothing")
            return 1
        if int(cold["lake_writes"]) != int(cold["simulated"]):
            print("lake smoke: cold run did not lake every simulation "
                  f"(simulated={cold['simulated']}, "
                  f"writes={cold['lake_writes']})")
            return 1
        warm = child(root, "on")
        if warm is None:
            return 1
        if int(warm["simulated"]) != 0:
            print("lake smoke: warm fresh-process run re-simulated "
                  f"{warm['simulated']} cells")
            return 1
        if warm["digest"] != cold["digest"]:
            print("lake smoke: warm digest diverged "
                  f"({warm['digest']} != {cold['digest']})")
            return 1
        off = child(root, "off")
        if off is None:
            return 1
        if int(off["lake_hits"]) != 0 or int(off["lake_writes"]) != 0:
            print("lake smoke: lake-off run touched the lake "
                  f"(hits={off['lake_hits']}, writes={off['lake_writes']})")
            return 1
        if off["digest"] != cold["digest"]:
            print("lake smoke: lake-off digest diverged "
                  f"({off['digest']} != {cold['digest']})")
            return 1
    print("lake smoke: warm fresh-process re-run simulated 0 cells "
          f"(lake_hits={warm['lake_hits']}), digest-identical cold == "
          f"warm == lake-off ({cold['digest']})")
    return 0


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.sweep",
        description="Shared sweep engine utilities.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: verify memoised and warm-store sweeps are "
        "bit-identical to a cold sweep",
    )
    parser.add_argument(
        "--sampled", action="store_true",
        help="with --smoke: additionally gate the sampled-simulation "
        "subsystem (degenerate bit-identity, sampled determinism, "
        "checkpoint restore)",
    )
    parser.add_argument(
        "--lake", action="store_true",
        help="with --smoke: incremental-sweep gate — a fresh process on "
        "a warm result lake must simulate zero cells and emit a "
        "digest-identical artifact",
    )
    parser.add_argument(
        "--lake-child", nargs=2, metavar=("ROOT", "ON|OFF"),
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    if args.lake_child:
        return _lake_child(args.lake_child[0], args.lake_child[1])
    if args.smoke:
        status = _smoke(sampled=args.sampled)
        if status == 0 and args.lake:
            status = _smoke_lake()
        return status
    parser.print_help()
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
