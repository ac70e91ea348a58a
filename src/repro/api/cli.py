"""``repro`` — the single console front door.

Subcommands::

    repro sweep    run (or smoke-gate) a benchmark × mechanism sweep
    repro perf     simulated-KIPS throughput harness (+ CI smoke gate)
    repro figures  regenerate the paper's figures from declarative specs
    repro report   render a stored RunResult artifact
    repro inspect  artifact provenance / telemetry / event logs / env overlay
    repro profile  per-stage wall attribution (+ the obs overhead gate)
    repro tail     follow a live service's event stream (DESIGN.md §13)
    repro serve    sweep service on a local socket: spec JSON in, artifact out

Every run subcommand builds an :class:`~repro.api.spec.ExperimentSpec`
through the one environment overlay (explicit flag beats ``REPRO_*``
beats default) and executes it through a
:class:`~repro.api.session.Session`, so a CLI invocation, a bench and a
library call are the same experiment value — fingerprint and all.
Runs fan out in parallel with ``repro sweep --shards N`` or, for any
subcommand that runs a spec (``repro figures`` too), ``REPRO_SHARDS``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import env as api_env
from repro.api.figures import FIGURE_NAMES, render_figure, run_figure
from repro.api.result import RunResult
from repro.api.session import IncompleteRun, Session
from repro.api.spec import ExperimentSpec, StoreSpec, WindowSpec
from repro.harness.reporting import Table, format_ipc, harmonic_mean
from repro.pipeline.config import MECHANISM_PRESETS, MechanismConfig

PROG = "repro"


# ---------------------------------------------------------------------------
# Shared rendering
# ---------------------------------------------------------------------------


def _render_result(result: RunResult) -> str:
    """Benchmark × mechanism IPC table (speedup vs baseline when present)."""
    have_baseline = "baseline" in result.mechanism_names()
    headers = ["benchmark", "mechanism", "IPC"]
    if have_baseline:
        headers.append("vs baseline")
    table = Table(headers)
    for benchmark in result.benchmarks:
        for name in result.mechanism_names():
            try:
                outcome = result.outcome(benchmark, name)
            except KeyError:
                # A quarantined shard's hole in a partial sharded result.
                row = [benchmark, name, "(hole)"]
                if have_baseline:
                    row.append("-")
                table.add_row(*row)
                continue
            row = [benchmark, name, format_ipc(outcome.merged_stats[0])
                   if len(outcome.results) == 1 else f"{outcome.ipc:.3f}"]
            if have_baseline:
                speedup = "-"
                if name != "baseline":
                    try:
                        speedup = (
                            f"{100 * result.speedup(benchmark, name):+.1f}%"
                        )
                    except KeyError:
                        speedup = "(hole)"
                row.append(speedup)
            table.add_row(*row)
    return table.render()


def _spec_summary(spec: ExperimentSpec) -> str:
    sampling = spec.sampling
    return "\n".join([
        f"fingerprint : {spec.fingerprint()}",
        f"benchmarks  : {len(spec.benchmarks)} "
        f"({', '.join(spec.benchmarks[:6])}"
        + (", ..." if len(spec.benchmarks) > 6 else "") + ")",
        f"mechanisms  : {', '.join(spec.mechanism_names())}",
        f"seeds       : {list(spec.seeds)}",
        f"window      : warmup {spec.window.warmup}, "
        f"measure {spec.window.measure}",
        f"sampling    : " + (
            f"interval {sampling.interval}, detail {sampling.detail_ratio}, "
            f"ramp {sampling.detail_warmup}" if sampling.active else "off"
        ),
        f"store       : "
        + ("disabled" if not spec.store.enabled
           else (spec.store.path or "default cache"))
        + f", lake {'on' if spec.store.result_lake else 'off'}",
        f"shards      : {spec.shards if spec.shards > 1 else 'in-process'}",
        f"cells       : {spec.cells}",
    ])


def _mechanisms_from_args(names: list[str] | None):
    if not names:
        return None
    return [MechanismConfig.preset(name) for name in names]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _print_sharded_outcome(outcome) -> None:
    """The sharded/clustered fault story, shared by both sweep paths."""
    print(f"\n{outcome.mode} over {len(outcome.attempts)} shard(s), "
          f"{sum(outcome.attempts.values())} attempt(s)")
    for label, report in sorted(outcome.host_reports.items()):
        print(f"  host {label}: {report.get('status')}, "
              f"{report.get('dispatched', 0)} dispatch(es), "
              f"{report.get('failures', 0)} failure(s)"
              + (f" ({report['reason']})" if report.get("reason") else ""))
    for index, report in sorted(outcome.shard_reports.items()):
        if report.attempts <= 1 and not report.failure_kinds:
            continue
        kinds = ", ".join(report.failure_kinds) or "none"
        print(f"  shard {index}: {report.attempts} attempt(s), "
              f"failures [{kinds}], "
              f"backoff {report.backoff_seconds:.2f}s"
              + (", QUARANTINED" if report.quarantined else ""))
    for line in outcome.failures:
        print(f"  fault survived: {line}", file=sys.stderr)


def _cmd_sweep(args) -> int:
    if args.smoke:
        ignored = [
            flag for flag, value in (
                ("--benchmark", args.benchmarks),
                ("--mechanism", args.mechanisms),
                ("--seeds", args.seeds), ("--warmup", args.warmup),
                ("--measure", args.measure),
                ("--json", args.json),
            ) if value is not None
        ]
        if ignored:
            print("repro sweep --smoke runs a fixed gate; it cannot take "
                  f"{', '.join(ignored)}", file=sys.stderr)
            return 2
        if args.hosts is not None:
            # The loopback-cluster gate: two real `repro serve --tcp`
            # children, an injected host crash and a corrupt artifact,
            # and the merge must still be digest-identical in-process.
            if args.hosts != "loopback":
                print("repro sweep --smoke --hosts runs the loopback "
                      "cluster gate; the only accepted value is "
                      "'loopback'", file=sys.stderr)
                return 2
            from repro.cluster.smoke import cluster_smoke

            return cluster_smoke()
        if args.shards is not None:
            # The sharded-service gate: a fault-injected sharded run
            # (REPRO_FAULTS) must merge digest-identical to in-process.
            from repro.service.smoke import sharded_smoke

            return sharded_smoke(shards=args.shards)
        from repro.harness import sweep as sweep_module

        smoke_args = (
            ["--smoke"]
            + (["--sampled"] if args.sampled else [])
            + (["--lake"] if args.lake else [])
        )
        return sweep_module.main(smoke_args)
    sampling = None
    store = None
    from dataclasses import replace

    if args.sampled:
        sampling = replace(api_env.sampling_from_env(), enabled=True)
    if args.lake:
        store = replace(StoreSpec.from_env(), result_lake=True)
    try:
        spec = ExperimentSpec.from_env(
            benchmarks=args.benchmarks,
            mechanisms=_mechanisms_from_args(args.mechanisms),
            seeds=list(range(1, args.seeds + 1)) if args.seeds else None,
            warmup=args.warmup,
            measure=args.measure,
            sampling=sampling,
            store=store,
            shards=args.shards,
        )
    except (TypeError, ValueError) as error:
        print(f"repro sweep: {error}", file=sys.stderr)
        return 2
    print(_spec_summary(spec))
    session = Session.for_spec(spec)
    holes = ()
    if args.hosts is not None:
        try:
            outcome = session.run_clustered(spec, hosts=args.hosts)
        except ValueError as error:
            print(f"repro sweep: {error}", file=sys.stderr)
            return 2
        result, holes = outcome.result, outcome.holes
        _print_sharded_outcome(outcome)
    elif spec.shards > 1:
        outcome = session.run_sharded(spec)
        result, holes = outcome.result, outcome.holes
        _print_sharded_outcome(outcome)
    else:
        result = session.run(spec)
    print()
    print(_render_result(result))
    if holes:
        print(f"\nPARTIAL RESULT: {len(holes)} cell(s) lost to "
              "quarantined shards:", file=sys.stderr)
        for benchmark, mechanism, seed in holes:
            print(f"  hole: {benchmark} × {mechanism} × seed {seed}",
                  file=sys.stderr)
    if args.json:
        result.save(args.json)
        print(f"\nwrote {args.json} (digest {result.digest()})")
    return 1 if holes else 0


def _cmd_perf(args, passthrough: list[str]) -> int:
    from repro.harness.perf import main as perf_main, throughput_smoke

    if args.smoke:
        if passthrough:
            print("repro perf --smoke runs the fixed regression gate; it "
                  f"cannot take {' '.join(passthrough)}", file=sys.stderr)
            return 2
        return throughput_smoke(args.json or "BENCH_perf.json",
                                repeats=args.repeats)
    return perf_main(passthrough)


def _cmd_figures(args) -> int:
    names = args.figures or list(FIGURE_NAMES)
    unknown = [name for name in names if name not in FIGURE_NAMES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)} "
              f"(choose from {', '.join(FIGURE_NAMES)})", file=sys.stderr)
        return 2
    if args.benchmarks:
        from repro.workloads.spec2006 import benchmark_names

        bad = [b for b in args.benchmarks if b not in benchmark_names()]
        if bad:
            print(f"unknown benchmark(s): {', '.join(bad)}",
                  file=sys.stderr)
            return 2
    window = None
    if args.warmup is not None or args.measure is not None:
        base = WindowSpec.from_env()
        window = WindowSpec(
            warmup=base.warmup if args.warmup is None else args.warmup,
            measure=base.measure if args.measure is None else args.measure,
        )
    session = Session()
    for name in names:
        if name == "fig1":
            _, text = run_figure(
                "fig1", benchmarks=args.benchmarks, window=window,
            )
            print(text)
            if args.out:
                print("[fig1 is a functional analysis without a RunResult "
                      "artifact; nothing saved for it]")
            continue
        try:
            result, text = run_figure(
                name, session=session, benchmarks=args.benchmarks,
                window=window,
            )
        except (TypeError, ValueError) as error:
            print(f"repro figures: {error}", file=sys.stderr)
            return 2
        except IncompleteRun as error:
            print(f"repro figures: {name}: {error}", file=sys.stderr)
            return 1
        print(text)
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{name}.json"
            result.save(path)
            print(f"[wrote {path} (digest {result.digest()})]")
    return 0


def _lake_store_from_arg(path_arg: str):
    """Resolve a ``--lake [DIR]`` argument to a ``TraceStore``.

    An empty argument (bare ``--lake``) means the environment's store
    root; returns ``None`` when that resolves to persistence-disabled.
    """
    from repro.workloads.store import TraceStore

    if path_arg:
        return TraceStore(path_arg)
    root = api_env.store_root_from_env()
    return TraceStore(root) if root is not None else None


def _cell_ipc(payload: dict) -> float | None:
    stats = payload["stats"]
    cycles = stats.get("cycles")
    if not cycles:
        return None
    return stats.get("committed", 0) / cycles


def _report_lake(path_arg: str) -> int:
    """``repro report --lake``: query across every cached cell.

    Groups cells by (mechanism, window, sampling) configuration with
    harmonic-mean IPC per group, then renders the per-mechanism ×
    per-benchmark trend — the cross-run view no single ``RunResult``
    artifact has.
    """
    store = _lake_store_from_arg(path_arg)
    if store is None:
        print("repro report --lake: the trace store is disabled "
              "(REPRO_TRACE_STORE=off); pass --lake DIR", file=sys.stderr)
        return 2
    groups: dict[tuple, list] = {}
    total = unreadable = 0
    for _, payload in store.iter_cells():
        total += 1
        if payload is None:
            unreadable += 1
            continue
        meta = payload.get("meta") or {}
        key = (
            str(meta.get("mechanism", "?")),
            f"{meta.get('warmup', '?')}+{meta.get('measure', '?')}",
            str(meta.get("sampling", "?"))[:12],
        )
        groups.setdefault(key, []).append(payload)
    print(f"# result lake at {store.root}")
    print(f"{total} cell artifact(s), {unreadable} unreadable/tampered "
          "(these serve as misses and are overwritten on re-simulation)")
    if not groups:
        return 0
    table = Table(["mechanism", "window", "sampling", "cells",
                   "benchmarks", "hmean IPC"])
    for (mechanism, window, sampling), cells in sorted(groups.items()):
        ipcs = [ipc for ipc in map(_cell_ipc, cells) if ipc is not None]
        benchmarks = {str(c.get("benchmark", "?")) for c in cells}
        table.add_row(
            mechanism, window, sampling, str(len(cells)),
            str(len(benchmarks)),
            f"{harmonic_mean(ipcs):.3f}" if ipcs else "-",
        )
    print()
    print(table.render())
    by_mb: dict[tuple[str, str], list] = {}
    for (mechanism, _, _), cells in groups.items():
        for cell in cells:
            key = (mechanism, str(cell.get("benchmark", "?")))
            by_mb.setdefault(key, []).append(cell)
    trend = Table(["mechanism", "benchmark", "cells", "hmean IPC"])
    for (mechanism, benchmark), cells in sorted(by_mb.items()):
        ipcs = [ipc for ipc in map(_cell_ipc, cells) if ipc is not None]
        trend.add_row(
            mechanism, benchmark, str(len(cells)),
            f"{harmonic_mean(ipcs):.3f}" if ipcs else "-",
        )
    print()
    print(trend.render())
    return 0


def _cmd_report(args) -> int:
    if args.lake is not None:
        if args.artifacts or args.figure:
            print("repro report --lake queries the lake; it cannot take "
                  "artifacts or --figure", file=sys.stderr)
            return 2
        return _report_lake(args.lake)
    if not args.artifacts:
        print("repro report: give artifact path(s), or --lake [DIR] to "
              "query the result lake", file=sys.stderr)
        return 2
    status = 0
    for path in args.artifacts:
        try:
            result = RunResult.load(path)
        except (OSError, ValueError, KeyError) as error:
            print(f"{path}: unreadable artifact: {error}", file=sys.stderr)
            status = 1
            continue
        print(f"# {path}")
        print(f"fingerprint {result.fingerprint}  digest {result.digest()}  "
              f"format {result.format}")
        print(_render_result(result))
        if args.figure:
            try:
                print(render_figure(args.figure, result))
            except KeyError as error:
                print(f"{path}: cannot render as {args.figure}: the "
                      f"artifact has no cell for {error}", file=sys.stderr)
                status = 1
        print()
    return status


def _render_telemetry(payload: dict, detail: bool) -> str:
    """The artifact's ``telemetry`` section, summarised (or, with
    *detail*, including per-cell series heads)."""
    lines = [
        f"telemetry   : format {payload.get('format')}, "
        f"metrics every {payload.get('metrics_every')} committed, "
        f"events under {payload.get('events_dir')}"
    ]
    cells = payload.get("cells", [])
    lines.append(f"  metric cells: {len(cells)}")
    for cell in cells:
        samples = cell.get("samples", 0)
        lines.append(
            f"  {cell.get('benchmark')} × {cell.get('mechanism')} × seed "
            f"{cell.get('seed')}: {samples} sample(s)"
        )
        if detail and samples:
            series = cell.get("series", {})
            for name in ("total_committed", "cycles", "rob", "iq"):
                values = series.get(name)
                if not values:
                    continue
                head = ", ".join(str(v) for v in values[:8])
                more = ", ..." if len(values) > 8 else ""
                lines.append(f"    {name:<16}: [{head}{more}]")
    shards = payload.get("shards")
    if shards:
        lines.append(f"  shard reports: {len(shards)}")
        for index, report in sorted(shards.items()):
            kinds = ", ".join(report.get("failure_kinds", [])) or "none"
            lines.append(
                f"  shard {index}: {report.get('attempts')} attempt(s), "
                f"failures [{kinds}], backoff "
                f"{report.get('backoff_seconds', 0.0):.2f}s"
                + (", QUARANTINED" if report.get("quarantined") else "")
            )
    return "\n".join(lines)


def _inspect_events(path: str) -> int:
    """``repro inspect --events``: summarise one event JSONL file."""
    from repro.obs import format_record, read_events

    try:
        records, dropped = read_events(path)
    except OSError as error:
        print(f"{path}: unreadable event log: {error}", file=sys.stderr)
        return 1
    print(f"# {path}")
    by_name: dict[str, int] = {}
    for record in records:
        by_name[record["name"]] = by_name.get(record["name"], 0) + 1
    print(f"{len(records)} record(s), {dropped} dropped "
          "(torn tail / future format)")
    for name, count in sorted(by_name.items()):
        print(f"  {name:<24} × {count}")
    print()
    for record in records:
        print(format_record(record))
    return 0


def _inspect_lake(path_arg: str) -> int:
    """``repro inspect --lake``: lake provenance at a glance."""
    store = _lake_store_from_arg(path_arg)
    if store is None:
        print("repro inspect --lake: the trace store is disabled "
              "(REPRO_TRACE_STORE=off); pass --lake DIR", file=sys.stderr)
        return 2
    total = unreadable = 0
    benchmarks: set[str] = set()
    mechanisms: set[str] = set()
    versions: set[str] = set()
    for _, payload in store.iter_cells():
        total += 1
        if payload is None:
            unreadable += 1
            continue
        benchmarks.add(str(payload.get("benchmark", "?")))
        meta = payload.get("meta") or {}
        mechanisms.add(str(meta.get("mechanism", "?")))
        versions.add(str(meta.get("workload_version", "?")))

    def listing(values: set[str], limit: int = 8) -> str:
        ordered = sorted(values)
        tail = ", ..." if len(ordered) > limit else ""
        return f"{len(ordered)} ({', '.join(ordered[:limit])}{tail})"

    print(f"# result lake at {store.root}")
    print(f"cells       : {total} readable "
          f"{total - unreadable}, unreadable/tampered {unreadable}")
    if total - unreadable:
        print(f"benchmarks  : {listing(benchmarks)}")
        print(f"mechanisms  : {listing(mechanisms)}")
        print(f"versions    : {listing(versions)} (workload code)")
    return 0


def _cmd_inspect(args) -> int:
    if getattr(args, "lake", None) is not None:
        return _inspect_lake(args.lake)
    if getattr(args, "events", None):
        return _inspect_events(args.events)
    if args.artifact:
        try:
            result = RunResult.load(args.artifact)
        except (OSError, ValueError, KeyError) as error:
            # Lenient fallback: a future-format artifact should still
            # tell the operator *what it is* rather than fail opaquely.
            import json as _json

            from repro.api.result import KNOWN_SECTIONS

            try:
                payload = _json.loads(
                    Path(args.artifact).read_text(encoding="utf-8")
                )
            except (OSError, ValueError):
                payload = None
            print(f"{args.artifact}: unreadable artifact: {error}",
                  file=sys.stderr)
            if isinstance(payload, dict):
                print(f"# {args.artifact} (raw section listing)")
                for key in sorted(payload):
                    label = ("known" if key in KNOWN_SECTIONS
                             else "not understood by this build")
                    print(f"section {key:<12}: {label}")
            return 1
        print(f"# {args.artifact}")
        print(f"format      : {result.format}")
        print(f"digest      : {result.digest()}")
        print(_spec_summary(result.spec))
        for key, value in sorted(result.meta.items()):
            print(f"meta.{key:<12}: {value}")
        if result.telemetry is not None:
            print(_render_telemetry(result.telemetry,
                                    detail=bool(args.metrics)))
        elif args.metrics:
            print("telemetry   : none recorded (run with REPRO_OBS=1 "
                  "or ObsSpec(enabled=True))")
        for key in sorted(result.extra_sections):
            print(f"section {key:<12}: not understood by this build; "
                  "preserved verbatim and re-emitted on save")
        return 0
    if args.metrics:
        print("repro inspect --metrics needs an artifact path",
              file=sys.stderr)
        return 2
    # Environment mode: the resolved overlay plus the migration table.
    unknown = api_env.warn_unknown_vars()
    spec = ExperimentSpec.from_env()
    print("# environment overlay (explicit field beats env beats default)")
    print(_spec_summary(spec))
    print()
    import os

    table = Table(["variable", "set to", "spec field / consumer"])
    for name, (field_name, _) in sorted(api_env.KNOWN_VARS.items()):
        table.add_row(name, os.environ.get(name, "(unset)"), field_name)
    print(table.render())
    if unknown:
        print(f"\nWARNING: unrecognized REPRO_* variable(s): "
              f"{', '.join(unknown)}")
        return 1
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import (
        DEFAULT_BENCHMARKS,
        overhead_gate,
        phase_profile,
        render_gate,
        render_profile,
        write_json,
    )

    if args.gate:
        ok, report = overhead_gate(
            repeats=args.repeats, tolerance=args.tolerance,
        )
        print(render_gate(report))
        if args.json:
            write_json(report, args.json)
            print(f"wrote {args.json}")
        return 0 if ok else 1
    sampling = None
    if args.full_detail:
        from repro.sampling import SamplingConfig

        sampling = SamplingConfig(enabled=False)
    try:
        payload = phase_profile(
            benchmarks=tuple(args.benchmarks) if args.benchmarks
            else DEFAULT_BENCHMARKS,
            mechanism_name=args.mechanism,
            warmup=args.warmup,
            measure=args.measure,
            sampling=sampling,
        )
    except (KeyError, ValueError) as error:
        print(f"repro profile: {error}", file=sys.stderr)
        return 2
    print(render_profile(payload))
    if args.json:
        write_json(payload, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_tail(args) -> int:
    import os
    import time

    from repro.obs import decode_record, format_record
    from repro.obs.config import DEFAULT_OBS_DIR

    directory = Path(
        args.dir or os.environ.get("REPRO_OBS_DIR") or DEFAULT_OBS_DIR
    )
    offsets: dict[Path, int] = {}

    def drain() -> int:
        emitted = 0
        for path in sorted(directory.glob("events-*.jsonl")):
            start = offsets.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(start)
                    chunk = handle.read()
            except OSError:
                continue
            # Consume complete lines only: a live writer's in-flight
            # line stays buffered until its newline lands.
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            offsets[path] = start + end + 1
            for raw in chunk[:end].split(b"\n"):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    record = decode_record(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    continue
                print(format_record(record), flush=False)
                emitted += 1
        sys.stdout.flush()
        return emitted

    if not args.follow:
        if drain() == 0:
            print(f"(no events under {directory})")
        return 0
    print(f"repro tail: following {directory} (Ctrl-C to stop)",
          file=sys.stderr)
    try:
        while True:
            drain()
            time.sleep(args.poll)
    except KeyboardInterrupt:
        return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service.server import SweepServer
    from repro.service.supervisor import ShardSupervisor

    tcp = None
    if args.tcp is not None:
        from repro.cluster.hosts import HostSpec

        try:
            tcp = HostSpec.parse(args.tcp).address
        except ValueError as error:
            print(f"repro serve: {error}", file=sys.stderr)
            return 2
    supervisor = ShardSupervisor(deadline=args.timeout)
    server = SweepServer(
        None if args.tcp is not None and args.no_socket else args.socket,
        supervisor=supervisor, shards=args.shards, tcp=tcp,
    )

    async def _serve() -> None:
        task = asyncio.ensure_future(server.serve(once=args.once))
        await server.wait_started()
        # The tcp= line is machine-readable on purpose: with port 0 it
        # is how a parent (the loopback cluster smoke) learns the real
        # ephemeral port.
        if server.bound_address is not None:
            host, port = server.bound_address
            print(f"repro serve: tcp={host}:{port}", flush=True)
        if server.socket_path is not None:
            print(f"repro serve: listening on {server.socket_path}",
                  flush=True)
        await task

    shards_note = args.shards if args.shards is not None else "per spec"
    print(f"repro serve: starting (shards default: {shards_note})",
          flush=True)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    print(f"repro serve: {server.requests_served} request(s) served")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Reproduction front door: typed experiment specs, "
        "one CLI, versioned result artifacts.",
    )
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser(
        "sweep", help="run (or smoke-gate) a benchmark × mechanism sweep"
    )
    sweep.add_argument("--smoke", action="store_true",
                       help="CI gate: cold == memoised == warm-store")
    sweep.add_argument("--sampled", action="store_true",
                       help="run interval-sampled (REPRO_INTERVAL and "
                       "friends); with --smoke: also gate sampled "
                       "simulation")
    sweep.add_argument("--lake", action="store_true",
                       help="serve cells from (and populate) the "
                       "spec-level result lake in the trace store; with "
                       "--smoke: run the incremental-sweep gate (a fresh "
                       "process on a warm lake must simulate zero cells)")
    sweep.add_argument("--benchmark", action="append", dest="benchmarks",
                       metavar="NAME",
                       help="benchmark (repeatable; default: the "
                       "representative mix, all 29 with REPRO_FULL)")
    sweep.add_argument("--mechanism", action="append", dest="mechanisms",
                       metavar="NAME", choices=sorted(MECHANISM_PRESETS),
                       help="mechanism preset (repeatable; default: "
                       "baseline and rsep-realistic)")
    sweep.add_argument("--seeds", type=int, default=None,
                       help="checkpoints per benchmark (default: "
                       "REPRO_SEEDS)")
    sweep.add_argument("--warmup", type=int, default=None,
                       help="warm-up instructions (default: REPRO_WARMUP)")
    sweep.add_argument("--measure", type=int, default=None,
                       help="measured instructions (default: REPRO_MEASURE)")
    sweep.add_argument("--shards", type=int, default=None,
                       help="fault-tolerant sharded service shard count "
                       "(default: REPRO_SHARDS; 0/1 = in-process); with "
                       "--smoke: run the fault-injected sharded gate")
    sweep.add_argument("--hosts", metavar="LIST", default=None,
                       help="run clustered across remote `repro serve "
                       "--tcp` hosts, e.g. a:9091,b:9091 (default: "
                       "REPRO_HOSTS); with --smoke: 'loopback' runs the "
                       "loopback-cluster gate")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the RunResult artifact to PATH")

    perf = sub.add_parser(
        "perf", help="simulated-KIPS throughput harness (+ CI smoke gate)",
        add_help=False,
    )
    perf.add_argument("--smoke", action="store_true",
                      help="CI gate: fail on >30%% KIPS regression against "
                      "the recorded BENCH_perf.json")
    perf.add_argument("--repeats", type=int, default=3)
    perf.add_argument("--json", metavar="PATH", default=None,
                      help="with --smoke: the recorded BENCH_perf.json "
                      "(default ./BENCH_perf.json)")

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures"
    )
    figures.add_argument("figures", nargs="*", metavar="FIGURE",
                         help=f"which figures ({', '.join(FIGURE_NAMES)}; "
                         "default: all)")
    figures.add_argument("--benchmark", action="append", dest="benchmarks",
                         metavar="NAME",
                         help="benchmark subset (repeatable)")
    figures.add_argument("--warmup", type=int, default=None)
    figures.add_argument("--measure", type=int, default=None)
    figures.add_argument("--out", metavar="DIR", default=None,
                         help="also save one RunResult artifact per figure")

    report = sub.add_parser(
        "report", help="render stored RunResult artifacts"
    )
    report.add_argument("artifacts", nargs="*", metavar="ARTIFACT")
    report.add_argument("--figure", choices=sorted(
        name for name in FIGURE_NAMES if name != "fig1"
    ), default=None, help="additionally render with a figure formatter")
    report.add_argument("--lake", nargs="?", const="", default=None,
                        metavar="DIR",
                        help="query across the result lake's cached "
                        "cells instead of an artifact (DIR defaults to "
                        "the environment's store root)")

    inspect = sub.add_parser(
        "inspect", help="artifact provenance/telemetry, an event log, "
        "or the environment overlay"
    )
    inspect.add_argument("artifact", nargs="?", default=None,
                         metavar="ARTIFACT",
                         help="artifact to inspect (default: show the "
                         "resolved environment overlay)")
    inspect.add_argument("--events", metavar="PATH", default=None,
                         help="summarise and render an obs event log "
                         "(events-<pid>.jsonl) instead of an artifact")
    inspect.add_argument("--metrics", action="store_true",
                         help="with an artifact: render the telemetry "
                         "section's per-cell metric series heads")
    inspect.add_argument("--lake", nargs="?", const="", default=None,
                         metavar="DIR",
                         help="summarise the result lake (entry counts, "
                         "benchmarks, mechanisms, workload versions; DIR "
                         "defaults to the environment's store root)")

    profile = sub.add_parser(
        "profile", help="per-stage wall attribution (+ the obs overhead "
        "gate)"
    )
    profile.add_argument("--benchmark", action="append", dest="benchmarks",
                         metavar="NAME",
                         help="benchmark to profile (repeatable; "
                         "default: mcf, bzip2)")
    profile.add_argument("--mechanism", default="rsep-realistic",
                         choices=sorted(MECHANISM_PRESETS))
    profile.add_argument("--warmup", type=int, default=None,
                         help="warm-up instructions (default: REPRO_WARMUP)")
    profile.add_argument("--measure", type=int, default=None,
                         help="measured instructions (default: "
                         "REPRO_MEASURE)")
    profile.add_argument("--full-detail", action="store_true",
                         help="profile a full-detail run instead of a "
                         "sampled one (no warm phase)")
    profile.add_argument("--gate", action="store_true",
                         help="CI overhead gate: obs on must be "
                         "bit-identical and within --tolerance of obs off")
    profile.add_argument("--tolerance", type=float, default=0.05,
                         help="with --gate: allowed KIPS overhead "
                         "fraction (default: 0.05)")
    profile.add_argument("--repeats", type=int, default=3,
                         help="with --gate: interleaved A/B repeats "
                         "(default: 3)")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the payload as JSON")

    tail = sub.add_parser(
        "tail", help="render (and optionally follow) the obs event "
        "stream of a live or finished run"
    )
    tail.add_argument("--dir", metavar="DIR", default=None,
                      help="event directory (default: REPRO_OBS_DIR, "
                      "then .repro-obs)")
    tail.add_argument("--follow", "-f", action="store_true",
                      help="keep polling for new records until Ctrl-C")
    tail.add_argument("--poll", type=float, default=0.5,
                      help="with --follow: poll interval in seconds "
                      "(default: 0.5)")

    serve = sub.add_parser(
        "serve", help="sweep service on a local Unix socket and/or TCP "
        "(spec or shard JSON in, digest-verified payload out)"
    )
    serve.add_argument("--socket", metavar="PATH", default="repro.sock",
                       help="Unix socket path to listen on "
                       "(default: ./repro.sock)")
    serve.add_argument("--tcp", metavar="HOST:PORT", default=None,
                       help="additionally listen on TCP (port 0 binds an "
                       "ephemeral port, announced as 'tcp=HOST:PORT'); "
                       "this is what `repro sweep --hosts` dials")
    serve.add_argument("--no-socket", action="store_true",
                       help="with --tcp: TCP only, no Unix socket file")
    serve.add_argument("--shards", type=int, default=None,
                       help="server-side default shard count (a request's "
                       "explicit value wins; default: each spec's own)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-shard deadline in seconds "
                       "(default: REPRO_SHARD_TIMEOUT)")
    serve.add_argument("--once", action="store_true",
                       help="serve a single request, then exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # `repro perf` forwards unknown flags to the measurement harness
    # (repro.harness.perf) so the full flag surface stays in one place.
    if argv and argv[0] == "perf" and "--smoke" not in argv:
        from repro.harness.perf import main as perf_main

        return perf_main(argv[1:])
    parser = build_parser()
    args, passthrough = parser.parse_known_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if passthrough and args.command != "perf":
        parser.error(f"unrecognized arguments: {' '.join(passthrough)}")
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "perf":
        return _cmd_perf(args, passthrough)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "tail":
        return _cmd_tail(args)
    if args.command == "serve":
        return _cmd_serve(args)
    return _cmd_inspect(args)


if __name__ == "__main__":
    raise SystemExit(main())
