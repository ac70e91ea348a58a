"""The single place ``REPRO_*`` environment variables are read.

Before this module, window sizes, seed counts, sampling parameters,
store roots and the columnar switch were each parsed independently in
whichever module happened to need them (DESIGN.md §10).  Every one of
those reads now funnels through the typed helpers below, and
:func:`warn_unknown_vars` is the typo guard that tells you
``REPRO_MESURE=40000`` (or a retired variable) did nothing.

Only the standard library is imported at module level so this module is
importable from anywhere in the package (including the modules the rest
of :mod:`repro.api` is built on) without cycles.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

#: Every recognised ``REPRO_*`` variable -> (spec field / consumer, meaning).
#: This table *is* the migration map rendered by ``repro inspect --env``
#: and the README; keep it exhaustive or the typo guard cries wolf.
KNOWN_VARS: dict[str, tuple[str, str]] = {
    "REPRO_WARMUP": (
        "ExperimentSpec.window.warmup", "warm-up instructions (default 8000)"
    ),
    "REPRO_MEASURE": (
        "ExperimentSpec.window.measure",
        "measured instructions (default 20000)",
    ),
    "REPRO_SCALE": (
        "ExperimentSpec.window (folded in)",
        "multiplier applied to both windows (default 1.0)",
    ),
    "REPRO_SEEDS": (
        "ExperimentSpec.seeds", "checkpoints per benchmark (default 1)"
    ),
    "REPRO_SAMPLING": (
        "ExperimentSpec.sampling.enabled", "enable interval sampling"
    ),
    "REPRO_INTERVAL": (
        "ExperimentSpec.sampling.interval",
        "instructions per sampling interval (default 18500)",
    ),
    "REPRO_DETAIL_RATIO": (
        "ExperimentSpec.sampling.detail_ratio",
        "measured fraction of each interval (default 0.0811)",
    ),
    "REPRO_DETAIL_WARMUP": (
        "ExperimentSpec.sampling.detail_warmup",
        "detailed ramp before each measured span (default 768)",
    ),
    "REPRO_TRACE_STORE": (
        "ExperimentSpec.store.path",
        "trace/checkpoint store root ('off' disables)",
    ),
    "REPRO_RESULT_LAKE": (
        "ExperimentSpec.store.result_lake",
        "spec-level result lake: serve cells from the store (default off)",
    ),
    "REPRO_SHARDS": (
        "ExperimentSpec.shards",
        "sharded sweep shard count (0 = in-process, default 0)",
    ),
    "REPRO_FAULTS": (
        "service.ShardSupervisor fault plan",
        "deterministic shard fault injection, e.g. 'crash:0,corrupt:1'",
    ),
    "REPRO_SHARD_TIMEOUT": (
        "service.ShardSupervisor deadline",
        "per-shard wall-clock deadline in seconds (default 120)",
    ),
    "REPRO_HOSTS": (
        "cluster.HostPool hosts",
        "remote sweep hosts, e.g. 'a:9091,b:9091' (default none)",
    ),
    "REPRO_CONNECT_TIMEOUT": (
        "cluster client dial deadline",
        "per-dial connect timeout in seconds (default 5)",
    ),
    "REPRO_FULL": (
        "ExperimentSpec.benchmarks (from_env default)",
        "benches/CLI: all 29 benchmarks instead of the representative 13",
    ),
    "REPRO_OBS": (
        "ExperimentSpec.obs.enabled",
        "telemetry plane: span/event tracing + pipeline metrics "
        "(default off; off = bit-identical, overhead-free)",
    ),
    "REPRO_OBS_DIR": (
        "ExperimentSpec.obs.dir",
        "event-stream directory (default .repro-obs)",
    ),
    "REPRO_METRICS_EVERY": (
        "ExperimentSpec.obs.metrics_every",
        "pipeline-metrics sample cadence in committed instructions "
        "(default 1000; 0 = tracing only)",
    ),
    "REPRO_PERF_LABEL": (
        "bench_perf_throughput CURRENT_LABEL",
        "ad-hoc trajectory label override",
    ),
}

#: Values that mean "off" wherever a variable acts as a switch.
OFF_VALUES = ("", "0", "off", "no", "none", "false", "disabled")

# Unknown names already warned about (warn once per name per process).
_warned_unknown: set[str] = set()


class UnknownReproVariable(UserWarning):
    """An environment variable looks like ours but is not recognised."""


def flag(value: str | None, default: bool = False) -> bool:
    """Interpret a switch-style variable value (``None`` = unset)."""
    if value is None:
        return default
    return value.strip().lower() not in OFF_VALUES


def warn_unknown_vars(
    environ: dict[str, str] | None = None, strict: bool = False
) -> list[str]:
    """The typo guard: flag ``REPRO_*`` names nothing reads.

    Returns the unknown names found; warns (:class:`UnknownReproVariable`,
    once per name per process) or raises with ``strict=True``.  Called by
    :meth:`ExperimentSpec.from_env` and the ``repro`` CLI so a
    misspelled variable can never silently configure nothing.
    """
    environ = os.environ if environ is None else environ
    unknown = sorted(
        name for name in environ
        if name.startswith("REPRO_") and name not in KNOWN_VARS
    )
    if unknown and strict:
        raise ValueError(
            f"unrecognized REPRO_* variable(s): {', '.join(unknown)}; "
            f"known names: {', '.join(sorted(KNOWN_VARS))}"
        )
    for name in unknown:
        if name in _warned_unknown:
            continue
        _warned_unknown.add(name)
        warnings.warn(
            f"environment variable {name} is not recognized and has no "
            f"effect (known REPRO_* names: {', '.join(sorted(KNOWN_VARS))})",
            UnknownReproVariable,
            stacklevel=2,
        )
    return unknown


# ---------------------------------------------------------------------------
# Typed readers (one per spec field group)
# ---------------------------------------------------------------------------


def window_from_env(
    default_warmup: int = 8000, default_measure: int = 20000
) -> tuple[int, int]:
    """(warmup, measure) instruction counts after ``REPRO_SCALE``.

    The defaults are overridable because the figure benches historically
    default to a slightly larger measured window (24000) than the
    library (20000); both read the same variables.
    """
    scale = float(os.environ.get("REPRO_SCALE", "1.0"))
    warmup = int(os.environ.get("REPRO_WARMUP", str(default_warmup)))
    measure = int(os.environ.get("REPRO_MEASURE", str(default_measure)))
    return max(256, int(warmup * scale)), max(512, int(measure * scale))


def seeds_from_env() -> list[int]:
    """Checkpoint seeds (paper: 10 checkpoints; default here: 1)."""
    return list(range(1, int(os.environ.get("REPRO_SEEDS", "1")) + 1))


def shards_from_env() -> int:
    """Sharded-sweep shard count: ``REPRO_SHARDS`` or 0 (in-process).

    Sharding is the one way a sweep fans out, and it stays opt-in
    (implicit fan-out would surprise profiling and CI timing): 0 (or 1)
    means the in-process :class:`~repro.harness.sweep.SweepEngine` path.
    """
    configured = os.environ.get("REPRO_SHARDS")
    if configured:
        return max(0, int(configured))
    return 0


def shard_timeout_from_env() -> float:
    """Per-shard wall-clock deadline in seconds (``REPRO_SHARD_TIMEOUT``).

    A shard attempt that exceeds the deadline is treated as hung: its
    worker is killed and the shard is re-dispatched (with backoff) up to
    the supervisor's attempt budget.
    """
    configured = os.environ.get("REPRO_SHARD_TIMEOUT")
    if configured:
        return max(0.1, float(configured))
    return 120.0


def faults_from_env() -> str | None:
    """The raw ``REPRO_FAULTS`` fault-plan text (``None`` = no faults).

    Parsed by :meth:`repro.service.faults.FaultPlan.parse`; read lazily
    by the supervisor so the plan travels to worker processes as data,
    never as ambient environment state.
    """
    configured = os.environ.get("REPRO_FAULTS")
    if configured is None or not configured.strip():
        return None
    return configured


def hosts_from_env() -> str | None:
    """The raw ``REPRO_HOSTS`` host-list text (``None`` = no cluster).

    Parsed by :func:`repro.cluster.hosts.parse_hosts`; read lazily by
    the cluster front door so the host list travels as data, never as
    ambient state a remote worker might re-read.
    """
    configured = os.environ.get("REPRO_HOSTS")
    if configured is None or not configured.strip():
        return None
    return configured


def connect_timeout_from_env() -> float:
    """Per-dial connect timeout in seconds (``REPRO_CONNECT_TIMEOUT``).

    Bounds only the TCP/Unix *connect* — request I/O has its own, much
    longer deadline — so an unreachable host is detected in seconds,
    not after a full shard deadline.
    """
    configured = os.environ.get("REPRO_CONNECT_TIMEOUT")
    if configured:
        return max(0.1, float(configured))
    return 5.0


def store_setting_from_env() -> tuple[str | None, bool]:
    """``REPRO_TRACE_STORE`` as ``(explicit path or None, enabled)``.

    Unset means "the default cache location" — reported as ``(None,
    True)`` rather than a materialised path, so specs built from a
    pristine environment stay equal to the default :class:`StoreSpec`
    (and no absolute home-directory path leaks into artifacts).
    """
    configured = os.environ.get("REPRO_TRACE_STORE")
    if configured is None:
        return None, True
    if configured.strip().lower() in OFF_VALUES:
        return None, False
    return configured, True


def store_root_from_env() -> Path | None:
    """Trace-store directory (``None`` = persistence disabled).

    ``REPRO_TRACE_STORE`` overrides; otherwise ``~/.cache/repro/traces``
    honouring ``XDG_CACHE_HOME``.
    """
    path, enabled = store_setting_from_env()
    if not enabled:
        return None
    if path is not None:
        return Path(path)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "traces"


def result_lake_from_env() -> bool:
    """Whether the spec-level result lake is on (``REPRO_RESULT_LAKE``).

    Default off — off is today's behaviour, bit-identical (CI-gated).
    On, the sweep engine consults the trace store for per-cell ``Stats``
    artifacts before simulating and populates it after (DESIGN.md §14);
    served cells are digest-identical to fresh simulation, so the lake
    never joins any fingerprint.
    """
    return flag(os.environ.get("REPRO_RESULT_LAKE"))


def obs_enabled() -> bool:
    """Whether the telemetry plane is on (``REPRO_OBS``; default off).

    Off is the contract, not just the default: with the variable unset
    the pipeline runs the identical step sequence, stats and artifact
    digests are bit-identical, and no event file is ever opened
    (DESIGN.md §13).
    """
    return flag(os.environ.get("REPRO_OBS"))


def obs_dir_from_env() -> str | None:
    """Event-stream directory (``REPRO_OBS_DIR``; ``None`` = default)."""
    configured = os.environ.get("REPRO_OBS_DIR")
    if configured is None or not configured.strip():
        return None
    return configured


def metrics_every_from_env(default: int = 1000) -> int:
    """Pipeline-metrics cadence in committed instructions
    (``REPRO_METRICS_EVERY``; 0 disables metrics, keeping tracing)."""
    configured = os.environ.get("REPRO_METRICS_EVERY")
    if configured is None or not configured.strip():
        return default
    return max(0, int(configured))


def full_benchmarks_from_env() -> bool:
    """``REPRO_FULL``: run all 29 benchmarks, not the representative 13."""
    return flag(os.environ.get("REPRO_FULL"))


def sampling_from_env():
    """Resolve the sampled-simulation variables into a
    :class:`~repro.sampling.config.SamplingConfig` (DESIGN.md §8)."""
    from repro.sampling.config import SamplingConfig

    return SamplingConfig(
        enabled=flag(os.environ.get("REPRO_SAMPLING")),
        interval=int(os.environ.get("REPRO_INTERVAL", "18500")),
        detail_ratio=float(os.environ.get("REPRO_DETAIL_RATIO", "0.0811")),
        detail_warmup=int(os.environ.get("REPRO_DETAIL_WARMUP", "768")),
    )
