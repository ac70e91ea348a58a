"""Process-level activation of the observability plane.

One question, answered in one place: *is this process being observed,
and by what?*  :func:`current` returns the active :class:`ObsRuntime` or
``None``; every hook in the pipeline, sampler, sweep engine and service
asks it (or the :func:`obs_tracer` shorthand) and does nothing when the
answer is ``None`` — which is the default, always.

Resolution mirrors the spec family's *explicit beats environment beats
default*:

* :func:`activated` installs a runtime for a ``with`` scope —
  :meth:`Session.run` does this when the spec's :class:`ObsSpec` is
  enabled, so a spec-driven run observes exactly what its spec says
  regardless of ambient state;
* otherwise ``REPRO_OBS=1`` resolves a process-wide runtime from the
  environment (cached per environment value, so tests flipping the
  variables get fresh runtimes and long-lived processes pay one read).
  The environment inherits across ``fork``, which is how shard worker
  processes join the same event directory — each writes its own
  pid-suffixed stream (the tracer re-expands ``{pid}`` after a fork).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from repro.obs.config import DEFAULT_OBS_DIR, ObsSpec
from repro.obs.metrics import TELEMETRY_FORMAT, MetricsHub
from repro.obs.tracer import NULL_TRACER, Tracer


class ObsRuntime:
    """Everything one observed process shares: tracer, cadence, cells."""

    def __init__(self, spec: ObsSpec) -> None:
        self.spec = spec
        self.metrics_every = spec.metrics_every
        self.dir = Path(
            spec.dir or os.environ.get("REPRO_OBS_DIR") or DEFAULT_OBS_DIR
        )
        self.tracer = Tracer(str(self.dir / "events-{pid}.jsonl"))
        #: Per-cell metrics series collected since the last drain.
        self._cells: list[dict] = []

    # ------------------------------------------------------------------

    def metrics_hub(self) -> MetricsHub | None:
        """A fresh hub for one pipeline (``None`` when metrics are off)."""
        if self.metrics_every <= 0:
            return None
        return MetricsHub(self.metrics_every)

    def collect_cell(self, benchmark: str, mechanism: str, seed: int,
                     pipeline) -> None:
        """Bank *pipeline*'s metric series under its cell identity."""
        hub = getattr(pipeline, "_metrics", None)
        if hub is None or len(hub) == 0:
            return
        self._cells.append({
            "benchmark": benchmark,
            "mechanism": mechanism,
            "seed": seed,
            **hub.to_payload(),
        })

    def drain_cells(self) -> list[dict]:
        """Hand over (and forget) the banked cell series — one run's
        worth, so consecutive runs under one env runtime never bleed."""
        cells, self._cells = self._cells, []
        return cells

    def telemetry_payload(self, extra: dict | None = None) -> dict:
        """The artifact's ``telemetry`` section for the run just ended.

        Only cells actually *simulated* in this process appear — memoised
        recalls and shard-worker cells ran no local pipeline (the workers
        wrote their own event streams instead).
        """
        payload = {
            "format": TELEMETRY_FORMAT,
            "metrics_every": self.metrics_every,
            "events_dir": str(self.dir),
            "cells": self.drain_cells(),
        }
        if extra:
            payload.update(extra)
        return payload

    def close(self) -> None:
        self.tracer.close()


# ---------------------------------------------------------------------------
# Resolution: explicit install beats environment beats (default) off
# ---------------------------------------------------------------------------

_installed: ObsRuntime | None = None
_env_runtime: ObsRuntime | None = None
_env_key: tuple | None = None


def current() -> ObsRuntime | None:
    """The active runtime, or ``None`` (the overhead-free default).

    The environment path re-checks ``REPRO_OBS`` on each call — a single
    dict read when off — and
    caches the built runtime keyed on the three variables' values, so a
    mid-process environment change (tests, the overhead gate's A/B loop)
    swaps runtimes instead of going stale.
    """
    if _installed is not None:
        return _installed
    from repro.api.env import flag

    raw = os.environ.get("REPRO_OBS")
    if not flag(raw):
        return None
    global _env_runtime, _env_key
    key = (
        raw,
        os.environ.get("REPRO_OBS_DIR"),
        os.environ.get("REPRO_METRICS_EVERY"),
    )
    if _env_runtime is None or key != _env_key:
        if _env_runtime is not None:
            _env_runtime.close()
        _env_runtime = ObsRuntime(ObsSpec.from_env())
        _env_key = key
    return _env_runtime


def obs_tracer():
    """The active tracer — :data:`NULL_TRACER` when nothing observes."""
    runtime = current()
    return NULL_TRACER if runtime is None else runtime.tracer


def metrics_hub_for_pipeline() -> MetricsHub | None:
    """Pipeline-constructor hook: a fresh hub, or ``None`` when off."""
    runtime = current()
    if runtime is None:
        return None
    return runtime.metrics_hub()


@contextmanager
def activated(spec: ObsSpec | None):
    """Install *spec*'s runtime for a scope (no-op unless enabled).

    A disabled spec does **not** suppress an environment-resolved
    runtime — ``REPRO_OBS=1`` still observes paths that carry no spec
    — it simply declines to install one.
    """
    global _installed
    if spec is None or not spec.enabled:
        yield current()
        return
    runtime = ObsRuntime(spec)
    previous = _installed
    _installed = runtime
    try:
        yield runtime
    finally:
        _installed = previous
        runtime.close()
