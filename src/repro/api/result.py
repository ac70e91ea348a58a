"""Versioned, JSON-round-trippable result artifacts.

A :class:`RunResult` is what :meth:`Session.run` returns and what
``repro report`` / ``repro inspect`` consume: the spec that produced it
(embedded, so the artifact replays), its content fingerprint, one
:class:`CellResult` per (benchmark, mechanism, seed) cell carrying the
full :class:`~repro.pipeline.stats.Stats`, and host metadata for
provenance.  ``FORMAT`` is bumped on any incompatible layout change;
loaders reject artifacts from the future instead of misreading them.

The accessor surface (``outcome`` / ``ipc`` / ``speedup``) follows the
paper's methodology (§V): several checkpoints (seeds) per benchmark,
per-benchmark IPC as the harmonic mean across checkpoints, speedups
against the matching baseline runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import sys
from dataclasses import dataclass, field

from repro.api.spec import ExperimentSpec
from repro.harness.reporting import harmonic_mean
from repro.pipeline.simulator import SimulationResult
from repro.pipeline.stats import Stats

#: Artifact layout version.  Bump on incompatible changes; loaders
#: reject newer formats rather than guessing.
FORMAT = 1

#: Top-level sections this build understands.  Anything else a
#: same-format artifact carries is preserved verbatim in
#: ``RunResult.extra_sections`` (and re-emitted on save) so ``repro
#: inspect`` can say "section X: not understood" instead of the loader
#: failing opaquely — the forward-compat path the optional ``telemetry``
#: section itself arrived through.
KNOWN_SECTIONS = frozenset(
    {"format", "fingerprint", "digest", "spec", "meta", "cells",
     "telemetry"}
)


def host_metadata() -> dict[str, str]:
    """Provenance of the producing process (never part of any digest)."""
    import repro

    return {
        "repro_version": repro.__version__,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
    }


@dataclass
class BenchmarkOutcome:
    """All seeds of one (benchmark, mechanism) pair."""

    benchmark: str
    mechanism: str
    results: list[SimulationResult] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return harmonic_mean(result.ipc for result in self.results)

    def stat_sum(self, name: str) -> int:
        return sum(getattr(result.stats, name) for result in self.results)

    def stat_fraction(self, name: str) -> float:
        committed = self.stat_sum("committed")
        return self.stat_sum(name) / committed if committed else 0.0

    @property
    def merged_stats(self) -> list[Stats]:
        return [result.stats for result in self.results]


@dataclass
class CellResult:
    """One (benchmark, mechanism, seed) cell's statistics."""

    benchmark: str
    mechanism: str
    seed: int
    stats: Stats

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "mechanism": self.mechanism,
            "seed": self.seed,
            "stats": dataclasses.asdict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellResult":
        return cls(
            benchmark=payload["benchmark"],
            mechanism=payload["mechanism"],
            seed=payload["seed"],
            stats=Stats(**payload["stats"]),
        )


def cells_digest(cells) -> str:
    """Content digest over a collection of :class:`CellResult` values.

    The one digest definition shared by full :class:`RunResult`
    artifacts and the service layer's per-shard artifacts: sorted, so
    cell order (in-process sweep order, out-of-order shard completion)
    never changes it.
    """
    payload = json.dumps(
        sorted(
            (cell.benchmark, cell.mechanism, cell.seed,
             dataclasses.asdict(cell.stats))
            for cell in cells
        ),
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunResult:
    """The versioned artifact of one executed :class:`ExperimentSpec`."""

    spec: ExperimentSpec
    cells: list[CellResult]
    fingerprint: str = ""
    format: int = FORMAT
    meta: dict[str, str] = field(default_factory=dict)
    #: Schema-versioned observability section (DESIGN.md §13): metric
    #: series per simulated cell, the event-stream location, shard
    #: lifecycle summaries.  ``None`` (the default, and the only value
    #: an unobserved run produces) is omitted from the serialised form,
    #: and the section never joins :meth:`digest` — so obs on/off runs
    #: of one spec are digest-identical and obs-off artifacts are
    #: byte-identical to pre-telemetry builds.
    telemetry: dict | None = None
    #: Unknown same-format top-level sections, preserved for inspection
    #: and re-emitted on save (never interpreted, never digested).
    extra_sections: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = self.spec.fingerprint()
        if not self.meta:
            self.meta = host_metadata()
        self._index: dict[tuple[str, str], BenchmarkOutcome] = {}
        for cell in self.cells:
            key = (cell.benchmark, cell.mechanism)
            outcome = self._index.get(key)
            if outcome is None:
                outcome = BenchmarkOutcome(cell.benchmark, cell.mechanism)
                self._index[key] = outcome
            outcome.results.append(SimulationResult(
                cell.benchmark, cell.mechanism, cell.seed, cell.stats
            ))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def benchmarks(self) -> list[str]:
        return list(self.spec.benchmarks)

    def mechanism_names(self) -> list[str]:
        return self.spec.mechanism_names()

    def outcome(self, benchmark: str, mechanism_name: str) -> BenchmarkOutcome:
        return self._index[(benchmark, mechanism_name)]

    def ipc(self, benchmark: str, mechanism_name: str) -> float:
        return self.outcome(benchmark, mechanism_name).ipc

    def speedup(
        self,
        benchmark: str,
        mechanism_name: str,
        baseline_name: str = "baseline",
    ) -> float:
        """Relative speedup of *mechanism_name* over *baseline_name*."""
        base = self.outcome(benchmark, baseline_name).ipc
        if base <= 0:
            return 0.0
        return self.outcome(benchmark, mechanism_name).ipc / base - 1.0

    # ------------------------------------------------------------------
    # Identity and serialisation
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """Content digest over every cell's statistics.

        Two runs of the same spec — in-process or sharded, cold, memoised
        or lake-served — must produce the same digest; the golden tests
        pin this against direct sweep-engine cells.  Host metadata and
        the store configuration never participate.
        """
        return cells_digest(self.cells)

    def to_dict(self) -> dict:
        payload = {
            "format": self.format,
            "fingerprint": self.fingerprint,
            "digest": self.digest(),
            "spec": self.spec.to_dict(),
            "meta": dict(self.meta),
            "cells": [cell.to_dict() for cell in self.cells],
        }
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry
        for key, value in self.extra_sections.items():
            payload.setdefault(key, value)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunResult":
        fmt = payload.get("format")
        if not isinstance(fmt, int) or fmt > FORMAT:
            raise ValueError(
                f"artifact format {fmt!r} is newer than this build "
                f"understands (max {FORMAT})"
            )
        spec = ExperimentSpec.from_dict(payload["spec"])
        telemetry = payload.get("telemetry")
        if telemetry is not None and not isinstance(telemetry, dict):
            raise ValueError("telemetry section must be a JSON object")
        result = cls(
            spec=spec,
            cells=[CellResult.from_dict(c) for c in payload["cells"]],
            fingerprint=payload["fingerprint"],
            format=fmt,
            meta=dict(payload.get("meta", {})),
            telemetry=telemetry,
            extra_sections={
                key: value for key, value in payload.items()
                if key not in KNOWN_SECTIONS
            },
        )
        if result.fingerprint != spec.fingerprint():
            raise ValueError(
                "artifact fingerprint does not match its embedded spec "
                f"({result.fingerprint} vs {spec.fingerprint()}); the "
                "file was edited or produced by an incompatible build"
            )
        recorded = payload.get("digest")
        if recorded is None:
            # Optional would be a bypass: strip the key, edit the cells.
            raise ValueError(
                "artifact has no digest field; refusing to trust its cells"
            )
        if recorded != result.digest():
            raise ValueError(
                "artifact digest does not match its cells "
                f"({recorded} vs {result.digest()}); the stats payload "
                "was altered"
            )
        return result

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        """Write the artifact crash-safely (temp file + ``os.replace``).

        An interrupted ``repro sweep --json`` / ``repro figures --out``
        can therefore never leave a half-written artifact that a later
        ``repro report`` chokes on — the old file (or no file) survives
        instead.
        """
        from repro.common.atomicio import atomic_write_text

        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "RunResult":
        from pathlib import Path

        return cls.from_json(Path(path).read_text(encoding="utf-8"))
