"""Shared fixtures and window configuration for the figure benches.

Timing benches default to a representative benchmark subset and laptop
windows so `pytest benchmarks/ --benchmark-only` completes in minutes.
Set ``REPRO_FULL=1`` for all 29 benchmarks and ``REPRO_WARMUP`` /
``REPRO_MEASURE`` / ``REPRO_SEEDS`` for higher fidelity.

The figure benches run through the spec API (:mod:`repro.api.figures`):
:func:`bench_session` is a default :class:`~repro.api.Session`, so all
benches of one pytest session share the process-wide sweep engine — the
persistent trace store (each functional trace is interpreted at most
once per machine) and the cell memo (cells appearing in several figures
— fig. 4's baseline is also fig. 6's, fig. 7's and Table I's — are
simulated exactly once per session).  :func:`run_mechanisms` runs the
ablation studies' ad-hoc mechanism sets the same way.
"""

import pytest

from repro.api import ExperimentSpec, RunResult, Session, WindowSpec
from repro.api import env as api_env
from repro.workloads.spec2006 import benchmark_names, representative_names

#: Re-exported for bench code: the representative subset now lives with
#: the workloads (see repro.workloads.spec2006.REPRESENTATIVE).
REPRESENTATIVE = representative_names()


def bench_benchmarks() -> list[str]:
    if api_env.full_benchmarks_from_env():
        return benchmark_names()
    return representative_names()


def bench_windows() -> tuple[int, int]:
    return api_env.window_from_env(default_measure=24000)


def bench_window_spec() -> WindowSpec:
    warmup, measure = bench_windows()
    return WindowSpec(warmup=warmup, measure=measure)


def bench_session() -> Session:
    """A session on the process-wide shared sweep engine."""
    return Session()


def run_mechanisms(benchmarks: list[str], mechanisms) -> RunResult:
    """Every benchmark × mechanism cell on the shared bench session."""
    spec = ExperimentSpec.from_env(
        benchmarks=benchmarks, mechanisms=mechanisms,
        window=bench_window_spec(),
    )
    return bench_session().run(spec)


@pytest.fixture(scope="session")
def windows():
    return bench_windows()
