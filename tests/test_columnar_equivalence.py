"""Differential equivalence: columnar runtime vs the eager-DynInst oracle.

The runtime only ever consumes ``ColumnarTrace`` views.  The legacy
trace plane — eager ``DynInst`` decode, object-walking fetch and warming
loops — stays in ``src/`` as a test oracle, reached through
``helpers.run_oracle`` (an eager ``Trace`` interpreted directly, driven
through ``Pipeline`` / ``SampledRun``).  Every test here runs the same
cell through the runtime and the oracle and asserts *bit-identical*
statistics, so any drift in the columnar fetch loop, the lazy row
materialiser, the column-indexed warmer or the codec itself fails
immediately.

The cells mirror ``tests/test_determinism.py``'s golden set (every
golden mechanism config), extend over all validation modes, and cover
sampled mode (functional warming + drains), the on-disk store round
trip and µarch checkpoint restore across planes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.validation import ValidationMode
from repro.isa.instruction import DynInst
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import Simulator
from repro.sampling import SamplingConfig
from repro.workloads.columnar import ColumnarTrace, unpack_trace
from repro.workloads.store import TraceStore
from repro.workloads.trace import Trace


from helpers import eager_trace, run_oracle, stats_dict  # noqa: E402


#: The golden set of tests/test_determinism.py: every mechanism config
#: pinned there, with the same windows.
GOLDEN_CELLS = [
    ("mcf", MechanismConfig.baseline, 1000, 4000),
    ("mcf", MechanismConfig.rsep_realistic, 1000, 4000),
    ("libquantum", MechanismConfig.rsep_plus_vp, 0, 8000),
]


def run_cell(
    benchmark: str,
    mechanism: MechanismConfig,
    warmup: int,
    measure: int,
    store_root=None,
    sampling: SamplingConfig | None = None,
) -> dict:
    """One (benchmark, mechanism) cell on the runtime (columnar) plane."""
    store = TraceStore(store_root) if store_root is not None else None
    simulator = Simulator(trace_store=store)
    result = simulator.run_benchmark(
        benchmark, mechanism, warmup=warmup, measure=measure, seed=1,
        sampling=sampling,
    )
    return stats_dict(result.stats)


class TestTracePlaneSelection:
    def test_default_is_columnar(self, tmp_path):
        trace = Simulator(trace_store=None).trace_for("mcf", 1, 500)
        assert isinstance(trace, ColumnarTrace)
        # Store loads take the same (only) plane.
        Simulator(trace_store=TraceStore(tmp_path)).trace_for("mcf", 1, 500)
        warm = Simulator(trace_store=TraceStore(tmp_path))
        assert isinstance(warm.trace_for("mcf", 1, 500), ColumnarTrace)
        assert warm.trace_store.hits == 1

    def test_escape_hatch_restores_dyninst_trace(self):
        # The runtime has no eager switch; the oracle's escape hatch is
        # the test helper, whose eager trace selects the object-walking
        # fetch (no columnar binding on the instance).
        trace = eager_trace("mcf", 1, 500)
        assert isinstance(trace, Trace)
        pipeline = Pipeline(trace, CoreConfig(), MechanismConfig.baseline())
        assert "_fetch" not in vars(pipeline)
        runtime = Simulator(trace_store=None).trace_for("mcf", 1, 500)
        pipeline = Pipeline(runtime, CoreConfig(), MechanismConfig.baseline())
        assert pipeline._fetch.__func__ is Pipeline._fetch_columnar

    def test_planes_share_one_store_artifact(self, tmp_path):
        # One file on disk serves both planes: the payload is the wire
        # format either way, only the in-memory view differs.
        Simulator(trace_store=TraceStore(tmp_path)).trace_for("mcf", 1, 800)
        (path,) = tmp_path.glob("*.trace")
        decoded, budget = unpack_trace(pickle.loads(path.read_bytes()))
        assert isinstance(decoded, Trace) and budget == 800
        reference = eager_trace("mcf", 1, 800)
        assert len(decoded) == len(reference)
        for ours, theirs in zip(decoded.instructions, reference.instructions):
            for field in DynInst.__slots__:
                assert getattr(ours, field) == getattr(theirs, field)


class TestGoldenCellEquivalence:
    @pytest.mark.parametrize(
        "bench,mechanism,warmup,measure", GOLDEN_CELLS,
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_columnar_equals_dyninst(self, bench, mechanism, warmup, measure):
        columnar = run_cell(bench, mechanism(), warmup, measure)
        legacy = run_oracle(bench, mechanism(), warmup, measure)
        assert columnar == legacy

    def test_store_round_trip_equivalence(self, tmp_path):
        # Interpret + persist once, load the artifact back, and compare
        # both with the eager oracle: all three runs bit-identical.
        mechanism = MechanismConfig.rsep_realistic()
        cold = run_cell("mcf", mechanism, 1000, 4000, store_root=tmp_path)
        warm = run_cell("mcf", mechanism, 1000, 4000, store_root=tmp_path)
        legacy = run_oracle("mcf", mechanism, 1000, 4000)
        assert cold == warm == legacy


class TestValidationModeEquivalence:
    """All validation modes through both planes (queue traffic, squash
    drain and §IV.F retention all ride on trace-plane-fed state)."""

    def _variants(self):
        yield MechanismConfig.rsep_validation(ValidationMode.IDEAL)
        yield MechanismConfig.rsep_validation(ValidationMode.REISSUE_LOCK_FU)
        yield MechanismConfig.rsep_validation(ValidationMode.REISSUE_ANY_FU)
        yield MechanismConfig.rsep_validation(
            ValidationMode.REISSUE_ANY_FU, sampling=True,
            start_train_threshold=15,
        )

    def test_all_modes_match(self):
        for mechanism in self._variants():
            columnar = run_cell("hmmer", mechanism, 500, 3000)
            legacy = run_oracle("hmmer", mechanism, 500, 3000)
            assert columnar == legacy, mechanism.name


class TestSampledEquivalence:
    """Sampled mode exercises the column-indexed warmer, drains and
    ``skip_to`` — the paths a plain full-detail run never touches."""

    SAMPLING = SamplingConfig(
        enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128,
    )

    @pytest.mark.parametrize("mechanism_factory", [
        MechanismConfig.baseline,
        MechanismConfig.rsep_realistic,
        MechanismConfig.rsep_plus_vp,
    ], ids=lambda factory: factory.__name__)
    def test_sampled_columnar_equals_dyninst(self, mechanism_factory):
        kwargs = dict(warmup=1500, measure=6000, sampling=self.SAMPLING)
        columnar = run_cell("xalancbmk", mechanism_factory(), **kwargs)
        legacy = run_oracle("xalancbmk", mechanism_factory(), **kwargs)
        assert columnar["warmed"] > 0  # the warmer really ran
        assert columnar == legacy

    def test_checkpoint_crosses_planes(self, tmp_path):
        # A µarch checkpoint captured on the columnar plane restores
        # bit-identically on the eager plane: the warmed state is a pure
        # function of the trace *content*.
        mechanism = MechanismConfig.rsep_realistic()
        kwargs = dict(warmup=1500, measure=4000, sampling=self.SAMPLING)
        cold = run_cell("mcf", mechanism, store_root=tmp_path, **kwargs)
        store = TraceStore(tmp_path)
        token = Simulator(trace_store=store)._checkpoint_token(
            mechanism, kwargs["warmup"]
        )
        payload = store.load_checkpoint("mcf", 1, token)
        assert payload is not None
        restored = run_oracle("mcf", mechanism, checkpoint=payload, **kwargs)
        assert restored == cold
