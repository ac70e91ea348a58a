"""Differential equivalence for the native-speed compute plane.

``Pipeline.__init__`` always installs the per-mechanism generated
rename/issue loops (``repro.pipeline.genrename``); the generic
``Pipeline._rename`` / ``_issue`` methods stay in ``src/`` as the test
oracle, reached through ``helpers.generic_stages`` (which drops the
generated instance bindings).  Every test here runs the same cell on
the runtime plane and on the oracle asserting *bit-identical*
statistics, mirroring ``tests/test_columnar_equivalence.py``'s
treatment of the columnar plane; the four generated/generic ×
columnar/eager combinations meet in sampled mode and across a µarch
checkpoint.  The memoised distance-predictor fast path and the
issue-port arms inlined into both issue loops get direct hypothesis
equivalence tests of their own.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.fu import FuClass, IssuePorts, PortConfig
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.core.validation import ValidationMode
from repro.pipeline.config import (
    CoreConfig,
    MECHANISM_PRESETS,
    MechanismConfig,
)
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import Simulator
from repro.predictors.distance import (
    DistancePredictor,
    DistancePredictorConfig,
)
from repro.sampling import SamplingConfig
from repro.workloads.store import TraceStore

from helpers import generic_stages, run_oracle, stats_dict  # noqa: E402


SAMPLING = SamplingConfig(
    enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128,
)


def run_cell(
    benchmark: str,
    mechanism: MechanismConfig,
    warmup: int,
    measure: int,
    *,
    store_root=None,
    sampling: SamplingConfig | None = None,
) -> dict:
    """One cell on the runtime plane (generated stages, columnar trace)."""
    store = TraceStore(store_root) if store_root is not None else None
    simulator = Simulator(trace_store=store)
    result = simulator.run_benchmark(
        benchmark, mechanism, warmup=warmup, measure=measure, seed=1,
        sampling=sampling,
    )
    return stats_dict(result.stats)


def run_generic(benchmark, mechanism, warmup, measure, **kwargs) -> dict:
    """The same cell with the generic rename/issue oracle."""
    return run_oracle(
        benchmark, mechanism, warmup, measure, eager=False, generic=True,
        **kwargs,
    )


class TestGeneratedRenameEquivalence:
    """Generic vs generated rename/issue across every mechanism."""

    @pytest.mark.parametrize("preset", sorted(MECHANISM_PRESETS))
    def test_all_presets_match(self, preset):
        mechanism = MECHANISM_PRESETS[preset]()
        generated = run_cell("mcf", mechanism, 500, 3000)
        generic = run_generic("mcf", mechanism, 500, 3000)
        assert generated == generic

    def test_all_validation_modes_match(self):
        variants = [
            MechanismConfig.rsep_validation(mode) for mode in ValidationMode
        ]
        variants.append(MechanismConfig.rsep_validation(
            ValidationMode.REISSUE_ANY_FU, sampling=True,
            start_train_threshold=15,
        ))
        for mechanism in variants:
            generated = run_cell("hmmer", mechanism, 500, 3000)
            generic = run_generic("hmmer", mechanism, 500, 3000)
            assert generated == generic, mechanism.name

    def test_code_cache_shared_per_fingerprint(self):
        from repro.pipeline import genrename

        config = CoreConfig()
        first = genrename.compiled_stages(
            config, MechanismConfig.rsep_realistic()
        )
        second = genrename.compiled_stages(
            config, MechanismConfig.rsep_realistic()
        )
        assert first[0] is second[0] and first[1] is second[1]
        other = genrename.compiled_stages(config, MechanismConfig.baseline())
        assert other[0] is not first[0]

    def test_escape_hatch_restores_generic_methods(self):
        # The runtime always binds the generated loops; the oracle's
        # escape hatch is the test helper, which unbinds them so the
        # class methods run.
        trace = Simulator(trace_store=None).trace_for("mcf", 1, 500)
        pipeline = Pipeline(trace, CoreConfig(), MechanismConfig.baseline())
        assert "_rename" in vars(pipeline) and "_issue" in vars(pipeline)
        generic_stages(pipeline)
        assert "_rename" not in vars(pipeline)
        assert "_issue" not in vars(pipeline)
        assert pipeline._rename.__func__ is Pipeline._rename
        assert pipeline._issue.__func__ is Pipeline._issue


#: (generic rename/issue, eager trace) for the three oracle combinations.
ORACLE_PLANES = [(True, False), (False, True), (True, True)]


class TestFourPlaneCombinations:
    """Generated vs generic rename/issue × columnar vs eager trace: the
    runtime plane and the three oracle combinations digest-identical,
    including through a sampled-checkpoint capture/restore cycle."""

    def test_sampled_rsep_realistic_all_combinations(self):
        kwargs = dict(warmup=1500, measure=4000, sampling=SAMPLING)
        mechanism = MechanismConfig.rsep_realistic()
        reference = run_cell("mcf", mechanism, **kwargs)
        assert reference["warmed"] > 0  # the warmer really ran
        for generic, eager in ORACLE_PLANES:
            observed = run_oracle(
                "mcf", mechanism, generic=generic, eager=eager, **kwargs
            )
            assert observed == reference, (generic, eager)

    def test_checkpoint_crosses_planes(self, tmp_path):
        # A µarch checkpoint captured on the runtime plane restores
        # bit-identically on every oracle plane: warmed state is a pure
        # function of the trace content, and the restore re-stamps the
        # fast-predict memo version (see checkpoint.py).
        mechanism = MechanismConfig.rsep_realistic()
        kwargs = dict(warmup=1500, measure=4000, sampling=SAMPLING)
        cold = run_cell("mcf", mechanism, store_root=tmp_path, **kwargs)
        store = TraceStore(tmp_path)
        token = Simulator(trace_store=store)._checkpoint_token(
            mechanism, kwargs["warmup"]
        )
        payload = store.load_checkpoint("mcf", 1, token)
        assert payload is not None
        for generic, eager in ORACLE_PLANES:
            restored = run_oracle(
                "mcf", mechanism, generic=generic, eager=eager,
                checkpoint=payload, **kwargs,
            )
            assert restored == cold, (generic, eager)


# ---------------------------------------------------------------------------
# Satellite: memoised fast_predict vs predict_reference
# ---------------------------------------------------------------------------


def _predictor_pair():
    """Two predictors sharing nothing, built identically: one drives the
    memoised generated path, the other the generic reference."""
    pairs = []
    for _ in range(2):
        history = GlobalHistory()
        path = PathHistory()
        predictor = DistancePredictor(
            DistancePredictorConfig.realistic(), history, path,
            XorShift64(0xDECAF),
        )
        pairs.append((history, path, predictor))
    return pairs


_PCS = [0x1000 + 4 * i for i in range(24)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1)),
        st.tuples(st.just("path"), st.sampled_from(_PCS)),
        st.tuples(st.just("predict"), st.sampled_from(_PCS)),
        st.tuples(st.just("repredict"), st.sampled_from(_PCS)),
        st.tuples(st.just("train_pair"), st.integers(0, 40)),
        st.tuples(st.just("train_val"), st.booleans()),
        st.tuples(st.just("mispredict"), st.just(0)),
        st.tuples(st.just("snapshot"), st.just(0)),
        st.tuples(st.just("restore"), st.just(0)),
    ),
    min_size=4, max_size=80,
)


def _fields(p):
    return (
        p.pc, p.distance, p.use_pred, p.likely_candidate, p.provider,
        p.indices, p.tags, p.base_index, p.confidence_level,
    )


class TestMemoisedPredictEquivalence:
    """The memoised fast path vs ``predict_reference`` under interleaved
    pushes, trainings and squash-style history snapshot/restores."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings(self, ops):
        (hist_fast, path_fast, fast), (hist_ref, path_ref, ref) = (
            _predictor_pair()
        )
        last_fast = last_ref = None
        snap = None
        for op, value in ops:
            if op == "push":
                hist_fast.push(value)
                hist_ref.push(value)
            elif op == "path":
                path_fast.push(value)
                path_ref.push(value)
            elif op in ("predict", "repredict"):
                last_fast = fast.predict(value)
                last_ref = ref.predict_reference(value)
                if op == "repredict":
                    # Same history/path/tables: the memo must serve the
                    # identical object, counters advancing as ever.
                    assert fast.predict(value) is last_fast
                    last_ref = ref.predict_reference(value)
                assert _fields(last_fast) == _fields(last_ref)
            elif op == "train_pair" and last_fast is not None:
                fast.train_from_pairing(last_fast, value)
                ref.train_from_pairing(last_ref, value)
            elif op == "train_val" and last_fast is not None:
                fast.train_from_validation(last_fast, value)
                ref.train_from_validation(last_ref, value)
            elif op == "mispredict" and last_fast is not None:
                fast.on_mispredict(last_fast)
                ref.on_mispredict(last_ref)
            elif op == "snapshot":
                snap = (
                    hist_fast.snapshot(), path_fast.snapshot(),
                    hist_ref.snapshot(), path_ref.snapshot(),
                )
            elif op == "restore" and snap is not None:
                # Squash emulation: roll history back under the memo.
                hist_fast.restore(snap[0])
                path_fast.restore(snap[1])
                hist_ref.restore(snap[2])
                path_ref.restore(snap[3])
        # Stat counters advanced in lockstep on both paths.
        assert fast.lookups == ref.lookups
        assert fast.confident_predictions == ref.confident_predictions

    def test_memo_hit_and_invalidation(self):
        (_, _, fast), _ = _predictor_pair()
        first = fast.predict(0x1000)
        assert fast.predict(0x1000) is first  # memo hit
        fast.invalidate_prediction_memo()
        recomputed = fast.predict(0x1000)
        assert recomputed is not first  # version re-stamped: recompute
        assert _fields(recomputed) == _fields(first)  # tables untouched

    def test_training_invalidates_memo(self):
        (_, _, fast), _ = _predictor_pair()
        first = fast.predict(0x1000)
        fast.train_from_pairing(first, 3)  # bumps the table version
        assert fast.predict(0x1000) is not first


# ---------------------------------------------------------------------------
# Satellite: try_issue arms inlined into the issue loops
# ---------------------------------------------------------------------------


def _inline_arm(ports: IssuePorts, fu: FuClass, cycle: int) -> bool:
    """Replica of the arms both issue loops inline (core.py / genrename):
    the INT_ALU/BRANCH and MEM_LOAD decisions with literal counts."""
    if fu is FuClass.INT_ALU or fu is FuClass.BRANCH:
        if ports._alu >= ports._alu_count:
            return False
        ports._alu += 1
        ports._total += 1
        return True
    if fu is FuClass.MEM_LOAD:
        if ports._ldst >= ports._ldst_ports:
            return False
        ports._ldst += 1
        ports._total += 1
        return True
    return ports.try_issue(fu, cycle)


class TestIssuePortInlineEquivalence:
    """The inlined arms match ``IssuePorts.try_issue`` exactly while a
    slot is free — and both issue loops break on ``_total >=
    issue_width`` before ever reaching an arm, so that is the only
    regime the inline decision runs in."""

    @settings(max_examples=120, deadline=None)
    @given(
        fus=st.lists(
            st.sampled_from([
                FuClass.INT_ALU, FuClass.BRANCH, FuClass.MEM_LOAD,
                FuClass.MEM_STORE, FuClass.FP_ALU, FuClass.INT_MUL,
            ]),
            min_size=1, max_size=24,
        ),
    )
    def test_arm_matches_method(self, fus):
        config = PortConfig()
        oracle = IssuePorts(config)
        inlined = IssuePorts(config)
        oracle.new_cycle(0)
        inlined.new_cycle(0)
        for fu in fus:
            # Both issue loops only reach the arms below this guard.
            if inlined._total >= config.issue_width:
                break
            assert oracle.try_issue(fu, 0) == _inline_arm(inlined, fu, 0)
            assert (
                oracle._total, oracle._alu, oracle._ldst,
                oracle._fp, oracle._store_only, oracle._mul,
            ) == (
                inlined._total, inlined._alu, inlined._ldst,
                inlined._fp, inlined._store_only, inlined._mul,
            )
