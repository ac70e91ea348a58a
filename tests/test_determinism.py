"""Determinism and golden-stats guarantees of the timing model.

The event-driven scheduler (DESIGN.md §3) is correctness-gated: for a
pinned configuration it must produce *bit-identical* statistics to the
original poll-everything scheduler.  The golden snapshots below were
captured from the pre-refactor reference implementation (seed commit)
and must never drift — any change to scheduling, wakeup, fast-forward or
predictor indexing that alters a single counter fails here.

Also covered: same-seed reproducibility, functional-trace prefix reuse
and the code-generated predictor paths against their generic references.
"""

from __future__ import annotations

from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.pipeline.config import MechanismConfig
from repro.pipeline.simulator import Simulator
from repro.predictors.distance import DistancePredictor, DistancePredictorConfig


from helpers import stats_dict  # noqa: E402  (shared test helper)


# Captured from the pre-refactor (seed) scheduler: mcf, seed 1,
# warmup 1000 / measure 4000, CoreConfig defaults.
GOLDEN_MCF_BASELINE = {
    "cycles": 7818, "committed": 4002, "committed_producers": 3950,
    "committed_eligible": 3950, "zero_idiom_elim": 0, "move_elim": 0,
    "zero_pred": 0, "zero_pred_load": 0, "dist_pred": 0,
    "dist_pred_load": 0, "value_pred": 0, "value_pred_load": 0,
    "rsep_mispredicts": 0, "vp_mispredicts": 0, "zero_mispredicts": 0,
    "squashes_rsep": 0, "squashes_vp": 0, "squashes_zero": 0,
    "squashes_memory_order": 0, "squashed_ops": 0, "branches": 52,
    "branch_mispredicts": 0, "loads": 2201, "stores": 0,
    "load_forwards": 0, "stall_rob": 0, "stall_iq": 0, "stall_regs": 0,
    "stall_lsq": 7305,
    "intervals": 0, "warmed": 0, "sampled_window": 0, "ipc_ci": 0.0,
}

GOLDEN_MCF_RSEP_REALISTIC = {
    "cycles": 7818, "committed": 4002, "committed_producers": 3951,
    "committed_eligible": 3951, "zero_idiom_elim": 0, "move_elim": 0,
    "zero_pred": 0, "zero_pred_load": 0, "dist_pred": 10,
    "dist_pred_load": 10, "value_pred": 0, "value_pred_load": 0,
    "rsep_mispredicts": 0, "vp_mispredicts": 0, "zero_mispredicts": 0,
    "squashes_rsep": 0, "squashes_vp": 0, "squashes_zero": 0,
    "squashes_memory_order": 0, "squashed_ops": 0, "branches": 51,
    "branch_mispredicts": 0, "loads": 2202, "stores": 0,
    "load_forwards": 0, "stall_rob": 0, "stall_iq": 0, "stall_regs": 0,
    "stall_lsq": 7305,
    "intervals": 0, "warmed": 0, "sampled_window": 0, "ipc_ci": 0.0,
}

# Squash-exercising golden: libquantum, rsep+vpred, seed 1,
# warmup 0 / measure 8000 (covers distance/value coverage counters,
# an RSEP misprediction squash and zero-idiom elimination).
GOLDEN_LIBQUANTUM_RSEP_VP = {
    "cycles": 2933, "committed": 8000, "committed_producers": 7879,
    "committed_eligible": 7871, "zero_idiom_elim": 8, "move_elim": 0,
    "zero_pred": 0, "zero_pred_load": 0, "dist_pred": 559,
    "dist_pred_load": 161, "value_pred": 714, "value_pred_load": 131,
    "rsep_mispredicts": 1, "vp_mispredicts": 0, "zero_mispredicts": 0,
    "squashes_rsep": 1, "squashes_vp": 0, "squashes_zero": 0,
    "squashes_memory_order": 0, "squashed_ops": 168, "branches": 121,
    "branch_mispredicts": 0, "loads": 847, "stores": 0,
    "load_forwards": 0, "stall_rob": 231, "stall_iq": 1683,
    "stall_regs": 0, "stall_lsq": 0,
    "intervals": 0, "warmed": 0, "sampled_window": 0, "ipc_ci": 0.0,
}


class TestGoldenStats:
    def test_mcf_baseline_matches_pre_refactor_reference(self):
        result = Simulator().run_benchmark(
            "mcf", MechanismConfig.baseline(),
            warmup=1000, measure=4000, seed=1,
        )
        assert stats_dict(result.stats) == GOLDEN_MCF_BASELINE

    def test_mcf_rsep_realistic_matches_pre_refactor_reference(self):
        result = Simulator().run_benchmark(
            "mcf", MechanismConfig.rsep_realistic(),
            warmup=1000, measure=4000, seed=1,
        )
        assert stats_dict(result.stats) == GOLDEN_MCF_RSEP_REALISTIC

    def test_libquantum_rsep_vp_squash_path_matches_reference(self):
        result = Simulator().run_benchmark(
            "libquantum", MechanismConfig.rsep_plus_vp(),
            warmup=0, measure=8000, seed=1,
        )
        assert stats_dict(result.stats) == GOLDEN_LIBQUANTUM_RSEP_VP


class TestSameSeedDeterminism:
    def test_two_fresh_simulators_agree_exactly(self):
        results = [
            Simulator().run_benchmark(
                "xalancbmk", MechanismConfig.rsep_realistic(),
                warmup=500, measure=2000, seed=3,
            )
            for _ in range(2)
        ]
        assert stats_dict(results[0].stats) == stats_dict(results[1].stats)
        assert results[0].ipc == results[1].ipc

    def test_different_seeds_differ(self):
        stats = [
            stats_dict(
                Simulator().run_benchmark(
                    "gcc", MechanismConfig.baseline(),
                    warmup=500, measure=2000, seed=seed,
                ).stats
            )
            for seed in (1, 2)
        ]
        assert stats[0] != stats[1]


class TestTracePrefixReuse:
    def test_shorter_request_reuses_cached_trace(self):
        simulator = Simulator()
        long_trace = simulator.trace_for("mcf", 1, 4000)
        short_trace = simulator.trace_for("mcf", 1, 1500)
        assert short_trace is long_trace  # no re-execution

    def test_longer_request_rebuilds_and_covers(self):
        simulator = Simulator()
        short_trace = simulator.trace_for("mcf", 1, 1500)
        long_trace = simulator.trace_for("mcf", 1, 4000)
        assert long_trace is not short_trace
        assert len(long_trace) == 4000
        # The deterministic interpreter makes the short trace a prefix.
        for index in range(len(short_trace)):
            assert long_trace[index].result == short_trace[index].result
            assert long_trace[index].pc == short_trace[index].pc
        # And the longer trace now serves shorter requests.
        assert simulator.trace_for("mcf", 1, 2000) is long_trace

    def test_halted_trace_covers_any_request(self):
        simulator = Simulator()
        first = simulator.trace_for("mcf", 1, 500)
        if len(first) < 500:  # benchmark halted: complete execution
            assert simulator.trace_for("mcf", 1, 10_000) is first

    def test_prefix_reuse_preserves_pipeline_results(self):
        fresh = Simulator()
        reused = Simulator()
        reused.trace_for("mcf", 1, 30_000)  # longer than the run needs
        kwargs = dict(warmup=500, measure=2000, seed=1)
        a = fresh.run_benchmark("mcf", MechanismConfig.baseline(), **kwargs)
        b = reused.run_benchmark("mcf", MechanismConfig.baseline(), **kwargs)
        assert stats_dict(a.stats) == stats_dict(b.stats)


class _LegacyValidationQueue:
    """The seed implementation: one linear scan over all pending µ-ops.

    Reimplemented verbatim (plus the ``next_ready_cycle`` accessor the
    idle fast-forward now uses) as the behavioural reference for the
    indexed queue: same request order, same eligibility predicate, same
    "break on first port failure" priority rule.
    """

    def __init__(self, mode) -> None:
        self.mode = mode
        self._pending: list = []
        self.issued = 0
        self.delayed_cycles = 0

    def __len__(self) -> int:
        return len(self._pending)

    def request(self, op) -> None:
        from repro.core.validation import ValidationMode

        if self.mode is ValidationMode.IDEAL:
            op.validation_done_cycle = op.complete_cycle
            return
        self._pending.append(op)

    def next_ready_cycle(self):
        times = [
            op.complete_cycle for op in self._pending
            if op.complete_cycle is not None
        ]
        return min(times) if times else None

    def issue_cycle(self, cycle, ports):
        from repro.core.validation import ValidationMode

        if self.mode is ValidationMode.IDEAL or not self._pending:
            return []
        lock = self.mode is ValidationMode.REISSUE_LOCK_FU
        issued = []
        for op in self._pending:
            if op.complete_cycle is None or op.complete_cycle > cycle:
                continue
            if not ports.try_issue_validation(op.d.fu, cycle, lock):
                break
            op.validation_done_cycle = cycle + 1
            self.delayed_cycles += cycle - op.complete_cycle
            issued.append(op)
        if issued:
            self.issued += len(issued)
            issued_ids = set(map(id, issued))
            self._pending = [
                op for op in self._pending if id(op) not in issued_ids
            ]
        return issued

    def squash(self, min_seq: int) -> None:
        self._pending = [op for op in self._pending if op.d.seq < min_seq]


class TestIndexedValidationQueue:
    """The cycle-indexed queue must be bit-identical to the linear scan."""

    #: (benchmark, window) cells chosen to exercise heavy validation
    #: traffic and — for hmmer/xalancbmk — RSEP-misprediction squashes
    #: that drain the queue mid-flight.
    CELLS = [
        ("hmmer", 500, 4000),
        ("dealII", 500, 4000),
        ("mcf", 500, 3000),
        ("xalancbmk", 256, 3000),
    ]

    def _variants(self):
        from repro.core.validation import ValidationMode

        yield MechanismConfig.rsep_validation(ValidationMode.IDEAL)
        yield MechanismConfig.rsep_validation(ValidationMode.REISSUE_LOCK_FU)
        yield MechanismConfig.rsep_validation(ValidationMode.REISSUE_ANY_FU)
        yield MechanismConfig.rsep_validation(
            ValidationMode.REISSUE_ANY_FU, sampling=True,
            start_train_threshold=15,
        )
        yield MechanismConfig.rsep_realistic()

    def test_all_modes_match_legacy_scan(self, monkeypatch):
        import repro.pipeline.core as core_module

        for mechanism in self._variants():
            for benchmark, warmup, measure in self.CELLS:
                kwargs = dict(warmup=warmup, measure=measure, seed=1)
                indexed = Simulator().run_benchmark(
                    benchmark, mechanism, **kwargs
                )
                with monkeypatch.context() as patch:
                    patch.setattr(
                        core_module, "ValidationQueue",
                        _LegacyValidationQueue,
                    )
                    legacy = Simulator().run_benchmark(
                        benchmark, mechanism, **kwargs
                    )
                assert stats_dict(indexed.stats) == stats_dict(
                    legacy.stats
                ), (mechanism.name, benchmark)

    def test_squash_drops_exactly_the_squashed_requests(self):
        from repro.backend.fu import IssuePorts, PortConfig
        from repro.core.validation import ValidationMode, ValidationQueue
        from repro.isa.opcodes import FuClass

        class _Dyn:
            def __init__(self, seq, fu=FuClass.INT_ALU):
                self.seq = seq
                self.fu = fu

        class _Op:
            def __init__(self, seq, complete_cycle):
                self.d = _Dyn(seq)
                self.complete_cycle = complete_cycle
                self.validation_done_cycle = None

        queue = ValidationQueue(ValidationMode.REISSUE_ANY_FU)
        ops = [_Op(seq, complete_cycle) for seq, complete_cycle in [
            (0, 5), (1, 5), (2, 9), (3, 7), (4, 9),
        ]]
        for op in ops:
            queue.request(op)
        assert len(queue) == 5
        assert queue.next_ready_cycle() == 5

        queue.squash(min_seq=3)  # drops seqs 3, 4 (one whole bucket stays)
        assert len(queue) == 3

        ports = IssuePorts(PortConfig())
        ports.new_cycle(6)
        issued = queue.issue_cycle(6, ports)
        assert [op.d.seq for op in issued] == [0, 1]
        assert all(op.validation_done_cycle == 7 for op in issued)
        assert len(queue) == 1  # seq 2 still waiting on cycle 9
        assert queue.next_ready_cycle() == 9
        ports.new_cycle(9)
        assert [op.d.seq for op in queue.issue_cycle(9, ports)] == [2]
        assert len(queue) == 0 and queue.next_ready_cycle() is None


class TestLazyHistorySnapshots:
    def test_raw_restore_equals_full_restore(self):
        """Fold recomputation from raw bits must equal the incremental
        fold state for every registered TAGE/distance geometry."""
        def build():
            history = GlobalHistory()
            path = PathHistory()
            DistancePredictor(
                DistancePredictorConfig.realistic(), history, path,
                XorShift64(3),
            )
            from repro.frontend.tage import TageBranchPredictor, TageConfig
            TageBranchPredictor(TageConfig(), history, path, XorShift64(4))
            return history

        incremental = build()
        recomputed = build()
        rng = XorShift64(17)
        for step in range(500):
            bit = rng.next_u64() & 1
            incremental.push(bit)
            recomputed.push(bit)
            if step % 23 == 5:
                # Round-trip through the raw checkpoint mid-stream...
                recomputed.restore_raw(recomputed.snapshot_raw())
                # ...and the full fold state must be unchanged.
                assert recomputed.snapshot() == incremental.snapshot()
        snapshot = incremental.snapshot()
        raw = incremental.snapshot_raw()
        for _ in range(50):
            incremental.push(rng.next_u64() & 1)
        incremental.restore_raw(raw)
        assert incremental.snapshot() == snapshot


class TestGeneratedPredictorPaths:
    """The code-generated fast paths must equal the generic references."""

    def test_fast_predict_matches_reference(self):
        def build(seed):
            history = GlobalHistory()
            path = PathHistory()
            predictor = DistancePredictor(
                DistancePredictorConfig.realistic(), history, path,
                XorShift64(seed),
            )
            return history, path, predictor

        h1, p1, fast = build(7)
        h2, p2, slow = build(7)
        rng = XorShift64(99)
        for step in range(400):
            pc = (rng.next_u64() & 0x3FFF) << 2
            a = fast.predict(pc)
            b = slow.predict_reference(pc)
            assert (a.distance, a.use_pred, a.likely_candidate,
                    a.provider, a.base_index) == (
                b.distance, b.use_pred, b.likely_candidate,
                b.provider, b.base_index)
            assert a.indices == b.indices
            assert a.tags == b.tags
            if step % 3 == 0:
                bit = rng.next_u64() & 1
                h1.push(bit)
                h2.push(bit)
            if step % 5 == 0:
                branch_pc = rng.next_u64() & 0xFFFF
                p1.push(branch_pc)
                p2.push(branch_pc)

    def test_dvtage_fast_predict_matches_reference(self):
        from repro.predictors.dvtage import DVtageConfig, DVtagePredictor

        def build(seed):
            history = GlobalHistory()
            path = PathHistory()
            predictor = DVtagePredictor(
                DVtageConfig(), history, path, XorShift64(seed)
            )
            return history, path, predictor

        h1, p1, fast = build(9)
        h2, p2, slow = build(9)
        rng = XorShift64(123)
        for step in range(400):
            pc = (rng.next_u64() & 0x3FFF) << 2
            a = fast.predict(pc)
            b = slow.predict_reference(pc)
            assert (a.value, a.use_pred, a.provider, a.base_index,
                    a.last_value_valid, a.inflight_rank) == (
                b.value, b.use_pred, b.provider, b.base_index,
                b.last_value_valid, b.inflight_rank)
            assert a.indices == b.indices
            assert a.tags == b.tags
            if step % 2 == 0:
                # Train so strides, confidences, tags and the in-flight
                # ranks all cycle through real transitions.
                actual = (rng.next_u64() & 0xFF) * (step % 7)
                fast.train(a, actual)
                slow.train(b, actual)
            if step % 3 == 0:
                bit = rng.next_u64() & 1
                h1.push(bit)
                h2.push(bit)
            if step % 5 == 0:
                branch_pc = rng.next_u64() & 0xFFFF
                p1.push(branch_pc)
                p2.push(branch_pc)

    @staticmethod
    def _seed_formula_lookup(indexer, pc):
        """The pre-refactor indexing formula, verbatim and memo-free.

        Computed from the public history/path state only, so it shares
        no code (or path-fold memo) with the generated fast path.
        """
        from repro.common.bitops import fold_bits

        word = pc >> 2
        path_bits = indexer._path_bits
        path_raw = indexer.path.raw(path_bits)
        indices, tags = [], []
        for number, geometry in enumerate(indexer.geometries, start=1):
            index_bits = geometry.log2_entries
            folded_index = indexer.history.folded(
                geometry.history_bits, index_bits
            )
            path_mix = fold_bits(path_raw, path_bits, index_bits)
            index = (
                word
                ^ (word >> (index_bits - number % index_bits or 1))
                ^ folded_index
                ^ path_mix
            ) & ((1 << index_bits) - 1)
            folded_tag = indexer.history.folded(
                geometry.history_bits, geometry.tag_bits
            )
            folded_tag2 = indexer.history.folded(
                geometry.history_bits, geometry.tag_bits - 1
            ) if geometry.tag_bits > 1 else 0
            tag = (word ^ folded_tag ^ (folded_tag2 << 1)) & (
                (1 << geometry.tag_bits) - 1
            )
            indices.append(index)
            tags.append(tag)
        return indices, tags

    def test_fast_indexer_lookup_matches_seed_formula(self):
        # predict_reference shares the generated fast_lookup (and the
        # generic lookup_reference shares its path memos), so the
        # indexer is checked against an independent re-derivation of
        # the original formula.
        history = GlobalHistory()
        path = PathHistory()
        predictor = DistancePredictor(
            DistancePredictorConfig.realistic(), history, path,
            XorShift64(11),
        )
        indexer = predictor._indexer
        rng = XorShift64(42)
        for step in range(300):
            pc = (rng.next_u64() & 0xFFFF) << 2
            fast = indexer.lookup(pc)            # code-generated
            generic = indexer.lookup_reference(pc)
            indices, tags = self._seed_formula_lookup(indexer, pc)
            assert fast.indices == generic.indices == indices
            assert fast.tags == generic.tags == tags
            if step % 2 == 0:
                history.push(rng.next_u64() & 1)
            if step % 7 == 0:
                path.push(rng.next_u64() & 0xFFFF)

    def test_commit_group_hashing_matches_fold_hash(self):
        """The inlined XOR-fold in observe_commit_group must keep producing
        exactly repro.common.bitops.fold_hash — checked through the pairing
        FIFO's public search interface."""
        from repro.common.bitops import fold_hash
        from repro.core.rsep import RsepConfig, RsepUnit

        history = GlobalHistory()
        path = PathHistory()
        unit = RsepUnit(RsepConfig.ideal(), history, path, XorShift64(3))

        class _FakeDyn:
            def __init__(self, result):
                self.result = result

        class _FakeOp:
            def __init__(self, result):
                self.d = _FakeDyn(result)
                self.dist_pred = None
                self.likely_candidate = False
                self.producer = None

        values = [0, 1, (1 << 64) - 1, 0x1234_5678_9ABC_DEF0,
                  0x7FF8_0000_0000_0000]
        unit.observe_commit_group([_FakeOp(value) for value in values])
        for position, value in enumerate(values):
            expected_hash = fold_hash(value, unit.config.hash_bits)
            distance = unit.pairing.find(expected_hash, unit.max_distance)
            # Each value was pushed at `position`; its most recent match
            # must sit exactly len(values) - position producers back.
            assert distance == len(values) - position

    def test_fast_history_push_matches_register_semantics(self):
        from repro.common.history import FoldedRegister

        history = GlobalHistory(capacity=64)
        history.register_fold(13, 7)
        history.register_fold(21, 9)
        mirror = {
            (13, 7): FoldedRegister(13, 7),
            (21, 9): FoldedRegister(21, 9),
        }
        raw = 0
        rng = XorShift64(5)
        for _ in range(300):
            bit = rng.next_u64() & 1
            for (history_bits, _), fold in mirror.items():
                outgoing = (raw >> (history_bits - 1)) & 1
                fold.push(bit, outgoing)
            raw = ((raw << 1) | bit) & ((1 << 64) - 1)
            history.push(bit)
        for key, fold in mirror.items():
            assert history.folded(*key) == fold.value
