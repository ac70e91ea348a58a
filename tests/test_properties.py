"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import example, given, settings, strategies as st

from repro.common.bitops import fold_hash, mask64, to_signed64, from_signed64
from repro.common.history import GlobalHistory
from repro.common.rng import XorShift64
from repro.core.fifo_history import FifoHistory
from repro.core.sharing import ProducerWindow
from repro.isa.registers import RegClass
from repro.rename.free_list import FreeList
from repro.rename.isrb import Isrb

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestBitopsProperties:
    @given(u64)
    def test_fold_hash_in_range(self, value):
        for bits in (8, 13, 14, 16):
            assert 0 <= fold_hash(value, bits) < (1 << bits)

    @given(u64)
    def test_fold_hash_deterministic(self, value):
        assert fold_hash(value, 14) == fold_hash(value, 14)

    @given(u64, u64)
    def test_equal_values_equal_hashes(self, a, b):
        # No false negatives: the hash never misses a true equality.
        if a == b:
            assert fold_hash(a, 14) == fold_hash(b, 14)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_signed_round_trip(self, value):
        assert to_signed64(from_signed64(value)) == value

    @given(u64, u64)
    def test_mask64_addition_closure(self, a, b):
        assert 0 <= mask64(a + b) < (1 << 64)


class TestFreeListProperties:
    @given(st.lists(st.booleans(), max_size=200))
    def test_alloc_free_conservation(self, operations):
        free_list = FreeList(64, 64)
        allocated = []
        for do_alloc in operations:
            if do_alloc:
                preg = free_list.allocate(RegClass.INT)
                if preg is not None:
                    allocated.append(preg)
            elif allocated:
                free_list.release(allocated.pop())
        assert free_list.free_int + len(allocated) == 64
        assert len(set(allocated)) == len(allocated)  # no duplicates


class TestIsrbProperties:
    @given(st.lists(st.sampled_from(["share", "deref", "unshare"]),
                    max_size=300))
    @settings(max_examples=60)
    def test_never_negative_never_leaks(self, operations):
        isrb = Isrb(entries=8)
        live_refs = 0  # extra references we created and not yet removed
        for operation in operations:
            if operation == "share":
                if isrb.share(7):
                    live_refs += 1
            elif operation == "deref" and isrb.is_shared(7):
                isrb.dereference(7)
            elif operation == "unshare" and isrb.is_shared(7):
                entry = isrb.entry(7)
                if entry is not None and entry.referenced > 0:
                    isrb.unshare(7)
                    live_refs -= 1
            entry = isrb.entry(7)
            if entry is not None:
                assert entry.referenced >= 0
                assert entry.committed >= 0
        assert isrb.occupancy <= 8


class TestFifoHistoryProperties:
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=2,
                    max_size=200))
    @settings(max_examples=60)
    def test_find_matches_linear_scan(self, hashes):
        history = FifoHistory(entries=32)
        pushed = []
        for value_hash in hashes:
            # Oracle: youngest older producer with the same hash.
            expected = None
            for age, older in enumerate(reversed(pushed), start=1):
                if age > 32:
                    break
                if older == value_hash:
                    expected = age
                    break
            assert history.find(value_hash, max_distance=255) == expected
            history.push(value_hash)
            pushed.append(value_hash)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=5,
                    max_size=100),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40)
    def test_preferred_distance_only_returns_real_matches(
        self, hashes, preferred
    ):
        history = FifoHistory(entries=16)
        pushed = []
        for value_hash in hashes:
            found = history.find(
                value_hash, max_distance=255, preferred_distance=preferred
            )
            if found is not None:
                assert pushed[len(pushed) - found] == value_hash
            history.push(value_hash)
            pushed.append(value_hash)


class TestProducerWindowProperties:
    @given(st.lists(st.sampled_from(["push", "commit", "squash"]),
                    max_size=300))
    @settings(max_examples=60)
    def test_fifo_discipline(self, operations):
        window = ProducerWindow(capacity=16)
        model = []
        for operation in operations:
            if operation == "push" and len(model) < 16:
                op = object()
                window.push(op)
                model.append(op)
            elif operation == "commit" and model:
                window.retire_head(model.pop(0))
            elif operation == "squash" and model:
                window.squash_tail(model.pop())
            assert len(window) == len(model)
            for distance in range(1, len(model) + 1):
                assert window.producer_at(distance) is model[-distance]


class TestHistoryProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_folded_consistency_under_restores(self, bits):
        from repro.common.bitops import fold_bits

        history = GlobalHistory()
        history.register_fold(16, 7)
        snapshots = []
        for index, bit in enumerate(bits):
            if index % 7 == 3:
                snapshots.append((history.snapshot(), history.raw(16)))
            history.push(1 if bit else 0)
        # Every snapshot restores exactly.
        for snapshot, raw in snapshots:
            history.restore(snapshot)
            assert history.raw(16) == raw
            assert history.folded(16, 7) == fold_bits(raw, 16, 7)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_streams_reproducible(self, seed):
        a, b = XorShift64(seed), XorShift64(seed)
        assert [a.next_u64() for _ in range(5)] == [
            b.next_u64() for _ in range(5)
        ]

    @given(st.integers(min_value=1, max_value=1 << 32))
    def test_next_below_in_range(self, bound):
        rng = XorShift64(1234)
        for _ in range(20):
            assert 0 <= rng.next_below(bound) < bound


# ---------------------------------------------------------------------------
# Packed-codec / columnar-trace properties
# ---------------------------------------------------------------------------

import pickle

import pytest

from repro.isa.instruction import DynInst, NO_ADDR, NO_REG
from repro.isa.opcodes import Opcode, OP_INFO
from repro.isa.registers import NUM_ARCH_REGS, XZR
from repro.workloads.columnar import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_CONDITIONAL,
    KIND_LOAD,
    KIND_RETURN,
    KIND_STORE,
    ColumnarTrace,
    pack_trace,
    unpack_trace,
)
from repro.workloads.trace import Trace

#: Every field a decoded DynInst carries (static + dynamic + derived).
DYN_FIELDS = [
    "seq", "pc", "opcode", "fu", "latency", "pipelined", "dest", "src1",
    "src2", "result", "addr", "is_load", "is_store", "is_branch",
    "is_conditional", "is_call", "is_return", "taken", "target_pc",
    "zero_idiom", "move", "line", "eligible",
]

_reg = st.integers(min_value=0, max_value=NUM_ARCH_REGS - 1)
_opt_reg = st.one_of(st.just(NO_REG), _reg)
_pc = st.integers(min_value=0, max_value=(1 << 20)).map(lambda w: w * 4)
_addr = st.one_of(st.just(NO_ADDR), st.integers(0, (1 << 40) - 1))
_target = st.one_of(st.just(-1), _pc)


@st.composite
def _dyn_fields(draw):
    """Field tuple for one random dynamic instruction.

    Deliberately wider than what the interpreter emits (any opcode may
    carry any register/flag combination) so the codec round-trip is
    pinned on raw field fidelity, not on interpreter invariants.
    """
    opcode = draw(st.sampled_from(list(Opcode)))
    return (
        opcode,
        draw(_pc),
        draw(_opt_reg),                 # dest (NO_REG / XZR included)
        draw(_opt_reg),                 # src1
        draw(_opt_reg),                 # src2
        draw(u64),                      # result
        draw(_addr),
        draw(st.booleans()),            # taken
        draw(_target),
        draw(st.booleans()),            # zero_idiom
        draw(st.booleans()),            # move
    )


def _build_trace(rows) -> Trace:
    instructions = [
        DynInst(
            seq=seq, pc=pc, opcode=opcode, dest=dest, src1=src1, src2=src2,
            result=result, addr=addr, taken=taken, target_pc=target_pc,
            zero_idiom=zero_idiom, move=move,
        )
        for seq, (opcode, pc, dest, src1, src2, result, addr, taken,
                  target_pc, zero_idiom, move) in enumerate(rows)
    ]
    return Trace("fuzz", instructions)


def _assert_rows_equal(expected, actual):
    for field_name in DYN_FIELDS:
        assert getattr(actual, field_name) == getattr(
            expected, field_name
        ), (expected.seq, field_name)


class TestCodecProperties:
    @given(st.lists(_dyn_fields(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip_both_planes(self, rows):
        trace = _build_trace(rows)
        payload = pack_trace(trace, budget=len(trace))

        decoded, budget = unpack_trace(payload)
        assert budget == len(trace)
        columnar = ColumnarTrace.from_payload(payload)
        assert len(columnar) == len(trace) == len(decoded)
        for index, original in enumerate(trace.instructions):
            _assert_rows_equal(original, decoded[index])
            _assert_rows_equal(original, columnar.row(index))

    @given(st.lists(_dyn_fields(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_column_reads_equal_dyninst_decode(self, rows):
        # Per-field *column* reads — what fetch and the warmer consume —
        # must agree with the decoded object for every index.
        trace = _build_trace(rows)
        columnar = ColumnarTrace.from_payload(
            pack_trace(trace, budget=len(trace))
        )
        for index, d in enumerate(trace.instructions):
            assert columnar.pcs[index] == d.pc
            assert columnar.lines[index] == d.line
            assert columnar.dests[index] == d.dest
            assert columnar.src1s[index] == d.src1
            assert columnar.src2s[index] == d.src2
            assert columnar.results[index] == d.result
            assert columnar.addrs[index] == d.addr
            assert columnar.targets[index] == d.target_pc
            assert columnar.eligibles[index] == d.eligible
            kind = columnar.kinds[index]
            assert bool(kind & KIND_BRANCH) == d.is_branch
            assert bool(kind & KIND_CONDITIONAL) == d.is_conditional
            assert bool(kind & KIND_CALL) == d.is_call
            assert bool(kind & KIND_RETURN) == d.is_return
            assert bool(kind & KIND_LOAD) == d.is_load
            assert bool(kind & KIND_STORE) == d.is_store
        assert columnar.result_producers == trace.result_producers

    @given(st.lists(_dyn_fields(), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_repack_and_pickle_stability(self, rows):
        # ColumnarTrace -> payload -> ColumnarTrace is lossless, and the
        # payload survives pickling (the store's wire path) unchanged.
        trace = _build_trace(rows)
        first = ColumnarTrace.from_payload(pack_trace(trace, 7))
        payload = pickle.loads(
            pickle.dumps(first.to_payload(7),
                         protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert payload["budget"] == 7
        second = ColumnarTrace.from_payload(payload)
        for index in range(len(trace)):
            _assert_rows_equal(trace.instructions[index], second.row(index))

    @given(st.lists(_dyn_fields(), min_size=2, max_size=20),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_column_is_rejected(self, rows, data):
        trace = _build_trace(rows)
        payload = pack_trace(trace, budget=len(trace))
        column = data.draw(st.sampled_from([
            "pc", "opcode", "dest", "src1", "src2", "result", "addr",
            "target_pc", "flags",
        ]))
        payload[column] = payload[column][:-1]
        with pytest.raises(ValueError):
            ColumnarTrace.from_payload(payload)
        with pytest.raises(ValueError):
            unpack_trace(payload)

    def test_unknown_opcode_is_rejected(self):
        trace = _build_trace([(Opcode.ADD, 4, 1, 2, 3, 9, NO_ADDR, False,
                               -1, False, False)])
        payload = pack_trace(trace, budget=1)
        payload["opcode"] = bytes([250])
        with pytest.raises(ValueError):
            ColumnarTrace.from_payload(payload)
        with pytest.raises(ValueError):
            unpack_trace(payload)


class TestCodecEdgeCases:
    """Directed cases the fuzz strategies only hit by chance."""

    def _single(self, **kwargs) -> DynInst:
        defaults = dict(seq=0, pc=64, opcode=Opcode.ADD, dest=1, src1=2,
                        src2=3, result=5, addr=NO_ADDR)
        defaults.update(kwargs)
        return DynInst(**defaults)

    def _round_trip(self, d: DynInst):
        payload = pack_trace(Trace("edge", [d]), budget=1)
        columnar = ColumnarTrace.from_payload(payload)
        decoded, _ = unpack_trace(payload)
        _assert_rows_equal(d, columnar.row(0))
        _assert_rows_equal(d, decoded[0])
        return columnar

    def test_no_reg_no_addr_sentinels(self):
        d = self._single(opcode=Opcode.NOP, dest=NO_REG, src1=NO_REG,
                         src2=NO_REG, result=0, addr=NO_ADDR)
        columnar = self._round_trip(d)
        assert columnar.dests[0] == NO_REG
        assert columnar.addrs[0] == NO_ADDR
        assert not columnar.eligibles[0]

    def test_xzr_dest_is_not_eligible(self):
        d = self._single(dest=XZR)
        columnar = self._round_trip(d)
        assert not columnar.eligibles[0]
        assert columnar.result_producers == 0

    @pytest.mark.parametrize("opcode", [Opcode.DIV, Opcode.FDIV])
    def test_non_pipelined_dividers(self, opcode):
        d = self._single(opcode=opcode)
        columnar = self._round_trip(d)
        row = columnar.row(0)
        assert row.pipelined is False
        assert row.latency == OP_INFO[opcode].latency
        assert columnar.kinds[0] & KIND_BRANCH == 0

    @pytest.mark.parametrize("opcode,taken,flags", [
        (Opcode.B, True, (False, False, False)),
        (Opcode.BEQ, True, (True, False, False)),
        (Opcode.BEQ, False, (True, False, False)),
        (Opcode.BL, True, (False, True, False)),
        (Opcode.RET, True, (False, False, True)),
    ])
    def test_branch_flag_combinations(self, opcode, taken, flags):
        conditional, call, is_return = flags
        d = self._single(
            opcode=opcode, dest=NO_REG, taken=taken,
            target_pc=256 if taken else -1,
        )
        columnar = self._round_trip(d)
        kind = columnar.kinds[0]
        assert kind & KIND_BRANCH
        assert bool(kind & KIND_CONDITIONAL) == conditional
        assert bool(kind & KIND_CALL) == call
        assert bool(kind & KIND_RETURN) == is_return
        row = columnar.row(0)
        assert row.taken is taken
        assert row.target_pc == (256 if taken else -1)
        assert not columnar.eligibles[0]  # branches never share

    def test_extreme_results_and_addresses(self):
        d = self._single(result=(1 << 64) - 1, addr=(1 << 62) - 8,
                         opcode=Opcode.LDR)
        columnar = self._round_trip(d)
        assert columnar.results[0] == (1 << 64) - 1
        assert columnar.addrs[0] == (1 << 62) - 8
        assert columnar.kinds[0] & KIND_LOAD

    def test_interpreter_trace_round_trips(self):
        # A real committed-path trace (every instruction class the
        # benchmarks emit) through the full wire path.
        from repro.workloads.spec2006 import generate_trace

        trace = generate_trace("gcc", 2000, seed=3)
        columnar = ColumnarTrace.from_payload(pack_trace(trace, 2000))
        for index, d in enumerate(trace.instructions):
            _assert_rows_equal(d, columnar.row(index))


# ---------------------------------------------------------------------------
# Lazily allocated cache / BTB sets against a list-of-lists reference
# ---------------------------------------------------------------------------


class _ListSetCache:
    """Reference model: every set preallocated as an MRU-first list."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.mask = sets - 1

    def present(self, line):
        return line in self.sets[line & self.mask]

    def touch(self, line):
        ways = self.sets[line & self.mask]
        if line not in ways:
            return False
        ways.remove(line)
        ways.insert(0, line)
        return True

    def fill(self, line):
        ways = self.sets[line & self.mask]
        victim = None
        if line in ways:
            ways.remove(line)
        elif len(ways) >= self.ways:
            victim = ways.pop()
        ways.insert(0, line)
        return victim

    def contents(self):
        return {i: ways for i, ways in enumerate(self.sets) if ways}


class _ListSetBtb:
    """Reference model of the BTB with every set preallocated."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.mask = sets - 1
        self.hits = self.misses = 0

    def _locate(self, pc):
        word = pc >> 2
        return self.sets[word & self.mask], word >> self.mask.bit_length()

    def lookup(self, pc):
        ways, tag = self._locate(pc)
        for position, (entry_tag, target) in enumerate(ways):
            if entry_tag == tag:
                ways.insert(0, ways.pop(position))
                self.hits += 1
                return target
        self.misses += 1
        return None

    def update(self, pc, target):
        ways, tag = self._locate(pc)
        ways[:] = [entry for entry in ways if entry[0] != tag]
        ways.insert(0, (tag, target))
        del ways[self.ways:]

    def contents(self):
        return {i: ways for i, ways in enumerate(self.sets) if ways}


# At most 16 entries over 24 distinct lines/branches: sets overflow, so
# victims and MRU reordering are exercised on most examples.
_geometry = st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]))


class TestLazySetProperties:
    @given(_geometry,
           st.lists(st.tuples(st.sampled_from(["present", "touch", "fill"]),
                              st.integers(min_value=0, max_value=23)),
                    max_size=200))
    @settings(max_examples=150, deadline=None)
    @example((1, 2), [("fill", 0), ("fill", 1), ("touch", 0), ("fill", 2),
                      ("present", 1), ("fill", 1)])
    def test_cache_matches_list_reference(self, geometry, operations):
        from repro.memory.cache import LINE_SHIFT, Cache

        sets, ways = geometry
        cache = Cache("T", (sets * ways) << LINE_SHIFT, ways, 1)
        reference = _ListSetCache(sets, ways)
        for operation, line in operations:
            assert getattr(cache, operation)(line) == getattr(
                reference, operation
            )(line), (operation, line)
            assert cache._tags == reference.contents()

    @given(_geometry,
           st.lists(st.tuples(st.booleans(),
                              st.integers(min_value=0, max_value=23),
                              st.integers(min_value=0, max_value=3)),
                    max_size=200))
    @settings(max_examples=150, deadline=None)
    @example((1, 2), [(True, 0, 1), (True, 1, 2), (False, 0, 0),
                      (True, 2, 3), (False, 1, 0), (False, 0, 0)])
    def test_btb_matches_list_reference(self, geometry, operations):
        from repro.frontend.btb import BranchTargetBuffer

        sets, ways = geometry
        btb = BranchTargetBuffer(sets * ways, ways)
        reference = _ListSetBtb(sets, ways)
        for is_update, word, target in operations:
            pc = word << 2
            if is_update:
                btb.update(pc, target)
                reference.update(pc, target)
            else:
                assert btb.lookup(pc) == reference.lookup(pc), pc
            assert btb._storage == reference.contents()
        assert (btb.hits, btb.misses) == (reference.hits, reference.misses)
