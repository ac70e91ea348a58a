"""Functional warming: committed-path replay that skips the scheduler.

Between detailed intervals the sampled-simulation controller hands the
trace to this module, which feeds ground truth through every *stateful*
structure the detailed pipeline would have trained — caches and TLBs
(including the prefetchers and DRAM row state behind them), the TAGE
branch predictor with its global/path histories, BTB and RAS, the
FIFO/DDT pairing history, the RSEP distance predictor, D-VTAGE and the
zero predictor — while performing none of the cycle-level work (no
rename, no issue queue, no ROB, no wakeup scheduling).

Fidelity notes (the approximations are deliberate and documented in
DESIGN.md §8):

* Branch history is exact: the detailed front end pushes the *actual*
  outcome at fetch, so the committed-path replay reproduces the same
  history bits the detailed run would hold.
* Cache/DRAM timing state advances on a pseudo-clock of one cycle per
  warmed instruction (IPC 1), which keeps MSHR fills and bank timers
  monotone across the warm/detail boundary.
* RSEP commit groups are approximated by chunking committed producers
  into ``commit_width``-sized groups; the real training entry point
  (:meth:`~repro.core.rsep.RsepUnit.observe_commit_group`) then runs
  verbatim, so pairing searches, sampling selection and predictor
  updates use the production code path.
* §IV.F/§IV.G feedback for confident predictions is emulated against a
  ring of recently committed producers: a confident prediction whose
  producer's result differs collapses confidence exactly as a
  commit-time validation failure would.
"""

from __future__ import annotations

from repro.common.codegen import define
from repro.isa.instruction import NO_REG
from repro.isa.program import INSTR_BYTES
from repro.isa.registers import FP_BASE
from repro.workloads.columnar import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_CONDITIONAL,
    KIND_LOAD,
    KIND_RETURN,
    KIND_STORE,
    MOVE,
    TAKEN,
    ColumnarTrace,
)


class _WarmOp:
    """Commit-group stand-in for an ``InflightOp`` during warming.

    Carries exactly the attributes
    :meth:`~repro.core.rsep.RsepUnit.observe_commit_group` reads.
    """

    __slots__ = ("d", "dist_pred", "likely_candidate", "producer")

    def __init__(self, d) -> None:
        self.d = d
        self.dist_pred = None
        self.likely_candidate = False
        self.producer = None


class _ColumnarWarmOp:
    """Column-fed :class:`_WarmOp`: no ``DynInst`` behind it.

    ``observe_commit_group`` (and its generated hash fold) reads
    ``op.d.result``; ring validation reads ``producer.d.dest`` /
    ``producer.d.result``.  Pointing ``d`` at the op itself satisfies
    both against the two scalars copied out of the columns, with one
    allocation instead of two.
    """

    __slots__ = ("d", "dest", "result", "dist_pred", "likely_candidate",
                 "producer")

    def __init__(self, dest: int, result: int) -> None:
        self.d = self
        self.dest = dest
        self.result = result
        self.dist_pred = None
        self.likely_candidate = False
        self.producer = None


#: Producers kept in the recent-producer ring (> max predictor distance).
_RING_KEEP = 512
#: Ring length at which the stale prefix is trimmed away.
_RING_TRIM = 4096


class FunctionalWarmer:
    """Replays committed-path trace spans through a pipeline's state."""

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        self._move_elim = pipeline.mechanisms.move_elim
        # The recent-producer ring persists across warmed spans so
        # producer distances carry over interval boundaries; commit
        # groups flush at the end of each span.
        self._ring: list[_WarmOp] = []
        self._group: list[_WarmOp] = []
        rsep = pipeline.rsep
        # In sampling mode (§IV.B.3) the commit side trains exactly one
        # producer per group through the pairing search, so warming only
        # needs one predictor lookup per group — the dominant cost of
        # warming RSEP otherwise.  The faithful every-producer path is
        # kept for non-sampling (ideal) configurations.
        self._rsep_sampling = rsep is not None and rsep.config.sampling
        self._fold_values = (
            self._build_fold_values(rsep.config.hash_bits)
            if rsep is not None
            else None
        )

    def reset_producer_ring(self) -> None:
        """Drop the recent-producer ring (and any buffered group).

        Called at the warm-up/measurement boundary: the ring emulates
        the in-flight producer window, which really is empty after a
        drain — and µarch checkpoints capture pipeline state only, so
        cold and checkpoint-restored runs must enter measurement with
        the same (empty) ring to stay bit-identical.
        """
        del self._ring[:]
        del self._group[:]

    @staticmethod
    def _build_fold_values(hash_bits: int):
        """Unrolled ``fold_hash`` over raw result values (cf.
        ``RsepUnit._build_fold_group``, which folds over ops)."""
        shifts = range(hash_bits, 64, hash_bits)
        expression = "(v := value)" + "".join(
            f" ^ (v >> {shift})" for shift in shifts
        )
        return define(
            "def fold_values(values):\n"
            "    return [({expr}) & {mask} for value in values]".format(
                expr=expression, mask=(1 << hash_bits) - 1
            ),
            {},
            "fold_values",
        )

    def warm(self, start: int, count: int, cycle: int) -> tuple[int, int]:
        """Warm ``trace[start:start + count]``.

        Returns ``(end_index, end_cycle)`` — the trace position where
        detailed simulation should resume and the advanced pseudo-clock.
        Columnar traces take the column-indexed loop (no ``DynInst`` is
        ever materialised for a warmed-only span); object traces keep
        the original per-``DynInst`` loop as the oracle path.
        """
        p = self.pipeline
        if isinstance(p.trace, ColumnarTrace):
            return self._warm_columnar(start, count, cycle)
        trace = p.trace.instructions
        end = min(start + count, len(trace))
        if end <= start:
            return start, cycle

        hierarchy = p.hierarchy
        mem_load = hierarchy.load
        mem_store = hierarchy.store
        mem_fetch = hierarchy.fetch
        branch_unit = p.branch_unit
        tage_predict = branch_unit.tage.predict
        tage_update = branch_unit.tage.update
        btb_lookup = branch_unit.btb.lookup
        btb_update = branch_unit.btb.update
        ras = branch_unit.ras
        history_push = p.history.push
        path_push = p.path.push
        zero_predictor = p.zero_predictor
        vp = p.vp
        if vp is not None:
            vp_predict = vp.predictor.predict
            vp_train = vp.predictor.train
        rsep = p.rsep
        if rsep is not None:
            rsep_predict = rsep.predictor.predict
            rsep_observe = rsep.observe_commit_group
            rsep_mispredict = rsep.on_mispredict
        rsep_sampling = self._rsep_sampling
        group_results: list[int] = []
        group_eligible: list[tuple[int, int]] = []
        move_elim = self._move_elim
        commit_width = p.config.commit_width
        ring = self._ring
        group = self._group
        no_reg = NO_REG
        fp_base = FP_BASE

        last_line = -1
        for d in trace[start:end]:
            cycle += 1

            # ---- front end: L1I/ITLB and branch structures ------------
            line = d.line
            if line != last_line:
                mem_fetch(d.pc, cycle)
                last_line = line
            if d.is_branch:
                taken = d.taken
                if d.is_conditional:
                    prediction = tage_predict(d.pc)
                    if prediction.taken == taken and taken:
                        btb_lookup(d.pc)
                    history_push(1 if taken else 0)
                    tage_update(prediction, taken)
                elif d.is_return:
                    ras.pop()
                else:
                    btb_lookup(d.pc)
                    if d.is_call:
                        ras.push(d.pc + INSTR_BYTES)
                if taken:
                    path_push(d.pc)
                    if d.target_pc >= 0:
                        btb_update(d.pc, d.target_pc)
                    last_line = -1
            # ---- data side: L1D/DTLB, prefetchers, DRAM ---------------
            elif d.is_load:
                mem_load(d.pc, d.addr, cycle)
            elif d.is_store:
                mem_store(d.pc, d.addr, cycle)

            # ---- mechanism predictors (rename-side lookups) -----------
            eligible = d.eligible
            if eligible:
                if zero_predictor is not None:
                    zero_predictor.train(
                        zero_predictor.predict(d.pc), d.result == 0
                    )
                if vp is not None:
                    vp_train(vp_predict(d.pc), d.result)

            # ---- commit-side producer stream (RSEP pairing) -----------
            if rsep is None or d.dest == no_reg:
                continue
            if rsep_sampling:
                # §IV.B.3 sampling: one pairing search (and one
                # predictor lookup) per commit group is all the detailed
                # commit path performs, so warming does the same.
                if eligible and not (move_elim and d.move):
                    group_eligible.append((len(group_results), d.pc))
                group_results.append(d.result)
                if len(group_results) >= commit_width:
                    self._observe_sampling(group_results, group_eligible)
                    del group_results[:]
                    del group_eligible[:]
                continue
            op = _WarmOp(d)
            if eligible and not (move_elim and d.move):
                prediction = rsep_predict(d.pc)
                op.dist_pred = prediction
                distance = prediction.distance
                if 0 < distance <= len(ring):
                    producer = ring[-distance]
                    if prediction.use_pred:
                        # Emulate §IV.G commit-time validation: a shared
                        # register whose producer's value differs would
                        # squash and collapse confidence.
                        if (producer.d.dest >= fp_base) == (
                            d.dest >= fp_base
                        ) and producer.d.result != d.result:
                            rsep_mispredict(prediction)
                    elif prediction.likely_candidate:
                        op.likely_candidate = True
                        op.producer = producer
            group.append(op)
            ring.append(op)
            if len(group) >= commit_width:
                rsep_observe(group)
                del group[:]
                if len(ring) > _RING_TRIM:
                    del ring[:-_RING_KEEP]

        if rsep is not None:
            if group:
                rsep_observe(group)
                del group[:]
            if group_results:
                self._observe_sampling(group_results, group_eligible)
        return end, cycle

    def _warm_columnar(self, start: int, count: int,
                       cycle: int) -> tuple[int, int]:
        """Column-indexed warming: :meth:`warm` over packed columns.

        Replays exactly the structure updates of the object loop —
        ``tests/test_columnar_equivalence.py`` pins sampled runs
        bit-identical across both paths — while every per-instruction
        read is a flat column index (``lines[i]``, ``kinds[i]`` bit
        tests, …) instead of a ``DynInst`` attribute chain.
        """
        p = self.pipeline
        trace = p.trace
        end = min(start + count, trace.n)
        if end <= start:
            return start, cycle

        lines = trace.lines
        pcs = trace.pcs
        kinds = trace.kinds
        flags = trace.flags
        dests = trace.dests
        addrs = trace.addrs
        results = trace.results
        targets = trace.targets
        eligibles = trace.eligibles

        hierarchy = p.hierarchy
        mem_load = hierarchy.load
        mem_store = hierarchy.store
        mem_fetch = hierarchy.fetch
        branch_unit = p.branch_unit
        tage_predict = branch_unit.tage.predict
        tage_update = branch_unit.tage.update
        btb_lookup = branch_unit.btb.lookup
        btb_update = branch_unit.btb.update
        ras = branch_unit.ras
        history_push = p.history.push
        path_push = p.path.push
        zero_predictor = p.zero_predictor
        vp = p.vp
        if vp is not None:
            vp_predict = vp.predictor.predict
            vp_train = vp.predictor.train
        rsep = p.rsep
        if rsep is not None:
            rsep_predict = rsep.predictor.predict
            rsep_observe = rsep.observe_commit_group
            rsep_mispredict = rsep.on_mispredict
        rsep_sampling = self._rsep_sampling
        group_results: list[int] = []
        group_eligible: list[tuple[int, int]] = []
        move_elim = self._move_elim
        commit_width = p.config.commit_width
        ring = self._ring
        group = self._group
        no_reg = NO_REG
        fp_base = FP_BASE
        kind_branch = KIND_BRANCH
        kind_conditional = KIND_CONDITIONAL
        kind_return = KIND_RETURN
        kind_call = KIND_CALL
        kind_load = KIND_LOAD
        kind_store = KIND_STORE
        flag_taken = TAKEN
        flag_move = MOVE

        last_line = -1
        for index in range(start, end):
            cycle += 1

            # ---- front end: L1I/ITLB and branch structures ------------
            pc = pcs[index]
            line = lines[index]
            kind = kinds[index]
            if line != last_line:
                mem_fetch(pc, cycle)
                last_line = line
            if kind & kind_branch:
                taken = flags[index] & flag_taken != 0
                if kind & kind_conditional:
                    prediction = tage_predict(pc)
                    if prediction.taken == taken and taken:
                        btb_lookup(pc)
                    history_push(1 if taken else 0)
                    tage_update(prediction, taken)
                elif kind & kind_return:
                    ras.pop()
                else:
                    btb_lookup(pc)
                    if kind & kind_call:
                        ras.push(pc + INSTR_BYTES)
                if taken:
                    path_push(pc)
                    target_pc = targets[index]
                    if target_pc >= 0:
                        btb_update(pc, target_pc)
                    last_line = -1
            # ---- data side: L1D/DTLB, prefetchers, DRAM ---------------
            elif kind & kind_load:
                mem_load(pc, addrs[index], cycle)
            elif kind & kind_store:
                mem_store(pc, addrs[index], cycle)

            # ---- mechanism predictors (rename-side lookups) -----------
            eligible = eligibles[index]
            if eligible:
                if zero_predictor is not None:
                    zero_predictor.train(
                        zero_predictor.predict(pc), results[index] == 0
                    )
                if vp is not None:
                    vp_train(vp_predict(pc), results[index])

            # ---- commit-side producer stream (RSEP pairing) -----------
            dest = dests[index]
            if rsep is None or dest == no_reg:
                continue
            is_move = flags[index] & flag_move != 0
            if rsep_sampling:
                # §IV.B.3 sampling: one pairing search (and one
                # predictor lookup) per commit group is all the detailed
                # commit path performs, so warming does the same.
                if eligible and not (move_elim and is_move):
                    group_eligible.append((len(group_results), pc))
                group_results.append(results[index])
                if len(group_results) >= commit_width:
                    self._observe_sampling(group_results, group_eligible)
                    del group_results[:]
                    del group_eligible[:]
                continue
            op = _ColumnarWarmOp(dest, results[index])
            if eligible and not (move_elim and is_move):
                prediction = rsep_predict(pc)
                op.dist_pred = prediction
                distance = prediction.distance
                if 0 < distance <= len(ring):
                    producer = ring[-distance]
                    if prediction.use_pred:
                        # Emulate §IV.G commit-time validation: a shared
                        # register whose producer's value differs would
                        # squash and collapse confidence.
                        if (producer.d.dest >= fp_base) == (
                            dest >= fp_base
                        ) and producer.d.result != results[index]:
                            rsep_mispredict(prediction)
                    elif prediction.likely_candidate:
                        op.likely_candidate = True
                        op.producer = producer
            group.append(op)
            ring.append(op)
            if len(group) >= commit_width:
                rsep_observe(group)
                del group[:]
                if len(ring) > _RING_TRIM:
                    del ring[:-_RING_KEEP]

        if rsep is not None:
            if group:
                rsep_observe(group)
                del group[:]
            if group_results:
                self._observe_sampling(group_results, group_eligible)
        return end, cycle

    def _observe_sampling(
        self, results: list[int], eligible: list[tuple[int, int]]
    ) -> None:
        """Sampling-mode commit group: one search, batched pushes.

        Mirrors the sampling branch of
        :meth:`~repro.core.rsep.RsepUnit.observe_commit_group` — select
        one candidate, push every older producer's hash, search, train,
        push the rest (one fused ``find_push_group`` pass) — with the
        predictor lookup deferred to the selected candidate alone.
        Likely-candidate validation training is not replayed (it would
        need a lookup per producer); detailed intervals provide that
        feedback.  The commit-group size histogram and HRF port counters
        are deliberately *not* touched: they describe the detailed
        machine's real commit groups (§IV.D), which warming's fixed-size
        pseudo-groups would distort.
        """
        hashes = self._fold_values(results)
        rsep = self.pipeline.rsep
        pairing = rsep.pairing
        if eligible:
            position, pc = eligible[rsep._rng.next_below(len(eligible))]
            prediction = rsep.predictor.predict(pc)
            # One fused search-and-push pass over the group: prefs of -1
            # mean push-only, 0 at the selected position searches with
            # no preferred distance — exactly the detailed sampling
            # branch's push/find/push sequence.
            prefs = [-1] * len(hashes)
            prefs[position] = 0
            observed = pairing.find_push_group(
                hashes, prefs, rsep.max_distance
            )[position]
            rsep.predictor.train_from_pairing(prediction, observed)
        else:
            pairing.push_group(hashes)
