"""The RSEP unit: distance prediction, pairing, sampling and training.

This is the glue of Fig. 3's orange boxes.  At rename the pipeline asks for
an IDist prediction; at commit the pipeline hands over each cycle's group of
committed result producers and the unit drives the FIFO-history (or DDT)
pairing, the sampling policy of §IV.B.3 and predictor training.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.codegen import define
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.common.storage import StorageReport
from repro.core.ddt import DistanceDependencyTable
from repro.core.fifo_history import FifoHistory
from repro.core.hashing import HashRegisterFile
from repro.core.validation import ValidationMode
from repro.predictors.confidence import ConfidenceScale, SCALED
from repro.predictors.distance import (
    DistancePrediction,
    DistancePredictor,
    DistancePredictorConfig,
)
from repro.predictors.gshare_distance import (
    GshareDistanceConfig,
    GshareDistancePredictor,
)


@dataclass(frozen=True)
class RsepConfig:
    """Everything that parameterises RSEP.

    ``ideal()`` matches the Fig. 4 configuration: large predictor, FIFO
    history much deeper than the ROB, free validation, no sampling.
    ``realistic()`` matches §VI.B: 10.1KB predictor, 128-entry history,
    24-entry ISRB, sampling with start-train threshold 63, validation by
    re-issue to any FU.
    """

    predictor_kind: str = "tage"  # "tage" | "gshare"
    predictor: DistancePredictorConfig = field(
        default_factory=DistancePredictorConfig.ideal
    )
    gshare: GshareDistanceConfig = field(default_factory=GshareDistanceConfig)
    pairing: str = "fifo"  # "fifo" | "ddt"
    history_entries: int = 4096  # FIFO depth; ideal uses >> ROB
    ddt_log2_entries: int = 14
    hash_bits: int = 14
    sampling: bool = False
    validation: ValidationMode = ValidationMode.IDEAL
    isrb_entries: int = 24
    isrb_counter_bits: int = 6
    move_elimination: bool = True  # the paper always pairs them

    @classmethod
    def ideal(cls) -> "RsepConfig":
        return cls()

    @classmethod
    def realistic(cls, start_train_threshold: int = 63) -> "RsepConfig":
        return cls(
            predictor=replace(
                DistancePredictorConfig.realistic(),
                start_train_threshold=start_train_threshold,
            ),
            history_entries=128,
            sampling=True,
            validation=ValidationMode.REISSUE_ANY_FU,
        )


@dataclass
class RsepStats:
    """Rename- and commit-side accounting for the RSEP unit."""

    lookups: int = 0
    confident: int = 0
    used: int = 0
    out_of_window: int = 0
    class_mismatch: int = 0
    isrb_rejected: int = 0
    zero_reg_shares: int = 0
    committed_correct: int = 0
    committed_wrong: int = 0

    @property
    def accuracy(self) -> float:
        total = self.committed_correct + self.committed_wrong
        return self.committed_correct / total if total else 1.0


class RsepUnit:
    """Prediction + pairing + training orchestration."""

    def __init__(
        self,
        config: RsepConfig,
        history: GlobalHistory,
        path: PathHistory,
        rng: XorShift64,
        scale: ConfidenceScale = SCALED,
    ) -> None:
        self.config = config
        self._rng = rng.fork(0x5EB)
        if config.predictor_kind == "tage":
            self.predictor = DistancePredictor(
                config.predictor, history, path, rng.fork(0xD157), scale
            )
        elif config.predictor_kind == "gshare":
            self.predictor = GshareDistancePredictor(
                config.gshare, history, rng.fork(0xD157), scale
            )
        else:
            raise ValueError(f"unknown predictor kind {config.predictor_kind!r}")
        if config.pairing == "fifo":
            self.pairing = FifoHistory(config.history_entries, config.hash_bits)
        elif config.pairing == "ddt":
            self.pairing = DistanceDependencyTable(
                config.ddt_log2_entries, config.hash_bits
            )
        else:
            raise ValueError(f"unknown pairing {config.pairing!r}")
        self.hrf = HashRegisterFile(hash_bits=config.hash_bits)
        self._hash_bits = config.hash_bits
        self._hash_mask = (1 << config.hash_bits) - 1
        self._fold_group = self._build_fold_group(config.hash_bits)
        self.stats = RsepStats()

    @staticmethod
    def _build_fold_group(hash_bits: int):
        """Unrolled ``fold_hash`` over a commit group's results.

        The per-value chunk loop (XOR ``hash_bits``-wide slices of a
        64-bit value) is flattened into one masked XOR expression —
        results are already masked to 64 bits by the interpreter, so
        ``ceil(64 / hash_bits)`` shifted terms cover every chunk — and
        the whole group is hashed in a single comprehension, the software
        analogue of the parallel commit-side hash ports.  Cross-checked
        against ``repro.common.bitops.fold_hash`` in the determinism
        tests.
        """
        shifts = range(hash_bits, 64, hash_bits)
        expression = "(v := op.d.result)" + "".join(
            f" ^ (v >> {shift})" for shift in shifts
        )
        return define(
            "def fold_group(ops):\n"
            "    return [({expr}) & {mask} for op in ops]".format(
                expr=expression, mask=(1 << hash_bits) - 1
            ),
            {},
            "fold_group",
        )

    # ------------------------------------------------------------------
    # Rename side
    # ------------------------------------------------------------------

    def lookup(self, pc: int) -> DistancePrediction:
        """Distance prediction for the instruction at *pc*."""
        self.stats.lookups += 1
        prediction = self.predictor.predict(pc)
        if prediction.use_pred:
            self.stats.confident += 1
        return prediction

    @property
    def max_distance(self) -> int:
        if self.config.predictor_kind == "tage":
            return self.config.predictor.max_distance
        return self.config.gshare.max_distance

    # ------------------------------------------------------------------
    # Commit side
    # ------------------------------------------------------------------

    def observe_commit_group(self, producers: list) -> None:
        """Process one cycle's committed result producers, oldest first.

        Implements §IV.B.2/§IV.B.3: every producer pushes its result hash;
        without sampling every looked-up producer searches the history,
        with sampling a single randomly chosen one does and the *likely
        candidates* train through the validation comparison instead.

        The group is processed batch-wise, mirroring the parallel
        comparators of §IV.D.2: all result hashes are computed up front
        (one unrolled fold expression per value) and history pushes run
        through ``push_group``.  History searches must observe exactly the
        producers older than the searching instruction, so pushes are
        flushed up to each search point; predictor trainings keep their
        original producer order (pushes never touch predictor state, so
        deferring them past a training is behaviour-preserving).
        """
        if not producers:
            return
        pairing = self.pairing
        pairing.record_commit_group(len(producers))

        sampling = self.config.sampling
        selected = None
        if sampling:
            candidates = [op for op in producers if op.dist_pred is not None]
            if candidates:
                selected = candidates[self._rng.next_below(len(candidates))]

        hashes = self._fold_group(producers)
        self.hrf.reads += len(producers)  # one commit-side read each
        predictor = self.predictor
        max_distance = self.max_distance

        if sampling:
            # At most one history search per group: push everything older
            # than the selected producer, search, then push the rest.
            pushed = 0
            for position, op in enumerate(producers):
                prediction = op.dist_pred
                if prediction is None:
                    continue
                if op is selected:
                    if position > pushed:
                        pairing.push_group(hashes[pushed:position])
                        pushed = position
                    observed = pairing.find(
                        hashes[position], max_distance, None
                    )
                    predictor.train_from_pairing(prediction, observed)
                elif op.likely_candidate and op.producer is not None:
                    predictor.train_from_validation(
                        prediction, op.d.result == op.producer.d.result
                    )
            pairing.push_group(hashes[pushed:])
            return

        # No sampling: every looked-up producer searches the history as
        # of its own commit point.  The searches and pushes run as one
        # fused pass inside the pairing structure; trainings follow in
        # producer order (they touch predictor state only, never the
        # pairing, so hoisting them out of the pass is order-safe).
        prefs = [
            -1 if op.dist_pred is None else (op.dist_pred.distance or 0)
            for op in producers
        ]
        observed_list = pairing.find_push_group(hashes, prefs, max_distance)
        train = predictor.train_from_pairing
        for op, observed in zip(producers, observed_list):
            prediction = op.dist_pred
            if prediction is not None:
                train(prediction, observed)

    def on_commit_used(self, op, correct: bool) -> None:
        """Accounting for a committed (or squashing) confident prediction."""
        if correct:
            self.stats.committed_correct += 1
        else:
            self.stats.committed_wrong += 1

    def on_mispredict(self, prediction: DistancePrediction) -> None:
        self.predictor.on_mispredict(prediction)

    # ------------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        """Total RSEP storage (the ~10.8KB accounting of §VI.B)."""
        report = StorageReport("RSEP total")
        for sub in (
            self.predictor.storage_report(),
            self.pairing.storage_report(),
        ):
            report.items.extend(sub.items)
        # Dedicated FIFO propagating predicted distances to Commit so the
        # history search can privilege them (§VI.B: 224B for 224 in-flight
        # instructions × 8-bit distance).
        report.add("predicted-distance FIFO (224 × 8b)", 224 * 8)
        return report
