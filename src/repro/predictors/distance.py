"""TAGE-like Instruction Distance (IDist) predictor (paper §IV.C).

Predicts, for a static instruction, how many result-producing instructions
back in commit order the most recent producer of the *same result* sits.
Organisation follows the paper exactly:

* a PC-indexed untagged base table (distance + confidence);
* six partially tagged components indexed by PC ⊕ global branch history
  ⊕ path history, each entry holding a distance, a 3-bit probabilistic
  confidence counter, a useful bit and a partial tag;
* prediction only when confidence is saturated (``use_pred``), plus the
  lower ``start_train`` threshold that marks *likely candidates* for the
  sampling scheme of §IV.B.3.

The two paper configurations are provided as presets:
``ideal()`` — 16K-entry base + 6×1K tagged, tags 13..18 bits = 42.6KB;
``realistic()`` — 2K-entry base + 6×512 tagged, tags 5..10 bits = 10.1KB.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.common.codegen import define
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.common.storage import StorageReport
from repro.predictors.confidence import ConfidenceScale, SCALED
from repro.predictors.tagged_table import (
    ComponentGeometry,
    GeometricIndexer,
    UsefulnessMonitor,
    emit_indexing_lines,
    geometric_history_lengths,
)

#: Sentinel stored in distance fields holding no prediction yet.
NO_DISTANCE = 0

#: Process-global table-version source for the fast-predict memo.  Every
#: table write takes a fresh value, so a memoised prediction is reusable
#: iff its (history bits, path bits, table version) tag still matches.
#: Global monotonicity makes versions unique across predictor instances
#: and across checkpoint restores (a restored snapshot can write an old
#: version back; re-stamping with a fresh value makes staleness safe).
_next_table_version = itertools.count(1).__next__


@dataclass(frozen=True)
class DistancePredictorConfig:
    """Geometry and thresholds of the distance predictor."""

    base_log2_entries: int = 14
    tagged_components: int = 6
    tagged_log2_entries: int = 10
    min_tag_bits: int = 13
    max_tag_bits: int = 18
    distance_bits: int = 8
    min_history: int = 2
    max_history: int = 64
    use_pred_threshold: int = 255    # paper scale (0..255)
    start_train_threshold: int = 63  # paper scale; Fig. 6 varies 15/63
    confidence_bits: int = 3

    @classmethod
    def ideal(cls) -> "DistancePredictorConfig":
        """The 42.6KB configuration of §IV.C."""
        return cls()

    @classmethod
    def realistic(cls) -> "DistancePredictorConfig":
        """The 10.1KB configuration of §VI.B."""
        return cls(
            base_log2_entries=11,
            tagged_log2_entries=9,
            min_tag_bits=5,
            max_tag_bits=10,
        )

    @property
    def max_distance(self) -> int:
        return (1 << self.distance_bits) - 1

    def geometries(self) -> list[ComponentGeometry]:
        lengths = geometric_history_lengths(
            self.min_history, self.max_history, self.tagged_components
        )
        tags = [
            self.min_tag_bits
            + round(
                (self.max_tag_bits - self.min_tag_bits)
                * index
                / max(1, self.tagged_components - 1)
            )
            for index in range(self.tagged_components)
        ]
        return [
            ComponentGeometry(self.tagged_log2_entries, tag, length)
            for tag, length in zip(tags, lengths)
        ]


@dataclass(slots=True)
class DistancePrediction:
    """One lookup outcome, retained for commit-time training.

    ``indices``/``tags`` carry the per-component lookup result directly
    (the ``Lookup`` indirection object was flattened away on the hot
    path; real TAGE checkpoints the same data).
    """

    pc: int
    distance: int
    use_pred: bool          # confident enough to speculate
    likely_candidate: bool  # confident enough to train via validation
    provider: int           # component index, -1 = base
    indices: tuple
    tags: tuple
    base_index: int
    confidence_level: int = 0

    def predicted(self) -> bool:
        return self.use_pred and self.distance != NO_DISTANCE


class DistancePredictor:
    """The TAGE-like IDist predictor."""

    def __init__(
        self,
        config: DistancePredictorConfig,
        history: GlobalHistory,
        path: PathHistory,
        rng: XorShift64,
        scale: ConfidenceScale = SCALED,
    ) -> None:
        self.config = config
        self.scale = scale
        self._rng = rng
        self._geometries = config.geometries()
        self._indexer = GeometricIndexer(self._geometries, history, path)
        base_entries = 1 << config.base_log2_entries
        self._base_mask = base_entries - 1
        self._base_distance = [NO_DISTANCE] * base_entries
        self._base_conf = [0] * base_entries
        self._tags = [[-1] * g.entries for g in self._geometries]
        self._distances = [
            [NO_DISTANCE] * g.entries for g in self._geometries
        ]
        self._confs = [[0] * g.entries for g in self._geometries]
        self._useful = [[0] * g.entries for g in self._geometries]
        self._monitor = UsefulnessMonitor()
        self._use_level = scale.level_for_paper_threshold(
            config.use_pred_threshold
        )
        self._train_level = scale.level_for_paper_threshold(
            config.start_train_threshold
        )
        # Statistics.
        self.lookups = 0
        self.confident_predictions = 0
        self._table_version = _next_table_version()
        # Specialised predict: the component loop is unrolled once at
        # construction with all geometry constants and table references
        # embedded (see _build_fast_predict).  `predict` is rebound to it;
        # `predict_reference` keeps the generic path for cross-checking.
        self.predict = self._build_fast_predict()

    # ------------------------------------------------------------------

    def _build_fast_predict(self):
        """Generate an unrolled predict() specialised to this geometry.

        Produces exactly the computation of :meth:`predict_reference`
        (same indexing, provider search and confidence thresholds), with
        the per-component loop flattened and every constant inlined.
        Table lists and folded registers are only ever mutated in place,
        so the embedded references stay valid for the predictor's life.

        A per-PC memo sits in front of the computation: the lookup is a
        pure function of (pc, the history bits every component folds,
        the folded path bits, the table contents), so a cached
        prediction tagged with those inputs is returned verbatim while
        they are unchanged.  Squash-replayed lookups — history restored
        to prior bits, no training in between — hit naturally.  The memo
        lives in the generated closure (never walked by the checkpoint
        capture) and shares the immutable ``DistancePrediction``.
        """
        indexer = self._indexer
        components = indexer._components
        path_bits = indexer._path_bits
        n = len(components)
        history_mask = (
            1 << max(g.history_bits for g in self._geometries)
        ) - 1
        env = {
            "_P": DistancePrediction,
            "_new": DistancePrediction.__new__,
            "_path": indexer.path,
            "_hist": indexer.history,
            "_memo": {},
            "_self": self,
            "_bdist": self._base_distance,
            "_bconf": self._base_conf,
        }
        lines = [
            "def fast_predict(pc):",
            "    _self.lookups += 1",
            f"    path_raw = _path.value & {(1 << path_bits) - 1}",
            f"    hist_tag = _hist._bits & {history_mask}",
            "    version = _self._table_version",
            "    entry = _memo.get(pc)",
            "    if (",
            "        entry is not None",
            "        and entry[0] == hist_tag",
            "        and entry[1] == path_raw",
            "        and entry[2] == version",
            "    ):",
            "        p = entry[3]",
            "        if p.use_pred:",
            "            _self.confident_predictions += 1",
            "        return p",
            "    word = pc >> 2",
        ]
        lines += emit_indexing_lines(components, path_bits, env)
        index_list = ", ".join(f"i{k}" for k in range(n))
        tag_list = ", ".join(f"t{k}" for k in range(n))
        lines += [
            f"    base_index = word & {self._base_mask}",
        ]
        keyword = "if"
        for k in range(n - 1, -1, -1):
            env[f"_tags{k}"] = self._tags[k]
            env[f"_dist{k}"] = self._distances[k]
            env[f"_conf{k}"] = self._confs[k]
            lines += [
                f"    {keyword} _tags{k}[i{k}] == t{k}:",
                f"        provider = {k}",
                f"        distance = _dist{k}[i{k}]",
                f"        confidence = _conf{k}[i{k}]",
            ]
            keyword = "elif"
        lines += [
            "    else:",
            "        provider = -1",
            "        distance = _bdist[base_index]",
            "        confidence = _bconf[base_index]",
            # NO_DISTANCE == 0 is inlined below.
            f"    use_pred = confidence >= {self._use_level}"
            " and distance != 0",
            f"    likely = confidence >= {self._train_level}"
            " and distance != 0",
            "    if use_pred:",
            "        _self.confident_predictions += 1",
            # Prediction construction with the dataclass __init__ call
            # flattened away (slot stores in place; one per field).
            "    p = _new(_P)",
            "    p.pc = pc",
            "    p.distance = distance",
            "    p.use_pred = use_pred",
            "    p.likely_candidate = likely",
            "    p.provider = provider",
            f"    p.indices = ({index_list},)",
            f"    p.tags = ({tag_list},)",
            "    p.base_index = base_index",
            "    p.confidence_level = confidence",
            "    _memo[pc] = (hist_tag, path_raw, version, p)",
            "    return p",
        ]
        return define("\n".join(lines), env, "fast_predict")

    def predict_reference(self, pc: int) -> DistancePrediction:
        """Look up the predicted IDist for the instruction at *pc*."""
        self.lookups += 1
        lookup = self._indexer.lookup(pc)
        base_index = (pc >> 2) & self._base_mask
        indices = lookup.indices
        tags = lookup.tags
        component_tags = self._tags

        provider = -1
        for component in range(len(component_tags) - 1, -1, -1):
            if component_tags[component][indices[component]] == tags[component]:
                provider = component
                break

        if provider >= 0:
            index = indices[provider]
            distance = self._distances[provider][index]
            confidence = self._confs[provider][index]
        else:
            distance = self._base_distance[base_index]
            confidence = self._base_conf[base_index]

        use_pred = confidence >= self._use_level and distance != NO_DISTANCE
        likely = confidence >= self._train_level and distance != NO_DISTANCE
        if use_pred:
            self.confident_predictions += 1
        return DistancePrediction(
            pc, distance, use_pred, likely,
            provider, tuple(indices), tuple(tags), base_index, confidence,
        )

    # ------------------------------------------------------------------

    def _entry(self, prediction: DistancePrediction) -> tuple[list, list, int]:
        """(distances, confs, index) for the providing entry."""
        if prediction.provider >= 0:
            index = prediction.indices[prediction.provider]
            return (
                self._distances[prediction.provider],
                self._confs[prediction.provider],
                index,
            )
        return self._base_distance, self._base_conf, prediction.base_index

    def _bump_confidence(self, confs: list[int], index: int) -> None:
        level = confs[index]
        if level < self.scale.levels and self._rng.chance(
            self.scale.probabilities[level]
        ):
            confs[index] = level + 1

    def train_from_pairing(
        self, prediction: DistancePrediction, observed_distance: int | None
    ) -> None:
        """Commit-time training with a distance computed by the FIFO/DDT.

        ``observed_distance`` is None when no matching older hash was found
        (or the distance exceeded the representable range).
        """
        if observed_distance is not None and not (
            0 < observed_distance <= self.config.max_distance
        ):
            observed_distance = None

        self._table_version = _next_table_version()
        distances, confs, index = self._entry(prediction)
        if observed_distance is None:
            # Nothing to learn from: leave the entry alone (the paper keeps
            # entries warm; mispredictions are what reset confidence).
            return
        if distances[index] == observed_distance:
            self._bump_confidence(confs, index)
            if prediction.provider >= 0 and prediction.use_pred:
                self._useful[prediction.provider][index] = 1
        else:
            if confs[index] == 0:
                distances[index] = observed_distance
            else:
                confs[index] = 0
            self._maybe_allocate(prediction, observed_distance)

    def train_from_validation(
        self, prediction: DistancePrediction, was_equal: bool
    ) -> None:
        """Training via the validation path (§IV.B.3, likely candidates).

        The candidate compared its actual result with the register it would
        have shared: a 64-bit equality, no FIFO access needed.
        """
        self._table_version = _next_table_version()
        distances, confs, index = self._entry(prediction)
        if distances[index] != prediction.distance:
            # Entry was reclaimed or retrained since prediction time.
            return
        if was_equal:
            self._bump_confidence(confs, index)
        else:
            confs[index] = 0

    def on_mispredict(self, prediction: DistancePrediction) -> None:
        """A confident prediction failed validation: collapse confidence."""
        self._table_version = _next_table_version()
        distances, confs, index = self._entry(prediction)
        confs[index] = 0
        if prediction.provider >= 0:
            self._useful[prediction.provider][index] = 0

    def _maybe_allocate(
        self, prediction: DistancePrediction, observed_distance: int
    ) -> None:
        """Allocate the observed distance in a longer-history component."""
        start = prediction.provider + 1
        if start >= len(self._geometries):
            return
        candidates = [
            component
            for component in range(start, len(self._geometries))
            if self._useful[component][prediction.indices[component]] == 0
        ]
        if not candidates:
            for component in range(start, len(self._geometries)):
                self._useful[component][prediction.indices[component]] = 0
            if self._monitor.on_allocation_failure():
                pass  # useful bits are single-bit: cleared above already
            return
        if len(candidates) > 1 and not self._rng.chance(2 / 3):
            chosen = self._rng.choice(candidates[1:])
        else:
            chosen = candidates[0]
        index = prediction.indices[chosen]
        self._tags[chosen][index] = prediction.tags[chosen]
        self._distances[chosen][index] = observed_distance
        self._confs[chosen][index] = 0
        self._useful[chosen][index] = 0

    # ------------------------------------------------------------------

    def invalidate_prediction_memo(self) -> None:
        """Re-stamp the table version after an out-of-band table write.

        Trainers re-stamp themselves; this hook is for writers that
        bypass them — the µarch-checkpoint restore walks table lists
        element-wise (and writes a captured, possibly reused, version
        value back), so it must re-stamp with a globally fresh value.
        """
        self._table_version = _next_table_version()

    def storage_report(self) -> StorageReport:
        """Itemised storage; reproduces the 42.6KB / 10.1KB numbers."""
        config = self.config
        report = StorageReport("distance predictor")
        report.add_entries(
            "base (distance + confidence)",
            1 << config.base_log2_entries,
            config.distance_bits + config.confidence_bits,
        )
        for number, geometry in enumerate(self._geometries, start=1):
            bits = (
                config.distance_bits
                + config.confidence_bits
                + 1  # useful bit
                + geometry.tag_bits
            )
            report.add_entries(
                f"tagged component {number} "
                f"(tag {geometry.tag_bits}, hist {geometry.history_bits})",
                geometry.entries,
                bits,
            )
        return report
