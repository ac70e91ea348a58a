"""D-VTAGE value predictor (Perais & Seznec [6], used as the paper's VP).

Differential VTAGE: the base table tracks the *last value* (and a stride)
per static instruction; tagged components, indexed by PC and geometric
global-history slices, track *strides*.  The prediction is
``last_value + stride`` from the longest matching component.  Prediction is
gated on saturated probabilistic confidence, and validation happens at
commit with a full squash on misprediction — the same recovery policy as
RSEP, which is what makes the two mechanisms comparable in Fig. 4.

The default geometry is scaled from the ~256KB configuration of [6]
proportionally to our smaller static-instruction working sets; the storage
report reflects the modelled entry counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import mask64
from repro.common.codegen import define
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.common.storage import StorageReport
from repro.predictors.confidence import ConfidenceScale, SCALED
from repro.predictors.tagged_table import (
    ComponentGeometry,
    GeometricIndexer,
    emit_indexing_lines,
    geometric_history_lengths,
)


@dataclass(frozen=True)
class DVtageConfig:
    """Geometry of the D-VTAGE predictor."""

    base_log2_entries: int = 13       # 8K-entry last-value table
    tagged_components: int = 6
    tagged_log2_entries: int = 10     # 1K entries each
    min_tag_bits: int = 12
    max_tag_bits: int = 15
    stride_bits: int = 64             # modelled; [6] banks full values
    min_history: int = 2
    max_history: int = 64
    use_pred_threshold: int = 255
    confidence_bits: int = 3

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
class ValuePrediction:
    """One D-VTAGE lookup, retained for commit-time training.

    ``indices``/``tags`` carry the per-component lookup result directly
    (no ``Lookup`` indirection on the hot path).
    """

    pc: int
    value: int
    use_pred: bool
    provider: int            # -1 = base stride
    indices: tuple
    tags: tuple
    base_index: int
    last_value_valid: bool
    inflight_rank: int = 0   # older same-PC instances in flight at lookup

    def predicted(self) -> bool:
        return self.use_pred and self.last_value_valid


class DVtagePredictor:
    """The D-VTAGE value predictor."""

    def __init__(
        self,
        config: DVtageConfig,
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
        self._base_valid = [False] * base_entries
        self._base_last = [0] * base_entries
        self._base_stride = [0] * base_entries
        self._base_conf = [0] * base_entries
        self._tags = [[-1] * g.entries for g in self._geometries]
        self._strides = [[0] * g.entries for g in self._geometries]
        self._confs = [[0] * g.entries for g in self._geometries]
        self._useful = [[0] * g.entries for g in self._geometries]
        self._use_level = scale.level_for_paper_threshold(
            config.use_pred_threshold
        )
        # Speculative last-value tracking ([6]): number of in-flight
        # (predicted-at-rename, not yet trained) instances per base entry.
        # The k-th in-flight instance of a strided instruction must be
        # predicted last_value + (k+1)*stride, not last_value + stride.
        self._inflight: dict[int, int] = {}
        self.lookups = 0
        self.confident_predictions = 0
        # Specialised predict, mirroring DistancePredictor: the component
        # loop is unrolled once at construction with all geometry
        # constants and table references embedded.  `predict` is rebound;
        # `predict_reference` keeps the generic path for cross-checking.
        self.predict = self._build_fast_predict()

    # ------------------------------------------------------------------

    def _build_fast_predict(self):
        """Generate an unrolled predict() specialised to this geometry.

        Produces exactly the computation of :meth:`predict_reference`
        (same indexing, provider search, speculative in-flight rank and
        confidence threshold), with the per-component loop flattened and
        every constant inlined.  Table lists, folded registers and the
        in-flight dict are only ever mutated in place, so the embedded
        references stay valid for the predictor's life.
        """
        indexer = self._indexer
        components = indexer._components
        path_bits = indexer._path_bits
        n = len(components)
        env = {
            "ValuePrediction": ValuePrediction,
            "_path": indexer.path,
            "_self": self,
            "_bvalid": self._base_valid,
            "_blast": self._base_last,
            "_bstride": self._base_stride,
            "_bconf": self._base_conf,
            "_inflight": self._inflight,
        }
        lines = [
            "def fast_predict(pc):",
            "    _self.lookups += 1",
            f"    path_raw = _path.value & {(1 << path_bits) - 1}",
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
            env[f"_strides{k}"] = self._strides[k]
            env[f"_confs{k}"] = self._confs[k]
            lines += [
                f"    {keyword} _tags{k}[i{k}] == t{k}:",
                f"        provider = {k}",
                f"        stride = _strides{k}[i{k}]",
                f"        confidence = _confs{k}[i{k}]",
            ]
            keyword = "elif"
        lines += [
            "    else:",
            "        provider = -1",
            "        stride = _bstride[base_index]",
            "        confidence = _bconf[base_index]",
            "    last_valid = _bvalid[base_index]",
            "    inflight_rank = _inflight.get(base_index, 0)",
            "    value = (_blast[base_index] + stride * (inflight_rank + 1))"
            f" & {(1 << 64) - 1}",
            f"    use_pred = confidence >= {self._use_level} and last_valid",
            "    if use_pred:",
            "        _self.confident_predictions += 1",
            "    _inflight[base_index] = inflight_rank + 1",
            "    return ValuePrediction(pc, value, use_pred, provider,"
            f" ({index_list},), ({tag_list},),"
            " base_index, last_valid, inflight_rank)",
        ]
        return define("\n".join(lines), env, "fast_predict")

    def predict_reference(self, pc: int) -> ValuePrediction:
        """Predict the result of the instruction at *pc*."""
        self.lookups += 1
        lookup = self._indexer.lookup(pc)
        base_index = (pc >> 2) & self._base_mask

        provider = -1
        for component in range(len(self._geometries) - 1, -1, -1):
            if self._tags[component][lookup.indices[component]] == lookup.tags[
                component
            ]:
                provider = component
                break

        last_valid = self._base_valid[base_index]
        last_value = self._base_last[base_index]
        if provider >= 0:
            index = lookup.indices[provider]
            stride = self._strides[provider][index]
            confidence = self._confs[provider][index]
        else:
            stride = self._base_stride[base_index]
            confidence = self._base_conf[base_index]

        inflight_rank = self._inflight.get(base_index, 0)
        value = mask64(last_value + stride * (inflight_rank + 1))
        use_pred = confidence >= self._use_level and last_valid
        if use_pred:
            self.confident_predictions += 1
        self._inflight[base_index] = inflight_rank + 1
        return ValuePrediction(
            pc=pc,
            value=value,
            use_pred=use_pred,
            provider=provider,
            indices=tuple(lookup.indices),
            tags=tuple(lookup.tags),
            base_index=base_index,
            last_value_valid=last_valid,
            inflight_rank=inflight_rank,
        )

    # ------------------------------------------------------------------

    def _provider_entry(self, prediction: ValuePrediction):
        if prediction.provider >= 0:
            index = prediction.indices[prediction.provider]
            return (
                self._strides[prediction.provider],
                self._confs[prediction.provider],
                index,
            )
        return self._base_stride, self._base_conf, prediction.base_index

    def _bump_confidence(self, confs: list[int], index: int) -> None:
        level = confs[index]
        if level < self.scale.levels and self._rng.chance(
            self.scale.probabilities[level]
        ):
            confs[index] = level + 1

    def release(self, prediction: ValuePrediction) -> None:
        """Drop the in-flight occurrence of a squashed prediction."""
        count = self._inflight.get(prediction.base_index, 0)
        if count > 1:
            self._inflight[prediction.base_index] = count - 1
        else:
            self._inflight.pop(prediction.base_index, None)

    def train(self, prediction: ValuePrediction, actual: int) -> None:
        """Commit-time training with the architectural result."""
        self.release(prediction)
        base_index = prediction.base_index
        observed_stride = mask64(actual - self._base_last[base_index])
        strides, confs, index = self._provider_entry(prediction)

        if self._base_valid[base_index]:
            if strides[index] == observed_stride:
                self._bump_confidence(confs, index)
                if prediction.provider >= 0 and prediction.use_pred:
                    self._useful[prediction.provider][index] = 1
            else:
                if confs[index] == 0:
                    strides[index] = observed_stride
                else:
                    confs[index] = 0
                self._maybe_allocate(prediction, observed_stride)

        self._base_valid[base_index] = True
        self._base_last[base_index] = actual

    def on_mispredict(self, prediction: ValuePrediction) -> None:
        """A confident prediction failed validation: collapse confidence."""
        strides, confs, index = self._provider_entry(prediction)
        confs[index] = 0
        if prediction.provider >= 0:
            self._useful[prediction.provider][index] = 0

    def _maybe_allocate(
        self, prediction: ValuePrediction, observed_stride: int
    ) -> None:
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
            return
        if len(candidates) > 1 and not self._rng.chance(2 / 3):
            chosen = self._rng.choice(candidates[1:])
        else:
            chosen = candidates[0]
        index = prediction.indices[chosen]
        self._tags[chosen][index] = prediction.tags[chosen]
        self._strides[chosen][index] = observed_stride
        self._confs[chosen][index] = 0
        self._useful[chosen][index] = 0

    # ------------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        config = self.config
        report = StorageReport("D-VTAGE value predictor")
        report.add_entries(
            "base (last value + stride + confidence)",
            1 << config.base_log2_entries,
            64 + config.stride_bits + config.confidence_bits + 1,
        )
        for number, geometry in enumerate(self._geometries, start=1):
            bits = (
                config.stride_bits
                + config.confidence_bits
                + 1
                + geometry.tag_bits
            )
            report.add_entries(
                f"tagged component {number} "
                f"(tag {geometry.tag_bits}, hist {geometry.history_bits})",
                geometry.entries,
                bits,
            )
        return report
