"""Shared TAGE machinery: geometric-history indexing of tagged tables.

Every TAGE-style structure in the paper — the branch predictor (Table I),
the distance predictor (§IV.C) and D-VTAGE (§II.A) — uses the same skeleton:
a direct-mapped base table backed by several partially tagged components
indexed with hashes of the PC and geometrically growing slices of global
branch (and path) history.  This module factors that skeleton out; each
predictor supplies its own payload and update policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import fold_bits
from repro.common.codegen import define
from repro.common.history import GlobalHistory, PathHistory


@dataclass(frozen=True)
class ComponentGeometry:
    """Geometry of one tagged component."""

    log2_entries: int
    tag_bits: int
    history_bits: int

    @property
    def entries(self) -> int:
        return 1 << self.log2_entries


def geometric_history_lengths(
    shortest: int, longest: int, components: int
) -> list[int]:
    """The geometric series of history lengths used by TAGE ([31])."""
    if components == 1:
        return [shortest]
    ratio = (longest / shortest) ** (1.0 / (components - 1))
    lengths = []
    for index in range(components):
        length = int(round(shortest * ratio**index))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths


@dataclass(slots=True)
class Lookup:
    """Result of indexing all components for one PC.

    Stored by the pipeline alongside the in-flight instruction so commit can
    update exactly the entries that produced the prediction, even if global
    history has moved on since (real TAGE checkpoints the same data).
    """

    pc: int
    indices: list[int]
    tags: list[int]


def emit_indexing_lines(components, path_bits: int, env: dict) -> list[str]:
    """Emit the per-component ``i{k}``/``t{k}`` lines of a generated
    TAGE-style fast path.

    Shared by every code generator over a :class:`GeometricIndexer`'s
    component tuples (the indexer's own lookup, the distance predictor's
    and D-VTAGE's fast predicts): one source of truth for the index/tag
    formulas and the path-fold memo.  The caller's generated function
    must define ``path_raw`` and ``word`` before these lines; *env* is
    extended with the folded-register references and the memo list.

    Components sharing an index width share one memoised path fold
    (TAGE geometries typically use a single table size), so the fold —
    and its staleness check — runs once per lookup, not once per
    component.  ``_pm[0]`` is the path value the folds were computed
    for; ``_pm[1:]`` hold one fold per distinct width.
    """
    slot_of: dict[int, int] = {}
    for (index_bits, *_rest) in components:
        if index_bits not in slot_of:
            slot_of[index_bits] = len(slot_of) + 1
    env["_pm"] = [-1] + [0] * len(slot_of)
    env["fold_bits"] = fold_bits
    lines = ["    _m = _pm", "    if _m[0] != path_raw:",
             "        _m[0] = path_raw"]
    for bits, slot in slot_of.items():
        lines.append(
            f"        _m[{slot}] = fold_bits(path_raw, {path_bits}, {bits})"
        )
    for k, (index_bits, index_mask, word_shift, index_fold,
            tag_mask, tag_fold, tag_fold2, path_memo) in enumerate(
                components):
        env[f"_fi{k}"] = index_fold
        env[f"_ft{k}"] = tag_fold
        lines.append(
            f"    i{k} = (word ^ (word >> {word_shift}) ^ _fi{k}.value"
            f" ^ _m[{slot_of[index_bits]}]) & {index_mask}"
        )
        if tag_fold2 is not None:
            env[f"_ft2{k}"] = tag_fold2
            lines.append(
                f"    t{k} = (word ^ _ft{k}.value ^ (_ft2{k}.value << 1))"
                f" & {tag_mask}"
            )
        else:
            lines.append(f"    t{k} = (word ^ _ft{k}.value) & {tag_mask}")
    return lines


class GeometricIndexer:
    """Computes per-component (index, tag) pairs for a PC.

    Maintains incrementally folded views of global branch history and mixes
    in a few bits of path history, following [31].
    """

    def __init__(
        self,
        geometries: list[ComponentGeometry],
        history: GlobalHistory,
        path: PathHistory,
        path_bits: int = 12,
    ) -> None:
        self.geometries = list(geometries)
        self.history = history
        self.path = path
        self._path_bits = path_bits
        for geometry in self.geometries:
            history.register_fold(geometry.history_bits, geometry.log2_entries)
            history.register_fold(geometry.history_bits, geometry.tag_bits)
            if geometry.tag_bits > 1:
                history.register_fold(geometry.history_bits, geometry.tag_bits - 1)
        # Per-component constants and live folded-register references,
        # precomputed once so the per-lookup loop touches no dicts.  The
        # final element is a [last_path_raw, folded] memo: path history
        # only changes on taken branches, so the path fold is reused
        # across the (many) lookups between pushes.
        self._components = []
        for component_number, geometry in enumerate(self.geometries, start=1):
            index_bits = geometry.log2_entries
            self._components.append((
                index_bits,
                (1 << index_bits) - 1,
                index_bits - component_number % index_bits or 1,
                history.fold_register(geometry.history_bits, index_bits),
                (1 << geometry.tag_bits) - 1,
                history.fold_register(geometry.history_bits,
                                      geometry.tag_bits),
                history.fold_register(geometry.history_bits,
                                      geometry.tag_bits - 1)
                if geometry.tag_bits > 1 else None,
                [-1, 0],
            ))
        self.lookup = self._build_fast_lookup()

    def _build_fast_lookup(self):
        """Generate an unrolled :meth:`lookup` for this geometry set.

        Same computation as :meth:`lookup_reference`, with the component
        loop flattened and all constants inlined.  Folded registers and
        path memos are mutated in place elsewhere, so the embedded
        references stay live.
        """
        path_bits = self._path_bits
        env = {"Lookup": Lookup, "_path": self.path}
        lines = [
            "def fast_lookup(pc):",
            f"    path_raw = _path.value & {(1 << path_bits) - 1}",
            "    word = pc >> 2",
        ]
        n = len(self._components)
        lines += emit_indexing_lines(self._components, path_bits, env)
        index_list = ", ".join(f"i{k}" for k in range(n))
        tag_list = ", ".join(f"t{k}" for k in range(n))
        lines.append(f"    return Lookup(pc, [{index_list}], [{tag_list}])")
        return define("\n".join(lines), env, "fast_lookup")

    def lookup_reference(self, pc: int) -> Lookup:
        """Index every component for *pc* under current history."""
        word = pc >> 2
        indices: list[int] = []
        tags: list[int] = []
        path_bits = self._path_bits
        path_raw = self.path.raw(path_bits)
        for (index_bits, index_mask, word_shift, index_fold,
             tag_mask, tag_fold, tag_fold2, path_memo) in self._components:
            if path_memo[0] == path_raw:
                path_mix = path_memo[1]
            else:
                path_mix = fold_bits(path_raw, path_bits, index_bits)
                path_memo[0] = path_raw
                path_memo[1] = path_mix
            index = (
                word
                ^ (word >> word_shift)
                ^ index_fold.value
                ^ path_mix
            ) & index_mask
            tag = (
                word
                ^ tag_fold.value
                ^ ((tag_fold2.value << 1) if tag_fold2 is not None else 0)
            ) & tag_mask
            indices.append(index)
            tags.append(tag)
        return Lookup(pc, indices, tags)


class UsefulnessMonitor:
    """Periodic graceful reset of TAGE useful bits ([31]).

    Every ``period`` allocation failures, all useful counters are aged by
    one.  Predictors call :meth:`on_allocation_failure` and perform the
    aging themselves through the returned flag.
    """

    def __init__(self, period: int = 512) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._period = period
        self._failures = 0

    def on_allocation_failure(self) -> bool:
        """Record a failed allocation; True when an aging pass is due."""
        self._failures += 1
        if self._failures >= self._period:
            self._failures = 0
            return True
        return False
