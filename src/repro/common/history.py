"""Global branch and path histories with folded views for TAGE indexing.

TAGE-style predictors index each tagged component with a hash of the PC and
a geometrically growing slice of global history.  Recomputing a fold over a
several-hundred-bit history every lookup is wasteful; real designs maintain
*circular shift registers* holding the folded value incrementally.  This
module implements exactly that.
"""

from __future__ import annotations

from repro.common.bitops import fold_bits
from repro.common.codegen import define


class FoldedRegister:
    """Incrementally maintained XOR-fold of the last *history_bits* bits.

    Mirrors the folded-history registers of Seznec's TAGE implementations:
    pushing a bit XORs it in at position 0, rotates, and XORs out the bit
    that falls off the end of the modelled history window.
    """

    __slots__ = ("value", "_history_bits", "_folded_bits", "_out_position")

    def __init__(self, history_bits: int, folded_bits: int) -> None:
        if history_bits < 0 or folded_bits <= 0:
            raise ValueError("invalid fold geometry")
        self.value = 0
        self._history_bits = history_bits
        self._folded_bits = folded_bits
        self._out_position = history_bits % folded_bits if folded_bits else 0

    @property
    def folded_bits(self) -> int:
        return self._folded_bits

    def push(self, new_bit: int, outgoing_bit: int) -> None:
        """Shift *new_bit* in and *outgoing_bit* (aged out) off the fold."""
        mask = (1 << self._folded_bits) - 1
        value = ((self.value << 1) | (new_bit & 1)) & mask
        value ^= (self.value >> (self._folded_bits - 1)) & 1
        value ^= (outgoing_bit & 1) << self._out_position
        self.value = value & mask

    def reset(self) -> None:
        self.value = 0


class GlobalHistory:
    """A bounded global history register with folded views.

    Maintains the raw history (as an integer shift register) plus one folded
    register per (history length, fold width) pair requested by predictors.
    Snapshots are cheap (the raw integer plus folded values), which is what
    checkpoint/restore on squash needs.
    """

    __slots__ = (
        "_bits", "_capacity", "_mask", "_folds", "_fold_hot",
        "_push_fast", "_push_dirty",
    )

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._bits = 0
        self._capacity = capacity
        self._mask = (1 << capacity) - 1
        self._folds: dict[tuple[int, int], FoldedRegister] = {}
        # Per-fold constants for the inlined push loop:
        # (register, history_bits - 1, folded_bits - 1, mask, out_position).
        self._fold_hot: list[tuple] = []
        self._push_fast = None
        self._push_dirty = True

    @property
    def capacity(self) -> int:
        return self._capacity

    def register_fold(self, history_bits: int, folded_bits: int) -> None:
        """Declare that a predictor needs a fold of this geometry."""
        if history_bits > self._capacity:
            raise ValueError(
                f"history_bits {history_bits} exceeds capacity {self._capacity}"
            )
        key = (history_bits, folded_bits)
        if key not in self._folds:
            fold = FoldedRegister(history_bits, folded_bits)
            self._folds[key] = fold
            self._fold_hot.append((
                fold,
                history_bits - 1,
                folded_bits - 1,
                (1 << folded_bits) - 1,
                fold._out_position,
            ))
            self._push_dirty = True

    def push(self, bit: int) -> None:
        """Record one branch outcome (1 = taken).

        The per-fold update (see :meth:`FoldedRegister.push`) runs once
        per fetched branch over every registered geometry — one of the
        simulator's hottest loops, so it is code-generated fully unrolled
        (regenerated whenever a new fold is registered).
        """
        if self._push_dirty:
            self._push_fast = self._build_fast_push()
            self._push_dirty = False
        self._push_fast(bit)

    def _build_fast_push(self):
        """Generate the unrolled push body for the registered folds."""
        env = {"_h": self}
        lines = [
            "def fast_push(bit):",
            "    bit &= 1",
            "    bits = _h._bits",
        ]
        for j, (fold, shift_out, fold_top, mask, out_position) in enumerate(
                self._fold_hot):
            env[f"_f{j}"] = fold
            lines += [
                f"    v = _f{j}.value",
                f"    n = ((v << 1) | bit) & {mask}",
                f"    n ^= (v >> {fold_top}) & 1",
            ]
            if shift_out >= 0:
                lines.append(
                    f"    n ^= ((bits >> {shift_out}) & 1) << {out_position}"
                )
            lines.append(f"    _f{j}.value = n")
        lines.append(f"    _h._bits = ((bits << 1) | bit) & {self._mask}")
        return define("\n".join(lines), env, "fast_push")

    def folded(self, history_bits: int, folded_bits: int) -> int:
        """Return the folded value for a registered geometry."""
        return self._folds[(history_bits, folded_bits)].value

    def fold_register(self, history_bits: int,
                      folded_bits: int) -> FoldedRegister:
        """The live :class:`FoldedRegister` for a registered geometry.

        The register object is stable for the lifetime of the history
        (push/restore/reset mutate it in place), so indexers may cache the
        reference and read ``.value`` directly on their hot path.
        """
        return self._folds[(history_bits, folded_bits)]

    def raw(self, bits: int) -> int:
        """Return the youngest *bits* bits of raw history."""
        return self._bits & ((1 << bits) - 1)

    def snapshot(self) -> tuple[int, tuple[int, ...]]:
        """Capture state for checkpoint/restore."""
        return self._bits, tuple(f.value for f in self._folds.values())

    def restore(self, snapshot: tuple[int, tuple[int, ...]]) -> None:
        """Restore a snapshot taken by :meth:`snapshot`."""
        bits, fold_values = snapshot
        self._bits = bits
        for fold, value in zip(self._folds.values(), fold_values):
            fold.value = value

    def snapshot_raw(self) -> int:
        """O(1) checkpoint: the raw shift register alone.

        Every folded register is a pure XOR-fold of its window of the raw
        history (each bit of age ``i`` contributes at folded position
        ``i % folded_bits`` — exactly :func:`repro.common.bitops.fold_bits`
        of the window), so the raw bits determine all fold values and
        :meth:`restore_raw` can rebuild them.  Taking the checkpoint is a
        single int reference — the lazy-snapshot fast path for the fetch
        stage, which checkpoints on *every* fetched branch while restores
        happen only on the (much rarer) squashes.
        """
        return self._bits

    def restore_raw(self, bits: int) -> None:
        """Restore from :meth:`snapshot_raw`, recomputing every fold."""
        self._bits = bits
        for (history_bits, folded_bits), fold in self._folds.items():
            fold.value = fold_bits(
                bits & ((1 << history_bits) - 1), history_bits, folded_bits
            )

    def reset(self) -> None:
        self._bits = 0
        for fold in self._folds.values():
            fold.reset()


class PathHistory:
    """Low-order-PC path history (a few bits per taken branch)."""

    __slots__ = ("value", "_capacity_bits")

    def __init__(self, capacity_bits: int = 32) -> None:
        self.value = 0
        self._capacity_bits = capacity_bits

    def push(self, pc: int) -> None:
        """Record one bit of path information from a branch PC."""
        bit = (pc >> 2) & 1
        self.value = ((self.value << 1) | bit) & ((1 << self._capacity_bits) - 1)

    def raw(self, bits: int) -> int:
        return self.value & ((1 << bits) - 1)

    def snapshot(self) -> int:
        return self.value

    def restore(self, snapshot: int) -> None:
        self.value = snapshot

    def reset(self) -> None:
        self.value = 0
