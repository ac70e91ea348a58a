"""Microarchitectural checkpoint capture/restore (DESIGN.md §8).

A sampled run spends its warm-up entirely in functional warming; the
state that warming produces — predictor tables, cache/TLB/DRAM state,
history registers, pairing FIFOs, RNG streams — is a pure function of
``(benchmark, seed, warm-up length, mechanism + core configuration,
workload code)``.  This module snapshots that state into a picklable
tree of primitives so the trace store can persist it content-addressed
alongside traces, and later runs restore it instead of re-warming.

Capture walks the object graph generically (``__dict__``/``__slots__``),
recording primitives and containers and skipping anything immutable or
derived: callables (the code-generated fast paths), frozen-dataclass
configurations and enums.  A sequence holding only primitives — the
flat predictor tables, tens of thousands of entries each, the cache
sets, the pairing deques — is one bulk ``"V"`` node rather than a node
per element.  Restore walks the *live* graph of a freshly constructed
pipeline in lockstep and writes values **in place** — table lists (one
slice assignment per bulk node), folded registers and memo dicts keep
their identity, which is essential because the generated fast paths
close over those exact objects.  Shared objects (the global history is
referenced by the branch unit, the distance predictor and D-VTAGE
alike) are captured once and matched by traversal position, which is
deterministic on both sides.

Any structural mismatch — a different geometry, a renamed attribute, a
foreign payload — raises :class:`CheckpointError`; callers treat that as
a cache miss and fall back to warming from scratch.
"""

from __future__ import annotations

import dataclasses
import enum
from array import array
from collections import deque

#: Bump when the snapshot encoding changes; readers reject other formats.
#: 2: sequences of primitives are bulk ``"V"`` nodes.
CHECKPOINT_FORMAT = 2

_LEAF_TYPES = (bool, int, float, str, bytes, type(None))
#: Exact types a bulk node may hold (no subclasses such as ``IntEnum``).
_BULK_TYPES = frozenset(_LEAF_TYPES)

_SEQUENCE_KINDS = {
    list: "L", tuple: "T", set: "S", frozenset: "FS", deque: "Q",
}
#: Bulk-node constructors by container kind (deques also take a maxlen).
_BULK_BUILDERS = {"L": list, "T": tuple, "S": set, "FS": frozenset}

#: Restore-side sentinel: "restored in place / keep the live value".
_KEEP = object()


class CheckpointError(RuntimeError):
    """A checkpoint payload cannot be applied to this pipeline."""


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def _slot_names(obj) -> list[str]:
    names: list[str] = []
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__"):
                names.append(name)
    return names


def _attr_items(obj):
    seen = set()
    instance_dict = getattr(obj, "__dict__", None)
    if instance_dict is not None:
        for name, value in instance_dict.items():
            seen.add(name)
            yield name, value
    for name in _slot_names(obj):
        if name in seen or not hasattr(obj, name):
            continue
        seen.add(name)
        yield name, getattr(obj, name)


def _impure(snap) -> bool:
    """True iff *snap* references live objects (needs lockstep restore)."""
    return isinstance(snap, dict) and (
        snap["k"] in ("O", "R", "X") or bool(snap.get("o"))
    )


def _capture(value, memo: dict[int, int]):
    if isinstance(value, _LEAF_TYPES):
        return value
    if isinstance(value, enum.Enum) or callable(value):
        return {"k": "X"}
    if dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        # Immutable configuration: identical on the restore side by
        # construction (the checkpoint key covers it).
        return {"k": "X"}
    if isinstance(value, array):
        return {"k": "A", "t": value.typecode, "b": value.tobytes()}
    if isinstance(value, (list, tuple, set, frozenset, deque)):
        kind = _SEQUENCE_KINDS[type(value)]
        if set(map(type, value)) <= _BULK_TYPES:
            # Primitives only: one node, rebuilt by one C-level call.
            node = {"k": "V", "t": kind, "v": list(value)}
        else:
            items = [_capture(item, memo) for item in value]
            node = {"k": kind, "v": items, "o": any(map(_impure, items))}
        if kind == "Q":
            node["m"] = value.maxlen
        return node
    if isinstance(value, dict):
        entries = []
        impure = False
        for key, val in value.items():
            ksnap = _capture(key, memo)
            if _impure(ksnap):
                raise CheckpointError("object-valued dict key")
            vsnap = _capture(val, memo)
            impure = impure or _impure(vsnap)
            entries.append((ksnap, vsnap))
        return {"k": "D", "v": entries, "o": impure}
    # Generic object: capture once, reference thereafter.
    ident = memo.get(id(value))
    if ident is not None:
        return {"k": "R", "id": ident}
    ident = len(memo)
    memo[id(value)] = ident
    attrs = {
        name: _capture(attr, memo)
        for name, attr in _attr_items(value)
        if not callable(attr)
    }
    return {"k": "O", "id": ident, "c": type(value).__name__, "a": attrs}


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------


def _build(snap):
    """Construct a fresh value from a *pure* snapshot node."""
    if not isinstance(snap, dict):
        return snap
    kind = snap["k"]
    if kind == "A":
        return array(snap["t"], snap["b"])
    if kind == "V":
        if snap["t"] == "Q":
            return deque(snap["v"], snap["m"])
        return _BULK_BUILDERS[snap["t"]](snap["v"])
    if kind == "L":
        return [_build(item) for item in snap["v"]]
    if kind == "T":
        return tuple(_build(item) for item in snap["v"])
    if kind == "S":
        return {_build(item) for item in snap["v"]}
    if kind == "FS":
        return frozenset(_build(item) for item in snap["v"])
    if kind == "Q":
        return deque((_build(item) for item in snap["v"]), snap["m"])
    if kind == "D":
        return {_build(k): _build(v) for k, v in snap["v"]}
    raise CheckpointError(f"cannot build impure node {kind!r}")


def _restore(live, snap, restored: set[int]):
    """Apply *snap* over *live*; returns ``_KEEP`` or a fresh value."""
    if not isinstance(snap, dict):
        return snap
    kind = snap["k"]
    if kind in ("X", "R"):
        return _KEEP
    if kind == "O":
        ident = snap["id"]
        if ident not in restored:
            restored.add(ident)
            if type(live).__name__ != snap["c"]:
                raise CheckpointError(
                    f"object mismatch: live {type(live).__name__}, "
                    f"snapshot {snap['c']}"
                )
            for name, vsnap in snap["a"].items():
                if not hasattr(live, name):
                    raise CheckpointError(f"missing attribute {name!r}")
                new = _restore(getattr(live, name), vsnap, restored)
                if new is not _KEEP:
                    setattr(live, name, new)
        return _KEEP
    if kind == "A":
        return array(snap["t"], snap["b"])
    if kind == "V":
        container = snap["t"]
        if container == "L" and isinstance(live, list):
            live[:] = snap["v"]  # one copy; the list keeps its identity
            return _KEEP
        if container == "Q" and isinstance(live, deque):
            live.clear()
            live.extend(snap["v"])
            return _KEEP
        if container == "S" and isinstance(live, set):
            live.clear()
            live.update(snap["v"])
            return _KEEP
        return _build(snap)
    if kind == "L":
        items = snap["v"]
        if isinstance(live, list) and len(live) == len(items):
            # Construction-shaped list: restore element-wise in place so
            # nested lists keep their identity (generated code closes
            # over them).
            for position, isnap in enumerate(items):
                new = _restore(live[position], isnap, restored)
                if new is not _KEEP:
                    live[position] = new
            return _KEEP
        if snap["o"]:
            raise CheckpointError("shape drift in object-bearing list")
        if isinstance(live, list):
            live[:] = [_build(item) for item in items]
            return _KEEP
        return [_build(item) for item in items]
    if kind == "T":
        items = snap["v"]
        if not snap["o"]:
            return tuple(_build(item) for item in items)
        if not isinstance(live, tuple) or len(live) != len(items):
            raise CheckpointError("tuple shape drift")
        for vlive, vsnap in zip(live, items):
            new = _restore(vlive, vsnap, restored)
            if new is not _KEEP and new != vlive:
                raise CheckpointError("leaf drift inside immutable tuple")
        return _KEEP
    if kind == "D":
        entries = snap["v"]
        if isinstance(live, dict):
            if snap["o"]:
                # Construction-shaped object dict: lockstep by key.
                for ksnap, vsnap in entries:
                    key = _build(ksnap)
                    if key not in live:
                        raise CheckpointError(f"missing dict key {key!r}")
                    new = _restore(live[key], vsnap, restored)
                    if new is not _KEEP:
                        live[key] = new
                return _KEEP
            live.clear()
            for ksnap, vsnap in entries:
                live[_build(ksnap)] = _build(vsnap)
            return _KEEP
        if snap["o"]:
            raise CheckpointError("object dict without live counterpart")
        return {_build(k): _build(v) for k, v in entries}
    if kind in ("S", "FS", "Q"):
        if snap["o"]:
            raise CheckpointError(f"objects inside {kind} container")
        if kind == "Q" and isinstance(live, deque):
            live.clear()
            live.extend(_build(item) for item in snap["v"])
            return _KEEP
        if kind == "S" and isinstance(live, set):
            live.clear()
            live.update(_build(item) for item in snap["v"])
            return _KEEP
        return _build(snap)
    raise CheckpointError(f"unknown snapshot node {kind!r}")


# ---------------------------------------------------------------------------
# Pipeline-level API
# ---------------------------------------------------------------------------


def warm_state_roots(pipeline) -> dict:
    """The stateful structures functional warming trains, by name.

    Insertion order is the traversal order, which must be identical at
    capture and restore for shared-object references to pair up.
    """
    roots = {
        "history": pipeline.history,
        "path": pipeline.path,
        "branch_unit": pipeline.branch_unit,
        "hierarchy": pipeline.hierarchy,
    }
    if pipeline.rsep is not None:
        roots["rsep"] = pipeline.rsep
    if pipeline.vp is not None:
        roots["vp"] = pipeline.vp
    if pipeline.zero_predictor is not None:
        roots["zero_predictor"] = pipeline.zero_predictor
    return roots


def capture_checkpoint(pipeline) -> dict:
    """Snapshot the warmed state (plus cursor and clock) of *pipeline*."""
    memo: dict[int, int] = {}
    return {
        "format": CHECKPOINT_FORMAT,
        "cursor": pipeline._cursor,
        "cycle": pipeline.cycle,
        "roots": {
            name: _capture(obj, memo)
            for name, obj in warm_state_roots(pipeline).items()
        },
    }


def restore_checkpoint(pipeline, payload: dict) -> None:
    """Apply a captured checkpoint to a freshly constructed *pipeline*.

    Raises :class:`CheckpointError` on any mismatch; the pipeline may be
    partially mutated in that case and must be discarded by the caller.
    """
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {payload.get('format')!r}"
        )
    roots = warm_state_roots(pipeline)
    snaps = payload.get("roots")
    if not isinstance(snaps, dict) or set(snaps) != set(roots):
        raise CheckpointError("checkpoint roots do not match this pipeline")
    restored: set[int] = set()
    for name, obj in roots.items():
        _restore(obj, snaps[name], restored)
    # Capture skips callables, so the history's generated push closure
    # was not restored — but its paired dirty flag was.  Re-arm the flag
    # so the closure regenerates on first use.
    pipeline.history._push_dirty = True
    # The element-wise restore just rewrote predictor tables (and wrote
    # back a captured table version that may already tag memo entries);
    # re-stamp with a globally fresh version so the fast-predict memo
    # can never serve a pre-restore prediction.
    rsep = pipeline.rsep
    if rsep is not None and hasattr(
        rsep.predictor, "invalidate_prediction_memo"
    ):
        rsep.predictor.invalidate_prediction_memo()
    pipeline.skip_to(payload["cursor"], payload["cycle"])
