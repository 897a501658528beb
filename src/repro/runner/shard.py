"""Deterministic sharding of independent sweep points.

A *sweep* is a list of independent points (seed x noise level x interval x
platform x ...).  Each point becomes a :class:`Shard`: a picklable work
unit carrying its parameters and a per-shard seed derived from the sweep's
root seed.  Shards never share state, so they can run in any order on any
process — the pool merges results back in shard order, which is what makes
parallel output bit-identical to serial output.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError

#: derive_seed returns non-negative seeds below this (63 bits keeps them
#: inside one machine word for ``random.Random`` while staying positive).
SEED_SPACE = 1 << 63


def _canonical(value: Any) -> Any:
    """JSON-compatible canonical form of seed-derivation components."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        # Strictly enums, mirroring results_io._encode: arbitrary objects
        # that happen to expose ``.value`` must not silently canonicalize.
        return _canonical(value.value)
    raise ReproError(
        f"cannot canonicalize {type(value).__name__} for seed/key derivation"
    )


#: Encoded JSON of frozen dataclass values, keyed by ``id``.  Each entry
#: holds the value itself, so the id cannot be reused while it is cached.
#: Never keyed by value: equal configs may still encode differently
#: (``1`` vs ``1.0`` vs ``True``, ``0.0`` vs ``-0.0``).
_FROZEN_MEMO: Dict[int, Tuple[Any, str]] = {}
_FROZEN_MEMO_MAX = 512
#: Per frozen dataclass type: its field names, or None when it must take
#: the reference path (a field named like the type marker would collide).
_FROZEN_FIELDS: Dict[type, Optional[Tuple[str, ...]]] = {}
_encode_str = json.encoder.encode_basestring_ascii


def _frozen_fields(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FROZEN_FIELDS[cls]
    except KeyError:
        pass
    params = getattr(cls, "__dataclass_params__", None)
    names: Optional[Tuple[str, ...]] = None
    if params is not None and params.frozen:
        names = tuple(f.name for f in dataclasses.fields(cls))
        if "__dataclass__" in names:
            names = None
    _FROZEN_FIELDS[cls] = names
    return names


def _encode(value: Any) -> Tuple[str, bool]:
    """``(json, immutable)`` for ``value``; the JSON is :func:`canonical_json`'s.

    Exact builtin types are encoded directly; frozen dataclasses are
    memoised when everything they hold is immutable.  Anything else
    (enums, subclasses of builtins, non-frozen dataclasses, dicts whose
    keys collide under ``str``) is delegated to the reference encoder —
    JSON encoding is compositional, so its fragment splices in as is.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value), True
    if kind is int:
        return int.__repr__(value), True
    if kind is float:
        if value != value:
            return "NaN", True
        if value == math.inf:
            return "Infinity", True
        if value == -math.inf:
            return "-Infinity", True
        return float.__repr__(value), True
    if kind is bool:
        return ("true" if value else "false"), True
    if value is None:
        return "null", True
    if kind is list or kind is tuple:
        parts = [_encode(item) for item in value]
        return (
            "[" + ",".join(text for text, _ in parts) + "]",
            kind is tuple and all(frozen for _, frozen in parts),
        )
    if kind is dict:
        named = {str(key): item for key, item in value.items()}
        if len(named) == len(value):
            return (
                "{" + ",".join([
                    _encode_str(key) + ":" + _encode(named[key])[0]
                    for key in sorted(named)
                ]) + "}",
                False,
            )
    elif not isinstance(value, type):
        names = _frozen_fields(kind)
        if names is not None:
            cached = _FROZEN_MEMO.get(id(value))
            if cached is not None and cached[0] is value:
                return cached[1], True
            parts = [("__dataclass__", _encode_str(kind.__name__), True)]
            parts.extend((name, *_encode(getattr(value, name))) for name in names)
            parts.sort(key=lambda part: part[0])
            text = "{" + ",".join(
                _encode_str(name) + ":" + encoded for name, encoded, _ in parts
            ) + "}"
            immutable = all(frozen for _, _, frozen in parts)
            if immutable:
                if len(_FROZEN_MEMO) >= _FROZEN_MEMO_MAX:
                    _FROZEN_MEMO.clear()
                _FROZEN_MEMO[id(value)] = (value, text)
            return text, immutable
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":")), False


def canonical_json(value: Any) -> str:
    """Stable JSON encoding used for seed derivation and cache keys.

    Byte-identical to ``json.dumps(_canonical(value), sort_keys=True,
    separators=(",", ":"))``; a platform config carried in every shard's
    params is encoded once per object rather than once per call.
    """
    return _encode(value)[0]


def derive_seed(root_seed: int, *components: Any) -> int:
    """A deterministic per-shard seed from the root seed plus components.

    SHA-256 over the canonical JSON of ``[root_seed, *components]``,
    truncated to 63 bits.  Stable across processes, platforms, and Python
    versions (unlike ``hash()``), so a shard computes the same seed whether
    it runs serially, in a worker process, or in a resumed run.
    """
    material = canonical_json([root_seed, *components])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % SEED_SPACE


@dataclass(frozen=True)
class Shard:
    """One independent sweep point: parameters plus a derived seed.

    ``params`` is the worker's entire input; it must be picklable (it
    crosses the process boundary) and canonicalizable (it feeds the result
    cache key).  ``seed`` is free for workers that need per-point
    randomness beyond the seeds already embedded in ``params``.
    """

    index: int
    seed: int
    params: Dict[str, Any] = field(default_factory=dict)


def make_shards(root_seed: int, param_sets: Sequence[Mapping[str, Any]]) -> List[Shard]:
    """Shards for ``param_sets``, in order, with derived per-shard seeds."""
    return [
        Shard(index=i, seed=derive_seed(root_seed, i), params=dict(params))
        for i, params in enumerate(param_sets)
    ]


def make_content_shards(
    root_seed: int,
    param_sets: Sequence[Mapping[str, Any]],
    seed_keys: Optional[Sequence[str]] = None,
) -> List[Shard]:
    """Shards whose seeds derive from their *content*, not their position.

    Grid sweeps seed shards by index (:func:`make_shards`) — fine when the
    grid is fixed up front.  Adaptive drivers (:mod:`repro.search`)
    re-batch the same point into different rounds and positions, so a
    positional seed would make one candidate's result depend on *when* the
    search tried it.  Here ``seed = derive_seed(root_seed, content)`` where
    *content* is the params restricted to ``seed_keys`` (default: every
    param): the same candidate gets the same seed — and therefore the same
    simulated result — wherever it appears.  ``seed_keys`` lets callers
    exclude bookkeeping params (e.g. a search round number) that must not
    perturb the physics.  Indices stay positional; they only order the
    merge within one batch.
    """
    shards = []
    for i, params in enumerate(param_sets):
        params = dict(params)
        if seed_keys is None:
            content: Dict[str, Any] = params
        else:
            try:
                content = {key: params[key] for key in seed_keys}
            except KeyError as missing:
                raise ReproError(
                    f"param set {i} is missing seed key {missing}"
                ) from None
        shards.append(
            Shard(index=i, seed=derive_seed(root_seed, content), params=params)
        )
    return shards
