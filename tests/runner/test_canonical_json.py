"""``canonical_json`` is byte-identical to the reference encoder.

Cache keys, derived seeds and store fingerprints all hash this encoding,
so any byte it moves invalidates every cached result and every recorded
history.  The reference below is the encoder as it stood before frozen
dataclass values were memoised; the pinned values further down were
computed with it.
"""

import dataclasses
import enum
import json
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SKYLAKE
from repro.errors import ReproError
from repro.experiments.insertion_sweep import run_insertion_sweep
from repro.runner import FRESH, ResultCache, canonical_json, derive_seed
from repro.sim.machine import Machine
from repro.store import CampaignStore


def _reference_form(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: _reference_form(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): _reference_form(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_reference_form(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, enum.Enum):
        return _reference_form(value.value)
    raise ReproError(f"cannot canonicalize {type(value).__name__}")


def reference(value: Any) -> str:
    return json.dumps(_reference_form(value), sort_keys=True, separators=(",", ":"))


class Color(enum.Enum):
    RED = "red"
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


@dataclasses.dataclass(frozen=True)
class Frozen:
    a: Any
    b: Any = None


@dataclasses.dataclass
class Loose:
    a: Any
    b: Any = None


@dataclasses.dataclass(frozen=True)
class Marker:
    """A field that collides with the encoder's type marker."""

    __dataclass__: Any = "shadow"
    x: Any = 0


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1, True]),
    st.text(max_size=8),
    st.sampled_from(list(Color) + list(Level)),
)
keys = st.one_of(
    st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
    st.sampled_from([1.0, "1", "True", "None"]),
)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.builds(Frozen, children, children),
        st.builds(Loose, children, children),
        st.builds(Marker, children, children),
    )


values = st.recursive(leaves, _extend, max_leaves=24)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(values)
    def test_byte_identical(self, value):
        expected = reference(value)
        assert canonical_json(value) == expected
        assert canonical_json(value) == expected  # memoised second call
        assert canonical_json([value, value]) == f"[{expected},{expected}]"

    def test_platform_config(self):
        params = {"config": SKYLAKE, "machine_seed": 3, "engine": "batch"}
        for _ in range(2):
            assert canonical_json(params) == reference(params)
            assert canonical_json(SKYLAKE) == reference(SKYLAKE)

    def test_opaque_objects_still_rejected(self):
        for value in (object(), Frozen(object()), {"k": [object()]}):
            try:
                canonical_json(value)
            except ReproError:
                continue
            raise AssertionError(f"{value!r} was canonicalized")


class TestEqualValuesEncodeApart:
    """Equal frozen values must never share a memoised encoding."""

    def test_int_float_bool_fields(self):
        variants = [Frozen(1), Frozen(1.0), Frozen(True)]
        assert variants[0] == variants[1] == variants[2]
        encoded = [canonical_json(v) for v in variants]
        assert encoded == [reference(v) for v in variants]
        assert len(set(encoded)) == 3

    def test_signed_zero(self):
        plus, minus = Frozen(0.0), Frozen(-0.0)
        assert plus == minus and hash(plus) == hash(minus)
        assert canonical_json(plus) != canonical_json(minus)
        assert canonical_json(minus) == reference(minus)

    def test_equal_platform_configs(self):
        as_int = dataclasses.replace(SKYLAKE, frequency_hz=int(SKYLAKE.frequency_hz))
        assert as_int == SKYLAKE
        assert canonical_json(SKYLAKE) == reference(SKYLAKE)
        assert canonical_json(as_int) == reference(as_int)
        assert canonical_json(as_int) != canonical_json(SKYLAKE)

    def test_mutable_field_is_not_memoised(self):
        holder = Frozen([1, 2])
        before = canonical_json(holder)
        holder.a.append(3)
        assert canonical_json(holder) == reference(holder) != before


class TestPinnedSweep:
    """Keys, seeds and fingerprint of a small Skylake Fig 2 sweep.

    Pinned from the per-file cache release; a change here invalidates
    every user's result cache and breaks store history comparisons.
    """

    FINGERPRINT = "02705b76632b422216ccad60ac33edc0d551b5712ebf1432127687cba9196ffe"
    KEYS = [
        "470a2637b40aef1095deac2fc758149964b567f46c895cadcd779846c80f4855",
        "5456c465d0c3a58c65a1d6da696c4107e063ae3cae113bed95d373c5552be9db",
        "a2488179f46dc3e561a182d22bb5dbcbc8269b1d86681522753f4b1129915324",
        "4299a1c0c3d183c674a589724d1d43b3968bb31895cad848bb0cdc3b935aae19",
    ]
    SEEDS = [7073951211798661698, 8238810419586620402,
             5773872466739141116, 6765153604371966670]

    def test_keys_seeds_and_fingerprint(self, tmp_path):
        store = CampaignStore(":memory:")
        try:
            run_insertion_sweep(
                lambda: Machine(SKYLAKE, seed=7, backend="batch"),
                positions=range(2), trials=2, seed=11,
                result_cache=ResultCache(tmp_path), engine="batch",
                store=store, runtime=FRESH,
            )
            (run,) = store.runs(f"insertion_sweep/{SKYLAKE.name}")
            rows = store.shard_rows(run.id)
        finally:
            store.close()
        assert run.fingerprint == self.FINGERPRINT
        assert [row.cache_key for row in rows] == self.KEYS
        assert [row.seed for row in rows] == self.SEEDS

    def test_derived_seed_over_a_config(self):
        assert derive_seed(11, {"config": SKYLAKE, "position": 3}) \
            == 7734616316414763755
