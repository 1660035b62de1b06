"""Shared serialization substrate of the job-spec API: one artifact codec.

Every declarative spec and every result artifact in :mod:`repro.api` is a
plain dict that survives ``json.dumps``/``json.loads`` **exactly**:

* numpy arrays are encoded as tagged dicts (``{"__ndarray__": ...}``) whose
  nested-list payload round-trips bit for bit for the integer, boolean and
  IEEE-754 float dtypes used by the reports (Python's ``json`` emits
  shortest-round-trip float literals, so ``float64`` values are preserved
  exactly, not approximately), and a read refuses any other dtype;
* every top-level artifact dict carries a ``kind`` tag (which type to
  rebuild) and a ``schema_version``; decoding validates both and rejects
  unknown fields, so stale or hand-edited artifacts fail loudly instead of
  being silently misread.

Declaring an artifact
---------------------
An artifact is a dataclass decorated with ``@artifact("<kind>")`` (above
``@dataclass``).  Its wire form is its fields, in order, each encoded by its
type hint: ``int``/``bool``/``str`` as themselves, ``float`` as a float (an
``int`` value stays an ``int``), ``Any`` as is, lists, tuples, ``Dict[str,
...]`` and ``Optional`` element by element, ``np.ndarray`` as a tagged
array, another artifact (or a ``Union`` of artifacts, told apart by their
``kind``) as its nested dict.  A read checks each value against its hint.  A
field is required on read exactly when it has no default; every other field
may be absent and then takes its default.  The plan is resolved from the
hints once per class, at the first encode or decode, and ``artifact``
registers the class under its kind in :data:`ARTIFACT_TYPES`, the table
:func:`repro.api.load_artifact` looks kinds up in.

A field's quirks are declared on the field with :func:`wire`:
``required=True`` (required on read although it has a default),
``omit_none=True`` (not written while ``None``), ``dtype=`` (an array cast
to that dtype both ways) and ``codec=(encode, decode)`` (a wire form its
type does not give, such as a fault table's triples, with ``decode(value)``
the inverse of ``encode``).  Wire fields without a
dataclass field are declared on the class: ``constants`` are written with a
fixed value and read back only as an accepted value, ``dropped`` names are
read and discarded.

This module is a leaf (numpy only) so that the result dataclasses across
``repro.core`` / ``repro.faultsim`` / ``repro.patterns`` / ``repro.pipeline``
can use it without import cycles.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import hashlib
import json
import typing
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "VOLATILE_KEYS",
    "ARTIFACT_TYPES",
    "artifact",
    "wire",
    "encode_array",
    "decode_array",
    "tagged_dict",
    "untag",
    "scrub_volatile",
    "canonical_json",
    "content_hash",
]

#: Version of the artifact wire format.  Bump on any incompatible change to a
#: spec or report schema; decoders reject other versions.
SCHEMA_VERSION = 1

#: Artifact keys that describe the machine/process a result was produced on,
#: not the mathematical result.  :func:`scrub_volatile` (and therefore every
#: ``canonical_dict`` and :func:`content_hash`) drops them, so serial,
#: parallel, cross-process and store-served runs of one spec compare equal.
VOLATILE_KEYS = frozenset({"seconds", "cpu_seconds", "lowerings"})

_NDARRAY_TAG = "__ndarray__"


class SchemaError(ValueError):
    """Raised when an artifact dict cannot be decoded safely.

    Covers unknown ``kind`` tags, unsupported ``schema_version`` values,
    missing required fields and unknown (possibly misspelled) fields.
    """


# --------------------------------------------------------------------------- #
# numpy arrays
# --------------------------------------------------------------------------- #
def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Encode a numpy array as a JSON-safe tagged dict (exact round trip)."""
    array = np.asarray(array)
    return {
        _NDARRAY_TAG: True,
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": array.tolist(),
    }


def decode_array(data: Mapping[str, Any]) -> np.ndarray:
    """Rebuild a numpy array from :func:`encode_array` output."""
    if not (isinstance(data, Mapping) and data.get(_NDARRAY_TAG)):
        raise SchemaError(f"expected an encoded ndarray, got {type(data).__name__}")
    unknown = set(data) - {_NDARRAY_TAG, "dtype", "shape", "data"}
    if unknown:
        raise SchemaError(f"encoded ndarray has unknown fields: {sorted(unknown)}")
    try:
        dtype = np.dtype(data["dtype"])
        if not isinstance(data["dtype"], str) or dtype.kind not in "biuf":
            raise ValueError(f"unsupported dtype {data['dtype']!r}")
        array = np.asarray(data["data"], dtype=dtype)
        return array.reshape(tuple(data.get("shape", array.shape)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed encoded ndarray: {exc}") from exc


# --------------------------------------------------------------------------- #
# tagged artifact dicts
# --------------------------------------------------------------------------- #
def tagged_dict(kind: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a payload mapping with the ``kind`` + ``schema_version`` envelope."""
    data: Dict[str, Any] = {"kind": kind, "schema_version": SCHEMA_VERSION}
    for field, value in payload.items():
        if field in data:
            raise ValueError(f"payload field {field!r} collides with the envelope")
        data[field] = value
    return data


def _check_envelope(data: Any, kind: str) -> None:
    if not isinstance(data, Mapping):
        raise SchemaError(f"artifact dict expected, got {type(data).__name__}")
    got_kind = data.get("kind")
    if got_kind != kind:
        raise SchemaError(f"expected artifact kind {kind!r}, got {got_kind!r}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {version!r} for kind {kind!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )


def _check_fields(data: Mapping[str, Any], kind: str, required, allowed) -> None:
    unknown = set(data) - allowed - {"kind", "schema_version"}
    if unknown:
        raise SchemaError(f"artifact kind {kind!r} has unknown fields: {sorted(unknown)}")
    missing = [field for field in required if field not in data]
    if missing:
        raise SchemaError(f"artifact kind {kind!r} is missing fields: {missing}")


def untag(
    data: Mapping[str, Any],
    kind: str,
    required: Iterable[str],
    optional: Sequence[str] = (),
) -> Dict[str, Any]:
    """Validate an artifact envelope and return its payload fields.

    Checks that ``data`` is a mapping of the expected ``kind`` at the
    supported :data:`SCHEMA_VERSION`, that every field in ``required`` is
    present, and that no field outside ``required``/``optional`` appears.
    Missing ``optional`` fields default to ``None`` in the returned payload.
    """
    _check_envelope(data, kind)
    required = list(required)
    _check_fields(data, kind, required, set(required) | set(optional))
    payload = {field: data[field] for field in required}
    for field in optional:
        payload[field] = data.get(field)
    return payload


# --------------------------------------------------------------------------- #
# Declared artifacts
# --------------------------------------------------------------------------- #
#: Artifact kind -> the class that reads it (:func:`artifact` fills it).
ARTIFACT_TYPES: Dict[str, type] = {}

#: A codec: ``(encode(value), decode(wire_value))``.
Codec = Tuple[Callable[[Any], Any], Callable[[Any], Any]]

_MISSING = dataclasses.MISSING


class _Quirks(NamedTuple):
    required: bool = False
    omit_none: bool = False
    dtype: Any = None
    codec: Any = None


def wire(
    default: Any = _MISSING,
    *,
    default_factory: Any = _MISSING,
    required: bool = False,
    omit_none: bool = False,
    dtype: Any = None,
    codec: Any = None,
) -> Any:
    """A dataclass field with wire quirks (see the module docstring)."""
    return dataclasses.field(
        default=default,
        default_factory=default_factory,
        metadata={"wire": _Quirks(required, omit_none, dtype, codec)},
    )


def artifact(
    kind: str,
    constants: Mapping[str, Tuple[Any, Tuple[Any, ...], str]] = {},
    dropped: Tuple[str, ...] = (),
) -> Callable[[type], type]:
    """Class decorator: give a dataclass ``to_dict``/``from_dict`` and
    register it under ``kind``.

    ``constants`` maps a wire field with no dataclass field to ``(the value
    written, the values a read accepts, the error for any other value)``;
    a read also accepts it absent or null.  ``dropped`` names wire fields a
    read accepts with any value and ignores.
    """

    def register(cls: type) -> type:
        if kind in ARTIFACT_TYPES:
            raise ValueError(f"artifact kind {kind!r} is already declared")
        cls._wire = (kind, dict(constants), tuple(dropped))
        cls.to_dict = _to_dict
        cls.from_dict = classmethod(_from_dict)
        ARTIFACT_TYPES[kind] = cls
        return cls

    return register


class _Plan(NamedTuple):
    kind: str
    #: ``(name, encode, decode, omit_none)`` per field, in field order.
    fields: List[Tuple[str, Callable, Callable, bool]]
    required: List[str]
    allowed: frozenset
    constants: Dict[str, Tuple[Any, Tuple[Any, ...], str]]


_PLANS: Dict[type, _Plan] = {}


def _plan(cls: type) -> _Plan:
    """The class's codec plan, resolved from its type hints on first use."""
    plan = _PLANS.get(cls)
    if plan is None:
        kind, constants, dropped = cls._wire
        hints = typing.get_type_hints(cls)
        fields, required = [], []
        for spec in dataclasses.fields(cls):
            quirks = spec.metadata.get("wire", _Quirks())
            if quirks.required or (
                spec.default is _MISSING and spec.default_factory is _MISSING
            ):
                required.append(spec.name)
            encode, decode = _codec(hints[spec.name], quirks)
            fields.append((spec.name, encode, decode, quirks.omit_none))
        allowed = frozenset(name for name, *_ in fields).union(constants, dropped)
        plan = _PLANS[cls] = _Plan(kind, fields, required, allowed, constants)
    return plan


def _to_dict(self) -> Dict[str, Any]:
    """JSON-serializable artifact dict (exact round trip)."""
    plan = _plan(type(self))
    data = {"kind": plan.kind, "schema_version": SCHEMA_VERSION}
    for name, (value, _, _) in plan.constants.items():
        data[name] = value
    for name, encode, _, omit_none in plan.fields:
        value = getattr(self, name)
        if value is not None or not omit_none:
            data[name] = encode(value)
    return data


def _from_dict(cls, data: Mapping[str, Any]) -> Any:
    """Rebuild an artifact from its wire dict, rejecting unknown versions,
    unknown fields, missing required fields and ill-typed values."""
    plan = _plan(cls)
    _check_envelope(data, plan.kind)
    _check_fields(data, plan.kind, plan.required, plan.allowed)
    for name, (_, accepted, message) in plan.constants.items():
        value = data.get(name)
        if value is not None and not any(
            type(value) is type(ok) and value == ok for ok in accepted
        ):
            raise SchemaError(message.format(value))
    fields: Dict[str, Any] = {}
    for name, _, decode, _ in plan.fields:
        if name not in data:
            continue
        try:
            fields[name] = decode(data[name])
        except (TypeError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
            raise SchemaError(f"invalid {plan.kind}.{name}: {exc}") from exc
    try:
        return cls(**fields)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SchemaError(f"invalid {plan.kind} payload: {exc}") from exc


def _expect(value: Any, types: Tuple[type, ...], what: str) -> Any:
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise SchemaError(f"expected {what}, got {type(value).__name__}")
    return value


#: Scalar hint -> (encode, the types a read accepts, their name).
_SCALARS = {
    int: (int, (int,), "an int"),
    float: (lambda value: value if type(value) is int else float(value), (int, float), "a number"),
    bool: (bool, (bool,), "a bool"),
    str: (lambda value: value, (str,), "a str"),
}


def _codec(hint: Any, quirks: _Quirks = _Quirks()) -> Codec:
    """The codec of one type hint, or of the quirk that replaces it."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and type(None) in args:
        rest = tuple(arg for arg in args if arg is not type(None))
        encode, decode = _codec(typing.Union[rest], quirks)
        return (
            lambda value: None if value is None else encode(value),
            lambda value: None if value is None else decode(value),
        )
    if quirks.codec is not None:
        return quirks.codec
    if quirks.dtype is not None:
        dtype = np.dtype(quirks.dtype)
        return (
            lambda value: encode_array(np.asarray(value, dtype=dtype)),
            lambda value: decode_array(value).astype(dtype, copy=False),
        )
    if hint is Any:
        return (lambda value: value), (lambda value: value)
    if hint in _SCALARS:
        encode, types, what = _SCALARS[hint]
        return encode, lambda value: _expect(value, types, what)
    if hint is np.ndarray:
        return encode_array, decode_array
    if origin is typing.Union:
        return _union_codec(args)
    if origin in (list, tuple, collections.abc.Sequence):
        # A fixed-length tuple (``Tuple[float, float]``) holds one item type.
        length = len(args) if origin is tuple and Ellipsis not in args else None
        if length is not None and len(set(args)) != 1:
            raise TypeError(f"no wire codec for the mixed tuple {hint!r}")
        encode, item_decode = _codec(args[0])
        build = tuple if origin is tuple else list

        def decode(value):
            _expect(value, (list, tuple), "a list")
            if length is not None and len(value) != length:
                raise SchemaError(f"expected {length} items, got {len(value)}")
            return build(item_decode(item) for item in value)

        return (lambda value: [encode(item) for item in value]), decode
    if origin is dict:
        encode, item_decode = _codec(args[1])

        def decode_mapping(value):
            _expect(value, (Mapping,), "an object")
            return {
                _expect(key, (str,), "a str key"): item_decode(item)
                for key, item in value.items()
            }

        return (lambda value: {key: encode(item) for key, item in value.items()}), decode_mapping
    if hasattr(hint, "to_dict") and hasattr(hint, "from_dict"):
        return (lambda value: value.to_dict()), hint.from_dict
    raise TypeError(f"no wire codec for type {hint!r}")


def _union_codec(members: Tuple[type, ...]) -> Codec:
    """A union of artifact classes, told apart by their ``kind``."""
    by_kind = {member._wire[0]: member for member in members}

    def encode(value):
        if type(value) not in members:
            raise TypeError(f"{type(value).__name__} is not one of {sorted(by_kind)}")
        return value.to_dict()

    def decode(value):
        kind = value.get("kind") if isinstance(value, Mapping) else None
        if kind not in by_kind:
            raise SchemaError(f"unknown artifact kind {kind!r} (expected one of {sorted(by_kind)})")
        return by_kind[kind].from_dict(value)

    return encode, decode


# --------------------------------------------------------------------------- #
# Canonical forms and content hashes
# --------------------------------------------------------------------------- #
def scrub_volatile(data: Any) -> Any:
    """Recursively drop the wall-clock/process-local keys from an artifact.

    Only *tagged* dicts (artifact envelopes carrying a ``kind``) are
    scrubbed; user-data mappings such as ``weight_map`` — whose keys are
    circuit net names and could legitimately be called ``"seconds"`` — pass
    through untouched.
    """
    if isinstance(data, dict):
        tagged = "kind" in data
        return {
            key: scrub_volatile(value)
            for key, value in data.items()
            if not (tagged and key in VOLATILE_KEYS)
        }
    if isinstance(data, list):
        return [scrub_volatile(item) for item in data]
    return data


def canonical_json(data: Any) -> str:
    """The canonical JSON text of a JSON-safe value.

    Sorted keys, no whitespace — two equal dicts always serialize to the
    same bytes, whatever their insertion order, so this text is a stable
    hashing substrate.  (Floats rely on Python's shortest-round-trip
    ``repr``, which is deterministic across platforms for IEEE-754 doubles.)
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data: Any) -> str:
    """The sha256 hex digest of an artifact's canonical content.

    Volatile fields (:data:`VOLATILE_KEYS` inside tagged dicts) are scrubbed
    first, so timings, CPU seconds and compile counts never perturb the
    hash: two runs of the same spec — or the same spec hashed on different
    machines — address the same content.  This is the identity the
    content-addressed artifact store (:mod:`repro.store`) is keyed by.
    """
    return hashlib.sha256(canonical_json(scrub_volatile(data)).encode("utf-8")).hexdigest()
