"""Circuit sources — where a spec's circuit comes from.

A :class:`~repro.api.spec.PipelineSpec` references its circuit through a
*circuit ref*: a JSON-safe value that crosses the wire to worker processes
exactly like every other spec field.  Four source kinds are supported:

``builtin``
    A benchmark-registry key (``"s1"``, ``"c6288"``, ...).  Wire form: the
    plain string (the seed's original ref format).
``inline``
    A netlist dict (:meth:`repro.circuit.netlist.Circuit.to_dict`).  Wire
    form: the plain dict (also the seed's original format).
``file``
    A ``.bench`` netlist — either a path resolved at build time
    (``{"kind": "file", "path": "c17.bench"}``, for workers sharing a
    filesystem) or the netlist text carried inside the ref
    (``{"kind": "file", "text": "...", "name": "c17"}``, fully
    self-contained).
``generator``
    A seeded synthetic netlist (``{"kind": "generator", "n_inputs": ...,
    "n_gates": ..., ...}`` — see :class:`repro.circuits.generator.GeneratorSpec`).

:class:`CircuitSource` is the typed resolver: ``from_ref`` parses any ref
(including the two legacy plain forms), ``to_ref`` emits the canonical wire
form, ``build()`` materializes the :class:`~repro.circuit.netlist.Circuit`.
Both legacy plain forms stay first-class so every pre-existing spec file and
artifact keeps validating unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..circuit.bench import parse_bench, parse_bench_file
from ..circuit.netlist import Circuit
from .generator import GeneratorSpec

__all__ = ["CircuitSource", "SOURCE_KINDS", "normalize_circuit_ref"]

#: The supported source kinds, in documentation order.
SOURCE_KINDS = ("builtin", "file", "inline", "generator")


@dataclass(frozen=True)
class CircuitSource:
    """One resolved circuit reference (construct via the classmethods)."""

    kind: str
    key: Optional[str] = None                 # builtin
    path: Optional[str] = None                # file (path form)
    text: Optional[str] = None                # file (text form)
    name: Optional[str] = None                # file (text form) circuit name
    netlist: Optional[Mapping[str, Any]] = None  # inline
    generator: Optional[GeneratorSpec] = None    # generator

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def builtin(cls, key: str) -> "CircuitSource":
        """A benchmark-registry circuit by key (case insensitive).

        The key is kept as spelled, so its wire form and the spec hash do
        not change; an unknown key is a ``ValueError`` here, not a failed
        build later.
        """
        if not isinstance(key, str) or not key:
            raise ValueError(f"registry circuit reference must be a non-empty key, got {key!r}")
        from .registry import circuit_keys, get_entry

        if get_entry(key) is None:
            raise ValueError(
                f"unknown benchmark circuit {key!r}; available: {', '.join(circuit_keys())}"
            )
        return cls(kind="builtin", key=key)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CircuitSource":
        """A ``.bench`` netlist file, resolved (and re-read) at build time."""
        path = str(path)
        if not path:
            raise ValueError("file circuit reference needs a non-empty path")
        return cls(kind="file", path=path)

    @classmethod
    def from_text(cls, text: str, name: str = "bench_circuit") -> "CircuitSource":
        """Inline ``.bench`` netlist text (self-contained on the wire)."""
        if not isinstance(text, str) or not text.strip():
            raise ValueError("file circuit reference needs non-empty netlist text")
        return cls(kind="file", text=text, name=str(name))

    @classmethod
    def inline(cls, netlist: Union[Circuit, Mapping[str, Any]]) -> "CircuitSource":
        """An inline netlist dict (or a circuit, converted via ``to_dict``).

        A dict is checked whole, as :meth:`Circuit.from_dict` checks it, so a
        malformed netlist fails here (a ``CircuitError``) and not at build.
        """
        if isinstance(netlist, Circuit):
            return cls(kind="inline", netlist=netlist.to_dict())
        if not isinstance(netlist, Mapping):
            raise ValueError(
                f"inline circuit reference must be a netlist dict, got {type(netlist).__name__}"
            )
        Circuit.from_dict(dict(netlist))
        return cls(kind="inline", netlist=dict(netlist))

    @classmethod
    def generated(cls, spec: Union[GeneratorSpec, Mapping[str, Any]]) -> "CircuitSource":
        """A seeded synthetic netlist (see :class:`GeneratorSpec`)."""
        if not isinstance(spec, GeneratorSpec):
            spec = GeneratorSpec.from_dict(spec)
        return cls(kind="generator", generator=spec)

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #
    @classmethod
    def from_ref(
        cls, ref: Union[str, Mapping[str, Any], Circuit, "CircuitSource"]
    ) -> "CircuitSource":
        """Parse any circuit ref (wire forms, legacy forms, rich objects).

        Raises ``ValueError`` on malformed refs — unknown ``kind`` values,
        unknown fields, or a netlist dict missing required fields.
        """
        if isinstance(ref, CircuitSource):
            return ref
        if isinstance(ref, Circuit):
            return cls.inline(ref)
        if isinstance(ref, str):
            return cls.builtin(ref)
        if not isinstance(ref, Mapping):
            raise ValueError(
                "circuit must be a registry key (str), a netlist dict, or a "
                f"source dict with a 'kind' field, got {type(ref).__name__}"
            )
        if "kind" not in ref:
            return cls.inline(ref)  # legacy inline netlist dict
        kind = ref["kind"]
        fields = set(ref) - {"kind"}
        if kind == "builtin":
            if fields != {"key"}:
                raise ValueError(
                    f"builtin source ref must have exactly a 'key' field, got {sorted(fields)}"
                )
            return cls.builtin(ref["key"])
        if kind == "file":
            unknown = fields - {"path", "text", "name"}
            if unknown:
                raise ValueError(f"file source ref has unknown fields: {sorted(unknown)}")
            has_path, has_text = "path" in ref, "text" in ref
            if has_path == has_text:
                raise ValueError("file source ref needs exactly one of 'path' or 'text'")
            if has_path:
                if "name" in ref:
                    raise ValueError("file source ref with 'path' takes no 'name' (the file stem is used)")
                return cls.from_file(ref["path"])
            return cls.from_text(ref["text"], name=ref.get("name") or "bench_circuit")
        if kind == "inline":
            if fields != {"netlist"}:
                raise ValueError(
                    f"inline source ref must have exactly a 'netlist' field, got {sorted(fields)}"
                )
            return cls.inline(ref["netlist"])
        if kind == "generator":
            return cls.generated({name: ref[name] for name in fields})
        raise ValueError(f"unknown circuit source kind {kind!r}; expected one of {SOURCE_KINDS}")

    def to_ref(self) -> Union[str, Dict[str, Any]]:
        """The canonical JSON wire form of this source.

        ``builtin`` and ``inline`` emit the legacy plain forms (a bare
        string / a bare netlist dict) so specs written before source dicts
        existed stay byte-identical on the wire.
        """
        if self.kind == "builtin":
            return self.key
        if self.kind == "inline":
            return dict(self.netlist)
        if self.kind == "file":
            if self.path is not None:
                return {"kind": "file", "path": self.path}
            return {"kind": "file", "text": self.text, "name": self.name}
        return {"kind": "generator", **self.generator.to_dict()}

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    @property
    def label(self) -> str:
        """Default artifact label when the spec sets no explicit key."""
        if self.kind == "builtin":
            return self.key
        if self.kind == "inline":
            return str(self.netlist.get("name") or "circuit")
        if self.kind == "file":
            return Path(self.path).stem if self.path is not None else self.name
        return self.generator.name

    def build(self) -> Circuit:
        """Materialize the referenced circuit."""
        if self.kind == "builtin":
            from .registry import build_circuit

            return build_circuit(self.key)
        if self.kind == "inline":
            return Circuit.from_dict(dict(self.netlist))
        if self.kind == "file":
            if self.path is not None:
                return parse_bench_file(self.path)
            return parse_bench(self.text, name=self.name)
        return self.generator.generate()


def normalize_circuit_ref(
    ref: Union[str, Mapping[str, Any], Circuit, CircuitSource],
) -> Union[str, Dict[str, Any]]:
    """Validate any circuit ref and return its canonical wire form.

    Used by :class:`~repro.api.spec.PipelineSpec` on construction, so a spec
    built from a rich object (a :class:`CircuitSource`, a
    :class:`~repro.circuit.netlist.Circuit`) holds the same plain value it
    would after a JSON round trip.
    """
    return CircuitSource.from_ref(ref).to_ref()
