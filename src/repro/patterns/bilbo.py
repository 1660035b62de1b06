"""BILBO-style self test session.

Section 5.2 of the paper: "Self test by random patterns is the main goal of the
optimizing approach.  A self test modul similar to the well known BILBO is
presented in [Wu86] and [Wu87]."  A BILBO (built-in logic block observer) is a
register that can act as a pattern generator (LFSR / weighted generator) on the
circuit inputs and as a signature analyser (MISR) on the circuit outputs.

:class:`SelfTestSession` is the one self-test engine.  It plays an ordered
list of pattern sources back to back — the constructor builds the paper's
single source (the block LFSR weighting network with ``use_lfsr=True``, else
the software PRNG), :meth:`SelfTestSession.from_sources` a ``k``-set schedule
— and compacts every response into one signature, compared against the
fault-free golden signature.  Responses, faulty ones included, come from the
shared word-domain engine (:mod:`repro.simulation.compiled`), signatures from
the vectorized :class:`repro.patterns.compiled.CompiledMISR` (the scalar
:class:`repro.patterns.misr.MISR` above 64 bits).

Every pass is a stream, as in the hardware: each source yields chunks of at
most 4096 rows, and each chunk goes through fault-free simulation, optional
fault injection, the signature register and the streamed fault simulation of
:meth:`~SelfTestSession.coverage`, and is then dropped.  A session keeps
nothing whose size grows with the schedule except the golden signature, and
a schedule longer than :data:`MAX_SCHEDULE_PATTERNS` is refused before any
pattern is generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.parallel import FaultSimResult, ParallelFaultSimulator
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.logicsim import pack_patterns, unpack_values
from .compiled import CompiledLfsrWeightedPatternGenerator, CompiledMISR
from .misr import MISR, default_misr_width
from .weighted import WeightedPatternGenerator

__all__ = ["MAX_SCHEDULE_PATTERNS", "SelfTestSession", "SelfTestReport"]

#: Rows per chunk of every streamed pass (``generate_stream``'s default).
_CHUNK = 4096

#: The longest schedule a session plays.  At about 3 s per million
#: patterns on s1 this bounds one playback's time; a pass holds one chunk,
#: so memory is bounded by :data:`_CHUNK` whatever the length.
MAX_SCHEDULE_PATTERNS = 1 << 20


@dataclass
class SelfTestReport:
    """Outcome of one self-test run."""

    circuit_name: str
    n_patterns: int
    signature: int
    golden_signature: int

    @property
    def passed(self) -> bool:
        """True if the signature matches the fault-free reference."""
        return self.signature == self.golden_signature

    def to_dict(self) -> dict:
        """JSON-serializable artifact dict (job-spec API)."""
        from ..api.serialize import tagged_dict

        return tagged_dict(
            "self_test_report",
            {
                "circuit_name": self.circuit_name,
                "n_patterns": int(self.n_patterns),
                "signature": int(self.signature),
                "golden_signature": int(self.golden_signature),
            },
        )

    @classmethod
    def from_dict(cls, data: dict) -> "SelfTestReport":
        """Rebuild a report from :meth:`to_dict` output (validated)."""
        from ..api.serialize import untag

        payload = untag(
            data,
            "self_test_report",
            required=("circuit_name", "n_patterns", "signature", "golden_signature"),
        )
        return cls(
            circuit_name=str(payload["circuit_name"]),
            n_patterns=int(payload["n_patterns"]),
            signature=int(payload["signature"]),
            golden_signature=int(payload["golden_signature"]),
        )


class SelfTestSession:
    """A weighted-random BIST session for a combinational circuit.

    Args:
        circuit: circuit under test.
        weights: per-input probabilities; ``None`` means conventional
            equiprobable patterns.
        n_patterns: test length N, at most :data:`MAX_SCHEDULE_PATTERNS`.
        use_lfsr: if True, patterns come from an LFSR-based weighting network
            (hardware realistic); otherwise from a software PRNG.
        misr_width: signature register width (defaults to a tabulated width
            that holds all primary outputs; a circuit with more outputs than
            the largest tabulated width requires an explicit ``misr_width``
            plus ``misr_taps``).
        misr_taps: optional explicit MISR feedback taps (1-based polynomial
            exponents), required for untabulated widths.
        seed: seed for the pattern source.
    """

    def __init__(
        self,
        circuit: Circuit,
        n_patterns: int,
        weights: Optional[Sequence[float]] = None,
        use_lfsr: bool = False,
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
        seed: int = 1987,
    ):
        weights = list(weights) if weights is not None else [0.5] * circuit.n_inputs
        if len(weights) != circuit.n_inputs:
            raise ValueError("one weight per primary input is required")
        if use_lfsr:
            generator = CompiledLfsrWeightedPatternGenerator(weights, seed=seed)
        else:
            generator = WeightedPatternGenerator(weights, seed=seed)
        self._setup(circuit, [(generator, n_patterns)], misr_width, misr_taps)

    @classmethod
    def from_sources(
        cls,
        circuit: Circuit,
        sources: Sequence[Tuple[object, int]],
        misr_width: Optional[int] = None,
        misr_taps: Optional[Sequence[int]] = None,
    ) -> "SelfTestSession":
        """A session playing ``sources`` — ``(generator, n_patterns)`` pairs —
        in order through one signature register.

        Each generator is any pattern source with ``reset()`` and
        ``generate_stream(n, chunk)`` (software PRNG, LFSR weighting network,
        STUMPS scan delivery).  The register state runs on across source
        boundaries, so the signature is what the hardware holds after the
        last source.
        """
        session = cls.__new__(cls)
        session._setup(circuit, sources, misr_width, misr_taps)
        return session

    def _setup(self, circuit: Circuit, sources, misr_width, misr_taps) -> None:
        self.circuit = circuit
        self.sources: List[Tuple[object, int]] = [(g, int(n)) for g, n in sources]
        self.n_patterns = sum(n for _, n in self.sources)
        if self.n_patterns > MAX_SCHEDULE_PATTERNS:
            from ..api.serialize import SchemaError

            raise SchemaError(
                f"self-test schedule of {self.n_patterns:,} patterns exceeds "
                f"MAX_SCHEDULE_PATTERNS = {MAX_SCHEDULE_PATTERNS:,}; bound a "
                "multi-weight schedule with multi_weight.budget, which no "
                "run/selftest flag sets: pass a --spec file whose spec has "
                '"multi_weight": {"budget": N}'
            )
        if misr_width is None:
            misr_width = default_misr_width(circuit.n_outputs)
        self.misr_width = misr_width
        self.misr_taps = tuple(misr_taps) if misr_taps is not None else None
        self._engine: CompiledCircuit = compile_circuit(circuit)
        self._golden: Optional[int] = None

    # ------------------------------------------------------------------ #
    def _fresh_misr(self) -> Union[CompiledMISR, MISR]:
        """A zero-seeded signature register (vectorized when width <= 64)."""
        if self.misr_width <= 64:
            return CompiledMISR(self.misr_width, taps=self.misr_taps)
        return MISR(self.misr_width, taps=self.misr_taps)

    def pattern_chunks(self) -> Iterator[np.ndarray]:
        """The schedule's patterns in play order, as matrices of at most
        4096 rows that restart at every source boundary.

        Every call restarts each source from its seed, so every pass plays
        the same stream.
        """
        for generator, n_patterns in self.sources:
            generator.reset()
            yield from generator.generate_stream(n_patterns, _CHUNK)

    def _play(
        self,
        fault: Optional[Fault] = None,
        faulty: Optional[Union[CompiledMISR, MISR]] = None,
    ) -> Iterator[np.ndarray]:
        """The one chunk loop behind every pass.

        Each chunk is simulated fault-free; its responses go into the golden
        register while the golden signature is unknown and, with ``fault``
        injected, into ``faulty``; then the chunk is yielded and dropped.
        Exhausting the loop caches the golden signature.
        """
        golden = self._fresh_misr() if self._golden is None else None
        for chunk in self.pattern_chunks():
            if golden is not None or faulty is not None:
                good = self._engine.simulate_words(pack_patterns(chunk))
                if golden is not None:
                    golden.compact(unpack_values(good[self._engine.outputs], len(chunk)))
                if faulty is not None:
                    words = self._engine.fault_output_words([fault], good, good.shape[1])
                    faulty.compact(unpack_values(words[:, 0, :], len(chunk)))
            yield chunk
        if golden is not None:
            self._golden = int(golden.signature)

    def golden_signature(self) -> int:
        """Signature of the fault-free circuit (computed once, then cached)."""
        if self._golden is None:
            for _ in self._play():
                pass
        return self._golden

    def run(self, fault: Optional[Fault] = None) -> SelfTestReport:
        """Execute the self test, optionally with a fault injected.

        One pass compacts the faulty responses, and the fault-free ones too
        until the golden signature is cached.
        """
        if fault is None:
            signature = self.golden_signature()
        else:
            register = self._fresh_misr()
            for _ in self._play(fault, register):
                pass
            signature = int(register.signature)
        return SelfTestReport(
            circuit_name=self.circuit.name,
            n_patterns=self.n_patterns,
            signature=signature,
            golden_signature=self.golden_signature(),
        )

    def coverage(
        self,
        faults: Optional[Sequence[Fault]] = None,
        target_coverage: Optional[float] = None,
        partition_size: Optional[int] = None,
    ) -> Tuple[FaultSimResult, Tuple[int, ...]]:
        """Fault-simulate the session's patterns with streamed early stop.

        The chunks of :meth:`pattern_chunks` go to the golden register and
        then through one fault-parallel simulation; detected faults drop
        across source boundaries, and the simulation stops — possibly
        mid-source — once ``target_coverage`` is reached.  The rest of the
        schedule then only goes into the golden register, so the same pass
        also yields the golden signature.

        Returns:
            the :class:`FaultSimResult` over the played stream and the
            patterns applied per source.
        """
        simulator = ParallelFaultSimulator(
            self.circuit, faults=faults, partition_size=partition_size
        )
        stream = self._play()
        result = simulator.run_stream(stream, target_coverage=target_coverage)
        if self._golden is None:
            for _ in stream:
                pass
        # The simulator consumes whole chunks and chunks restart at source
        # boundaries, so its pattern count splits over the sources in order.
        remaining = result.n_patterns
        applied = []
        for _, n_patterns in self.sources:
            applied.append(min(n_patterns, remaining))
            remaining -= applied[-1]
        return result, tuple(applied)
