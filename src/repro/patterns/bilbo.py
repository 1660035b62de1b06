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
:class:`repro.patterns.misr.MISR` above 64 bits).  The pattern matrix, the
fault-free net values and the golden signature are computed once per session
and reused by every :meth:`~SelfTestSession.run` and by the streamed fault
simulation of :meth:`~SelfTestSession.coverage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..faultsim.parallel import FaultSimResult, ParallelFaultSimulator
from ..simulation.compiled import CompiledCircuit, compile_circuit
from ..simulation.logicsim import pack_patterns, unpack_values
from .compiled import CompiledLfsrWeightedPatternGenerator, CompiledMISR
from .misr import MISR, default_misr_width
from .weighted import WeightedPatternGenerator

__all__ = ["SelfTestSession", "SelfTestReport"]

#: Rows per chunk of the streamed coverage run (``generate_stream``'s default).
_COVERAGE_CHUNK = 4096


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
        n_patterns: test length N.
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

        Each generator is any pattern source with ``generate(n)`` (software
        PRNG, LFSR weighting network, STUMPS scan delivery).  The register
        state runs on across source boundaries, so the signature is what the
        hardware holds after the last source.
        """
        session = cls.__new__(cls)
        session._setup(circuit, sources, misr_width, misr_taps)
        return session

    def _setup(self, circuit: Circuit, sources, misr_width, misr_taps) -> None:
        self.circuit = circuit
        self.sources: List[Tuple[object, int]] = [(g, int(n)) for g, n in sources]
        self.n_patterns = sum(n for _, n in self.sources)
        if misr_width is None:
            misr_width = default_misr_width(circuit.n_outputs)
        self.misr_width = misr_width
        self.misr_taps = tuple(misr_taps) if misr_taps is not None else None
        self._engine: CompiledCircuit = compile_circuit(circuit)
        self._patterns: Optional[np.ndarray] = None
        self._good_values: Optional[np.ndarray] = None
        self._golden: Optional[int] = None

    # ------------------------------------------------------------------ #
    def _fresh_misr(self) -> Union[CompiledMISR, MISR]:
        """A zero-seeded signature register (vectorized when width <= 64)."""
        if self.misr_width <= 64:
            return CompiledMISR(self.misr_width, taps=self.misr_taps)
        return MISR(self.misr_width, taps=self.misr_taps)

    def patterns(self) -> np.ndarray:
        """The (cached) pattern matrix applied by this session: every
        source's patterns, in play order."""
        if self._patterns is None:
            self._patterns = np.concatenate(
                [generator.generate(n) for generator, n in self.sources]
            )
        return self._patterns

    def _good_net_values(self) -> np.ndarray:
        """Fault-free word-domain values of every net (cached)."""
        if self._good_values is None:
            self._good_values = self._engine.simulate_words(
                pack_patterns(self.patterns())
            )
        return self._good_values

    def _responses(self, fault: Optional[Fault]) -> np.ndarray:
        """Output responses ``(n_patterns, n_outputs)``, optionally with
        ``fault`` injected (one compiled pass)."""
        good = self._good_net_values()
        if fault is None:
            return unpack_values(good[self._engine.outputs], self.n_patterns)
        n_words = good.shape[1]
        out_words = self._engine.fault_output_words([fault], good, n_words)[:, 0, :]
        return unpack_values(out_words, self.n_patterns)

    def golden_signature(self) -> int:
        """Signature of the fault-free circuit (computed once, then cached)."""
        if self._golden is None:
            self._golden = int(self._fresh_misr().compact(self._responses(None)))
        return self._golden

    def run(self, fault: Optional[Fault] = None) -> SelfTestReport:
        """Execute the self test, optionally with a fault injected.

        Repeated calls reuse the cached pattern matrix, fault-free net values
        and golden signature — only the faulty response pass depends on the
        injected fault.
        """
        golden = self.golden_signature()
        if fault is None:
            signature = golden
        else:
            signature = int(self._fresh_misr().compact(self._responses(fault)))
        return SelfTestReport(
            circuit_name=self.circuit.name,
            n_patterns=self.n_patterns,
            signature=signature,
            golden_signature=golden,
        )

    def coverage(
        self,
        faults: Optional[Sequence[Fault]] = None,
        target_coverage: Optional[float] = None,
        partition_size: Optional[int] = None,
    ) -> Tuple[FaultSimResult, Tuple[int, ...]]:
        """Fault-simulate the session's patterns with streamed early stop.

        The cached patterns stream through one fault-parallel simulation in
        chunks of at most 4096 rows that restart at every source boundary;
        detected faults drop across boundaries, and the stream stops —
        possibly mid-source — once ``target_coverage`` is reached.

        Returns:
            the :class:`FaultSimResult` over the played stream and the
            patterns applied per source.
        """
        simulator = ParallelFaultSimulator(
            self.circuit, faults=faults, partition_size=partition_size
        )
        patterns = self.patterns()
        applied = [0] * len(self.sources)

        def chunks():
            end = 0
            for index, (_, n_patterns) in enumerate(self.sources):
                start, end = end, end + n_patterns
                for row in range(start, end, _COVERAGE_CHUNK):
                    chunk = patterns[row : min(row + _COVERAGE_CHUNK, end)]
                    applied[index] += len(chunk)
                    yield chunk

        result = simulator.run_stream(chunks(), target_coverage=target_coverage)
        return result, tuple(applied)
