"""Pinned playback contract of the self-test engine.

Exact signatures, pattern digests and coverage digests for the single-set
session (LFSR weighting network and software PRNG), a hand-built two-set
schedule played three ways (parallel load, STUMPS scan delivery, early stop
on a coverage target) and the scalar-MISR path of a 65-output circuit.

c499 compacts into a 48-bit MISR, so a changed pattern stream or response
pass cannot collide with the pinned signature by chance.  The first set of
the two-set schedule is longer than one 4096-pattern streaming chunk, so the
coverage digests also pin where the chunks restart at the set boundary.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.api import execute_spec
from repro.api.serialize import SchemaError
from repro.circuit import CircuitBuilder
from repro.circuit.bench import parse_bench
from repro.circuits import build_circuit
from repro.faults import collapsed_fault_list
from repro.patterns import PRIMITIVE_TAPS
from repro.patterns.bilbo import MAX_SCHEDULE_PATTERNS, SelfTestSession
from repro.wrp import MultiWeightSet, WeightSetEntry, run_multi_weight_session
from repro.wrp.multiset import SET_POLYNOMIAL_WIDTHS, set_seed

from .helpers import C17_BENCH, over_cap_multi_weight_spec, played_patterns


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _dict_sha(data) -> str:
    return _sha(json.dumps(data, sort_keys=True).encode("utf-8"))


@pytest.fixture(scope="module")
def c499():
    return build_circuit("c499")


@pytest.fixture(scope="module")
def c499_faults(c499):
    return collapsed_fault_list(c499)


def _weights(n_inputs: int, offset: int) -> np.ndarray:
    """Fixed weights on the 1/8 grid (quantized: no optimizer involved)."""
    return np.array([((i + offset) % 7 + 1) / 8 for i in range(n_inputs)])


def _two_sets(circuit, first_weights: np.ndarray) -> MultiWeightSet:
    """A two-set schedule with fixed weights, built without the optimizer."""
    session_seed = 1987
    budgets = (4500, 5000)
    entries = []
    for index, (weights, n_patterns) in enumerate(
        zip((first_weights, _weights(circuit.n_inputs, 3)), budgets)
    ):
        width = SET_POLYNOMIAL_WIDTHS[index]
        entries.append(
            WeightSetEntry(
                index=index,
                weights=weights,
                quantized_weights=weights,
                fault_indices=(),
                test_length=n_patterns,
                n_patterns=n_patterns,
                lfsr_width=width,
                lfsr_taps=tuple(PRIMITIVE_TAPS[width]),
                lfsr_seed=set_seed(session_seed, index),
            )
        )
    return MultiWeightSet(
        circuit_name=circuit.name,
        n_inputs=circuit.n_inputs,
        sets=entries,
        single_set_length=sum(budgets),
        redundant_indices=(),
        confidence=0.95,
        cluster_seed=1,
        session_seed=session_seed,
    )


class TestSingleSet:
    @pytest.mark.parametrize(
        "use_lfsr, patterns_sha, golden, injected",
        [
            (
                True,
                "cbe9cdd0e74e8d1cd8f925e9e34f7a61d157d3d6cd84362a359830f26f74d931",
                49965621618366,
                266929202390903,
            ),
            (
                False,
                "f77138da45bbf1e3890a41e5a97992aa2f3d947f6f92b26adecaa2827fec9d88",
                209291933230968,
                228439317405789,
            ),
        ],
    )
    def test_playback_is_pinned(
        self, c499, c499_faults, use_lfsr, patterns_sha, golden, injected
    ):
        session = SelfTestSession(
            c499,
            5000,
            weights=_weights(c499.n_inputs, 0),
            use_lfsr=use_lfsr,
            seed=77,
        )
        assert session.misr_width == 48
        assert session.n_patterns == 5000
        assert _sha(np.packbits(played_patterns(session)).tobytes()) == patterns_sha
        assert session.golden_signature() == golden
        report = session.run(c499_faults[0])
        assert report.golden_signature == golden
        assert report.signature == injected


class TestTwoSetSchedule:
    """c499 pins the signatures; c880 keeps undetectable faults active in
    every chunk (and, with its first set pinned near all-ones, reaches the
    coverage target only inside the second set), so its digests pin the
    chunk boundaries of the coverage stream."""

    @pytest.mark.parametrize(
        "name, options, signature, applied, coverage_sha",
        [
            (
                "c499",
                {},
                252065581109514,
                (4500, 5000),
                "1fd6e3f155ac9b733c3dcacda75d28999ead5cb815c788c79fb88b0e03a3513a",
            ),
            (
                "c499",
                {"scan_chains": 3},
                32318159172985,
                (4500, 5000),
                "488840615d7290e6990ef15f9ebafa4b3cf10113551249a8b0450d46caf31824",
            ),
            (
                "c499",
                {"target_coverage": 0.9},
                252065581109514,
                (4096, 0),
                "e6a6ec168f69a0c157fd14224d449544f981eb16f2d62e4dd50664c7947ca2d5",
            ),
            (
                "c880",
                {},
                1724,
                (4500, 5000),
                "f630ff23d0f74fe5c24f35c9053c8b73a40f4d96ab4aec530b14a25a01cd21d5",
            ),
            (
                "c880",
                {"scan_chains": 3},
                1778,
                (4500, 5000),
                "ea0cc142c0ba97706971fb318dd51dece8567005b78ead40345e9cff044fea46",
            ),
            (
                "c880",
                {"target_coverage": 0.97},
                1724,
                (4500, 4096),
                "8cac1617183fa72a3cf9736ff20457f7d05f8f716824335fc8243abbf744bc78",
            ),
        ],
    )
    def test_playback_is_pinned(
        self, name, options, signature, applied, coverage_sha
    ):
        circuit = build_circuit(name)
        first = (
            _weights(circuit.n_inputs, 0)
            if name == "c499"
            else np.full(circuit.n_inputs, 31 / 32)
        )
        weight_sets = _two_sets(circuit, first)
        report = run_multi_weight_session(
            circuit,
            weight_sets,
            faults=collapsed_fault_list(circuit),
            **options,
        )
        assert report.self_test.n_patterns == 9500
        assert tuple(entry.n_patterns for entry in weight_sets.sets) == (4500, 5000)
        assert report.self_test.passed
        assert report.self_test.signature == signature
        assert report.coverage.applied == applied
        assert _dict_sha(report.coverage.to_dict()) == coverage_sha


class TestScalarMisr:
    @pytest.fixture(scope="class")
    def wide(self):
        builder = CircuitBuilder("wide")
        a = builder.input("a")
        b = builder.input("b")
        for k in range(65):
            gate = builder.and_ if k % 2 else builder.or_
            builder.output(gate(a, b, name=f"n{k}"), f"o{k}")
        return builder.build()

    def test_single_set_scalar_misr_is_pinned(self, wide):
        faults = collapsed_fault_list(wide)
        session = SelfTestSession(
            wide, 300, use_lfsr=True, misr_width=65, misr_taps=(65, 47), seed=5
        )
        assert session.golden_signature() == 21277956223440074301
        assert session.run(faults[0]).signature == 13072055887423691165

    def test_two_set_scalar_misr_is_pinned(self, wide):
        faults = collapsed_fault_list(wide)
        entries = [
            WeightSetEntry(
                index=index,
                weights=np.array(weights),
                quantized_weights=np.array(weights),
                fault_indices=(),
                test_length=n_patterns,
                n_patterns=n_patterns,
                lfsr_width=SET_POLYNOMIAL_WIDTHS[index],
                lfsr_taps=tuple(PRIMITIVE_TAPS[SET_POLYNOMIAL_WIDTHS[index]]),
                lfsr_seed=set_seed(5, index),
            )
            for index, (weights, n_patterns) in enumerate(
                [([0.25, 0.75], 200), ([0.875, 0.125], 100)]
            )
        ]
        weight_sets = MultiWeightSet(
            circuit_name=wide.name,
            n_inputs=wide.n_inputs,
            sets=entries,
            single_set_length=300,
            redundant_indices=(),
            confidence=0.95,
            cluster_seed=1,
            session_seed=5,
        )
        report = run_multi_weight_session(
            wide, weight_sets, faults=faults, misr_width=65, misr_taps=(65, 47)
        )
        assert report.self_test.signature == 1924485442988938651
        assert _dict_sha(report.coverage.to_dict()) == (
            "08583cde9478a82a3c75348bac75dbbe1e92bc4d22f61ddc0b36639801411338"
        )


class TestBoundedPlayback:
    """Playback holds one chunk at a time, and an over-long schedule is a
    typed error before any pattern is generated."""

    def test_playback_memory_does_not_grow_with_the_schedule(self):
        c17 = parse_bench(C17_BENCH, name="c17")
        faults = collapsed_fault_list(c17)
        session = SelfTestSession(c17, 1 << 18, use_lfsr=True, seed=3)
        tracemalloc.start()
        try:
            report = session.run(faults[0])
            result, applied = session.coverage(faults)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.golden_signature == session.golden_signature()
        assert applied == (1 << 18,) and result.n_patterns == 1 << 18
        # The whole pattern matrix alone would take 1.25 MiB of bools and
        # 50 MiB as the weighting network's int64 digit block.
        assert peak < 8 * 2**20

    def test_over_cap_session_generates_no_pattern(self):
        class Untouchable:
            def reset(self):
                raise AssertionError("reset before the cap check")

            def generate_stream(self, n_patterns, chunk):
                raise AssertionError("generated before the cap check")

        c17 = parse_bench(C17_BENCH, name="c17")
        sources = [(Untouchable(), MAX_SCHEDULE_PATTERNS), (Untouchable(), 1)]
        with pytest.raises(SchemaError, match="multi_weight.budget"):
            SelfTestSession.from_sources(c17, sources)
        # At the cap exactly, the session is built (and plays lazily).
        SelfTestSession.from_sources(c17, sources[:1])

    def test_over_cap_spec_is_a_schema_error(self):
        with pytest.raises(SchemaError) as excinfo:
            execute_spec(over_cap_multi_weight_spec())
        message = str(excinfo.value)
        assert "21,577,497" in message
        assert f"{MAX_SCHEDULE_PATTERNS:,}" in message
        assert "multi_weight.budget" in message
