"""Tests for the shared lowered-circuit IR and its compilation cache.

Covers :meth:`Circuit.structural_hash` (equal for isomorphic rebuilds,
distinct under gate-type/wiring changes), the content-addressed
:func:`repro.lowered.compile_lowered` cache (instance-level and process-level
hits, LRU eviction, the compile counter) and the invariant that both compiled
engines consume one shared :class:`LoweredCircuit` per circuit.
"""

import threading
import time

import numpy as np
import pytest

from repro.analysis.compiled import compile_cop
from repro.circuit import CircuitBuilder
from repro.circuits import build_circuit, circuit_keys, s1_comparator
from repro.lowered import (
    OP_AND,
    OP_OR,
    OP_XOR,
    LoweredCircuit,
    clear_lowered_cache,
    compile_count,
    compile_lowered,
    lowered_cache_info,
)
from repro.lowered import cache as lowered_cache
from repro.simulation import compile_circuit

from .helpers import and_or_tree_circuit, half_adder_circuit, mux_circuit


def _two_gate_circuit(name="tiny", gate="and_", cross_wire=False, net_names=("a", "b", "y")):
    """``y = a <gate> b`` with a NOT on top — a minimal two-gate netlist."""
    builder = CircuitBuilder(name)
    a = builder.input(net_names[0])
    b = builder.input(net_names[1])
    first = getattr(builder, gate)(a, b)
    second = builder.not_(first if not cross_wire else a)
    builder.output(second, net_names[2])
    return builder.build()


class TestStructuralHash:
    def test_identical_rebuilds_hash_equal(self):
        first = s1_comparator(width=6)
        second = s1_comparator(width=6)
        assert first is not second
        assert first.structural_hash() == second.structural_hash()

    def test_hash_ignores_net_names_and_circuit_name(self):
        named = _two_gate_circuit(name="named", net_names=("a", "b", "y"))
        renamed = _two_gate_circuit(name="renamed", net_names=("x0", "x1", "out"))
        assert named.structural_hash() == renamed.structural_hash()

    def test_hash_distinct_under_gate_type_change(self):
        as_and = _two_gate_circuit(gate="and_")
        as_or = _two_gate_circuit(gate="or_")
        as_xor = _two_gate_circuit(gate="xor")
        hashes = {c.structural_hash() for c in (as_and, as_or, as_xor)}
        assert len(hashes) == 3

    def test_hash_distinct_under_rewiring(self):
        straight = _two_gate_circuit(cross_wire=False)
        crossed = _two_gate_circuit(cross_wire=True)
        assert straight.structural_hash() != crossed.structural_hash()

    def test_hash_distinct_under_operand_order_swap(self):
        builder = CircuitBuilder("ab")
        a, b = builder.input("a"), builder.input("b")
        builder.output(builder.nand(a, b), "y")
        ab = builder.build()
        builder = CircuitBuilder("ba")
        a, b = builder.input("a"), builder.input("b")
        builder.output(builder.nand(b, a), "y")
        ba = builder.build()
        assert ab.structural_hash() != ba.structural_hash()

    def test_hash_is_cached_and_deterministic(self):
        circuit = half_adder_circuit()
        first = circuit.structural_hash()
        assert circuit.structural_hash() is first
        assert half_adder_circuit().structural_hash() == first

    def test_registry_circuits_hash_distinct(self):
        hashes = {build_circuit(key).structural_hash() for key in circuit_keys()}
        assert len(hashes) == len(circuit_keys())


class TestCompileLoweredCache:
    def test_instance_cache_returns_same_object(self):
        # A shape no other test builds, so the content cache cannot be warm.
        builder = CircuitBuilder("seven_wide")
        nets = [builder.input(f"i{k}") for k in range(7)]
        builder.output(builder.nand(*nets), "y")
        circuit = builder.build()
        before = compile_count()
        first = compile_lowered(circuit)
        after_first = compile_count()
        second = compile_lowered(circuit)
        assert first is second
        assert after_first == before + 1
        assert compile_count() == after_first  # second call: pure cache hit

    def test_content_cache_shares_across_isomorphic_instances(self):
        one = s1_comparator(width=4)
        other = s1_comparator(width=4)
        before = compile_count()
        lowered_one = compile_lowered(one)
        lowered_other = compile_lowered(other)
        assert lowered_one is lowered_other
        assert compile_count() == before + (1 if lowered_one.circuit is one else 0)

    def test_dead_structures_are_released_and_recompiled(self, monkeypatch):
        import gc

        monkeypatch.setattr(lowered_cache, "_MAX_ENTRIES", 1)
        # Fresh structures (unique gate counts) so nothing is pre-cached.
        def chain(n):
            builder = CircuitBuilder(f"chain{n}")
            signal = builder.input("a")
            for _ in range(n):
                signal = builder.not_(signal)
            builder.output(signal, "y")
            return builder.build()

        a, b = chain(101), chain(102)
        compile_lowered(a)
        compile_lowered(b)  # evicts a's artifact from the strong LRU
        assert lowered_cache_info()["strong_size"] <= 1
        before = compile_count()
        # The evicted instance still holds its artifact (instance-level pin) …
        compile_lowered(a)
        assert compile_count() == before
        # … and while `a` is alive the weak content entry still serves rebuilds.
        compile_lowered(chain(101))
        assert compile_count() == before
        # Once every pinning circuit dies *and* the artifact leaves the
        # strong LRU, it is collected (no process-lifetime retention) and a
        # rebuild must recompile.
        del a
        compile_lowered(chain(103))  # pushes chain(101) out of the size-1 LRU
        gc.collect()
        assert compile_count() == before + 1  # the chain(103) compile
        compile_lowered(chain(101))
        assert compile_count() == before + 2
        # The freshly compiled artifact is retained by the strong LRU even
        # though its circuit was transient: an immediate rebuild hits.
        gc.collect()
        compile_lowered(chain(101))
        assert compile_count() == before + 2

    def test_cache_info_counts_hits(self):
        circuit = and_or_tree_circuit()
        compile_lowered(circuit)
        hits_before = lowered_cache_info()["hits"]
        compile_lowered(and_or_tree_circuit())  # fresh isomorphic instance
        assert lowered_cache_info()["hits"] == hits_before + 1

    def test_in_place_mutation_is_detected(self):
        builder = CircuitBuilder("mutant")
        a = builder.input("a")
        x = builder.not_(a)
        builder.output(builder.not_(x), "y")
        circuit = builder.build()
        lowered = compile_lowered(circuit)
        assert lowered.n_gates == 2
        # Circuits are immutable by convention; should one be mutated anyway,
        # neither the stale hash memo nor the stale artifact may be served.
        circuit.gates.pop()
        circuit._levels = None
        fresh = compile_lowered(circuit)
        assert fresh is not lowered
        assert fresh.n_gates == 1

    def test_clear_resets_stats_but_not_instance_pins(self):
        pinned = and_or_tree_circuit()
        compile_lowered(pinned)
        clear_lowered_cache()
        info = lowered_cache_info()
        assert info["size"] == 0 and info["compile_events"] == 0
        # The instance-level pin survives; a fresh rebuild recompiles.
        compile_lowered(pinned)
        assert compile_count() == 0
        compile_lowered(and_or_tree_circuit())
        assert compile_count() == 1

    def test_concurrent_compiles_count_exactly(self, monkeypatch):
        class SlowLowering(LoweredCircuit):
            def __init__(self, circuit):
                time.sleep(0.02)  # other threads reach the cache meanwhile
                super().__init__(circuit)

        monkeypatch.setattr(lowered_cache, "LoweredCircuit", SlowLowering)
        n_threads, per_thread = 8, 25
        batches = [
            [s1_comparator(width=6) for _ in range(per_thread)]
            for _ in range(n_threads)
        ]
        clear_lowered_cache()
        barrier = threading.Barrier(n_threads)

        def work(batch):
            barrier.wait()
            for circuit in batch:
                compile_lowered(circuit)

        threads = [threading.Thread(target=work, args=(batch,)) for batch in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        info = lowered_cache_info()
        assert info["compile_events"] == 1
        assert info["hits"] == n_threads * per_thread - 1
        assert len({id(c._lowered_ir) for batch in batches for c in batch}) == 1


class TestSharedIr:
    def test_both_engines_consume_one_lowering(self):
        circuit = s1_comparator(width=4)
        lowered = compile_lowered(circuit)
        before = compile_count()
        sim = compile_circuit(circuit)
        cop = compile_cop(circuit)
        assert sim.lowered is lowered
        assert cop.lowered is lowered
        assert compile_count() == before  # no re-lowering for either engine

    def test_engines_shared_across_isomorphic_instances(self):
        sim = compile_circuit(s1_comparator(width=4))
        cop = compile_cop(s1_comparator(width=4))
        assert sim.lowered is cop.lowered

    def test_group_partition_covers_all_non_const_gates(self):
        circuit = build_circuit("c880")
        lowered = compile_lowered(circuit)
        grouped = np.concatenate([g.gate_ids for g in lowered.groups])
        assert grouped.size == np.count_nonzero(lowered.gate_op >= 0)
        assert len(np.unique(grouped)) == grouped.size
        for group in lowered.groups:
            assert group.op in (OP_AND, OP_OR, OP_XOR)
            # Groups hold ascending gate ids of one (level, op) bucket.
            assert np.all(np.diff(group.gate_ids) > 0)
            assert np.all(lowered.net_level[group.outputs] == group.level)

    def test_pin_slots_are_dense_and_consistent(self):
        circuit = build_circuit("c432")
        lowered = compile_lowered(circuit)
        slots = []
        for pin_level in lowered.pin_levels:
            for pin, local in enumerate(pin_level.pin_gate_local):
                gate = int(pin_level.gate_ids[local])
                position = int(pin_level.pin_position[pin])
                slots.append(lowered.pin_slot_of(gate, position))
        assert sorted(slots) == list(range(lowered.n_pins))
        assert lowered.n_pins == sum(len(g.inputs) for g in circuit.gates)

    def test_pin_slot_of_rejects_unknown_pins(self):
        lowered = compile_lowered(half_adder_circuit())
        with pytest.raises(KeyError):
            lowered.pin_slot_of(0, 99)

    def test_gate_inputs_match_netlist(self):
        circuit = mux_circuit()
        lowered = compile_lowered(circuit)
        for gi, gate in enumerate(circuit.gates):
            assert tuple(lowered.gate_inputs(gi)) == gate.inputs

    def test_cone_cache_shared_between_consumers(self):
        circuit = s1_comparator(width=4)
        sim = compile_circuit(circuit)
        lowered = compile_lowered(circuit)
        net = circuit.inputs[0]
        assert sim.cone_gates(net) is lowered.cone_gates(net)
        assert set(lowered.cone_gates(net).tolist()) == set(
            circuit.transitive_fanout_gates(net)
        )
