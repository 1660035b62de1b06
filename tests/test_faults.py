"""Tests for the stuck-at fault model and equivalence collapsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import CircuitBuilder, GateType, parse_bench
from repro.faults import (
    Fault,
    FaultTable,
    collapse_faults,
    collapsed_fault_list,
    full_fault_list,
)
from repro.analysis.exact import exact_detection_probability
from repro.api.serialize import SchemaError

from .helpers import C17_BENCH, half_adder_circuit, mux_circuit, random_circuit


def _classes(result, faults):
    """``{representative: members}`` read off the representative-index array."""
    classes = {}
    for fault, index in zip(faults, result.representative_index.tolist()):
        classes.setdefault(result.representatives[index], []).append(fault)
    return classes


def _class_of(result, faults, fault):
    """The representative of ``fault``'s class."""
    index = list(faults).index(fault)
    return result.representatives[int(result.representative_index[index])]


class TestFaultModel:
    def test_stem_fault_count_is_two_per_net(self):
        circuit = half_adder_circuit()
        faults = full_fault_list(circuit, include_branches=False)
        assert len(faults) == 2 * circuit.n_nets

    def test_branch_faults_only_on_fanout_stems(self):
        circuit = half_adder_circuit()
        faults = full_fault_list(circuit, include_branches=True)
        branches = [f for f in faults if f.is_branch]
        # Both inputs fan out to two gates -> 2 nets * 2 gates * 2 polarities.
        assert len(branches) == 8

    def test_no_branch_faults_in_fanout_free_circuit(self):
        builder = CircuitBuilder("chain")
        a = builder.input("a")
        builder.output(builder.not_(builder.not_(a)), "y")
        circuit = builder.build()
        assert all(f.is_stem for f in full_fault_list(circuit))

    def test_input_stem_faults_are_two_per_input(self):
        circuit = mux_circuit()
        faults = [
            f for f in full_fault_list(circuit) if f.is_stem and f.net in circuit.inputs
        ]
        assert len(faults) == 2 * circuit.n_inputs
        assert {(f.net, f.stuck_value) for f in faults} == {
            (net, value) for net in circuit.inputs for value in (False, True)
        }

    def test_branch_faults_sit_on_fanout_gates_of_their_net(self):
        circuit = mux_circuit()
        branches = [f for f in full_fault_list(circuit) if f.is_branch]
        assert branches
        for fault in branches:
            assert fault.gate in circuit.fanout_gates(fault.net)
            assert len(circuit.fanout_gates(fault.net)) > 1

    def test_describe_mentions_polarity_and_net(self):
        circuit = half_adder_circuit()
        fault = Fault(circuit.net_index("sum"), True)
        assert fault.describe(circuit) == "sum stuck-at-1"

    def test_describe_branch_fault_mentions_destination(self):
        circuit = half_adder_circuit()
        a = circuit.inputs[0]
        gate_index = circuit.fanout_gates(a)[0]
        fault = Fault(a, False, gate=gate_index)
        assert "->" in fault.describe(circuit)

    def test_faults_are_hashable_and_ordered(self):
        f1, f2 = Fault(1, False), Fault(1, True)
        assert len({f1, f2}) == 2
        assert sorted([f2, f1])[0] == f1

    def test_deterministic_order(self):
        circuit = mux_circuit()
        assert full_fault_list(circuit) == full_fault_list(circuit)


class TestCollapsing:
    def test_collapsing_reduces_fault_count(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        full = full_fault_list(circuit)
        collapsed = collapsed_fault_list(circuit)
        assert 0 < len(collapsed) < len(full)

    def test_collapse_ratio_reported(self):
        circuit = parse_bench(C17_BENCH, name="c17")
        result = collapse_faults(circuit, full_fault_list(circuit))
        # Some faults collapse, and not all of them into one class.
        assert 1 < len(result.representatives) < result.representative_index.size

    def test_every_fault_maps_to_a_representative(self):
        circuit = mux_circuit()
        faults = full_fault_list(circuit)
        result = collapse_faults(circuit, faults)
        classes = _classes(result, faults)
        for fault in faults:
            representative = _class_of(result, faults, fault)
            assert representative in classes
            assert fault in classes[representative]

    def test_representatives_prefer_primary_inputs(self):
        builder = CircuitBuilder("buf_chain")
        a = builder.input("a")
        builder.output(builder.buf(a), "y")
        circuit = builder.build()
        result = collapse_faults(circuit, full_fault_list(circuit))
        for representative in result.representatives:
            # With a single buffer the input faults dominate their classes.
            assert representative.net in circuit.inputs

    def test_and_gate_equivalence(self):
        """Input s-a-0 of an AND gate is collapsed with output s-a-0."""
        builder = CircuitBuilder("and2")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.and_(a, b), "y")
        circuit = builder.build()
        y = circuit.outputs[0]
        faults = full_fault_list(circuit)
        result = collapse_faults(circuit, faults)
        class_of = lambda fault: _class_of(result, faults, fault)  # noqa: E731
        assert class_of(Fault(y, False)) == class_of(Fault(a, False))
        # stuck-at-1 faults are NOT equivalent for AND.
        assert class_of(Fault(y, True)) != class_of(Fault(a, True))

    def test_not_gate_equivalence_swaps_polarity(self):
        builder = CircuitBuilder("inv")
        a = builder.input("a")
        builder.output(builder.not_(a), "y")
        circuit = builder.build()
        y = circuit.outputs[0]
        faults = full_fault_list(circuit)
        result = collapse_faults(circuit, faults)
        class_of = lambda fault: _class_of(result, faults, fault)  # noqa: E731
        assert class_of(Fault(a, False)) == class_of(Fault(y, True))
        assert class_of(Fault(a, True)) == class_of(Fault(y, False))

    def test_collapsed_faults_are_truly_equivalent(self):
        """Exhaustive check on c17: every fault in a class has the same exact
        detection probability (a necessary condition of equivalence)."""
        circuit = parse_bench(C17_BENCH, name="c17")
        faults = full_fault_list(circuit)
        result = collapse_faults(circuit, faults)
        for representative, members in _classes(result, faults).items():
            if len(members) == 1:
                continue
            reference = exact_detection_probability(circuit, representative, 0.5)
            for member in members:
                assert exact_detection_probability(circuit, member, 0.5) == pytest.approx(reference)

    def test_stem_faults_not_merged_across_fanout(self):
        circuit = mux_circuit()
        select = circuit.net_index("sel")
        faults = full_fault_list(circuit)
        result = collapse_faults(circuit, faults)
        # The stem fault on the select input must remain its own representative
        # (its branches go to different gates).
        representative = _class_of(result, faults, Fault(select, False))
        assert representative.net == select


def _reference_collapse(circuit, faults):
    """The per-object collapse the table replaced: a union-find over
    ``Fault`` values, each class represented by its smallest member by rank,
    the representatives sorted by rank."""
    rules = {
        GateType.AND: ((False, False),),
        GateType.NAND: ((False, True),),
        GateType.OR: ((True, True),),
        GateType.NOR: ((True, False),),
        GateType.BUF: ((False, False), (True, True)),
        GateType.NOT: ((False, True), (True, False)),
    }
    parent = {fault: fault for fault in faults}

    def find(fault):
        while parent[fault] != fault:
            fault = parent[fault]
        return fault

    for gi, gate in enumerate(circuit.gates):
        for src in gate.inputs:
            fan_free = len(circuit.fanout_gates(src)) == 1
            for value_in, value_out in rules.get(gate.gate_type, ()):
                a = Fault(src, value_in, None if fan_free else gi)
                b = Fault(gate.output, value_out)
                if a in parent and b in parent:
                    parent[find(b)] = find(a)
    levels = circuit.levels()

    def rank(fault):
        is_pi = 0 if fault.net in circuit.inputs and fault.is_stem else 1
        gate = -1 if fault.gate is None else fault.gate
        return (is_pi, levels[fault.net], fault.net, fault.stuck_value, gate)

    classes = {}
    for fault in parent:
        classes.setdefault(find(fault), []).append(fault)
    representatives = sorted((min(m, key=rank) for m in classes.values()), key=rank)
    class_of = {m: min(ms, key=rank) for ms in classes.values() for m in ms}
    return representatives, class_of


class TestCollapseMatchesReference:
    @pytest.mark.parametrize(
        "circuit",
        [half_adder_circuit(), mux_circuit(), parse_bench(C17_BENCH, name="c17")],
        ids=lambda c: c.name,
    )
    def test_small_circuits(self, circuit):
        self._check(circuit, list(full_fault_list(circuit)))

    @given(seed=st.integers(0, 10_000), shuffle=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_netlists_and_orders(self, seed, shuffle):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(rng, n_inputs=5, n_gates=16)
        faults = list(full_fault_list(circuit))
        if shuffle:
            faults = [faults[i] for i in rng.permutation(len(faults))]
            # A partial list with a repeat: a repeated fault is one fault.
            faults = faults[: len(faults) // 2] + faults[:3]
        self._check(circuit, faults)

    @staticmethod
    def _check(circuit, faults):
        representatives, class_of = _reference_collapse(circuit, faults)
        result = collapse_faults(circuit, faults)
        assert list(result.representatives) == representatives
        assert [result.representatives[i] for i in result.representative_index] == [
            class_of[fault] for fault in faults
        ]


class TestFaultTable:
    def test_sequence_behaviour_and_wire_triples(self):
        faults = [Fault(3, True), Fault(1, False, gate=2), Fault(0, False)]
        table = FaultTable.of(faults)
        assert len(table) == 3 and list(table) == faults
        assert table[1] == faults[1] and table[-1] == faults[-1]
        assert table.net.dtype == np.int32 and table.gate.dtype == np.int32
        assert table.stuck.dtype == bool
        assert table.gate.tolist() == [-1, 2, -1]
        assert table.to_lists() == [[3, True, None], [1, False, 2], [0, False, None]]
        assert FaultTable.from_lists(table.to_lists()) == table
        assert FaultTable.of(table) is table

    def test_take_by_index_array_and_slice(self):
        faults = list(full_fault_list(mux_circuit()))
        table = FaultTable.of(faults)
        assert list(table.take(np.array([4, 0, 4]))) == [faults[4], faults[0], faults[4]]
        assert list(table.take(slice(1, 9, 3))) == faults[1:9:3]
        assert table.take(slice(0, 3)) != table

    def test_columns_are_read_only(self):
        table = FaultTable.of([Fault(0, False)])
        with pytest.raises(ValueError):
            table.net[0] = 1

    @pytest.mark.parametrize(
        "triple",
        [[3, "false", None], [2.9, 0, 1.5], [-1, True, None], [1, 1, None], [1, True, -2]],
    )
    def test_wire_triples_are_not_coerced(self, triple):
        with pytest.raises(SchemaError):
            FaultTable.from_lists([triple])

    def test_of_takes_fault_values(self):
        faults = [Fault(np.int64(3), np.bool_(True)), Fault(1, False, gate=np.int32(2))]
        table = FaultTable.of(faults)
        assert table.to_lists() == [[3, True, None], [1, False, 2]]

    def test_empty_and_malformed(self):
        assert len(FaultTable.of([])) == 0 and FaultTable.from_lists([]).to_lists() == []
        with pytest.raises(ValueError):
            FaultTable.from_lists([[0, False]])
        with pytest.raises(TypeError):
            FaultTable.of([Fault(0, False)])[0:1]
