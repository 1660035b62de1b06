"""Tests for the stuck-at fault model and equivalence collapsing."""

import pytest

from repro.circuit import CircuitBuilder, parse_bench
from repro.faults import (
    Fault,
    collapse_faults,
    collapsed_fault_list,
    fault_name,
    full_fault_list,
)
from repro.analysis.exact import exact_detection_probability

from .helpers import C17_BENCH, half_adder_circuit, mux_circuit


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
            f for f in full_fault_list(circuit) if f.is_stem and circuit.is_primary_input(f.net)
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
        assert fault_name(circuit, fault) == "sum stuck-at-1"

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
        assert 0.0 < result.collapse_ratio < 1.0

    def test_every_fault_maps_to_a_representative(self):
        circuit = mux_circuit()
        faults = full_fault_list(circuit)
        result = collapse_faults(circuit, faults)
        for fault in faults:
            representative = result.class_of[fault]
            assert representative in result.classes
            assert fault in result.classes[representative]

    def test_representatives_prefer_primary_inputs(self):
        builder = CircuitBuilder("buf_chain")
        a = builder.input("a")
        builder.output(builder.buf(a), "y")
        circuit = builder.build()
        result = collapse_faults(circuit, full_fault_list(circuit))
        for representative in result.representatives:
            # With a single buffer the input faults dominate their classes.
            assert circuit.is_primary_input(representative.net)

    def test_and_gate_equivalence(self):
        """Input s-a-0 of an AND gate is collapsed with output s-a-0."""
        builder = CircuitBuilder("and2")
        a = builder.input("a")
        b = builder.input("b")
        builder.output(builder.and_(a, b), "y")
        circuit = builder.build()
        y = circuit.outputs[0]
        result = collapse_faults(circuit, full_fault_list(circuit))
        assert result.class_of[Fault(y, False)] == result.class_of[Fault(a, False)]
        # stuck-at-1 faults are NOT equivalent for AND.
        assert result.class_of[Fault(y, True)] != result.class_of[Fault(a, True)]

    def test_not_gate_equivalence_swaps_polarity(self):
        builder = CircuitBuilder("inv")
        a = builder.input("a")
        builder.output(builder.not_(a), "y")
        circuit = builder.build()
        y = circuit.outputs[0]
        result = collapse_faults(circuit, full_fault_list(circuit))
        assert result.class_of[Fault(a, False)] == result.class_of[Fault(y, True)]
        assert result.class_of[Fault(a, True)] == result.class_of[Fault(y, False)]

    def test_collapsed_faults_are_truly_equivalent(self):
        """Exhaustive check on c17: every fault in a class has the same exact
        detection probability (a necessary condition of equivalence)."""
        circuit = parse_bench(C17_BENCH, name="c17")
        result = collapse_faults(circuit, full_fault_list(circuit))
        for representative, members in result.classes.items():
            if len(members) == 1:
                continue
            reference = exact_detection_probability(circuit, representative, 0.5)
            for member in members:
                assert exact_detection_probability(circuit, member, 0.5) == pytest.approx(reference)

    def test_stem_faults_not_merged_across_fanout(self):
        circuit = mux_circuit()
        select = circuit.net_index("sel")
        result = collapse_faults(circuit, full_fault_list(circuit))
        # The stem fault on the select input must remain its own representative
        # (its branches go to different gates).
        representative = result.class_of[Fault(select, False)]
        assert representative.net == select
