"""The executor's observable contract, pinned on one full spec.

One c432 spec declares every stage (analysis, optimize, quantize, both
fault-sim legs, an injected self test and a k=2 multi-weight schedule).
Each scenario runs :func:`execute_spec` against a different store state and
pins exactly what a caller can observe: the ``on_stage`` sequence, the
deltas of :func:`executor_stats`, lowerings, and the canonical report.
"""

import pytest

from repro.api import PipelineSpec, build_plan, execute_spec, executor_stats
from repro.api.spec import (
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    SelfTestConfig,
)
from repro.lowered import compile_count
from repro.store import MemoryStore

ALL_STAGES = [
    "analysis",
    "optimize",
    "quantize",
    "fault_sim",
    "fault_sim",
    "self_test",
    "multi_weight",
]


def full_spec(seed: int = 1) -> PipelineSpec:
    return PipelineSpec(
        circuit="c432",
        seed=seed,
        optimize=OptimizeConfig(max_sweeps=2),
        fault_sim=FaultSimConfig(n_patterns=256),
        self_test=SelfTestConfig(inject_hardest=True),
        multi_weight=MultiWeightConfig(k=2),
    )


def observe(spec, store=None):
    """Run ``spec``; return (report, on_stage list, stats delta, lowerings)."""
    stages = []
    before = executor_stats()
    lowerings = compile_count()
    report = execute_spec(spec, store=store, on_stage=stages.append)
    after = executor_stats()
    delta = {name: after[name] - before[name] for name in before}
    return report, stages, delta, compile_count() - lowerings


@pytest.fixture(scope="module")
def reference():
    """No-store reports of the seed-1 and seed-2 specs."""
    return {seed: observe(full_spec(seed)) for seed in (1, 2)}


@pytest.fixture(scope="module")
def scenario():
    """Scenarios (ii)-(v), in order, on one store."""
    store = MemoryStore()
    cold = observe(full_spec(1), store)
    hit = observe(full_spec(1), store)
    reseeded = observe(full_spec(2), store)
    plan = build_plan(full_spec(2))
    store.delete(plan.report_key)
    store.delete(plan.stage("multi_weight").store_keys["result"])
    weight_sets_hit = observe(full_spec(2), store)
    return {
        "cold": cold,
        "hit": hit,
        "reseeded": reseeded,
        "weight_sets_hit": weight_sets_hit,
    }


def test_no_store_runs_every_stage(reference):
    _, stages, delta, _ = reference[1]
    assert stages == ALL_STAGES
    assert delta == {"executions": 1, "stage_runs": 7, "stage_hits": 0}


def test_empty_store_runs_every_stage(scenario, reference):
    report, stages, delta, _ = scenario["cold"]
    assert stages == ALL_STAGES
    assert delta == {"executions": 1, "stage_runs": 7, "stage_hits": 0}
    assert report.canonical_dict() == reference[1][0].canonical_dict()


def test_same_spec_is_a_report_hit(scenario, reference):
    report, stages, delta, lowerings = scenario["hit"]
    assert stages == []
    assert delta == {"executions": 0, "stage_runs": 0, "stage_hits": 0}
    assert lowerings == 0
    assert report.canonical_dict() == reference[1][0].canonical_dict()


def test_changed_seed_hits_optimize(scenario, reference):
    report, stages, delta, _ = scenario["reseeded"]
    assert stages == [
        "analysis",
        "quantize",
        "fault_sim",
        "fault_sim",
        "self_test",
        "multi_weight",
    ]
    assert delta == {"executions": 1, "stage_runs": 6, "stage_hits": 1}
    assert report.canonical_dict() == reference[2][0].canonical_dict()


def test_deleted_report_hits_weight_sets(scenario, reference):
    report, stages, delta, _ = scenario["weight_sets_hit"]
    # optimize, both fault-sim legs and the weight sets come from the store.
    assert stages == ["analysis", "quantize", "self_test", "multi_weight"]
    assert delta == {"executions": 1, "stage_runs": 4, "stage_hits": 4}
    assert report.canonical_dict() == reference[2][0].canonical_dict()
