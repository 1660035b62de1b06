"""Pinned report contents: the sha256 of each canonical report text.

The spec pins (:mod:`test_spec_pins`) fix what a spec *names*; these fix
what its run *writes*.  Each report holds both fault-simulation legs (their
fault lists as ``[net, stuck_value, gate]`` triples and their
``[fault_index, pattern_index]`` first-detection pairs), the optimizer's
``redundant_faults`` and the report's ``self_test_fault``, so a change to
how faults are encoded, ordered or detected moves a digest here.
"""

import dataclasses
import hashlib

import pytest

from repro.api import PipelineSpec, execute_spec
from repro.api.cli import _stage_configs, build_parser
from repro.api.serialize import canonical_json

from .test_spec_pins import every_stage_spec


def _digest(report) -> str:
    text = canonical_json(report.canonical_dict())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_run_spec(argv):
    """The spec ``python -m repro run <argv>`` builds for its one circuit."""
    args = build_parser().parse_args(["run", *argv])
    (key,) = args.circuits
    return PipelineSpec(circuit=key, seed=args.seed, **_stage_configs(args))


def test_every_stage_report_with_injected_fault():
    spec = every_stage_spec()
    spec = dataclasses.replace(
        spec, self_test=dataclasses.replace(spec.self_test, inject_hardest=True)
    )
    report = execute_spec(spec)
    assert report.self_test_fault is not None
    assert _digest(report) == (
        "5ad8584e0fd824b8f4228011f93edbe2e9356f585fcd7e495ce22c274dcd1861"
    )


@pytest.mark.parametrize(
    "argv, spec_hash, digest, n_redundant",
    [
        (
            ["s2"],
            "76f63736a52ba4457537a941bd23a36927a7702a00f7091df1c67b09c6e7f9ec",
            "8faf888f4471b251f385e92f717cc270cd8379f4ec6f03db0d96027982f5d89d",
            0,
        ),
        (
            ["s2", "--keep-redundant"],
            "681421b9c78cd26dd4061f79779a88d5173b10af6e34d750162d9d12810cec47",
            "b34bb0e74dd8cd28cb7ba070c29a410dde3365d34d19cb55a1ea5eb4b9d5fbc5",
            204,
        ),
    ],
)
def test_cli_run_report(argv, spec_hash, digest, n_redundant):
    spec = _cli_run_spec(argv)
    assert spec.spec_hash() == spec_hash
    report = execute_spec(spec)
    assert len(report.optimization.redundant_faults) == n_redundant
    assert _digest(report) == digest
