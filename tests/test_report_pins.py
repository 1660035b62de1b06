"""Pinned report contents: the sha256 of each canonical report text.

The spec pins (:mod:`test_spec_pins`) fix what a spec *names*; these fix
what its run *writes*.  A report states its fault list once (``faults``,
``[net, stuck_value, gate]`` triples) and each fault-simulation leg is a
dense ``first_detection`` array indexed by it; the report also holds the
optimizer's ``redundant_faults`` and its ``self_test_fault``, so a change to
how faults are encoded, ordered or detected moves a digest here.

Each report has two digests: of its own canonical text, and of that text
mapped back by :func:`~tests.helpers.legacy_report_dict` to the earlier
shape that embedded the list in every leg.  The second one was recorded
from runs of that shape, so it shows that only the encoding changed.
"""

import dataclasses
import hashlib

import pytest

from repro.api import PipelineSpec, execute_spec
from repro.api.cli import _stage_configs, build_parser
from repro.api.serialize import canonical_json

from .helpers import legacy_report_dict
from .test_spec_pins import every_stage_spec


def _sha(data) -> str:
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def _digests(report):
    """The report's digest and its earlier-shape digest."""
    data = report.canonical_dict()
    return _sha(data), _sha(legacy_report_dict(data))


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
    assert _digests(report) == (
        "4703507a10492a722dcad285a6a3b70e5b71921246b3922f8eb0352c1626f3c7",
        "5ad8584e0fd824b8f4228011f93edbe2e9356f585fcd7e495ce22c274dcd1861",
    )


@pytest.mark.parametrize(
    "argv, spec_hash, digests, n_redundant",
    [
        (
            ["s2"],
            "76f63736a52ba4457537a941bd23a36927a7702a00f7091df1c67b09c6e7f9ec",
            (
                "d10e490f38a7975824d2e26488decaca1668966956848aa2c5ffe9b861f36d65",
                "8faf888f4471b251f385e92f717cc270cd8379f4ec6f03db0d96027982f5d89d",
            ),
            0,
        ),
        (
            ["s2", "--keep-redundant"],
            "681421b9c78cd26dd4061f79779a88d5173b10af6e34d750162d9d12810cec47",
            (
                "b5768a0094da86f3e8e8cec47165f561d82595e5b0a51772eceb0ee83e295959",
                "b34bb0e74dd8cd28cb7ba070c29a410dde3365d34d19cb55a1ea5eb4b9d5fbc5",
            ),
            204,
        ),
    ],
)
def test_cli_run_report(argv, spec_hash, digests, n_redundant):
    spec = _cli_run_spec(argv)
    assert spec.spec_hash() == spec_hash
    report = execute_spec(spec)
    assert len(report.optimization.redundant_faults) == n_redundant
    assert _digests(report) == digests


@pytest.mark.parametrize(
    "argv, limit",
    [(["s2"], 100_000), (["c432", "--multi-weight", "2"], 14_000)],
)
def test_cli_run_report_size(argv, limit):
    """The report writes its fault list once, which keeps it small."""
    data = execute_spec(_cli_run_spec(argv)).to_dict()
    assert canonical_json(data).count('"faults"') == 1
    assert len(canonical_json(data)) < limit
