"""The example scripts run end to end.

Each case loads a script from ``examples/`` and calls its ``main()`` in
process, with stdout captured, so an API change that breaks an example
fails here rather than in a user's terminal.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script, kwargs, expected",
    [
        ("quickstart.py", {}, "Circuit lowerings"),
        ("bist_weighted_self_test.py", {}, "FAULT DETECTED"),
        ("divider_optimization.py", {}, "Partitioned test"),
        ("netlist_workflow.py", {}, "Generated pipeline"),
        ("reproduce_paper_tables.py", {"quick": True}, "lowerings across all workers"),
    ],
)
def test_example_runs(script, kwargs, expected, capsys):
    namespace = runpy.run_path(str(EXAMPLES / script), run_name="example")
    namespace["main"](**kwargs)
    assert expected in capsys.readouterr().out
