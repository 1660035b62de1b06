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


def test_quickstart_runs_the_pinned_spec(capsys):
    """The quickstart runs the one spec whose identity
    ``tests/test_spec_pins.py`` pins, so stored artifacts keep their keys."""
    from tests.test_spec_pins import quickstart_spec

    main = runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="example")["main"]
    execute = main.__globals__["execute_spec"]
    specs = []

    def recording(spec, *args, **kwargs):
        specs.append(spec)
        return execute(spec, *args, **kwargs)

    main.__globals__["execute_spec"] = recording
    main()
    assert specs == [quickstart_spec()]
