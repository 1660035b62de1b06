"""``python -m repro`` — the command-line face of the job-spec API.

Four subcommands, all reading declarative specs (from argv flags or JSON
spec files) and writing JSON artifact files that round-trip through
:func:`repro.api.load_artifact`:

``run``
    Execute the pipeline for one or more circuits (registry keys,
    ``--bench netlist.bench`` files and/or ``--spec file.json`` — spec files
    may reference any circuit source, including the synthetic generator).
    One circuit writes a ``pipeline_report`` artifact; several write a
    ``report_batch``.

``sweep``
    Batch-execute the pipeline over many registry circuits (default: the
    whole registry) through :func:`repro.api.run_jobs` with configurable
    ``--parallelism``.

``selftest``
    Run the BIST stage (optimize → quantize → weighted LFSR self test) for
    one circuit, optionally with the hardest fault injected.

``tables``
    Regenerate the paper's tables from one declarative suite sweep
    (:func:`repro.experiments.batch.suite_specs`) and print them; ``--json``
    writes the rows as an ``experiment_rows`` artifact.

``serve``
    The always-on job service (:mod:`repro.service`): accept spec
    submissions over HTTP, deduplicate by spec hash, execute cold specs on
    a worker pool and serve warm ones from the content-addressed artifact
    store (``--store DIR`` makes the store durable).

``store``
    Inspect and maintain an artifact store directory: ``ls`` keys, ``get``
    one artifact as JSON, ``gc`` down to ``--max-entries``/``--max-bytes``.

``bench``
    The benchmark harness (:mod:`repro.bench.cli`): run benchmark areas,
    compare against the committed ``BENCH_<area>.json`` perf trajectories,
    gate regressions (``--check``) and record new points (``--update``).
    All arguments after ``bench`` are handled by the bench CLI.

Examples::

    python -m repro run s1 --json s1.json
    python -m repro run s1 --store /tmp/repro-store   # second run: store hit
    python -m repro serve --store /tmp/repro-store --port 8787
    python -m repro store --store /tmp/repro-store ls
    python -m repro run s1 c7552 --patterns 2000 --parallelism 2 --json out.json
    python -m repro run --bench examples/c17.bench --patterns 256
    python -m repro run --spec myjob.json
    python -m repro sweep --parallelism 4 --analysis-only --json sweep.json
    python -m repro selftest s1 --patterns 2000 --inject-hardest
    python -m repro tables --quick --parallelism 2 --json rows.json
    python -m repro bench --quick --check
    python -m repro bench substrate --update
    python -m repro bench report
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .artifacts import experiment_rows_dict, report_batch_dict
from .jobs import iter_jobs
from .serialize import SchemaError
from .spec import (
    AnalysisConfig,
    FaultSimConfig,
    MultiWeightConfig,
    OptimizeConfig,
    PipelineSpec,
    QuantizeConfig,
    SelfTestConfig,
)

__all__ = ["main"]


def _write_artifact(path: Optional[str], data: Dict[str, Any]) -> None:
    if not path:
        return
    Path(path).write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {path}")


def _spec_error(path: str, exc: object) -> "SystemExit":
    """Exit status 2 with a path-prefixed message (no traceback)."""
    print(f"error: {path}: {exc}", file=sys.stderr)
    return SystemExit(2)


@contextmanager
def _checked_values():
    """Report out-of-range flag values from config validation as exit 2."""
    try:
        yield
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _load_spec_file(path: str) -> PipelineSpec:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _spec_error(path, exc)
    try:
        return PipelineSpec.from_dict(data)
    except SchemaError as exc:
        raise _spec_error(path, exc)


def _stage_configs(args: argparse.Namespace) -> Dict[str, Any]:
    """Translate the shared CLI flags into stage configs."""
    analysis = AnalysisConfig(
        confidence=args.confidence,
        drop_redundant=not getattr(args, "keep_redundant", False),
    )
    if getattr(args, "analysis_only", False):
        return {
            "analysis": analysis,
            "optimize": None,
            "quantize": None,
            "fault_sim": None,
            "multi_weight": None,
        }
    multi_weight = None
    if getattr(args, "multi_weight", None) is not None:
        multi_weight = MultiWeightConfig(
            k=args.multi_weight,
            scan_chains=getattr(args, "scan_chains", None),
            target_coverage=getattr(args, "target_coverage", None),
        )
    return {
        "analysis": analysis,
        "optimize": OptimizeConfig(max_sweeps=args.max_sweeps),
        "quantize": QuantizeConfig(),
        "fault_sim": FaultSimConfig(n_patterns=args.patterns),
        "multi_weight": multi_weight,
    }


def _execute_batch(
    specs: List[PipelineSpec],
    parallelism: Optional[int],
    store: Optional[str] = None,
) -> List:
    """Run a batch, streaming one progress line per finished job."""
    reports: List = [None] * len(specs)
    for result in iter_jobs(specs, parallelism=parallelism, store=store):
        reports[result.index] = result.report
        marker = " (store hit)" if result.store_hit else ""
        print(f"[{result.spec.label}] {result.report.summary()}{marker}", flush=True)
    return reports


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _cmd_run(args: argparse.Namespace) -> int:
    specs = [_load_spec_file(path) for path in args.spec]
    with _checked_values():
        stages = _stage_configs(args)
        for key in args.circuits:
            specs.append(PipelineSpec(circuit=key, seed=args.seed, **stages))
    for path in args.bench:
        try:
            spec = PipelineSpec(
                circuit={"kind": "file", "path": path}, seed=args.seed, **stages
            )
            spec.build_circuit()  # fail fast on missing/invalid files
        except (OSError, ValueError) as exc:
            raise _spec_error(path, f"cannot use .bench file: {exc}")
        specs.append(spec)
    if not specs:
        print("error: no circuits, --bench or --spec files given", file=sys.stderr)
        return 2
    reports = _execute_batch(specs, args.parallelism, store=args.store)
    if len(reports) == 1:
        _write_artifact(args.json, reports[0].to_dict())
    else:
        _write_artifact(args.json, report_batch_dict(reports))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from ..circuits.registry import circuit_keys

    keys = (
        circuit_keys()
        if args.circuits in (None, "all")
        else [key.strip() for key in args.circuits.split(",") if key.strip()]
    )
    with _checked_values():
        stages = _stage_configs(args)
        specs = [PipelineSpec(circuit=key, seed=args.seed, **stages) for key in keys]
    reports = _execute_batch(specs, args.parallelism, store=args.store)
    _write_artifact(args.json, report_batch_dict(reports))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    weighted = not args.unweighted
    if args.multi_weight is not None and not weighted:
        print(
            "error: --multi-weight requires a weighted session "
            "(drop --unweighted)",
            file=sys.stderr,
        )
        return 2
    with _checked_values():
        stages = _stage_configs(args)
        spec = PipelineSpec(
            circuit=args.circuit,
            seed=args.seed,
            analysis=stages["analysis"],
            optimize=stages["optimize"] if weighted else None,
            quantize=stages["quantize"] if weighted else None,
            fault_sim=None,
            self_test=SelfTestConfig(
                n_patterns=args.patterns,
                use_lfsr=not args.prng,
                weighted=weighted,
                inject_hardest=args.inject_hardest,
            ),
            multi_weight=stages["multi_weight"],
        )
    reports = _execute_batch([spec], parallelism=1, store=args.store)
    report = reports[0]
    self_test = report.self_test
    print(f"golden signature : 0x{self_test.golden_signature:x}")
    print(f"test signature   : 0x{self_test.signature:x}")
    if report.self_test_fault is not None:
        outcome = "DETECTED" if not self_test.passed else "MISSED"
        print(f"injected fault   : [{report.self_test_fault.to_list()}] {outcome}")
    if report.multi_weight is not None:
        print(f"multi-weight     : {report.multi_weight.summary()}")
    _write_artifact(args.json, report.to_dict())
    return 0 if (self_test.passed == (report.self_test_fault is None)) else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    from ..experiments import (
        appendix_listings,
        figure2_data,
        format_appendix,
        format_figure2,
        format_table1,
        format_table2,
        format_table3,
        format_table4,
        format_table5,
        suite_specs,
        table1_rows,
        table2_rows,
        table3_rows,
        table4_rows,
        table5_rows,
    )

    # The suite decides which stages each circuit runs; the flags decide
    # how the analysis and fault-simulation stages run.
    with _checked_values():
        stages = _stage_configs(args)
        specs = [
            replace(
                spec,
                analysis=stages["analysis"],
                fault_sim=stages["fault_sim"] if spec.fault_sim else None,
            )
            for spec in suite_specs(
                seed=args.seed,
                max_sweeps=args.max_sweeps,
                include_fault_sim=not args.quick,
            )
        ]
    reports = _execute_batch(specs, args.parallelism, store=args.store)
    print()
    rows: List[Any] = []
    for build_rows, formatter in (
        (table1_rows, format_table1),
        (table2_rows, format_table2),
        (table3_rows, format_table3),
        (table4_rows, format_table4),
        (table5_rows, format_table5),
    ):
        table = build_rows(reports)
        if table:
            print(formatter(table))
            print()
            rows.extend(table)
    figure2 = figure2_data(reports)
    if figure2 is not None:
        print(format_figure2(figure2))
        print()
        rows.append(figure2)
    listings = appendix_listings(reports)
    if listings:
        print(format_appendix(listings))
        rows.extend(listings)
    _write_artifact(args.json, experiment_rows_dict(rows))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..service import serve

    asyncio.run(
        serve(
            host=args.host,
            port=args.port,
            store=_open_cli_store(args, required=False),
            parallelism=args.parallelism,
            use_processes=args.processes or None,
            grace=args.grace,
        )
    )
    return 0


def _open_cli_store(args: argparse.Namespace, required: bool = True):
    from ..store import open_store

    if args.store is None:
        if required:
            raise SystemExit("error: --store DIR is required")
        return None
    return open_store(
        args.store,
        max_entries=getattr(args, "store_max_entries", None),
        max_bytes=getattr(args, "store_max_bytes", None),
    )


def _cmd_store(args: argparse.Namespace) -> int:
    store = _open_cli_store(args)
    if args.store_command == "ls":
        for key in store.keys():
            print(key)
        info = store.info()
        print(
            f"# {info['entries']} artifacts, {info.get('bytes', 0):,} bytes "
            f"in {args.store}",
            file=sys.stderr,
        )
        return 0
    if args.store_command == "get":
        artifact = store.get(args.key)
        if artifact is None:
            print(f"error: no artifact under {args.key!r}", file=sys.stderr)
            return 1
        print(json.dumps(artifact, indent=2))
        return 0
    if args.store_command == "gc":
        evicted = store.gc(max_entries=args.max_entries, max_bytes=args.max_bytes)
        info = store.info()
        print(
            f"evicted {evicted} artifacts; {info['entries']} remain "
            f"({info.get('bytes', 0):,} bytes)"
        )
        return 0
    raise SystemExit(f"unknown store command {args.store_command!r}")


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def _add_common(parser: argparse.ArgumentParser, patterns_default=None) -> None:
    parser.add_argument(
        "--seed", type=int, default=1987, help="root seed (default: %(default)s)"
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.999,
        help="detection confidence target (default: %(default)s)",
    )
    parser.add_argument(
        "--max-sweeps",
        type=int,
        default=8,
        help="optimizer sweep budget (default: %(default)s)",
    )
    parser.add_argument(
        "--patterns",
        type=int,
        default=patterns_default,
        help="fault-simulation pattern budget (default: the circuit's paper budget)",
    )
    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="worker processes for the batch executor (default: serial)",
    )
    parser.add_argument("--json", metavar="PATH", help="write the JSON artifact here")
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="content-addressed artifact store directory shared by the batch "
        "(reports already stored are served without executing)",
    )


def _add_multi_weight(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--multi-weight",
        type=int,
        default=None,
        metavar="K",
        help="append the multi-weight-set BIST stage: cluster the fault list "
        "into K groups, optimize one weight set per cluster and play them "
        "through reseeded LFSRs (requires the optimize/quantize stages)",
    )
    parser.add_argument(
        "--scan-chains",
        type=int,
        default=None,
        metavar="N",
        help="deliver multi-weight patterns through N STUMPS-style scan "
        "chains instead of parallel per-input LFSR taps",
    )
    parser.add_argument(
        "--target-coverage",
        type=float,
        default=None,
        metavar="F",
        help="stop each multi-weight session early once fault coverage "
        "reaches this fraction",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__.split("\n\n")[0],
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run the pipeline for circuits and/or spec files"
    )
    run.add_argument("circuits", nargs="*", help="benchmark-registry circuit keys")
    run.add_argument(
        "--spec",
        action="append",
        default=[],
        metavar="FILE",
        help="JSON pipeline-spec file (repeatable)",
    )
    run.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="FILE",
        help="ISCAS .bench netlist file to run as a file circuit source (repeatable)",
    )
    run.add_argument(
        "--analysis-only", action="store_true", help="skip optimize/quantize/fault-sim"
    )
    run.add_argument(
        "--keep-redundant",
        action="store_true",
        help="keep faults proven undetectable in the fault list",
    )
    _add_common(run)
    _add_multi_weight(run)
    run.set_defaults(func=_cmd_run)

    sweep = commands.add_parser(
        "sweep", help="batch-execute the pipeline over registry circuits"
    )
    sweep.add_argument(
        "--circuits",
        default="all",
        help="comma-separated registry keys (default: the whole registry)",
    )
    sweep.add_argument(
        "--analysis-only", action="store_true", help="skip optimize/quantize/fault-sim"
    )
    sweep.add_argument(
        "--keep-redundant",
        action="store_true",
        help="keep faults proven undetectable in the fault list",
    )
    _add_common(sweep)
    _add_multi_weight(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    selftest = commands.add_parser(
        "selftest", help="run the BIST self-test stage for one circuit"
    )
    selftest.add_argument("circuit", help="benchmark-registry circuit key")
    selftest.add_argument(
        "--prng",
        action="store_true",
        help="draw patterns from the software PRNG instead of the LFSR network",
    )
    selftest.add_argument(
        "--unweighted",
        action="store_true",
        help="equiprobable session (skips the optimize/quantize stages)",
    )
    selftest.add_argument(
        "--inject-hardest",
        action="store_true",
        help="re-run with the hardest fault injected and check it is detected",
    )
    _add_common(selftest, patterns_default=2_000)
    _add_multi_weight(selftest)
    selftest.set_defaults(func=_cmd_selftest)

    tables = commands.add_parser(
        "tables", help="regenerate the paper's tables via the batch executor"
    )
    tables.add_argument(
        "--quick",
        action="store_true",
        help="skip the fault-simulation stages (Tables 2/4, Figure 2)",
    )
    _add_common(tables)
    tables.set_defaults(func=_cmd_tables)

    serve = commands.add_parser(
        "serve",
        help="run the always-on HTTP job service over an artifact store",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port; 0 picks a free port (default: %(default)s)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact store directory (default: in-memory, process lifetime)",
    )
    serve.add_argument(
        "--store-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-used artifacts beyond N",
    )
    serve.add_argument(
        "--store-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="evict least-recently-used artifacts beyond this total size",
    )
    serve.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="concurrent cold executions (default: %(default)s)",
    )
    serve.add_argument(
        "--processes",
        action="store_true",
        help="execute in worker processes instead of threads "
        "(requires --store DIR)",
    )
    serve.add_argument(
        "--grace",
        type=float,
        default=10.0,
        help="seconds running jobs get to finish on shutdown (default: %(default)s)",
    )
    serve.set_defaults(func=_cmd_serve)

    store = commands.add_parser(
        "store", help="inspect and maintain an artifact store directory"
    )
    store.add_argument(
        "--store", metavar="DIR", required=True, help="store directory"
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_commands.add_parser("ls", help="list stored artifact keys")
    store_get = store_commands.add_parser("get", help="print one artifact as JSON")
    store_get.add_argument("key", help="store key (namespace/digest)")
    store_gc = store_commands.add_parser(
        "gc", help="evict least-recently-used artifacts beyond the given bounds"
    )
    store_gc.add_argument(
        "--max-entries", type=int, default=None, metavar="N", help="keep at most N"
    )
    store_gc.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="keep at most this total size",
    )
    store.set_defaults(func=_cmd_store)

    commands.add_parser(
        "bench",
        help="run benchmark areas and gate the committed perf trajectory "
        "(see 'python -m repro bench --help')",
        add_help=False,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # The bench harness owns its own argv space (areas, --check, --update,
    # report, ...) — hand everything after "bench" through untouched.
    if argv and argv[0] == "bench":
        from ..bench.cli import main as bench_main

        return bench_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        # A spec that validates but cannot run as asked (a self-test schedule
        # over MAX_SCHEDULE_PATTERNS) is a usage error, not a crash.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # The batch executor and the service shut their pools down on the
        # way out; report the conventional 128+SIGINT status.
        print("interrupted", file=sys.stderr)
        return 130
