"""Command-line entry point: ``python -m repro.obs {trace,summarize}``.

Examples
--------
Deep-dive one trial of a registered scenario and write a Chrome-trace
JSON (open it at https://ui.perfetto.dev or ``chrome://tracing``)::

    python -m repro.obs trace ldd-scale --set family=grid-40x40 \\
        --out trace.json

Aggregate the span/counter tables of traced rows in a result store
into byte-stable ``OBS_<scenario>.json`` span-summary artifacts (the
nightly workflow uploads these next to ``BENCH_*.json``)::

    python -m repro.obs summarize --store nightly-results

``trace`` runs the trial inline (no process sharding) with the same
``(root_seed, params, trial)`` seed derivation as ``repro.exp run``,
so the traced execution is the exact computation a sharded run would
persist.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import obs
from repro.obs.chrome import write_chrome_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Span-tracing deep dives and span-summary exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser(
        "trace", help="run one trial with tracing and write a Chrome trace"
    )
    trace.add_argument("scenario", help="registered scenario name")
    trace.add_argument(
        "--set",
        action="append",
        dest="overrides",
        metavar="KEY=VALUE[,VALUE...]",
        help="override a grid key (repeatable); same syntax as repro.exp run",
    )
    trace.add_argument(
        "--point",
        type=int,
        default=0,
        help="index into the (overridden) grid's parameter points (default 0)",
    )
    trace.add_argument("--trial", type=int, default=0, help="trial index (default 0)")
    trace.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    trace.add_argument(
        "--kernel-workers",
        type=int,
        default=None,
        help="pin REPRO_KERNEL_WORKERS for the traced trial",
    )
    trace.add_argument(
        "--out",
        default=None,
        help="Chrome-trace output path (default trace-<scenario>.json)",
    )

    summarize = sub.add_parser(
        "summarize",
        help="export OBS_<scenario>.json span summaries from a result store",
    )
    summarize.add_argument(
        "--store", default="results", help="result store directory (default ./results)"
    )
    summarize.add_argument(
        "--out-dir",
        default=None,
        help="output directory for OBS_*.json (default: the store directory)",
    )
    return parser


def _cmd_trace(args: argparse.Namespace) -> int:
    # Imported lazily: `trace` needs the experiment registry (numpy and
    # the full library), while `summarize` only reads JSONL files.
    from repro.exp import scenarios as _scenarios
    from repro.exp.cli import _parse_overrides
    from repro.transport import KERNEL_WORKERS_ENV
    from repro.util.tables import Table

    try:
        scn = _scenarios.get(args.scenario)
    except KeyError:
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        print(f"registered: {', '.join(_scenarios.names())}", file=sys.stderr)
        return 2
    points = scn.param_points(_parse_overrides(args.overrides) or None)
    if not 0 <= args.point < len(points):
        print(
            f"--point {args.point} out of range (grid has {len(points)} point(s))",
            file=sys.stderr,
        )
        return 2
    params = points[args.point]
    ctx = _scenarios.TrialContext(
        _scenarios.trial_seed_sequence(args.seed, params, args.trial)
    )

    saved = os.environ.get(KERNEL_WORKERS_ENV)
    if args.kernel_workers is not None:
        os.environ[KERNEL_WORKERS_ENV] = str(args.kernel_workers)
    try:
        with obs.collect() as collector:
            metrics = scn.func(dict(params), ctx)
    finally:
        if args.kernel_workers is not None:
            if saved is None:
                os.environ.pop(KERNEL_WORKERS_ENV, None)
            else:
                os.environ[KERNEL_WORKERS_ENV] = saved

    out = args.out or f"trace-{scn.name}.json"
    write_chrome_trace(collector, out, process_name=f"repro:{scn.name}")

    table = Table(
        ["span", "calls", "wall_s"],
        title=f"{scn.name} params={params} trial={args.trial} seed={args.seed}",
    )
    for path, entry in collector.span_table().items():
        table.add_row([path, entry["calls"], f"{entry['wall_s']:.6f}"])
    print(table.render())
    for name, value in collector.counter_table().items():
        print(f"counter {name} = {value}")
    for name, entry in collector.gauge_table().items():
        print(f"gauge   {name} last={entry['last']} max={entry['max']}")
    print(f"metrics: {json.dumps(metrics, sort_keys=True, default=str)}")
    print(f"chrome trace written to {out} ({len(collector.records)} event(s))")
    return 0


def summarize_store(store_dir: Path, out_dir: Path) -> List[Path]:
    """Write ``OBS_<scenario>.json`` for every scenario with traced rows.

    Returns the paths written.  Scenarios whose rows carry no obs
    tables (tracing was off) are skipped, so the export is a no-op on
    untraced stores.
    """
    from repro.exp import report as _report
    from repro.exp.store import ResultStore

    store = ResultStore(store_dir)
    written: List[Path] = []
    for path in sorted(store_dir.glob("*.jsonl")):
        scenario = path.stem
        agg = _report.aggregate(scenario, store.rows(scenario))
        points = [
            {
                "params": point["params"],
                "trials": point["trials"],
                **{
                    key: point[key]
                    for key in ("spans", "counters", "gauges")
                    if key in point
                },
            }
            for point in agg["points"]
            if any(key in point for key in ("spans", "counters", "gauges"))
        ]
        if not points:
            continue
        document = {
            "schema": agg["schema"],
            "scenario": scenario,
            "code_versions": agg["code_versions"],
            "points": points,
        }
        out_path = out_dir / f"OBS_{scenario}.json"
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(
            json.dumps(document, sort_keys=True, indent=2, separators=(",", ": "))
            + "\n",
            encoding="utf-8",
        )
        written.append(out_path)
    return written


def _cmd_summarize(args: argparse.Namespace) -> int:
    store_dir = Path(args.store)
    if not store_dir.is_dir():
        print(f"store directory {store_dir} does not exist", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else store_dir
    written = summarize_store(store_dir, out_dir)
    if not written:
        print(f"no traced rows in {store_dir} — nothing to summarize")
        return 0
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "summarize":
        return _cmd_summarize(args)
    raise AssertionError(f"unhandled command {args.command!r}")


__all__ = ["main", "summarize_store"]
