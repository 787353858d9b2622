"""Command-line interface: run any experiment by its DESIGN.md id.

Usage::

    python -m repro list
    python -m repro run fig9 --seed 7
    python -m repro run all --seed 7
    python -m repro run fig9 --trace trace.json --metrics metrics.json

Each experiment prints its regenerated table, notes, and the shape
checks against the paper; the process exits non-zero if any check
fails, so ``python -m repro run all`` doubles as a reproduction audit
in CI.

Telemetry flags (see docs/observability.md):

``--metrics PATH``
    Write the run's metric snapshot (counters, histogram quantiles,
    time-series digests) as JSON.
``--trace PATH``
    Write the run's span tree in Chrome trace-event format — load it
    at ``chrome://tracing`` or https://ui.perfetto.dev.
``--events``
    Print the full control-plane event log instead of the first few
    events per experiment.
``--max-events N``
    Print at most N events per experiment (overrides the default 8).
``--slo``
    Show the per-window breakdown under each SLO verdict.
``--timeseries PATH``
    Write every recorded time series (decimated points + exact
    aggregates) as JSON.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from typing import List, Optional

from repro import telemetry
from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import DEFAULT_MAX_EVENTS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "MoVR reproduction harness (Abari et al., HotNets 2016): "
            "regenerate the paper's figures and the extension experiments."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id from DESIGN.md (e.g. fig9), or 'all'",
    )
    run.add_argument("--seed", type=int, default=2016, help="experiment seed")
    run.add_argument(
        "--max-rows",
        type=int,
        default=20,
        help="limit printed table rows (default 20)",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report(s) as JSON; for 'all', PATH gets a "
        "per-experiment suffix",
    )
    run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the run's metric snapshot (counters, histogram "
        "quantiles, time-series digests) as JSON",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the run's spans as a Chrome trace-event JSON "
        "(chrome://tracing)",
    )
    run.add_argument(
        "--events",
        action="store_true",
        help="print every control-plane event (default: first few per "
        "experiment)",
    )
    run.add_argument(
        "--max-events",
        type=int,
        default=DEFAULT_MAX_EVENTS,
        metavar="N",
        help=f"print at most N events per experiment (default {DEFAULT_MAX_EVENTS}; "
        "ignored with --events)",
    )
    run.add_argument(
        "--slo",
        action="store_true",
        help="show the per-window breakdown under each SLO verdict",
    )
    run.add_argument(
        "--timeseries",
        metavar="PATH",
        default=None,
        help="write every recorded time series (points + aggregates) as JSON",
    )

    return parser


def _per_experiment_path(path: str, experiment_id: str) -> str:
    """Suffix ``path``'s basename with the experiment id.

    Only the basename is split on ``.`` — a dot in a parent directory
    (``out.d/report``) must not be mistaken for an extension.
    """
    head, tail = os.path.split(path)
    stem, dot, ext = tail.rpartition(".")
    if dot:
        tail = f"{stem}-{experiment_id}.{ext}"
    else:
        tail = f"{tail}-{experiment_id}"
    return os.path.join(head, tail) if head else tail


def _run_one(
    experiment_id: str,
    seed: int,
    max_rows: int,
    json_path: Optional[str] = None,
    max_events: Optional[int] = DEFAULT_MAX_EVENTS,
    slo_detail: bool = False,
) -> bool:
    fn = ALL_EXPERIMENTS[experiment_id]
    # Deterministic experiments take no seed.
    seeded = "seed" in inspect.signature(fn).parameters
    report = fn(seed=seed) if seeded else fn()
    report.print_report(max_rows=max_rows, max_events=max_events, slo_detail=slo_detail)
    print()
    if json_path is not None:
        report.save_json(json_path)
    return report.all_checks_pass


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in ALL_EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.experiment == "all":
        targets = list(ALL_EXPERIMENTS)
    elif args.experiment in ALL_EXPERIMENTS:
        targets = [args.experiment]
    else:
        known = ", ".join(ALL_EXPERIMENTS)
        print(
            f"unknown experiment {args.experiment!r}; known ids: {known}",
            file=sys.stderr,
        )
        return 2
    all_ok = True
    # One CLI-level scope around every experiment: per-experiment
    # scopes fold into it on exit, so --metrics/--trace cover the
    # whole invocation even for 'run all'.
    with telemetry.scope("cli") as sc:
        for experiment_id in targets:
            json_path = args.json
            if json_path is not None and len(targets) > 1:
                json_path = _per_experiment_path(json_path, experiment_id)
            ok = _run_one(
                experiment_id,
                args.seed,
                args.max_rows,
                json_path,
                max_events=None if args.events else args.max_events,
                slo_detail=args.slo,
            )
            all_ok = all_ok and ok
    if args.metrics is not None:
        with open(args.metrics, "w") as handle:
            json.dump(sc.registry.snapshot(), handle, indent=2)
        print(f"metrics written to {args.metrics}")
    if args.timeseries is not None:
        with open(args.timeseries, "w") as handle:
            json.dump(sc.registry.series_export(), handle, indent=2)
        print(f"time series written to {args.timeseries}")
    if args.trace is not None:
        with open(args.trace, "w") as handle:
            json.dump(telemetry.chrome_trace_json(sc.tracer.roots), handle, indent=2)
        print(f"trace written to {args.trace}")
    if not all_ok:
        print("one or more shape checks FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
