"""One repetition of the serving benchmark, in a fresh interpreter.

``run.py`` starts this script once per repetition, one at a time, so no
repetition inherits another's heap or the program's process-wide
telemetry scope (which keeps every event it is ever handed), and peak
resident memory is per repetition.  The result is printed as one JSON
object on standard output.

    python3 perfbench/worker.py --workload arena-6 --seed 1 --rep 0 \\
        --budget-s 10 [--traced --spans PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import Outcome, score, violations  # noqa: E402
from workloads import WORKLOADS, Tick, Workload, build_inputs, build_testbed  # noqa: E402

from repro import telemetry  # noqa: E402
from repro.core.multiuser import MultiUserSystem  # noqa: E402
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio  # noqa: E402
from repro.rate.adaptation import RateAdapter  # noqa: E402

#: Setups per repetition; the reported set-up time is their median.
SETUPS = 5
#: How often the timed loop pauses (untimed) to probe the host's speed.
PROBE_EVERY_S = 0.25
_PROBE_ARRAY = np.linspace(0.0, 1.0, 16)


def host_probe() -> float:
    """Seconds one fixed slice of interpreter and small-array work takes.

    The slice mixes what ticks spend their time on (float arithmetic,
    dict updates, tuple churn, 16-element NumPy calls) but calls no
    program code, so it tracks the host's current speed and nothing
    else.  ``run.py`` scales host timings by it.
    """
    started = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(2000):
        total += math.sin(i) * 0.5
        table[i & 63] = (i, total)
        total += float(np.sin(_PROBE_ARRAY * i).sum())
    return time.perf_counter() - started


class SoloServer:
    """One headset: ``MoVRSystem.decide`` then ``RateAdapter.observe``."""

    def __init__(self, bed) -> None:
        self.system = bed.system
        self.adapter = RateAdapter()
        self.reflectors = [r.name for r in bed.system.reflectors]

    def serve(self, tick: Tick) -> Outcome:
        pose = tick.poses[0]
        radio = Radio(
            pose.position,
            boresight_deg=pose.yaw_deg,
            config=HEADSET_RADIO_CONFIG,
            name="headset",
        )
        decision = self.system.decide(radio, tick.occluders, t_s=tick.t_s)
        self.adapter.observe(decision.snr_db, t_s=tick.t_s)
        return Outcome((decision,), (self.adapter.current_rate_mbps,))


class RoomServer:
    """N headsets: one ``MultiUserSystem.step`` per tick."""

    def __init__(self, bed, num_users: int) -> None:
        self.multi = MultiUserSystem(bed.system, num_users=num_users)
        self.reflectors = [r.name for r in bed.system.reflectors]

    def serve(self, tick: Tick) -> Outcome:
        result = self.multi.step(tick.t_s, tick.poses, tick.occluders)
        return Outcome(
            result.decisions,
            tuple(a.current_rate_mbps for a in self.multi.adapters),
            result.window.lost_users,
        )


def set_up(workload: Workload):
    """Build the testbed, calibrate reflector gains, construct the server."""
    bed = build_testbed(workload)
    if workload.num_users == 1:
        return bed, SoloServer(bed)
    return bed, RoomServer(bed, workload.num_users)


def timed_loop(
    serve: Callable[[Tick], Outcome],
    ticks: Sequence[Tick],
    min_ticks: int,
    budget_s: float,
) -> Dict[str, object]:
    """Closed loop: feed ticks one after another until the budget is
    spent (and at least ``min_ticks`` ran); time each tick.  Between
    ticks, every ``PROBE_EVERY_S``, probe the host's speed; probe time
    is kept out of ``loop_s``."""
    perf = time.perf_counter
    samples: List[float] = []
    outcomes: List[Outcome] = []
    probes: List[float] = []
    start = perf()
    deadline = start + budget_s
    next_probe = start
    for k, tick in enumerate(ticks):
        now = perf()
        if k >= min_ticks and now >= deadline:
            break
        if now >= next_probe:
            probes.append(host_probe())
            next_probe = perf() + PROBE_EVERY_S
        t0 = perf()
        try:
            outcome = serve(tick)
        except Exception as exc:  # a failed tick is counted, not fatal
            outcome = Outcome((), (), error=f"{type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        samples.append(perf() - t0)
        outcomes.append(outcome)
    return {
        "samples": samples,
        "outcomes": outcomes,
        "probes": probes,
        "loop_s": perf() - start - sum(probes),
    }


def traced_serve(rec, serve: Callable[[Tick], Outcome]) -> Callable[[Tick], Outcome]:
    """Open the root ``tick`` span around each tick."""

    def serve_tick(tick: Tick) -> Outcome:
        rec.current_tick += 1
        index = rec.open(0)
        try:
            return serve(tick)
        finally:
            rec.close(index)

    return serve_tick


def run_repetition(
    workload: Workload,
    seed: int,
    rep: int,
    budget_s: float,
    traced: bool = False,
    spans_path: Optional[str] = None,
    wrap_serve: Optional[Callable] = None,
) -> Dict[str, object]:
    setup_s = []
    for _ in range(SETUPS):
        started = time.perf_counter()
        bed, server = set_up(workload)
        setup_s.append(time.perf_counter() - started)

    started = time.perf_counter()
    ticks = build_inputs(workload, bed, seed, rep)
    input_s = time.perf_counter() - started

    serve = server.serve if wrap_serve is None else wrap_serve(server.serve)
    rec = uninstall = None
    if traced:
        import tracing

        rec = tracing.SpanRecorder()
        uninstall = tracing.install(rec)
        serve = traced_serve(rec, serve)
    gc.collect()
    try:
        with telemetry.scope("perfbench") as scope:
            loop = timed_loop(serve, ticks, workload.guard_ticks, budget_s)
    finally:
        if uninstall is not None:
            uninstall()

    outcomes: List[Outcome] = loop["outcomes"]
    errors = []
    for k, outcome in enumerate(outcomes):
        problems = violations(outcome, workload.num_users, server.reflectors)
        if problems:
            errors.append(f"tick {k}: " + "; ".join(problems))
    result: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "rep": rep,
        "setup_s": setup_s,
        "input_s": input_s,
        "tick_s": loop["samples"],
        "loop_s": loop["loop_s"],
        "probe_s": loop["probes"],
        "ticks": len(outcomes),
        "user_frames": len(outcomes) * workload.num_users,
        "error_ticks": len(errors),
        "errors": errors[:5],
        "qoe": score(outcomes[: workload.guard_ticks], workload.num_users),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        result["per_layer"] = tracing.per_layer_metrics(rec, len(outcomes))
        result["counter_mismatches"] = tracing.counter_mismatches(rec, scope.registry)
        result["spans"] = len(rec.layer)
        if spans_path:
            rec.write(spans_path)
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--budget-s", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None, help="write traced spans here")
    parser.add_argument(
        "--max-ticks", type=int, default=None, help="cap the input (smoke runs)"
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.max_ticks is not None:
        workload = dataclasses.replace(
            workload,
            guard_ticks=min(workload.guard_ticks, args.max_ticks),
            input_ticks=min(workload.input_ticks, args.max_ticks),
        )
    result = run_repetition(
        workload,
        args.seed,
        args.rep,
        args.budget_s,
        traced=args.traced,
        spans_path=args.spans,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
