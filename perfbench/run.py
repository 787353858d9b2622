"""Serving benchmark: per-tick decision latency, user-frame throughput
and simulated-QoE guards.

    python3 perfbench/run.py --workload solo-roam --seed 1 --seconds 30 --trace 0

A tick is one 90 Hz scheduling instant for every headset in the room.
Each repetition runs in a fresh interpreter (``worker.py``), one at a
time: it sets the system up several times, builds every tick's inputs
from the seed, then feeds the ticks to the program in a closed loop
(one caller, one thread) until its share of ``--seconds`` is spent.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced repetition on the same inputs and prints the
per-layer metrics plus the tracing overhead.  Both check every tick's
output invariants.  A human-readable table goes to standard output and
the last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced repetitions per run, each with its own inputs.  Host timings
#: are medians over repetitions of each repetition's statistic, so up to
#: two repetitions disturbed by other load on the host do not move them.
REPETITIONS = 5
#: Host timings are reported scaled to a host on which the speed probe
#: (``worker.host_probe``) takes this long — about its duration on the
#: 2.1 GHz Xeon VM the bounds were set on.  Shared hosts change speed by
#: up to 1.6x for minutes at a time; the probe, interleaved with the
#: ticks, follows those swings and the scaling cancels them.
PROBE_NOMINAL_S = 0.010
#: Repetitions still running this long after the run started are killed
#: and the run fails, so a stuck program cannot hold the caller.
RUN_TIMEOUT_S = 170.0
#: Where traced runs write their spans (ignored by git).
SPANS_DIR = ROOT / ".perfbench"
#: Ticks per repetition under ``--smoke`` (a quick end-to-end check).
SMOKE_TICKS = 12


def _worker(args: Sequence[str], deadline: float) -> Dict[str, object]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker {' '.join(args)} overran the {RUN_TIMEOUT_S:.0f} s run limit")
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {done.returncode}")
    if done.stderr:
        sys.stderr.write(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _qoe(reps: Sequence[Dict]) -> Dict[str, float]:
    frames = sum(r["qoe"]["user_frames"] for r in reps)
    return {
        "glitch_rate": sum(r["qoe"]["undelivered"] for r in reps) / frames,
        "outage_frac": sum(r["qoe"]["outages"] for r in reps) / frames,
        "mean_rate_mbps": sum(r["qoe"]["rate_sum_mbps"] for r in reps) / frames,
    }


def _p95(samples: List[float]) -> float:
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def _p50(rep: Dict) -> float:
    return statistics.median(rep["tick_s"])


def _speed(rep: Dict) -> float:
    """Scale from this repetition's host to the nominal one, measured by
    the host probe interleaved with its ticks."""
    return PROBE_NOMINAL_S / statistics.median(rep["probe_s"])


def _errors(reps: Sequence[Dict]) -> int:
    failed = 0
    for r in reps:
        failed += r["error_ticks"]
        for line in r["errors"]:
            print(f"invariant broken ({r['workload']} rep {r['rep']}): {line}", file=sys.stderr)
    return failed


def end_to_end(
    workload: str, seed: int, seconds: float, deadline: float, extra: Sequence[str] = ()
) -> Dict[str, object]:
    share = seconds / REPETITIONS
    reps = [
        _worker(["--workload", workload, "--seed", str(seed), "--rep", str(rep),
                 "--budget-s", str(share), *extra], deadline)
        for rep in range(REPETITIONS)
    ]
    attempted = sum(r["ticks"] for r in reps)
    failed = _errors(reps)
    qoe = _qoe(reps)

    def across_reps(stat) -> float:
        return statistics.median(stat(r) for r in reps)

    metrics = {
        "setup_s": (across_reps(lambda r: statistics.median(r["setup_s"]) * _speed(r)), "s"),
        "tick_p50_ms": (across_reps(lambda r: _p50(r) * _speed(r)) * 1e3, "ms"),
        # Not scaled: the tail is cache-miss ticks (ray tracing), which the
        # host's speed swings move much less than the probe; scaled, its
        # ten-seed spread was 20-29% against 8-15% unscaled.
        "tick_p95_ms": (across_reps(lambda r: _p95(r["tick_s"])) * 1e3, "ms"),
        "user_frames_per_s": (
            across_reps(lambda r: r["user_frames"] / (r["loop_s"] * _speed(r))), "1/s"
        ),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reps), "MB"),
        "mean_rate_mbps": (qoe["mean_rate_mbps"], "Mbps"),
    }
    info = {
        "host_probe_ms": (across_reps(lambda r: statistics.median(r["probe_s"])) * 1e3, "ms"),
        "unscaled_tick_p50_ms": (across_reps(_p50) * 1e3, "ms"),
        "glitch_rate": (qoe["glitch_rate"], "frac"),
        "outage_frac": (qoe["outage_frac"], "frac"),
        "error_rate": (failed / attempted, "frac"),
        "timed_ticks": (attempted, "count"),
        "min_ticks_beyond_rep_p95": (
            min(sum(t > _p95(r["tick_s"]) for t in r["tick_s"]) for r in reps), "count"
        ),
        "qoe_user_frames": (sum(r["qoe"]["user_frames"] for r in reps), "count"),
        "input_build_s": (statistics.median(r["input_s"] for r in reps), "s"),
    }
    _table(workload, seed, metrics, info)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(
    workload: str, seed: int, seconds: float, deadline: float, extra: Sequence[str] = ()
) -> Dict[str, object]:
    common = ["--workload", workload, "--seed", str(seed), "--rep", "0",
              "--budget-s", str(seconds / 2.0), *extra]
    SPANS_DIR.mkdir(exist_ok=True)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    plain = _worker(common, deadline)
    traced = _worker(common + ["--traced", "--spans", str(spans)], deadline)
    reps = (plain, traced)
    failed = _errors(reps)
    attempted = plain["ticks"] + traced["ticks"]
    problems = list(traced["counter_mismatches"])
    if traced["qoe"] != plain["qoe"]:
        problems.append(f"tracing changed the decisions: {traced['qoe']} vs {plain['qoe']}")
    for line in problems:
        print(f"trace check failed: {line}", file=sys.stderr)
    untraced_ms = _p50(plain) * _speed(plain) * 1e3
    traced_ms = _p50(traced) * _speed(traced) * 1e3
    metrics = {name: (value, _unit(name)) for name, value in traced["per_layer"].items()}
    metrics["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "frac")
    info = {
        "spans": (traced["spans"], "count"),
        "ticks_traced": (traced["ticks"], "count"),
        "untraced_tick_p50_ms": (untraced_ms, "ms"),
        "traced_tick_p50_ms": (traced_ms, "ms"),
    }
    _table(workload, seed, metrics, info)
    print(f"spans written to {spans.relative_to(ROOT)}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms/tick"
    if name.endswith((".hit_ratio", "_per_call", "_per_batch")):
        return "ratio"
    return "1/tick"


def _table(workload: str, seed: int, metrics: Dict, info: Dict) -> None:
    print(f"# {workload} seed={seed}")
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"{name:36s} {value:14.6g} {unit}")


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Serving benchmark (see module doc).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"cap every repetition at {SMOKE_TICKS} ticks (a quick check, not a measurement)",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = per_layer if args.trace else end_to_end
    extra = ["--max-ticks", str(SMOKE_TICKS)] if args.smoke else []
    result = run(args.workload, args.seed, args.seconds, deadline, extra)
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
