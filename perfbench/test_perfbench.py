"""The serving benchmark's own tests.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (puts the program's source on the path)
from checks import Outcome, violations  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.controller import LinkDecision  # noqa: E402
from repro.core.multiuser import UserDecision  # noqa: E402
from repro.rate.mcs import data_rate_mbps_for_snr  # noqa: E402

SHORT = 24


def _short(name: str, ticks: int = SHORT):
    return dataclasses.replace(WORKLOADS[name], guard_ticks=ticks, input_ticks=ticks)


def _decision(user: int, mode: str = "los", snr: float = 20.0, via=None):
    return UserDecision(
        user=user, mode=mode, snr_db=snr, rate_mbps=data_rate_mbps_for_snr(snr), via=via
    )


# -- determinism -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_sim_metrics(name):
    first = worker.run_repetition(_short(name), seed=11, rep=0, budget_s=0.0)
    second = worker.run_repetition(_short(name), seed=11, rep=0, budget_s=0.0)
    assert first["ticks"] == second["ticks"] == SHORT
    assert first["qoe"] == second["qoe"]
    assert first["error_ticks"] == 0


def test_seed_changes_the_inputs():
    from workloads import build_inputs, build_testbed

    workload = _short("solo-roam")
    bed = build_testbed(workload)
    a = build_inputs(workload, bed, seed=1, rep=0)
    b = build_inputs(workload, bed, seed=2, rep=0)
    assert a == build_inputs(workload, bed, seed=1, rep=0)
    assert a != b


# -- invariants --------------------------------------------------------------


def test_sound_tick_has_no_violations():
    outcome = Outcome(
        (_decision(0), _decision(1, "reflector", 25.0, via="movr0")),
        (4620.0, 4620.0),
        lost_users=(1,),
    )
    assert violations(outcome, 2, ["movr0"]) == []


@pytest.mark.parametrize(
    "outcome, fragment",
    [
        (Outcome((_decision(0, mode="bogus"),), (0.0,)), "unknown mode"),
        (Outcome((_decision(0, "reflector"),), (0.0,)), "with via"),
        (Outcome((_decision(0, "los", via="movr0"),), (0.0,)), "with via"),
        (
            Outcome(
                (_decision(0, "reflector", via="movr0"), _decision(1, "reflector", via="movr0")),
                (0.0, 0.0),
            ),
            "serves two users",
        ),
        (
            Outcome((dataclasses.replace(_decision(0), rate_mbps=1.0),), (0.0,)),
            "gives",
        ),
        (Outcome((_decision(0, "outage", snr=20.0),), (0.0,)), "connected=False"),
        (Outcome((_decision(0),), (0.0,), lost_users=(0, 0)), "duplicate lost"),
        (Outcome((_decision(0),), (0.0,), lost_users=(3,)), "outside"),
        (Outcome((), (), error="ValueError: boom"), "raised"),
    ],
)
def test_each_invariant_is_detected(outcome, fragment):
    found = violations(outcome, len(outcome.decisions) or 1, ["movr0"])
    assert any(fragment in v for v in found), found


def test_planted_violation_is_counted_in_error_rate():
    planted_tick = 5

    def corrupt(serve):
        calls = iter(range(1 << 30))

        def serve_corrupted(tick):
            outcome = serve(tick)
            if next(calls) == planted_tick:
                bad = dataclasses.replace(outcome.decisions[0], via="movr9")
                outcome = dataclasses.replace(outcome, decisions=(bad,))
            return outcome

        return serve_corrupted

    result = worker.run_repetition(
        _short("solo-roam"), seed=3, rep=0, budget_s=0.0, wrap_serve=corrupt
    )
    assert result["error_ticks"] == 1
    assert result["errors"][0].startswith(f"tick {planted_tick}:")


def test_single_user_decisions_pass_the_same_checks():
    decision = LinkDecision(mode="los", snr_db=20.0, rate_mbps=data_rate_mbps_for_snr(20.0))
    assert violations(Outcome((decision,), (4620.0,)), 1, ["movr0"]) == []


# -- traced run --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_match_program_counters(name):
    plain = worker.run_repetition(_short(name), seed=5, rep=0, budget_s=0.0)
    traced = worker.run_repetition(
        _short(name), seed=5, rep=0, budget_s=0.0, traced=True
    )
    assert traced["counter_mismatches"] == []
    assert traced["qoe"] == plain["qoe"]
    assert traced["spans"] > traced["ticks"]


# -- the command -------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_declared_metric(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(
        ["--workload", name, "--seed", "2", "--seconds", "0.1", "--trace", trace, "--smoke"]
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(
        ["--workload", "solo-roam", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
