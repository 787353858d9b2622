"""Per-layer tracing for the serving benchmark's traced run.

The program is not edited: :func:`install` wraps the public functions
of each layer at runtime, from this file.  Every wrapped call records a
span (layer, parent span, tick, start, end) in memory; counts are taken
at the same boundaries.  Self time is a span's duration minus the time
its child spans cover, so a layer's ``self_ms`` excludes the layers it
calls into (including telemetry).

The wrapper counts are checked against the program's own telemetry
counters (:data:`COUNTER_PAIRS`): the two must agree exactly, or the
traced run is reported as incorrect.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry_pkg
from repro.baselines.nlos_relay import OptNlosBaseline
from repro.control.scheduler import AirtimeScheduler
from repro.core.controller import MoVRSystem
from repro.core.multiuser import MultiUserSystem
from repro.geometry.raytrace import RayTracer
from repro.link.budget import LinkBudget
from repro.phy.antenna import MultiPanelArray, PhasedArray
from repro.phy.blockage import BlockageModel
from repro.phy.channel import MmWaveChannel
from repro.rate.adaptation import RateAdapter
from repro.sim.cache import SceneCache

#: Layer names, in report order.  ``tick`` is the root span the
#: benchmark opens around each tick; its self time is the program time
#: no wrapped layer accounts for.
LAYERS = (
    "tick",
    "geometry.raytrace",
    "sim.cache",
    "phy.antenna",
    "phy.channel",
    "link.budget",
    "baselines.nlos_relay",
    "core.controller",
    "core.multiuser",
    "control.scheduler",
    "rate.adaptation",
    "telemetry",
)
_LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Wrapper count -> the program counter it must equal exactly.
COUNTER_PAIRS = (
    ("geometry.raytrace.calls", "scene.tracer_calls"),
    ("sim.cache.hits", "scene.cache.hits"),
    ("sim.cache.misses", "scene.cache.misses"),
    ("phy.antenna.batches", "kernel.batches"),
    ("phy.antenna.angles", "kernel.angles"),
    ("link.budget.sweeps", "link.sweeps"),
    ("core.controller.decisions", "controller.decisions"),
    ("core.multiuser.ticks", "multiuser.ticks"),
    ("core.multiuser.contentions", "multiuser.contention"),
    ("core.multiuser.handoffs", "multiuser.handoffs"),
    ("control.scheduler.calls", "scheduler.shared_windows"),
    ("control.scheduler.frames_lost", "scheduler.shared.frames_lost"),
    ("rate.adaptation.rate_changes", "rate.changes"),
)


#: Wrapper counts reported per tick.
PER_TICK_COUNTS = (
    "geometry.raytrace.calls",
    "sim.cache.hits",
    "sim.cache.misses",
    "phy.antenna.batches",
    "phy.antenna.angles",
    "phy.channel.calls",
    "link.budget.calls",
    "link.budget.sweeps",
    "baselines.nlos_relay.calls",
    "core.controller.decisions",
    "core.controller.relay_evals",
    "core.multiuser.contentions",
    "core.multiuser.handoffs",
    "control.scheduler.calls",
    "control.scheduler.frames_lost",
    "rate.adaptation.calls",
    "rate.adaptation.rate_changes",
    "telemetry.calls",
)


class SpanRecorder:
    """In-memory span store with parent links.

    Spans are kept in flat typed arrays (a few tens of bytes each) so a
    whole run's worth fits in memory; :meth:`write` dumps them at the
    end.
    """

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("q")
        self.tick = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._depth = [0] * len(LAYERS)
        self.current_tick = -1
        self.counts: Dict[str, int] = defaultdict(int)

    def open(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.tick.append(self.current_tick)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self._depth[layer_id] += 1
        self.start[index] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()
        self._depth[self.layer[index]] -= 1

    def outermost(self, layer_id: int) -> bool:
        """True inside a span with no enclosing span of the same layer."""
        return self._depth[layer_id] == 1

    def self_ms(self) -> Dict[str, float]:
        """Total self time per layer, in milliseconds."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        duration = end - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = duration - covered
        layer = np.frombuffer(self.layer, dtype=np.int8)
        totals = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return {name: float(totals[i]) * 1000.0 for i, name in enumerate(LAYERS)}

    def write(self, path: str) -> None:
        """Dump every span as gzip CSV: id, parent, tick, layer, start, end."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id,parent,tick,layer,start_us,end_us\n")
            for i in range(len(self.layer)):
                out.write(
                    f"{i},{self.parent[i]},{self.tick[i]},{LAYERS[self.layer[i]]},"
                    f"{(self.start[i] - origin) * 1e6:.3f},"
                    f"{(self.end[i] - origin) * 1e6:.3f}\n"
                )


# -- counting hooks: (recorder, args, result) -> None ----------------------

Hook = Callable[[SpanRecorder, tuple, object], None]


def _count(name: str, outermost_of: Optional[str] = None) -> Hook:
    layer_id = None if outermost_of is None else _LAYER_ID[outermost_of]

    def hook(rec: SpanRecorder, args, result) -> None:
        if layer_id is None or rec.outermost(layer_id):
            rec.counts[name] += 1

    return hook


def _raytrace(rec: SpanRecorder, args, result) -> None:
    if rec.outermost(_LAYER_ID["geometry.raytrace"]):
        rec.counts["geometry.raytrace.calls"] += 1
        rec.counts["geometry.raytrace.paths"] += (
            len(result) if isinstance(result, list) else 1
        )


def _kernel(scalar: bool) -> Hook:
    def hook(rec: SpanRecorder, args, result) -> None:
        rec.counts["phy.antenna.batches"] += 1
        if scalar:
            rec.counts["phy.antenna.angles"] += 1
        else:
            toward, steer = args[1], args[2]
            rec.counts["phy.antenna.angles"] += np.broadcast(
                np.asarray(toward, dtype=float), np.asarray(steer, dtype=float)
            ).size

    return hook


def _link_budget(sweep: bool) -> Hook:
    def hook(rec: SpanRecorder, args, result) -> None:
        if rec.outermost(_LAYER_ID["link.budget"]):
            rec.counts["link.budget.calls"] += 1
        if sweep:
            rec.counts["link.budget.sweeps"] += 1

    return hook


def _scheduler(rec: SpanRecorder, args, result) -> None:
    rec.counts["control.scheduler.calls"] += 1
    rec.counts["control.scheduler.frames_lost"] += result.frames_lost


class _HandoffCounter:
    """Counts multi-user handoffs from the decisions ``step`` returns:
    a serving-path (``via``) change that is not an outage transition."""

    def __init__(self) -> None:
        self._last: Dict[int, List[Tuple[str, Optional[str]]]] = {}

    def __call__(self, rec: SpanRecorder, args, result) -> None:
        rec.counts["core.multiuser.ticks"] += 1
        last = self._last.setdefault(id(args[0]), [None] * len(result.decisions))
        for d in result.decisions:
            rec.counts["core.multiuser.contentions"] += d.contended
            previous = last[d.user]
            if previous is not None:
                was_out = previous[0] == "outage"
                is_out = d.mode == "outage"
                if not was_out and not is_out and d.via != previous[1]:
                    rec.counts["core.multiuser.handoffs"] += 1
            last[d.user] = (d.mode, d.via)


def _wrap(rec: SpanRecorder, fn: Callable, layer: str, hook: Optional[Hook]) -> Callable:
    layer_id = _LAYER_ID[layer]
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = open_(layer_id)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(rec, args, result)
            return result
        finally:
            close(index)

    return traced


def _observe_rate(rec: SpanRecorder, fn: Callable) -> Callable:
    """RateAdapter.observe: a rate change is a change in the adapted
    rate across the call, as the adapter's own event log defines it."""
    layer_id = _LAYER_ID["rate.adaptation"]
    open_, close = rec.open, rec.close

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        index = open_(layer_id)
        try:
            before = self.current_rate_mbps
            result = fn(self, *args, **kwargs)
            rec.counts["rate.adaptation.calls"] += 1
            if self.current_rate_mbps != before:
                rec.counts["rate.adaptation.rate_changes"] += 1
            return result
        finally:
            close(index)

    return traced


def _targets() -> List[Tuple[object, str, str, Optional[Hook]]]:
    """(owner, attribute, layer, counting hook) for every function wrapped
    by the generic span wrapper."""
    handoffs = _HandoffCounter()
    budget, sweep = _link_budget(sweep=False), _link_budget(sweep=True)
    return [
        (RayTracer, "line_of_sight", "geometry.raytrace", _raytrace),
        (RayTracer, "reflection_paths", "geometry.raytrace", _raytrace),
        (RayTracer, "all_paths", "geometry.raytrace", _raytrace),
        (PhasedArray, "gain_dbi", "phy.antenna", _kernel(scalar=True)),
        (PhasedArray, "gain_dbi_batch", "phy.antenna", _kernel(scalar=False)),
        (PhasedArray, "relative_pattern_db_batch", "phy.antenna", _kernel(scalar=False)),
        (PhasedArray, "relative_pattern_db", "phy.antenna", None),
        (PhasedArray, "steer_to", "phy.antenna", None),
        (PhasedArray, "steer_to_batch", "phy.antenna", None),
        (MultiPanelArray, "gain_dbi", "phy.antenna", None),
        (MultiPanelArray, "gain_dbi_batch", "phy.antenna", None),
        (MultiPanelArray, "steer_to", "phy.antenna", None),
        (MultiPanelArray, "steer_to_batch", "phy.antenna", None),
        (MmWaveChannel, "path_gain_db", "phy.channel", _count("phy.channel.calls", "phy.channel")),
        (BlockageModel, "path_blockage_db", "phy.channel", None),
        (LinkBudget, "measure", "link.budget", budget),
        (LinkBudget, "measure_with_paths", "link.budget", budget),
        (LinkBudget, "measure_aligned", "link.budget", budget),
        (LinkBudget, "path_powers_dbm", "link.budget", budget),
        (LinkBudget, "path_rx_power_dbm", "link.budget", budget),
        (LinkBudget, "sweep", "link.budget", budget),
        (LinkBudget, "sweep_pairs", "link.budget", sweep),
        (LinkBudget, "best_alignment", "link.budget", sweep),
        (OptNlosBaseline, "evaluate", "baselines.nlos_relay", _count("baselines.nlos_relay.calls")),
        (MoVRSystem, "decide", "core.controller", _count("core.controller.decisions")),
        (MoVRSystem, "direct_link", "core.controller", None),
        (MoVRSystem, "relay_link", "core.controller", _count("core.controller.relay_evals")),
        (MoVRSystem, "best_relay", "core.controller", None),
        (MultiUserSystem, "step", "core.multiuser", handoffs),
        (MultiUserSystem, "headset_radio", "core.multiuser", None),
        (MultiUserSystem, "mutual_occluders", "core.multiuser", None),
        (AirtimeScheduler, "share_frame_window", "control.scheduler", _scheduler),
        (AirtimeScheduler, "search_impact", "control.scheduler", None),
        (telemetry_pkg, "inc", "telemetry", _count("telemetry.calls")),
        (telemetry_pkg, "observe", "telemetry", _count("telemetry.calls")),
        (telemetry_pkg, "sample", "telemetry", _count("telemetry.calls")),
        (telemetry_pkg, "emit", "telemetry", _count("telemetry.calls")),
    ]


def _cache_lookup(rec: SpanRecorder, fn: Callable) -> Callable:
    """SceneCache queries: a lookup that reached the ray tracer is a
    miss, any other a hit."""
    layer_id = _LAYER_ID["sim.cache"]
    open_, close = rec.open, rec.close
    counts = rec.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = open_(layer_id)
        try:
            traced_before = counts["geometry.raytrace.calls"]
            result = fn(*args, **kwargs)
            if counts["geometry.raytrace.calls"] > traced_before:
                counts["sim.cache.misses"] += 1
            else:
                counts["sim.cache.hits"] += 1
            return result
        finally:
            close(index)

    return traced


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer's public functions; returns the undo function."""
    plan = [
        (owner, attr, functools.partial(_wrap, layer=layer, hook=hook))
        for owner, attr, layer, hook in _targets()
    ]
    plan += [
        (SceneCache, attr, _cache_lookup)
        for attr in ("line_of_sight", "reflection_paths", "all_paths")
    ]
    plan.append((RateAdapter, "observe", _observe_rate))
    originals = []
    for owner, attr, make in plan:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, make(rec, fn))

    def uninstall() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return uninstall


def per_layer_metrics(rec: SpanRecorder, ticks: int) -> Dict[str, float]:
    """The per-layer metrics, per tick where they are amounts."""
    c = rec.counts
    self_ms = rec.self_ms()
    per_tick = 1.0 / max(1, ticks)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: c[name] * per_tick for name in PER_TICK_COUNTS}
    out["geometry.raytrace.paths_per_call"] = ratio(
        c["geometry.raytrace.paths"], c["geometry.raytrace.calls"]
    )
    out["sim.cache.hit_ratio"] = ratio(
        c["sim.cache.hits"], c["sim.cache.hits"] + c["sim.cache.misses"]
    )
    out["phy.antenna.angles_per_batch"] = ratio(
        c["phy.antenna.angles"], c["phy.antenna.batches"]
    )
    for layer in LAYERS[1:]:
        out[f"{layer}.self_ms"] = self_ms[layer] * per_tick
    return out


def counter_mismatches(rec: SpanRecorder, registry) -> List[str]:
    """Wrapper counts that differ from the program's own counters."""
    problems = []
    for ours, theirs in COUNTER_PAIRS:
        a, b = rec.counts[ours], registry.counter_value(theirs)
        if a != b:
            problems.append(f"{ours}={a} but program counter {theirs}={b}")
    return problems
