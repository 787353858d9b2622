"""Memoizing front-end for the image-method ray tracer.

Propagation paths depend only on the endpoint positions, the occluder
set, and the bounce budget — never on beam steering.  Yet the steering
sweeps that regenerate the paper's figures (the 1-degree exhaustive
NLOS sweep of Fig. 3, the joint AP x reflector search of Fig. 8, the
20-pose CDF of Fig. 9) historically re-traced the same scene for every
probed angle pair.  :class:`SceneCache` memoizes the tracer's path
sets so a steering sweep traces each distinct scene exactly once.

Caching contract
----------------

* Keys include both endpoints, the bounce budget, and a *signature* of
  the occluder list the trace reads: the room's own furniture plus the
  per-call extras, or the extras alone for a LOS that skips the room's
  furniture.  Signatures are built from occluder geometry values, so
  moving, adding, or removing an occluder — even by mutating the room
  in place — changes the key and the stale entry is never returned.
  Pose changes likewise miss naturally.
* One ``all_paths`` entry answers both :meth:`SceneCache.all_paths`
  and :meth:`SceneCache.reflection_paths` (its paths after the LOS).
* :meth:`SceneCache.invalidate` drops every entry.  Use it when scene
  state *outside* the keyed geometry changes (e.g. swapping wall
  materials on the traced room), which the signature cannot see.
* Least-recently-used entries are evicted until the cache retains at
  most :data:`MAX_PATHS` paths (a LOS entry holds one, a path set its
  length; the newest entry always stays), so motion traces with
  thousands of distinct poses cannot grow the cache without bound.

Path sets and link columns
--------------------------

Every entry holds the :class:`~repro.geometry.raytrace.PathSet` its
trace described the scene with, and the list of paths the query
returns: views of the set whose points, walls and obstruction records
are built only if a caller reads them (experiments, baselines,
``repro.viz``, a measurement's dominant path).  Serving reads none.

Every entry also carries its **link columns**
(:meth:`SceneCache.link_columns`): one ``(3, P)`` array holding each
path's departure azimuth, arrival azimuth and unshadowed channel gain,
read from the set's arrays and computed by one array formula
(:meth:`repro.phy.channel.MmWaveChannel.unshadowed_gains_db`).  They
are built on the entry's first link evaluation, read by every later
one, and dropped with the entry on eviction or
:meth:`SceneCache.invalidate`.

* :meth:`SceneCache.link_columns_many` reads the columns of many path
  sequences at once: the live entries among them that lack columns get
  them from one array formula over their joined sets
  (:meth:`~repro.geometry.raytrace.PathSet.concat`), each keeping its
  own slice, so a tick's new scenes (every headset's direct link, every
  relay hop) cost one formula, not one each.
  :meth:`SceneCache.link_columns` is its one-sequence case.
* Columns are found through the path set: a sequence holding, in
  order, exactly the paths of a live entry reads that entry's columns
  (the path list itself or a copy of it, or the one-path list behind
  a LOS hop).  Any other sequence — a caller's candidate list, the
  ``[1:]`` slice :meth:`SceneCache.reflection_paths` returns — gets
  columns computed for the call and not retained.
* Columns record the carrier and blockage model they were built with
  and are rebuilt when the channel asked differs, so editing the
  channel never returns stale gains.  Shadowing is never cached: it is
  drawn per call on top of the unshadowed column.

All queries record into the active telemetry scope
(``scene.cache.hits`` / ``scene.cache.misses`` / ``scene.tracer_calls``
in :func:`repro.telemetry.metrics`), which experiment reports surface.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry
from repro.geometry.raytrace import PathSet, PropagationPath, RayTracer, traced_set
from repro.geometry.room import Occluder
from repro.geometry.vectors import Vec2
from repro.phy.channel import MmWaveChannel

#: Most paths the cache retains, summed over its entries.
MAX_PATHS = 4096


def occluder_signature(occluders: Iterable[Occluder]) -> Tuple:
    """A hashable fingerprint of an occluder set's geometry.

    Order-sensitive (the tracer's obstruction records are too) and
    value-based, so an occluder replaced in place by a moved one
    produces a different signature than the original.  Each shape's
    tuple (``Circle.signature``, ``AxisAlignedBox.signature``) is built
    once per shape.
    """
    return tuple([occ.signature for occ in occluders])


def link_columns(
    paths: Union[Sequence[PropagationPath], PathSet], channel: MmWaveChannel
) -> np.ndarray:
    """The ``(3, P)`` link columns of a path set: departure azimuths,
    arrival azimuths and unshadowed channel gains, one column per path.
    ``paths`` is a :class:`PathSet` or any sequence of paths
    (:meth:`PathSet.of`).

    >>> from repro.geometry.room import rectangular_room
    >>> tracer = RayTracer(rectangular_room(5.0, 5.0))
    >>> paths = tracer.all_paths(Vec2(1.0, 1.0), Vec2(1.0, 4.0))
    >>> columns = link_columns(paths, MmWaveChannel())
    >>> columns.shape == (3, len(paths))
    True
    >>> float(columns[0, 0]), float(columns[1, 0])  # the LOS: north, back south
    (90.0, -90.0)
    """
    path_set = paths if isinstance(paths, PathSet) else PathSet.of(paths)
    return _columns(path_set, channel.unshadowed_gains_db(path_set))


def _columns(path_set: PathSet, gains: np.ndarray) -> np.ndarray:
    """A set's read-only link columns, its unshadowed ``gains`` given."""
    columns = np.empty((3, len(path_set)))
    columns[0], columns[1], columns[2] = path_set.departure, path_set.arrival, gains
    columns.flags.writeable = False
    return columns


class _Entry:
    """One cached scene: its path set, the path list queries return, and
    the lazily built link columns."""

    __slots__ = ("paths", "path_set", "columns", "built_with")

    def __init__(self, paths: List[PropagationPath]) -> None:
        self.paths = paths
        self.path_set: Optional[PathSet] = traced_set(paths)
        self.columns: Optional[np.ndarray] = None
        # (carrier_hz, blockage_model) the columns were built with.
        self.built_with: Optional[Tuple] = None

    def __len__(self) -> int:
        return len(self.paths)


class SceneCache:
    """Memoizes :class:`RayTracer` queries for one room.

    Drop-in for the tracer's three public query methods; everything a
    steering sweep needs is answered from memory after the first trace
    of each distinct (endpoints, occluders, bounces) scene.
    """

    def __init__(self, tracer: RayTracer) -> None:
        self.tracer = tracer
        # A LOS entry is a one-path list, so every entry's size is its len.
        self._entries: "OrderedDict[Tuple, _Entry]" = OrderedDict()
        # Live entries by the identity of their path set (every trace
        # builds its own), for the link columns.
        self._by_set: Dict[int, _Entry] = {}
        self._paths = 0  # paths retained over all entries

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def invalidate(self) -> None:
        """Drop every cached path set.

        Call on scene changes the occluder signature cannot observe
        (wall edits, material swaps on the traced room).
        """
        self._entries.clear()
        self._by_set.clear()
        self._paths = 0
        telemetry.inc("scene.cache.invalidations")

    def _lookup(
        self, kind: str, tx: Vec2, rx: Vec2, occluders: Sequence[Occluder], trace
    ) -> List[PropagationPath]:
        """The paths of one scene, keyed by what ``trace`` reads on a miss."""
        key = (kind, tx.x, tx.y, rx.x, rx.y, occluder_signature(occluders))
        entry = self._entries.get(key)
        if entry is not None:
            telemetry.inc("scene.cache.hits")
            self._entries.move_to_end(key)
            return entry.paths
        telemetry.inc("scene.cache.misses")
        telemetry.inc("scene.tracer_calls")
        entry = _Entry(trace())
        self._entries[key] = entry
        if entry.path_set is not None:
            self._by_set[id(entry.path_set)] = entry
        self._paths += len(entry)
        while self._paths > MAX_PATHS and len(self._entries) > 1:
            evicted = self._entries.popitem(last=False)[1]
            self._paths -= len(evicted)
            if evicted.path_set is not None:
                del self._by_set[id(evicted.path_set)]
        return entry.paths

    # -- link columns ----------------------------------------------------

    def link_columns(
        self, paths: Sequence[PropagationPath], channel: MmWaveChannel
    ) -> np.ndarray:
        """The read-only ``(3, P)`` link columns of ``paths`` under ``channel``.

        Reads (building on first use) the columns of the live entry
        whose paths ``paths`` are; any other sequence gets columns
        computed for this call only (see the module docstring).
        """
        return self.link_columns_many((paths,), channel)[0]

    def link_columns_many(
        self, path_lists: Sequence[Sequence[PropagationPath]], channel: MmWaveChannel
    ) -> List[np.ndarray]:
        """:meth:`link_columns` of each sequence in ``path_lists``.

        The live entries among them that lack columns under ``channel``
        get them from one array formula over their joined sets
        (:meth:`PathSet.concat`), each keeping its own slice; an entry
        listed twice is built once.
        """
        built_with = (channel.carrier_hz, channel.blockage_model)
        columns: List[Optional[np.ndarray]] = [None] * len(path_lists)
        reads: List[Tuple[int, _Entry]] = []
        stale: Dict[int, _Entry] = {}
        for i, paths in enumerate(path_lists):
            entry = self._by_set.get(id(paths[0]._set)) if paths else None
            if entry is None or not (
                paths is entry.paths or traced_set(paths) is entry.path_set
            ):
                columns[i] = link_columns(paths, channel)
                continue
            reads.append((i, entry))
            if entry.built_with != built_with:
                stale[id(entry)] = entry
        if stale:
            entries = list(stale.values())
            sets = [entry.path_set for entry in entries]
            gains = channel.unshadowed_gains_db(PathSet.concat(sets))
            start = 0
            for entry, path_set in zip(entries, sets):
                stop = start + len(path_set)
                entry.columns = _columns(path_set, gains[start:stop])
                entry.built_with = built_with
                start = stop
        for i, entry in reads:
            columns[i] = entry.columns
        return columns

    def _all(
        self, tx: Vec2, rx: Vec2, max_bounces: int, extra_occluders: Sequence[Occluder]
    ) -> List[PropagationPath]:
        return self._lookup(
            f"all{max_bounces}",
            tx,
            rx,
            list(self.tracer.room.occluders) + list(extra_occluders),
            lambda: self.tracer.all_paths(tx, rx, max_bounces, extra_occluders),
        )

    # -- tracer-equivalent queries ---------------------------------------

    def line_of_sight(
        self,
        tx: Vec2,
        rx: Vec2,
        extra_occluders: Sequence[Occluder] = (),
        include_room_occluders: bool = True,
    ) -> PropagationPath:
        """Cached :meth:`RayTracer.line_of_sight`."""
        furniture = self.tracer.room.occluders if include_room_occluders else ()
        return self._lookup(
            "los",
            tx,
            rx,
            list(furniture) + list(extra_occluders),
            lambda: [
                self.tracer.line_of_sight(
                    tx, rx, extra_occluders, include_room_occluders
                )
            ],
        )[0]

    def reflection_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """Cached :meth:`RayTracer.reflection_paths`, read from the
        ``all_paths`` entry."""
        return self._all(tx, rx, max_bounces, extra_occluders)[1:]

    def all_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """Cached :meth:`RayTracer.all_paths`."""
        return self._all(tx, rx, max_bounces, extra_occluders)
