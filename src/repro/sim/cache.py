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

What an entry holds
-------------------

An entry is the list of paths its query returns: views of the trace's
:class:`~repro.geometry.raytrace.PathSet`, whose points, walls and
obstruction records are built only if a caller reads them
(experiments, baselines, ``repro.viz``, a measurement's dominant
path).  The set itself is pending: its per-path arrays and obstruction
table are computed when first read, or together with the other new
sets of a link-column build in one joined pass (``PathSet.resolve``);
a hit returns the entry as it is, pending or resolved.  The cache
holds geometry only.  The link columns every link
evaluation reads (angles and unshadowed gains) are the channel's memo
on the path set (:meth:`repro.phy.channel.MmWaveChannel.link_columns`),
so they live as long as the set does, in the cache or out of it.

A set resolved in a joined pass, and its link columns, are slices of
that build's joined arrays, and until its own table is read it holds
the build's joined table.  So while any one set of a build stays
cached, the arrays of every set in that build stay in memory, evicted
sets' included: :data:`MAX_PATHS` bounds the paths the entries hold,
and each entry can keep one build's arrays besides its own (on the
six-player serving benchmark, half the joined passes' arrays and
tables take under 1 kB, the largest about 17 kB).

All queries record into the active telemetry scope
(``scene.cache.hits`` / ``scene.cache.misses`` / ``scene.tracer_calls``
in :func:`repro.telemetry.metrics`), which experiment reports surface.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

from repro import telemetry
from repro.geometry.raytrace import PropagationPath, RayTracer
from repro.geometry.room import Occluder
from repro.geometry.vectors import Vec2

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


class SceneCache:
    """Memoizes :class:`RayTracer` queries for one room.

    Drop-in for the tracer's three public query methods; everything a
    steering sweep needs is answered from memory after the first trace
    of each distinct (endpoints, occluders, bounces) scene.
    """

    def __init__(self, tracer: RayTracer) -> None:
        self.tracer = tracer
        # A LOS entry is a one-path list, so every entry's size is its len.
        self._entries: "OrderedDict[Tuple, List[PropagationPath]]" = OrderedDict()
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
        self._paths = 0
        telemetry.inc("scene.cache.invalidations")

    def _lookup(
        self, kind: str, tx: Vec2, rx: Vec2, occluders: Sequence[Occluder], trace
    ) -> List[PropagationPath]:
        """The paths of one scene, keyed by what ``trace`` reads on a miss."""
        key = (kind, tx.x, tx.y, rx.x, rx.y, occluder_signature(occluders))
        paths = self._entries.get(key)
        if paths is not None:
            telemetry.inc("scene.cache.hits")
            self._entries.move_to_end(key)
            return paths
        telemetry.inc("scene.cache.misses")
        telemetry.inc("scene.tracer_calls")
        paths = self._entries[key] = trace()
        self._paths += len(paths)
        while self._paths > MAX_PATHS and len(self._entries) > 1:
            self._paths -= len(self._entries.popitem(last=False)[1])
        return paths

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
