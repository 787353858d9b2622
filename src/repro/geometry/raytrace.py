"""Image-method ray tracer for indoor mmWave propagation.

Produces the line-of-sight path and specular wall reflections up to two
bounces, annotated with per-leg obstruction records.  The tracer is
purely geometric: converting lengths, bounces, and obstructions into dB
of loss is the job of ``repro.phy.channel`` and ``repro.phy.blockage``,
which keeps the geometry reusable and independently testable.

Each query describes its scene once, as a :class:`PathSet`: per path its
length, departure and arrival azimuths and summed reflection and
penetration loss, plus one obstruction table.  The link layer reads
those arrays.  The query returns one :class:`PropagationPath` per path,
a view of the set whose points, walls and obstruction records are built
the first time a caller reads them.

Tracing runs on NumPy arrays, every wall chain or leg of a query at
once.  Each array expression keeps the operation order of the scalar
``Vec2`` formula it stands for, and every length that reaches an output
field or a threshold comes from :func:`math.hypot` (``Vec2.norm``'s
rounding, which ``np.hypot`` does not share), so the traced floats are
those of the scalar geometry; the per-path values equal what the
:class:`PropagationPath` properties compute from the built objects.

What does not depend on the receiver is kept between queries: the
room's wall table with the convex hull of its wall ends, and per
transmitter position the image tree (every mirror image of TX and its
wall sequence).  A query only walks the bounce points back from its
receiver and tests its legs against the walls they can cross (none on
the hull when TX and RX lie inside it, see :func:`_hull_screen`).

Cutting the legs with the occluders is left pending: the set keeps its
kept legs and occluders, and cuts its obstruction table the first time
it is read, or, with other sets, in one joined pass
(:meth:`PathSet.resolve_cuts`).  The link layer reads a tick's new sets
together (:meth:`repro.phy.channel.MmWaveChannel.link_columns_many`),
so a tick's cuts cost one pass over all its legs.  Either way each set
gets the table it would get cut alone, row for row and float for float.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.room import Occluder, Room, Wall
from repro.geometry.shapes import EPSILON
from repro.geometry.vectors import Vec2, bearing_deg
from repro.utils import exactmath

#: How close (meters) two nodes may be before the far-field assumption
#: (and the Friis equation) breaks down.
MIN_SEPARATION_M = 0.05

#: Most image trees a tracer keeps, one per (transmitter position,
#: bounce budget), least recently used dropped first.  Serving traces
#: every multipath query from the AP, so one tree answers nearly all.
MAX_IMAGE_TREES = 8

#: Most wall layouts whose hull screen (:func:`_hull_screen`) is kept,
#: least recently used dropped first.
MAX_HULL_SCREENS = 16

#: Slack (meters) on a leg's bounding box when screening occluders: far
#: above the rounding of the slab test, far below any occluder.
BOX_SCREEN_PAD_M = 1e-6

#: The wall sequence of the LOS chain: TX, and no wall.
_LOS_SEQUENCE = np.full((1, 1), -1)


@dataclass(frozen=True)
class Obstruction:
    """One occluder cutting through one leg of a path.

    ``depth_m`` is the chord length of the leg inside the occluder;
    ``clearance_m`` is the (negative) distance from the leg to the
    occluder edge.  ``along_leg_m``/``leg_length_m`` locate the
    obstruction along the leg — knife-edge diffraction loss depends on
    the distances from the obstacle to each leg endpoint.
    """

    occluder: Occluder
    leg_index: int
    depth_m: float
    clearance_m: float
    along_leg_m: float
    leg_length_m: float


class ObstructionTable(NamedTuple):
    """Every occluder cut of a path set, one row per cut.

    Rows are grouped by path, in path order.  ``path`` and ``leg``
    locate a cut (the path's index in its set, the leg's index along
    the path) and ``occluder`` indexes the set's occluder list; the
    float columns are the :class:`Obstruction` fields.
    """

    path: np.ndarray
    leg: np.ndarray
    occluder: np.ndarray
    depth: np.ndarray
    clearance: np.ndarray
    along: np.ndarray
    leg_length: np.ndarray

    @classmethod
    def of_records(cls, records: Sequence[Tuple[int, Obstruction]]) -> "ObstructionTable":
        """The table of (path index, record) pairs, in the order given;
        ``occluder`` numbers the records themselves."""
        ints = np.array([(i, o.leg_index) for i, o in records], dtype=np.intp)
        floats = np.array(
            [(o.depth_m, o.clearance_m, o.along_leg_m, o.leg_length_m) for _, o in records],
            dtype=float,
        )
        ints, floats = ints.reshape(-1, 2), floats.reshape(-1, 4)
        return cls(ints[:, 0], ints[:, 1], np.arange(len(records)), *floats.T)


class _CutJob(NamedTuple):
    """A pending obstruction table: what :func:`_cuts` cuts it from.

    The legs of the set's paths, path by path: start points, end
    points, start-to-end vectors and lengths, one row per leg; each
    path's leg count; and the occluders the table's rows index.
    """

    starts: np.ndarray
    ends: np.ndarray
    legs: np.ndarray
    lengths: np.ndarray
    width: List[int]
    occluders: Sequence[Occluder]


class _ViewField:
    """A path field: the value given to the constructor, or, for a view
    of a traced set, the value the set's ``build`` method makes on first
    read (then kept in the slot ``_<name>``)."""

    def __init__(self, build: str) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, path, owner=None):
        if path is None:
            return self
        try:
            return getattr(path, self.slot)
        except AttributeError:
            value = getattr(path._set, self.build)(path._index)
            setattr(path, self.slot, value)
            return value


class PropagationPath:
    """A geometric propagation path from TX to RX.

    ``points`` is the polyline TX, bounce..., RX.  ``walls`` holds the
    wall reflected on at each interior point (empty for LOS).
    ``penetrated_walls`` lists walls the direct path passes *through*
    (interior partitions) — each contributes its material's
    penetration loss, which at mmWave is usually fatal.

    A traced path is a view of its scene's :class:`PathSet`: each of the
    four fields is built from the set the first time it is read.  Paths
    are immutable and compare by their fields.
    """

    __slots__ = ("_points", "_walls", "_obstructions", "_penetrated_walls", "_set", "_index")

    def __init__(
        self,
        points: Tuple[Vec2, ...],
        walls: Tuple[Wall, ...],
        obstructions: Tuple[Obstruction, ...] = (),
        penetrated_walls: Tuple[Wall, ...] = (),
    ) -> None:
        if len(points) < 2:
            raise ValueError("a path needs at least TX and RX points")
        if len(walls) != len(points) - 2:
            raise ValueError("need exactly one wall per interior bounce point")
        self._points = points
        self._walls = walls
        self._obstructions = obstructions
        self._penetrated_walls = penetrated_walls
        self._set: Optional[PathSet] = None

    points = _ViewField("points_of")
    walls = _ViewField("walls_of")
    obstructions = _ViewField("obstructions_of")
    penetrated_walls = _ViewField("penetrated_of")

    def _fields(self) -> tuple:
        return (self.points, self.walls, self.obstructions, self.penetrated_walls)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"PropagationPath(points={self.points!r}, walls={self.walls!r}, "
            f"obstructions={self.obstructions!r}, "
            f"penetrated_walls={self.penetrated_walls!r})"
        )

    @property
    def num_bounces(self) -> int:
        return len(self.walls)

    @property
    def is_line_of_sight(self) -> bool:
        return self.num_bounces == 0

    @property
    def total_length_m(self) -> float:
        """Total traveled distance in meters: ``Vec2.distance_to`` per
        leg, summed, without building a ``Vec2``."""
        points = self.points
        return sum(
            math.hypot(a.x - b.x, a.y - b.y) for a, b in zip(points, points[1:])
        )

    @property
    def departure_angle_deg(self) -> float:
        """Azimuth of the first leg as seen from the transmitter."""
        return bearing_deg(self.points[0], self.points[1])

    @property
    def arrival_angle_deg(self) -> float:
        """Azimuth from the receiver back toward the last leg's origin.

        This is the direction the receiver must *point* to capture the
        path.
        """
        return bearing_deg(self.points[-1], self.points[-2])

    @property
    def total_reflection_loss_db(self) -> float:
        """Sum of per-bounce reflection losses in dB."""
        return sum(w.material.reflection_loss_db for w in self.walls)

    @property
    def total_penetration_loss_db(self) -> float:
        """Sum of through-wall penetration losses in dB."""
        return sum(w.material.penetration_loss_db for w in self.penetrated_walls)

    @property
    def is_obstructed(self) -> bool:
        return bool(self.obstructions)

    def propagation_delay_s(self, speed: float = 299_792_458.0) -> float:
        """Time of flight in seconds."""
        return self.total_length_m / speed


class _TracedPaths(list):
    """The list of views a trace returns, naming their set: the set
    keeps no reference back, so a dropped list frees its set without
    the cycle collector."""

    __slots__ = ("path_set",)


class PathSet:
    """The paths of one scene as a struct of arrays, one entry per path.

    ``length`` (meters), ``departure`` and ``arrival`` (degrees),
    ``reflection_db`` and ``penetration_db`` hold, for every path, what
    the :class:`PropagationPath` properties ``total_length_m``,
    ``departure_angle_deg``, ``arrival_angle_deg``,
    ``total_reflection_loss_db`` and ``total_penetration_loss_db`` give;
    ``cuts`` is the obstruction table and ``occluders`` the occluders
    its rows index.

    A set the tracer built leaves its table pending: it keeps the legs
    and occluders the table is cut from, cuts it the first time
    ``cuts`` is read, or with other sets in one pass
    (:meth:`resolve_cuts`, which :meth:`concat` calls), then drops them.
    It also keeps what its paths' objects are built from when read (see
    :meth:`_views`).  A set gathered from path objects (:meth:`of`) or
    joined from sets (:meth:`concat`) keeps only the arrays.

    ``columns_memo`` is the channel's memo on the set: the link columns
    :meth:`repro.phy.channel.MmWaveChannel.link_columns_many` built for
    it and the channel key they were built under, or None.  The columns
    live and die with the set.
    """

    __slots__ = (
        "columns_memo",
        "length",
        "departure",
        "arrival",
        "reflection_db",
        "penetration_db",
        "occluders",
        "_cut_table",
        "_cut_job",
        "_tx",
        "_rx",
        "_walls",
        "_penetrated",
        "_leg_starts",
        "_leg_walls",
        "_first",
        "_width",
    )

    def __init__(
        self,
        length: np.ndarray,
        departure: np.ndarray,
        arrival: np.ndarray,
        reflection_db: np.ndarray,
        penetration_db: np.ndarray,
        cuts: Union[ObstructionTable, _CutJob],
        occluders: Sequence[Occluder],
    ) -> None:
        """``cuts`` is the obstruction table, or the job it is cut from
        when first read."""
        self.length = length
        self.departure = departure
        self.arrival = arrival
        self.reflection_db = reflection_db
        self.penetration_db = penetration_db
        self.occluders = occluders
        pending = isinstance(cuts, _CutJob)
        self._cut_table: Optional[ObstructionTable] = None if pending else cuts
        self._cut_job: Optional[_CutJob] = cuts if pending else None
        self.columns_memo: Optional[Tuple[object, np.ndarray]] = None

    def __len__(self) -> int:
        return len(self.length)

    @property
    def cuts(self) -> ObstructionTable:
        """The obstruction table, cut now if it is still pending."""
        if self._cut_job is not None:
            PathSet.resolve_cuts((self,))
        return self._cut_table

    @staticmethod
    def resolve_cuts(sets: Iterable["PathSet"]) -> None:
        """Cut the pending obstruction tables of ``sets`` in one pass
        over all their legs (:func:`_cuts`); a set listed twice is cut
        once.  Each set gets the table it would get cut alone, and drops
        the legs it was cut from."""
        pending: Dict[int, PathSet] = {}
        for path_set in sets:
            if path_set._cut_job is not None:
                pending[id(path_set)] = path_set
        if pending:
            owners = list(pending.values())
            tables = _cuts([path_set._cut_job for path_set in owners])
            for path_set, table in zip(owners, tables):
                path_set._cut_table, path_set._cut_job = table, None

    @classmethod
    def of(cls, paths: Sequence[PropagationPath]) -> "PathSet":
        """The set ``paths`` describe: the traced set itself when they
        are exactly its paths in order (at once when ``paths`` is the
        list the trace returned), else one gathered from the path
        objects' properties and obstruction records."""
        if type(paths) is _TracedPaths:
            return paths.path_set
        whole = paths[0]._set if paths else None
        if whole is not None and len(paths) == len(whole):
            for i, path in enumerate(paths):
                if path._set is not whole or path._index != i:
                    break
            else:
                return whole
        records = [(i, o) for i, p in enumerate(paths) for o in p.obstructions]
        return cls(
            np.array([p.total_length_m for p in paths], dtype=float),
            np.array([p.departure_angle_deg for p in paths], dtype=float),
            np.array([p.arrival_angle_deg for p in paths], dtype=float),
            np.array([p.total_reflection_loss_db for p in paths], dtype=float),
            np.array([p.total_penetration_loss_db for p in paths], dtype=float),
            ObstructionTable.of_records(records),
            [o.occluder for _, o in records],
        )

    @classmethod
    def concat(cls, sets: Sequence["PathSet"]) -> "PathSet":
        """One set holding the paths of ``sets`` in order: each set's
        obstruction rows follow its own, renumbered to the joined paths
        and occluders.  The sets' pending tables are cut first, in one
        pass (:meth:`resolve_cuts`).  The joined set keeps only the
        arrays; a single set comes back as it is."""
        if len(sets) == 1:
            return sets[0]
        cls.resolve_cuts(sets)
        path_offsets = np.cumsum([0] + [len(s) for s in sets[:-1]])
        occluder_offsets = np.cumsum([0] + [len(s.occluders) for s in sets[:-1]])
        cuts = ObstructionTable(
            np.concatenate([s.cuts.path + k for s, k in zip(sets, path_offsets)]),
            np.concatenate([s.cuts.leg for s in sets]),
            np.concatenate(
                [s.cuts.occluder + k for s, k in zip(sets, occluder_offsets)]
            ),
            *(np.concatenate([s.cuts[c] for s in sets]) for c in range(3, 7)),
        )
        columns = ("length", "departure", "arrival", "reflection_db", "penetration_db")
        return cls(
            *(np.concatenate([getattr(s, name) for s in sets]) for name in columns),
            cuts,
            [o for s in sets for o in s.occluders],
        )

    # -- the objects of one path, built when a view reads them -----------

    def points_of(self, index: int) -> Tuple[Vec2, ...]:
        bounces = self._leg_starts[self._bounce_rows(index)].tolist()
        return (self._tx, *(Vec2(x, y) for x, y in bounces), self._rx)

    def walls_of(self, index: int) -> Tuple[Wall, ...]:
        walls = self._walls
        return tuple(walls[w] for w in self._leg_walls[self._bounce_rows(index)].tolist())

    def _bounce_rows(self, index: int) -> slice:
        """The leg rows of path ``index`` that start at a bounce."""
        first = self._first[index]
        return slice(first + 1, first + self._width[index])

    def obstructions_of(self, index: int) -> Tuple[Obstruction, ...]:
        cuts, occluders = self.cuts, self.occluders
        lo, hi = np.searchsorted(cuts.path, (index, index + 1)).tolist()
        rows = zip(*(column[lo:hi].tolist() for column in cuts[1:]))
        return tuple(
            Obstruction(occluders[k], leg, depth, clearance, along, leg_length)
            for leg, k, depth, clearance, along, leg_length in rows
        )

    def penetrated_of(self, index: int) -> Tuple[Wall, ...]:
        return self._penetrated if index == 0 else ()

    def _views(
        self,
        tx: Vec2,
        rx: Vec2,
        walls: Tuple[Wall, ...],
        leg_starts: np.ndarray,
        leg_walls: np.ndarray,
        first: List[int],
        width: List[int],
        penetrated: Tuple[Wall, ...],
    ) -> List[PropagationPath]:
        """Keep what the paths' objects are built from and return one
        view per path.

        Besides the endpoints, the room's walls and the walls the LOS
        crosses, that is the traced legs' start points and the walls
        they start on (-1 at TX), and per path its first leg row and leg
        count: a path's bounces are the starts of its legs after the
        first.
        """
        self._tx, self._rx, self._walls, self._penetrated = tx, rx, walls, penetrated
        self._leg_starts, self._leg_walls = leg_starts, leg_walls
        self._first, self._width = first, width
        views = _TracedPaths()
        views.path_set = self
        for index in range(len(first)):
            # A view: no fields yet, each built from the set when read.
            path = object.__new__(PropagationPath)
            path._set, path._index = self, index
            views.append(path)
        return views


class RayTracer:
    """Traces LOS and specular reflection paths inside a :class:`Room`.

    The tracer keeps the room's wall table and, for up to
    :data:`MAX_IMAGE_TREES` transmitter positions and bounce budgets,
    the image tree of TX.  Every query checks that ``room.walls`` still
    holds the same wall objects in the same order, and rebuilds both
    when it does not; walls are frozen, so any edit of ``room.walls``
    shows as a changed object and takes effect at the next query.
    Occluder arrays are built per query, so editing ``room.occluders``
    takes effect at once too.
    """

    def __init__(self, room: Room) -> None:
        self.room = room
        # The walls the wall table and same-wall mask were built from,
        # None until the first query.
        self._walls: Optional[Tuple[Wall, ...]] = None
        self._table: Optional[np.ndarray] = None
        self._same: Optional[np.ndarray] = None
        # The hull's edges, and the walls a leg may cross (indices, then
        # their rows' start and start-to-end vector): those off the hull
        # for a query inside it, every wall for any other.
        self._hull: Tuple[Tuple[float, float, float, float], ...] = ()
        self._interior: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._every: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._trees: "OrderedDict[Tuple[float, float, int], tuple]" = OrderedDict()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def line_of_sight(
        self,
        tx: Vec2,
        rx: Vec2,
        extra_occluders: Sequence[Occluder] = (),
        include_room_occluders: bool = True,
    ) -> PropagationPath:
        """The direct path, annotated with any occluders cutting it.

        The LOS path geometrically always exists; whether it is *usable*
        depends on its obstructions, which the blockage model converts
        to attenuation.  ``include_room_occluders=False`` skips the
        room's static furniture — used for infrastructure links (AP to
        wall-mounted reflector) that run above furniture height, a
        deliberate correction for the floor plan being 2-D.
        """
        distance = self._separation(tx, rx)
        occluders = (
            list(self.room.occluders) if include_room_occluders else []
        ) + list(extra_occluders)
        return self._trace(tx, rx, distance, 0, occluders)[0]

    def reflection_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """All specular wall-reflection paths up to ``max_bounces`` (1 or 2).

        Paths whose legs pass through occluders are *kept* (with their
        obstruction records): a partially blocked reflection may still
        be the best alternative, exactly the situation the paper's
        Opt-NLOS baseline probes.
        """
        return self.all_paths(tx, rx, max_bounces, extra_occluders)[1:]

    def all_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """LOS plus every reflection path up to ``max_bounces``."""
        if max_bounces not in (1, 2):
            raise ValueError(f"max_bounces must be 1 or 2, got {max_bounces}")
        distance = self._separation(tx, rx)
        occluders = list(self.room.occluders) + list(extra_occluders)
        return self._trace(tx, rx, distance, max_bounces, occluders)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _separation(tx: Vec2, rx: Vec2) -> float:
        """The TX–RX distance, which is the LOS leg's length; refused
        below the far-field limit."""
        distance = tx.distance_to(rx)
        if distance < MIN_SEPARATION_M:
            raise ValueError(
                f"TX and RX closer than {MIN_SEPARATION_M} m: far-field model invalid"
            )
        return distance

    def _room_tables(self) -> Tuple[Tuple[Wall, ...], np.ndarray, np.ndarray]:
        """The walls, their table and same-wall mask, rebuilt (and the
        image trees dropped) when ``room.walls`` changed; so are the
        hull's edges and the crossable wall sets (:func:`_hull_screen`)."""
        walls, built = self.room.walls, self._walls
        if (
            built is None
            or len(walls) != len(built)
            or not all(map(operator.is_, walls, built))
        ):
            built = self._walls = tuple(walls)
            # Per wall: start point, start-to-end vector, unit direction
            # and reflection loss (materials are frozen, like walls).
            self._table = np.array(
                [
                    (
                        s.a.x,
                        s.a.y,
                        s.b.x - s.a.x,
                        s.b.y - s.a.y,
                        *s.direction.as_tuple(),
                        material.reflection_loss_db,
                    )
                    for s, material in ((w.segment, w.material) for w in built)
                ],
                dtype=float,
            ).reshape(-1, 7)
            # same[i, j]: walls i and j are one object.  Row -1, all
            # False, stands for a chain end at TX or RX rather than on a
            # wall.
            ids = np.array([id(wall) for wall in built] + [0])
            self._same = ids[:, None] == ids[:-1]
            self._hull, on_hull = _hull_screen(
                tuple((p.x, p.y) for w in built for p in (w.segment.a, w.segment.b))
            )
            wall_a, wall_r = self._table[:, 0:2], self._table[:, 2:4]
            self._every, self._interior = (
                (index, wall_a[index], wall_r[index])
                for index in (np.arange(len(built)), np.flatnonzero(np.logical_not(on_hull)))
            )
            self._trees.clear()
        return built, self._table, self._same

    def _image_tree(self, tx: Vec2, max_bounces: int) -> tuple:
        """The image tree of ``tx`` (see :func:`_build_image_tree`), kept
        per transmitter position and bounce budget."""
        key = (tx.x, tx.y, max_bounces)
        tree = self._trees.get(key)
        if tree is None:
            tx_xy = np.array(tx.as_tuple())
            tree = _build_image_tree(tx_xy, max_bounces, self._table, self._same)
            self._trees[key] = tree
            if len(self._trees) > MAX_IMAGE_TREES:
                self._trees.popitem(last=False)
        else:
            self._trees.move_to_end(key)
        return tree

    @np.errstate(all="ignore")
    def _trace(
        self,
        tx: Vec2,
        rx: Vec2,
        distance: float,
        max_bounces: int,
        occluders: List[Occluder],
    ) -> List[PropagationPath]:
        """The LOS, then every reflection path up to ``max_bounces``, as
        views of one :class:`PathSet`; ``distance`` is the TX–RX
        distance.

        Chains come grouped by bounce count: wall indices after a
        leading -1 for TX, points and leg lengths, one row per chain;
        the LOS is the one chain of no walls.  A reflection chain is
        dropped when a leg crosses any wall other than the ones it
        bounces on; the LOS is kept and lists the walls it crosses as
        penetrated.  When TX and RX lie in the hull of the walls, only
        the walls off the hull are tested: no leg crosses the others
        (:func:`_hull_screen`).  Paths come LOS first, then by bounce
        count, then in room wall order.  The set's obstruction table is
        left pending: it is cut from the kept paths' legs when read
        (:meth:`PathSet.resolve_cuts`).
        """
        walls, table, same = self._room_tables()
        los = np.array([tx.as_tuple(), rx.as_tuple()], dtype=float)
        # The LOS chain: no wall, one leg, touching no wall (row -1).
        levels = [(_LOS_SEQUENCE, los[None], np.array([[distance]]), same[-1:][None])]
        if max_bounces:
            levels += _reflection_chains(self._image_tree(tx, max_bounces), los)

        # Every leg of every chain, chain by chain: start, end, length
        # and the wall it starts on (-1 at TX).
        starts = _stack([points[:, :-1].reshape(-1, 2) for _, points, _, _ in levels])
        ends = _stack([points[:, 1:].reshape(-1, 2) for _, points, _, _ in levels])
        legs = ends - starts
        lengths = _stack([n.ravel() for _, _, n, _ in levels])
        start_wall = _stack([seq.ravel() for seq, _, _, _ in levels])
        # The crossings of the walls a leg may cross, skipping the walls
        # it touches at its ends, which it bounces on rather than
        # crosses.
        hull = self._hull
        inside = _in_hull(hull, tx.x, tx.y) and _in_hull(hull, rx.x, rx.y)
        cross, cross_a, cross_r = self._interior if inside else self._every
        leg = wall = _NO_ROWS
        if cross.size:
            touching = _stack([m.reshape(-1, len(walls)) for _, _, _, m in levels])
            meets, t = _intersect(starts[:, None], legs[:, None], cross_a, cross_r)
            leg, column = np.nonzero(meets & ~touching[:, cross])
            wall = cross[column]
            if leg.size:
                # Endpoint grazes are ignored: a radio sits against a
                # wall, not inside it.
                t = _clamp(t[leg, column], 0.0, 1.0)
                hits = starts[leg] + legs[leg] * t[:, None]
                gaps = np.concatenate([hits - starts[leg], hits - ends[leg]])
                through = exactmath.hypot(gaps[:, 0], gaps[:, 1]) > 1e-6
                through = through[: len(leg)] & through[len(leg) :]
                leg, wall = leg[through], wall[through]

        # Per chain its first leg row and leg count.  There are a few
        # dozen chains, few enough that lists beat arrays.
        first: List[int] = []
        width: List[int] = []
        row = 0
        for seq, _, _, _ in levels:
            count, legs_per_chain = seq.shape
            first += range(row, row + count * legs_per_chain, legs_per_chain)
            width += [legs_per_chain] * count
            row += count * legs_per_chain
        # A crossing drops its chain, but the LOS (leg 0, the only leg of
        # chain 0) penetrates the walls it crosses.
        dropped = {bisect.bisect_right(first, r) - 1 for r in leg.tolist()}
        dropped.discard(0)
        penetrated = tuple(walls[w] for w in wall[leg == 0].tolist())
        if dropped:
            first = [a for c, a in enumerate(first) if c not in dropped]
            width = [w for c, w in enumerate(width) if c not in dropped]

        # The obstruction table, left pending: the kept paths' legs, path
        # by path, and the occluders they are cut with when it is read.
        cuts = _NO_OBSTRUCTIONS
        if occluders:
            kept = (starts, ends, legs, lengths)
            if dropped:
                rows = np.array([row for a, w in zip(first, width) for row in range(a, a + w)])
                kept = tuple(column[rows] for column in kept)
            cuts = _CutJob(*kept, width, occluders)

        # Per path: length (legs summed in order, as Python sums them),
        # the reflection loss of the walls its legs start on after the
        # first, and the bearings of its first leg from TX and of its
        # last leg back from RX.
        leg_lengths = lengths.tolist()
        wall_loss = table[start_wall, 6].tolist()
        deltas = legs.tolist()
        length, reflection, departure, arrival = [], [], [], []
        for a, w in zip(first, width):
            b = a + w
            length.append(sum(leg_lengths[a:b]))
            reflection.append(sum(wall_loss[a + 1 : b]))
            departure.append(_bearing_deg(*deltas[a]))
            dx, dy = deltas[b - 1]
            arrival.append(_bearing_deg(-dx, -dy))
        penetration = [0.0] * len(first)
        penetration[0] = sum(w.material.penetration_loss_db for w in penetrated)

        path_set = PathSet(
            np.array(length),
            np.array(departure),
            np.array(arrival),
            np.array(reflection, dtype=float),
            np.array(penetration),
            cuts,
            occluders,
        )
        return path_set._views(tx, rx, walls, starts, start_wall, first, width, penetrated)


@functools.lru_cache(maxsize=MAX_HULL_SCREENS)
def _hull_screen(
    ends: Tuple[Tuple[float, float], ...],
) -> Tuple[Tuple[Tuple[float, float, float, float], ...], Tuple[bool, ...]]:
    """The closed convex hull of the wall ends, and which walls lie on it.

    ``ends`` holds each wall's start and end point, wall by wall.
    Returns the hull's edges, counter-clockwise, each as its start and
    start-to-end vector, and per wall whether both its ends are exactly
    collinear with one hull edge.  The hull and the collinearity are
    computed on the floats' exact values (as integers), so a wall that
    only rounds onto a hull edge stays off it.  If a wall end fails the
    closed-hull test (:func:`_in_hull`), or the hull has no area, no wall
    is on it and the edges are empty.  The answer depends only on the
    coordinates, so it is kept for the last :data:`MAX_HULL_SCREENS`
    wall layouts: every system built over one room computes it once.

    Why a query whose TX and RX lie in the closed hull never crosses a
    wall on it: bounce points are clamped onto wall segments, so every
    leg of every chain runs between two points of the closed hull.  Such
    a segment meets the line of a hull edge in one of two ways only.  It
    touches the line at an endpoint, a graze the crossing test drops
    (clamped to the leg, its meeting point lies within 1e-6 m of an
    end); or it runs along the line, the parallel case :func:`_intersect`
    never reports.  Rounding can change this only for an endpoint within
    rounding of a hull edge whose leg runs within about 1e-10 rad of that
    edge's line: the ray sliding along a wall that :func:`_intersect`
    leaves unmodelled.  Walls off the hull (partitions, the reflex walls
    of an L-shaped room) stay in the test, and a query with an endpoint
    outside the hull tests every wall.
    """
    none_on = (False,) * (len(ends) // 2)
    coordinates = [v for end in ends for v in end]
    if not all(map(math.isfinite, coordinates)):
        return (), none_on
    # Exact values as integers over one common power-of-two denominator,
    # which the products below keep exact.
    ratios = [v.as_integer_ratio() for v in coordinates]
    scale = max(den for _, den in ratios)
    exact = [num * (scale // den) for num, den in ratios]
    exact = list(zip(exact[::2], exact[1::2]))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    # Andrew's monotone chain; collinear points are dropped, so every
    # hull vertex is a corner.
    points = sorted(set(exact))
    chains = []
    for run in (points, points[::-1]):
        chain: list = []
        for p in run:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    corners = chains[0] + chains[1]
    if len(corners) < 3:
        return (), none_on
    sides = list(zip(corners, corners[1:] + corners[:1]))
    float_of = dict(zip(exact, ends))
    edges = tuple(
        (px, py, qx - px, qy - py)
        for (px, py), (qx, qy) in ((float_of[p], float_of[q]) for p, q in sides)
    )
    if not all(_in_hull(edges, x, y) for x, y in ends):
        return (), none_on
    on_hull = tuple(
        any(turn(p, q, a) == 0 and turn(p, q, b) == 0 for p, q in sides)
        for a, b in zip(exact[::2], exact[1::2])
    )
    return (edges if any(on_hull) else ()), on_hull


def _in_hull(edges: Sequence[Tuple[float, float, float, float]], x: float, y: float) -> bool:
    """Whether ``(x, y)`` lies on or inside every edge of a hull from
    :func:`_hull_screen`, in floats; every point lies in a hull of no
    edges.  A NaN coordinate lies outside."""
    for px, py, ex, ey in edges:
        if not ex * (y - py) - ey * (x - px) >= 0.0:
            return False
    return True


def _build_image_tree(
    tx: np.ndarray, max_bounces: int, walls: np.ndarray, same: np.ndarray
) -> tuple:
    """Every chain of 1 to ``max_bounces`` walls, with its images of TX.

    ``walls`` and ``same`` are the tracer's wall table and same-wall
    mask.  The chains of one more bounce mirror each chain's last image
    of TX across every wall but the one it just bounced on, in wall
    order.  One level per bounce count holds the chains' wall sequences
    (after a leading -1 for TX), their images (TX first), from the
    second-to-last bounce back to the first each bounce's index with the
    start and start-to-end vector of its wall, and per leg the walls it
    touches at its ends.  Every chain's last image and last wall (start,
    start-to-end vector) are also stacked over all levels: a receiver's
    walk back along the chains starts with those, all at once.
    """
    wall_a, wall_r, wall_d = walls[:, 0:2], walls[:, 2:4], walls[:, 4:6]
    levels, last = [], []
    seq, images = np.full((1, 1), -1), tx[None, None]
    for _ in range(max_bounces):
        mirror = images[:, -1, None]
        ap = mirror - wall_a
        dot = ap[..., 0] * wall_d[:, 0] + ap[..., 1] * wall_d[:, 1]
        mirrored = mirror - (ap - wall_d * dot[..., None]) * 2.0
        chain, wall = np.nonzero(~same[seq[:, -1]])
        seq = np.column_stack([seq[chain], wall])
        images = np.concatenate([images[chain], mirrored[chain, wall, None]], axis=1)
        earlier = [
            (j, wall_a[seq[:, j]], wall_r[seq[:, j]])
            for j in range(seq.shape[1] - 2, 0, -1)
        ]
        # A leg starts on its chain's wall and ends on the next (the
        # leading -1 rolls round to stand for RX).
        touching = same[seq] | same[np.roll(seq, -1, axis=1)]
        levels.append((seq, images, earlier, touching))
        last.append((images[:, -1], wall_a[wall], wall_r[wall]))
    return levels, tuple(np.concatenate(column) for column in zip(*last))


def _reflection_chains(
    tree: tuple, los: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The chains of an image tree whose bounces exist for ``los``.

    ``los`` holds TX and RX.  Walking back from RX, the line toward each
    image meets its wall at the bounce point: the last bounce of every
    chain first, then each level's earlier bounces.  A chain is dropped
    when its last image sits on RX, a bounce point misses its wall or a
    leg is shorter than the far-field limit.  Per bounce count: the wall
    sequences, points, leg lengths and touched walls of the chains kept,
    one row each.
    """
    levels, (last_image, last_a, last_r) = tree
    src, dst = los
    gap = last_image - dst
    alive = exactmath.hypot(gap[:, 0], gap[:, 1]) >= EPSILON
    meets, t = _intersect(last_a, last_r, last_image, dst - last_image)
    last_bounce = last_a + last_r * _clamp(t, 0.0, 1.0)[:, None]
    alive &= meets
    chains = []
    row = 0
    for seq, images, earlier, touching in levels:
        rows = slice(row, row + len(seq))
        row += len(seq)
        level_alive = alive[rows]
        points = np.empty((len(seq), seq.shape[1] + 1, 2))
        points[:, 0], points[:, -2], points[:, -1] = src, last_bounce[rows], dst
        for j, a, r in earlier:
            meets, t = _intersect(a, r, images[:, j], points[:, j + 1] - images[:, j])
            points[:, j] = a + r * _clamp(t, 0.0, 1.0)[:, None]
            level_alive &= meets
        legs = points[:, 1:] - points[:, :-1]
        lengths = exactmath.hypot(legs[..., 0], legs[..., 1])
        level_alive &= (lengths >= MIN_SEPARATION_M).all(axis=1)
        chains.append(
            (seq[level_alive], points[level_alive], lengths[level_alive], touching[level_alive])
        )
    return chains


def _stack(parts: List[np.ndarray]) -> np.ndarray:
    """``parts`` joined along their first axis; a single part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _bearing_deg(dx: float, dy: float) -> float:
    """:func:`bearing_deg` of the direction ``(dx, dy)``: ``rad_to_deg``
    and ``wrap_angle_deg`` inlined, in their operation order.  An
    ``atan2`` in [-pi, pi] never reaches the wrap's 180-degree edge."""
    return (math.atan2(dy, dx) * 180.0 / math.pi + 180.0) % 360.0 - 180.0


def _clamp(t: np.ndarray, lo, hi) -> np.ndarray:
    """``min(hi, max(lo, t))`` with Python's choice among equal values."""
    t = np.where(t > lo, t, lo)
    return np.where(t < hi, t, hi)


def _intersect(
    a: np.ndarray, r: np.ndarray, p: np.ndarray, s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where segments ``a + r·t`` meet segments ``p + s·u`` (broadcast).

    Returns the mask of pairs that meet, within ``EPSILON`` of either
    segment's ends, and ``t``; clamped to [0, 1] it places the meeting
    point.  Parallel and collinear pairs never meet: a ray sliding
    exactly along a wall is a measure-zero configuration the physics
    does not model.  That, with the crossing test's graze rule, is why
    a leg inside the walls' hull never crosses a wall on it
    (:func:`_hull_screen`).
    """
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    q = p - a
    t = (q[..., 0] * s[..., 1] - q[..., 1] * s[..., 0]) / denom
    u = (q[..., 0] * r[..., 1] - q[..., 1] * r[..., 0]) / denom
    meets = (np.abs(denom) >= EPSILON) & (np.minimum(t, u) >= -EPSILON)
    return meets & (np.maximum(t, u) <= 1.0 + EPSILON), t


#: No leg rows: the crossings of a query that tests no wall.
_NO_ROWS = np.empty(0, dtype=np.intp)
#: The obstruction table of no cut.
_NO_OBSTRUCTIONS = ObstructionTable.of_records([])
#: The screen row of the column past the union of occluders that pads a
#: shorter occluder list in :func:`_cuts`: a box no leg's box overlaps.
_PAD_ROW = (0.0, 0.0, 0.0, math.inf, math.inf, -math.inf, -math.inf)


@np.errstate(all="ignore")
def _cuts(jobs: Sequence[_CutJob]) -> List[ObstructionTable]:
    """The obstruction table of each job, cut in one pass over the legs
    of every job.

    Every occluder cut of every leg, with the leg's own job's
    occluders.  A job's table lists its cuts in (leg, occluder) order,
    which is path order since its legs run path by path: per cut its
    path, leg along the path and occluder (indices within the job), chord
    depth, clearance, distance along the leg to the occluder centre and
    leg length.  Clearance is the signed distance from the leg to the
    edge, for a box minus half the depth.

    The legs of all jobs are stacked job by job, and screened against
    the union of the jobs' occluders (by identity): each leg reads the
    union columns of its job's occluders, in its job's order (so a list
    may name one object twice), padded to the longest list with a column
    no leg meets.  The slab and chord formulas then run once over every
    candidate pair; they act entry by entry, so each job's rows and
    floats are those it gets cut alone.
    """
    members: Dict[int, Occluder] = {}
    for job in jobs:
        for occ in job.occluders:
            members.setdefault(id(occ), occ)
    union_column = {key: column for column, key in enumerate(members)}
    widest = max((len(job.occluders) for job in jobs), default=0)
    pad = len(members)
    local = np.array(
        [
            [union_column[id(occ)] for occ in job.occluders]
            + [pad] * (widest - len(job.occluders))
            for job in jobs
        ],
        dtype=np.intp,
    ).reshape(len(jobs), widest)
    # Per union occluder, then the padding column, one array each:
    # centre, radius (0 for a box), and the box whose slab test screens
    # it (its ``screen_row``).  Per axis arrays keep every formula below
    # on contiguous one-dimensional operands.
    center_x, center_y, radius, lo_x, lo_y, hi_x, hi_y = np.array(
        [occ.screen_row for occ in members.values()] + [_PAD_ROW]
    ).T.copy()
    counts = [len(job.lengths) for job in jobs]
    starts, ends, legs, lengths = (_stack([job[c] for job in jobs]) for c in range(4))

    # Bounding boxes first: a leg whose box, padded by BOX_SCREEN_PAD_M,
    # misses the occluder's box cannot pass the slab test, whose
    # rounding stays far inside the pad.  One row per union column, so
    # each compare runs along the legs.
    leg_lo = (np.minimum(starts, ends) - BOX_SCREEN_PAD_M).T.copy()
    leg_hi = (np.maximum(starts, ends) + BOX_SCREEN_PAD_M).T.copy()
    overlap = (leg_lo[0] <= hi_x[:, None]) & (leg_hi[0] >= lo_x[:, None])
    overlap &= (leg_lo[1] <= hi_y[:, None]) & (leg_hi[1] >= lo_y[:, None])
    # Per leg, the union column of each of its job's occluders.
    columns = np.repeat(local, counts, axis=0)
    legs_at = np.arange(len(lengths))[:, None]
    row, k = np.nonzero(np.take(overlap, columns * len(lengths) + legs_at))
    if not row.size:
        return [_NO_OBSTRUCTIONS] * len(jobs)
    member = columns[row, k]
    a_x, a_y = starts[row, 0], starts[row, 1]
    v_x, v_y = legs[row, 0], legs[row, 1]
    # Slab method: per axis, the leg parameters where it enters and
    # leaves the box.  An axis the leg runs parallel to passes (0, 1) if
    # the leg lies between the box's sides on it and (1, 0) if not.
    enter, leave = [], []
    for a, v, lo, hi in ((a_x, v_x, lo_x, hi_x), (a_y, v_y, lo_y, hi_y)):
        t_lo, t_hi = (lo[member] - a) / v, (hi[member] - a) / v
        near, far = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
        parallel = np.abs(v) < EPSILON
        beside = (near > 0.0) | (far < 0.0)
        enter.append(np.where(parallel, beside, near))
        leave.append(np.where(parallel, ~beside, far))
    t_min = np.maximum(np.maximum(*enter), 0.0)
    t_max = np.minimum(np.minimum(*leave), 1.0)
    hit = t_min < t_max
    if not hit.any():
        return [_NO_OBSTRUCTIONS] * len(jobs)
    row, k, member = row[hit], k[hit], member[hit]
    a_x, a_y, v_x, v_y = a_x[hit], a_y[hit], v_x[hit], v_y[hit]
    length, box_span = lengths[row], (t_max - t_min)[hit]

    # Circle chords of the candidates: distance from the centre to the
    # leg, then the chord at that offset, clipped to the leg.
    c_x, c_y, radius = center_x[member], center_y[member], radius[member]
    off_x, off_y = c_x - a_x, c_y - a_y
    dot = off_x * v_x + off_y * v_y
    t = _clamp(dot / (v_x * v_x + v_y * v_y), 0.0, 1.0)
    dist = exactmath.hypot(c_x - (a_x + v_x * t), c_y - (a_y + v_y * t))
    center_t = off_x * (v_x / length) + off_y * (v_y / length)
    half = np.sqrt(radius * radius - dist * dist)
    lo, hi = center_t - half, center_t + half
    chord = np.where(hi < length, hi, length) - np.where(lo > 0.0, lo, 0.0)

    is_circle = radius > 0.0
    depth = np.where(is_circle, np.where(dist < radius, chord, 0.0), box_span * length)
    clearance = np.where(is_circle, dist - radius, -depth / 2.0)
    along = _clamp(dot / length, 0.0, length)
    cut = depth > 0.0
    row, length = row[cut], length[cut]

    # Each cut's path, numbered within its job, and leg along it: the
    # paths of all jobs run one after another over the stacked legs.
    widths = [w for job in jobs for w in job.width]
    path_start = np.array(list(accumulate(widths[:-1], initial=0)))
    path_number = np.array([p for job in jobs for p in range(len(job.width))])
    path = np.searchsorted(path_start, row, side="right") - 1
    found = (
        path_number[path],
        row - path_start[path],
        k[cut],
        depth[cut],
        clearance[cut],
        along[cut],
        length,
    )
    # Split the rows job by job, at each job's first leg row.
    firsts = np.searchsorted(row, list(accumulate(counts[:-1]))).tolist()
    bounds = [0, *firsts, len(row)]
    return [
        ObstructionTable(*(column[lo:hi] for column in found))
        for lo, hi in zip(bounds, bounds[1:])
    ]
