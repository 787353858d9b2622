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

A query does only what fixes its path count: the walk, and the
crossing test when there are walls to test.  The set it returns is a
pending record of its chains (per bounce count their wall sequences,
points and leg lengths); its per-path arrays and obstruction table are
computed the first time one is read, or, with other pending sets, in
one joined pass (:meth:`PathSet.resolve`) that stacks every set's legs,
computes the per-path arrays over all of them and cuts them with their
sets' occluders.  The link layer resolves a tick's new sets together
(:meth:`repro.phy.channel.MmWaveChannel.link_columns_many`), so a
tick's bookkeeping after the walk costs one pass.  Either way each set
gets the arrays and table it would get resolved alone, float for float.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

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
        leg, summed left to right, without building a ``Vec2``."""
        points = self.points
        return exactmath.left_sum(
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
        """Sum of per-bounce reflection losses in dB, left to right."""
        return exactmath.left_sum(w.material.reflection_loss_db for w in self.walls)

    @property
    def total_penetration_loss_db(self) -> float:
        """Sum of through-wall penetration losses in dB, left to right."""
        return _penetration_db(self.penetrated_walls)

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


class _Row:
    """A per-path array of a :class:`PathSet`: one row of its columns,
    computed first if the set is still pending."""

    def __init__(self, row: int) -> None:
        self.row = row

    def __get__(self, path_set, owner=None):
        if path_set is None:
            return self
        columns = path_set._columns
        if columns is None:
            PathSet.resolve((path_set,))
            columns = path_set._columns
        return columns[self.row]


class PathSet:
    """The paths of one scene as a struct of arrays, one entry per path.

    ``length`` (meters), ``departure`` and ``arrival`` (degrees),
    ``reflection_db`` and ``penetration_db`` hold, for every path, what
    the :class:`PropagationPath` properties ``total_length_m``,
    ``departure_angle_deg``, ``arrival_angle_deg``,
    ``total_reflection_loss_db`` and ``total_penetration_loss_db`` give;
    they are the rows of one ``(5, P)`` array, in that order.  ``cuts``
    is the obstruction table and ``occluders`` the occluders its rows
    index.

    A set the tracer built is pending: it holds its chains, and computes
    its arrays and table the first time one is read, or with other
    pending sets in one joined pass (:meth:`resolve`, which
    :meth:`concat` calls).  After a joined pass its arrays are slices of
    the pass's arrays, and its table is cut out of the pass's table the
    first time it is read.  Those slices, and the pass's table until
    then, keep the whole pass's arrays in memory as long as the set
    lives, whichever of its fellow sets are gone.  Its paths' objects
    are built from the chains (see :meth:`_views`).  A set gathered from
    path objects (:meth:`of`) or joined from sets (:meth:`concat`) holds
    only the arrays.

    ``columns_memo`` is the channel's memo on the set: the link columns
    :meth:`repro.phy.channel.MmWaveChannel.link_columns_many` built for
    it and the channel key they were built under, or None.  The columns
    live and die with the set.
    """

    __slots__ = (
        "columns_memo",
        "occluders",
        "_count",
        "_columns",
        "_cut_table",
        "_joined",
        "_tx",
        "_rx",
        "_distance",
        "_walls",
        "_penetrated",
        "_chains",
    )

    length = _Row(0)
    departure = _Row(1)
    arrival = _Row(2)
    reflection_db = _Row(3)
    penetration_db = _Row(4)

    def __init__(
        self, columns: np.ndarray, cuts: ObstructionTable, occluders: Sequence[Occluder]
    ) -> None:
        """``columns`` holds the per-path arrays as rows: length,
        departure, arrival, reflection loss and penetration loss."""
        self._columns = columns
        self._count = columns.shape[1]
        self._cut_table: Optional[ObstructionTable] = cuts
        self._joined: Optional[Tuple[ObstructionTable, int, int]] = None
        self.occluders = occluders
        self.columns_memo: Optional[Tuple[object, np.ndarray]] = None

    @classmethod
    def _traced(
        cls,
        tx: Vec2,
        rx: Vec2,
        distance: float,
        chains: List[tuple],
        walls: Tuple[Wall, ...],
        penetrated: Tuple[Wall, ...],
        occluders: Sequence[Occluder],
    ) -> "PathSet":
        """The pending set of a trace: the endpoints and their distance,
        the kept reflection chains per bounce count (wall sequences, legs
        and reflection losses; see :func:`_reflection_chains`), the
        room's walls, the walls the LOS penetrates and the occluders.
        Its path count is fixed."""
        path_set = cls.__new__(cls)
        path_set._tx, path_set._rx, path_set._distance = tx, rx, distance
        path_set._chains, path_set._walls, path_set._penetrated = chains, walls, penetrated
        path_set.occluders = occluders
        path_set._count = 1 + sum(len(seq) for seq, _, _ in chains)
        path_set._columns = path_set._cut_table = path_set._joined = None
        path_set.columns_memo = None
        return path_set

    def __len__(self) -> int:
        return self._count

    @property
    def cuts(self) -> ObstructionTable:
        """The obstruction table: computed now if the set is pending, or
        cut out of its joined pass's table on first read."""
        table = self._cut_table
        if table is None:
            if self._columns is None:
                PathSet.resolve((self,))
                return self._cut_table
            joined, first, offset = self._joined
            lo, hi = np.searchsorted(joined.path, (first, first + self._count)).tolist()
            table = self._cut_table = ObstructionTable(
                joined.path[lo:hi] - first,
                joined.leg[lo:hi],
                joined.occluder[lo:hi] - offset,
                *(column[lo:hi] for column in joined[3:]),
            )
            self._joined = None
        return table

    @staticmethod
    def resolve(sets: Iterable["PathSet"]) -> Optional["PathSet"]:
        """Compute the arrays and obstruction tables of the pending sets
        among ``sets`` in one pass over all their legs (:func:`_resolve`);
        a set listed twice is resolved once.  Each set gets the arrays
        and table it would get resolved alone.

        Returns the set of the resolved sets' paths, in first-seen order:
        the one set itself, or a new set of the pass's arrays and table,
        of which each resolved set keeps slices.  None when no set was
        pending.
        """
        pending: Dict[int, PathSet] = {}
        for path_set in sets:
            if path_set._columns is None:
                pending[id(path_set)] = path_set
        if not pending:
            return None
        owners = list(pending.values())
        columns, table = _resolve(owners)
        if len(owners) == 1:
            (owner,) = owners
            owner._columns, owner._cut_table = columns, table
            return owner
        first = offset = 0
        for owner in owners:
            owner._columns = columns[:, first : first + owner._count]
            if len(table.path) and owner.occluders:
                owner._joined = (table, first, offset)
            else:
                owner._cut_table = _NO_OBSTRUCTIONS
            first += owner._count
            offset += len(owner.occluders)
        return PathSet(columns, table, [occ for owner in owners for occ in owner.occluders])

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
        columns = np.array(
            [
                [p.total_length_m for p in paths],
                [p.departure_angle_deg for p in paths],
                [p.arrival_angle_deg for p in paths],
                [p.total_reflection_loss_db for p in paths],
                [p.total_penetration_loss_db for p in paths],
            ],
            dtype=float,
        ).reshape(5, len(paths))
        table = ObstructionTable.of_records(records)
        return cls(columns, table, [o.occluder for _, o in records])

    @classmethod
    def concat(cls, sets: Sequence["PathSet"]) -> "PathSet":
        """One set holding the paths of ``sets`` in order: each set's
        obstruction rows follow its own, renumbered to the joined paths
        and occluders.  The pending sets are resolved first, in one pass
        (:meth:`resolve`); when that pass covered every set once, its set
        is the answer, with nothing joined again.  A single set comes
        back as it is."""
        if len(sets) == 1:
            return sets[0]
        joined = cls.resolve(sets)
        # Every set holds a path, so the pass covered each set once
        # exactly when it holds all their paths.
        if joined is not None and len(joined) == sum(len(s) for s in sets):
            return joined
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
        return cls(
            np.concatenate([s._columns for s in sets], axis=1),
            cuts,
            [o for s in sets for o in s.occluders],
        )

    # -- the objects of one path, built when a view reads them -----------

    def points_of(self, index: int) -> Tuple[Vec2, ...]:
        if not index:
            return (self._tx, self._rx)
        # The bounces are the starts of the legs after the first.
        _, legs = self._chain(index)
        return (self._tx, *(Vec2(x, y) for x, y in legs[1:, 0:2].tolist()), self._rx)

    def walls_of(self, index: int) -> Tuple[Wall, ...]:
        if not index:
            return ()
        seq, _ = self._chain(index)
        walls = self._walls
        return tuple(walls[w] for w in seq[1:].tolist())

    def _chain(self, index: int) -> Tuple[np.ndarray, np.ndarray]:
        """The wall sequence and legs of reflection path ``index``."""
        row = index - 1
        for seq, legs, _ in self._chains:
            if row < len(seq):
                return seq[row], legs[row]
            row -= len(seq)
        raise IndexError(f"path {index} of a set of {self._count}")

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

    def _views(self) -> List[PropagationPath]:
        """One view per path, each building its objects from the set
        when read."""
        views = _TracedPaths()
        views.path_set = self
        for index in range(self._count):
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
        views of one pending :class:`PathSet`; ``distance`` is the TX–RX
        distance.

        The reflection chains are kept grouped by bounce count (see
        :func:`_reflection_chains`).  A reflection chain is dropped when
        a leg crosses any wall other than the ones it bounces on; the LOS
        is kept and lists the walls it crosses as penetrated.  When TX
        and RX lie in the hull of the walls, only the walls off the hull
        are tested: no leg crosses the others (:func:`_hull_screen`).
        Paths come LOS first, then by bounce count, then in room wall
        order.  That fixes the path count; the per-path arrays and the
        obstruction table are left to :meth:`PathSet.resolve`.
        """
        walls, _, same = self._room_tables()
        levels, chains, kept = (), [], []
        if max_bounces:
            los = np.array([tx.as_tuple(), rx.as_tuple()], dtype=float)
            tree = self._image_tree(tx, max_bounces)
            levels = tree[0]
            chains, kept = _reflection_chains(tree, los)
        hull = self._hull
        inside = _in_hull(hull, tx.x, tx.y) and _in_hull(hull, rx.x, rx.y)
        cross = self._interior if inside else self._every
        penetrated: Tuple[Wall, ...] = ()
        if cross[0].size:
            touching = [level[4][alive] for level, alive in zip(levels, kept)]
            chains, crossed = _crossings(tx, rx, distance, chains, touching, same, cross)
            penetrated = tuple(walls[w] for w in crossed)
        path_set = PathSet._traced(tx, rx, distance, chains, walls, penetrated, occluders)
        return path_set._views()


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
    start and start-to-end vector of its wall, each chain's reflection
    loss (its walls' losses added in bounce order from 0.0, as
    ``PropagationPath.total_reflection_loss_db`` adds them), and per leg
    the walls it touches at its ends (for :func:`_crossings`).  Every
    chain's last image and last wall (start, start-to-end vector) are
    also stacked over all levels: a receiver's walk back along the
    chains starts with those, all at once.
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
        reflection = np.zeros(len(seq))
        for j in range(1, seq.shape[1]):
            reflection = reflection + walls[seq[:, j], 6]
        # A leg starts on its chain's wall and ends on the next (the
        # leading -1 rolls round to stand for RX).
        touching = same[seq] | same[np.roll(seq, -1, axis=1)]
        levels.append((seq, images, earlier, reflection, touching))
        last.append((images[:, -1], wall_a[wall], wall_r[wall]))
    return levels, tuple(np.concatenate(column) for column in zip(*last))


def _reflection_chains(
    tree: tuple, los: np.ndarray
) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], List[np.ndarray]]:
    """The chains of an image tree whose bounces exist for ``los``.

    ``los`` holds TX and RX.  Walking back from RX, the line toward each
    image meets its wall at the bounce point: the last bounce of every
    chain first, then each level's earlier bounces.  A chain is dropped
    when its last image sits on RX, a bounce point misses its wall or a
    leg is shorter than the far-field limit.  Per bounce count: the wall
    sequences, legs and reflection losses of the chains kept, one row
    each; a chain's legs are a ``(legs, 7)`` table of per leg its start,
    end, start-to-end vector and length.  Also per bounce count, the
    mask of the tree's chains kept.
    """
    levels, (last_image, last_a, last_r) = tree
    src, dst = los
    gap = last_image - dst
    alive = exactmath.hypot(gap[:, 0], gap[:, 1]) >= EPSILON
    meets, t = _intersect(last_a, last_r, last_image, dst - last_image)
    last_bounce = last_a + last_r * _clamp(t, 0.0, 1.0)[:, None]
    alive &= meets
    chains, kept = [], []
    row = 0
    for seq, images, earlier, reflection, _ in levels:
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
        legs = np.concatenate(
            [points[:, :-1], points[:, 1:], legs, lengths[..., None]], axis=2
        )
        chains.append((seq[level_alive], legs[level_alive], reflection[level_alive]))
        kept.append(level_alive)
    return chains, kept


def _crossings(
    tx: Vec2,
    rx: Vec2,
    distance: float,
    chains: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    touching: List[np.ndarray],
    same: np.ndarray,
    cross: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[List[Tuple[np.ndarray, np.ndarray, np.ndarray]], List[int]]:
    """The reflection chains none of whose legs crosses a wall of
    ``cross``, and the walls of ``cross`` the LOS crosses, in order.

    ``touching`` holds per bounce count the chains' image-tree masks of
    the walls each leg touches at its ends, ``cross`` the walls'
    indices, starts and start-to-end vectors, and ``same`` is the
    tracer's same-wall mask.  A leg crossing a wall it touches at its
    ends bounces on it rather than crosses it, and one meeting a wall
    within 1e-6 m of its own ends grazes it: a radio sits against a
    wall, not inside it.
    """
    index, wall_a, wall_r = cross
    # Every leg, the LOS first (touching no wall: row -1 of ``same``)
    # and then chain by chain.
    legs = _stack([_los_legs([(tx, rx, distance)])] + [c[1].reshape(-1, 7) for c in chains])
    touching = _stack([same[-1:]] + [m.reshape(-1, same.shape[1]) for m in touching])
    starts, ends, vectors = legs[:, 0:2], legs[:, 2:4], legs[:, 4:6]
    meets, t = _intersect(starts[:, None], vectors[:, None], wall_a, wall_r)
    leg, column = np.nonzero(meets & ~touching[:, index])
    wall = index[column]
    if leg.size:
        t = _clamp(t[leg, column], 0.0, 1.0)
        hits = starts[leg] + vectors[leg] * t[:, None]
        gaps = np.concatenate([hits - starts[leg], hits - ends[leg]])
        through = exactmath.hypot(gaps[:, 0], gaps[:, 1]) > 1e-6
        through = through[: len(leg)] & through[len(leg) :]
        leg, wall = leg[through], wall[through]
    # The LOS is leg 0; any other crossing drops its chain.
    kept = []
    row = 1
    for chain in chains:
        count, width = chain[0].shape
        crossed = leg[(leg >= row) & (leg < row + count * width)]
        if crossed.size:
            keep = np.ones(count, dtype=bool)
            keep[(crossed - row) // width] = False
            chain = tuple(column[keep] for column in chain)
        kept.append(chain)
        row += count * width
    return kept, wall[leg == 0].tolist()


def _los_legs(endpoints: Iterable[Tuple[Vec2, Vec2, float]]) -> np.ndarray:
    """The legs table (see :func:`_reflection_chains`) of LOS legs given
    as TX, RX and their distance, one row each."""
    return np.array(
        [(a.x, a.y, b.x, b.y, b.x - a.x, b.y - a.y, d) for a, b, d in endpoints], dtype=float
    ).reshape(-1, 7)


def _stack(parts: List[np.ndarray]) -> np.ndarray:
    """``parts`` joined along their first axis; a single part as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _penetration_db(walls: Iterable[Wall]) -> float:
    """The walls' penetration losses, added left to right."""
    return exactmath.left_sum(w.material.penetration_loss_db for w in walls)


def _bearings_deg(dx: List[float], dy: List[float]) -> np.ndarray:
    """:func:`bearing_deg` of each direction ``(dx, dy)``:
    :func:`math.atan2` mapped over the lists, then ``rad_to_deg`` and
    ``wrap_angle_deg`` in their operation order (NumPy's ``%`` on floats
    is Python's).  An ``atan2`` in [-pi, pi] never reaches the wrap's
    180-degree edge."""
    angle = np.fromiter(map(math.atan2, dy, dx), dtype=float, count=len(dx))
    return (angle * 180.0 / math.pi + 180.0) % 360.0 - 180.0


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


#: The obstruction table of no cut.
_NO_OBSTRUCTIONS = ObstructionTable.of_records([])
#: The screen row of the column past the union of occluders that pads a
#: shorter occluder list in :func:`_cuts`: a box no leg's box overlaps.
_PAD_ROW = (0.0, 0.0, 0.0, math.inf, math.inf, -math.inf, -math.inf)


@np.errstate(all="ignore")
def _resolve(sets: Sequence[PathSet]) -> Tuple[np.ndarray, ObstructionTable]:
    """The per-path arrays and obstruction table of pending sets, in one
    pass over all their legs.

    Returns the arrays as the rows of one ``(5, P)`` array (length,
    departure, arrival, reflection loss, penetration loss) and one
    table (:func:`_cuts`), both over the sets' paths set by set; the
    table's occluders index the sets' occluder lists joined in order.

    The paths of one leg count form a block: every set's LOS, then per
    bounce count the chains of every set.  Each formula runs once per
    block and acts path by path as the scalar code does: leg lengths
    added left to right, the tree's reflection losses, and each bearing
    from :func:`math.atan2` (:func:`_bearings_deg`); the LOS adds the
    losses of the walls it penetrates left to right.  The blocks are
    then put back in set order, path by path, and so are their legs,
    which are cut with their own sets' occluders in one pass.
    """
    count = len(sets)
    # Per block its legs (see :func:`_reflection_chains`), one row per
    # path, and its reflection losses.
    blocks = [
        (
            _los_legs([(s._tx, s._rx, s._distance) for s in sets]).reshape(count, 1, 7),
            np.zeros(count),
        )
    ]
    # Per set the block rows of its paths and of its legs, and its paths'
    # leg counts.
    path_rows: List[List[int]] = [[i] for i in range(count)]
    leg_rows: List[List[int]] = [[i] for i in range(count)]
    widths: List[List[int]] = [[1] for _ in range(count)]
    path_row = leg_row = count
    for level in range(max(len(s._chains) for s in sets)):
        members = [(i, s._chains[level]) for i, s in enumerate(sets) if len(s._chains) > level]
        for i, (seq, _, _) in members:
            paths, width = seq.shape
            path_rows[i] += range(path_row, path_row + paths)
            leg_rows[i] += range(leg_row, leg_row + paths * width)
            widths[i] += [width] * paths
            path_row += paths
            leg_row += paths * width
        blocks.append(tuple(_stack([chain[c] for _, chain in members]) for c in (1, 2)))
    paths = path_row

    columns = np.empty((5, paths))
    lengths, ends = [], []
    for legs, _ in blocks:
        total = legs[:, 0, 6]
        for j in range(1, legs.shape[1]):
            total = total + legs[:, j, 6]
        lengths.append(total)
        ends.append(legs[:, 0, 4:6])
    columns[0] = _stack(lengths)
    # A departure is the first leg's bearing from TX, an arrival the last
    # leg's bearing back from RX.
    ends += [-legs[:, -1, 4:6] for legs, _ in blocks]
    dx, dy = np.concatenate(ends).T.tolist()
    columns[1:3] = _bearings_deg(dx, dy).reshape(2, paths)
    columns[3] = _stack([reflection for _, reflection in blocks])
    columns[4] = 0.0
    for i, s in enumerate(sets):
        if s._penetrated:
            columns[4, i] = _penetration_db(s._penetrated)
    # The blocks are in set order unless two sets, one with reflection
    # paths, share the pass.
    reordered = count > 1 and len(blocks) > 1
    if reordered:
        columns = columns[:, [row for rows in path_rows for row in rows]]

    if not any(s.occluders for s in sets):
        return columns, _NO_OBSTRUCTIONS
    legs = _stack([legs.reshape(-1, 7) for legs, _ in blocks])
    if reordered:
        legs = legs[[row for rows in leg_rows for row in rows]]
    table = _cuts(
        legs,
        [w for set_widths in widths for w in set_widths],
        [len(rows) for rows in leg_rows],
        [s.occluders for s in sets],
    )
    return columns, table


@np.errstate(all="ignore")
def _cuts(
    legs: np.ndarray,
    widths: Sequence[int],
    counts: Sequence[int],
    occluder_lists: Sequence[Sequence[Occluder]],
) -> ObstructionTable:
    """Every occluder cut of every leg, each leg with its own set's
    occluders, in one pass.

    ``legs`` holds the legs of every set, set by set and path by path,
    one row each: start, end, start-to-end vector and length.
    ``widths`` gives each path's leg count and ``counts`` each set's,
    and ``occluder_lists`` each set's occluders.  The table lists the
    cuts in (leg, occluder) order, which is path order: per cut its path
    and occluder, numbered over all sets (the occluders over the lists
    joined in order), the leg along the path, chord depth, clearance,
    distance along the leg to the occluder centre and leg length.
    Clearance is the signed distance from the leg to the edge, for a box
    minus half the depth.

    The legs are screened against the union of the lists' occluders (by
    identity): each leg reads the union columns of its set's occluders,
    in its set's order (so a list may name one object twice), padded to
    the longest list with a column no leg meets.  The slab and chord
    formulas then run once over every candidate pair; they act entry by
    entry, so each set's rows and floats are those it gets cut alone.
    """
    members: Dict[int, Occluder] = {}
    for occluders in occluder_lists:
        for occ in occluders:
            members.setdefault(id(occ), occ)
    union_column = {key: column for column, key in enumerate(members)}
    widest = max(map(len, occluder_lists), default=0)
    pad = len(members)
    local = np.array(
        [
            [union_column[id(occ)] for occ in occluders] + [pad] * (widest - len(occluders))
            for occluders in occluder_lists
        ],
        dtype=np.intp,
    ).reshape(len(occluder_lists), widest)
    # Per union occluder, then the padding column, one array each:
    # centre, radius (0 for a box), and the box whose slab test screens
    # it (its ``screen_row``).  Per axis arrays keep every formula below
    # on contiguous one-dimensional operands.
    center_x, center_y, radius, lo_x, lo_y, hi_x, hi_y = np.array(
        [occ.screen_row for occ in members.values()] + [_PAD_ROW]
    ).T.copy()
    starts, ends, lengths = legs[:, 0:2], legs[:, 2:4], legs[:, 6]

    # Bounding boxes first: a leg whose box, padded by BOX_SCREEN_PAD_M,
    # misses the occluder's box cannot pass the slab test, whose
    # rounding stays far inside the pad.  One row per union column, so
    # each compare runs along the legs.
    leg_lo = (np.minimum(starts, ends) - BOX_SCREEN_PAD_M).T.copy()
    leg_hi = (np.maximum(starts, ends) + BOX_SCREEN_PAD_M).T.copy()
    overlap = (leg_lo[0] <= hi_x[:, None]) & (leg_hi[0] >= lo_x[:, None])
    overlap &= (leg_lo[1] <= hi_y[:, None]) & (leg_hi[1] >= lo_y[:, None])
    # Per leg, the union column of each of its set's occluders.
    columns = np.repeat(local, counts, axis=0)
    legs_at = np.arange(len(lengths))[:, None]
    row, k = np.nonzero(np.take(overlap, columns * len(lengths) + legs_at))
    if not row.size:
        return _NO_OBSTRUCTIONS
    member = columns[row, k]
    a_x, a_y = legs[row, 0], legs[row, 1]
    v_x, v_y = legs[row, 4], legs[row, 5]
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
        return _NO_OBSTRUCTIONS
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
    row, k = row[cut], k[cut]

    # Each cut's path and leg along it, and its occluder in the joined
    # lists.
    path_start = np.array(list(accumulate(widths[:-1], initial=0)))
    path = np.searchsorted(path_start, row, side="right") - 1
    if len(occluder_lists) > 1:
        first_occluder = list(accumulate(map(len, occluder_lists[:-1]), initial=0))
        k = k + np.repeat(first_occluder, counts)[row]
    return ObstructionTable(
        path,
        row - path_start[path],
        k,
        depth[cut],
        clearance[cut],
        along[cut],
        length[cut],
    )
