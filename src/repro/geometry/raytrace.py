"""Image-method ray tracer for indoor mmWave propagation.

Produces :class:`PropagationPath` objects — the line-of-sight path and
specular wall reflections up to two bounces — annotated with per-leg
obstruction records.  The tracer is purely geometric: converting
lengths, bounces, and obstructions into dB of loss is the job of
``repro.phy.channel`` and ``repro.phy.blockage``, which keeps the
geometry reusable and independently testable.

Tracing runs on NumPy arrays, every wall chain or leg of a query at
once.  Each array expression keeps the operation order of the scalar
``Vec2`` formula it stands for, and every length that reaches an output
field or a threshold comes from :func:`math.hypot` (``Vec2.norm``'s
rounding, which ``np.hypot`` does not share), so the traced floats are
those of the scalar geometry.

What does not depend on the receiver is kept between queries: the
room's wall table, and per transmitter position the image tree (every
mirror image of TX and its wall sequence).  A query only walks the
bounce points back from its receiver, tests its legs against the walls
and cuts them with the occluders whose bounding boxes they overlap.
"""

from __future__ import annotations

import math
import operator
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.room import Occluder, Room, Wall
from repro.geometry.shapes import EPSILON, Circle
from repro.geometry.vectors import Vec2, bearing_deg

#: How close (meters) two nodes may be before the far-field assumption
#: (and the Friis equation) breaks down.
MIN_SEPARATION_M = 0.05

#: Most image trees a tracer keeps, one per (transmitter position,
#: bounce budget), least recently used dropped first.  Serving traces
#: every multipath query from the AP, so one tree answers nearly all.
MAX_IMAGE_TREES = 8

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


@dataclass(frozen=True)
class PropagationPath:
    """A geometric propagation path from TX to RX.

    ``points`` is the polyline TX, bounce..., RX.  ``walls`` holds the
    wall reflected on at each interior point (empty for LOS).
    ``penetrated_walls`` lists walls the direct path passes *through*
    (interior partitions) — each contributes its material's
    penetration loss, which at mmWave is usually fatal.
    """

    points: Tuple[Vec2, ...]
    walls: Tuple[Wall, ...]
    obstructions: Tuple[Obstruction, ...] = ()
    penetrated_walls: Tuple[Wall, ...] = ()

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a path needs at least TX and RX points")
        if len(self.walls) != len(self.points) - 2:
            raise ValueError("need exactly one wall per interior bounce point")

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
        self._trees: "OrderedDict[Tuple[float, float, int], list]" = OrderedDict()

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
        self._check_separation(tx, rx)
        occluders = (
            list(self.room.occluders) if include_room_occluders else []
        ) + list(extra_occluders)
        return self._trace(tx, rx, 0, occluders)[0]

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
        self._check_separation(tx, rx)
        occluders = list(self.room.occluders) + list(extra_occluders)
        return self._trace(tx, rx, max_bounces, occluders)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_separation(tx: Vec2, rx: Vec2) -> None:
        if tx.distance_to(rx) < MIN_SEPARATION_M:
            raise ValueError(
                f"TX and RX closer than {MIN_SEPARATION_M} m: far-field model invalid"
            )

    def _room_tables(self) -> Tuple[Tuple[Wall, ...], np.ndarray, np.ndarray]:
        """The walls, their table and same-wall mask, rebuilt (and the
        image trees dropped) when ``room.walls`` changed."""
        walls, built = self.room.walls, self._walls
        if (
            built is None
            or len(walls) != len(built)
            or not all(map(operator.is_, walls, built))
        ):
            built = self._walls = tuple(walls)
            # Per wall: start point, start-to-end vector, unit direction.
            self._table = np.array(
                [
                    (s.a.x, s.a.y, s.b.x - s.a.x, s.b.y - s.a.y, *s.direction.as_tuple())
                    for s in (wall.segment for wall in built)
                ],
                dtype=float,
            )
            # same[i, j]: walls i and j are one object.  Row -1, all
            # False, stands for a chain end at TX or RX rather than on a
            # wall.
            ids = np.array([id(wall) for wall in built] + [0])
            self._same = ids[:, None] == ids[:-1]
            self._trees.clear()
        return built, self._table, self._same

    def _image_tree(self, tx: Vec2, max_bounces: int) -> list:
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
        self, tx: Vec2, rx: Vec2, max_bounces: int, occluders: List[Occluder]
    ) -> List[PropagationPath]:
        """The LOS, then every reflection path up to ``max_bounces``.

        Each path is a chain: its wall indices after a leading -1 for
        TX, its points and its leg lengths; the LOS is the chain of no
        walls.  A reflection chain is dropped when a leg crosses any
        wall other than the ones it bounces on; the LOS is kept and
        lists the walls it crosses as penetrated.  Paths come LOS first,
        then by bounce count, then in room wall order.
        """
        walls, table, same = self._room_tables()
        wall_a, wall_r = table[:, 0:2], table[:, 2:4]
        los = np.array([tx.as_tuple(), rx.as_tuple()], dtype=float)
        chains = [([-1], los, np.array([tx.distance_to(rx)]))]
        if max_bounces:
            chains += _reflection_chains(self._image_tree(tx, max_bounces), los)

        # Every leg of every chain, in path order.  A leg touches the
        # walls it bounces on at its ends; those are not crossings.
        leg_chain = [c for c, (seq, _, _) in enumerate(chains) for _ in seq]
        leg_index = [i for seq, _, _ in chains for i in range(len(seq))]
        starts = np.concatenate([points[:-1] for _, points, _ in chains])
        ends = np.concatenate([points[1:] for _, points, _ in chains])
        legs = ends - starts
        lengths = np.concatenate([n for _, _, n in chains])
        touching = np.array(
            [(w, v) for seq, _, _ in chains for w, v in zip(seq, seq[1:] + [-1])]
        )
        meets, t = _intersect(starts[:, None], legs[:, None], wall_a, wall_r)
        leg, wall = np.nonzero(meets & ~(same[touching[:, 0]] | same[touching[:, 1]]))
        if leg.size:
            # Endpoint grazes are ignored: a radio sits against a wall,
            # not inside it.
            t = _clamp(t[leg, wall], 0.0, 1.0)
            hits = starts[leg] + legs[leg] * t[:, None]
            gaps = np.concatenate([hits - starts[leg], hits - ends[leg]])
            through = (_hypot(gaps[:, 0], gaps[:, 1]) > 1e-6).reshape(2, -1).all(axis=0)
            leg, wall = leg[through], wall[through]
        crossings = [(leg_chain[i], w) for i, w in zip(leg.tolist(), wall.tolist())]
        dropped = {c for c, _ in crossings if c != 0}
        penetrated = tuple(walls[w] for c, w in crossings if c == 0)

        records: List[List[Obstruction]] = [[] for _ in chains]
        leg_length = lengths.tolist()
        cuts = _cuts(starts, ends, legs, lengths, occluders)
        for i, k, depth, clearance, along in cuts:
            records[leg_chain[i]].append(
                Obstruction(
                    occluder=occluders[k],
                    leg_index=leg_index[i],
                    depth_m=depth,
                    clearance_m=clearance,
                    along_leg_m=along,
                    leg_length_m=leg_length[i],
                )
            )
        return [
            PropagationPath(
                points=(tx, *(Vec2(x, y) for x, y in points[1:-1].tolist()), rx),
                walls=tuple(walls[w] for w in seq[1:]),
                obstructions=tuple(records[c]),
                penetrated_walls=penetrated if c == 0 else (),
            )
            for c, (seq, points, _) in enumerate(chains)
            if c not in dropped
        ]


def _build_image_tree(
    tx: np.ndarray, max_bounces: int, walls: np.ndarray, same: np.ndarray
) -> list:
    """Every chain of 1 to ``max_bounces`` walls, with its images of TX.

    ``walls`` and ``same`` are the tracer's wall table and same-wall
    mask.  The chains of one more bounce mirror each chain's last image
    of TX across every wall but the one it just bounced on, in wall
    order.  One level per bounce count holds the chains' wall sequences
    (after a leading -1 for TX), their images (TX first), and, from the
    last bounce to the first, each bounce's index with the start and
    start-to-end vector of its wall: all a receiver's walk back along
    the chain reads.
    """
    wall_a, wall_r, wall_d = walls[:, 0:2], walls[:, 2:4], walls[:, 4:6]
    tree = []
    seq, images = np.full((1, 1), -1), tx[None, None]
    for _ in range(max_bounces):
        last = images[:, -1, None]
        ap = last - wall_a
        dot = ap[..., 0] * wall_d[:, 0] + ap[..., 1] * wall_d[:, 1]
        mirrored = last - (ap - wall_d * dot[..., None]) * 2.0
        chain, wall = np.nonzero(~same[seq[:, -1]])
        seq = np.column_stack([seq[chain], wall])
        images = np.concatenate([images[chain], mirrored[chain, wall, None]], axis=1)
        bounces = [
            (j, wall_a[seq[:, j]], wall_r[seq[:, j]])
            for j in range(seq.shape[1] - 1, 0, -1)
        ]
        tree.append((seq, images, bounces))
    return tree


def _reflection_chains(
    tree: list, los: np.ndarray
) -> List[Tuple[List[int], np.ndarray, np.ndarray]]:
    """The chains of an image tree whose bounces exist for ``los``.

    ``los`` holds TX and RX.  Walking back from RX, the line toward each
    image meets its wall at the bounce point.  A chain is dropped when
    its last image sits on RX, a bounce point misses its wall or a leg
    is shorter than the far-field limit.
    """
    src, dst = los
    chains = []
    for seq, images, bounces in tree:
        gap = images[:, -1] - dst
        alive = _hypot(gap[:, 0], gap[:, 1]) >= EPSILON
        points = np.empty((len(seq), seq.shape[1] + 1, 2))
        points[:, 0], points[:, -1] = src, dst
        for j, a, r in bounces:
            meets, t = _intersect(a, r, images[:, j], points[:, j + 1] - images[:, j])
            points[:, j] = a + r * _clamp(t, 0.0, 1.0)[:, None]
            alive &= meets
        legs = points[:, 1:] - points[:, :-1]
        lengths = _hypot(legs[..., 0], legs[..., 1])
        alive &= (lengths >= MIN_SEPARATION_M).all(axis=1)
        chains += zip(seq[alive].tolist(), points[alive], lengths[alive])
    return chains


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.hypot`, the rounding of ``Vec2.norm``."""
    flat = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(flat, dtype=float, count=dx.size).reshape(dx.shape)


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
    does not model.
    """
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    q = p - a
    t = (q[..., 0] * s[..., 1] - q[..., 1] * s[..., 0]) / denom
    u = (q[..., 0] * r[..., 1] - q[..., 1] * r[..., 0]) / denom
    meets = (np.abs(denom) >= EPSILON) & (np.minimum(t, u) >= -EPSILON)
    return meets & (np.maximum(t, u) <= 1.0 + EPSILON), t


def _cuts(
    starts: np.ndarray,
    ends: np.ndarray,
    legs: np.ndarray,
    lengths: np.ndarray,
    occluders: List[Occluder],
) -> List[Tuple[int, int, float, float, float]]:
    """Every occluder cut of every leg, in (leg, occluder) order.

    Legs run from ``starts`` to ``ends`` along ``legs``.  Each cut is
    (leg row, occluder index, chord depth, clearance, distance along the
    leg to the occluder centre); clearance is the signed distance from
    the leg to the edge, for a box minus half the depth.
    """
    if not occluders:
        return []
    # Per occluder: centre, radius (0 for a box), and the box whose slab
    # test screens it.  For a circle that box is a little larger than
    # the circle, so every leg cutting the circle passes it.
    rows = []
    for occ in occluders:
        c = occ.center
        if isinstance(occ, Circle):
            radius, pad = occ.radius, 1.01 * occ.radius
            lo, hi = (c.x - pad, c.y - pad), (c.x + pad, c.y + pad)
        else:
            radius, lo, hi = 0.0, occ.min_corner.as_tuple(), occ.max_corner.as_tuple()
        rows.append((c.x, c.y, radius, *lo, *hi))
    table = np.array(rows, dtype=float)
    # Bounding boxes first: a leg whose box, padded by BOX_SCREEN_PAD_M,
    # misses the occluder's box cannot pass the slab test, whose
    # rounding stays far inside the pad.
    leg_lo = np.minimum(starts, ends) - BOX_SCREEN_PAD_M
    leg_hi = np.maximum(starts, ends) + BOX_SCREEN_PAD_M
    overlap = (leg_lo[:, None] <= table[:, 5:7]) & (leg_hi[:, None] >= table[:, 3:5])
    row, k = np.nonzero(overlap[..., 0] & overlap[..., 1])
    if not row.size:
        return []
    occ, a, v = table[k], starts[row], legs[row]
    # Slab method: per axis, the leg parameters where it enters and
    # leaves the box.  An axis the leg runs parallel to passes (0, 1) if
    # the leg lies between the box's sides on it and (1, 0) if not.
    t = (occ[:, 3:].reshape(-1, 2, 2) - a[:, None]) / v[:, None]
    near, far = t.min(axis=1), t.max(axis=1)
    parallel = np.abs(v) < EPSILON
    beside = (near > 0.0) | (far < 0.0)
    t_min = np.maximum(np.where(parallel, beside, near).max(axis=1), 0.0)
    t_max = np.minimum(np.where(parallel, ~beside, far).min(axis=1), 1.0)
    hit = t_min < t_max
    if not hit.any():
        return []
    row, k, occ, a, v = row[hit], k[hit], occ[hit], a[hit], v[hit]
    length, box_span = lengths[row], (t_max - t_min)[hit]

    # Circle chords of the candidates: distance from the centre to the
    # leg, then the chord at that offset, clipped to the leg.
    center, radius = occ[:, :2], occ[:, 2]
    off = center - a
    dot = off * v
    dot = dot[:, 0] + dot[:, 1]
    norm_sq = v * v
    t = _clamp(dot / (norm_sq[:, 0] + norm_sq[:, 1]), 0.0, 1.0)
    gap = center - (a + v * t[:, None])
    dist = _hypot(gap[:, 0], gap[:, 1])
    center_t = off * (v / length[:, None])
    center_t = center_t[:, 0] + center_t[:, 1]
    half = np.sqrt(radius * radius - dist * dist)
    lo, hi = center_t - half, center_t + half
    chord = np.where(hi < length, hi, length) - np.where(lo > 0.0, lo, 0.0)

    is_circle = radius > 0.0
    depth = np.where(is_circle, np.where(dist < radius, chord, 0.0), box_span * length)
    clearance = np.where(is_circle, dist - radius, -depth / 2.0)
    along = _clamp(dot / length, 0.0, length)
    cut = depth > 0.0
    return list(zip(*(x[cut].tolist() for x in (row, k, depth, clearance, along))))
