"""Brute-force ground truth: exhaustive prudent-polygon enumeration.

A walk on the square lattice is *prudent* when no step points toward an
already occupied vertex (the ray condition).  Its endpoint then always lies
on the boundary of the walk's bounding box, which classifies walks by the
sides the endpoint may touch: north/east (2-sided), north/east/west
(3-sided, with the south-then-lateral exclusion below), or any side
(4-sided).  Side membership is inclusive: corners belong to both adjacent
sides, and a degenerate box puts the endpoint on both opposite sides.  This
is the unique reading that reproduces the area-1 counts 4 / 6 / 8.

A polygon is a walk of length >= 3 ending at a lattice neighbor of the
origin; it is counted once per walk (rooted, oriented) with area = enclosed
unit cells (shoelace).

The 3-sided exclusion: when the box has nonzero width, a south step may not
be followed by a west step while on the east side (or an east step while on
the west side).  At area 1 it removes exactly the two unit-cell walks
E,S,W and W,S,E.

``walk_class="boundary"`` drops the ray condition and keeps only the side
conditions.  For k = 4 this counts every self-avoiding walk whose prefix
endpoints stay on the bounding-box boundary; see the README for why that
non-prudent class matters.
"""

from __future__ import annotations

from dataclasses import dataclass

from .enumeration import CountTable, DomainError

_STEPS = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}


def _delta(step: str) -> tuple[int, int]:
    """The (dx, dy) of a step, or ValueError for a letter that is none."""
    try:
        return _STEPS[step]
    except KeyError:
        raise ValueError(f"unknown step {step!r}") from None


# A generous cap: area n needs a walk of length <= 2n+1 (perimeter <= 2n+2),
# and each area costs about 5x the one before (two more steps).  Measured
# pinned on a 2-core x86-64 host under CPython 3.11, one fresh process per
# call: k = 4 took 0.53 / 2.3 / 11 s at areas 8 / 9 / 10 (x4.5, x4.7), the
# boundary class 0.65 / 3.2 / 17 s (x4.9, x5.3), so area 12 takes about 4
# and 8 minutes (extrapolated).
_MAX_ORACLE_AREA = 12


@dataclass(frozen=True)
class SideMembership:
    """Inclusive side flags of a point relative to a bounding box."""

    on_north: bool
    on_east: bool
    on_west: bool
    on_south: bool

    @staticmethod
    def of(point, box) -> "SideMembership":
        x, y = point
        xmin, xmax, ymin, ymax = box
        return SideMembership(y == ymax, x == xmax, x == xmin, y == ymin)

    def allows(self, k: int) -> bool:
        """The k-sided side condition, k = 2, 3 or 4."""
        if k == 2:
            return self.on_north or self.on_east
        if k == 3:
            return self.on_north or self.on_east or self.on_west
        return self.on_north or self.on_east or self.on_west or self.on_south


class LatticeWalk:
    """A self-avoiding walk: its vertices, occupancy set and bounding box."""

    def __init__(self, steps: str = ""):
        self.vertices: list[tuple[int, int]] = [(0, 0)]
        self.occupied = {(0, 0)}
        self.box = [0, 0, 0, 0]  # xmin, xmax, ymin, ymax
        for s in steps:
            ok = self.push(s)
            if not ok:
                raise ValueError(f"walk revisits a vertex at step {s!r}")

    def end(self) -> tuple[int, int]:
        return self.vertices[-1]

    def push(self, step: str) -> bool:
        """Append a step; returns False (and does nothing) if self-avoidance fails."""
        dx, dy = _delta(step)
        x, y = self.vertices[-1]
        nxt = (x + dx, y + dy)
        if nxt in self.occupied:
            return False
        self.vertices.append(nxt)
        self.occupied.add(nxt)
        b = self.box
        b[0] = min(b[0], nxt[0])
        b[1] = max(b[1], nxt[0])
        b[2] = min(b[2], nxt[1])
        b[3] = max(b[3], nxt[1])
        return True

    def step_is_prudent(self, step: str) -> bool:
        """Ray condition: no occupied vertex anywhere along the step direction.

        Occupied vertices all lie inside the current box, so the scan stops
        at the box boundary.
        """
        dx, dy = _delta(step)
        x, y = self.vertices[-1]
        xmin, xmax, ymin, ymax = self.box
        x += dx
        y += dy
        while xmin <= x <= xmax and ymin <= y <= ymax:
            if (x, y) in self.occupied:
                return False
            x += dx
            y += dy
        return True


@dataclass(frozen=True)
class WalkClassification:
    is_prudent: bool
    sidedness: dict
    excluded_3sided: bool


def classify_walk(steps: str) -> WalkClassification:
    """Replay a walk and classify it.

    ``sidedness[k]`` holds iff every prefix endpoint satisfies the k-sided
    side condition (for k=3, including the exclusion rule).  For a
    non-self-avoiding or imprudent walk, is_prudent is False and the
    sidedness flags are undefined (returned empty).
    """
    if not steps:
        raise ValueError("walk must be nonempty")
    w = LatticeWalk()
    sided = {2: True, 3: True, 4: True}
    excluded = False
    prudent = True
    prev = None
    for s in steps:
        if prudent:
            prudent = w.step_is_prudent(s)
        # 3-sided exclusion is decided from the state *before* the step
        if prev == "S" and w.box[1] > w.box[0]:
            x = w.end()[0]
            if (s == "W" and x == w.box[1]) or (s == "E" and x == w.box[0]):
                excluded = True
        if not w.push(s):
            return WalkClassification(False, {}, False)
        m = SideMembership.of(w.end(), w.box)
        for k in sided:
            if sided[k] and not m.allows(k):
                sided[k] = False
        prev = s
    if not prudent:
        return WalkClassification(False, {}, False)
    sided[3] = sided[3] and not excluded
    return WalkClassification(True, sided, excluded)


def polygon_area(steps: str) -> int:
    """Enclosed unit cells of the closed cycle walk + (end -> origin) edge."""
    w = LatticeWalk(steps)
    x, y = w.end()
    if abs(x) + abs(y) != 1:
        raise ValueError("walk endpoint must be a lattice neighbor of the origin")
    return abs(_shoelace(w.vertices)) // 2


def _shoelace(vertices) -> int:
    s = 0
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        s += x1 * y2 - x2 * y1
    return s


def enumerate_prudent_polygons(
    k: int,
    max_area: int,
    walk_class: str = "prudent",
) -> CountTable:
    """Count k-sided polygons of area 1..max_area by depth-first search.

    The DFS extends walks step by step, pruning by self-avoidance, the
    prudence ray condition (unless ``walk_class="boundary"``), the k-sided
    prefix side condition, the 3-sided exclusion rule and a length bound (a
    walk at (x, y) needs |x|+|y|-1 more steps to end beside the origin).
    Every walk of length >= 3 ending at a neighbor of the origin is tallied
    by area.

    The parent prunes: it applies the length bound to each child before
    the child's ray, exclusion and side tests, tallies a child beside the
    origin itself, and recurses only into a child that can still close.
    No memoisation and no symmetry is used, so every count is independent.

    No node builds or copies a container: the occupied vertices are flags
    in one bytearray grid, with each vertex's |x|+|y| in a second one, the
    box and twice the running shoelace sum are arguments of the recursion,
    and the side condition is compared against the box inline.
    ``classify_walk`` replays the same conditions independently through
    ``LatticeWalk`` and ``SideMembership``.
    """
    if k not in (2, 3, 4):
        raise ValueError("sidedness k must be 2, 3 or 4")
    if walk_class not in ("prudent", "boundary"):
        raise ValueError("walk_class must be 'prudent' or 'boundary'")
    if max_area < 1:
        raise ValueError("max_area must be >= 1")
    if max_area > _MAX_ORACLE_AREA:
        raise DomainError(
            f"max_area {max_area} exceeds the oracle budget "
            f"({_MAX_ORACLE_AREA}); the search is exponential in walk length")
    ray = walk_class == "prudent"
    exclusion = k == 3
    maxlen = 2 * max_area + 1
    tally = [0] * (max_area + 1)
    # vertex (x, y) is flag (x + off) * width + (y + off); a walk stays
    # within maxlen of the origin, and a ray reads flags inside the box only
    off = maxlen + 1
    width = 2 * off + 1
    occupied = bytearray(width * width)
    # |x| + |y| of each vertex, at the same index as its flag
    dist = bytearray(abs(i - off) + abs(j - off)
                     for i in range(width) for j in range(width))
    steps = [(step, dx, dy, dx * width + dy) for step, (dx, dy) in _STEPS.items()]

    def rec(x, y, at, xmin, xmax, ymin, ymax, prev, length, twice_area):
        # Each child is a walk of `length` steps.  One at distance dd from
        # the origin needs dd - 1 more steps to end beside it, so it can
        # close only if dd <= budget; a child beside the origin always can,
        # as no node is entered with length > maxlen.  No box bound is
        # needed: the walk, closed by a Manhattan return to the origin,
        # spans its w x h box, so length + dd >= 2(w + h); a box with
        # w + h - 1 > max_area already fails the budget, as
        # 2(w + h) - 1 >= 2 max_area + 3 > maxlen.
        budget = maxlen + 1 - length
        for step, dx, dy, d in steps:
            nat = at + d
            if occupied[nat]:
                continue
            dd = dist[nat]
            if dd > budget:
                continue
            nx = x + dx
            ny = y + dy
            if ray:
                # the ray from the new vertex meets an occupied one inside
                # the box, where all occupied vertices lie
                rx, ry, rat = nx + dx, ny + dy, nat + d
                while (xmin <= rx <= xmax and ymin <= ry <= ymax
                       and not occupied[rat]):
                    rx += dx
                    ry += dy
                    rat += d
                if xmin <= rx <= xmax and ymin <= ry <= ymax:
                    continue
            if (exclusion and prev == "S" and xmax > xmin
                    and ((step == "W" and x == xmax)
                         or (step == "E" and x == xmin))):
                continue
            nxmin = nx if nx < xmin else xmin
            nxmax = nx if nx > xmax else xmax
            nymin = ny if ny < ymin else ymin
            nymax = ny if ny > ymax else ymax
            # prudent walks always end on their box boundary; check it
            if ray and not (nx == nxmin or nx == nxmax
                            or ny == nymin or ny == nymax):
                raise AssertionError("prudent walk endpoint left the box boundary")
            # the k-sided side condition: north or east, then west, then south
            if not (ny == nymax or nx == nxmax or (k >= 3 and nx == nxmin)
                    or (k == 4 and ny == nymin)):
                continue
            twice = twice_area + x * ny - nx * y
            if dd == 1:
                # a walk beside the origin closes a polygon (of area 0 at
                # length 1); its children lie at distance 2, so it is
                # extended only if it is shorter than maxlen by 2 or more,
                # which by parity (length = dd mod 2) means shorter at all
                area = abs(twice) // 2
                if 1 <= area <= max_area:
                    tally[area] += 1
                if length >= maxlen:
                    continue
            occupied[nat] = 1
            rec(nx, ny, nat, nxmin, nxmax, nymin, nymax, step, length + 1,
                twice)
            occupied[nat] = 0

    origin = off * width + off
    occupied[origin] = 1
    rec(0, 0, origin, 0, 0, 0, 0, None, 1, 0)
    return CountTable(k, tally[1:], "oracle")
