"""Global and local balance of face-colored maps.

A region is a proper nonempty set of faces whose topological boundary is a
disjoint union of simple cycles, each keeping its interior A-colored faces
on the inside.  Local balance demands strictly more A faces than B faces in
every such region, for both alternating colorings.

The local-balance decision takes its verdict from the Hall condition on
the dot graph, one maximum flow, and reads the certificate of a negative
verdict off the flow's witness, so it is polynomial; a cycle has no
corners, hence no dots, and passes vacuously.  The exhaustive region
enumerator :func:`positive_regions` is off every decision path.
"""

from __future__ import annotations

from ._record import Record
from .enrichment import dot_graph, hall_check
from .errors import InvariantViolation, NotBipartiteFaces, SizeLimitExceeded
from .surface_map import (
    COLOR_A,
    COLOR_B,
    CombinatorialMap,
    FaceColoring,
    alternating_coloring,
    check_coloring,
)

DEFAULT_REGION_CAP = 10**6


class GlobalBalance(Record):
    ok: bool
    d: int | None
    reason: str | None = None


class Region(Record):
    """Interior of a positive cobordant multicycle."""

    faces: frozenset[int]
    boundary_edges: frozenset[int]
    boundary_cycles: tuple[tuple[int, ...], ...]
    a_count: int
    b_count: int

    def sorted_faces(self) -> tuple[int, ...]:
        return tuple(sorted(self.faces))


class BalanceReport(Record):
    d: int | None
    globally_balanced: bool
    locally_balanced: bool
    violation: Region | None = None
    violation_on_flipped: bool = False
    reason: str | None = None


def is_globally_balanced(
    m: CombinatorialMap, coloring: FaceColoring | None = None
) -> GlobalBalance:
    """Equal face-color counts, plus the structural sanity checks.

    Structural defects (a loop at a corner, no alternating coloring, a
    corner incident twice to one face) are reported as not balanced with a
    reason rather than raised; the last is read off the map's cached
    ``face_corners`` table, which the dot graphs read too.  A given
    ``coloring`` must pass :func:`~balancedgraphs.surface_map.check_coloring`.
    """
    if coloring is None:
        try:
            coloring = alternating_coloring(m)
        except NotBipartiteFaces:
            return GlobalBalance(False, None, "no alternating face coloring exists")
    else:
        check_coloring(m, coloring.colors)
    if m.has_loops and m.corners:
        return GlobalBalance(False, None, "the graph has a loop")
    v = m.face_corners[1]
    if v is not None:
        return GlobalBalance(False, None, f"corner {v} is incident twice to a face")
    a = coloring.colors.count(COLOR_A)
    b = coloring.colors.count(COLOR_B)
    if a != b:
        return GlobalBalance(False, None, f"{a} A faces versus {b} B faces")
    return GlobalBalance(True, a)


def _face_component(m: CombinatorialMap, faces, start: int) -> set[int]:
    """The faces of ``faces`` reached from ``start`` across shared edges
    without leaving ``faces``."""
    neighbors = m.face_neighbors
    seen = {start}
    stack = [start]
    while stack:
        for g in neighbors[stack.pop()]:
            if g in faces and g not in seen:
                seen.add(g)
                stack.append(g)
    return seen


def region_from_faces(
    m: CombinatorialMap, coloring: FaceColoring, face_set
) -> Region | None:
    """Build the region on ``face_set`` or return None if invariants fail.

    Checks: proper nonempty subset, face-connected through interior edges,
    every boundary edge has its A side inside, and the boundary meets every
    vertex in 0 or 2 edge ends (so it splits into vertex-disjoint simple
    cycles).  Round a vertex, boundary ends alternate between an inside
    dart leaving it and one arriving, so that holds exactly when no two
    inside darts leave one vertex; the one leaving each vertex chains them.
    """
    inside = frozenset(face_set)
    if not inside or len(inside) >= m.face_count:
        return None
    fod, vod = m.face_of_dart, m.vertex_of_dart

    boundary = []
    leaving: dict[int, int] = {}
    for i, (d, e) in enumerate(m.edges):
        fin_d = fod[d] in inside
        if fin_d == (fod[e] in inside):
            continue
        din = d if fin_d else e
        if coloring.color(fod[din]) != COLOR_A:
            return None
        boundary.append(i)
        leaving[vod[din]] = din
    if len(leaving) != len(boundary):
        return None

    # connectivity through interior edges
    if len(_face_component(m, inside, next(iter(inside)))) != len(inside):
        return None

    remaining = set(leaving.values())
    cycles = []
    while remaining:
        d = min(remaining)
        cyc = []
        while d in remaining:
            remaining.discard(d)
            cyc.append(d)
            d = leaving[vod[m.alpha[d]]]
        cycles.append(tuple(cyc))

    a = sum(1 for f in inside if coloring.color(f) == COLOR_A)
    b = len(inside) - a
    return Region(inside, frozenset(boundary), tuple(cycles), a, b)


def _grown_face_sets(m: CombinatorialMap, coloring: FaceColoring):
    """Connected face sets in growth order.

    Each set is grown from its least face, its root, by adding larger
    neighbors, so roots come in increasing order and no set repeats.
    Branches whose boundary exposes a B face inside against a face that
    can no longer be absorbed are pruned.  The growth keeps an explicit
    stack, so set size is not bounded by the recursion limit.
    """
    nf = m.face_count
    neighbors = m.face_neighbors
    is_a = [coloring.color(f) == COLOR_A for f in range(nf)]

    def doomed(root: int, inside: frozenset[int], forbidden: frozenset[int]) -> bool:
        # a B face inside exposes an A-side neighbor that can never be added
        for f in inside:
            if is_a[f]:
                continue
            for g in neighbors[f]:
                if g not in inside and (g < root or g in forbidden):
                    return True
        return False

    for root in range(nf):
        inside = frozenset({root})
        yield inside
        if doomed(root, inside, frozenset()):
            continue
        # frame: faces, extension list, forbidden faces, next index
        stack = [[inside, [g for g in neighbors[root] if g > root], frozenset(), 0]]
        while stack:
            frame = stack[-1]
            inside, ext, forbidden, i = frame
            if i == len(ext):
                stack.pop()
                continue
            v = ext[i]
            rest = ext[i + 1 :]
            present = inside | set(rest) | forbidden | {v}
            extra = [w for w in neighbors[v] if w > root and w not in present]
            child = inside | {v}
            frame[2] = forbidden | {v}
            frame[3] = i + 1
            yield child
            if not doomed(root, child, forbidden):
                stack.append([child, rest + extra, forbidden, 0])


def positive_regions(m: CombinatorialMap, coloring: FaceColoring) -> list[Region]:
    """All regions, in sorted face-set order.

    Enumerates connected face subsets by growth, pruning branches whose
    boundary exposes a B face inside against an A face that can no longer
    be absorbed, so it is exponential in the face count.  Raises
    :class:`SizeLimitExceeded` past ``DEFAULT_REGION_CAP`` regions.
    """
    found: list[Region] = []
    for inside in _grown_face_sets(m, coloring):
        region = region_from_faces(m, coloring, inside)
        if region is not None:
            found.append(region)
            if len(found) > DEFAULT_REGION_CAP:
                raise SizeLimitExceeded(f"more than {DEFAULT_REGION_CAP} regions")
    found.sort(key=lambda r: r.sorted_faces())
    return found


def _witness_region(
    m: CombinatorialMap,
    coloring: FaceColoring,
    witness: tuple[int, ...],
) -> Region | None:
    """A region with at most as many A as B faces around the Hall witness.

    The witness B faces and their edge-adjacent faces are split into
    face-connected components; the first, in order of least face, that is
    a region with ``a_count <= b_count`` is returned, or None if no
    component is one.
    """
    neighbors = m.face_neighbors
    around = set(witness)
    for f in witness:
        around.update(neighbors[f])
    placed: set[int] = set()
    for start in sorted(around):
        if start in placed:
            continue
        component = _face_component(m, around, start)
        placed |= component
        region = region_from_faces(m, coloring, component)
        if region is not None and region.a_count <= region.b_count:
            return region
    return None


def is_locally_balanced(
    m: CombinatorialMap, coloring: FaceColoring | None = None
) -> BalanceReport:
    """Full balance report; checks both alternating colorings.

    A globally balanced map is locally balanced exactly when its dot graph
    has a perfect matching, so the verdict comes from the maximum flow of
    :func:`~balancedgraphs.enrichment.hall_check`.  On failure the
    certificate is read off the Hall witness (see :func:`_witness_region`):
    on the given coloring if its witness bounds a violating region, else
    on the flipped coloring's witness.  No regions are enumerated.  Raises
    :class:`InvariantViolation` if neither witness yields a region.
    """
    gb = is_globally_balanced(m, coloring)
    if not gb.ok:
        return BalanceReport(None, False, False, reason=gb.reason)
    if coloring is None:
        coloring = alternating_coloring(m)
    hall = hall_check(dot_graph(m, coloring))
    if hall.ok:
        return BalanceReport(gb.d, True, True)
    for flipped, col in ((False, coloring), (True, coloring.flip())):
        if flipped:
            # the dot totals of the two colors agree, so Hall fails here too
            hall = hall_check(dot_graph(m, col))
        region = _witness_region(m, col, hall.witness)
        if region is not None:
            return BalanceReport(
                gb.d,
                True,
                False,
                violation=region,
                violation_on_flipped=flipped,
                reason=(
                    f"region with {region.a_count} A faces and "
                    f"{region.b_count} B faces"
                ),
            )
    raise InvariantViolation(
        "the Hall condition fails but no witness bounds a violating region"
    )


def corner_bound_holds(m: CombinatorialMap, d: int) -> bool:
    """Corner count at most 2(g + d - 1), for a globally balanced map whose
    colors each hold d faces."""
    return len(m.corners) <= 2 * (m.genus() + d - 1)


def corner_bound_check(m: CombinatorialMap) -> bool:
    """Corner count at most 2(g + d - 1) on a globally balanced map."""
    gb = is_globally_balanced(m)
    if not gb.ok:
        raise InvariantViolation(f"map is not globally balanced: {gb.reason}")
    return corner_bound_holds(m, gb.d)
