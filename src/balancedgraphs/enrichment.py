"""Dot graphs, the Hall condition, perfect matchings, and enrichment.

Each face receives ``m - e_F`` dots, where ``m`` is the total corner count
and ``e_F`` the number of corners on the face.  Dots in A faces may be
matched with dots in edge-adjacent B faces; a perfect matching turns into
2-valent vertices subdividing shared edges, after which every face carries
exactly ``m`` vertices.  Dots of one face are interchangeable, so the
layer works on faces: a dot count per face, a Hall witness of B faces, and
a matching as dot counts per (A face, B face) pair, all from one maximum
flow that decides the Hall condition and, when it holds, gives a matching.
"""

from __future__ import annotations

from ._record import Record
from .errors import InvariantViolation, NoPerfectMatching
from .surface_map import (
    COLOR_A,
    COLOR_B,
    CombinatorialMap,
    FaceColoring,
    is_id,
    subdivide_edges,
)

Dot = tuple[int, int]


class DotGraph(Record):
    """``dot_counts[f]`` dots on face ``f``; the A and B faces carrying
    dots; and for each face, the faces sharing an edge with it."""

    m: int
    dot_counts: tuple[int, ...]
    a_faces: tuple[int, ...]
    b_faces: tuple[int, ...]
    face_neighbors: tuple[tuple[int, ...], ...]

    # every dot as (face, index); the layer itself never lists dots
    @property
    def dots_a(self) -> tuple[Dot, ...]:
        return tuple([(f, i) for f in self.a_faces for i in range(self.dot_counts[f])])

    @property
    def dots_b(self) -> tuple[Dot, ...]:
        return tuple([(f, i) for f in self.b_faces for i in range(self.dot_counts[f])])


class HallResult(Record):
    """The verdict, and on failure the sorted B faces of the Hall witness."""

    ok: bool
    witness: tuple[int, ...] = ()


class DotMatching(Record):
    """How many dots each ``(A face, B face)`` pair matches."""

    counts: dict[tuple[int, int], int]


def dot_graph(m: CombinatorialMap, coloring: FaceColoring) -> DotGraph:
    """Dot graph of a globally balanced map.

    The counts assume the input carries no 2-valent vertices yet; those
    are exactly what enrichment inserts afterwards.  Without corners,
    every face gets 0 dots, so the Hall condition holds vacuously and the
    matching is empty.  A globally balanced map never has exactly one
    corner: every face would pass it once, giving 2k faces for valence
    2k >= 4 and Euler characteristic 1 + k > 2.  Both colorings read the
    corners on each face off the map's cached ``face_corners`` table.
    """
    total = len(m.corners)
    counts = tuple([total - k for k in m.face_corners[0]])
    a, b = (tuple([f for f in coloring.faces_of(c) if counts[f]]) for c in (COLOR_A, COLOR_B))
    return DotGraph(total, counts, a, b, m.face_neighbors)


def _hall_flow(dg: DotGraph) -> tuple[tuple[int, ...], list[dict[int, int]]]:
    """Maximum flow from B faces to edge-adjacent A faces, dot counts as
    capacities; returns the B faces of the Hall witness, () if there is
    none, and the flow as ``inflow[A face][B face]``, a list indexed by
    face whose other rows stay empty.

    Dots of one face share their neighborhood, so this flow saturates
    every B face exactly when the dot graph matches every B dot.  Paths
    are found breadth-first from all B faces with supply left at once
    (Edmonds-Karp), in the order of ``b_faces``, and each row of
    ``inflow`` is searched in the order its B faces entered it.  A round
    expands every B face with supply before any other face, so it takes a
    path of one edge while there is one; one pass over ``b_faces`` sends
    along those paths in the order the rounds would, without a search.
    When no path remains, the B faces reachable in the residual graph from
    unsent supply form the witness: by Dulmage-Mendelsohn they carry
    exactly the B dots an alternating search from the unmatched dots of
    any maximum matching reaches.
    """
    counts, b_faces = dg.dot_counts, dg.b_faces
    n = len(counts)
    room = [0] * n
    for g in dg.a_faces:
        room[g] = counts[g]
    supply = [0] * n
    out: list = [()] * n
    for f in b_faces:
        supply[f] = counts[f]
        out[f] = [g for g in dg.face_neighbors[f] if room[g]]
    inflow: list[dict[int, int]] = [{} for _ in range(n)]
    # room never grows, so after this pass the rounds find longer paths only
    for f in b_faces:
        for g in out[f]:
            if room[g]:
                amount = min(supply[f], room[g])
                supply[f] -= amount
                room[g] -= amount
                inflow[g][f] = amount
                if not supply[f]:
                    break
    while True:
        parent = [-2] * n  # -2 unreached, -1 a root
        queue = [f for f in b_faces if supply[f]]
        for f in queue:
            parent[f] = -1
        end = -1
        for f in queue:  # the loop reaches the faces appended on the way
            for g in out[f]:
                if parent[g] != -2:
                    continue
                parent[g] = f
                if room[g]:
                    end = g
                    break
                for h in inflow[g]:
                    if parent[h] == -2:
                        parent[h] = g
                        queue.append(h)
            if end >= 0:
                break
        if end < 0:
            return tuple(sorted([f for f in b_faces if parent[f] != -2])), inflow
        path = [end]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        path.reverse()  # B, A, B, A, ..., A
        amount = min(supply[path[0]], room[end])
        for i in range(1, len(path) - 1, 2):
            amount = min(amount, inflow[path[i]][path[i + 1]])
        supply[path[0]] -= amount
        room[end] -= amount
        for i in range(0, len(path), 2):
            b, a = path[i], path[i + 1]
            inflow[a][b] = inflow[a].get(b, 0) + amount
            if i:
                back = inflow[path[i - 1]]
                back[b] -= amount
                if not back[b]:
                    del back[b]


def hall_check(dg: DotGraph) -> HallResult:
    """Whether every set of B dots has at least as many A neighbors.

    Decided by a maximum flow on faces; on failure the witness is the B
    faces that unsent supply reaches in the residual graph, whose dots
    have a strictly smaller neighborhood.
    """
    faces, _ = _hall_flow(dg)
    return HallResult(not faces, faces)


def perfect_matching(dg: DotGraph) -> DotMatching:
    """A perfect matching, read off the Hall flow as face-pair counts.

    Dots within a face are interchangeable, so the counts fix the
    enriched map.  Raises :class:`NoPerfectMatching` with the Hall
    witness of :func:`hall_check` when none exists.
    """
    a_total, b_total = (sum(dg.dot_counts[f] for f in fs) for fs in (dg.a_faces, dg.b_faces))
    if a_total != b_total:
        raise NoPerfectMatching(f"{a_total} A dots versus {b_total} B dots")
    faces, inflow = _hall_flow(dg)
    if faces:
        raise NoPerfectMatching("Hall condition fails", witness=faces)
    return DotMatching({(a, b): k for a in dg.a_faces for b, k in inflow[a].items()})


def enrich(m: CombinatorialMap, matching: DotMatching) -> CombinatorialMap:
    """Insert one 2-valent vertex per matched dot pair.

    The pairs of one face pair are spread round-robin over the edges the
    two faces share, in edge-id order.  Old dart, vertex and face ids
    survive, and several pairs may subdivide the same edge.  Raises
    :class:`InvariantViolation` on counts not a dict, a key not a pair of
    face ids (:func:`~balancedgraphs.surface_map.is_id`), a count not an
    integer >= 0, and a pair of faces that share no edge.
    """
    if not isinstance(matching.counts, dict):
        raise InvariantViolation(f"matching counts {matching.counts!r} are not a dict")
    if not matching.counts:
        return m
    fod, n = m.face_of_dart, m.face_count
    shared: dict[tuple[int, int], list[int]] = {}
    for edge_id, (d, e) in enumerate(m.edges):
        shared.setdefault(tuple(sorted((fod[d], fod[e]))), []).append(edge_id)
    counts: dict[int, int] = {}
    for pair, k in matching.counts.items():
        if type(pair) is not tuple or len(pair) != 2 or not all(is_id(f, n) for f in pair):
            raise InvariantViolation(f"{pair!r} is not a pair of face ids")
        if type(k) is not int or k < 0:
            raise InvariantViolation(f"count {k!r} of faces {pair} is not an integer >= 0")
        hosts = shared.get(tuple(sorted(pair)))
        if hosts is None:
            raise InvariantViolation(f"faces {pair} share no edge")
        q, r = divmod(k, len(hosts))
        for j, edge_id in enumerate(hosts):
            counts[edge_id] = q + (j < r)
    return subdivide_edges(m, counts)
