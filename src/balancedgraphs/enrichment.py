"""Dot graphs, the Hall condition, perfect matchings, and enrichment.

Each face receives ``m - e_F`` dots, where ``m`` is the total corner count
and ``e_F`` the number of corners on the face.  Dots in A faces may be
matched with dots in edge-adjacent B faces; a perfect matching turns into
2-valent vertices subdividing shared edges, after which every face carries
exactly ``m`` vertices.  One maximum flow on faces decides the Hall
condition and, when it holds, gives the perfect matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NegativeDotCount, NoPerfectMatching, TooFewCorners
from .surface_map import (
    COLOR_A,
    COLOR_B,
    CombinatorialMap,
    FaceColoring,
    face_adjacency,
    subdivide_edges,
)

Dot = tuple[int, int]


@dataclass(frozen=True)
class DotGraph:
    m: int
    dot_counts: tuple[int, ...]
    dots_a: tuple[Dot, ...]
    dots_b: tuple[Dot, ...]
    # collapsed adjacency between faces, and the shared edges per face pair
    face_neighbors: tuple[tuple[int, ...], ...]
    shared_edges: dict[tuple[int, int], tuple[int, ...]]


@dataclass(frozen=True)
class HallResult:
    ok: bool
    witness: tuple[Dot, ...] = ()

    def witness_faces(self) -> tuple[int, ...]:
        return tuple(sorted({face for face, _ in self.witness}))


@dataclass(frozen=True)
class DotMatching:
    pairs: tuple[tuple[Dot, Dot, int], ...]


def dot_graph(m: CombinatorialMap, coloring: FaceColoring) -> DotGraph:
    """Dot graph of a globally balanced map with at least 2 corners.

    The counts assume the input carries no 2-valent vertices yet; those
    are exactly what enrichment inserts afterwards.  Raises
    :class:`TooFewCorners` below 2 corners.
    """
    corners = set(m.corners)
    total = len(corners)
    if total < 2:
        raise TooFewCorners(f"need at least 2 corners, found {total}")
    vod = m.vertex_of_dart
    counts = []
    for face in m.faces:
        e_f = len({vod[d] for d in face} & corners)
        if e_f > total:
            raise NegativeDotCount(f"face has {e_f} corners but only {total} exist")
        counts.append(total - e_f)
    dots_a = tuple(
        (f, i) for f in coloring.faces_of(COLOR_A) for i in range(counts[f])
    )
    dots_b = tuple(
        (f, i) for f in coloring.faces_of(COLOR_B) for i in range(counts[f])
    )
    shared: dict[tuple[int, int], list[int]] = {}
    neighbor_sets: list[set[int]] = [set() for _ in range(m.face_count)]
    for f, g, edge_id in face_adjacency(m):
        if f == g:
            continue
        key = (min(f, g), max(f, g))
        shared.setdefault(key, []).append(edge_id)
        neighbor_sets[f].add(g)
        neighbor_sets[g].add(f)
    return DotGraph(
        total,
        tuple(counts),
        dots_a,
        dots_b,
        tuple(tuple(sorted(s)) for s in neighbor_sets),
        {k: tuple(sorted(v)) for k, v in shared.items()},
    )


def _hall_flow(dg: DotGraph) -> tuple[tuple[int, ...], dict[int, dict[int, int]]]:
    """Maximum flow from B faces to edge-adjacent A faces, dot counts as
    capacities; returns the B faces of the Hall witness, () if there is
    none, and the flow as ``inflow[A face][B face]``.

    Dots of one face share their neighborhood, so this flow saturates
    every B face exactly when the dot graph matches every B dot.  Paths
    are found breadth-first from all B faces with supply left at once
    (Edmonds-Karp).  When none remains, the B faces reachable in the
    residual graph from unsent supply form the witness: by
    Dulmage-Mendelsohn they carry exactly the B dots an alternating
    search from the unmatched dots of any maximum matching reaches.
    """
    supply = {f: dg.dot_counts[f] for f, _ in dg.dots_b}
    room = {g: dg.dot_counts[g] for g, _ in dg.dots_a}
    out = {f: [g for g in dg.face_neighbors[f] if g in room] for f in supply}
    inflow: dict[int, dict[int, int]] = {g: {} for g in room}
    while True:
        parent: dict[int, int | None] = {f: None for f, s in supply.items() if s}
        queue = deque(parent)
        end = None
        while queue and end is None:
            f = queue.popleft()
            for g in out[f]:
                if g in parent:
                    continue
                parent[g] = f
                if room[g]:
                    end = g
                    break
                for h in inflow[g]:
                    if h not in parent:
                        parent[h] = g
                        queue.append(h)
        if end is None:
            return tuple(sorted(f for f in parent if f in supply)), inflow
        path = [end]
        while parent[path[-1]] is not None:
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


def _witness(dg: DotGraph, faces: tuple[int, ...]) -> tuple[Dot, ...]:
    return tuple((f, i) for f in faces for i in range(dg.dot_counts[f]))


def hall_check(dg: DotGraph) -> HallResult:
    """Whether every set of B dots has at least as many A neighbors.

    Decided by a maximum flow on faces; on failure the witness is a set
    of B dots with a strictly smaller neighborhood: every dot of the B
    faces that unsent supply reaches in the residual graph.
    """
    faces, _ = _hall_flow(dg)
    if not faces:
        return HallResult(True)
    return HallResult(False, _witness(dg, faces))


def _matching_from_counts(
    dg: DotGraph, counts: dict[tuple[int, int], int]
) -> DotMatching:
    """The matching pairing ``counts[A face, B face]`` dots of each face pair.

    Dots are numbered in sorted (A face, B face) order, and the pairs of
    one face pair are spread round-robin over the edges it shares.
    """
    next_dot: dict[int, int] = {}
    pairs = []
    for (f, g), k in sorted(counts.items()):
        hosts = dg.shared_edges[(min(f, g), max(f, g))]
        for t in range(k):
            a, b = next_dot.get(f, 0), next_dot.get(g, 0)
            next_dot[f], next_dot[g] = a + 1, b + 1
            pairs.append(((f, a), (g, b), hosts[t % len(hosts)]))
    pairs.sort()
    return DotMatching(tuple(pairs))


def perfect_matching(dg: DotGraph) -> DotMatching:
    """A perfect matching with host edges, read off the Hall flow.

    Dots within a face are interchangeable, so the flow's pair counts
    fix the enriched map; :func:`_matching_from_counts` turns them into
    dots and host edges.  Raises :class:`NoPerfectMatching` with the
    Hall witness of :func:`hall_check` when none exists.
    """
    if len(dg.dots_a) != len(dg.dots_b):
        raise NoPerfectMatching(
            f"{len(dg.dots_a)} A dots versus {len(dg.dots_b)} B dots"
        )
    faces, inflow = _hall_flow(dg)
    if faces:
        raise NoPerfectMatching("Hall condition fails", witness=_witness(dg, faces))
    return _matching_from_counts(
        dg, {(a, b): k for a, row in inflow.items() for b, k in row.items()}
    )


def iter_perfect_matchings(dg: DotGraph):
    """Yield one perfect matching per distinct pair-count matrix.

    Dots within a face are interchangeable, so two matchings produce the
    same enriched map exactly when they pair the same number of dots
    between each face pair; each matrix becomes a matching the way
    :func:`perfect_matching` turns the Hall flow into one.  Deterministic
    order.
    """
    a_faces = sorted({f for f, _ in dg.dots_a})
    b_remaining = {}
    for f, _ in dg.dots_b:
        b_remaining[f] = b_remaining.get(f, 0) + 1
    counts = dg.dot_counts

    def distribute(i: int, allocation: dict[tuple[int, int], int]):
        if i == len(a_faces):
            if all(v == 0 for v in b_remaining.values()):
                yield dict(allocation)
            return
        f = a_faces[i]
        targets = [g for g in dg.face_neighbors[f] if b_remaining.get(g, 0) > 0]

        def split(need: int, t: int):
            if t == len(targets):
                if need == 0:
                    yield from distribute(i + 1, allocation)
                return
            g = targets[t]
            top = min(need, b_remaining[g])
            for take in range(top + 1):
                if take:
                    allocation[(f, g)] = take
                    b_remaining[g] -= take
                yield from split(need - take, t + 1)
                if take:
                    del allocation[(f, g)]
                    b_remaining[g] += take

        yield from split(counts[f], 0)

    for allocation in distribute(0, {}):
        yield _matching_from_counts(dg, allocation)


def enrich(m: CombinatorialMap, matching: DotMatching) -> CombinatorialMap:
    """Insert one 2-valent vertex per matched pair on its host edge.

    Old dart, vertex and face ids survive; each pair adds one vertex, and
    several pairs may subdivide the same edge.
    """
    counts: dict[int, int] = {}
    for _, _, edge_id in matching.pairs:
        counts[edge_id] = counts.get(edge_id, 0) + 1
    if not counts:
        return m
    return subdivide_edges(m, counts)
