"""Combinatorial maps: cell graphs on closed oriented surfaces.

A map is stored as a rotation system on darts (half-edges) 0..2E-1:

* ``alpha`` pairs the two darts of each edge (fixed-point-free involution),
* ``sigma`` is the counterclockwise successor around each vertex.

Vertices are the orbits of ``sigma``, edges the orbits of ``alpha`` and
faces the orbits of ``phi`` where ``phi(d) = sigma(alpha(d))``.  Traversing
a face cycle keeps that face on the left of each dart.  The Euler count
``V - E + F = 2 - 2g`` recovers the genus of the underlying surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._documents import dump, is_int_list, load
from .errors import (
    BadPermutation,
    Disconnected,
    InvariantViolation,
    NonIntegerGenus,
    NotBipartiteFaces,
    NotInvolution,
    ParseError,
)
from .permutations import (
    Perm,
    canonical_relabeling,
    check_permutation,
    conjugate,
    cycles,
    is_int,
    is_transitive,
)

COLOR_A = "A"
COLOR_B = "B"


class CombinatorialMap:
    """An immutable rotation system.

    ``alpha`` and ``sigma`` are permutations of ``0..dart_count-1`` in
    one-line notation.  ``alpha`` must be an involution without fixed
    points and the pair must act transitively (the cell graph fills a
    connected surface).
    """

    def __init__(self, alpha, sigma, check: bool = True):
        alpha = tuple(alpha)
        sigma = tuple(sigma)
        if check:
            n = len(alpha)
            if n == 0 or n % 2 != 0:
                raise BadPermutation("dart count must be positive and even")
            alpha = check_permutation(alpha, n)
            sigma = check_permutation(sigma, n)
            for d in range(n):
                if alpha[d] == d:
                    raise NotInvolution(f"alpha fixes dart {d}")
                if alpha[alpha[d]] != d:
                    raise NotInvolution(f"alpha is not an involution at dart {d}")
            if not is_transitive((alpha, sigma), n):
                raise Disconnected("the darts are not connected under alpha and sigma")
        self._alpha = alpha
        self._sigma = sigma

    @property
    def alpha(self) -> Perm:
        return self._alpha

    @property
    def sigma(self) -> Perm:
        return self._sigma

    @property
    def dart_count(self) -> int:
        return len(self._alpha)

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return cycles(self._sigma)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        phi = tuple([self._sigma[self._alpha[d]] for d in range(self.dart_count)])
        return cycles(phi)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([
            (d, self._alpha[d]) for d in range(self.dart_count) if d < self._alpha[d]
        ])

    @cached_property
    def vertex_of_dart(self) -> tuple[int, ...]:
        return _index_of(self.vertices, self.dart_count)

    @cached_property
    def face_of_dart(self) -> tuple[int, ...]:
        return _index_of(self.faces, self.dart_count)

    @cached_property
    def edge_of_dart(self) -> tuple[int, ...]:
        out = [0] * self.dart_count
        for i, (d, e) in enumerate(self.edges):
            out[d] = out[e] = i
        return tuple(out)

    @cached_property
    def face_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """For each face, the other faces sharing an edge with it, sorted."""
        fod = self.face_of_dart
        out: list[set[int]] = [set() for _ in range(self.face_count)]
        for d, e in self.edges:
            f, g = fod[d], fod[e]
            if f != g:
                out[f].add(g)
                out[g].add(f)
        return tuple([tuple(sorted(s)) for s in out])

    @cached_property
    def _alternating_coloring(self) -> "FaceColoring":
        # a cached_property stores no value when its body raises
        fod = self.face_of_dart
        if any(fod[d] == fod[e] for d, e in self.edges):
            raise NotBipartiteFaces("adjacent faces cannot be colored differently")
        colors = [None] * self.face_count
        start = fod[0]
        colors[start] = COLOR_A
        queue = [start]
        while queue:
            f = queue.pop()
            other = COLOR_B if colors[f] == COLOR_A else COLOR_A
            for g in self.face_neighbors[f]:
                if colors[g] is None:
                    colors[g] = other
                    queue.append(g)
                elif colors[g] == colors[f]:
                    raise NotBipartiteFaces("adjacent faces cannot be colored differently")
        # the map is connected, so every face was reached
        return FaceColoring(tuple(colors))

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return self.dart_count // 2

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @cached_property
    def vertex_valences(self) -> tuple[int, ...]:
        return tuple([len(v) for v in self.vertices])

    @cached_property
    def corners(self) -> tuple[int, ...]:
        """Vertex ids of valence greater than 2."""
        return tuple([i for i, v in enumerate(self.vertices) if len(v) > 2])

    @cached_property
    def has_loops(self) -> bool:
        vod = self.vertex_of_dart
        return any(vod[d] == vod[e] for d, e in self.edges)

    def genus(self) -> int:
        chi = self.vertex_count - self.edge_count + self.face_count
        if chi % 2 != 0 or chi > 2:
            raise NonIntegerGenus(f"Euler characteristic {chi} is not 2 - 2g with g >= 0")
        return (2 - chi) // 2

    def relabel(self, dart_map) -> "CombinatorialMap":
        """Apply a dart relabeling: dart d becomes dart_map[d]."""
        perm = check_permutation(tuple(dart_map), self.dart_count)
        alpha, sigma = conjugate((self._alpha, self._sigma), perm)
        return CombinatorialMap(alpha, sigma, check=False)

    @cached_property
    def _canonical(self) -> tuple["CombinatorialMap", tuple[int, ...]]:
        n = self.dart_count
        (alpha, sigma), dart_map = canonical_relabeling(
            (self._alpha, self._sigma), n, range(n)
        )
        return CombinatorialMap(alpha, sigma, check=False), dart_map

    def canonical(self) -> "CombinatorialMap":
        """The canonical representative of the isomorphism class."""
        return self._canonical[0]

    def canonical_dart_map(self) -> tuple[int, ...]:
        """Relabeling sending this map onto :meth:`canonical`."""
        return self._canonical[1]

    def canonical_key(self) -> tuple[Perm, Perm]:
        canon = self.canonical()
        return (canon.alpha, canon.sigma)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CombinatorialMap)
            and self._alpha == other._alpha
            and self._sigma == other._sigma
        )

    def __hash__(self) -> int:
        return hash((self._alpha, self._sigma))

    def __repr__(self) -> str:
        return f"CombinatorialMap(alpha={list(self._alpha)}, sigma={list(self._sigma)})"


def _index_of(orbits, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i, orbit in enumerate(orbits):
        for d in orbit:
            out[d] = i
    return tuple(out)


def build_map(dart_count: int, alpha, sigma) -> CombinatorialMap:
    """Validate and build a map from its dart count and permutations."""
    alpha = tuple(alpha)
    sigma = tuple(sigma)
    if len(alpha) != dart_count or len(sigma) != dart_count:
        raise BadPermutation("alpha and sigma must have length dart_count")
    return CombinatorialMap(alpha, sigma)


@dataclass(frozen=True)
class FaceColoring:
    """A proper two-coloring of the faces, values ``"A"`` and ``"B"``."""

    colors: tuple[str, ...]

    def color(self, face_id: int) -> str:
        return self.colors[face_id]

    def flip(self) -> "FaceColoring":
        return FaceColoring(
            tuple([COLOR_B if c == COLOR_A else COLOR_A for c in self.colors])
        )

    def faces_of(self, color: str) -> tuple[int, ...]:
        return tuple([i for i, c in enumerate(self.colors) if c == color])


def face_adjacency(m: CombinatorialMap) -> tuple[tuple[int, int, int], ...]:
    """Dual multigraph: one arc ``(face, face, edge_id)`` per edge of ``m``.

    Parallel arcs are preserved; they matter when several edges separate
    the same pair of faces.
    """
    fod = m.face_of_dart
    return tuple([(fod[d], fod[e], i) for i, (d, e) in enumerate(m.edges)])


def alternating_coloring(m: CombinatorialMap) -> FaceColoring:
    """The alternating face coloring with the face left of dart 0 colored A.

    Raises :class:`NotBipartiteFaces` when the face adjacency graph has an
    odd cycle.  The only other proper coloring is the flip of this one.
    The coloring is computed once per map and the same object returned
    on every later call; a failure is raised again on every call.
    """
    return m._alternating_coloring


def are_isomorphic(m1: CombinatorialMap, m2: CombinatorialMap) -> bool:
    """Whether a dart relabeling commuting with sigma and alpha exists."""
    if m1.dart_count != m2.dart_count:
        return False
    return m1.canonical_key() == m2.canonical_key()


def subdivide_edges(m: CombinatorialMap, counts: dict[int, int]) -> CombinatorialMap:
    """Insert ``counts[edge_id]`` 2-valent vertices on each listed edge.

    Old darts keep their ids; new darts are appended, so old vertex and
    face ids are preserved.
    """
    alpha = list(m.alpha)
    sigma = list(m.sigma)
    for edge_id in sorted(counts):
        k = counts[edge_id]
        if k <= 0:
            continue
        d0, d1 = m.edges[edge_id]
        # chain d0 -- x_1 -- ... -- x_k -- d1; each x_i contributes darts p, q
        prev = d0
        for _ in range(k):
            p = len(alpha)
            q = p + 1
            alpha.extend([0, 0])
            sigma.extend([q, p])
            alpha[prev] = p
            alpha[p] = prev
            prev = q
        alpha[prev] = d1
        alpha[d1] = prev
    return CombinatorialMap(alpha, sigma)


def splice(m: CombinatorialMap, vertices) -> tuple[CombinatorialMap, dict[int, int]]:
    """Remove the given 2-valent vertices, merging the two edges at each.

    Surviving darts keep their order; ``dense`` sends each to its new id.
    Raises :class:`InvariantViolation` on a vertex of another valence and
    when nothing survives (the vertices form a closed cycle).
    """
    removed = set()
    for v in vertices:
        if len(m.vertices[v]) != 2:
            raise InvariantViolation(f"vertex {v} is not 2-valent")
        removed.update(m.vertices[v])
    kept = [d for d in range(m.dart_count) if d not in removed]
    if not kept:
        raise InvariantViolation("the spliced vertices form a closed cycle")
    dense = {d: i for i, d in enumerate(kept)}

    def partner(d: int) -> int:
        # cross the edge, then pass through each spliced vertex on the way
        e = m.alpha[d]
        while e in removed:
            e = m.alpha[m.sigma[e]]
        return dense[e]

    alpha = [partner(d) for d in kept]
    sigma = [dense[m.sigma[d]] for d in kept]
    return CombinatorialMap(alpha, sigma), dense


@dataclass(frozen=True)
class MapDocument:
    """A deserialized map together with its optional decorations."""

    map: CombinatorialMap
    labels: tuple[int, ...] | None = None
    colors: FaceColoring | None = None
    real_cycle: tuple[int, ...] | None = None


def real_cycle_order(m: CombinatorialMap, real_cycle) -> list[int] | None:
    """The vertices the real cycle passes, in its order.

    None unless ``m`` is planar and ``real_cycle`` is a closed walk of
    darts through every vertex once: the edge of each dart ends at the
    vertex of the next, the last dart's at the first's.
    """
    if m.genus() != 0 or not real_cycle:
        return None
    vod = m.vertex_of_dart
    order = [vod[d] for d in real_cycle]
    if sorted(order) != list(range(m.vertex_count)):
        return None
    if [vod[m.alpha[d]] for d in real_cycle] != order[1:] + order[:1]:
        return None
    return order


def serialize(
    m: CombinatorialMap,
    labels=None,
    coloring: FaceColoring | None = None,
    real_cycle=None,
) -> str:
    """Canonical text document for ``m`` and optional decorations.

    The map is put into canonical form first, so serialization is stable
    across runs and across isomorphic dart labelings of the same input.
    ``labels`` is a per-vertex array (vertex ids in canonical order) and
    ``colors`` a per-face array.
    """
    canon = m.canonical()
    dart_map = m.canonical_dart_map()
    doc: dict = {
        "darts": canon.dart_count,
        "alpha": list(canon.alpha),
        "sigma": list(canon.sigma),
    }
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != m.vertex_count:
            raise InvariantViolation("labels must list one value per vertex")
        new_labels = [0] * canon.vertex_count
        for old_v, orbit in enumerate(m.vertices):
            new_v = canon.vertex_of_dart[dart_map[orbit[0]]]
            new_labels[new_v] = labels[old_v]
        doc["labels"] = new_labels
    if coloring is not None:
        if len(coloring.colors) != m.face_count:
            raise InvariantViolation("colors must list one value per face")
        new_colors = [""] * canon.face_count
        for old_f, orbit in enumerate(m.faces):
            new_f = canon.face_of_dart[dart_map[orbit[0]]]
            new_colors[new_f] = coloring.colors[old_f]
        doc["colors"] = new_colors
    if real_cycle is not None:
        doc["real_cycle"] = [dart_map[d] for d in real_cycle]
    return dump(doc)


def deserialize(text: str) -> MapDocument:
    """Parse a map document, validating all structural invariants."""
    doc = load(text, "map", ("darts", "alpha", "sigma"))
    darts, alpha, sigma = doc["darts"], doc["alpha"], doc["sigma"]
    if not is_int(darts) or not is_int_list(alpha) or not is_int_list(sigma):
        raise ParseError("field darts must be an integer, alpha and sigma integer lists")
    try:
        m = build_map(darts, alpha, sigma)
    except (BadPermutation, NotInvolution, Disconnected) as exc:
        raise InvariantViolation(str(exc)) from exc

    labels = None
    if "labels" in doc:
        labels = doc["labels"]
        if not is_int_list(labels, m.vertex_count):
            raise InvariantViolation("labels must list one integer per vertex")
        labels = tuple(labels)

    colors = None
    if "colors" in doc:
        raw = doc["colors"]
        if (
            not isinstance(raw, list)
            or len(raw) != m.face_count
            or any(c not in (COLOR_A, COLOR_B) for c in raw)
        ):
            raise InvariantViolation("colors must assign A or B to every face")
        fod = m.face_of_dart
        for d, e in m.edges:
            if raw[fod[d]] == raw[fod[e]]:
                raise InvariantViolation("colors is not a proper face two-coloring")
        colors = FaceColoring(tuple(raw))

    real_cycle = None
    if "real_cycle" in doc:
        raw = doc["real_cycle"]
        if not is_int_list(raw) or any(not 0 <= d < m.dart_count for d in raw):
            raise InvariantViolation("real_cycle must list dart ids")
        real_cycle = tuple(raw)

    return MapDocument(m, labels, colors, real_cycle)
