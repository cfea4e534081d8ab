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

from collections import Counter

from ._documents import dump, is_int_list, load
from ._record import Record, cached
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
    check_sequence,
    conjugate,
    inverse,
    is_transitive,
    orbits,
)

COLOR_A = "A"
COLOR_B = "B"


class CombinatorialMap(Record):
    """An immutable rotation system.

    ``alpha`` and ``sigma`` are permutations of ``0..dart_count-1`` in
    one-line notation, stored as tuples.  ``alpha`` must be an involution
    without fixed points and the pair must act transitively (the cell
    graph fills a connected surface).

    Vertex ids number the orbits of ``sigma``, and face ids those of
    ``phi``, in the order of their least darts; each orbit in
    ``vertices`` and ``faces`` starts at its least dart and follows its
    permutation.  One pass over the darts gives both tables of a kind,
    ``vertices`` with ``vertex_of_dart`` and ``faces`` with
    ``face_of_dart``, on first use of either; the map keeps them.
    """

    alpha: Perm
    sigma: Perm

    def __post_init__(self):
        alpha = check_sequence(self.alpha)
        n = len(alpha)
        if n == 0 or n % 2 != 0:
            raise BadPermutation("dart count must be positive and even")
        alpha = check_permutation(alpha, n)
        sigma = check_permutation(self.sigma, n)
        for d in range(n):
            if alpha[d] == d:
                raise NotInvolution(f"alpha fixes dart {d}")
            if alpha[alpha[d]] != d:
                raise NotInvolution(f"alpha is not an involution at dart {d}")
        if not is_transitive((alpha, sigma), n):
            raise Disconnected("the darts are not connected under alpha and sigma")
        self.__dict__.update(alpha=alpha, sigma=sigma)

    @property
    def dart_count(self) -> int:
        return len(self.alpha)

    @cached
    def _vertex_orbits(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        return orbits(self.sigma)

    @cached
    def _face_orbits(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        sigma = self.sigma
        return orbits(tuple([sigma[a] for a in self.alpha]))

    @cached
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return self._vertex_orbits[0]

    @cached
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return self._face_orbits[0]

    @cached
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple([(d, a) for d, a in enumerate(self.alpha) if d < a])

    @cached
    def vertex_of_dart(self) -> tuple[int, ...]:
        return self._vertex_orbits[1]

    @cached
    def face_of_dart(self) -> tuple[int, ...]:
        return self._face_orbits[1]

    @cached
    def edge_of_dart(self) -> tuple[int, ...]:
        out = [0] * self.dart_count
        for i, (d, e) in enumerate(self.edges):
            out[d] = out[e] = i
        return tuple(out)

    @cached
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

    @cached
    def _alternating_coloring(self) -> "FaceColoring":
        # a cached attribute stores no value when its body raises
        alpha, fod, faces = self.alpha, self.face_of_dart, self.faces
        colors = [None] * self.face_count
        queue = [fod[0]]
        colors[fod[0]] = COLOR_A
        # breadth first; a face on both sides of an edge fails as an odd cycle does
        for f in queue:
            other = COLOR_B if colors[f] == COLOR_A else COLOR_A
            for d in faces[f]:
                g = fod[alpha[d]]
                if colors[g] is None:
                    colors[g] = other
                    queue.append(g)
                elif colors[g] != other:
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

    @cached
    def vertex_valences(self) -> tuple[int, ...]:
        return tuple([len(v) for v in self.vertices])

    @cached
    def corners(self) -> tuple[int, ...]:
        """Vertex ids of valence greater than 2."""
        return tuple([i for i, v in enumerate(self.vertices) if len(v) > 2])

    @cached
    def face_corners(self) -> tuple[tuple[int, ...], int | None]:
        """For each face, the number of distinct corners on it; and the
        first corner met twice on one face, scanning the faces and their
        darts in order, or None."""
        fod, vod, vertices = self.face_of_dart, self.vertex_of_dart, self.vertices
        counts = [0] * self.face_count
        doubled = False
        for vs in vertices:
            if len(vs) > 2:
                faces = {fod[d] for d in vs}
                doubled = doubled or len(faces) < len(vs)
                for f in faces:
                    counts[f] += 1
        if not doubled:
            return tuple(counts), None
        on = [[vod[d] for d in face if len(vertices[vod[d]]) > 2] for face in self.faces]
        return tuple(counts), next(v for vs in on for i, v in enumerate(vs) if v in vs[:i])

    @cached
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
        return CombinatorialMap._unchecked(*conjugate((self.alpha, self.sigma), perm))

    @cached
    def _canonical(self) -> tuple["CombinatorialMap", tuple[int, ...]]:
        (alpha, sigma), dart_map = canonical_relabeling(
            (self.alpha, self.sigma), self.dart_count, _root_darts(self)
        )
        return CombinatorialMap._unchecked(alpha, sigma), dart_map

    def canonical(self) -> "CombinatorialMap":
        """The canonical representative of the isomorphism class."""
        return self._canonical[0]

    def canonical_dart_map(self) -> tuple[int, ...]:
        """Relabeling sending this map onto :meth:`canonical`."""
        return self._canonical[1]

    def canonical_key(self) -> tuple[Perm, Perm]:
        canon = self.canonical()
        return (canon.alpha, canon.sigma)


def _root_darts(m: CombinatorialMap):
    """The darts canonical form starts from, in dart order: the rarest class
    of darts at vertices not 2-valent, the least class on a tie, or every
    dart of a cycle.  A class is a run length, a vertex valence and a face
    length, packed into one integer that sorts as they do.  A dart's run
    crosses its edge by ``alpha`` and goes on by ``alpha`` after ``sigma``
    through the 2-valent vertices it reaches; its length is how many.  The
    set is an isomorphism invariant, so the least code over it is canonical.
    """
    alpha, sigma, n = m.alpha, m.sigma, m.dart_count
    valence, vod, fod = m.vertex_valences, m.vertex_of_dart, m.face_of_dart
    face_len = [len(f) for f in m.faces]
    two = [valence[v] == 2 for v in vod]
    darts = [e for e in range(n) if not two[e]]
    if not darts:
        return range(n)
    keys = []
    for e in darts:
        x, r = alpha[e], 0
        while two[x]:
            x, r = alpha[sigma[x]], r + 1
        keys.append((r * n + valence[vod[e]]) * n + face_len[fod[e]])
    counts = Counter(keys)
    rarest = min(counts, key=lambda k: (counts[k], k))
    return [e for e, k in zip(darts, keys) if k == rarest]


def build_map(dart_count: int, alpha, sigma) -> CombinatorialMap:
    """Validate and build a map from its dart count and permutations."""
    alpha = check_sequence(alpha)
    sigma = check_sequence(sigma)
    if type(dart_count) is not int or len(alpha) != dart_count or len(sigma) != dart_count:
        raise BadPermutation("alpha and sigma must have length dart_count, an integer")
    return CombinatorialMap(alpha, sigma)


class FaceColoring(Record):
    """A two-coloring of the faces, values ``"A"`` and ``"B"``;
    :func:`check_coloring` checks it against a map."""

    colors: tuple[str, ...]

    def __post_init__(self):
        colors = self.colors
        if not isinstance(colors, (list, tuple)) or (
            colors.count(COLOR_A) + colors.count(COLOR_B) != len(colors)
        ):
            raise InvariantViolation("colors must assign A or B to every face")
        self.__dict__["colors"] = tuple(colors)

    def color(self, face_id: int) -> str:
        return self.colors[face_id]

    def flip(self) -> "FaceColoring":
        return FaceColoring(
            tuple([COLOR_B if c == COLOR_A else COLOR_A for c in self.colors])
        )

    def faces_of(self, color: str) -> tuple[int, ...]:
        return tuple([i for i, c in enumerate(self.colors) if c == color])


def check_coloring(m: CombinatorialMap, colors) -> FaceColoring:
    """``colors`` as a coloring of the faces of ``m``.

    Raises :class:`InvariantViolation` unless ``colors`` is a list or
    tuple giving ``"A"`` or ``"B"`` to every face and different colors to
    the two faces at each edge.
    """
    coloring = FaceColoring(colors)
    colors = coloring.colors
    if len(colors) != m.face_count:
        raise InvariantViolation("colors must assign A or B to every face")
    fod = m.face_of_dart
    for d, e in m.edges:
        if colors[fod[d]] == colors[fod[e]]:
            raise InvariantViolation("colors is not a proper face two-coloring")
    return coloring


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


def is_id(x, n: int) -> bool:
    """Whether ``x`` is the id of one of ``n`` darts, vertices, edges or
    faces: an integer (a value of type exactly ``int``) in ``0..n - 1``."""
    return type(x) is int and 0 <= x < n


def subdivide_edges(m: CombinatorialMap, counts: dict[int, int]) -> CombinatorialMap:
    """Insert ``counts[edge_id]`` 2-valent vertices on each listed edge;
    counts up to 0 insert none, a key not an edge id (:func:`is_id`) or a
    count not an integer raises :class:`InvariantViolation`.

    Old darts keep their ids; new darts are appended, so old vertex and
    face ids are preserved.
    """
    for edge_id, k in counts.items():
        if not is_id(edge_id, m.edge_count):
            raise InvariantViolation(f"{edge_id!r} is not an edge id")
        if type(k) is not int:
            raise InvariantViolation(f"count {k!r} of edge {edge_id} is not an integer")
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
    # each new vertex sits on an edge of ``m``, so the map stays valid
    return CombinatorialMap._unchecked(tuple(alpha), tuple(sigma))


def splice(m: CombinatorialMap, vertices) -> tuple[CombinatorialMap, dict[int, int]]:
    """Remove the given 2-valent vertices, merging the two edges at each.

    Surviving darts keep their order; ``dense`` sends each to its new id.
    Raises :class:`InvariantViolation` on an entry not a vertex id
    (:func:`is_id`) or not 2-valent and when nothing survives (the
    vertices form a closed cycle).
    """
    removed = set()
    for v in vertices:
        if not is_id(v, m.vertex_count):
            raise InvariantViolation(f"{v!r} is not a vertex id")
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

    alpha = tuple([partner(d) for d in kept])
    sigma = tuple([dense[m.sigma[d]] for d in kept])
    # splicing merges the two edges at each removed vertex; with a dart
    # left, the result is a valid connected map
    return CombinatorialMap._unchecked(alpha, sigma), dense


def splice_two_valent(m: CombinatorialMap, coloring: FaceColoring) -> tuple:
    """``m`` with its 2-valent vertices spliced out, ``coloring`` carried
    across, and the face of ``m`` each face of the result lies in: as
    :func:`splice` keeps the surviving darts in order, the faces of ``m``
    in the order those darts first reach them.  A cycle, which splicing
    would leave empty, comes back unchanged."""
    twos = [v for v, valence in enumerate(m.vertex_valences) if valence == 2]
    if not twos or not m.corners:
        return m, coloring, range(m.face_count)
    spliced, dense = splice(m, twos)
    faces = _first_seen(range(m.face_count), m.face_of_dart, dense)
    return spliced, FaceColoring(tuple([coloring.color(f) for f in faces])), faces


class MapDocument(Record):
    """A deserialized map together with its optional decorations."""

    map: CombinatorialMap
    labels: tuple[int, ...] | None = None
    colors: FaceColoring | None = None
    real_cycle: tuple[int, ...] | None = None


def lists_darts(m: CombinatorialMap, darts) -> bool:
    """Whether every entry of ``darts`` is a dart id of ``m``."""
    n = m.dart_count
    return all(is_id(d, n) for d in darts)


def real_cycle_order(m: CombinatorialMap, real_cycle) -> list[int] | None:
    """The vertices the real cycle passes, in its order.

    None unless ``m`` is planar and ``real_cycle`` is a closed walk of
    darts of ``m`` through every vertex once: the edge of each dart ends at
    the vertex of the next, the last dart's at the first's.
    """
    if m.genus() != 0 or not real_cycle or not lists_darts(m, real_cycle):
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

    The map is put into canonical form first, so ``darts``, ``alpha`` and
    ``sigma`` are stable across runs and across isomorphic dart labelings
    of the same input: the least breadth-first relabeling over the rarest
    class of darts at vertices that are not 2-valent, classed by run
    length, vertex valence and face length (every dart of a cycle).  The
    decorations are carried over by the relabeling of the first of those
    roots reaching that form; on a map with automorphisms another labeling
    of the input may carry them differently, so ``labels``, ``colors`` and
    ``real_cycle`` are stable across runs but not yet across labelings.
    ``labels`` is a per-vertex array (vertex ids in canonical order),
    ``colors`` a per-face array and ``real_cycle`` a list of darts of
    ``m``.  The canonical copy, a relabeling of ``m``, is built without
    re-checking.
    """
    canon = m.canonical()
    dart_map = m.canonical_dart_map()
    doc: dict = {
        "darts": canon.dart_count,
        "alpha": list(canon.alpha),
        "sigma": list(canon.sigma),
    }
    # the darts of ``m`` in canonical order: canonical orbit ids number
    # orbits by the first of their darts along it
    order = inverse(dart_map)
    if labels is not None:
        labels = tuple(labels)
        if len(labels) != m.vertex_count:
            raise InvariantViolation("labels must list one value per vertex")
        doc["labels"] = _first_seen(labels, m.vertex_of_dart, order)
    if coloring is not None:
        if len(coloring.colors) != m.face_count:
            raise InvariantViolation("colors must list one value per face")
        doc["colors"] = _first_seen(coloring.colors, m.face_of_dart, order)
    if real_cycle is not None:
        if not lists_darts(m, real_cycle):
            raise InvariantViolation("real_cycle must list dart ids")
        doc["real_cycle"] = [dart_map[d] for d in real_cycle]
    return dump(doc)


def _first_seen(values, orbit_of, order) -> list:
    """``values`` per orbit, listed as the orbits first appear along ``order``."""
    return [values[orbit] for orbit in dict.fromkeys([orbit_of[d] for d in order])]


def deserialize(text: str) -> MapDocument:
    """Parse a map document, validating all structural invariants."""
    doc = load(text, "map", ("darts", "alpha", "sigma"))
    # only lists here: the checked constructor tests each entry once
    alpha, sigma = doc["alpha"], doc["sigma"]
    if not isinstance(alpha, list) or not isinstance(sigma, list):
        raise ParseError("fields alpha and sigma must be lists")
    m = build_map(doc["darts"], alpha, sigma)

    labels = None
    if "labels" in doc:
        labels = doc["labels"]
        if not is_int_list(labels, m.vertex_count):
            raise InvariantViolation("labels must list one integer per vertex")
        labels = tuple(labels)

    colors = check_coloring(m, doc["colors"]) if "colors" in doc else None

    real_cycle = None
    if "real_cycle" in doc:
        raw = doc["real_cycle"]
        if not isinstance(raw, list) or not lists_darts(m, raw):
            raise InvariantViolation("real_cycle must list dart ids")
        real_cycle = tuple(raw)

    return MapDocument(m, labels, colors, real_cycle)
