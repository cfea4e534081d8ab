"""Admissible vertex labelings, passports, and charge conservation.

On an enriched balanced graph whose faces all carry the same number ``m``
of vertices, an admissible labeling assigns 1..m so that the labels read
cyclically increasing around every A face (and reversed around B faces),
and so that for every label the half-valences sum to the degree.  Read
with its face on the left, an edge raises the label by one mod m when
that face is A and lowers it when it is B, so an admissible labeling is a
potential: one walk over the edges finds it or a contradiction.
"""

from __future__ import annotations

from ._record import Record, cached, fresh
from .errors import InconsistentPropagation, InfeasibleWeighting, InvariantViolation
from .surface_map import (
    COLOR_A,
    COLOR_B,
    CombinatorialMap,
    FaceColoring,
    splice,
)


class VertexLabeling(Record):
    """Per-vertex labels in 1..m."""

    m: int
    labels: tuple[int, ...]

    @cached
    def classes(self) -> tuple[tuple[int, ...], ...]:
        """The vertices of each label 1..m in vertex order; labels out of
        range belong to no class."""
        out: list[list[int]] = [[] for _ in range(self.m)]
        for v, lb in enumerate(self.labels):
            if 1 <= lb <= self.m:
                out[lb - 1].append(v)
        return tuple([tuple(vs) for vs in out])


class Passport(Record):
    """One partition of the degree per label."""

    d: int
    parts: tuple[tuple[int, ...], ...]


def admissible_labeling(
    m: CombinatorialMap, coloring: FaceColoring
) -> VertexLabeling:
    """Construct an admissible labeling as a potential, in one edge walk.

    The first vertex of the first A face (minimal face id) gets label 1.
    From each labeled vertex, every dart sends its head the label one
    above (A face on the left) or one below (B face) mod m; a head offered
    two labels raises :class:`InconsistentPropagation`.  The result is
    then verified against the definition rather than assumed.
    """
    lengths = {len(face) for face in m.faces}
    if len(lengths) != 1:
        raise InconsistentPropagation(
            f"faces carry different vertex counts: {sorted(lengths)}"
        )
    mm = lengths.pop()
    colors = coloring.colors
    first = next(f for f in range(m.face_count) if colors[f] == COLOR_A)
    up = [c == COLOR_A for c in colors]  # whether labels step up along a face
    alpha, vertices = m.alpha, m.vertices
    vod, fod = m.vertex_of_dart, m.face_of_dart
    labels = [0] * m.vertex_count
    start = vod[m.faces[first][0]]
    labels[start] = 1
    stack = [start]
    while stack:
        v = stack.pop()
        label = labels[v]
        above, below = label % mm + 1, (label - 2) % mm + 1
        for d in vertices[v]:
            w = vod[alpha[d]]
            want = above if up[fod[d]] else below
            have = labels[w]
            if not have:
                labels[w] = want
                stack.append(w)
            elif have != want:
                raise InconsistentPropagation(
                    f"vertex {w} receives labels {have} and {want}"
                )

    labeling = VertexLabeling(mm, tuple(labels))
    ok, why = verify_labeling(m, coloring, labeling)
    if not ok:
        raise InconsistentPropagation(f"propagated labeling is not admissible: {why}")
    return labeling


def verify_labeling(
    m: CombinatorialMap, coloring: FaceColoring, lab: VertexLabeling
) -> tuple[bool, str | None]:
    """Check both admissibility conditions; returns (ok, first violation).
    Labels not in a list or tuple, and labels or an ``m`` not integers, fail.

    The half-valence check, kept as a stated consequence, cannot fail once
    every face reads 1..m: each face has one corner at each label, and for
    m >= 3 the labels j - 1 and j + 1 alternate round a vertex labeled j,
    so valences are even and each label's half-valences sum to F / 2, the
    degree.  For m <= 2 the Euler count leaves at most two vertices.
    """
    labels, mm = lab.labels, lab.m
    if not isinstance(labels, (list, tuple)) or len(labels) != m.vertex_count:
        return False, "one label per vertex required"
    if type(mm) is not int or any(type(lb) is not int or not 1 <= lb <= mm for lb in labels):
        return False, "labels must lie in 1..m"
    vod, colors = m.vertex_of_dart, coloring.colors
    # a face reads 1..m from its 1 on, cyclically (B faces read backwards)
    ascending = list(range(1, mm + 1))
    for f, face in enumerate(m.faces):
        read = [labels[vod[d]] for d in face]
        if colors[f] == COLOR_B:
            read.reverse()
        start = read.index(1) if 1 in read else 0
        if read[start:] + read[:start] != ascending:
            return False, f"face {f} reads labels {read}"
    d = m.face_count // 2
    vertices = m.vertices
    for j, vs in enumerate(lab.classes, 1):
        total = sum([len(vertices[v]) // 2 for v in vs])
        if total != d:
            return False, f"label {j} has half-valence sum {total}, expected {d}"
    return True, None


def passport_of(m: CombinatorialMap, lab: VertexLabeling) -> Passport:
    """Partitions of the degree: half-valences per label, sorted decreasing."""
    parts = tuple([
        tuple(sorted((len(m.vertices[v]) // 2 for v in vs), reverse=True))
        for vs in lab.classes
    ])
    return Passport(m.face_count // 2, parts)


def compress_labels(
    m: CombinatorialMap, lab: VertexLabeling
) -> tuple[CombinatorialMap, VertexLabeling]:
    """Remove label classes made of 2-valent vertices only.

    The vertices of the removed classes are spliced out with
    :func:`~balancedgraphs.surface_map.splice` (their edges merge; vertex
    order survives) and the remaining labels renumbered 1..m-p in the same
    cyclic order.  Raises :class:`InvariantViolation` without a corner.
    """
    if not m.corners:
        raise InvariantViolation("compression requires at least one corner")
    valences = m.vertex_valences
    gone = {
        j for j, vs in enumerate(lab.classes, 1) if all(valences[v] == 2 for v in vs)
    }
    if not gone:
        return m, lab
    new_map, _ = splice(m, [v for j in gone for v in lab.classes[j - 1]])
    rank = {j: i for i, j in enumerate(sorted(set(range(1, lab.m + 1)) - gone), 1)}
    new_labels = tuple([rank[lb] for lb in lab.labels if lb not in gone])
    return new_map, VertexLabeling(len(rank), new_labels)


class ChargeableGraph(Record):
    """Bipartite graph with input and output vertex sets and capacities.

    Vertices are ("x", i) and ("y", j).  ``inputs`` lie on the x side and
    ``outputs`` on the y side; every other vertex is interior and carries a
    positive capacity.
    """

    x_count: int
    y_count: int
    edges: tuple[tuple[int, int], ...]
    inputs: frozenset[int]
    outputs: frozenset[int]
    capacity: dict = fresh(dict)

    def interior_vertices(self):
        for i in range(self.x_count):
            if i not in self.inputs:
                yield ("x", i)
        for j in range(self.y_count):
            if j not in self.outputs:
                yield ("y", j)


class Weighting(Record):
    weights: tuple[float, ...]


class ChargeReport(Record):
    in_value: float
    out_value: float
    equal: bool


# absolute slack allowed between float sums of weights that should agree
_CHARGE_TOLERANCE = 1e-9


def charge_conservation_check(cg: ChargeableGraph, w: Weighting) -> ChargeReport:
    """Input and output values of a feasible weighting, and their equality.

    Feasibility (strict positivity, interior sums equal to capacity) is
    enforced and raises :class:`InfeasibleWeighting`; equality of the two
    values is reported, not asserted.
    """
    if len(w.weights) != len(cg.edges):
        raise InfeasibleWeighting("one weight per edge required")
    if any(weight <= 0 for weight in w.weights):
        raise InfeasibleWeighting("weights must be strictly positive")
    sums: dict[tuple[str, int], float] = {}
    for (x, y), weight in zip(cg.edges, w.weights):
        sums[("x", x)] = sums.get(("x", x), 0.0) + weight
        sums[("y", y)] = sums.get(("y", y), 0.0) + weight
    for v in cg.interior_vertices():
        cap = cg.capacity.get(v)
        if cap is None:
            raise InfeasibleWeighting(f"interior vertex {v} has no capacity")
        if abs(sums.get(v, 0.0) - cap) > _CHARGE_TOLERANCE:
            raise InfeasibleWeighting(
                f"vertex {v} carries {sums.get(v, 0.0)}, capacity is {cap}"
            )
    in_value = sum(
        weight for (x, _), weight in zip(cg.edges, w.weights) if x in cg.inputs
    )
    out_value = sum(
        weight for (_, y), weight in zip(cg.edges, w.weights) if y in cg.outputs
    )
    return ChargeReport(in_value, out_value, abs(in_value - out_value) <= _CHARGE_TOLERANCE)
