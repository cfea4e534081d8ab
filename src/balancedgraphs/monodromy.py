"""Constellations: permutation monodromy of branched coverings of the sphere.

A constellation of degree d is a sequence of permutations of {1..d}, one
per branch point in cyclic order, whose composite acts as the identity
(later factors applied first) and whose group acts transitively.  Sheets
are the A faces of the pullback graph; around a vertex with label j the
incident A faces follow a cycle of the j-th permutation in sigma order.
"""

from __future__ import annotations

from . import balance, enrichment, labeling, surface_map
from ._documents import dump, is_int_list, load
from ._record import Record
from .errors import BadPermutation, InvariantViolation, NoPerfectMatching, NotVerified
from .errors import NonIntegerGenus, ParseError
from .labeling import Passport, VertexLabeling
from .permutations import (
    Perm,
    canonical_relabeling,
    check_permutation,
    check_sequence,
    compose_chain,
    cycle_type,
    identity,
    is_transitive,
)
from .surface_map import COLOR_A, COLOR_B, CombinatorialMap, FaceColoring


class Constellation(Record):
    """Degree and permutations, stored 0-indexed in one-line notation as tuples."""

    d: int
    perms: tuple[Perm, ...]

    def __post_init__(self):
        if type(self.d) is not int or self.d < 1:
            raise InvariantViolation(f"degree must be positive, got {self.d!r}")
        perms = check_sequence(self.perms)
        self.__dict__["perms"] = tuple([check_permutation(p, self.d) for p in perms])

    @property
    def m(self) -> int:
        return len(self.perms)

    @classmethod
    def from_cycles(cls, d: int, cycle_lists) -> "Constellation":
        """Build from 1-indexed cycle notation, one list of cycles per slot; a
        bad degree, a slot or cycle not a list or tuple, or a point not an
        ``int``, outside 1..d or twice in a slot raises."""
        cls(d, ())  # tests the degree before it sizes anything
        perms = []
        for cycle_list in cycle_lists:
            p = list(range(d))
            seen = set()
            for cyc in check_sequence(cycle_list):
                if not isinstance(cyc, (list, tuple)):
                    raise BadPermutation(f"cycle {cyc!r} is not a sequence of points")
                for x in cyc:
                    if type(x) is not int:
                        raise BadPermutation(f"point {x!r} is not an integer")
                    if not 1 <= x <= d:
                        raise BadPermutation(f"point {x} is outside 1..{d}")
                    if x in seen:
                        raise BadPermutation(f"point {x} appears twice in one permutation")
                    seen.add(x)
                for i, x in enumerate(cyc):
                    p[x - 1] = cyc[(i + 1) % len(cyc)] - 1
            perms.append(tuple(p))
        return cls._unchecked(d, tuple(perms))  # every point checked above


class ConstellationReport(Record):
    ok: bool
    product_is_identity: bool
    transitive: bool
    genus: int | None
    cycle_types: tuple[tuple[int, ...], ...]
    passport_match: bool | None = None
    failures: tuple[str, ...] = ()


def verify_constellation(
    c: Constellation, expected: Passport | None = None
) -> ConstellationReport:
    """Check the product-identity and transitivity invariants.

    When ``expected`` is given, the cycle types, fixed points included,
    are compared with its parts, each sorted in decreasing order.  The
    genus comes from the Euler count of the would-be pullback surface.
    """
    failures = []
    # an empty product is the identity; nothing of size d is built for it
    product_ok = not c.perms or compose_chain(c.perms, c.d) == identity(c.d)
    if not product_ok:
        failures.append("composite of the permutations is not the identity")
    transitive = is_transitive(c.perms, c.d)
    if not transitive:
        failures.append("the permutations do not act transitively")
    types = tuple([cycle_type(p) for p in c.perms])
    try:
        g = rh_genus(Passport(c.d, types))
    except NonIntegerGenus:
        g = None
        failures.append("branching total is inconsistent with an integer genus")
    passport_match = None
    if expected is not None:
        passport_match = list(types) == [tuple(sorted(p, reverse=True)) for p in expected.parts]
        if not passport_match:
            failures.append("cycle types do not match the expected passport")
    ok = product_ok and transitive and g is not None and passport_match is not False
    return ConstellationReport(
        ok, product_ok, transitive, g, types, passport_match, tuple(failures)
    )


def rh_genus(p: Passport) -> int:
    """Genus forced by the total branching of a passport."""
    branching = sum(entry - 1 for part in p.parts for entry in part)
    two_minus_2g = 2 * p.d - branching
    if two_minus_2g % 2 != 0:
        raise NonIntegerGenus(f"branching parity inconsistent for degree {p.d}")
    g = (2 - two_minus_2g) // 2
    if g < 0:
        raise NonIntegerGenus(f"negative genus {g} for degree {p.d}")
    return g


def pullback_from_constellation(
    c: Constellation,
) -> tuple[CombinatorialMap, FaceColoring, VertexLabeling]:
    """Build the cell graph over the branch-point curve of a covering.

    Edges are indexed by (arc j, sheet s); dart 2(jd+s) leaves the vertex
    over branch point j along the boundary of A sheet s, its partner
    arrives at the vertex over branch point j+1.  A faces are the sheets
    and vertex labels record the branch point.  The constellation is
    verified first, which makes the map valid by construction, so it is
    built without the constructor's checks.  The map is returned as built;
    :func:`~balancedgraphs.surface_map.serialize` puts it, with its labels
    and colors, into canonical form.
    """
    report = verify_constellation(c)
    if not report.ok:
        raise NotVerified("; ".join(report.failures))
    if not c.perms:
        # d = 1 with no branch points verifies, but leaves no curve to build on
        raise NotVerified("a pullback needs at least one permutation")
    d, m = c.d, c.m
    n = 2 * d * m
    # alpha pairs dart 2i with 2i + 1; arc j owns the block of darts from 2jd
    alpha = [x ^ 1 for x in range(n)]
    sigma = [0] * n
    for j in range(m):
        pj = c.perms[j]
        here = 2 * j * d
        before = 2 * ((j - 1) % m) * d + 1
        after = 2 * ((j + 1) % m) * d
        for s in range(d):
            x = here + 2 * s
            sigma[x] = before + 2 * pj[s]
            sigma[x + 1] = after + 2 * s
    # valid as built: each p_j is a permutation, alpha has no fixed point,
    # and the verified (transitive) permutations connect every sheet
    built = CombinatorialMap._unchecked(tuple(alpha), tuple(sigma))

    # every face is all-out or all-in darts; the out ones are the sheets
    colors = tuple([COLOR_A if face[0] % 2 == 0 else COLOR_B for face in built.faces])
    vod = built.vertex_of_dart
    labels = [0] * built.vertex_count
    for x in range(0, n, 2):
        labels[vod[x]] = x // (2 * d) + 1
    return built, FaceColoring(colors), VertexLabeling(m, tuple(labels))


class Realization(Record):
    """What :func:`realize` found: the enriched map, its coloring, labeling
    and constellation, or ``ok`` False and the verdict line saying why."""

    ok: bool
    map: CombinatorialMap | None = None
    coloring: FaceColoring | None = None
    labeling: VertexLabeling | None = None
    constellation: Constellation | None = None
    verdict: str = ""


def realize(m: CombinatorialMap, coloring: FaceColoring | None = None) -> Realization:
    """Enrich ``m``, label it admissibly and read off its constellation.

    ``coloring`` is a proper face two-coloring of ``m``, by default the
    alternating one; any other raises :class:`InvariantViolation` (see
    :func:`~balancedgraphs.balance.is_globally_balanced`).  The 2-valent
    vertices of ``m`` are spliced out first, since the dot graph counts
    corners only.  Not ``ok`` when ``m`` is not globally balanced, when
    the Hall condition fails (the witness names faces of ``m``) or when
    the constellation fails verification; errors of the stages are
    raised, as the labeling's :class:`InconsistentPropagation` on some
    maps of genus above 0.
    """
    gb = balance.is_globally_balanced(m, coloring)
    if not gb.ok:
        return Realization(False, verdict=f"not globally balanced: {gb.reason}")
    coloring = coloring or surface_map.alternating_coloring(m)
    m, coloring, faces = surface_map.splice_two_valent(m, coloring)
    try:
        matching = enrichment.perfect_matching(enrichment.dot_graph(m, coloring))
    except NoPerfectMatching as exc:
        witness = sorted(faces[f] for f in exc.witness)
        return Realization(False, verdict=f"not locally balanced; Hall witness B faces: {witness}")
    enriched = enrichment.enrich(m, matching)
    lab = labeling.admissible_labeling(enriched, coloring)
    constellation = constellation_from(enriched, coloring, lab)
    report = verify_constellation(constellation, labeling.passport_of(enriched, lab))
    if not report.ok:
        return Realization(False, verdict=f"constellation failed verification: {report.failures}")
    return Realization(True, enriched, coloring, lab, constellation)


def constellation_from(
    m: CombinatorialMap, coloring: FaceColoring, lab: VertexLabeling
) -> Constellation:
    """Read the monodromy off an admissible graph.

    A faces are numbered by minimal dart; around each vertex with label j
    the incident A faces, read in sigma order, contribute one cycle to the
    j-th permutation.
    """
    # the sheet of each face, -1 for B faces
    sheet = [-1] * len(coloring.colors)
    d = 0
    for f, c in enumerate(coloring.colors):
        if c == COLOR_A:
            sheet[f] = d
            d += 1
    perms = []
    fod, vertices = m.face_of_dart, m.vertices
    for j, vs in enumerate(lab.classes, 1):
        p = list(range(d))
        seen = [False] * d
        for v in vs:
            # each sheet around v goes to the next one, the last to the first
            first = prev = -1
            for dart in vertices[v]:
                s = sheet[fod[dart]]
                if s < 0:
                    continue
                if seen[s]:
                    raise NotVerified(
                        f"sheet {s + 1} appears twice around vertices with label {j}"
                    )
                seen[s] = True
                if prev < 0:
                    first = s
                else:
                    p[prev] = s
                prev = s
            if prev >= 0:
                p[prev] = first
        perms.append(tuple(p))
    return Constellation(d, tuple(perms))


def conjugation_canonical(c: Constellation) -> Constellation:
    """Representative of the class under simultaneous sheet relabeling.

    It is the least breadth-first relabeling over all root sheets, the
    same canonical form maps take (see
    :func:`~balancedgraphs.permutations.canonical_relabeling`).  The
    permutations must act transitively; otherwise :class:`Disconnected`
    is raised.
    """
    perms, _ = canonical_relabeling(c.perms, c.d, range(c.d))
    return Constellation(c.d, perms)


def serialize_constellation(c: Constellation) -> str:
    """Text document with 1-indexed one-line permutations."""
    return dump({"d": c.d, "perms": [[x + 1 for x in p] for p in c.perms]})


def deserialize_constellation(text: str) -> Constellation:
    doc = load(text, "constellation", ("d", "perms"))
    d, perms = doc["d"], doc["perms"]
    if type(d) is not int or d < 1 or not isinstance(perms, list):
        raise ParseError("field d must be a positive integer, perms a list")
    if not all(is_int_list(p) for p in perms):
        raise ParseError("each permutation must be a list of integers")
    for p in perms:
        if len(p) != d or sorted(p) != list(range(1, d + 1)):
            raise BadPermutation(f"{p} is not a permutation of 1..{d}")
    # checked above, 1-indexed as the document writes them
    return Constellation._unchecked(d, tuple([tuple([x - 1 for x in p]) for p in perms]))
