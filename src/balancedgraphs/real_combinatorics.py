"""Non-crossing pairings, two-row tableaux, and mirror graphs.

Points 1..n sit on a circle in cyclic order; a pairing of type (d, a)
joins them by a_k arcs at point k, loop-free, with no two arcs crossing.
These biject with semistandard tableaux of shape 2 x (d-1) and weight a.
Doubling a pairing across the circle produces a globally balanced map
whose vertices all lie on the distinguished real cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._documents import dump, is_int_list, load
from .errors import InvariantViolation, NotBipartiteFaces, ParseError
from .permutations import canonical_relabeling, is_int
from .surface_map import CombinatorialMap, FaceColoring, alternating_coloring

Arc = tuple[int, int]


@dataclass(frozen=True)
class WeightComposition:
    """Degree d >= 2 with ordered arc multiplicities a_1..a_n."""

    d: int
    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if self.d < 2:
            raise InvariantViolation(f"degree must be at least 2, got {self.d}")
        if not 2 <= len(self.a) <= 2 * self.d - 2:
            raise InvariantViolation(f"need 2..{2 * self.d - 2} points, got {len(self.a)}")
        if any(not 1 <= x <= self.d - 1 for x in self.a):
            raise InvariantViolation(f"multiplicities must lie in 1..{self.d - 1}")
        if sum(self.a) != 2 * self.d - 2:
            raise InvariantViolation(
                f"multiplicities sum to {sum(self.a)}, expected {2 * self.d - 2}"
            )

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class NonCrossingPairing:
    """Arcs (i, j) with i < j, 1-indexed, stored as a sorted multiset."""

    type: WeightComposition
    arcs: tuple[Arc, ...]


@dataclass(frozen=True)
class Tableau2Row:
    rows: tuple[tuple[int, ...], tuple[int, ...]]


def _tableau_ok(rows, t: WeightComposition) -> bool:
    top, bottom = rows
    if len(top) != t.d - 1 or len(bottom) != t.d - 1:
        return False
    counts = [0] * (t.n + 1)
    for x in top + bottom:
        if not 1 <= x <= t.n:
            return False
        counts[x] += 1
    if counts[1:] != list(t.a):
        return False
    if any(top[i] > top[i + 1] or bottom[i] > bottom[i + 1] for i in range(t.d - 2)):
        return False
    return all(bottom[i] > top[i] for i in range(t.d - 1))


def enumerate_pairings(t: WeightComposition) -> list[NonCrossingPairing]:
    """All pairings of the given type, sorted lexicographically.

    Depth-first over the points: at point k close some arcs against the
    top of the open stack, then open the rest.  Crossings never arise, and
    every pairing appears exactly once.
    """
    out = []
    arcs: list[Arc] = []
    stack: list[int] = []

    def visit(k: int):
        if k > t.n:
            if not stack:
                out.append(tuple(sorted(arcs)))
            return
        ak = t.a[k - 1]
        for closes in range(min(ak, len(stack)) + 1):
            popped = [stack.pop() for _ in range(closes)]
            arcs.extend((i, k) for i in popped)
            opens = ak - closes
            stack.extend([k] * opens)
            visit(k + 1)
            del stack[len(stack) - opens :]
            del arcs[len(arcs) - closes :]
            stack.extend(reversed(popped))

    visit(1)
    return [NonCrossingPairing(t, arcs) for arcs in sorted(set(out))]


def enumerate_ssyt(t: WeightComposition) -> list[Tableau2Row]:
    """All two-row tableaux of the given type, by direct column fill."""
    width = t.d - 1
    remaining = list(t.a)
    out = []
    top: list[int] = []
    bottom: list[int] = []

    def fill(col: int):
        if col == width:
            if all(r == 0 for r in remaining):
                out.append(Tableau2Row((tuple(top), tuple(bottom))))
            return
        lo_top = top[-1] if top else 1
        for x in range(lo_top, t.n + 1):
            if remaining[x - 1] == 0:
                continue
            remaining[x - 1] -= 1
            lo_bottom = max(bottom[-1] if bottom else 1, x + 1)
            for y in range(lo_bottom, t.n + 1):
                if remaining[y - 1] == 0:
                    continue
                remaining[y - 1] -= 1
                top.append(x)
                bottom.append(y)
                fill(col + 1)
                top.pop()
                bottom.pop()
                remaining[y - 1] += 1
            remaining[x - 1] += 1

    fill(0)
    return sorted(out, key=lambda tb: tb.rows)


def kostka(t: WeightComposition) -> int:
    """Tableau count by memoized prefix counting over the open-arc stack."""

    a = t.a

    @lru_cache(maxsize=None)
    def count(k: int, open_arcs: int) -> int:
        if k == len(a):
            return 1 if open_arcs == 0 else 0
        total = 0
        for closes in range(min(a[k], open_arcs) + 1):
            total += count(k + 1, open_arcs - closes + (a[k] - closes))
        return total

    result = count(0, 0)
    count.cache_clear()
    return result


def catalan(d: int) -> int:
    """The count for the all-ones weight: binom(2d-2, d-1) / d."""
    if d < 1:
        raise InvariantViolation(f"degree must be positive, got {d}")
    return math.comb(2 * d - 2, d - 1) // d


def pairing_to_tableau(p: NonCrossingPairing) -> Tableau2Row:
    """Top row lists arc openings, bottom row arc closings, per point."""
    top = []
    bottom = []
    for i, j in sorted(p.arcs):
        top.append(i)
        bottom.append(j)
    top.sort()
    bottom.sort()
    tableau = Tableau2Row((tuple(top), tuple(bottom)))
    if not _tableau_ok(tableau.rows, p.type):
        raise InvariantViolation("pairing does not convert to a valid tableau")
    return tableau


def tableau_to_pairing(tb: Tableau2Row) -> NonCrossingPairing:
    """Rebuild the pairing: each closing matches the newest open arc."""
    top, bottom = tb.rows
    d = len(top) + 1
    n = max(top + bottom)
    a = [0] * n
    for x in top + bottom:
        a[x - 1] += 1
    t = WeightComposition(d, tuple(a))
    if not _tableau_ok(tb.rows, t):
        raise InvariantViolation("not a semistandard two-row tableau")
    opens = [0] * (n + 1)
    closes = [0] * (n + 1)
    for x in top:
        opens[x] += 1
    for x in bottom:
        closes[x] += 1
    stack: list[int] = []
    arcs = []
    for k in range(1, n + 1):
        for _ in range(closes[k]):
            arcs.append((stack.pop(), k))
        stack.extend([k] * opens[k])
    return NonCrossingPairing(t, tuple(sorted(arcs)))


def _arc_events(p: NonCrossingPairing) -> list[tuple[int, int, int, int]]:
    """Arcs with their opening and closing event ranks: (i, j, open, close).

    The stack replay pushes arcs sharing an opening point with the farther
    target first, so each closing matches the top of the stack; anything
    else would be a crossing.
    """
    arcs_sorted = sorted(p.arcs)
    opens: dict[int, list[int]] = {}
    closes: dict[int, int] = {}
    for idx, (i, j) in enumerate(arcs_sorted):
        opens.setdefault(i, []).append(idx)
        closes[j] = closes.get(j, 0) + 1
    stack: list[int] = []
    open_rank = {}
    close_rank = {}
    tick = 0
    closed = 0
    for k in range(1, p.type.n + 1):
        for _ in range(closes.get(k, 0)):
            if not stack:
                raise InvariantViolation("arcs are not a non-crossing pairing")
            arc_idx = stack.pop()
            if arcs_sorted[arc_idx][1] != k:
                raise InvariantViolation("arcs are not a non-crossing pairing")
            close_rank[arc_idx] = closed
            closed += 1
        for arc_idx in sorted(opens.get(k, []), key=lambda t: -arcs_sorted[t][1]):
            open_rank[arc_idx] = tick
            tick += 1
            stack.append(arc_idx)
    if stack:
        raise InvariantViolation("arcs are not a non-crossing pairing")
    return [
        (arcs_sorted[idx][0], arcs_sorted[idx][1], open_rank[idx], close_rank[idx])
        for idx in range(len(arcs_sorted))
    ]


def validate_pairing(p: NonCrossingPairing) -> None:
    """Degree, loop-freeness and crossing-freeness of the arc multiset.

    Crossings are found by the stack replay of :func:`_arc_events`.
    """
    counts = [0] * p.type.n
    for i, j in p.arcs:
        if not 1 <= i < j <= p.type.n:
            raise InvariantViolation(f"arc ({i}, {j}) is out of range or a loop")
        counts[i - 1] += 1
        counts[j - 1] += 1
    if tuple(counts) != p.type.a:
        raise InvariantViolation("arc multiplicities do not match the type")
    _arc_events(p)


def mirror_graph(
    p: NonCrossingPairing,
) -> tuple[CombinatorialMap, FaceColoring, tuple[int, ...]]:
    """Double the pairing across the circle of points.

    The result is the map made of the real cycle through the n points, the
    upper arcs, and their reflected lower copies.  Point k has valence
    2 a_k + 2, there are 2d faces, and the returned real cycle lists the
    forward dart of each real edge.
    """
    validate_pairing(p)
    n = p.type.n
    arcs = _arc_events(p)
    narcs = len(arcs)
    # darts: real edge k -> k+1 owns darts (2k, 2k+1); upper arc t owns
    # (2n + 2t) at its opening point and (2n + 2t + 1) at its closing
    # point; lower arcs follow the same scheme shifted by 2 * narcs.
    upper = 2 * n
    lower = 2 * n + 2 * narcs
    total = lower + 2 * narcs
    alpha = list(range(total))
    for k in range(n):
        alpha[2 * k], alpha[2 * k + 1] = 2 * k + 1, 2 * k
    for t in range(narcs):
        for base in (upper, lower):
            alpha[base + 2 * t] = base + 2 * t + 1
            alpha[base + 2 * t + 1] = base + 2 * t

    sigma = [0] * total
    for k in range(1, n + 1):
        opening = [t for t, (i, _, _, _) in enumerate(arcs) if i == k]
        closing = [t for t, (_, j, _, _) in enumerate(arcs) if j == k]
        east = 2 * (k - 1)
        west = 2 * ((k - 2) % n) + 1
        ring = [east]
        # upper forward arcs, innermost first (latest opened)
        ring += [upper + 2 * t for t in sorted(opening, key=lambda t: -arcs[t][2])]
        # upper backward arcs, outermost first (earliest opened)
        ring += [upper + 2 * t + 1 for t in sorted(closing, key=lambda t: arcs[t][2])]
        ring.append(west)
        # lower mirror: reversed relative to the upper half
        ring += [lower + 2 * t + 1 for t in sorted(closing, key=lambda t: -arcs[t][2])]
        ring += [lower + 2 * t for t in sorted(opening, key=lambda t: arcs[t][2])]
        for i, dart in enumerate(ring):
            sigma[dart] = ring[(i + 1) % len(ring)]

    m = CombinatorialMap(alpha, sigma)
    real_cycle = tuple(2 * k for k in range(n))
    return m, alternating_coloring(m), real_cycle


def conjugation_involution(
    m: CombinatorialMap, real_cycle: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The reflection fixing the real cycle, or None if there is none.

    A reflection is a dart bijection that commutes with alpha, conjugates
    sigma to its inverse, and fixes every real-cycle dart.  It is found by
    propagation and is unique when it exists.
    """
    n = m.dart_count
    sigma_inv = [0] * n
    for d in range(n):
        sigma_inv[m.sigma[d]] = d
    iota = [-1] * n
    queue = []
    for d in real_cycle:
        for seed in (d, m.alpha[d]):
            if iota[seed] == -1:
                iota[seed] = seed
                queue.append(seed)
            elif iota[seed] != seed:
                return None
    while queue:
        d = queue.pop()
        for e, want in ((m.alpha[d], m.alpha[iota[d]]), (m.sigma[d], sigma_inv[iota[d]])):
            if iota[e] == -1:
                iota[e] = want
                queue.append(e)
            elif iota[e] != want:
                return None
    if -1 in iota:
        return None
    if any(iota[iota[d]] != d for d in range(n)):
        return None
    return tuple(iota)


def is_real_balanced(m: CombinatorialMap, real_cycle) -> bool:
    """Planar, all vertices on the real cycle, with a color-swapping reflection."""
    real_cycle = tuple(real_cycle)
    if m.genus() != 0 or not real_cycle:
        return False
    if len(set(real_cycle)) != len(real_cycle):
        return False
    vod = m.vertex_of_dart
    visited = [vod[d] for d in real_cycle]
    if sorted(visited) != list(range(m.vertex_count)):
        return False
    for i, d in enumerate(real_cycle):
        nxt = real_cycle[(i + 1) % len(real_cycle)]
        if vod[m.alpha[d]] != vod[nxt]:
            return False
    iota = conjugation_involution(m, real_cycle)
    if iota is None:
        return False
    # orientation reversal sends the face left of d to the face left of
    # alpha(iota(d)); the two colors must swap
    try:
        coloring = alternating_coloring(m)
    except NotBipartiteFaces:
        return False
    fod = m.face_of_dart
    return all(
        coloring.color(fod[d]) != coloring.color(fod[m.alpha[iota[d]]])
        for d in range(m.dart_count)
    )


def marked_canonical_key(m: CombinatorialMap, real_cycle) -> tuple:
    """Canonical key of a map with a rooted real cycle.

    The map's breadth-first relabeling (as in its canonical form) is
    rooted at the first real-cycle dart only, so rotating the marked
    points produces a different key; this matches counting pairings on a
    fixed point set.  The key is the relabeled alpha and sigma followed
    by the relabeled real cycle.
    """
    real_cycle = tuple(real_cycle)
    (alpha, sigma), relabel = canonical_relabeling(
        (m.alpha, m.sigma), m.dart_count, (real_cycle[0],)
    )
    return (alpha, sigma, tuple(relabel[d] for d in real_cycle))


@dataclass(frozen=True)
class CoverageRow:
    a: tuple[int, ...]
    pairings: int
    tableaux: int
    kostka: int
    bijection_ok: bool
    mirrors_distinct: bool

    @property
    def ok(self) -> bool:
        return (
            self.pairings == self.tableaux == self.kostka
            and self.bijection_ok
            and self.mirrors_distinct
        )


def compositions(total: int, max_part: int):
    """Ordered compositions of ``total`` with parts in 1..max_part."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in compositions(total - first, max_part):
            yield (first,) + rest


def count_coverage_check(d: int) -> list[CoverageRow]:
    """Cross-check the three enumerators on every composition for degree d.

    Also verifies the bijection round trip element by element and that the
    mirror graphs of distinct pairings stay distinct as marked maps.
    """
    rows = []
    for a in compositions(2 * d - 2, d - 1):
        if not 2 <= len(a) <= 2 * d - 2:
            continue
        t = WeightComposition(d, a)
        pairings = enumerate_pairings(t)
        tableaux = enumerate_ssyt(t)
        k = kostka(t)
        images = []
        round_trip = True
        for p in pairings:
            tb = pairing_to_tableau(p)
            images.append(tb)
            if tableau_to_pairing(tb) != p:
                round_trip = False
        bijection_ok = round_trip and sorted(
            tb.rows for tb in images
        ) == [tb.rows for tb in tableaux]
        keys = set()
        for p in pairings:
            graph, _, cycle = mirror_graph(p)
            keys.add(marked_canonical_key(graph, cycle))
        rows.append(
            CoverageRow(
                a, len(pairings), len(tableaux), k, bijection_ok, len(keys) == len(pairings)
            )
        )
    return rows


def serialize_pairing(p: NonCrossingPairing) -> str:
    return dump({"n": p.type.n, "a": list(p.type.a), "arcs": [list(arc) for arc in p.arcs]})


def deserialize_pairing(text: str) -> NonCrossingPairing:
    doc = load(text, "pairing", ("n", "a", "arcs"))
    n, a, arcs = doc["n"], doc["a"], doc["arcs"]
    if not is_int(n) or not is_int_list(a, n):
        raise ParseError("field n must be an integer, a one integer multiplicity per point")
    if not isinstance(arcs, list) or not all(is_int_list(arc, 2) for arc in arcs):
        raise ParseError("field arcs must list pairs of integer points")
    d = (sum(a) + 2) // 2
    t = WeightComposition(d, tuple(a))
    arcs = tuple(sorted(tuple(arc) for arc in arcs))
    p = NonCrossingPairing(t, arcs)
    validate_pairing(p)
    return p


def serialize_tableau(tb: Tableau2Row) -> str:
    return dump({"rows": [list(r) for r in tb.rows]})
