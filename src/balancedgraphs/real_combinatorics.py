"""Non-crossing pairings, two-row tableaux, and mirror graphs.

Points 1..n sit on a circle in cyclic order; a pairing of type (d, a)
joins them by a_k arcs at point k, loop-free, with no two arcs crossing.
These biject with semistandard tableaux of shape 2 x (d-1) and weight a.
Doubling a pairing across the circle produces a globally balanced map
whose vertices all lie on the distinguished real cycle.

A pairing is fixed by how many of its arcs close at each point, each
closing taking the newest open arc.  Pairings, tableaux and the Kostka
count all come from one table over these close counts, and nothing
recurses.  The enumeration walks, per point, the list of close counts
the later points can complete; a list is built the first time the walk
reaches its (point, open count) state, so a long type with few pairings
builds few.  Every conversion from counts to arcs, and every check of a
pairing or a tableau, is one stack replay that keeps only the opening
point of each open arc and returns the sorted arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from ._documents import is_int_list, load
from .errors import InvariantViolation, NotBipartiteFaces, ParseError
from .permutations import canonical_relabeling, inverse, is_int
from .surface_map import CombinatorialMap, FaceColoring, alternating_coloring, real_cycle_order

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

    @cached_property
    def _replayed_arcs(self) -> tuple[Arc, ...]:
        # validated once per pairing; a cached_property stores no value
        # when its body raises, so an invalid pairing raises on every call
        return tuple(validate_pairing(self))


@dataclass(frozen=True)
class Tableau2Row:
    rows: tuple[tuple[int, ...], tuple[int, ...]]


def _completions(a) -> list[list[int]]:
    """``ways[k][m]``: the ways points k+1..n can close m arcs opened before them.

    A point of weight x closes c <= min(x, m) of m open arcs and opens x - c,
    leaving m + x - 2c open.  Row k holds only the m that points 1..k can
    open and points k+1..n can close.
    """
    prefix = list(accumulate(a, initial=0))
    ways = [[1]] * (len(a) + 1)  # row n: nothing left open, one way
    for k in reversed(range(len(a))):
        nxt, x = ways[k + 1], a[k]
        size = min(prefix[k], prefix[-1] - prefix[k]) + 1
        ways[k] = [sum(nxt[abs(m - x) : m + x + 1 : 2]) for m in range(size)]
    return ways


def _close_counts(a):
    """Every close-count vector of a pairing of weight ``a``, in increasing order.

    ``closes[k]`` arcs close at point k + 1.  The walk offers a point only
    the counts after which :func:`_completions` says the later points can
    close what is then open, so every branch it enters ends in a pairing.
    The offered counts are listed once per (point, open count) state the
    walk reaches.  The last point closes all its arcs.
    """
    ways, n = _completions(a), len(a)
    listed: list[dict[int, list[int]]] = [{} for _ in range(n)]

    def offered(k: int, m: int) -> list[int]:
        # counts c <= min(m, x) leaving an open count m + x - 2c that row
        # k + 1 holds and can complete
        x, nxt = a[k], ways[k + 1]
        least = max(0, (m + x - len(nxt) + 2) // 2)
        return [c for c in range(least, min(m, x) + 1) if nxt[m + x - 2 * c]]

    closes = list(a)
    opened = [0] * n  # arcs open before point k + 1
    offers = [offered(0, 0)] + [[]] * (n - 1)
    at = [0] * n  # the count taken at point k + 1, as an index into its offer
    last = n - 2
    k = 0
    while True:
        if k == last:
            for c in offers[k]:
                closes[k] = c
                yield tuple(closes)
        elif at[k] < len(offers[k]):
            c = closes[k] = offers[k][at[k]]
            m = opened[k] + a[k] - 2 * c
            k += 1
            opened[k], at[k] = m, 0
            offer = listed[k].get(m)
            if offer is None:
                offer = listed[k][m] = offered(k, m)
            offers[k] = offer
            continue
        if k == 0:
            return
        k -= 1
        at[k] += 1


def _replay(opens, closes) -> list[Arc] | None:
    """Arcs with ``opens[k]`` openings and ``closes[k]`` closings at point k + 1.

    At each point the closings take the newest open arcs, then the point's
    own arcs open.  Returns the arcs (i, j) sorted, or None when a closing
    finds too few open arcs or arcs are left open.
    """
    stack: list[int] = []  # the opening point of each open arc, newest last
    arcs: list[Arc] = []
    k = 0
    for o, c in zip(opens, closes):
        k += 1
        if c:
            if c > len(stack):
                return None
            while c:
                arcs.append((stack.pop(), k))
                c -= 1
        if o:
            stack += [k] * o
    if stack:
        return None
    arcs.sort()
    return arcs


def _per_point(points, n: int) -> list[int]:
    """How often each of the points 1..n occurs in ``points``."""
    counts = [0] * n
    for x in points:
        counts[x - 1] += 1
    return counts


def _rows(a, closes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The tableau rows of close counts ``closes``: each point k as often
    as it opens arcs on top, and as often as it closes arcs below."""
    top: list[int] = []
    bottom: list[int] = []
    k = 0
    for x, c in zip(a, closes):
        k += 1
        if c:
            bottom += [k] * c
        if x > c:
            top += [k] * (x - c)
    return tuple(top), tuple(bottom)


def enumerate_pairings(t: WeightComposition) -> list[NonCrossingPairing]:
    """All pairings of the given type, sorted lexicographically."""
    a = t.a
    found = [
        tuple(_replay([x - c for x, c in zip(a, closes)], closes))
        for closes in _close_counts(a)
    ]
    found.sort()
    return [NonCrossingPairing(t, arcs) for arcs in found]


def enumerate_ssyt(t: WeightComposition) -> list[Tableau2Row]:
    """All two-row tableaux of the given type, sorted by rows: openings on
    top, closings below.  A larger close count at the first point where two
    vectors differ means a larger top row, so the walk's order is the rows'.
    """
    a = t.a
    return [Tableau2Row(_rows(a, closes)) for closes in _close_counts(a)]


def kostka(t: WeightComposition) -> int:
    """Tableau count: the completions of the empty stack before point 1."""
    return _completions(t.a)[0][0]


def catalan(d: int) -> int:
    """The count for the all-ones weight: binom(2d-2, d-1) / d."""
    if d < 1:
        raise InvariantViolation(f"degree must be positive, got {d}")
    return math.comb(2 * d - 2, d - 1) // d


def pairing_to_tableau(p: NonCrossingPairing) -> Tableau2Row:
    """Top row lists arc openings, bottom row arc closings, per point.

    Raises :class:`InvariantViolation` unless ``p`` is a pairing of its type.
    """
    closes = _per_point((j for _, j in p._replayed_arcs), p.type.n)
    return Tableau2Row(_rows(p.type.a, closes))


def tableau_to_pairing(tb: Tableau2Row) -> NonCrossingPairing:
    """Rebuild the pairing: each closing matches the newest open arc.  Sorted
    rows are a tableau exactly when that :func:`_replay` finds a pairing."""
    top, bottom = tb.rows
    if min(top + bottom, default=0) < 1:
        raise InvariantViolation("not a semistandard two-row tableau")
    n, d = max(top + bottom), len(top) + 1
    # fail as WeightComposition would, degree first, before allocating n counts
    if d >= 2 and n > 2 * d - 2:
        raise InvariantViolation(f"need 2..{2 * d - 2} points, got {n}")
    t = WeightComposition(d, tuple(_per_point(top + bottom, n)) if top else ())
    arcs = _replay(_per_point(top, n), _per_point(bottom, n))
    if arcs is None or list(top) != sorted(top) or list(bottom) != sorted(bottom):
        raise InvariantViolation("not a semistandard two-row tableau")
    return NonCrossingPairing(t, tuple(arcs))


def validate_pairing(p: NonCrossingPairing) -> list[Arc]:
    """Degree, loop-freeness and crossing-freeness of the arc multiset.

    The arcs are non-crossing exactly when they are the :func:`_replay` of
    their own endpoint counts; anything else is a crossing.  Returns the
    replayed arcs, which are ``p.arcs`` sorted.
    """
    n = p.type.n
    for i, j in p.arcs:
        if not 1 <= i < j <= n:
            raise InvariantViolation(f"arc ({i}, {j}) is out of range or a loop")
    opens = _per_point((i for i, _ in p.arcs), n)
    closes = _per_point((j for _, j in p.arcs), n)
    if tuple([o + c for o, c in zip(opens, closes)]) != p.type.a:
        raise InvariantViolation("arc multiplicities do not match the type")
    arcs = _replay(opens, closes)
    if arcs is None or arcs != sorted(p.arcs):
        raise InvariantViolation("arcs are not a non-crossing pairing")
    return arcs


def mirror_graph(
    p: NonCrossingPairing,
) -> tuple[CombinatorialMap, FaceColoring, tuple[int, ...]]:
    """Double the pairing across the circle of points.

    The result is the map made of the real cycle through the n points, the
    upper arcs, and their reflected lower copies.  Point k has valence
    2 a_k + 2, there are 2d faces, and the returned real cycle lists the
    forward dart of each real edge.
    """
    arcs = p._replayed_arcs
    n = p.type.n
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

    opening: list[list[int]] = [[] for _ in range(n + 1)]
    closing: list[list[int]] = [[] for _ in range(n + 1)]
    for t, (i, j) in enumerate(arcs):
        opening[i].append(t)
        closing[j].append(t)
    sigma = [0] * total
    for k in range(1, n + 1):
        east = 2 * (k - 1)
        west = 2 * ((k - 2) % n) + 1
        # forward arcs innermost first: the nearest closing point, and of
        # parallel arcs the latest opened, which the sorted list puts last
        forward = sorted(opening[k], key=lambda t: (arcs[t][1], -t))
        # backward arcs outermost first: the earliest opened, listed first
        backward = closing[k]
        ring = [east]
        ring += [upper + 2 * t for t in forward]
        ring += [upper + 2 * t + 1 for t in backward]
        ring.append(west)
        # lower mirror: reversed relative to the upper half
        ring += [lower + 2 * t + 1 for t in reversed(backward)]
        ring += [lower + 2 * t for t in reversed(forward)]
        for i, dart in enumerate(ring):
            sigma[dart] = ring[(i + 1) % len(ring)]

    # valid as built from a validated pairing: each dart sits in one ring,
    # alpha pairs each edge's darts, and the real cycle connects the points
    m = CombinatorialMap(alpha, sigma, check=False)
    real_cycle = tuple(range(0, 2 * n, 2))
    return m, alternating_coloring(m), real_cycle


def conjugation_involution(
    m: CombinatorialMap, real_cycle: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The reflection fixing the real cycle, or None if there is none.

    A reflection is a dart bijection that commutes with alpha, conjugates
    sigma to its inverse, and fixes every real-cycle dart.  It carries the
    breadth-first numbering of ``(alpha, sigma)`` from the first real-cycle
    dart onto that of ``(alpha, sigma^-1)`` from the same dart, so it exists
    exactly when the two relabeled tuples agree, and is unique.  Its square
    is an automorphism fixing a dart, so on a connected map the identity.
    """
    if not real_cycle:
        return None
    n, root = m.dart_count, real_cycle[:1]
    relabeled, ours = canonical_relabeling((m.alpha, m.sigma), n, root)
    reflected, theirs = canonical_relabeling((m.alpha, inverse(m.sigma)), n, root)
    if relabeled != reflected:
        return None
    back = inverse(theirs)
    iota = tuple([back[ours[x]] for x in range(n)])
    if any(iota[d] != d for d in real_cycle):
        return None
    return iota


def is_real_balanced(m: CombinatorialMap, real_cycle) -> bool:
    """Planar, the real cycle a closed walk through every vertex once, with
    a reflection, and the faces two-colorable.

    The reflection then always swaps the two colors.  It is an automorphism
    of the connected face-adjacency graph, so it keeps or swaps the colors
    as a whole.  Reversing orientation, it sends the face left of a dart d
    to the face left of alpha(iota(d)), and it fixes every real-cycle dart,
    so for d on the real cycle that is the face left of alpha(d): the face
    across d's edge, which an alternating coloring colors differently.
    """
    real_cycle = tuple(real_cycle)
    if real_cycle_order(m, real_cycle) is None:
        return False
    if conjugation_involution(m, real_cycle) is None:
        return False
    try:
        alternating_coloring(m)
    except NotBipartiteFaces:
        return False
    return True


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
    return (alpha, sigma, tuple([relabel[d] for d in real_cycle]))


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
    """Ordered compositions of ``total`` with parts in 1..max_part, in
    lexicographic order: each raises the last part below ``max_part`` with
    parts after it, and turns what those held, less one, into ones."""
    if total < 0 or (total > 0 and max_part < 1):
        return
    parts = [1] * total
    while True:
        yield tuple(parts)
        tail = 0
        while parts and (not tail or parts[-1] == max_part):
            tail += parts.pop()
        if not parts:
            return
        parts[-1] += 1
        parts += [1] * (tail - 1)


def count_coverage_check(d: int) -> list[CoverageRow]:
    """Cross-check pairings, tableaux and K on every composition for degree d.

    All three come from the one close-count table, so this checks the
    conversions built on it, the bijection round trip element by element,
    and that the mirror graphs of distinct pairings stay distinct as
    marked maps.
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
    """The pairing document, formatted directly since its shape is fixed:
    the text :func:`~balancedgraphs._documents.dump` gives for it."""
    a = ",".join(map(str, p.type.a))
    arcs = ",".join([f"[{i},{j}]" for i, j in p.arcs])
    return f'{{"a":[{a}],"arcs":[{arcs}],"n":{p.type.n}}}'


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
    p._replayed_arcs  # raises unless the arcs are a pairing of the type
    return p


def serialize_tableau(tb: Tableau2Row) -> str:
    """The tableau document, formatted directly since its shape is fixed:
    the text :func:`~balancedgraphs._documents.dump` gives for it."""
    top, bottom = tb.rows
    return f'{{"rows":[[{",".join(map(str, top))}],[{",".join(map(str, bottom))}]]}}'
