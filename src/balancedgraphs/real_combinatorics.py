"""Non-crossing pairings, two-row tableaux, and mirror graphs.

Points 1..n sit on a circle in cyclic order; a pairing of type (d, a)
joins them by a_k arcs at point k, loop-free, with no two arcs crossing.
These biject with semistandard tableaux of shape 2 x (d-1) and weight a.
Doubling a pairing across the circle produces a globally balanced map
whose vertices all lie on the distinguished real cycle.

A pairing is fixed by how many of its arcs close at each point, each
closing taking the newest open arc.  The arcs open on some pairing before
a point form an interval of counts in steps of two, which one sweep from
each end bounds; the Kostka count is a table over just those counts, so a
long type with few pairings builds a short one, and nothing recurses.
One walk over the close counts lists the tableaux: it offers each point
the counts that keep the open count in bounds, so every branch ends in a
tableau, and extends the rows of the tableau before from the first point
where the counts differ.  Pairings are the stack replay of those rows,
and every check of a pairing or a tableau is the same replay, which keeps
only the opening point of each open arc and returns the sorted arcs.  A
listing is formatted whole, from tables of numerals and arc cells that
live for that one call.
"""

from __future__ import annotations

import math
from itertools import accumulate

from ._documents import is_int_list, load
from ._record import Record, cached
from .errors import InvariantViolation, NotBipartiteFaces, ParseError
from .permutations import canonical_relabeling, inverse
from .surface_map import (
    CombinatorialMap,
    FaceColoring,
    alternating_coloring,
    lists_darts,
    real_cycle_order,
)

Arc = tuple[int, int]


class WeightComposition(Record):
    """Degree d >= 2 with ordered arc multiplicities a_1..a_n."""

    d: int
    a: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.a, (list, tuple)):
            raise InvariantViolation(f"multiplicities {self.a!r} are not a list or tuple")
        self.__dict__["a"] = tuple(self.a)
        if type(self.d) is not int or self.d < 2:
            raise InvariantViolation(f"degree must be at least 2, got {self.d!r}")
        if not 2 <= len(self.a) <= 2 * self.d - 2:
            raise InvariantViolation(f"need 2..{2 * self.d - 2} points, got {len(self.a)}")
        if any(type(x) is not int or not 1 <= x <= self.d - 1 for x in self.a):
            raise InvariantViolation(f"multiplicities must lie in 1..{self.d - 1}")
        if sum(self.a) != 2 * self.d - 2:
            raise InvariantViolation(
                f"multiplicities sum to {sum(self.a)}, expected {2 * self.d - 2}"
            )

    @property
    def n(self) -> int:
        return len(self.a)


class NonCrossingPairing(Record):
    """Arcs (i, j) with i < j, 1-indexed, stored as a sorted multiset."""

    type: WeightComposition
    arcs: tuple[Arc, ...]

    @cached
    def _replayed_arcs(self) -> tuple[Arc, ...]:
        # validated once per pairing; a cached attribute stores no value
        # when its body raises, so an invalid pairing raises on every call
        return tuple(validate_pairing(self))


class Tableau2Row(Record):
    rows: tuple[tuple[int, ...], tuple[int, ...]]


def _open_bounds(a) -> tuple[list[int], list[int]]:
    """``lo[k]``, ``hi[k]``: the fewest and most arcs open before point k + 1
    on a pairing of weight ``a``.  Every count between them of their parity
    is open there on some pairing.

    A point of weight x with m arcs open closes c <= min(m, x) of them and
    leaves m + x - 2c, any count from |m - x| to m + x in steps of 2, and
    the relation is symmetric.  So the counts reachable from the empty
    start form such an interval at each point, as do those the later
    points can close, read from the end; a count is on a pairing exactly
    when it lies in both.
    """

    def reach(weights) -> tuple[list[int], list[int]]:
        lo, hi = [0], [0]
        for x in weights:
            low, high = lo[-1], hi[-1]
            lo.append(max(low - x, x - high, (x - low) % 2))
            hi.append(high + x)
        return lo, hi

    ahead_lo, ahead_hi = reach(a)
    behind_lo, behind_hi = reach(a[::-1])
    return (
        [max(f, b) for f, b in zip(ahead_lo, reversed(behind_lo))],
        [min(f, b) for f, b in zip(ahead_hi, reversed(behind_hi))],
    )


def _completions(a) -> list[list[int]]:
    """``ways[k][i]``: the ways points k+1..n can close the ``lo[k] + 2i``
    arcs opened before them (see :func:`_open_bounds`).

    Row k holds only the open counts some pairing has before point k + 1,
    the states a walk over the close counts can reach.
    """
    lo, hi = _open_bounds(a)
    ways = [[1]] * (len(a) + 1)  # row n: nothing left open, one way
    for k in reversed(range(len(a))):
        x, nxt, base = a[k], ways[k + 1], lo[k + 1]
        # m leaves |m - x| to m + x open in steps of 2; row k + 1 starts at base
        ways[k] = [
            sum(nxt[(max(abs(m - x), base) - base) // 2 : (m + x - base) // 2 + 1])
            for m in range(lo[k], hi[k] + 1, 2)
        ]
    return ways


def _tableau_rows(a):
    """The rows of every tableau of weight ``a``, in increasing order.

    A tableau is fixed by how many arcs close at each point, each closing
    taking the newest open arc: point k sits as often as it opens arcs on
    the top row, and as often as it closes arcs on the bottom row.  The
    walk offers point k + 1 the close counts that leave an open count
    :func:`_open_bounds` allows, so every branch it enters ends in a
    tableau; the last point closes all its arcs.  Each tableau extends the
    rows of the one before from the first point where their counts differ.
    The same two lists are yielded every time, changed in place.
    """
    lo, hi = _open_bounds(a)
    n = len(a)
    prefix = list(accumulate(a, initial=0))
    top: list[int] = []
    bottom: list[int] = []
    opened = [0] * n  # arcs open before point k + 1
    closes = [0] * n  # the count point k + 1 takes
    most = [0] * n  # the largest count point k + 1 may take
    final = [n] * a[-1]  # point n closes all its arcs
    k = c = 0
    while True:
        m = opened[k]
        while k < n - 2:
            x = a[k]
            closes[k] = c
            t = (prefix[k] + m) >> 1  # entries of points 1..k on top
            top[t:] = [k + 1] * (x - c)
            bottom[prefix[k] - t :] = [k + 1] * c
            k += 1
            m += x - c - c
            opened[k] = m
            x = a[k]
            # the counts up to min(m, x) leaving from hi[k + 1] down to
            # lo[k + 1] open; conditionals cost less here than min and max
            c = (m + x - hi[k + 1]) >> 1
            if c < 0:
                c = 0
            top_c = (m + x - lo[k + 1]) >> 1
            most[k] = top_c if top_c < m and top_c < x else (m if m < x else x)
        # point n - 1 leaves open the arcs point n closes
        t = (prefix[k] + m) >> 1
        top[t:] = [n - 1] * (a[k] - c)
        bottom[prefix[k] - t :] = [n - 1] * c
        bottom += final
        yield top, bottom
        while k:
            k -= 1
            if closes[k] < most[k]:
                c = closes[k] + 1
                break
        else:
            return


def _replay(top, bottom) -> list[Arc] | None:
    """Arcs opening at the points of ``top`` and closing at those of
    ``bottom``, both sorted.

    At each point the closings take the newest open arcs, then the point's
    own arcs open.  Returns the arcs (i, j) sorted, or None when a closing
    finds no open arc or arcs are left open.
    """
    stack: list[int] = []  # the opening point of each open arc, newest last
    arcs: list[Arc] = []
    t, opens = 0, len(top)
    for j in bottom:
        while t < opens and top[t] < j:
            stack.append(top[t])
            t += 1
        if not stack:
            return None
        arcs.append((stack.pop(), j))
    if stack or t < opens:
        return None
    arcs.sort()
    return arcs


def _per_point(points, n: int) -> list[int]:
    """How often each of the points 1..n occurs in ``points``."""
    counts = [0] * n
    for x in points:
        counts[x - 1] += 1
    return counts


def enumerate_pairings(t: WeightComposition) -> list[NonCrossingPairing]:
    """All pairings of the given type, sorted lexicographically: the
    :func:`_replay` of each tableau's rows."""
    found = [tuple(_replay(top, bottom)) for top, bottom in _tableau_rows(t.a)]
    found.sort()
    return [NonCrossingPairing(t, arcs) for arcs in found]


def enumerate_ssyt(t: WeightComposition) -> list[Tableau2Row]:
    """All two-row tableaux of the given type, sorted by rows: openings on
    top, closings below.  A larger close count at the first point where two
    vectors differ means a larger top row, so the walk's order is the rows'.
    """
    return [Tableau2Row((tuple(top), tuple(bottom))) for top, bottom in _tableau_rows(t.a)]


def kostka(t: WeightComposition) -> int:
    """Tableau count: the completions of the empty stack before point 1."""
    return _completions(t.a)[0][0]


def catalan(d: int) -> int:
    """The count for the all-ones weight: binom(2d-2, d-1) / d."""
    if type(d) is not int or d < 1:
        raise InvariantViolation(f"degree must be positive, got {d!r}")
    return math.comb(2 * d - 2, d - 1) // d


def pairing_to_tableau(p: NonCrossingPairing) -> Tableau2Row:
    """Top row lists arc openings, bottom row arc closings, per point.

    Raises :class:`InvariantViolation` unless ``p`` is a pairing of its type.
    """
    arcs = p._replayed_arcs
    return Tableau2Row((tuple([i for i, _ in arcs]), tuple(sorted([j for _, j in arcs]))))


def tableau_to_pairing(tb: Tableau2Row) -> NonCrossingPairing:
    """Rebuild the pairing: each closing matches the newest open arc.  Sorted
    rows are a tableau exactly when that :func:`_replay` finds a pairing."""
    top, bottom = tb.rows
    if any(type(x) is not int for x in top + bottom) or min(top + bottom, default=0) < 1:
        raise InvariantViolation("not a semistandard two-row tableau")
    n, d = max(top + bottom), len(top) + 1
    # fail as WeightComposition would, degree first, before allocating n counts
    if d >= 2 and n > 2 * d - 2:
        raise InvariantViolation(f"need 2..{2 * d - 2} points, got {n}")
    t = WeightComposition(d, tuple(_per_point(top + bottom, n)) if top else ())
    arcs = _replay(top, bottom)
    if arcs is None or list(top) != sorted(top) or list(bottom) != sorted(bottom):
        raise InvariantViolation("not a semistandard two-row tableau")
    return NonCrossingPairing(t, tuple(arcs))


def validate_pairing(p: NonCrossingPairing) -> list[Arc]:
    """Degree, loop-freeness and crossing-freeness of the arc multiset,
    each arc a tuple ``(i, j)`` of integers with ``1 <= i < j <= n``.

    The arcs are non-crossing exactly when they are the :func:`_replay` of
    their own sorted endpoints; anything else is a crossing.  Returns the
    replayed arcs, which are ``p.arcs`` sorted.
    """
    n = p.type.n
    for arc in p.arcs:
        i, j = arc if type(arc) is tuple and len(arc) == 2 else (None, None)
        if type(i) is not int or type(j) is not int or not 1 <= i < j <= n:
            raise InvariantViolation(f"arc {arc!r} must be two points i < j of 1..{n}")
    top = sorted([i for i, _ in p.arcs])
    bottom = sorted([j for _, j in p.arcs])
    if tuple(_per_point(top + bottom, n)) != p.type.a:
        raise InvariantViolation("arc multiplicities do not match the type")
    arcs = _replay(top, bottom)
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
    alpha = [x ^ 1 for x in range(total)]

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
    m = CombinatorialMap._unchecked(tuple(alpha), tuple(sigma))
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
    Raises :class:`InvariantViolation` unless ``real_cycle`` lists dart ids.
    """
    if not lists_darts(m, real_cycle):
        raise InvariantViolation("real_cycle must list dart ids")
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
    by the relabeled real cycle.  Raises :class:`InvariantViolation`
    unless ``real_cycle`` is a nonempty list of dart ids.
    """
    real_cycle = tuple(real_cycle)
    if not real_cycle or not lists_darts(m, real_cycle):
        raise InvariantViolation("real_cycle must be a nonempty list of dart ids")
    (alpha, sigma), relabel = canonical_relabeling(
        (m.alpha, m.sigma), m.dart_count, (real_cycle[0],)
    )
    return (alpha, sigma, tuple([relabel[d] for d in real_cycle]))


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


class _TextTable(dict):
    """The text of each key, formatted on its first use.  A table lives for
    one listing, so the keys of one call never reach the next."""

    def __init__(self, form):
        super().__init__()
        self.form = form

    def __missing__(self, key):
        text = self[key] = self.form(key)
        return text


def format_pairings(pairings) -> str:
    """The pairing documents, one line each, formatted directly since their
    shape is fixed: the text :func:`~balancedgraphs._documents.dump` gives
    for each.  Arc cells come from one table per call, and the text around
    them is formatted once per run of pairings of one type."""
    cell = _TextTable(lambda arc: f"[{arc[0]},{arc[1]}]").__getitem__
    lines = []
    t = None
    for p in pairings:
        if p.type is not t:
            t = p.type
            head = f'{{"a":[{",".join(map(str, t.a))}],"arcs":['
            tail = f'],"n":{t.n}}}\n'
        lines.append(head + ",".join(map(cell, p.arcs)) + tail)
    return "".join(lines)


def serialize_pairing(p: NonCrossingPairing) -> str:
    """The pairing document: its line of :func:`format_pairings`."""
    return format_pairings([p])[:-1]


def deserialize_pairing(text: str) -> NonCrossingPairing:
    doc = load(text, "pairing", ("n", "a", "arcs"))
    n, a, arcs = doc["n"], doc["a"], doc["arcs"]
    if type(n) is not int or not is_int_list(a, n):
        raise ParseError("field n must be an integer, a one integer multiplicity per point")
    if not isinstance(arcs, list) or not all(is_int_list(arc, 2) for arc in arcs):
        raise ParseError("field arcs must list pairs of integer points")
    d = (sum(a) + 2) // 2
    t = WeightComposition(d, tuple(a))
    arcs = tuple(sorted(tuple(arc) for arc in arcs))
    p = NonCrossingPairing(t, arcs)
    p._replayed_arcs  # raises unless the arcs are a pairing of the type
    return p


def format_tableaux(tableaux) -> str:
    """The tableau documents, one line each, formatted directly since their
    shape is fixed: the text :func:`~balancedgraphs._documents.dump` gives
    for each.  Numerals come from one table per call."""
    numeral = _TextTable(str).__getitem__
    lines = []
    for tb in tableaux:
        top, bottom = tb.rows
        top, bottom = ",".join(map(numeral, top)), ",".join(map(numeral, bottom))
        lines.append(f'{{"rows":[[{top}],[{bottom}]]}}\n')
    return "".join(lines)


def serialize_tableau(tb: Tableau2Row) -> str:
    """The tableau document: its line of :func:`format_tableaux`."""
    return format_tableaux([tb])[:-1]
