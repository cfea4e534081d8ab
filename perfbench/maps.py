"""The benchmark's own combinatorics: input generators and output oracles.

Nothing here imports the library, so the oracles share no code with what
is timed.  Conventions follow the library's documented ones: maps are
one-line ``alpha``/``sigma`` on darts 0..n-1, vertices and faces are the
orbits of ``sigma`` and ``sigma o alpha`` numbered by their smallest dart,
and the alternating coloring puts the face left of dart 0 in A.
"""

from __future__ import annotations

import random


def orbits(perm) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        out.append(tuple(cyc))
    return out


def index_of(orbit_list, n: int) -> list[int]:
    out = [0] * n
    for i, orbit in enumerate(orbit_list):
        for x in orbit:
            out[x] = i
    return out


class MapView:
    """Vertices, faces and edges of a rotation system given as two lists."""

    def __init__(self, alpha, sigma):
        self.alpha = list(alpha)
        self.sigma = list(sigma)
        n = len(self.alpha)
        self.vertices = orbits(self.sigma)
        self.faces = orbits([self.sigma[self.alpha[d]] for d in range(n)])
        self.vertex_of = index_of(self.vertices, n)
        self.face_of = index_of(self.faces, n)
        self.edges = [(d, self.alpha[d]) for d in range(n) if d < self.alpha[d]]

    def genus(self) -> int:
        chi = len(self.vertices) - len(self.edges) + len(self.faces)
        return (2 - chi) // 2

    def alternating_colors(self) -> list[str] | None:
        """Face colors with the face of dart 0 in A, or None if impossible."""
        adjacency = [[] for _ in self.faces]
        for d, e in self.edges:
            adjacency[self.face_of[d]].append(self.face_of[e])
            adjacency[self.face_of[e]].append(self.face_of[d])
        colors = [None] * len(self.faces)
        colors[self.face_of[0]] = "A"
        stack = [self.face_of[0]]
        while stack:
            f = stack.pop()
            other = "B" if colors[f] == "A" else "A"
            for g in adjacency[f]:
                if colors[g] is None:
                    colors[g] = other
                    stack.append(g)
                elif colors[g] == colors[f]:
                    return None
        return colors

    def globally_balanced(self) -> bool:
        """Loop-free, no corner twice on a face, equal A and B face counts."""
        colors = self.alternating_colors()
        if colors is None:
            return False
        if any(self.vertex_of[d] == self.vertex_of[e] for d, e in self.edges):
            return False
        corners = {v for v, orbit in enumerate(self.vertices) if len(orbit) > 2}
        for face in self.faces:
            on_face = [self.vertex_of[d] for d in face if self.vertex_of[d] in corners]
            if len(on_face) != len(set(on_face)):
                return False
        return colors.count("A") == colors.count("B")

    def region_balance(self, colors, face_set) -> tuple[int, int] | None:
        """(A count, B count) if ``face_set`` is a region under ``colors``.

        A region is a proper nonempty face set, connected through interior
        edges, whose every boundary edge has its A side inside and whose
        boundary meets each vertex in 0 or 2 edge ends.
        """
        inside = set(face_set)
        if not inside or len(inside) >= len(self.faces):
            return None
        if any(not 0 <= f < len(self.faces) for f in inside):
            return None
        ends: dict[int, int] = {}
        links = {f: [] for f in inside}
        for d, e in self.edges:
            f, g = self.face_of[d], self.face_of[e]
            if (f in inside) == (g in inside):
                if f in inside:
                    links[f].append(g)
                    links[g].append(f)
                continue
            if colors[f if f in inside else g] != "A":
                return None
            for x in (d, e):
                ends[self.vertex_of[x]] = ends.get(self.vertex_of[x], 0) + 1
        if any(c != 2 for c in ends.values()):
            return None
        start = next(iter(inside))
        seen = {start}
        stack = [start]
        while stack:
            for g in links[stack.pop()]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        if seen != inside:
            return None
        a = sum(1 for f in inside if colors[f] == "A")
        return a, len(inside) - a


def random_composition(rng: random.Random, d: int, n: int) -> tuple[int, ...]:
    """Uniform composition of 2d-2 into n parts, each part in 1..d-1."""
    while True:
        cuts = sorted(rng.sample(range(1, 2 * d - 2), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [2 * d - 2])]
        if max(parts) <= d - 1:
            return tuple(parts)


def pairing_count(a) -> int:
    """Number of non-crossing pairings of weight type ``a``."""
    table = _completions(tuple(a))
    return table[0].get(0, 0)


def _completions(a) -> list[dict[int, int]]:
    # table[k][open] = completions from point k with ``open`` arcs pending
    n = len(a)
    table: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    table[n] = {0: 1}
    for k in range(n - 1, -1, -1):
        for open_arcs in range(0, sum(a[:k]) + 1):
            total = 0
            for closes in range(min(a[k], open_arcs) + 1):
                total += table[k + 1].get(open_arcs - closes + a[k] - closes, 0)
            if total:
                table[k][open_arcs] = total
    return table


def random_pairing(rng: random.Random, a) -> tuple[tuple[int, int], ...]:
    """Uniform non-crossing pairing of weight type ``a`` (1-indexed arcs).

    Point k closes some arcs against the newest open ones and opens the
    rest; the number closed at each point determines the pairing, so
    sampling that number by completion counts is uniform.
    """
    a = tuple(a)
    table = _completions(a)
    stack: list[int] = []
    arcs = []
    for k in range(len(a)):
        weights = [
            table[k + 1].get(len(stack) - c + a[k] - c, 0)
            for c in range(min(a[k], len(stack)) + 1)
        ]
        closes = rng.choices(range(len(weights)), weights=weights)[0]
        for _ in range(closes):
            arcs.append((stack.pop(), k + 1))
        stack.extend([k + 1] * (a[k] - closes))
    return tuple(sorted(arcs))


def _open_ranks(n: int, arcs) -> list[int]:
    """Rank of each arc (in sorted order) by the time its opening is read.

    Arcs sharing an opening point are opened farthest target first, so the
    newest open arc is always the next to close.
    """
    ranks = [0] * len(arcs)
    tick = 0
    for k in range(1, n + 1):
        opening = [t for t, (i, _) in enumerate(arcs) if i == k]
        for t in sorted(opening, key=lambda t: -arcs[t][1]):
            ranks[t] = tick
            tick += 1
    return ranks


def glued_map(a, upper, lower) -> tuple[list[int], list[int]]:
    """Planar map: the circle through n points, ``upper`` arcs above it and
    ``lower`` arcs below.  With ``lower == upper`` this is the mirror graph.

    Real edge k -> k+1 owns darts (2k, 2k+1); upper arc t owns 2n + 2t at
    its opening point and 2n + 2t + 1 at its closing point; lower arcs use
    the same scheme shifted by 2 * len(upper).
    """
    n = len(a)
    upper = sorted(upper)
    lower = sorted(lower)
    up_rank = _open_ranks(n, upper)
    low_rank = _open_ranks(n, lower)
    up_base = 2 * n
    low_base = 2 * n + 2 * len(upper)
    total = low_base + 2 * len(lower)
    alpha = [d ^ 1 for d in range(total)]
    sigma = [0] * total
    for k in range(1, n + 1):
        up_open = [t for t, (i, _) in enumerate(upper) if i == k]
        up_close = [t for t, (_, j) in enumerate(upper) if j == k]
        low_open = [t for t, (i, _) in enumerate(lower) if i == k]
        low_close = [t for t, (_, j) in enumerate(lower) if j == k]
        ring = [2 * (k - 1)]
        ring += [up_base + 2 * t for t in sorted(up_open, key=lambda t: -up_rank[t])]
        ring += [up_base + 2 * t + 1 for t in sorted(up_close, key=lambda t: up_rank[t])]
        ring.append(2 * ((k - 2) % n) + 1)
        ring += [low_base + 2 * t + 1 for t in sorted(low_close, key=lambda t: -low_rank[t])]
        ring += [low_base + 2 * t for t in sorted(low_open, key=lambda t: low_rank[t])]
        for i, dart in enumerate(ring):
            sigma[dart] = ring[(i + 1) % len(ring)]
    return alpha, sigma


def map_document(alpha, sigma) -> str:
    return '{"alpha":%s,"darts":%d,"sigma":%s}' % (
        _compact(alpha), len(alpha), _compact(sigma)
    )


def _compact(values) -> str:
    return "[" + ",".join(map(str, values)) + "]"


def cycle_type(perm) -> tuple[int, ...]:
    return tuple(sorted((len(c) for c in orbits(perm)), reverse=True))


def rh_genus(d: int, types) -> int:
    """Riemann-Hurwitz: 2 - 2g = 2d - total branching."""
    branching = sum(length - 1 for t in types for length in t)
    return (2 - (2 * d - branching)) // 2


def transitive(perms, d: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for p in perms:
            if p[x] not in seen:
                seen.add(p[x])
                stack.append(p[x])
    return len(seen) == d


def random_constellation(rng: random.Random, d: int, m: int) -> list[list[int]]:
    """Random transitive tuple of m permutations of 0..d-1 with p0 p1 ... = 1.

    The last m - 1 are uniform; the first is the inverse of their product
    (the last factor acts first, as in the library).
    """
    while True:
        rest = [rng.sample(range(d), d) for _ in range(m - 1)]
        product = list(range(d))
        for p in rest:
            product = [product[p[x]] for x in range(d)]
        first = [0] * d
        for x, y in enumerate(product):
            first[y] = x
        perms = [first] + rest
        if transitive(perms, d):
            return perms


def constellation_document(d: int, perms) -> str:
    return '{"d":%d,"perms":[%s]}' % (
        d, ",".join(_compact([x + 1 for x in p]) for p in perms)
    )
