"""Builders shared by the test modules: rotation input and exhaustive corpora."""

from __future__ import annotations

import functools
import itertools
import random

import balancedgraphs as bg
from balancedgraphs.permutations import compose_chain, inverse, is_transitive

# valence multisets with all corners (parts >= 4) and at most 16 darts;
# exhaustive up to isomorphism within these caps
CORPUS_VALENCES = [(4, 4), (6, 6), (8, 8), (6, 4, 4), (4, 4, 4, 4)]
CORPUS_MAX_FACES = 8


def map_from_rotations(rotations) -> bg.CombinatorialMap:
    """Map from per-vertex cyclic lists of edge names (each name twice)."""
    darts: dict[str, list[int]] = {}
    sigma: list[int] = []
    order: list[str] = []
    for rot in rotations:
        start = len(order)
        for name in rot:
            darts.setdefault(name, []).append(len(order))
            order.append(name)
        k = len(rot)
        sigma.extend(0 for _ in range(k))
        for i in range(k):
            sigma[start + i] = start + (i + 1) % k
    alpha = [0] * len(order)
    for name, ends in darts.items():
        assert len(ends) == 2, f"edge {name} must appear exactly twice"
        alpha[ends[0]], alpha[ends[1]] = ends[1], ends[0]
    return bg.build_map(len(order), alpha, sigma)


def standard_sigma(valences) -> tuple[int, ...]:
    sigma: list[int] = []
    start = 0
    for val in valences:
        for i in range(val):
            sigma.append(start + (i + 1) % val)
        start += val
    return tuple(sigma)


def loopfree_matchings(valences):
    """All fixed-point-free pairings of the darts avoiding same-vertex pairs.

    When all valences agree, the first pairing may be pinned to (0, first
    dart of the second vertex): block rotations and block permutations
    always produce such a representative, so no isomorphism class is lost.
    """
    n = sum(valences)
    blocks: list[int] = []
    for v, val in enumerate(valences):
        blocks.extend([v] * val)
    alpha = [-1] * n

    def rec(d):
        while d < n and alpha[d] != -1:
            d += 1
        if d == n:
            yield alpha
            return
        for e in range(d + 1, n):
            if alpha[e] == -1 and blocks[e] != blocks[d]:
                alpha[d] = e
                alpha[e] = d
                yield from rec(d + 1)
                alpha[d] = -1
                alpha[e] = -1

    if len(set(valences)) == 1 and len(valences) > 1:
        alpha[0] = valences[0]
        alpha[valences[0]] = 0
        yield from rec(1)
    else:
        yield from rec(0)


def _orbit_count(perm) -> int:
    seen = [False] * len(perm)
    count = 0
    for s in range(len(perm)):
        if not seen[s]:
            count += 1
            x = s
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return count


def _connected(alpha, sigma) -> bool:
    n = len(alpha)
    seen = [False] * n
    seen[0] = True
    stack = [0]
    cnt = 1
    while stack:
        d = stack.pop()
        for e in (alpha[d], sigma[d]):
            if not seen[e]:
                seen[e] = True
                cnt += 1
                stack.append(e)
    return cnt == n


def random_rotation_map(rng, valences, loops=True) -> bg.CombinatorialMap:
    """A random connected map with these vertex valences (an even sum), by
    rejection; without ``loops``, no edge joins a vertex to itself."""
    sigma = standard_sigma(valences)
    vertex = [v for v, val in enumerate(valences) for _ in range(val)]
    n = len(sigma)
    while True:
        darts = rng.sample(range(n), n)
        alpha = [0] * n
        for d, e in zip(darts[::2], darts[1::2]):
            alpha[d], alpha[e] = e, d
        if loops or all(vertex[d] != vertex[alpha[d]] for d in range(n)):
            if _connected(alpha, sigma):
                return bg.CombinatorialMap(alpha, sigma)


def globally_balanced_maps(valences, max_faces=CORPUS_MAX_FACES):
    """Every globally balanced map with these valences, up to isomorphism."""
    sigma = standard_sigma(valences)
    seen = set()
    out = []
    for alpha in loopfree_matchings(valences):
        if not _connected(alpha, sigma):
            continue
        phi = [sigma[alpha[d]] for d in range(len(alpha))]
        nf = _orbit_count(phi)
        if nf > max_faces or nf % 2:
            continue
        m = bg.CombinatorialMap._unchecked(tuple(alpha), sigma)
        if not bg.is_globally_balanced(m).ok:
            continue
        key = m.canonical_key()
        if key not in seen:
            seen.add(key)
            out.append(m.canonical())
    return out


def build_gb_corpus():
    maps = []
    for valences in CORPUS_VALENCES:
        maps.extend(globally_balanced_maps(valences))
    return maps


def constellation_classes(max_d=4, max_m=4):
    """All verified constellations with d <= max_d, m <= max_m, one per
    simultaneous-conjugation class."""
    reps = []
    for d in range(1, max_d + 1):
        perms_d = list(itertools.permutations(range(d)))
        for m in range(2, max_m + 1):
            seen = set()
            for pre in itertools.product(perms_d, repeat=m - 1):
                closing = inverse(compose_chain(pre, d))
                perms = pre + (closing,)
                if not is_transitive(perms, d):
                    continue
                key = bg.conjugation_canonical(bg.Constellation(d, perms)).perms
                if key not in seen:
                    seen.add(key)
                    reps.append(bg.Constellation(d, key))
    return reps


def all_mirror_graphs(max_d):
    """(pairing, map, coloring, real_cycle) for every type with d <= max_d."""
    out = []
    for d in range(2, max_d + 1):
        for a in bg.compositions(2 * d - 2, d - 1):
            if not 2 <= len(a) <= 2 * d - 2:
                continue
            t = bg.WeightComposition(d, a)
            for p in bg.enumerate_pairings(t):
                m, coloring, real_cycle = bg.mirror_graph(p)
                out.append((p, m, coloring, real_cycle))
    return out


def cycle_of_length(k):
    """The map of one cycle through ``k`` 2-valent vertices: no corners,
    two faces, the degree-1 covering with ``k`` branch points."""
    n = 2 * k
    sigma = [0] * n
    for i in range(k):
        # vertex i + 1 joins the end of edge i and the start of edge i + 1
        a, b = 2 * i + 1, (2 * i + 2) % n
        sigma[a], sigma[b] = b, a
    return bg.build_map(n, [d ^ 1 for d in range(n)], sigma)


def fixed_point_free_pullback(d, branch_points):
    """Pullback of the first seeded transitive constellation whose
    permutations fix no sheet, so the map has corners only."""
    for seed in range(1000):
        rng = random.Random(seed)
        pre = tuple(tuple(rng.sample(range(d), d)) for _ in range(branch_points - 1))
        perms = pre + (inverse(compose_chain(pre, d)),)
        if is_transitive(perms, d) and all(
            p[s] != s for p in perms for s in range(d)
        ):
            return bg.pullback_from_constellation(bg.Constellation(d, perms))
    raise AssertionError("no fixed-point-free constellation found")


def random_weight_type(rng, d):
    """A random weight type of degree ``d``: 2d - 2 split into 2 .. 2d - 2
    parts, each in 1 .. d - 1."""
    total = 2 * d - 2
    while True:
        n = rng.randint(2, total)
        cuts = sorted(rng.sample(range(1, total), n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if max(parts) <= d - 1:
            return bg.WeightComposition(d, tuple(parts))


def random_pairing(rng, t):
    """A uniformly random non-crossing pairing of weight type ``t``.

    Point k closes some of the newest open arcs and opens the rest of its
    weight; each choice is drawn in proportion to its completions.
    """
    a = t.a

    @functools.lru_cache(maxsize=None)
    def completions(k, open_arcs):
        if k == len(a):
            return int(open_arcs == 0)
        return sum(
            completions(k + 1, open_arcs - c + a[k] - c)
            for c in range(min(a[k], open_arcs) + 1)
        )

    stack = []
    arcs = []
    for k in range(len(a)):
        choices = range(min(a[k], len(stack)) + 1)
        weights = [completions(k + 1, len(stack) - c + a[k] - c) for c in choices]
        closes = rng.choices(choices, weights=weights)[0]
        for _ in range(closes):
            arcs.append((stack.pop(), k + 1))
        stack.extend([k + 1] * (a[k] - closes))
    return bg.NonCrossingPairing(t, tuple(sorted(arcs)))


def _opening_ranks(n, arcs):
    """Rank of each arc by the time it opens, farthest target first at a point."""
    ranks = [0] * len(arcs)
    tick = 0
    for k in range(1, n + 1):
        opening = [t for t, (i, _) in enumerate(arcs) if i == k]
        for t in sorted(opening, key=lambda t: -arcs[t][1]):
            ranks[t] = tick
            tick += 1
    return ranks


def glued_map(upper, lower):
    """Planar map of the circle through the points of one weight type, the
    arcs of pairing ``upper`` above it and those of ``lower`` below.

    With ``lower == upper`` this is the mirror graph.  Real edge k -> k+1
    owns darts (2k, 2k+1); upper arc t owns 2n + 2t at its opening point
    and 2n + 2t + 1 at its closing point; lower arcs follow the same
    scheme shifted by 2 * len(upper.arcs).
    """
    n = upper.type.n
    halves = []
    base = 2 * n
    for p in (upper, lower):
        arcs = sorted(p.arcs)
        halves.append((base, arcs, _opening_ranks(n, arcs)))
        base += 2 * len(arcs)
    alpha = [d ^ 1 for d in range(base)]
    sigma = [0] * base
    (up, up_arcs, up_rank), (low, low_arcs, low_rank) = halves
    for k in range(1, n + 1):
        up_open = [t for t, (i, _) in enumerate(up_arcs) if i == k]
        up_close = [t for t, (_, j) in enumerate(up_arcs) if j == k]
        low_open = [t for t, (i, _) in enumerate(low_arcs) if i == k]
        low_close = [t for t, (_, j) in enumerate(low_arcs) if j == k]
        ring = [2 * (k - 1)]
        ring += [up + 2 * t for t in sorted(up_open, key=lambda t: -up_rank[t])]
        ring += [up + 2 * t + 1 for t in sorted(up_close, key=lambda t: up_rank[t])]
        ring.append(2 * ((k - 2) % n) + 1)
        ring += [low + 2 * t + 1 for t in sorted(low_close, key=lambda t: -low_rank[t])]
        ring += [low + 2 * t for t in sorted(low_open, key=lambda t: low_rank[t])]
        for i, dart in enumerate(ring):
            sigma[dart] = ring[(i + 1) % len(ring)]
    return bg.CombinatorialMap(alpha, sigma)


def random_glued_map(rng, d, subdivide=False):
    """A globally balanced map glued from two random pairings of one random
    type of degree ``d``, or None when the draw is not globally balanced.

    With ``subdivide``, one to three random edges carry one or two 2-valent
    vertices each.
    """
    t = random_weight_type(rng, d)
    m = glued_map(random_pairing(rng, t), random_pairing(rng, t))
    if subdivide:
        edges = rng.sample(range(m.edge_count), min(m.edge_count, rng.randint(1, 3)))
        m = bg.subdivide_edges(m, {e: rng.randint(1, 2) for e in edges})
    return m if bg.is_globally_balanced(m).ok else None


def random_genus_zero_constellation(rng):
    """A random transitive genus-0 constellation (d 2..9, 3..6 branch
    points) one of whose permutations fixes a sheet, by rejection: each
    free permutation is a product of fewer than d random transpositions,
    and the last one closes the product."""
    while True:
        d, m = rng.randint(2, 9), rng.randint(3, 6)
        pre = []
        for _ in range(m - 1):
            p = list(range(d))
            for _ in range(rng.randint(0, d - 1)):
                i, j = rng.sample(range(d), 2)
                p[i], p[j] = p[j], p[i]
            pre.append(tuple(p))
        perms = tuple(pre) + (inverse(compose_chain(pre, d)),)
        c = bg.Constellation(d, perms)
        report = bg.verify_constellation(c)
        fixed = any(p[s] == s for p in perms for s in range(d))
        if report.ok and report.genus == 0 and fixed:
            return c


def random_fixed_point_constellation(rng):
    """A random transitive constellation of genus at least 1 (d 3..8, 3..5
    branch points) one of whose permutations fixes a sheet, by rejection:
    uniformly random permutations, the last one closing the product."""
    while True:
        d, m = rng.randint(3, 8), rng.randint(3, 5)
        pre = [tuple(rng.sample(range(d), d)) for _ in range(m - 1)]
        perms = tuple(pre) + (inverse(compose_chain(pre, d)),)
        report = bg.verify_constellation(bg.Constellation(d, perms))
        fixed = any(p[s] == s for p in perms for s in range(d))
        if report.ok and report.genus >= 1 and fixed:
            return bg.Constellation(d, perms)
