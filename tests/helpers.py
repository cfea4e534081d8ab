"""Builders shared by the test modules: rotation input and exhaustive corpora."""

from __future__ import annotations

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
        m = bg.CombinatorialMap(tuple(alpha), sigma, check=False)
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
