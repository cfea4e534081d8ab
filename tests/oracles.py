"""Independent slow checkers the library results are compared against."""

from __future__ import annotations

import sys
from collections import deque
from itertools import accumulate, combinations, permutations

import balancedgraphs as bg
from balancedgraphs import (
    CombinatorialMap,
    DotGraph,
    DotMatching,
    FaceColoring,
    InconsistentPropagation,
    VertexLabeling,
    admissible_labeling,
    alternating_coloring,
    dot_graph,
    enrich,
)
from balancedgraphs import cli
from balancedgraphs._documents import dump


def region_invariants_hold(m, coloring, face_set) -> bool:
    """Direct re-statement of the region conditions, no shared code paths."""
    inside = set(face_set)
    if not inside or len(inside) >= m.face_count:
        return False
    fod = m.face_of_dart
    vod = m.vertex_of_dart
    boundary_ends: dict[int, int] = {}
    for d, e in m.edges:
        sides = (fod[d] in inside, fod[e] in inside)
        if sides[0] == sides[1]:
            continue
        inside_dart = d if sides[0] else e
        if coloring.color(fod[inside_dart]) != bg.COLOR_A:
            return False
        boundary_ends[vod[d]] = boundary_ends.get(vod[d], 0) + 1
        boundary_ends[vod[e]] = boundary_ends.get(vod[e], 0) + 1
    if any(c != 2 for c in boundary_ends.values()):
        return False
    # connectivity through edges interior to the set
    start = next(iter(inside))
    seen = {start}
    stack = [start]
    while stack:
        f = stack.pop()
        for d, e in m.edges:
            pair = {fod[d], fod[e]}
            if f in pair and pair <= inside:
                for g in pair:
                    if g not in seen:
                        seen.add(g)
                        stack.append(g)
    return seen == inside


def brute_force_regions(m, coloring):
    """Every face subset passing the region invariants, as sorted tuples."""
    out = []
    faces = range(m.face_count)
    for size in range(1, m.face_count):
        for subset in combinations(faces, size):
            if region_invariants_hold(m, coloring, subset):
                out.append(subset)
    return sorted(out)


def brute_force_locally_balanced(m, coloring) -> bool:
    for col in (coloring, coloring.flip()):
        for subset in brute_force_regions(m, col):
            a = sum(1 for f in subset if col.color(f) == bg.COLOR_A)
            if a <= len(subset) - a:
                return False
    return True


def face_subset_hall_ok(m, coloring) -> bool:
    """Hall condition checked over subsets of B faces directly.

    Dots in one face share their neighborhood, so it is enough to compare
    dot totals of B-face subsets against their collected A neighbors.
    """
    corners = set(m.corners)
    total = len(corners)
    vod = m.vertex_of_dart
    counts = [
        total - len({vod[d] for d in face} & corners) for face in m.faces
    ]
    neighbors: list[set[int]] = [set() for _ in range(m.face_count)]
    for f, g, _ in bg.face_adjacency(m):
        if f != g:
            neighbors[f].add(g)
            neighbors[g].add(f)
    b_faces = coloring.faces_of(bg.COLOR_B)
    for size in range(1, len(b_faces) + 1):
        for subset in combinations(b_faces, size):
            need = sum(counts[f] for f in subset)
            have = sum(counts[g] for g in set().union(*(neighbors[f] for f in subset)))
            if have < need:
                return False
    return True


def is_generic_thurston(m) -> bool:
    """Planar, 4-regular, with 2d - 2 vertices for d = F/2."""
    if m.genus() != 0 or m.face_count % 2 != 0:
        return False
    d = m.face_count // 2
    if any(val != 4 for val in m.vertex_valences):
        return False
    return m.vertex_count == 2 * d - 2


def thurston_single_cycle_balanced(m, coloring) -> bool:
    """The single-cycle condition for planar maps, both colorings.

    Positive cycles are vertex-simple directed cycles of darts whose left
    face is A colored; the faces flooded from those left faces without
    crossing the cycle must hold strictly more A than B faces.
    """
    assert m.genus() == 0
    vod, fod = m.vertex_of_dart, m.face_of_dart
    adjacency = bg.face_adjacency(m)
    for col in (coloring, coloring.flip()):
        outgoing: dict[int, list[int]] = {}
        for d in range(m.dart_count):
            if col.color(fod[d]) == bg.COLOR_A:
                outgoing.setdefault(vod[d], []).append(d)
        cycles: list[list[int]] = []

        def search(start, v, path, visited):
            for d in outgoing.get(v, ()):
                w = vod[m.alpha[d]]
                if w == start:
                    cycles.append(path + [d])
                elif w > start and w not in visited:
                    search(start, w, path + [d], visited | {w})

        for start in range(m.vertex_count):
            search(start, start, [], {start})
        for cyc in cycles:
            cyc_edges = {m.edge_of_dart[d] for d in cyc}
            inside = {fod[d] for d in cyc}
            stack = list(inside)
            while stack:
                f = stack.pop()
                for g, h, e in adjacency:
                    if e in cyc_edges:
                        continue
                    if g == f and h not in inside:
                        inside.add(h)
                        stack.append(h)
                    elif h == f and g not in inside:
                        inside.add(g)
                        stack.append(g)
            a = sum(1 for f in inside if col.color(f) == bg.COLOR_A)
            if a <= len(inside) - a:
                return False
    return True


def rarest_class_roots(m):
    """The roots the canonical form starts from, read off the vertices.

    Every dart when every vertex is 2-valent.  Otherwise each dart at
    another vertex is classed by the number of 2-valent vertices its run
    passes, the valence of its vertex and the length of its face; the
    roots are the darts of the class with the fewest darts, the least
    class on a tie.  A run crosses the edge of its dart and, at each
    2-valent vertex it reaches, leaves by the vertex's other dart.
    """
    n = m.dart_count
    vertices, vertex = m.vertices, m.vertex_of_dart
    valence = [m.vertex_valences[v] for v in vertex]
    if all(k == 2 for k in valence):
        return list(range(n))
    face_length = {d: len(face) for face in m.faces for d in face}
    classes = {}
    for e in range(n):
        if valence[e] == 2:
            continue
        d, passed = m.alpha[e], 0
        while valence[d] == 2:
            (other,) = set(vertices[vertex[d]]) - {d}
            d, passed = m.alpha[other], passed + 1
        classes.setdefault((passed, valence[e], face_length[e]), []).append(e)
    rarest = min(classes, key=lambda key: (len(classes[key]), key))
    return sorted(classes[rarest])


def all_roots_canonical(m):
    """Least breadth-first relabeling of a map over every root of
    ``rarest_class_roots``, unpruned.

    Returns the canonical key ``(alpha, sigma)`` and the dart map of the
    first root reaching it.  From a root, darts are numbered in the order
    a breadth-first search reaches them through alpha, then sigma.
    """
    n = m.dart_count
    best = None
    best_map = None
    for root in rarest_class_roots(m):
        new = [-1] * n
        new[root] = 0
        order = [root]
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            for e in (m.alpha[d], m.sigma[d]):
                if new[e] < 0:
                    new[e] = len(order)
                    order.append(e)
        alpha = [0] * n
        sigma = [0] * n
        for d in range(n):
            alpha[new[d]] = new[m.alpha[d]]
            sigma[new[d]] = new[m.sigma[d]]
        key = (tuple(alpha), tuple(sigma))
        if best is None or key < best:
            best = key
            best_map = tuple(new)
    return best, best_map


def sequential_canonical_relabeling(perms, n, roots):
    """Least breadth-first relabeling, every root searched in turn.

    The library routine without leader pausing or orbit pruning: roots
    are tried in the given order, each from a fresh label array,
    and a root is abandoned once its partial ``perms[0]`` exceeds the
    best one; a root completing its search is relabeled in full and
    compared as a tuple.  Raises ``Disconnected`` when the first root's
    search covers fewer than n points.
    """
    if n == 0:
        return tuple(() for _ in perms), ()
    first = perms[0] if perms else None
    best = None
    best_first = None
    best_relabeling = None
    for root in roots:
        new = [-1] * n
        new[root] = 0
        order = [root]
        tied = best_first is not None  # equal to the best perms[0] so far
        i = 0
        while i < len(order):
            x = order[i]
            for p in perms:
                y = p[x]
                if new[y] < 0:
                    new[y] = len(order)
                    order.append(y)
            if tied:
                code, code_best = new[first[x]], best_first[i]
                if code > code_best:
                    break
                tied = code == code_best
            i += 1
        else:
            if len(order) < n:
                raise bg.Disconnected(f"not transitive on {n} points")
            candidate = tuple(tuple(new[p[x]] for x in order) for p in perms)
            if best is None or candidate < best:
                best, best_relabeling = candidate, new
                best_first = best[0] if perms else None
    return best, tuple(best_relabeling)


def factorial_conjugation_canonical(c):
    """Least permutation tuple over all d! simultaneous sheet relabelings."""
    best = None
    for relabel in permutations(range(c.d)):
        inv = [0] * c.d
        for i, x in enumerate(relabel):
            inv[x] = i
        candidate = tuple(tuple(relabel[p[s]] for s in inv) for p in c.perms)
        if best is None or candidate < best:
            best = candidate
    return best


def enumerated_balance_report(m, coloring):
    """Local-balance report from the full region enumeration.

    Lists every region of the coloring, then of the flipped one, in sorted
    face order and takes the first with at most as many A as B faces.
    Returns ``(locally balanced, violation faces, (A count, B count),
    violation on flipped, reason)``.
    """
    gb = bg.is_globally_balanced(m, coloring)
    if not gb.ok:
        return False, None, None, False, gb.reason
    for flipped, col in ((False, coloring), (True, coloring.flip())):
        for region in bg.positive_regions(m, col):
            if region.a_count <= region.b_count:
                return (
                    False,
                    region.sorted_faces(),
                    (region.a_count, region.b_count),
                    flipped,
                    f"region with {region.a_count} A faces and "
                    f"{region.b_count} B faces",
                )
    return True, None, None, False, None


def counted_global_balance(m, coloring=None):
    """``is_globally_balanced`` restated from its definition: the coloring
    spread over the arcs of ``face_adjacency`` until nothing changes, the
    structural defects read off the darts, and each color counted with
    ``faces_of``."""
    if coloring is None:
        arcs = bg.face_adjacency(m)
        colors = {m.face_of_dart[0]: bg.COLOR_A}
        grown = True
        while grown:
            grown = False
            for f, g, _ in arcs:
                for x, y in ((f, g), (g, f)):
                    if x in colors and y not in colors:
                        colors[y] = bg.COLOR_B if colors[x] == bg.COLOR_A else bg.COLOR_A
                        grown = True
        if any(colors[f] == colors[g] for f, g, _ in arcs):
            return bg.GlobalBalance(False, None, "no alternating face coloring exists")
        coloring = bg.FaceColoring(tuple(colors[f] for f in range(m.face_count)))
    vod = m.vertex_of_dart
    if m.corners and any(vod[d] == vod[e] for d, e in m.edges):
        return bg.GlobalBalance(False, None, "the graph has a loop")
    for face in m.faces:
        seen = []
        for d in face:
            v = vod[d]
            if m.vertex_valences[v] > 2:
                if v in seen:
                    return bg.GlobalBalance(False, None, f"corner {v} is incident twice to a face")
                seen.append(v)
    a = len(coloring.faces_of(bg.COLOR_A))
    b = len(coloring.faces_of(bg.COLOR_B))
    if a != b:
        return bg.GlobalBalance(False, None, f"{a} A faces versus {b} B faces")
    return bg.GlobalBalance(True, a)


def recursive_maximum_matching(dg):
    """Kuhn's augmenting paths by recursion; B dot to A dot assignment."""
    a_by_face = {}
    for dot in dg.dots_a:
        a_by_face.setdefault(dot[0], []).append(dot)
    match_a = {}
    match_b = {}

    def augment(b, visited):
        for g in dg.face_neighbors[b[0]]:
            for a in a_by_face.get(g, ()):
                if a in visited:
                    continue
                visited.add(a)
                if a not in match_a or augment(match_a[a], visited):
                    match_a[a] = b
                    match_b[b] = a
                    return True
        return False

    for b in dg.dots_b:
        augment(b, set())
    return match_b


def alternating_hall_witness(dg, match_b):
    """B dots reached by alternating paths from the B dots a maximum
    matching leaves unmatched, sorted; () when it matches every B dot."""
    unmatched = [b for b in dg.dots_b if b not in match_b]
    if not unmatched:
        return ()
    match_a = {a: b for b, a in match_b.items()}
    reach_b = set(unmatched)
    reach_a = set()
    frontier = list(unmatched)
    while frontier:
        b = frontier.pop()
        for a in dg.dots_a:
            if a[0] not in dg.face_neighbors[b[0]] or a in reach_a:
                continue
            reach_a.add(a)
            partner = match_a.get(a)
            if partner is not None and partner not in reach_b:
                reach_b.add(partner)
                frontier.append(partner)
    return tuple(sorted(reach_b))


def dict_hall_flow(dg: DotGraph) -> tuple[tuple[int, ...], dict[int, dict[int, int]]]:
    """Maximum flow from B faces to edge-adjacent A faces, dot counts as
    capacities; returns the B faces of the Hall witness, () if there is
    none, and the flow as ``inflow[A face][B face]``.

    Dots of one face share their neighborhood, so this flow saturates
    every B face exactly when the dot graph matches every B dot.  Paths
    are found breadth-first from all B faces with supply left at once
    (Edmonds-Karp).  When none remains, the B faces reachable in the
    residual graph from unsent supply form the witness: by
    Dulmage-Mendelsohn they carry exactly the B dots an alternating
    search from the unmatched dots of any maximum matching reaches.
    (The library's flow before it kept its tables in lists by face.)
    """
    supply = {f: dg.dot_counts[f] for f in dg.b_faces}
    room = {g: dg.dot_counts[g] for g in dg.a_faces}
    out = {f: [g for g in dg.face_neighbors[f] if g in room] for f in supply}
    inflow: dict[int, dict[int, int]] = {g: {} for g in room}
    while True:
        parent: dict[int, int | None] = {f: None for f, s in supply.items() if s}
        queue = deque(parent)
        end = None
        while queue and end is None:
            f = queue.popleft()
            for g in out[f]:
                if g in parent:
                    continue
                parent[g] = f
                if room[g]:
                    end = g
                    break
                for h in inflow[g]:
                    if h not in parent:
                        parent[h] = g
                        queue.append(h)
        if end is None:
            return tuple(sorted(f for f in parent if f in supply)), inflow
        path = [end]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()  # B, A, B, A, ..., A
        amount = min(supply[path[0]], room[end])
        for i in range(1, len(path) - 1, 2):
            amount = min(amount, inflow[path[i]][path[i + 1]])
        supply[path[0]] -= amount
        room[end] -= amount
        for i in range(0, len(path), 2):
            b, a = path[i], path[i + 1]
            inflow[a][b] = inflow[a].get(b, 0) + amount
            if i:
                back = inflow[path[i - 1]]
                back[b] -= amount
                if not back[b]:
                    del back[b]


def recursive_perfect_matchings(dg):
    """Face-pair count matrices of the perfect matchings, as dicts, by
    nested recursive generators (the search the library once used)."""
    a_faces = list(dg.a_faces)
    b_remaining = {f: dg.dot_counts[f] for f in dg.b_faces}
    counts = dg.dot_counts

    def distribute(i, allocation):
        if i == len(a_faces):
            if all(v == 0 for v in b_remaining.values()):
                yield dict(allocation)
            return
        f = a_faces[i]
        targets = [g for g in dg.face_neighbors[f] if b_remaining.get(g, 0) > 0]

        def split(need, t):
            if t == len(targets):
                if need == 0:
                    yield from distribute(i + 1, allocation)
                return
            g = targets[t]
            top = min(need, b_remaining[g])
            for take in range(top + 1):
                if take:
                    allocation[(f, g)] = take
                    b_remaining[g] -= take
                yield from split(need - take, t + 1)
                if take:
                    del allocation[(f, g)]
                    b_remaining[g] += take

        yield from split(counts[f], 0)

    yield from distribute(0, {})


def iter_perfect_matchings(dg: DotGraph):
    """Yield one perfect matching per distinct face-pair count matrix.

    Dots within a face are interchangeable, so two matchings produce the
    same enriched map exactly when they pair the same number of dots
    between each face pair.  A faces are filled in order, each splitting
    its dots over its neighbors with B dots left, first neighbor's share
    growing slowest.  An explicit stack keeps the recursion limit out of it.
    """
    a_faces, counts = dg.a_faces, dg.dot_counts
    left = {g: counts[g] for g in dg.b_faces}
    allocation: dict[tuple[int, int], int] = {}
    stack: list[list] = []  # [A face index, its targets, target index, need, take]
    i, targets, t, need = 0, None, 0, 0
    while True:
        while True:  # descend, taking nothing, to a leaf or a dead end
            if targets is None:
                if i == len(a_faces):
                    if not any(left.values()):
                        yield DotMatching(dict(allocation))
                    break
                targets = [g for g in dg.face_neighbors[a_faces[i]] if left.get(g, 0)]
                t, need = 0, counts[a_faces[i]]
            if t < len(targets):
                stack.append([i, targets, t, need, 0])
                t += 1
            elif need:
                break
            else:
                i, targets = i + 1, None
        while stack:  # take one more dot on the deepest frame that can
            frame = stack[-1]
            i, targets, t, need, take = frame
            key = (a_faces[i], targets[t])
            if take < need and left[key[1]]:
                allocation[key] = frame[4] = take + 1
                left[key[1]] -= 1
                t, need = t + 1, need - take - 1
                break
            stack.pop()
            left[key[1]] += take
            allocation.pop(key, None)
        else:
            return


def generic_labeling(
    m: CombinatorialMap, coloring: FaceColoring | None = None
) -> tuple[CombinatorialMap, VertexLabeling]:
    """An admissible labeling with pairwise distinct corner labels.

    Applies to simple maps (every vertex 4-valent).  Matchings are tried
    in deterministic order until one labels the corners injectively.
    """
    if any(val != 4 for val in m.vertex_valences):
        raise ValueError("generic labelings require every vertex to be 4-valent")
    if coloring is None:
        coloring = alternating_coloring(m)
    dg = dot_graph(m, coloring)
    ncorners = m.vertex_count
    for matching in iter_perfect_matchings(dg):
        enriched = enrich(m, matching)
        try:
            lab = admissible_labeling(enriched, coloring)
        except InconsistentPropagation:
            continue
        corner_labels = lab.labels[:ncorners]
        if len(set(corner_labels)) == ncorners:
            return enriched, lab
    raise InconsistentPropagation("no matching produces distinct corner labels")


def arcs_cross(arcs) -> bool:
    """Whether two arcs (i, j) and (k, l) with i < k < j < l exist, by
    comparing every pair (the crossing check pairings once used)."""
    arcs = sorted(arcs)
    for x in range(len(arcs)):
        i, j = arcs[x]
        for k, l in arcs[x + 1 :]:
            if i < k < j < l:
                return True
    return False


def _per_point(points, n: int) -> list[int]:
    """How often each of the points 1..n occurs in ``points``."""
    return [points.count(k) for k in range(1, n + 1)]


def rowwise_tableau_ok(rows, t) -> bool:
    """Whether ``rows`` form a semistandard two-row tableau of type ``t``,
    by testing lengths, weight, sorted rows and columns one by one (the
    tableau check the library once used beside its stack replay)."""
    top, bottom = rows
    if len(top) != t.d - 1 or len(bottom) != t.d - 1:
        return False
    points = top + bottom
    if any(not 1 <= x <= t.n for x in points) or _per_point(points, t.n) != list(t.a):
        return False
    if any(top[i] > top[i + 1] or bottom[i] > bottom[i + 1] for i in range(t.d - 2)):
        return False
    return all(bottom[i] > top[i] for i in range(t.d - 1))


def column_fill_ssyt(t):
    """All two-row tableaux of the given type, by direct column fill (the
    tableau enumerator the library once used)."""
    width = t.d - 1
    remaining = list(t.a)
    out = []
    top: list[int] = []
    bottom: list[int] = []

    def fill(col: int):
        if col == width:
            if all(r == 0 for r in remaining):
                out.append(bg.Tableau2Row((tuple(top), tuple(bottom))))
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


def propagated_labeling(m, coloring):
    """The face-stamping propagation ``admissible_labeling`` once used.

    The first A face (minimal face id) reads 1..m starting at its minimal
    dart; labels spread to A faces sharing a corner until all vertices are
    labeled, then the full labeling is verified rather than assumed.
    """
    vod = m.vertex_of_dart
    sequences = [tuple(vod[d] for d in face) for face in m.faces]
    lengths = {len(seq) for seq in sequences}
    if len(lengths) != 1:
        raise bg.InconsistentPropagation(
            f"faces carry different vertex counts: {sorted(lengths)}"
        )
    mm = lengths.pop()
    for seq in sequences:
        if len(set(seq)) != mm:
            raise bg.InconsistentPropagation("a vertex is incident twice to a face")

    a_faces = [f for f in range(m.face_count) if coloring.color(f) == bg.COLOR_A]
    corners = set(m.corners)
    a_faces_of_vertex: dict[int, list[int]] = {}
    for f in a_faces:
        for v in sequences[f]:
            a_faces_of_vertex.setdefault(v, []).append(f)

    labels = [0] * m.vertex_count

    def stamp(face: int, anchor_pos: int, anchor_label: int):
        seq = sequences[face]
        for t in range(mm):
            v = seq[(anchor_pos + t) % mm]
            want = (anchor_label - 1 + t) % mm + 1
            if labels[v] == 0:
                labels[v] = want
            elif labels[v] != want:
                raise bg.InconsistentPropagation(
                    f"vertex {v} receives labels {labels[v]} and {want}"
                )

    first = a_faces[0]
    stamp(first, 0, 1)
    done = {first}
    queue = [first]
    while queue:
        f = queue.pop(0)
        for v in sequences[f]:
            if v not in corners:
                continue
            for g in a_faces_of_vertex[v]:
                if g in done:
                    continue
                stamp(g, sequences[g].index(v), labels[v])
                done.add(g)
                queue.append(g)
    if any(lb == 0 for lb in labels):
        raise bg.InconsistentPropagation("propagation did not reach every vertex")

    labeling = bg.VertexLabeling(mm, tuple(labels))
    ok, why = bg.verify_labeling(m, coloring, labeling)
    if not ok:
        raise bg.InconsistentPropagation(f"propagated labeling is not admissible: {why}")
    return labeling


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


def table_walk_close_counts(a):
    """Every close-count vector of weight ``a`` in increasing order, by the
    walk the library once used: it searches the completion table for the
    next count at every step instead of keeping each state's counts."""
    ways, n = _completions(a), len(a)
    closes = [0] * n
    opened = [0] * (n + 1)
    k = c = 0
    while True:
        m, x, nxt = opened[k], a[k], ways[k + 1]
        most = min(m, x)
        c = max(c, (m + x - len(nxt) + 2) // 2)
        while c <= most and not nxt[m + x - 2 * c]:
            c += 1
        if c > most:
            if k == 0:
                return
            k -= 1
            c = closes[k] + 1
            continue
        closes[k] = c
        opened[k + 1] = m + x - 2 * c
        if k + 1 < n:
            k, c = k + 1, 0
        else:
            yield tuple(closes)
            c += 1


def event_replay(n, opens, closes):
    """The arcs of the given per-point counts as sorted events (i, j, open
    rank, close rank), or None, by the replay the library once used: its
    stack holds (point, open rank) pairs."""
    stack = []
    events = []
    opened = 0
    for k in range(1, n + 1):
        for _ in range(closes[k - 1]):
            if not stack:
                return None
            i, rank = stack.pop()
            events.append((i, k, rank, len(events)))
        stack.extend((k, opened + t) for t in range(opens[k - 1]))
        opened += opens[k - 1]
    if stack:
        return None
    events.sort()
    return events


def event_enumerate_pairings(t, close_vectors):
    """The pairings of the type with the given close vectors, sorted, as
    the library once enumerated them from :func:`event_replay`."""
    found = (
        tuple((i, j) for i, j, _, _ in event_replay(
            t.n, [x - c for x, c in zip(t.a, closes)], closes
        ))
        for closes in close_vectors
    )
    return [bg.NonCrossingPairing(t, arcs) for arcs in sorted(found)]


def close_vector_ssyt(t, close_vectors):
    """The two-row tableaux of the type with the given close vectors, in
    their order: openings on top, closings below."""

    def points(counts):
        return tuple([k for k, c in enumerate(counts, 1) for _ in range(c)])

    return [
        bg.Tableau2Row((points(x - c for x, c in zip(t.a, closes)), points(closes)))
        for closes in close_vectors
    ]


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


def _replay(opens, closes):
    """Arcs with ``opens[k]`` openings and ``closes[k]`` closings at point k + 1.

    At each point the closings take the newest open arcs, then the point's
    own arcs open.  Returns the arcs (i, j) sorted, or None when a closing
    finds too few open arcs or arcs are left open.
    """
    stack: list[int] = []  # the opening point of each open arc, newest last
    arcs = []
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


def _rows(a, closes):
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


def per_item_pairings_text(t):
    """The ``pairings`` listing of the type as the library once printed it:
    every pairing enumerated, then each document formatted on its own."""

    def enumerate_pairings(t):
        """All pairings of the given type, sorted lexicographically."""
        a = t.a
        found = [
            tuple(_replay([x - c for x, c in zip(a, closes)], closes))
            for closes in _close_counts(a)
        ]
        found.sort()
        return [bg.NonCrossingPairing(t, arcs) for arcs in found]

    def serialize_pairing(p):
        """The pairing document, formatted directly since its shape is fixed:
        the text :func:`~balancedgraphs._documents.dump` gives for it."""
        a = ",".join(map(str, p.type.a))
        arcs = ",".join([f"[{i},{j}]" for i, j in p.arcs])
        return f'{{"a":[{a}],"arcs":[{arcs}],"n":{p.type.n}}}'

    pairings = enumerate_pairings(t)
    return "".join([f"{serialize_pairing(p)}\n" for p in pairings])


def per_item_ssyt_text(t):
    """The ``ssyt`` listing of the type as the library once printed it:
    every tableau enumerated, then each document formatted on its own."""

    def enumerate_ssyt(t):
        """All two-row tableaux of the given type, sorted by rows: openings on
        top, closings below.  A larger close count at the first point where two
        vectors differ means a larger top row, so the walk's order is the rows'.
        """
        a = t.a
        return [bg.Tableau2Row(_rows(a, closes)) for closes in _close_counts(a)]

    def serialize_tableau(tb):
        """The tableau document, formatted directly since its shape is fixed:
        the text :func:`~balancedgraphs._documents.dump` gives for it."""
        top, bottom = tb.rows
        return f'{{"rows":[[{",".join(map(str, top))}],[{",".join(map(str, bottom))}]]}}'

    tableaux = enumerate_ssyt(t)
    return "".join([f"{serialize_tableau(tb)}\n" for tb in tableaux])


def rank_sorted_mirror_graph(p):
    """(alpha, sigma) of the mirror graph of a valid pairing, ordering each
    point's arcs by the open ranks of :func:`event_replay`, as the library
    once did."""
    n = p.type.n
    opens = [0] * n
    closes = [0] * n
    for i, j in p.arcs:
        opens[i - 1] += 1
        closes[j - 1] += 1
    arcs = event_replay(n, opens, closes)
    narcs = len(arcs)
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
    opening = [[] for _ in range(n + 1)]
    closing = [[] for _ in range(n + 1)]
    for t, (i, j, _, _) in enumerate(arcs):
        opening[i].append(t)
        closing[j].append(t)
    sigma = [0] * total
    for k in range(1, n + 1):
        ring = [2 * (k - 1)]
        ring += [upper + 2 * t for t in sorted(opening[k], key=lambda t: -arcs[t][2])]
        ring += [upper + 2 * t + 1 for t in sorted(closing[k], key=lambda t: arcs[t][2])]
        ring.append(2 * ((k - 2) % n) + 1)
        ring += [lower + 2 * t + 1 for t in sorted(closing[k], key=lambda t: -arcs[t][2])]
        ring += [lower + 2 * t for t in sorted(opening[k], key=lambda t: arcs[t][2])]
        for i, dart in enumerate(ring):
            sigma[dart] = ring[(i + 1) % len(ring)]
    return alpha, sigma


def propagated_involution(m, real_cycle):
    """The reflection fixing the real cycle, or None, by propagation from
    every real-cycle dart and its partner, as the library once found it.

    Each known image fixes the images of its alpha and sigma neighbours
    (alpha commutes, sigma goes to its inverse); a clash, an unreached
    dart or an image that is not an involution gives None.
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


def ends_counted_region(m, coloring, face_set):
    """The region on ``face_set`` or None, as the library once built it:
    boundary edge ends counted per vertex, then each boundary cycle
    chained by searching the inside darts at the vertex reached."""
    inside = frozenset(face_set)
    if not inside or len(inside) >= m.face_count:
        return None
    fod = m.face_of_dart
    vod = m.vertex_of_dart

    boundary = []
    inside_darts = []
    vertex_ends: dict[int, int] = {}
    for i, (d, e) in enumerate(m.edges):
        fin_d = fod[d] in inside
        fin_e = fod[e] in inside
        if fin_d == fin_e:
            continue
        din = d if fin_d else e
        if coloring.color(fod[din]) != bg.COLOR_A:
            return None
        boundary.append(i)
        inside_darts.append(din)
        for dart in (d, e):
            v = vod[dart]
            vertex_ends[v] = vertex_ends.get(v, 0) + 1
    if any(c != 2 for c in vertex_ends.values()):
        return None

    # connectivity through interior edges
    if len(bg.balance._face_component(m, inside, next(iter(inside)))) != len(inside):
        return None

    # chain the inside darts into boundary cycles
    by_vertex: dict[int, list[int]] = {}
    for din in inside_darts:
        by_vertex.setdefault(vod[din], []).append(din)
    remaining = set(inside_darts)
    cycles = []
    while remaining:
        d = min(remaining)
        cyc = []
        while d in remaining:
            remaining.discard(d)
            cyc.append(d)
            w = vod[m.alpha[d]]
            nxt = [x for x in by_vertex.get(w, ()) if x != d and x in remaining]
            if not nxt:
                break
            d = nxt[0]
        cycles.append(tuple(cyc))

    a = sum(1 for f in inside if coloring.color(f) == bg.COLOR_A)
    b = len(inside) - a
    return bg.Region(inside, frozenset(boundary), tuple(cycles), a, b)


def all_darts_real_balanced(m, real_cycle) -> bool:
    """Real balance with the color swap checked at every dart, as the
    library once checked it."""
    real_cycle = tuple(real_cycle)
    if bg.surface_map.real_cycle_order(m, real_cycle) is None:
        return False
    iota = bg.conjugation_involution(m, real_cycle)
    if iota is None:
        return False
    # orientation reversal sends the face left of d to the face left of
    # alpha(iota(d)); the two colors must swap
    try:
        coloring = bg.alternating_coloring(m)
    except bg.NotBipartiteFaces:
        return False
    fod = m.face_of_dart
    return all(
        coloring.color(fod[d]) != coloring.color(fod[m.alpha[iota[d]]])
        for d in range(m.dart_count)
    )


def jacobi_trudi_kostka(t) -> int:
    """Tableaux of shape (d-1, d-1) and weight ``t.a``, from the two-row
    Jacobi-Trudi identity s_(N,N) = h_N h_N - h_(N+1) h_(N-1).

    The coefficient of x^a in h_i h_j counts the vectors b with
    0 <= b_k <= a_k summing to i, and b -> a - b shows h_(N+1) h_(N-1)
    contributes as many as vectors summing to N - 1.  So the count is
    c(d-1) - c(d-2), with c(j) the number of such vectors summing to j.
    """
    top = t.d - 1
    c = [1] + [0] * top  # c[j]: vectors over the parts so far summing to j
    for x in t.a:
        prefix = [0]
        for v in c:
            prefix.append(prefix[-1] + v)
        c = [prefix[j + 1] - prefix[max(0, j - x)] for j in range(top + 1)]
    return c[top] - c[top - 1]


def orbit_walk_serialize(m, labels=None, coloring=None, real_cycle=None) -> str:
    """Canonical document of ``m`` with its decorations, carrying labels
    and colors over by walking the vertex and face orbits of ``m`` and of
    its canonical copy, as :func:`~balancedgraphs.surface_map.serialize`
    once did."""
    canon = m.canonical()
    dart_map = m.canonical_dart_map()
    doc: dict = {
        "darts": canon.dart_count,
        "alpha": list(canon.alpha),
        "sigma": list(canon.sigma),
    }
    if labels is not None:
        labels = tuple(labels)
        new_labels = [0] * canon.vertex_count
        for old_v, orbit in enumerate(m.vertices):
            new_v = canon.vertex_of_dart[dart_map[orbit[0]]]
            new_labels[new_v] = labels[old_v]
        doc["labels"] = new_labels
    if coloring is not None:
        new_colors = [""] * canon.face_count
        for old_f, orbit in enumerate(m.faces):
            new_f = canon.face_of_dart[dart_map[orbit[0]]]
            new_colors[new_f] = coloring.colors[old_f]
        doc["colors"] = new_colors
    if real_cycle is not None:
        doc["real_cycle"] = [dart_map[d] for d in real_cycle]
    return dump(doc)


def rotated_orbits(p):
    """(cycles, index of each point's cycle), built point by point: the
    cycle through each point is walked whole and rotated to start at its
    least point, and the distinct cycles are sorted by that point."""
    through = []
    for x in range(len(p)):
        cyc = [x]
        while p[cyc[-1]] != x:
            cyc.append(p[cyc[-1]])
        k = cyc.index(min(cyc))
        through.append(tuple(cyc[k:] + cyc[:k]))
    found = sorted(set(through))
    return tuple(found), tuple([found.index(c) for c in through])


def full_parser_main(argv) -> int:
    """:func:`balancedgraphs.cli.main` parsing every call with the full
    parser, as it did before it handed a named subcommand's arguments to
    that subcommand's parser."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (bg.BalancedGraphsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR


def _is_cyclic_rotation_of_range(seq, mm: int) -> bool:
    # a reading equal to 1..m from its 1 on is already a permutation
    if len(seq) != mm or 1 not in seq:
        return False
    start = seq.index(1)
    return seq[start:] + seq[:start] == list(range(1, mm + 1))


def colored_walk_labeling(m, coloring):
    """:func:`balancedgraphs.admissible_labeling` as it was before it read
    the colors into a per-face list: every dart asks the coloring for its
    face's color and recomputes its head's label."""
    COLOR_A = bg.COLOR_A
    lengths = {len(face) for face in m.faces}
    if len(lengths) != 1:
        raise InconsistentPropagation(
            f"faces carry different vertex counts: {sorted(lengths)}"
        )
    mm = lengths.pop()
    vod, fod = m.vertex_of_dart, m.face_of_dart
    first = next(f for f in range(m.face_count) if coloring.color(f) == COLOR_A)
    labels = [0] * m.vertex_count
    start = vod[m.faces[first][0]]
    labels[start] = 1
    stack = [start]
    while stack:
        v = stack.pop()
        for d in m.vertices[v]:
            w = vod[m.alpha[d]]
            step = 1 if coloring.color(fod[d]) == COLOR_A else -1
            want = (labels[v] - 1 + step) % mm + 1
            if labels[w] == 0:
                labels[w] = want
                stack.append(w)
            elif labels[w] != want:
                raise InconsistentPropagation(
                    f"vertex {w} receives labels {labels[w]} and {want}"
                )

    labeling = VertexLabeling(mm, tuple(labels))
    ok, why = colored_verify_labeling(m, coloring, labeling)
    if not ok:
        raise InconsistentPropagation(f"propagated labeling is not admissible: {why}")
    return labeling


def colored_verify_labeling(m, coloring, lab):
    """:func:`balancedgraphs.verify_labeling` as it was before it read the
    colors and labels off local tuples."""
    COLOR_B = bg.COLOR_B
    if len(lab.labels) != m.vertex_count:
        return False, "one label per vertex required"
    if any(not 1 <= lb <= lab.m for lb in lab.labels):
        return False, "labels must lie in 1..m"
    vod = m.vertex_of_dart
    for f, face in enumerate(m.faces):
        read = [lab.labels[vod[d]] for d in face]
        if coloring.color(f) == COLOR_B:
            read = read[::-1]
        if not _is_cyclic_rotation_of_range(read, lab.m):
            return False, f"face {f} reads labels {read}"
    d = m.face_count // 2
    for j, vs in enumerate(lab.classes, 1):
        total = sum(len(m.vertices[v]) // 2 for v in vs)
        if total != d:
            return False, f"label {j} has half-valence sum {total}, expected {d}"
    return True, None


def dict_constellation_from(m, coloring, lab):
    """:func:`balancedgraphs.constellation_from` as it was before it kept
    sheet numbers and the sheets seen in lists: sheets in a dict by face,
    each vertex's ring of sheets built as a list."""
    COLOR_A = bg.COLOR_A
    a_faces = coloring.faces_of(COLOR_A)
    sheet = {f: i for i, f in enumerate(a_faces)}
    d = len(a_faces)
    perms = []
    fod = m.face_of_dart
    for j, vs in enumerate(lab.classes, 1):
        p = list(range(d))
        seen: set[int] = set()
        for v in vs:
            ring = [
                sheet[fod[dart]]
                for dart in m.vertices[v]
                if coloring.color(fod[dart]) == COLOR_A
            ]
            for i, s in enumerate(ring):
                if s in seen:
                    raise bg.NotVerified(
                        f"sheet {s + 1} appears twice around vertices with label {j}"
                    )
                seen.add(s)
                p[s] = ring[(i + 1) % len(ring)]
        perms.append(tuple(p))
    return bg.Constellation(d, tuple(perms))


def neighbor_table_coloring(self):
    """:func:`balancedgraphs.alternating_coloring` as it was before one walk
    found both the colors and the faces adjacent to themselves: a pre-pass
    over the edges, then a depth-first walk over the sorted
    ``face_neighbors`` table.  The body is the old method's, word for word,
    with the map as ``self``."""
    COLOR_A, COLOR_B, FaceColoring = bg.COLOR_A, bg.COLOR_B, bg.FaceColoring
    NotBipartiteFaces = bg.NotBipartiteFaces
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


def set_scanned_corner_double_incidence(m: CombinatorialMap) -> int | None:
    """A corner incident twice to some face, or None: each face's darts
    scanned with a set of the corners seen on it.  The body is that of
    ``balance._corner_double_incidence`` before the map kept a table of
    the corners on each face, word for word."""
    corners = set(m.corners)
    vod = m.vertex_of_dart
    for face in m.faces:
        seen = set()
        for d in face:
            v = vod[d]
            if v in corners:
                if v in seen:
                    return v
                seen.add(v)
    return None


def set_scanned_global_balance(m, coloring=None):
    """``is_globally_balanced`` as it was before the map kept a table of
    the corners on each face, word for word, with the set scan above."""
    COLOR_A, COLOR_B, GlobalBalance = bg.COLOR_A, bg.COLOR_B, bg.GlobalBalance
    NotBipartiteFaces = bg.NotBipartiteFaces
    if coloring is None:
        try:
            coloring = alternating_coloring(m)
        except NotBipartiteFaces:
            return GlobalBalance(False, None, "no alternating face coloring exists")
    if m.has_loops and m.corners:
        return GlobalBalance(False, None, "the graph has a loop")
    v = set_scanned_corner_double_incidence(m)
    if v is not None:
        return GlobalBalance(False, None, f"corner {v} is incident twice to a face")
    a = coloring.colors.count(COLOR_A)
    b = coloring.colors.count(COLOR_B)
    if a != b:
        return GlobalBalance(False, None, f"{a} A faces versus {b} B faces")
    return GlobalBalance(True, a)


def set_counted_dot_graph(m: CombinatorialMap, coloring: FaceColoring) -> DotGraph:
    """``dot_graph`` as it was before the map kept a table of the corners
    on each face: each face's corners counted as a set intersection.  The
    body is the old function's, word for word."""
    COLOR_A, COLOR_B = bg.COLOR_A, bg.COLOR_B
    corners = set(m.corners)
    total = len(corners)
    vod = m.vertex_of_dart
    counts = tuple([total - len({vod[d] for d in face} & corners) for face in m.faces])
    a, b = (tuple([f for f in coloring.faces_of(c) if counts[f]]) for c in (COLOR_A, COLOR_B))
    return DotGraph(total, counts, a, b, m.face_neighbors)
