import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import balancedgraphs as bg
import balancedgraphs.surface_map as surface_map
from helpers import (
    all_mirror_graphs,
    glued_map,
    map_from_rotations,
    random_fixed_point_constellation,
    random_genus_zero_constellation,
    random_glued_map,
    random_pairing,
    random_rotation_map,
    random_weight_type,
)
from oracles import (
    all_roots_canonical,
    longest_run_roots,
    neighbor_table_coloring,
    orbit_walk_serialize,
    set_counted_dot_graph,
    set_scanned_corner_double_incidence,
    set_scanned_global_balance,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_build_cycle_map(cycle_map):
    assert cycle_map.vertex_count == 2
    assert cycle_map.edge_count == 2
    assert cycle_map.face_count == 2
    assert cycle_map.genus() == 0
    assert all(len(f) == 2 for f in cycle_map.faces)


def test_build_b2_faces(b2):
    assert b2.faces == ((0, 7), (1, 2), (3, 4), (5, 6))
    assert (b2.vertex_count, b2.edge_count, b2.face_count) == (2, 4, 4)
    assert b2.genus() == 0


def test_t1_counts(t1):
    assert (t1.vertex_count, t1.edge_count, t1.face_count) == (4, 8, 4)
    assert t1.genus() == 1
    assert t1.vertex_valences == (4, 4, 4, 4)


def test_build_rejects_alpha_fixed_point():
    with pytest.raises(bg.NotInvolution):
        bg.build_map(4, [0, 1, 3, 2], [1, 2, 3, 0])


def test_build_rejects_non_involution():
    with pytest.raises(bg.NotInvolution):
        bg.build_map(4, [1, 2, 3, 0], [1, 0, 3, 2])


def test_build_rejects_non_permutation():
    with pytest.raises(bg.BadPermutation):
        bg.build_map(4, [1, 0, 3, 3], [1, 0, 3, 2])
    with pytest.raises(bg.BadPermutation):
        bg.build_map(3, [1, 0, 2], [0, 1, 2])


def test_build_rejects_disconnected():
    # two separate bigons
    with pytest.raises(bg.Disconnected):
        bg.build_map(8, [1, 0, 3, 2, 5, 4, 7, 6], [2, 3, 0, 1, 6, 7, 4, 5])


def test_loops_flagged_not_rejected():
    # one vertex with a loop and a parallel handle: sigma one 4-cycle
    m = bg.build_map(4, [1, 0, 3, 2], [1, 2, 3, 0])
    assert m.has_loops


def test_alternating_coloring_b2(b2):
    coloring = bg.alternating_coloring(b2)
    assert coloring.colors == ("A", "B", "A", "B")
    assert coloring.color(b2.face_of_dart[0]) == bg.COLOR_A


def test_alternating_coloring_cycle_map(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    assert sorted(coloring.colors) == ["A", "B"]


def test_alternating_coloring_tetrahedron(tetrahedron):
    with pytest.raises(bg.NotBipartiteFaces):
        bg.alternating_coloring(tetrahedron)


def test_alternating_coloring_is_computed_once_per_map(gb_corpus):
    m = bg.CombinatorialMap(gb_corpus[0].alpha, gb_corpus[0].sigma)
    assert bg.alternating_coloring(m) is bg.alternating_coloring(m)


def test_odd_face_cycle_raises_on_every_call(tetrahedron):
    for _ in range(2):
        with pytest.raises(bg.NotBipartiteFaces):
            bg.alternating_coloring(tetrahedron)


def _coloring_outcome(color, m):
    try:
        return color(m).colors
    except bg.NotBipartiteFaces as exc:
        return type(exc), str(exc)


def test_coloring_walk_matches_the_neighbor_table_oracle(gb_corpus, tetrahedron):
    rng = random.Random(2417)
    maps = list(gb_corpus) + [m for _, m, _, _ in all_mirror_graphs(6)]
    # the bridge map: its one face lies on both sides of its edge
    maps += [tetrahedron, bg.build_map(2, [1, 0], [0, 1])]
    with_loops = 0
    while with_loops < 200:
        valences = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        total = sum(valences)
        if total % 2 == 0 and total >= 2 * len(valences) - 2:
            maps.append(random_rotation_map(rng, valences))
            with_loops += maps[-1].has_loops
    for i in range(300):
        m = random_glued_map(rng, rng.randint(3, 8), subdivide=i % 2 == 1)
        maps += [m] if m is not None else []
    outcomes = [0, 0]  # colored, not bipartite
    for m in maps:
        fresh = bg.CombinatorialMap._unchecked(m.alpha, m.sigma)
        ours = _coloring_outcome(bg.alternating_coloring, fresh)
        # the walk reads the faces across each dart, not the sorted table
        assert "face_neighbors" not in vars(fresh)
        fresh = bg.CombinatorialMap._unchecked(m.alpha, m.sigma)
        assert ours == _coloring_outcome(neighbor_table_coloring, fresh)
        outcomes[ours[0] is bg.NotBipartiteFaces] += 1
    assert min(outcomes) > 100, outcomes


def test_coloring_flip_is_only_other_proper_coloring(b2, cycle_map, t1):
    for m in (b2, cycle_map, t1):
        coloring = bg.alternating_coloring(m)
        proper = []
        nf = m.face_count
        arcs = bg.face_adjacency(m)
        for bits in range(2**nf):
            colors = tuple("A" if bits >> i & 1 else "B" for i in range(nf))
            if all(colors[f] != colors[g] for f, g, _ in arcs):
                proper.append(colors)
        assert sorted(proper) == sorted([coloring.colors, coloring.flip().colors])


def test_colorable_maps_have_even_valences(b2, cycle_map, t1):
    for m in (b2, cycle_map, t1):
        bg.alternating_coloring(m)
        assert all(v % 2 == 0 for v in m.vertex_valences)


def test_face_adjacency_b2(b2):
    arcs = bg.face_adjacency(b2)
    assert len(arcs) == 4
    degree = [0] * 4
    for f, g, _ in arcs:
        assert f != g
        degree[f] += 1
        degree[g] += 1
    assert degree == [2, 2, 2, 2]


def test_face_adjacency_cycle_map_parallel_arcs(cycle_map):
    arcs = bg.face_adjacency(cycle_map)
    assert len(arcs) == 2
    assert {frozenset(arc[:2]) for arc in arcs} == {frozenset({0, 1})}


def test_face_adjacency_mirror(mirror_1234):
    _, m, _, _ = mirror_1234
    assert m.face_count == 6
    assert len(bg.face_adjacency(m)) == 8


def test_degree_profile(b2, cycle_map):
    assert b2.vertex_valences == (4, 4)
    assert b2.corners == (0, 1)
    assert cycle_map.corners == ()


def test_serialize_round_trip(b2):
    text = bg.serialize(b2)
    doc = bg.deserialize(text)
    assert bg.serialize(doc.map) == text
    assert bg.are_isomorphic(doc.map, b2)


def test_serialize_deterministic(t1):
    assert bg.serialize(t1) == bg.serialize(t1)
    relabeled = t1.relabel(tuple(reversed(range(t1.dart_count))))
    assert bg.serialize(relabeled) == bg.serialize(t1)


def test_serialize_with_decorations(b2):
    coloring = bg.alternating_coloring(b2)
    text = bg.serialize(b2, labels=(1, 2), coloring=coloring, real_cycle=(0, 7))
    doc = bg.deserialize(text)
    assert doc.labels is not None and sorted(doc.labels) == [1, 2]
    assert doc.colors is not None
    assert len(doc.real_cycle) == 2


def test_serialize_rejects_a_real_cycle_of_other_darts(b2):
    # -1 would be read as the last dart, and dart_count is past the end
    for cycle in ([-1], [b2.dart_count]):
        with pytest.raises(bg.InvariantViolation, match="real_cycle must list dart ids"):
            bg.serialize(b2, real_cycle=cycle)
    doc = json.loads(bg.serialize(b2, real_cycle=[7]))
    assert doc["real_cycle"] == [b2.canonical_dart_map()[7]] == [3]


def test_serialize_rejects_decorations_of_another_length(b2):
    with pytest.raises(bg.InvariantViolation, match="labels must list one value per vertex"):
        bg.serialize(b2, labels=(1, 2, 1))
    with pytest.raises(bg.InvariantViolation, match="colors must list one value per face"):
        bg.serialize(b2, coloring=bg.FaceColoring(("A", "B")))


def test_serialized_decorations_stay_valid(mirror_1234):
    # canonical relabeling must transport labels, colors and the real
    # cycle so that they still hold on the relabeled map
    _, m, coloring, real_cycle = mirror_1234
    dg = bg.dot_graph(m, coloring)
    enriched = bg.enrich(m, bg.perfect_matching(dg))
    lab = bg.admissible_labeling(enriched, coloring)
    doc = bg.deserialize(bg.serialize(enriched, labels=lab.labels, coloring=coloring))
    ok, why = bg.verify_labeling(
        doc.map, doc.colors, bg.VertexLabeling(lab.m, doc.labels)
    )
    assert ok, why

    doc = bg.deserialize(bg.serialize(m, coloring=coloring, real_cycle=real_cycle))
    assert bg.is_real_balanced(doc.map, doc.real_cycle)


def test_serialize_carries_decorations_as_the_orbit_walk_oracle():
    # serialize reads labels and colors off the canonical dart order; the
    # oracle walks the orbits of the map and of its canonical copy
    rng = random.Random(2718)
    cases = [(m, None, coloring, cycle) for _, m, coloring, cycle in all_mirror_graphs(5)]
    for _ in range(40):
        c = random_genus_zero_constellation(rng)
        m, coloring, lab = bg.pullback_from_constellation(c)
        cases.append((m, lab.labels, coloring, rng.sample(range(m.dart_count), 3)))
    for m, _, _, cycle in list(cases):
        perm = rng.sample(range(m.dart_count), m.dart_count)
        cases.append((m.relabel(perm), None, None, [perm[d] for d in cycle]))
    for m, labels, coloring, cycle in cases:
        # distinct values pin where every vertex and face goes
        tags = rng.sample(range(m.dart_count), m.vertex_count)
        face_tags = [str(x) for x in rng.sample(range(m.dart_count), m.face_count)]
        for decorations in (
            (labels or tags, coloring or bg.alternating_coloring(m)),
            (tags, bg.FaceColoring._unchecked(tuple(face_tags))),
        ):
            args = (m, *decorations, cycle)
            assert bg.serialize(*args) == orbit_walk_serialize(*args)


def test_deserialize_rejects_fixed_point():
    text = json.dumps(
        {"darts": 4, "alpha": [0, 1, 3, 2], "sigma": [1, 2, 3, 0]},
        sort_keys=True,
    )
    with pytest.raises(bg.InvariantViolation):
        bg.deserialize(text)


def test_deserialize_rejects_garbage():
    with pytest.raises(bg.ParseError):
        bg.deserialize("{not json")
    with pytest.raises(bg.ParseError):
        bg.deserialize('{"darts": 4}')
    with pytest.raises(bg.ParseError):
        bg.deserialize('["not", "an", "object"]')


def test_deserialize_rejects_bad_colors(b2):
    text = bg.serialize(b2)
    doc = json.loads(text)
    doc["colors"] = ["A", "A", "B", "B"]
    with pytest.raises(bg.InvariantViolation):
        bg.deserialize(json.dumps(doc, sort_keys=True))


def test_are_isomorphic_ignores_relabeling(b2, t1):
    assert not bg.are_isomorphic(b2, t1)
    shuffled = b2.relabel((3, 6, 1, 0, 7, 4, 5, 2))
    assert bg.are_isomorphic(shuffled, b2)


def test_subdivide_edges(b2):
    m = bg.subdivide_edges(b2, {0: 2, 3: 1})
    assert m.vertex_count == b2.vertex_count + 3
    assert m.face_count == b2.face_count
    assert m.genus() == b2.genus()
    assert sorted(m.vertex_valences) == [2, 2, 2, 4, 4]


def test_splice_undoes_enrichment(gb_corpus):
    spliced = 0
    cases = [(m, bg.alternating_coloring(m)) for m in gb_corpus]
    cases += [(m, coloring) for _, m, coloring, _ in all_mirror_graphs(5)]
    for m, coloring in cases:
        dg = bg.dot_graph(m, coloring)
        if not bg.hall_check(dg).ok:
            continue
        enriched = bg.enrich(m, bg.perfect_matching(dg))
        # enrichment appends its darts, so the inserted vertices come last
        inserted = range(m.vertex_count, enriched.vertex_count)
        restored, dense = bg.splice(enriched, inserted)
        assert restored == m
        assert dense == {d: d for d in range(m.dart_count)}
        spliced += 1
    assert spliced == 418


def test_splice_keeps_dart_order(b2):
    m = bg.subdivide_edges(b2, {0: 2, 3: 1})
    middle = [v for v, valence in enumerate(m.vertex_valences) if valence == 2][1]
    restored, dense = bg.splice(m, [middle])
    kept = [d for d in range(m.dart_count) if d not in m.vertices[middle]]
    assert dense == {d: i for i, d in enumerate(kept)}
    assert sorted(restored.vertex_valences) == [2, 2, 4, 4]


def test_splice_builds_maps_the_checked_constructor_accepts():
    # splice builds its map unchecked; the fixed points of these
    # constellations give their pullbacks 2-valent vertices
    rng = random.Random(3141)
    for _ in range(40):
        m, _, _ = bg.pullback_from_constellation(random_genus_zero_constellation(rng))
        two = [v for v, valence in enumerate(m.vertex_valences) if valence == 2]
        for vertices in (two, rng.sample(two, rng.randint(1, len(two)))):
            spliced, _ = bg.splice(m, vertices)
            assert bg.CombinatorialMap(spliced.alpha, spliced.sigma) == spliced
            assert spliced.vertex_count == m.vertex_count - len(vertices)


def test_splice_rejects_a_closed_cycle_and_corners(cycle_map, b2):
    with pytest.raises(bg.InvariantViolation):
        bg.splice(cycle_map, range(cycle_map.vertex_count))
    with pytest.raises(bg.InvariantViolation):
        bg.splice(b2, [0])


def _random_map_strategy(max_edges=5):
    def build(data):
        edges, perm = data
        n = 2 * edges
        alpha = []
        for i in range(edges):
            alpha.extend([2 * i + 1, 2 * i])
        return alpha, perm

    return (
        st.integers(min_value=2, max_value=max_edges)
        .flatmap(lambda e: st.tuples(st.just(e), st.permutations(range(2 * e))))
        .map(build)
    )


@settings(max_examples=120, deadline=None)
@given(_random_map_strategy())
def test_random_map_properties(data):
    alpha, sigma = data
    try:
        m = bg.CombinatorialMap(alpha, sigma)
    except bg.Disconnected:
        return
    # Euler parity and genus
    chi = m.vertex_count - m.edge_count + m.face_count
    assert chi % 2 == 0 and chi <= 2
    assert m.genus() >= 0
    # serialization round trip
    doc = bg.deserialize(bg.serialize(m))
    assert bg.are_isomorphic(doc.map, m)
    # canonical form is idempotent and isomorphism invariant
    canon = m.canonical()
    assert canon.canonical() == canon
    relabeled = m.relabel(tuple(reversed(range(m.dart_count))))
    assert bg.are_isomorphic(relabeled, m)
    # colorable maps have even valences and exactly two colorings
    try:
        coloring = bg.alternating_coloring(m)
    except bg.NotBipartiteFaces:
        return
    assert all(v % 2 == 0 for v in m.vertex_valences)
    arcs = bg.face_adjacency(m)
    assert all(coloring.colors[f] != coloring.colors[g] for f, g, _ in arcs)
    flip = coloring.flip()
    assert all(flip.colors[f] != flip.colors[g] for f, g, _ in arcs)


def test_canonical_matches_all_roots_oracle(gb_corpus, constellation_corpus):
    # early rejection of roots may prune work but never change the result
    maps = list(gb_corpus)
    maps += [bg.pullback_from_constellation(c)[0] for c in constellation_corpus]
    _assert_selected_roots_keep_the_canonical_form(maps, random.Random(2071))


def _assert_selected_roots_keep_the_canonical_form(maps, rng):
    # the roots are the oracle's, the least code over them is the oracle's,
    # and a random relabeling of the map reaches the same code
    for m in maps:
        relabeled = m.relabel(rng.sample(range(m.dart_count), m.dart_count))
        assert relabeled.canonical_key() == m.canonical_key()
        for x in (m, relabeled):
            assert list(surface_map._longest_run_roots(x.alpha, x.sigma)) == longest_run_roots(x)
            key, dart_map = all_roots_canonical(x)
            assert x.canonical_key() == key
            assert x.canonical_dart_map() == dart_map


def test_root_selection_on_subdivided_random_maps():
    rng = random.Random(2007)
    maps = []
    bigons = loops = 0
    for i in range(400):
        # the first half loopless with corners only, the rest with loops
        # and parallel edges, some of them 1-valent
        while True:
            if i < 200:
                valences = [rng.randint(3, 5) for _ in range(rng.randint(2, 4))]
            else:
                valences = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
            # an even dart count, enough edges to connect the vertices, and
            # without loops, no vertex above half of the darts
            total = sum(valences)
            if total % 2 == 0 and total >= 2 * len(valences) - 2:
                if i >= 200 or 2 * max(valences) <= total:
                    break
        m = random_rotation_map(rng, valences, loops=i >= 200)
        bigons += any(len(f) == 2 for f in m.faces)
        loops += m.has_loops
        counts = {e: rng.choice((0, 0, 1, 2, 3, 6)) for e in range(m.edge_count)}
        maps.append(bg.subdivide_edges(m, counts))
    # the corpus holds 2-gon faces and loops, whose subdivisions are chains
    # with both ends at one corner
    assert bigons > 50 and loops > 50
    _assert_selected_roots_keep_the_canonical_form(maps, rng)


def test_root_selection_on_enriched_mirror_graphs_and_pullbacks():
    rng = random.Random(2023)
    maps = [
        bg.enrich(m, bg.perfect_matching(bg.dot_graph(m, coloring)))
        for _, m, coloring, _ in all_mirror_graphs(5)
    ]
    maps += [
        bg.pullback_from_constellation(random_genus_zero_constellation(rng))[0]
        for _ in range(60)
    ]
    _assert_selected_roots_keep_the_canonical_form(maps, rng)


def _run_lengths(m):
    """The number of 2-valent vertices on each run between two corners."""
    two = [m.vertex_valences[v] == 2 for v in m.vertex_of_dart]
    lengths = []
    for e in range(m.dart_count):
        x = m.alpha[e]
        if not two[e] and two[x]:
            lengths.append(0)
            while two[x]:
                x = m.alpha[m.sigma[x]]
                lengths[-1] += 1
    return lengths


def _enriched_mirror_graph(p):
    m, coloring, _ = bg.mirror_graph(p)
    return bg.enrich(m, bg.perfect_matching(bg.dot_graph(m, coloring)))


def test_root_selection_on_maps_shaped_like_the_benchmark():
    # enriched mirror graphs of mixed-weight pairings, whose runs of
    # 2-valent vertices come in several lengths per map; pullbacks of
    # genus >= 1 whose fixed points give 2-valent vertices; and enriched
    # side-by-side all-ones mirror graphs, where every run has one length,
    # so the corner darts of every run are roots
    rng = random.Random(2111)
    maps = []
    for d in range(6, 11):
        for _ in range(3):
            t = random_weight_type(rng, d)
            while max(t.a) == 1:
                t = random_weight_type(rng, d)
            maps.append(_enriched_mirror_graph(random_pairing(rng, t)))
    assert sum(len(set(_run_lengths(m))) > 1 for m in maps) >= 12
    maps += [
        bg.pullback_from_constellation(random_fixed_point_constellation(rng))[0]
        for _ in range(24)
    ]
    for d in (4, 6, 9, 12):
        n = 2 * d - 2
        t = bg.WeightComposition(d, (1,) * n)
        arcs = tuple([(i, i + 1) for i in range(1, n, 2)])
        maps.append(_enriched_mirror_graph(bg.NonCrossingPairing(t, arcs)))
        assert len(set(_run_lengths(maps[-1]))) == 1
    _assert_selected_roots_keep_the_canonical_form(maps, rng)


def _one_edge_odd_runs(m):
    """Run directions of odd length whose two corner darts are joined by
    one edge that bounds a face with the run: sigma(alpha(sigma(e))) is
    the far corner dart."""
    alpha, sigma = m.alpha, m.sigma
    two = [m.vertex_valences[v] == 2 for v in m.vertex_of_dart]
    count = 0
    for e in range(m.dart_count):
        if two[e]:
            continue
        x, k = alpha[e], 0
        while two[x]:
            x, k = alpha[sigma[x]], k + 1
        count += k % 2 == 1 and sigma[alpha[sigma[e]]] == x
    return count


def test_root_selection_on_one_edge_odd_runs():
    # random maps with loops and parallel edges, one edge of each face of
    # one or two edges subdivided an odd number of times and the other
    # edges of those faces left alone: each such run closes a face with
    # one edge, so a search from one of its corner darts soon meets the
    # run's other end
    rng = random.Random(23)
    maps = []
    while len(maps) < 200:
        valences = [rng.choice((1, 3, 3, 4, 4, 5, 6)) for _ in range(rng.randint(1, 4))]
        if sum(valences) % 2 or sum(valences) < 2 * len(valences) - 2:
            continue
        m = random_rotation_map(rng, valences, loops=True)
        short = [face for face in m.faces if len(face) <= 2]
        if not short:
            continue
        edges = {m.edge_of_dart[d] for face in short for d in face}
        counts = {e: rng.choice((0, 0, 1, 2)) for e in range(m.edge_count) if e not in edges}
        for face in short:
            e = m.edge_of_dart[rng.choice(face)]
            counts[e] = counts.get(e, 0) or rng.choice((1, 3, 5, 7, 15, 31))
        maps.append(bg.subdivide_edges(m, counts))
    assert sum(_one_edge_odd_runs(m) > 0 for m in maps) >= 60
    _assert_selected_roots_keep_the_canonical_form(maps, rng)


def test_root_selection_on_corners_with_one_edge_loops():
    # a corner with a one-edge loop between two consecutive darts passes
    # for two 2-valent vertices in a breadth-first code, so the codes from
    # the corner darts of the runs between two such corners tie far
    m = map_from_rotations([["l", "l", "a", "b"], ["a", "k", "k", "b"]])
    vertex = m.vertex_of_dart
    m = bg.subdivide_edges(
        m, {e: 40 for e, (d, x) in enumerate(m.edges) if vertex[d] != vertex[x]}
    )
    assert sorted(m.vertex_valences)[-3:] == [2, 4, 4]
    _assert_selected_roots_keep_the_canonical_form([m], random.Random(41))


def test_nested_enriched_map_hands_few_roots_to_the_search(monkeypatch):
    d = 64
    n = 2 * d - 2
    t = bg.WeightComposition(d, (1,) * n)
    p = bg.NonCrossingPairing(t, tuple([(i + 1, n - i) for i in range(n // 2)]))
    m, coloring, _ = bg.mirror_graph(p)
    enriched = bg.enrich(m, bg.perfect_matching(bg.dot_graph(m, coloring)))
    handed = []
    search = surface_map.canonical_relabeling

    def counted(perms, n, roots):
        roots = list(roots)
        handed.append(len(roots))
        return search(perms, n, roots)

    monkeypatch.setattr(surface_map, "canonical_relabeling", counted)
    enriched.canonical()
    assert enriched.dart_count == 16128
    assert len(handed) == 1 and handed[0] < 0.02 * enriched.dart_count


def _corner_table_maps(gb_corpus, tetrahedron):
    """The gb corpus, both check fixtures, the tetrahedron, the mirror
    graphs with d <= 5, 300 random glued maps (half with edges
    subdivided), 100 glued maps that need not be globally balanced and 400
    random maps, half of them with loops."""
    maps = list(gb_corpus) + [tetrahedron]
    for name in ("counterexample_gb_not_lb.json", "flipped_certificate.json"):
        maps.append(bg.deserialize((FIXTURES / name).read_text()).map)
    maps += [m for _, m, _, _ in all_mirror_graphs(5)]
    rng = random.Random(2026)
    glued = 0
    while glued < 300:
        m = random_glued_map(rng, rng.randint(3, 10), subdivide=glued % 2 == 1)
        if m is not None:
            maps.append(m)
            glued += 1
    for _ in range(100):  # glued maps of any verdict
        t = random_weight_type(rng, rng.randint(3, 10))
        maps.append(glued_map(random_pairing(rng, t), random_pairing(rng, t)))
    drawn = 0
    while drawn < 400:
        loops = drawn % 2 == 0
        valences = [rng.randint(1, 6) for _ in range(rng.randint(1 if loops else 2, 4))]
        total = sum(valences)
        if total % 2 == 0 and total >= 2 * len(valences) - 2:
            # without loops, no vertex may hold more than half of the darts
            if loops or 2 * max(valences) <= total:
                maps.append(random_rotation_map(rng, valences, loops=loops))
                drawn += 1
    return maps


def test_corner_table_matches_the_set_scans(gb_corpus, tetrahedron):
    # global balance and the dot graph read one table per map; the set
    # scans each of them made before give the same verdicts and counts
    twice = colored = 0
    for m in _corner_table_maps(gb_corpus, tetrahedron):
        m = bg.CombinatorialMap._unchecked(m.alpha, m.sigma)
        assert m.face_corners[1] == set_scanned_corner_double_incidence(m)
        twice += m.face_corners[1] is not None
        assert bg.is_globally_balanced(m) == set_scanned_global_balance(m)
        try:
            coloring = bg.alternating_coloring(m)
        except bg.NotBipartiteFaces:
            continue
        colored += 1
        for col in (coloring, coloring.flip()):
            assert bg.is_globally_balanced(m, col) == set_scanned_global_balance(m, col)
            assert bg.dot_graph(m, col) == set_counted_dot_graph(m, col)
    assert twice >= 50 and colored >= 400


def test_corner_table_is_built_once_per_map(b2):
    m = bg.CombinatorialMap(b2.alpha, b2.sigma)
    coloring = bg.alternating_coloring(m)
    bg.is_globally_balanced(m, coloring)
    table = m.face_corners
    bg.dot_graph(m, coloring)
    bg.dot_graph(m, coloring.flip())
    assert m.face_corners is table
