import random
from itertools import islice
from pathlib import Path

import pytest

import balancedgraphs as bg
from balancedgraphs import enrichment
from balancedgraphs.surface_map import splice_two_valent
from helpers import all_mirror_graphs, cycle_of_length, fixed_point_free_pullback, random_glued_map
from oracles import (
    alternating_hall_witness,
    dict_hall_flow,
    face_subset_hall_ok,
    iter_perfect_matchings,
    recursive_maximum_matching,
    recursive_perfect_matchings,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _assert_perfect(dg, counts):
    """Face-pair counts pairing every dot once, across shared edges."""
    rows, columns = {}, {}
    for (a, b), k in counts.items():
        assert k > 0 and b in dg.face_neighbors[a]
        rows[a] = rows.get(a, 0) + k
        columns[b] = columns.get(b, 0) + k
    assert rows == {f: dg.dot_counts[f] for f in dg.a_faces}
    assert columns == {f: dg.dot_counts[f] for f in dg.b_faces}


def test_dot_graph_b2(b2):
    coloring = bg.alternating_coloring(b2)
    dg = bg.dot_graph(b2, coloring)
    assert dg.m == 2
    assert dg.dot_counts == (0, 0, 0, 0)
    assert dg.dots_a == () and dg.dots_b == ()


def test_dot_graph_mirror(mirror_1234):
    _, m, coloring, _ = mirror_1234
    dg = bg.dot_graph(m, coloring)
    assert dg.m == 4
    assert len(dg.dots_a) == len(dg.dots_b) == 4
    assert sorted(set(dg.dot_counts)) == [0, 2]


@pytest.mark.parametrize("k", [2, 3, 5])
def test_cycle_has_no_dots(k):
    m = cycle_of_length(k)
    assert not m.corners
    for coloring in (bg.alternating_coloring(m), bg.alternating_coloring(m).flip()):
        dg = bg.dot_graph(m, coloring)
        assert dg.m == 0 and dg.dot_counts == (0, 0)
        assert dg.dots_a == () and dg.dots_b == ()
        assert bg.hall_check(dg).ok
        matching = bg.perfect_matching(dg)
        assert matching.counts == {}
        assert bg.enrich(m, matching) is m


def test_hall_check_b2_vacuous(b2):
    coloring = bg.alternating_coloring(b2)
    assert bg.hall_check(bg.dot_graph(b2, coloring)).ok


def test_hall_check_mirrors():
    for _, m, coloring, _ in all_mirror_graphs(4):
        assert bg.hall_check(bg.dot_graph(m, coloring)).ok


def test_hall_check_counterexample(counterexample):
    m, coloring, cert = counterexample
    result = bg.hall_check(bg.dot_graph(m, coloring))
    assert not result.ok
    assert list(result.witness) == cert["hall_witness_faces"]
    assert all(coloring.color(f) == bg.COLOR_B for f in result.witness)


def test_hall_matches_face_subset_oracle(gb_corpus, counterexample):
    for m in list(gb_corpus) + [counterexample[0]]:
        coloring = bg.alternating_coloring(m)
        ours = bg.hall_check(bg.dot_graph(m, coloring)).ok
        assert ours == face_subset_hall_ok(m, coloring)


def test_perfect_matching_b2_empty(b2):
    coloring = bg.alternating_coloring(b2)
    matching = bg.perfect_matching(bg.dot_graph(b2, coloring))
    assert matching.counts == {}


def test_perfect_matching_mirror(mirror_1234):
    _, m, coloring, _ = mirror_1234
    dg = bg.dot_graph(m, coloring)
    matching = bg.perfect_matching(dg)
    assert sum(matching.counts.values()) == 4
    _assert_perfect(dg, matching.counts)
    # every inserted vertex sits on an edge between its face pair
    enriched = bg.enrich(m, matching)
    fod = enriched.face_of_dart
    pairs = {}
    for v in range(m.vertex_count, enriched.vertex_count):
        d = enriched.vertices[v][0]
        key = (fod[d], fod[enriched.alpha[d]])
        if coloring.color(key[0]) == bg.COLOR_B:
            key = key[::-1]
        pairs[key] = pairs.get(key, 0) + 1
    assert pairs == matching.counts


def test_perfect_matching_counterexample_fails(counterexample):
    m, coloring, _ = counterexample
    with pytest.raises(bg.NoPerfectMatching) as info:
        bg.perfect_matching(bg.dot_graph(m, coloring))
    assert info.value.witness


def test_perfect_matching_rejects_unequal_dot_totals():
    # one A dot and two B dots on two adjacent faces: no Hall witness
    dg = bg.DotGraph(2, (1, 2), (0,), (1,), ((1,), (0,)))
    with pytest.raises(bg.NoPerfectMatching, match="1 A dots versus 2 B dots") as info:
        bg.perfect_matching(dg)
    assert info.value.witness == ()


def test_enrich_identity_on_empty_matching(b2):
    coloring = bg.alternating_coloring(b2)
    matching = bg.perfect_matching(bg.dot_graph(b2, coloring))
    assert bg.enrich(b2, matching) == b2


def test_enrich_mirror(mirror_1234):
    _, m, coloring, _ = mirror_1234
    matching = bg.perfect_matching(bg.dot_graph(m, coloring))
    enriched = bg.enrich(m, matching)
    assert enriched.vertex_count == m.vertex_count + sum(matching.counts.values())
    assert enriched.face_count == m.face_count
    assert enriched.genus() == m.genus()
    # every face now carries exactly m vertices
    vod = enriched.vertex_of_dart
    for face in enriched.faces:
        assert len({vod[d] for d in face}) == 4
    # original corners survive with their valences
    assert enriched.vertex_valences[: m.vertex_count] == m.vertex_valences
    assert set(enriched.vertex_valences[m.vertex_count :]) == {2}


def test_enrich_preserves_coloring_by_face_id(mirror_1234):
    _, m, coloring, _ = mirror_1234
    matching = bg.perfect_matching(bg.dot_graph(m, coloring))
    enriched = bg.enrich(m, matching)
    # faces keep their ids, so the same coloring stays proper
    fod = enriched.face_of_dart
    for d, e in enriched.edges:
        assert coloring.colors[fod[d]] != coloring.colors[fod[e]]


def test_enrich_every_corpus_map(gb_corpus):
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        dg = bg.dot_graph(m, coloring)
        if not bg.hall_check(dg).ok:
            continue
        enriched = bg.enrich(m, bg.perfect_matching(dg))
        vod = enriched.vertex_of_dart
        counts = {len({vod[d] for d in face}) for face in enriched.faces}
        assert counts == {dg.m}


def test_enrich_names_a_pair_of_faces_that_share_no_edge(mirror_1234):
    _, m, _, _ = mirror_1234
    for f, g in ((0, 0), (0, 4), (5, 0)):
        assert g not in m.face_neighbors[f]
        with pytest.raises(bg.InvariantViolation, match=rf"^faces \({f}, {g}\) share no edge$"):
            bg.enrich(m, bg.DotMatching({(f, g): 1}))


def test_enrich_names_a_key_or_count_it_cannot_use(mirror_1234):
    _, m, _, _ = mirror_1234
    assert 1 in m.face_neighbors[0] and m.face_count == 6
    # the error names the caller's key or count, not one derived from it
    for key in (5, (0, "a"), (0, 6), (-1, 1), (0, 1, 2), (0, True)):
        with pytest.raises(bg.InvariantViolation) as info:
            bg.enrich(m, bg.DotMatching({key: 1}))
        assert str(info.value) == f"{key!r} is not a pair of face ids"
    for count in (1.5, True, -1, "1"):
        with pytest.raises(bg.InvariantViolation) as info:
            bg.enrich(m, bg.DotMatching({(0, 1): count}))
        assert str(info.value) == f"count {count!r} of faces (0, 1) is not an integer >= 0"
    # a count of 0 inserts nothing
    assert bg.enrich(m, bg.DotMatching({(0, 1): 0})) == m


def _pair_counts(matching):
    return tuple(sorted(matching.counts.items()))


def test_enrich_builds_maps_the_checked_constructor_accepts():
    # enrich subdivides edges, which builds its map unchecked
    for _, m, coloring, _ in all_mirror_graphs(5):
        enriched = bg.enrich(m, bg.perfect_matching(bg.dot_graph(m, coloring)))
        assert bg.CombinatorialMap(enriched.alpha, enriched.sigma) == enriched


def test_iter_perfect_matchings_contains_canonical(mirror_1234):
    # dots inside a face are interchangeable, so matchings are compared
    # through their face-pair count matrices
    _, m, coloring, _ = mirror_1234
    dg = bg.dot_graph(m, coloring)
    matrices = {_pair_counts(mt) for mt in iter_perfect_matchings(dg)}
    assert matrices
    assert _pair_counts(bg.perfect_matching(dg)) in matrices


def _corpus_dot_graphs(gb_corpus, counterexample):
    maps = [(m, bg.alternating_coloring(m)) for m in gb_corpus]
    maps.append(counterexample[:2])
    maps += [(m, coloring) for _, m, coloring, _ in all_mirror_graphs(5)]
    return [
        bg.dot_graph(m, col)
        for m, coloring in maps
        for col in (coloring, coloring.flip())
    ]


def test_perfect_matching_agrees_with_recursive_oracle(gb_corpus, counterexample):
    matched = 0
    for dg in _corpus_dot_graphs(gb_corpus, counterexample):
        oracle = recursive_maximum_matching(dg)
        exists = len(dg.dots_a) == len(dg.dots_b) == len(oracle)
        try:
            matching = bg.perfect_matching(dg)
        except bg.NoPerfectMatching:
            assert not exists
            continue
        assert exists
        matched += 1
        _assert_perfect(dg, matching.counts)
    assert matched > 0


def test_hall_witness_equals_alternating_search(gb_corpus, counterexample):
    failed = 0
    for dg in _corpus_dot_graphs(gb_corpus, counterexample):
        want = alternating_hall_witness(dg, recursive_maximum_matching(dg))
        result = bg.hall_check(dg)
        assert result.ok == (not want)
        # the witness B faces carry exactly the dots the search reaches
        dots = tuple((f, i) for f in result.witness for i in range(dg.dot_counts[f]))
        assert dots == want
        failed += not result.ok
    assert failed > 0


def test_perfect_matching_raises_the_flow_witness(counterexample):
    dg = bg.dot_graph(*counterexample[:2])
    with pytest.raises(bg.NoPerfectMatching) as info:
        bg.perfect_matching(dg)
    assert info.value.witness == bg.hall_check(dg).witness


def test_perfect_matching_on_long_augmenting_paths():
    # d=128: over 3000 dots, deep enough to exhaust a recursive search
    m, coloring, _ = fixed_point_free_pullback(128, 4)
    dg = bg.dot_graph(m, coloring)
    assert sum(dg.dot_counts) > 3000
    _assert_perfect(dg, bg.perfect_matching(dg).counts)


def test_iter_perfect_matchings_agrees_with_recursive_oracle():
    # same matrices in the same order, on both colorings
    for _, m, coloring, _ in all_mirror_graphs(5):
        for col in (coloring, coloring.flip()):
            dg = bg.dot_graph(m, col)
            ours = [mt.counts for mt in islice(iter_perfect_matchings(dg), 50)]
            assert ours
            assert ours == list(islice(recursive_perfect_matchings(dg), 50))


def test_iter_perfect_matchings_is_not_bounded_by_recursion():
    # d=400, arcs (1,2),(3,4),...: deeper than the recursive search reached
    d = 400
    t = bg.WeightComposition(d, (1,) * (2 * d - 2))
    arcs = tuple((2 * k + 1, 2 * k + 2) for k in range(d - 1))
    m, coloring, _ = bg.mirror_graph(bg.NonCrossingPairing(t, arcs))
    dg = bg.dot_graph(m, coloring)
    _assert_perfect(dg, next(iter_perfect_matchings(dg)).counts)


def _flow_dot_graphs():
    """Dot graphs, on both colorings, of maps glued from two random
    pairings of one type of degree 6 to 10 (as the check benchmark draws
    them; half with edges subdivided), of every mirror graph with d <= 6,
    each spliced as realize splices it, and of the two committed
    counterexamples."""
    rng = random.Random(22)
    maps = []
    while len(maps) < 80:
        m = random_glued_map(rng, 6 + len(maps) % 5, subdivide=len(maps) % 2 == 1)
        if m is not None:
            maps.append(splice_two_valent(m, bg.alternating_coloring(m))[:2])
    maps += [splice_two_valent(m, coloring)[:2] for _, m, coloring, _ in all_mirror_graphs(6)]
    for name in ("counterexample_gb_not_lb.json", "flipped_certificate.json"):
        doc = bg.deserialize((FIXTURES / name).read_text())
        maps.append((doc.map, doc.colors))
    return [bg.dot_graph(m, col) for m, coloring in maps for col in (coloring, coloring.flip())]


def test_hall_flow_matches_the_dict_reference():
    # same witness, and the same flow row by row, entries in the same order
    failed = 0
    for dg in _flow_dot_graphs():
        want_faces, want_inflow = dict_hall_flow(dg)
        faces, inflow = enrichment._hall_flow(dg)
        assert faces == want_faces
        assert [list(inflow[g].items()) for g in dg.a_faces] == [
            list(row.items()) for row in want_inflow.values()
        ]
        assert not any(inflow[f] for f in range(len(inflow)) if f not in want_inflow)
        failed += bool(faces)
    assert failed >= 50


def test_hall_flow_direct_steps_match_the_dict_reference():
    # check's own dot graphs, on both colorings: maps glued from two random
    # pairings of degree 6 to 10 (half with edges subdivided), not spliced;
    # the direct steps take the paths breadth-first rounds would take
    rng = random.Random(26)
    maps = []
    while len(maps) < 500:
        m = random_glued_map(rng, 6 + len(maps) % 5, subdivide=len(maps) % 2 == 1)
        if m is not None:
            maps.append(m)
    failed = 0
    for m in maps:
        coloring = bg.alternating_coloring(m)
        for col in (coloring, coloring.flip()):
            dg = bg.dot_graph(m, col)
            want_faces, want_inflow = dict_hall_flow(dg)
            faces, inflow = enrichment._hall_flow(dg)
            assert faces == want_faces
            assert [list(inflow[g].items()) for g in dg.a_faces] == [
                list(row.items()) for row in want_inflow.values()
            ]
            assert not any(inflow[f] for f in range(len(inflow)) if f not in want_inflow)
            failed += bool(faces)
    assert failed >= 100
