import pytest

import balancedgraphs as bg
from helpers import all_mirror_graphs, fixed_point_free_pullback
from oracles import (
    alternating_hall_witness,
    face_subset_hall_ok,
    recursive_maximum_matching,
)


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


def test_dot_graph_needs_corners(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    with pytest.raises(ValueError):
        bg.dot_graph(cycle_map, coloring)


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
    assert list(result.witness_faces()) == cert["hall_witness_faces"]
    assert all(coloring.color(f) == bg.COLOR_B for f in result.witness_faces())


def test_hall_matches_face_subset_oracle(gb_corpus, counterexample):
    for m in list(gb_corpus) + [counterexample[0]]:
        coloring = bg.alternating_coloring(m)
        ours = bg.hall_check(bg.dot_graph(m, coloring)).ok
        assert ours == face_subset_hall_ok(m, coloring)


def test_perfect_matching_b2_empty(b2):
    coloring = bg.alternating_coloring(b2)
    matching = bg.perfect_matching(bg.dot_graph(b2, coloring))
    assert matching.pairs == ()


def test_perfect_matching_mirror(mirror_1234):
    _, m, coloring, _ = mirror_1234
    dg = bg.dot_graph(m, coloring)
    matching = bg.perfect_matching(dg)
    assert len(matching.pairs) == 4
    used_a = [a for a, _, _ in matching.pairs]
    used_b = [b for _, b, _ in matching.pairs]
    assert sorted(used_a) == sorted(dg.dots_a)
    assert sorted(used_b) == sorted(dg.dots_b)
    fod = m.face_of_dart
    for a, b, edge_id in matching.pairs:
        d, e = m.edges[edge_id]
        assert {fod[d], fod[e]} == {a[0], b[0]}


def test_perfect_matching_counterexample_fails(counterexample):
    m, coloring, _ = counterexample
    with pytest.raises(bg.NoPerfectMatching) as info:
        bg.perfect_matching(bg.dot_graph(m, coloring))
    assert info.value.witness


def test_enrich_identity_on_empty_matching(b2):
    coloring = bg.alternating_coloring(b2)
    matching = bg.perfect_matching(bg.dot_graph(b2, coloring))
    assert bg.enrich(b2, matching) == b2


def test_enrich_mirror(mirror_1234):
    _, m, coloring, _ = mirror_1234
    matching = bg.perfect_matching(bg.dot_graph(m, coloring))
    enriched = bg.enrich(m, matching)
    assert enriched.vertex_count == m.vertex_count + len(matching.pairs)
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


def _pair_counts(matching):
    counts = {}
    for a, b, _ in matching.pairs:
        key = (a[0], b[0])
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


def test_iter_perfect_matchings_contains_canonical(mirror_1234):
    # dots inside a face are interchangeable, so matchings are compared
    # through their face-pair count matrices
    _, m, coloring, _ = mirror_1234
    dg = bg.dot_graph(m, coloring)
    matrices = {_pair_counts(mt) for mt in bg.iter_perfect_matchings(dg)}
    assert matrices
    assert _pair_counts(bg.perfect_matching(dg)) in matrices


def test_dot_graph_corner_error_is_a_library_error(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    with pytest.raises(bg.TooFewCorners) as info:
        bg.dot_graph(cycle_map, coloring)
    assert isinstance(info.value, bg.BalancedGraphsError)


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
        assert sorted(a for a, _, _ in matching.pairs) == sorted(dg.dots_a)
        assert sorted(b for _, b, _ in matching.pairs) == sorted(dg.dots_b)
        for a, b, edge_id in matching.pairs:
            assert b[0] in dg.face_neighbors[a[0]]
            assert edge_id in dg.shared_edges[(min(a[0], b[0]), max(a[0], b[0]))]
    assert matched > 0


def test_hall_witness_equals_alternating_search(gb_corpus, counterexample):
    failed = 0
    for dg in _corpus_dot_graphs(gb_corpus, counterexample):
        want = alternating_hall_witness(dg, recursive_maximum_matching(dg))
        result = bg.hall_check(dg)
        assert result.ok == (not want)
        assert result.witness == want
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
    assert len(dg.dots_a) + len(dg.dots_b) > 3000
    matching = bg.perfect_matching(dg)
    assert sorted(b for _, b, _ in matching.pairs) == sorted(dg.dots_b)
    assert sorted(a for a, _, _ in matching.pairs) == sorted(dg.dots_a)
