import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import balancedgraphs as bg
from balancedgraphs import cli, real_combinatorics
from balancedgraphs._documents import dump
from balancedgraphs.surface_map import real_cycle_order
from helpers import all_mirror_graphs, map_from_rotations
from oracles import (
    all_darts_real_balanced,
    arcs_cross,
    close_vector_ssyt,
    column_fill_ssyt,
    event_enumerate_pairings,
    jacobi_trudi_kostka,
    per_item_pairings_text,
    per_item_ssyt_text,
    propagated_involution,
    rank_sorted_mirror_graph,
    rowwise_tableau_ok,
    table_walk_close_counts,
)

# 999 arcs from point 1: one pairing, and a walk through 1000 points
STAR = bg.WeightComposition(1000, (999,) + (1,) * 999)


def _types(max_d):
    """Every weight type of degree 2..max_d."""
    for d in range(2, max_d + 1):
        for a in bg.compositions(2 * d - 2, d - 1):
            if 2 <= len(a) <= 2 * d - 2:
                yield bg.WeightComposition(d, a)


def _random_types(seed, count, max_d):
    """``count`` seeded random weight types of degree up to ``max_d``."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2, max_d)
        total, parts = 2 * d - 2, []
        while total:
            parts.append(rng.randint(1, min(d - 1, total)))
            total -= parts[-1]
        yield bg.WeightComposition(d, tuple(parts))


def test_weight_composition_validation():
    bg.WeightComposition(3, (1, 1, 1, 1))
    with pytest.raises(bg.InvariantViolation):
        bg.WeightComposition(3, (1, 1, 1))  # wrong sum
    with pytest.raises(bg.InvariantViolation):
        bg.WeightComposition(3, (3, 1))  # part above d - 1
    with pytest.raises(bg.InvariantViolation):
        bg.WeightComposition(1, (0,))


def test_enumerate_pairings_examples():
    only = bg.enumerate_pairings(bg.WeightComposition(2, (1, 1)))
    assert [p.arcs for p in only] == [((1, 2),)]

    two = bg.enumerate_pairings(bg.WeightComposition(3, (1, 1, 1, 1)))
    assert [p.arcs for p in two] == [((1, 2), (3, 4)), ((1, 4), (2, 3))]

    five = bg.enumerate_pairings(bg.WeightComposition(4, (1,) * 6))
    assert len(five) == 5 == bg.catalan(4)


def test_enumerate_pairings_are_valid_and_sorted():
    for d in (3, 4, 5):
        for a in bg.compositions(2 * d - 2, d - 1):
            if not 2 <= len(a) <= 2 * d - 2:
                continue
            pairings = bg.enumerate_pairings(bg.WeightComposition(d, a))
            arcs = [p.arcs for p in pairings]
            assert arcs == sorted(arcs) and len(set(arcs)) == len(arcs)
            for p in pairings:
                bg.validate_pairing(p)


def test_validate_pairing_matches_pairwise_crossing_oracle():
    # every multiset of d - 1 arcs on n <= 6 points against every type (d, a)
    accepted = pairings = 0
    for d in range(2, 6):
        for a in bg.compositions(2 * d - 2, d - 1):
            if not 2 <= len(a) <= min(6, 2 * d - 2):
                continue
            t = bg.WeightComposition(d, a)
            pairs = list(combinations(range(1, t.n + 1), 2))
            for arcs in combinations_with_replacement(pairs, d - 1):
                counts = tuple(sum(x in arc for arc in arcs) for x in range(1, t.n + 1))
                want = counts == t.a and not arcs_cross(arcs)
                try:
                    bg.validate_pairing(bg.NonCrossingPairing(t, arcs))
                    got = True
                except bg.InvariantViolation:
                    got = False
                assert got == want, (t, arcs)
                accepted += got
            pairings += len(bg.enumerate_pairings(t))
    # what is accepted is exactly the enumerated pairings
    assert accepted == pairings == 334


def test_enumerate_ssyt_examples():
    only = bg.enumerate_ssyt(bg.WeightComposition(2, (1, 1)))
    assert [tb.rows for tb in only] == [((1,), (2,))]

    tabs = bg.enumerate_ssyt(bg.WeightComposition(5, (2, 1, 1, 2, 1, 1)))
    rows = [tb.rows for tb in tabs]
    assert len(rows) == 6
    for shown in (
        ((1, 1, 4, 4), (2, 3, 5, 6)),
        ((1, 1, 3, 4), (2, 4, 5, 6)),
        ((1, 1, 2, 3), (4, 4, 5, 6)),
    ):
        assert shown in rows


def test_enumerate_ssyt_matches_column_fill_oracle():
    types = 0
    for d in range(2, 7):
        for a in bg.compositions(2 * d - 2, d - 1):
            if not 2 <= len(a) <= 2 * d - 2:
                continue
            t = bg.WeightComposition(d, a)
            assert bg.enumerate_ssyt(t) == column_fill_ssyt(t), t
            types += 1
    assert types == 602


@pytest.mark.parametrize(
    "types",
    [
        pytest.param(lambda: _types(8), id="every type with d <= 8"),
        pytest.param(lambda: _random_types(1201, 30, 12), id="random types with d <= 12"),
        pytest.param(lambda: [STAR], id="star type of degree 1000"),
    ],
)
def test_enumeration_matches_table_walk_and_event_replay_oracles(types):
    for t in types():
        vectors = list(table_walk_close_counts(t.a))
        assert [
            tuple(real_combinatorics._per_point(bottom, t.n))
            for _, bottom in real_combinatorics._tableau_rows(t.a)
        ] == vectors, t
        assert bg.enumerate_pairings(t) == event_enumerate_pairings(t, vectors), t
        assert bg.enumerate_ssyt(t) == close_vector_ssyt(t, vectors), t


def test_mirror_graph_matches_rank_sorted_oracle():
    pairings = 0
    for t in _types(7):
        for p in bg.enumerate_pairings(t):
            m, _, _ = bg.mirror_graph(p)
            alpha, sigma = rank_sorted_mirror_graph(p)
            assert (m.alpha, m.sigma) == (tuple(alpha), tuple(sigma)), p
            pairings += 1
    assert pairings == 32459


def test_serializers_match_document_dump():
    for t in [*_types(6), STAR]:
        for p in bg.enumerate_pairings(t):
            doc = {"n": p.type.n, "a": list(p.type.a), "arcs": [list(arc) for arc in p.arcs]}
            assert bg.serialize_pairing(p) == dump(doc)
        for tb in bg.enumerate_ssyt(t):
            assert bg.serialize_tableau(tb) == dump({"rows": [list(r) for r in tb.rows]})


def test_validate_pairing_returns_sorted_arcs():
    t = bg.WeightComposition(4, (2, 1, 1, 2))
    p = bg.NonCrossingPairing(t, ((2, 3), (1, 4), (1, 4)))
    assert bg.validate_pairing(p) == [(1, 4), (1, 4), (2, 3)]


@pytest.mark.parametrize(
    "types",
    [
        pytest.param(lambda: _types(8), id="every type with d <= 8"),
        pytest.param(lambda: _random_types(1812, 30, 12), id="random types with d <= 12"),
        pytest.param(lambda: [STAR], id="star type of degree 1000"),
    ],
)
def test_listings_match_the_per_item_oracle(capsys, types):
    for t in types():
        weights = ["--d", str(t.d), "--a", ",".join(map(str, t.a))]
        assert cli.main(["pairings", *weights]) == 0
        assert capsys.readouterr().out == per_item_pairings_text(t), t
        assert cli.main(["ssyt", *weights]) == 0
        assert capsys.readouterr().out == per_item_ssyt_text(t), t


def test_listings_carry_no_table_from_one_call_to_the_next(capsys):
    # each listing must come out as in a fresh process, whichever listing
    # of another type ran before it in this one
    calls = [
        ["pairings", "--d", "6", "--a", "2,1,3,1,2,1"],
        ["pairings", "--d", "7", "--a", "3,2,1,2,2,2"],
        ["ssyt", "--d", "6", "--a", "2,1,3,1,2,1"],
        ["ssyt", "--d", "7", "--a", "3,2,1,2,2,2"],
    ]
    in_process = []
    for argv in calls + calls:
        assert cli.main(argv) == 0
        in_process.append(capsys.readouterr().out)
    src = str(Path(bg.__file__).resolve().parents[1])
    for i, argv in enumerate(calls):
        fresh = subprocess.run(
            [sys.executable, "-m", "balancedgraphs.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert in_process[i] == in_process[i + len(calls)] == fresh.stdout, argv


def test_completion_table_grows_linearly_for_the_star_type():
    # one pairing, so one open count per point and one entry per row
    for d in (250, 500, 1000, 2000):
        ways = real_combinatorics._completions((d - 1,) + (1,) * (d - 1))
        assert (ways[0], sum(map(len, ways))) == ([1], d + 1)


def test_replay_rejects_rows_no_pairing_has():
    replay = real_combinatorics._replay
    assert replay([1, 1], [2, 3]) == [(1, 2), (1, 3)]
    assert replay([2], [1]) is None  # a closing before any opening
    assert replay([1], []) is None  # an arc left open


def test_mirror_command_replays_the_pairing_once(monkeypatch, tmp_path, capsys):
    calls = []
    replay = real_combinatorics._replay

    def counted(*args):
        calls.append(args)
        return replay(*args)

    monkeypatch.setattr(real_combinatorics, "_replay", counted)
    path = tmp_path / "pairing.json"
    path.write_text('{"a":[2,1,1,2,1,1],"arcs":[[1,2],[1,3],[4,5],[4,6]],"n":6}')
    assert cli.main(["mirror", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith('{"alpha":')
    assert len(calls) == 1


def test_invalid_pairing_raises_on_every_call():
    t = bg.WeightComposition(3, (1, 1, 1, 1))
    crossing = bg.NonCrossingPairing(t, ((1, 3), (2, 4)))
    for _ in range(2):
        for convert in (bg.mirror_graph, bg.pairing_to_tableau):
            with pytest.raises(bg.InvariantViolation, match="not a non-crossing pairing"):
                convert(crossing)


def test_compositions_match_product_filter():
    # a negative total, and a positive one without parts to hold it, have none
    cases = [(t, m) for t in range(11) for m in range(1, t + 2)] + [(2, 0), (-1, 3)]
    for total, max_part in cases:
        # length parts of at least 1 leave at most total - length + 1 for one
        want = sorted(
            parts
            for length in range(total + 1)
            for parts in product(range(1, min(max_part, total - length + 1) + 1), repeat=length)
            if sum(parts) == total
        )
        assert list(bg.compositions(total, max_part)) == want, (total, max_part)


def test_compositions_start_without_recursion():
    assert next(bg.compositions(1198, 599)) == (1,) * 1198


def test_kostka_values():
    assert bg.kostka(bg.WeightComposition(3, (1, 1, 1, 1))) == 2
    assert bg.kostka(bg.WeightComposition(2, (1, 1))) == 1
    big = bg.WeightComposition(8, (1, 3, 3, 5, 2))
    count = bg.kostka(big)
    assert count == 5
    rows = [tb.rows for tb in bg.enumerate_ssyt(big)]
    assert len(rows) == count == len(bg.enumerate_pairings(big))
    assert ((1, 2, 2, 3, 3, 4, 4), (2, 3, 4, 4, 4, 5, 5)) in rows
    assert ((1, 2, 2, 3, 3, 3, 4), (2, 4, 4, 4, 4, 5, 5)) in rows


def test_kostka_matches_jacobi_trudi_oracle():
    types = list(_types(8))
    assert len(types) == 10_474
    types += list(_random_types(14, 30, 14))
    types.append(STAR)
    for t in types:
        assert bg.kostka(t) == jacobi_trudi_kostka(t), t.a


def test_catalan():
    assert [bg.catalan(d) for d in range(1, 9)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_bijection_examples():
    t = bg.WeightComposition(3, (1, 1, 1, 1))
    nested = bg.NonCrossingPairing(t, ((1, 2), (3, 4)))
    assert bg.pairing_to_tableau(nested).rows == ((1, 3), (2, 4))
    covered = bg.NonCrossingPairing(t, ((1, 4), (2, 3)))
    assert bg.pairing_to_tableau(covered).rows == ((1, 2), (3, 4))
    single = bg.NonCrossingPairing(bg.WeightComposition(2, (1, 1)), ((1, 2),))
    assert bg.pairing_to_tableau(single).rows == ((1,), (2,))


def test_bijection_round_trip_everywhere():
    for d in (2, 3, 4, 5):
        for a in bg.compositions(2 * d - 2, d - 1):
            if not 2 <= len(a) <= 2 * d - 2:
                continue
            t = bg.WeightComposition(d, a)
            pairings = bg.enumerate_pairings(t)
            images = []
            for p in pairings:
                tb = bg.pairing_to_tableau(p)
                assert bg.tableau_to_pairing(tb) == p
                images.append(tb.rows)
            assert sorted(images) == [tb.rows for tb in bg.enumerate_ssyt(t)]


def test_tableau_check_matches_rowwise_oracle():
    # every pair of rows of length d - 1 with entries in 1..n, 2 <= n <= 2d - 2
    checked = 0
    for d in (2, 3, 4):
        for n in range(2, 2 * d - 1):
            row_list = list(product(range(1, n + 1), repeat=d - 1))
            for top in row_list:
                for bottom in row_list:
                    rows = (top, bottom)
                    checked += 1
                    points = top + bottom
                    try:
                        t = bg.WeightComposition(
                            d, tuple(points.count(k) for k in range(1, max(points) + 1))
                        )
                    except bg.InvariantViolation:
                        t = None
                    want = t is not None and rowwise_tableau_ok(rows, t)
                    try:
                        p = bg.tableau_to_pairing(bg.Tableau2Row(rows))
                    except bg.InvariantViolation:
                        assert not want, rows
                        continue
                    assert want, rows
                    assert p.type == t
                    assert bg.pairing_to_tableau(p).rows == rows
    assert checked == 67_527


@pytest.mark.parametrize("rows", [((-5,), (2,)), ((0,), (2,))])
def test_tableau_entries_below_one_are_rejected(rows):
    with pytest.raises(bg.InvariantViolation, match="not a semistandard two-row tableau"):
        bg.tableau_to_pairing(bg.Tableau2Row(rows))


@pytest.mark.parametrize(
    "rows, message",
    [
        (((1,), (10**7,)), "need 2..2 points, got 10000000"),
        (((), (5,)), "degree must be at least 2, got 1"),
        (((), (10**7,)), "degree must be at least 2, got 1"),
    ],
)
def test_tableau_entry_size_costs_no_memory(rows, message):
    tracemalloc.start()
    try:
        with pytest.raises(bg.InvariantViolation) as info:
            bg.tableau_to_pairing(bg.Tableau2Row(rows))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == message
    assert peak < 1_000_000


def test_tableau_type_errors_are_weight_composition_errors():
    # one bottom entry n after k ones on top: whatever WeightComposition
    # says of those point counts, tableau_to_pairing says too
    raised = 0
    for k in range(4):
        for n in range(1, 2 * k + 4):
            rows = ((1,) * k, (n,))
            counts = tuple(((1,) * k + (n,)).count(x) for x in range(1, n + 1))
            try:
                bg.WeightComposition(k + 1, counts)
            except bg.InvariantViolation as exc:
                with pytest.raises(bg.InvariantViolation) as info:
                    bg.tableau_to_pairing(bg.Tableau2Row(rows))
                assert str(info.value) == str(exc)
                raised += 1
    assert raised >= 10


@st.composite
def _compositions(draw):
    # parts are capped at d - 1 < 2d - 2, so at least two parts arise
    d = draw(st.integers(min_value=2, max_value=7))
    total = 2 * d - 2
    parts = []
    while total:
        x = draw(st.integers(min_value=1, max_value=min(d - 1, total)))
        parts.append(x)
        total -= x
    return d, tuple(parts)


@settings(max_examples=80, deadline=None)
@given(_compositions())
def test_bijection_round_trip_random(data):
    d, a = data
    if not 2 <= len(a) <= 2 * d - 2:
        return
    t = bg.WeightComposition(d, a)
    pairings = bg.enumerate_pairings(t)
    assert len(pairings) == bg.kostka(t)
    for p in pairings[:20]:
        assert bg.tableau_to_pairing(bg.pairing_to_tableau(p)) == p


def test_mirror_graph_b2(b2):
    p = bg.NonCrossingPairing(bg.WeightComposition(2, (1, 1)), ((1, 2),))
    m, coloring, real_cycle = bg.mirror_graph(p)
    assert bg.are_isomorphic(m, b2)
    assert m.vertex_valences == (4, 4)
    assert bg.is_real_balanced(m, real_cycle)


def test_mirror_graph_counts(mirror_1234):
    _, m, _, real_cycle = mirror_1234
    assert (m.vertex_count, m.edge_count, m.face_count) == (4, 8, 6)
    assert m.genus() == 0
    assert m.vertex_valences == (4, 4, 4, 4)
    assert bg.is_real_balanced(m, real_cycle)


def test_mirror_graph_parallel_arcs():
    p = bg.NonCrossingPairing(bg.WeightComposition(3, (2, 2)), ((1, 2), (1, 2)))
    m, _, real_cycle = bg.mirror_graph(p)
    assert (m.vertex_count, m.edge_count, m.face_count) == (2, 6, 6)
    assert m.vertex_valences == (6, 6)
    assert bg.is_real_balanced(m, real_cycle)


def test_mirror_graph_valence_profile_everywhere():
    for p, m, _, real_cycle in all_mirror_graphs(5):
        expected = tuple(2 * x + 2 for x in p.type.a)
        vod = m.vertex_of_dart
        profile = tuple(len(m.vertices[vod[d]]) for d in real_cycle)
        assert profile == expected
        assert m.face_count == 2 * p.type.d
        assert m.genus() == 0


def test_mirror_graph_builds_maps_the_checked_constructor_accepts():
    # the mirror graph of a validated pairing is built unchecked
    mirrors = all_mirror_graphs(6)
    for _, m, _, _ in mirrors:
        assert bg.CombinatorialMap(m.alpha, m.sigma) == m
    assert len(mirrors) == 3563


def test_mirror_conjugation_swaps_colors():
    for p, m, coloring, real_cycle in all_mirror_graphs(4):
        iota = bg.conjugation_involution(m, real_cycle)
        assert iota is not None
        fod = m.face_of_dart
        for d in range(m.dart_count):
            image_face = fod[m.alpha[iota[d]]]
            assert coloring.color(fod[d]) != coloring.color(image_face)


def test_is_real_balanced_rejections(b2, t1):
    assert not bg.is_real_balanced(t1, (0, 2))
    # two edges of the bigon map that are not mirror images of each other
    assert bg.is_real_balanced(b2, (0, 5))
    assert not bg.is_real_balanced(b2, (0, 3))


def test_is_real_balanced_on_the_theta_graph():
    # two vertices joined by three edges: the real cycle along one edge is
    # a closed walk with a reflection, but the three faces meet pairwise
    m = map_from_rotations([["a", "b", "c"], ["a", "c", "b"]])
    real_cycle = (0, m.alpha[0])
    assert real_cycle_order(m, real_cycle) == [0, 1]
    assert bg.conjugation_involution(m, real_cycle) is not None
    with pytest.raises(bg.NotBipartiteFaces):
        bg.alternating_coloring(m)
    assert not bg.is_real_balanced(m, real_cycle)


def test_real_cycle_consumers_reject_entries_that_are_not_dart_ids():
    m = bg.CombinatorialMap([1, 0, 3, 2], [2, 3, 0, 1])
    for cycle in ((9,), (0, -1), (True, 1), (0.0, 1)):
        assert real_cycle_order(m, cycle) is None
        assert not bg.is_real_balanced(m, cycle)
        with pytest.raises(bg.UnsupportedFormat):
            bg.to_svg(m, cycle)
        with pytest.raises(bg.InvariantViolation, match="dart ids"):
            bg.conjugation_involution(m, cycle)
        with pytest.raises(bg.InvariantViolation, match="dart ids"):
            bg.marked_canonical_key(m, cycle)
    with pytest.raises(bg.InvariantViolation, match="dart ids"):
        bg.marked_canonical_key(m, ())
    assert bg.conjugation_involution(m, ()) is None


def test_is_real_balanced_matches_all_darts_oracle(b2, t1):
    cases = balanced = 0
    for _, m, _, real_cycle in all_mirror_graphs(5):
        back = tuple([m.alpha[d] for d in reversed(real_cycle)])
        rotated = real_cycle[1:] + real_cycle[:1]
        for cycle in (real_cycle, rotated, real_cycle[::-1], back):
            ours = bg.is_real_balanced(m, cycle)
            assert ours == all_darts_real_balanced(m, cycle)
            balanced += ours
            cases += 1
    # the given, rotated and backwards-walked cycles are balanced; the
    # reversed dart order is no closed walk once it has three darts
    assert cases // 2 < balanced < cases
    for m, cycle in ((b2, (0, 5)), (b2, (0, 3)), (t1, (0, 2))):
        assert bg.is_real_balanced(m, cycle) == all_darts_real_balanced(m, cycle)


def _trial_cycles(m, real_cycle, rng):
    """The real cycle as given, rotated, reversed and empty, and three
    seeded random dart triples."""
    yield real_cycle
    yield real_cycle[1:] + real_cycle[:1]
    yield real_cycle[::-1]
    yield ()
    for _ in range(3):
        yield tuple(rng.randrange(m.dart_count) for _ in range(3))


def test_conjugation_involution_matches_propagation_oracle(gb_corpus):
    rng = random.Random(13)
    found = 0
    cases = 0
    for _, m, _, real_cycle in all_mirror_graphs(5):
        for cycle in _trial_cycles(m, real_cycle, rng):
            iota = bg.conjugation_involution(m, cycle)
            assert iota == propagated_involution(m, cycle)
            found += iota is not None
            cases += 1
    # the given, rotated and reversed cycles all have the reflection
    assert 3 * cases // 7 <= found < cases
    # maps that are not mirror graphs, most without a reflection
    for m in gb_corpus:
        cycle = tuple(rng.randrange(m.dart_count) for _ in range(rng.randint(1, 3)))
        assert bg.conjugation_involution(m, cycle) == propagated_involution(m, cycle)


def test_real_cycle_order_on_mirror_graphs():
    for _, m, _, real_cycle in all_mirror_graphs(4):
        vod = m.vertex_of_dart
        assert real_cycle_order(m, real_cycle) == [vod[d] for d in real_cycle]
        # walked backwards the cycle runs along the partner darts
        back = tuple([m.alpha[d] for d in reversed(real_cycle)])
        assert real_cycle_order(m, back) == [vod[d] for d in back]
        if len(real_cycle) > 2:
            assert real_cycle_order(m, real_cycle[::-1]) is None
        assert real_cycle_order(m, ()) is None


def test_open_real_cycles_are_rejected(open_real_cycle_documents):
    for text in open_real_cycle_documents:
        doc = bg.deserialize(text)
        assert sorted(doc.map.vertex_of_dart[d] for d in doc.real_cycle) == list(
            range(doc.map.vertex_count)
        )
        assert real_cycle_order(doc.map, doc.real_cycle) is None
        assert not bg.is_real_balanced(doc.map, doc.real_cycle)
        with pytest.raises(bg.UnsupportedFormat, match="closed walk"):
            bg.to_svg(doc.map, doc.real_cycle)


def test_marked_isomorphism_distinguishes_rotated_pairings():
    # the two pairings of type (3, 1^4) are related by rotating the points,
    # so only the marked real cycle tells their mirror graphs apart
    t = bg.WeightComposition(3, (1, 1, 1, 1))
    p1 = bg.NonCrossingPairing(t, ((1, 2), (3, 4)))
    p2 = bg.NonCrossingPairing(t, ((1, 4), (2, 3)))
    m1, _, c1 = bg.mirror_graph(p1)
    m2, _, c2 = bg.mirror_graph(p2)
    assert bg.are_isomorphic(m1, m2)
    assert bg.marked_canonical_key(m1, c1) != bg.marked_canonical_key(m2, c2)


def test_pairing_serialization_round_trip(mirror_1234):
    p = mirror_1234[0]
    text = bg.serialize_pairing(p)
    assert bg.deserialize_pairing(text) == p
    with pytest.raises(bg.ParseError):
        bg.deserialize_pairing("{}")
    crossing = '{"a":[1,1,1,1],"arcs":[[1,3],[2,4]],"n":4}'
    with pytest.raises(bg.InvariantViolation):
        bg.deserialize_pairing(crossing)
