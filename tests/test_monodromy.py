import collections
import random

import pytest

import balancedgraphs as bg
from balancedgraphs import monodromy
from balancedgraphs.permutations import compose_chain, conjugate, inverse, is_transitive
from helpers import all_mirror_graphs
from oracles import factorial_conjugation_canonical


def _realize(m, coloring):
    dg = bg.dot_graph(m, coloring)
    enriched = bg.enrich(m, bg.perfect_matching(dg))
    return enriched, bg.admissible_labeling(enriched, coloring)


def test_constellation_from_b2(b2):
    coloring = bg.alternating_coloring(b2)
    enriched, lab = _realize(b2, coloring)
    c = bg.constellation_from(enriched, coloring, lab)
    assert c == bg.Constellation.from_cycles(2, [[(1, 2)], [(1, 2)]])
    report = bg.verify_constellation(c, bg.passport_of(enriched, lab))
    assert report.ok and report.genus == 0


def test_constellation_from_cycle_map(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    lab = bg.admissible_labeling(cycle_map, coloring)
    c = bg.constellation_from(cycle_map, coloring, lab)
    assert c == bg.Constellation(1, ((0,), (0,)))


def test_constellation_from_t1(t1):
    coloring = bg.alternating_coloring(t1)
    lab = bg.admissible_labeling(t1, coloring)
    c = bg.constellation_from(t1, coloring, lab)
    assert c.m == 4 and all(p == (1, 0) for p in c.perms)


def test_verify_constellation_examples():
    ok = bg.Constellation.from_cycles(2, [[(1, 2)], [(1, 2)]])
    report = bg.verify_constellation(ok)
    assert report.ok and report.genus == 0
    assert report.cycle_types == ((2,), (2,))

    torus = bg.Constellation.from_cycles(2, [[(1, 2)]] * 4)
    report = bg.verify_constellation(torus)
    assert report.ok and report.genus == 1

    bad = bg.Constellation.from_cycles(3, [[(1, 2)], [(1, 3)]])
    report = bg.verify_constellation(bad)
    assert not report.ok and not report.product_is_identity


def test_verify_constellation_passport_flag():
    c = bg.Constellation.from_cycles(3, [[(1, 2)], [(1, 2)]])
    full = bg.Passport(3, ((2, 1), (2, 1)))
    stripped = bg.Passport(3, ((2,), (2,)))
    assert bg.verify_constellation(c, full).passport_match
    assert not bg.verify_constellation(c, stripped).passport_match


def test_constellation_degree_must_be_positive():
    with pytest.raises(bg.InvariantViolation, match="degree must be positive, got 0"):
        bg.Constellation(0, ())


def test_constellation_permutation_must_have_length_d():
    with pytest.raises(bg.BadPermutation, match="expected length 2, got 1"):
        bg.Constellation(2, ((0,),))


def test_rh_genus():
    assert bg.rh_genus(bg.Passport(2, ((2,), (2,)))) == 0
    assert bg.rh_genus(bg.Passport(2, ((2,), (2,), (2,), (2,)))) == 1
    assert bg.rh_genus(bg.Passport(1, ((1,), (1,)))) == 0
    assert bg.rh_genus(bg.Passport(3, ((3,), (3,)))) == 0
    with pytest.raises(bg.NonIntegerGenus):
        bg.rh_genus(bg.Passport(2, ((2,), (2,), (2,))))
    with pytest.raises(bg.NonIntegerGenus):
        # too little branching forces a negative genus
        bg.rh_genus(bg.Passport(3, ((2, 1), (2, 1))))


def test_pullback_b2(b2):
    c = bg.Constellation.from_cycles(2, [[(1, 2)], [(1, 2)]])
    m, coloring, lab = bg.pullback_from_constellation(c)
    assert bg.are_isomorphic(m, b2)
    ok, why = bg.verify_labeling(m, coloring, lab)
    assert ok, why


def test_pullback_identity_degree_one(cycle_map):
    c = bg.Constellation(1, ((0,), (0,)))
    m, _, _ = bg.pullback_from_constellation(c)
    assert bg.are_isomorphic(m, cycle_map)


def test_pullback_t1(t1):
    c = bg.Constellation.from_cycles(2, [[(1, 2)]] * 4)
    m, coloring, lab = bg.pullback_from_constellation(c)
    assert (m.vertex_count, m.edge_count, m.face_count) == (4, 8, 4)
    assert m.genus() == 1
    assert bg.are_isomorphic(m, t1)
    report = bg.is_locally_balanced(m, coloring)
    assert report.locally_balanced and report.d == 2
    assert len(m.corners) == 4  # type (1, 2, 4)


def test_from_cycles_names_a_point_repeated_in_one_slot():
    for cycle_lists, point in (
        ([[(1, 1)]], 1),
        ([[(1, 2), (1, 2)]], 1),
        ([[(1, 2), (2, 3)]], 2),
        ([[(1, 2, 3)], [(3, 1), (2, 3)]], 3),
    ):
        with pytest.raises(bg.BadPermutation, match=rf"point {point} appears twice"):
            bg.Constellation.from_cycles(3, cycle_lists)
    # a point may appear once in each slot
    c = bg.Constellation.from_cycles(3, [[(1, 2)], [(1, 2)], [(3,)]])
    assert c.perms == ((1, 0, 2), (1, 0, 2), (0, 1, 2))


def test_from_cycles_names_a_point_that_is_not_an_integer():
    for point in (1.5, True, "1", None):
        for cycle_lists in ([[(point, 2)]], [[(1, point)]]):
            with pytest.raises(bg.BadPermutation, match=rf"point {point!r} is not an integer"):
                bg.Constellation.from_cycles(3, cycle_lists)


def test_from_cycles_names_a_cycle_that_is_not_a_sequence_of_points():
    for cycle in (5, None, {1, 2}, iter((1, 2))):
        with pytest.raises(bg.BadPermutation, match=r"^cycle .* is not a sequence of points$"):
            bg.Constellation.from_cycles(3, [[(1, 2)], [cycle]])
    # lists and tuples are sequences of points
    assert bg.Constellation.from_cycles(3, [[[1, 2]], [(1, 2)]]).perms == ((1, 0, 2), (1, 0, 2))


def test_from_cycles_names_a_point_outside_the_degree():
    for cycle_lists in ([[(1, 5)]], [[(4,)]]):
        with pytest.raises(bg.BadPermutation, match=r"point \d is outside 1\.\.3"):
            bg.Constellation.from_cycles(3, cycle_lists)
    # point 0, negative points and repeated points fail as well
    for cycle_lists in ([[(0, 1)]], [[(-1, 2)]], [[(1, 2), (2, 3)]]):
        with pytest.raises(bg.BadPermutation):
            bg.Constellation.from_cycles(3, cycle_lists)


def test_pullback_rejects_unverified():
    with pytest.raises(bg.NotVerified):
        bg.pullback_from_constellation(
            bg.Constellation.from_cycles(3, [[(1, 2)], [(1, 3)]])
        )
    # transitivity failure
    with pytest.raises(bg.NotVerified):
        bg.pullback_from_constellation(
            bg.Constellation.from_cycles(2, [[], []])
        )
    # verified, but with no permutation there is nothing to pull back
    assert bg.verify_constellation(bg.Constellation(1, ())).ok
    with pytest.raises(bg.NotVerified, match="at least one permutation"):
        bg.pullback_from_constellation(bg.Constellation(1, ()))


def test_round_trip_constellations(constellation_corpus):
    for c in constellation_corpus:
        m, coloring, lab = bg.pullback_from_constellation(c)
        assert m.face_count == 2 * c.d
        ok, why = bg.verify_labeling(m, coloring, lab)
        assert ok, why
        back = bg.constellation_from(m, coloring, lab)
        assert bg.conjugation_canonical(back).perms == bg.conjugation_canonical(c).perms
        # genus agreement with the passport
        assert m.genus() == bg.rh_genus(bg.passport_of(m, lab))
        # vertex valences are twice the cycle lengths
        for j, perm in enumerate(c.perms, start=1):
            lengths = sorted(len(m.vertices[v]) // 2 for v in lab.classes[j - 1])
            expected = sorted(
                len(cyc) for cyc in _perm_cycles(perm)
            )
            assert lengths == expected


def _perm_cycles(p):
    seen = [False] * len(p)
    out = []
    for s in range(len(p)):
        if not seen[s]:
            cyc = [s]
            seen[s] = True
            x = p[s]
            while x != s:
                seen[x] = True
                cyc.append(x)
                x = p[x]
            out.append(cyc)
    return out


def test_round_trip_corpus_maps(gb_corpus):
    # the mirror graphs are the maps whose realization the CLI round-trips
    maps = [(m, bg.alternating_coloring(m)) for m in gb_corpus]
    maps += [(m, coloring) for _, m, coloring, _ in all_mirror_graphs(5)]
    for m, coloring in maps:
        dg = bg.dot_graph(m, coloring)
        if not bg.hall_check(dg).ok:
            continue
        enriched, lab = _realize(m, coloring)
        c = bg.constellation_from(enriched, coloring, lab)
        passport = bg.passport_of(enriched, lab)
        assert bg.verify_constellation(c, passport).ok
        rebuilt, _, _ = bg.pullback_from_constellation(c)
        assert bg.are_isomorphic(rebuilt, enriched)
        # corner bound after forgetting superfluous labels
        new_map, new_lab = bg.compress_labels(enriched, lab)
        d = new_map.face_count // 2
        assert new_lab.m <= 2 * (new_map.genus() + d - 1)


def test_realize_runs_the_stages(gb_corpus):
    # realize on a map without 2-valent vertices is the stages called in turn
    realized = 0
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        found = bg.realize(m)
        assert found == bg.realize(m, coloring)
        if m.vertex_count > len(m.corners) or not bg.hall_check(bg.dot_graph(m, coloring)).ok:
            continue
        enriched, lab = _realize(m, coloring)
        c = bg.constellation_from(enriched, coloring, lab)
        assert found == bg.Realization(True, enriched, coloring, lab, c)
        realized += 1
    assert realized


def test_realize_returns_each_verdict(counterexample):
    m, colors, _ = counterexample
    assert bg.realize(m, colors) == bg.Realization(
        False, verdict="not locally balanced; Hall witness B faces: [1, 3, 4]"
    )
    assert bg.realize(bg.build_map(2, [1, 0], [0, 1])) == bg.Realization(
        False, verdict="not globally balanced: no alternating face coloring exists"
    )
    # a pullback with fixed points: its 2-valent vertices are spliced out,
    # and the result is a realization of the spliced map
    c = bg.Constellation.from_cycles(3, [[(1, 2)], [(2, 3)], [(1, 3, 2)]])
    m, coloring, _ = bg.pullback_from_constellation(c)
    assert 2 in m.vertex_valences
    found = bg.realize(m, coloring)
    assert found.ok and found.verdict == ""
    assert 2 * found.constellation.d == found.map.face_count
    assert bg.verify_labeling(found.map, found.coloring, found.labeling) == (True, None)
    assert bg.verify_constellation(found.constellation).ok
    rebuilt, _, _ = bg.pullback_from_constellation(found.constellation)
    assert bg.are_isomorphic(rebuilt, found.map)


def test_realize_rejects_a_coloring_that_is_not_proper():
    # the (1, 1, 1, 1) mirror graph has six faces; a coloring with three A
    # faces that is not proper, ones of two and eight faces, and colors
    # that are not a sequence are all refused as the document reader
    # refuses them, by realize, by the balance gates it hands the coloring
    # to and by the region enumerator, whose candidates assume a proper
    # coloring
    t = bg.WeightComposition(3, (1, 1, 1, 1))
    m, coloring, _ = bg.mirror_graph(bg.NonCrossingPairing(t, ((1, 2), (3, 4))))
    assert m.face_count == 6 and bg.realize(m, coloring).ok
    for colors, message in (
        (("A", "A", "B", "B", "A", "B"), "colors is not a proper face two-coloring"),
        (("A", "B"), "colors must assign A or B to every face"),
        (("A", "B") * 4, "colors must assign A or B to every face"),
        (5, "colors must assign A or B to every face"),
    ):
        for call in (
            bg.realize,
            bg.is_globally_balanced,
            bg.is_locally_balanced,
            bg.positive_regions,
        ):
            with pytest.raises(bg.InvariantViolation, match=message):
                call(m, bg.FaceColoring(colors))


def test_constellations_do_not_tell_pairings_apart():
    # Each mirror graph goes through the document the mirror command prints,
    # read back as realize reads it; its constellation is reduced up to
    # simultaneous conjugation.  The constellation forgets which real
    # critical point carries which branch value, so on some types distinct
    # pairings share a class: a class count is not a count of pairings.
    # With d <= 6 (about 2 s) it is 78 of 602 types, and the all-ones type
    # of d = 6 gives 42 pairings in 9 classes.  The counts depend on how the
    # input numbers its darts: fed mirror_graph's own numbering, realize
    # gives fewer classes than pairings on 12 of these 138 types.
    pairings = collections.Counter()
    classes = collections.defaultdict(set)
    for p, m, coloring, real_cycle in all_mirror_graphs(5):
        doc = bg.deserialize(bg.serialize(m, coloring=coloring, real_cycle=real_cycle))
        enriched, lab = _realize(doc.map, doc.colors)
        c = bg.constellation_from(enriched, doc.colors, lab)
        t = (p.type.d, p.type.a)
        pairings[t] += 1
        classes[t].add(bg.conjugation_canonical(c).perms)
    assert len(pairings) == 138
    assert sum(len(classes[t]) < pairings[t] for t in pairings) == 26
    for d, counts in ((3, (2, 1)), (4, (5, 2)), (5, (14, 3))):
        all_ones = (d, (1,) * (2 * d - 2))
        assert (pairings[all_ones], len(classes[all_ones])) == counts


def test_conjugation_canonical_identifies_relabelings():
    c1 = bg.Constellation.from_cycles(3, [[(1, 2, 3)], [(1, 3, 2)]])
    c2 = bg.Constellation.from_cycles(3, [[(2, 3, 1)], [(2, 1, 3)]])
    assert bg.conjugation_canonical(c1).perms == bg.conjugation_canonical(c2).perms
    inverse = bg.Constellation.from_cycles(3, [[(1, 3, 2)], [(1, 2, 3)]])
    assert (
        bg.conjugation_canonical(c1).perms == bg.conjugation_canonical(inverse).perms
    )  # swapped 3-cycles are conjugate by a transposition


def test_round_trip_random_larger_degree():
    # spot checks beyond the exhaustive corpus caps
    import random

    from balancedgraphs.permutations import compose_chain, inverse, is_transitive

    rng = random.Random(1349)
    found = 0
    while found < 25:
        d = rng.choice((5, 6))
        mm = rng.choice((2, 3, 4, 5))
        pre = tuple(
            tuple(rng.sample(range(d), d)) for _ in range(mm - 1)
        )
        perms = pre + (inverse(compose_chain(pre, d)),)
        if not is_transitive(perms, d):
            continue
        c = bg.Constellation(d, perms)
        m, coloring, lab = bg.pullback_from_constellation(c)
        assert m.face_count == 2 * d
        back = bg.constellation_from(m, coloring, lab)
        assert bg.conjugation_canonical(back).perms == bg.conjugation_canonical(c).perms
        assert m.genus() == bg.rh_genus(bg.passport_of(m, lab))
        found += 1


def _random_transitive(rng, d, branch_points, fixed_points):
    """A seeded random transitive constellation, with or without a
    permutation fixing a sheet."""
    while True:
        pre = tuple(tuple(rng.sample(range(d), d)) for _ in range(branch_points - 1))
        perms = pre + (inverse(compose_chain(pre, d)),)
        fixed = any(p[s] == s for p in perms for s in range(d))
        if fixed == fixed_points and is_transitive(perms, d):
            return bg.Constellation(d, perms)


def test_pullback_builds_maps_the_checked_constructor_accepts():
    # the pullback of a verified constellation is built unchecked
    rng = random.Random(4817)
    cases = [bg.Constellation(1, ((0,),)), bg.Constellation(1, ((0,),) * 3)]
    for d, branch_points in ((3, 3), (6, 4), (16, 3), (128, 3), (128, 5)):
        for fixed_points in (True, False):
            cases += [_random_transitive(rng, d, branch_points, fixed_points) for _ in range(3)]
    for c in cases:
        m, _, _ = bg.pullback_from_constellation(c)
        assert bg.CombinatorialMap(m.alpha, m.sigma) == m
        assert m.dart_count == 2 * c.d * c.m


def test_constellation_serialization_round_trip():
    c = bg.Constellation.from_cycles(3, [[(1, 2, 3)], [(1, 3, 2)]])
    text = bg.serialize_constellation(c)
    assert bg.deserialize_constellation(text) == c
    with pytest.raises(bg.ParseError):
        bg.deserialize_constellation("{}")
    with pytest.raises(bg.ParseError):
        bg.deserialize_constellation("not json")


def test_deserialize_constellation_checks_each_permutation_once(monkeypatch):
    expected = bg.Constellation(3, ((1, 2, 0), (2, 0, 1)))
    calls = []
    check = monodromy.check_permutation

    def counted(p, n):
        calls.append(p)
        return check(p, n)

    monkeypatch.setattr(monodromy, "check_permutation", counted)
    assert bg.deserialize_constellation('{"d":3,"perms":[[2,3,1],[3,1,2]]}') == expected
    assert calls == []  # the reader's own check covers each permutation
    with pytest.raises(bg.BadPermutation, match=r"\[1, 1, 3\] is not a permutation of 1\.\.3"):
        bg.deserialize_constellation('{"d":3,"perms":[[2,3,1],[1,1,3]]}')
    # a library caller's constellation is still checked
    with pytest.raises(bg.BadPermutation):
        bg.Constellation(3, ((0, 0, 2),))


def test_conjugation_canonical_matches_factorial_oracle(constellation_corpus):
    rng = random.Random(577)
    constellations = list(constellation_corpus)
    while len(constellations) < len(constellation_corpus) + 60:
        d = rng.choice((5, 6))
        pre = tuple(tuple(rng.sample(range(d), d)) for _ in range(rng.choice((1, 2, 3))))
        perms = pre + (inverse(compose_chain(pre, d)),)
        if not is_transitive(perms, d):
            continue
        relabeling = rng.sample(range(d), d)
        constellations.append(bg.Constellation(d, perms))
        constellations.append(bg.Constellation(d, conjugate(perms, relabeling)))
    ours = [bg.conjugation_canonical(c) for c in constellations]
    oracle = [factorial_conjugation_canonical(c) for c in constellations]
    # equal representatives exactly when the oracle's are equal
    pairs = set(zip((r.perms for r in ours), oracle))
    assert len(pairs) == len({r.perms for r in ours}) == len(set(oracle))
    # each representative lies in the class of its input
    for r, want in zip(ours, oracle):
        assert factorial_conjugation_canonical(r) == want


def test_conjugation_canonical_rejects_intransitive():
    with pytest.raises(bg.Disconnected):
        bg.conjugation_canonical(bg.Constellation.from_cycles(2, [[], []]))
    with pytest.raises(bg.Disconnected):
        bg.conjugation_canonical(bg.Constellation(2, ()))
    assert bg.conjugation_canonical(bg.Constellation(1, ())).perms == ()
