import random

import pytest

import balancedgraphs as bg
from helpers import all_mirror_graphs, map_from_rotations, random_glued_map
from oracles import (
    brute_force_locally_balanced,
    brute_force_regions,
    counted_global_balance,
    ends_counted_region,
    enumerated_balance_report,
    is_generic_thurston,
    region_invariants_hold,
    thurston_single_cycle_balanced,
)


def test_b2_globally_balanced(b2):
    report = bg.is_globally_balanced(b2)
    assert report.ok and report.d == 2


def test_cycle_map_globally_balanced(cycle_map):
    report = bg.is_globally_balanced(cycle_map)
    assert report.ok and report.d == 1


def test_five_lunes_not_balanced():
    # two vertices joined by five parallel edges: odd face count
    sigma = [0] * 10
    for cyc in [(0, 2, 4, 6, 8), (9, 7, 5, 3, 1)]:
        for i, x in enumerate(cyc):
            sigma[x] = cyc[(i + 1) % len(cyc)]
    m = bg.build_map(10, [1, 0, 3, 2, 5, 4, 7, 6, 9, 8], sigma)
    assert m.face_count == 5
    report = bg.is_globally_balanced(m)
    assert not report.ok


def test_loops_reported(cycle_map):
    m = bg.build_map(4, [1, 0, 3, 2], [1, 2, 3, 0])
    report = bg.is_globally_balanced(m)
    assert not report.ok and "loop" in report.reason


def test_global_balance_matches_counted_oracle(gb_corpus, counterexample, tetrahedron):
    # each map is rebuilt, so the first call finds no coloring cached on it
    cases = [(m, bg.alternating_coloring(m).flip()) for m in gb_corpus]
    cases.append(counterexample[:2])
    cases += [(m, coloring) for _, m, coloring, _ in all_mirror_graphs(5)]
    cases += [
        (tetrahedron, None),
        (bg.build_map(4, [1, 0, 3, 2], [1, 2, 3, 0]), None),
        # a doubled triangle: 2 A faces against 3 B faces
        (map_from_rotations(["abfe", "cdba", "efdc"]), None),
        # two triangles sharing a corner, which the outer face passes twice
        (map_from_rotations(["pqrs", "pt", "tq", "ru", "us"]), None),
    ]
    for m, explicit in cases:
        fresh = bg.CombinatorialMap(m.alpha, m.sigma)
        expected = counted_global_balance(fresh)
        assert bg.is_globally_balanced(fresh) == expected
        assert bg.is_globally_balanced(fresh) == expected
        if explicit is not None:
            expected = counted_global_balance(fresh, explicit)
            assert bg.is_globally_balanced(fresh, explicit) == expected
    assert sum(counted_global_balance(m).ok for m, _ in cases) == len(cases) - 4


def test_positive_regions_b2_match_oracle(b2):
    coloring = bg.alternating_coloring(b2)
    regions = bg.positive_regions(b2, coloring)
    assert [r.sorted_faces() for r in regions] == brute_force_regions(b2, coloring)
    for region in regions:
        assert region.faces and len(region.faces) < b2.face_count
        # boundary cycles partition the boundary darts
        darts = [d for cyc in region.boundary_cycles for d in cyc]
        assert len(darts) == len(set(darts)) == len(region.boundary_edges)


def test_positive_regions_cycle_map(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    regions = bg.positive_regions(cycle_map, coloring)
    a_face = coloring.faces_of(bg.COLOR_A)[0]
    assert [r.sorted_faces() for r in regions] == [(a_face,)]


def test_positive_regions_never_emits_trivial(gb_corpus):
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        for region in bg.positive_regions(m, coloring):
            assert 0 < len(region.faces) < m.face_count


def test_region_boundaries_are_disjoint_simple_cycles(gb_corpus, counterexample):
    for m in list(gb_corpus) + [counterexample[0]]:
        coloring = bg.alternating_coloring(m)
        vod = m.vertex_of_dart
        fod = m.face_of_dart
        for region in bg.positive_regions(m, coloring):
            seen_vertices = set()
            for cyc in region.boundary_cycles:
                bases = [vod[d] for d in cyc]
                assert len(set(bases)) == len(bases)
                assert not seen_vertices & set(bases)
                seen_vertices.update(bases)
                for i, d in enumerate(cyc):
                    # inside face on the left, consecutive darts chained
                    assert fod[d] in region.faces
                    assert vod[m.alpha[d]] == vod[cyc[(i + 1) % len(cyc)]]


def test_region_cap(monkeypatch):
    p = bg.NonCrossingPairing(
        bg.WeightComposition(4, (1, 1, 1, 1, 1, 1)), ((1, 2), (3, 4), (5, 6))
    )
    m, coloring, _ = bg.mirror_graph(p)
    monkeypatch.setattr(bg.balance, "DEFAULT_REGION_CAP", 1)
    with pytest.raises(bg.SizeLimitExceeded):
        bg.positive_regions(m, coloring)


def _random_small_map(rng):
    """A connected map on at most 8 darts with random alpha and sigma, so
    loops and faces meeting themselves are common."""
    while True:
        n = 2 * rng.randint(1, 4)
        darts = rng.sample(range(n), n)
        alpha = [0] * n
        for d, e in zip(darts[::2], darts[1::2]):
            alpha[d], alpha[e] = e, d
        try:
            return bg.CombinatorialMap(alpha, rng.sample(range(n), n))
        except bg.Disconnected:
            continue


def _random_face_sets(rng, m, count):
    """Face sets of ``m``: alternately an arbitrary subset and a connected
    set grown from a random face."""
    for i in range(count):
        if i % 2:
            yield {f for f in range(m.face_count) if rng.random() < 0.5}
            continue
        inside = {rng.randrange(m.face_count)}
        for _ in range(rng.randrange(m.face_count)):
            options = sorted({g for f in inside for g in m.face_neighbors[f]} - inside)
            if not options:
                break
            inside.add(rng.choice(options))
        yield inside


def test_region_from_faces_matches_ends_counted_oracle():
    rng = random.Random(15)
    cases = []
    for i in range(150):
        m = None
        while m is None:
            m = random_glued_map(rng, rng.randint(3, 8), subdivide=i % 2 == 1)
        coloring = bg.alternating_coloring(m)
        cases += [(m, coloring), (m, coloring.flip())]
    glued = len(cases)
    for _ in range(400):
        # any coloring: the function is public and takes what it is given
        m = _random_small_map(rng)
        colors = tuple([rng.choice((bg.COLOR_A, bg.COLOR_B)) for _ in range(m.face_count)])
        cases.append((m, bg.FaceColoring(colors)))
    regions = [0, 0, 0]  # on glued maps, small maps, small maps with loops
    for i, (m, coloring) in enumerate(cases):
        for faces in _random_face_sets(rng, m, 80):
            ours = bg.region_from_faces(m, coloring, faces)
            assert ours == ends_counted_region(m, coloring, faces)
            if ours is not None:
                regions[0 if i < glued else 2 if m.has_loops else 1] += 1
    assert min(regions) >= 300, regions


def test_b2_locally_balanced(b2):
    report = bg.is_locally_balanced(b2)
    assert report.globally_balanced and report.locally_balanced
    assert report.d == 2 and report.violation is None


def test_counterexample_fixture(counterexample):
    m, coloring, cert = counterexample
    assert bg.is_globally_balanced(m, coloring).ok
    report = bg.is_locally_balanced(m, coloring)
    assert not report.locally_balanced
    assert report.violation.sorted_faces() == tuple(cert["certificate_faces"])
    assert [report.violation.a_count, report.violation.b_count] == cert[
        "certificate_counts"
    ]
    assert report.violation.a_count <= report.violation.b_count
    assert not brute_force_locally_balanced(m, coloring)


def test_corner_bound(b2, t1, cycle_map):
    assert bg.corner_bound_check(b2)
    assert len(b2.corners) == 2 * (0 + 2 - 1)  # bound attained
    assert bg.corner_bound_check(t1)
    assert len(t1.corners) == 2 * (1 + 2 - 1)
    assert bg.corner_bound_check(cycle_map)
    assert len(cycle_map.corners) == 0


def test_is_generic_thurston(b2, t1):
    assert is_generic_thurston(b2)
    assert not is_generic_thurston(t1)
    p = bg.NonCrossingPairing(bg.WeightComposition(3, (2, 2)), ((1, 2), (1, 2)))
    m, _, _ = bg.mirror_graph(p)
    assert not is_generic_thurston(m)


def test_local_balance_agrees_with_brute_force(gb_corpus, counterexample):
    maps = list(gb_corpus) + [counterexample[0]]
    for m in maps:
        coloring = bg.alternating_coloring(m)
        expected = brute_force_locally_balanced(m, coloring)
        assert bg.is_locally_balanced(m, coloring).locally_balanced == expected


def test_local_balance_region_lists_agree_with_brute_force(gb_corpus):
    # glued maps with subdivided edges add 2-valent vertices, whose faces
    # border the same neighbor across several edges
    rng = random.Random(34)
    subdivided = []
    while len(subdivided) < 40:
        m = random_glued_map(rng, rng.randint(3, 6), subdivide=True)
        if m is not None and m.face_count <= 12:
            assert 2 in m.vertex_valences
            subdivided.append(m)
    for m in list(gb_corpus) + subdivided:
        coloring = bg.alternating_coloring(m)
        for col in (coloring, coloring.flip()):
            ours = [r.sorted_faces() for r in bg.positive_regions(m, col)]
            assert ours == brute_force_regions(m, col)


def test_thurston_single_cycle_agreement(gb_corpus):
    from helpers import all_mirror_graphs

    candidates = list(gb_corpus) + [m for _, m, _, _ in all_mirror_graphs(4)]
    checked = 0
    for m in candidates:
        if m.genus() != 0 or any(v != 4 for v in m.vertex_valences):
            continue
        coloring = bg.alternating_coloring(m)
        ours = bg.is_locally_balanced(m, coloring).locally_balanced
        assert thurston_single_cycle_balanced(m, coloring) == ours
        checked += 1
    assert checked >= 8


def test_complement_symmetry(gb_corpus):
    # flipping the coloring turns each region into one of the flipped
    # coloring contained in the complement; verdicts agree either way
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        flipped = coloring.flip()
        ours = {r.faces for r in bg.positive_regions(m, coloring)}
        theirs = {r.faces for r in bg.positive_regions(m, flipped)}
        all_faces = frozenset(range(m.face_count))
        for faces in ours:
            complement = all_faces - faces
            assert any(f <= complement for f in theirs) or not theirs


def test_pullbacks_are_balanced(constellation_corpus):
    for c in constellation_corpus:
        m, coloring, _ = bg.pullback_from_constellation(c)
        assert bg.is_globally_balanced(m, coloring).ok
        assert bg.is_locally_balanced(m, coloring).locally_balanced


def test_counterexample_matches_committed_structure(counterexample):
    m, coloring, cert = counterexample
    assert m.face_count == 10
    assert m.genus() == 0
    assert cert["d"] == 5


def test_corpus_generator_pinning_loses_no_classes():
    # pinning the first edge when all valences agree must keep the census
    from helpers import globally_balanced_maps, standard_sigma, _connected, _orbit_count
    import balancedgraphs as bgx

    def unpinned(valences):
        n = sum(valences)
        blocks = []
        for v, val in enumerate(valences):
            blocks.extend([v] * val)
        sigma = standard_sigma(valences)
        alpha = [-1] * n
        seen = set()
        out = []

        def rec(d):
            while d < n and alpha[d] != -1:
                d += 1
            if d == n:
                if _connected(alpha, sigma):
                    m = bgx.CombinatorialMap._unchecked(tuple(alpha), sigma)
                    if (
                        m.face_count <= 8
                        and m.face_count % 2 == 0
                        and bgx.is_globally_balanced(m).ok
                    ):
                        key = m.canonical_key()
                        if key not in seen:
                            seen.add(key)
                            out.append(key)
                return
            for e in range(d + 1, n):
                if alpha[e] == -1 and blocks[e] != blocks[d]:
                    alpha[d] = e
                    alpha[e] = d
                    rec(d + 1)
                    alpha[d] = -1
                    alpha[e] = -1

        rec(0)
        return sorted(out)

    for valences in ((4, 4), (6, 6)):
        pinned = sorted(m.canonical_key() for m in globally_balanced_maps(valences))
        assert pinned == unpinned(valences)


def _report_tuple(report):
    v = report.violation
    return (
        report.locally_balanced,
        v.sorted_faces() if v else None,
        (v.a_count, v.b_count) if v else None,
        report.violation_on_flipped,
        report.reason,
    )


def _assert_reports_match_enumerator(maps):
    verdicts = set()
    for m, coloring in maps:
        ours = _report_tuple(bg.is_locally_balanced(m, coloring))
        assert ours == enumerated_balance_report(m, coloring)
        verdicts.add(ours[0])
    return verdicts


def test_flow_report_matches_enumerator_on_corpus(gb_corpus, counterexample):
    maps = [(m, bg.alternating_coloring(m)) for m in gb_corpus]
    maps.append(counterexample[:2])
    assert _assert_reports_match_enumerator(maps) == {True, False}


def test_flow_report_matches_enumerator_on_enriched_corpus(gb_corpus):
    # enriched maps carry 2-valent vertices, which the dot counts ignore
    maps = []
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        dg = bg.dot_graph(m, coloring)
        if bg.hall_check(dg).ok and dg.dots_a:
            maps.append((bg.enrich(m, bg.perfect_matching(dg)), coloring))
    assert maps
    assert _assert_reports_match_enumerator(maps) == {True}


def test_flow_report_matches_enumerator_on_pullbacks(constellation_corpus):
    maps = [bg.pullback_from_constellation(c)[:2] for c in constellation_corpus]
    assert len(maps) == 694
    assert _assert_reports_match_enumerator(maps) == {True}


def test_flow_report_matches_enumerator_on_cycle_map(cycle_map):
    maps = [(cycle_map, bg.alternating_coloring(cycle_map))]
    assert _assert_reports_match_enumerator(maps) == {True}


def test_positive_verdict_enumerates_no_regions(monkeypatch):
    # a 32-face mirror graph: the old search took seconds on maps this size
    d = 16
    arcs = tuple((i, i + 1) for i in range(1, 2 * d - 2, 2))
    p = bg.NonCrossingPairing(bg.WeightComposition(d, (1,) * (2 * d - 2)), arcs)
    m, coloring, _ = bg.mirror_graph(p)
    assert m.face_count == 32

    def refuse(*args, **kwargs):
        raise AssertionError("regions enumerated on a positive verdict")

    monkeypatch.setattr(bg.balance, "positive_regions", refuse)
    monkeypatch.setattr(bg.balance, "region_from_faces", refuse)
    report = bg.is_locally_balanced(m, coloring)
    assert report.locally_balanced and report.d == d


def _assert_certificate(m, coloring, report):
    """The violation is a region of the coloring it names, with a <= b."""
    col = coloring.flip() if report.violation_on_flipped else coloring
    faces = report.violation.faces
    a = sum(1 for f in faces if col.color(f) == bg.COLOR_A)
    assert region_invariants_hold(m, col, faces)
    assert (report.violation.a_count, report.violation.b_count) == (a, len(faces) - a)
    assert a <= len(faces) - a


def test_negative_verdict_enumerates_no_regions(monkeypatch, counterexample):
    def refuse(*args, **kwargs):
        raise AssertionError("regions enumerated on a negative verdict")

    monkeypatch.setattr(bg.balance, "positive_regions", refuse)
    m, coloring, cert = counterexample
    report = bg.is_locally_balanced(m, coloring)
    assert report.violation.sorted_faces() == tuple(cert["certificate_faces"])
    assert [report.violation.a_count, report.violation.b_count] == cert[
        "certificate_counts"
    ]

    # the enumeration took 14-66 s on glued negatives of this size
    rng = random.Random(40)
    while True:
        m = random_glued_map(rng, 20)
        if m is not None and not bg.hall_check(
            bg.dot_graph(m, bg.alternating_coloring(m))
        ).ok:
            break
    assert m.face_count >= 40
    coloring = bg.alternating_coloring(m)
    report = bg.is_locally_balanced(m, coloring)
    assert report.globally_balanced and not report.locally_balanced
    _assert_certificate(m, coloring, report)


def test_witness_certificates_on_random_glued_maps():
    rng = random.Random(2024)
    negatives = flipped = brute_forced = 0
    for i in range(400):
        m = None
        while m is None:
            m = random_glued_map(rng, rng.randint(3, 12), subdivide=i % 2 == 1)
        coloring = bg.alternating_coloring(m)
        report = bg.is_locally_balanced(m, coloring)
        hall = bg.hall_check(bg.dot_graph(m, coloring)).ok
        assert report.locally_balanced == hall
        if m.face_count <= 12:
            assert hall == brute_force_locally_balanced(m, coloring)
            brute_forced += 1
        if not hall:
            _assert_certificate(m, coloring, report)
            negatives += 1
            flipped += report.violation_on_flipped
    assert flipped >= 1 and negatives > flipped and brute_forced >= 50


def test_corner_bound_check_rejects_unbalanced_maps():
    m = bg.build_map(4, [1, 0, 3, 2], [1, 2, 3, 0])
    with pytest.raises(bg.InvariantViolation):
        bg.corner_bound_check(m)
