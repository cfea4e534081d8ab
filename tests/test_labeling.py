import collections
import random

import pytest

import balancedgraphs as bg
from helpers import all_mirror_graphs, fixed_point_free_pullback, random_fixed_point_constellation
from oracles import (
    colored_verify_labeling,
    colored_walk_labeling,
    dict_constellation_from,
    generic_labeling,
    propagated_labeling,
)


def _realize(m, coloring):
    dg = bg.dot_graph(m, coloring)
    enriched = bg.enrich(m, bg.perfect_matching(dg))
    return enriched, bg.admissible_labeling(enriched, coloring)


def test_labeling_b2(b2):
    coloring = bg.alternating_coloring(b2)
    enriched, lab = _realize(b2, coloring)
    assert enriched == b2
    assert lab == bg.VertexLabeling(2, (1, 2))
    assert bg.passport_of(b2, lab) == bg.Passport(2, ((2,), (2,)))


def test_labeling_mirror(mirror_1234):
    _, m, coloring, _ = mirror_1234
    enriched, lab = _realize(m, coloring)
    assert lab.m == 4
    ok, why = bg.verify_labeling(enriched, coloring, lab)
    assert ok, why
    # every A face reads 1..4 in traversal order
    vod = enriched.vertex_of_dart
    for f, face in enumerate(enriched.faces):
        if coloring.color(f) != bg.COLOR_A:
            continue
        read = [lab.labels[vod[d]] for d in face]
        start = read.index(1)
        assert [read[(start + t) % 4] for t in range(4)] == [1, 2, 3, 4]
    assert bg.passport_of(enriched, lab) == bg.Passport(
        3, ((2, 1), (2, 1), (2, 1), (2, 1))
    )


def test_labeling_cycle_map(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    lab = bg.admissible_labeling(cycle_map, coloring)
    assert lab.m == 2 and sorted(lab.labels) == [1, 2]
    assert bg.passport_of(cycle_map, lab) == bg.Passport(1, ((1,), (1,)))


def test_labeling_t1(t1):
    coloring = bg.alternating_coloring(t1)
    lab = bg.admissible_labeling(t1, coloring)
    ok, why = bg.verify_labeling(t1, coloring, lab)
    assert ok, why
    assert bg.passport_of(t1, lab) == bg.Passport(2, ((2,), (2,), (2,), (2,)))


def test_labeling_rejects_uneven_face_counts(b2):
    coloring = bg.alternating_coloring(b2)
    lopsided = bg.subdivide_edges(b2, {0: 1})
    with pytest.raises(bg.InconsistentPropagation):
        bg.admissible_labeling(lopsided, coloring)


def test_verify_labeling_rejections(b2):
    coloring = bg.alternating_coloring(b2)
    ok, why = bg.verify_labeling(b2, coloring, bg.VertexLabeling(2, (1, 1)))
    assert not ok and why
    ok, _ = bg.verify_labeling(b2, coloring, bg.VertexLabeling(2, (2, 1)))
    # swapping both labels is still cyclically increasing on a 2-vertex map
    assert ok
    p = bg.NonCrossingPairing(bg.WeightComposition(3, (1, 1, 1, 1)), ((1, 2), (3, 4)))
    m, coloring, _ = bg.mirror_graph(p)
    enriched, lab = _realize(m, coloring)
    labels = list(lab.labels)
    labels[0], labels[1] = labels[1], labels[0]
    ok, why = bg.verify_labeling(enriched, coloring, bg.VertexLabeling(lab.m, tuple(labels)))
    assert not ok


def test_labeling_pipeline_on_corpus(gb_corpus):
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        dg = bg.dot_graph(m, coloring)
        if not bg.hall_check(dg).ok:
            continue
        enriched, lab = _realize(m, coloring)
        ok, why = bg.verify_labeling(enriched, coloring, lab)
        assert ok, why
        passport = bg.passport_of(enriched, lab)
        d = m.face_count // 2
        assert all(sum(part) == d for part in passport.parts)
        branching = sum(x - 1 for part in passport.parts for x in part)
        assert branching == 2 * d - 2 + 2 * m.genus()


def test_compress_labels_b2(b2):
    coloring = bg.alternating_coloring(b2)
    # subdivide the edges carrying darts (2,3) and (6,7), label the two
    # fresh 2-valent vertices 3: a superfluous class
    enriched = bg.subdivide_edges(b2, {1: 1, 3: 1})
    lab = bg.VertexLabeling(3, (1, 2, 3, 3))
    ok, why = bg.verify_labeling(enriched, coloring, lab)
    assert ok, why
    compressed_map, compressed = bg.compress_labels(enriched, lab)
    assert bg.are_isomorphic(compressed_map, b2)
    assert compressed == bg.VertexLabeling(2, (1, 2))
    ok, why = bg.verify_labeling(compressed_map, coloring, compressed)
    assert ok, why


def test_compress_labels_noop(mirror_1234):
    _, m, coloring, _ = mirror_1234
    enriched, lab = _realize(m, coloring)
    # classes here mix a corner with a 2-valent vertex: nothing to remove
    new_map, new_lab = bg.compress_labels(enriched, lab)
    assert new_map == enriched and new_lab == lab


def test_compress_labels_chain(b2):
    # two adjacent trivial branch slots give chains of two 2-valent
    # vertices between the corners; both classes vanish at once
    c = bg.Constellation.from_cycles(2, [[(1, 2)], [], [], [(1, 2)]])
    m, coloring, lab = bg.pullback_from_constellation(c)
    assert sorted(m.vertex_valences) == [2, 2, 2, 2, 4, 4]
    new_map, new_lab = bg.compress_labels(m, lab)
    assert bg.are_isomorphic(new_map, b2)
    assert new_lab.m == 2
    ok, why = bg.verify_labeling(new_map, bg.alternating_coloring(new_map), new_lab)
    assert ok, why


def test_compress_requires_corner(cycle_map):
    coloring = bg.alternating_coloring(cycle_map)
    lab = bg.admissible_labeling(cycle_map, coloring)
    with pytest.raises(bg.InvariantViolation):
        bg.compress_labels(cycle_map, lab)


def test_compress_never_leaves_cornerless_class(gb_corpus):
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        dg = bg.dot_graph(m, coloring)
        if not bg.hall_check(dg).ok:
            continue
        enriched, lab = _realize(m, coloring)
        new_map, new_lab = bg.compress_labels(enriched, lab)
        valences = new_map.vertex_valences
        for j in range(1, new_lab.m + 1):
            assert any(valences[v] > 2 for v in new_lab.classes[j - 1])
        ok, why = bg.verify_labeling(new_map, coloring, new_lab)
        assert ok, why
        # corner count bounded by the branch-point maximum
        d = new_map.face_count // 2
        assert new_lab.m <= 2 * (d + new_map.genus() - 1) or new_lab.m == 2


def test_generic_labeling_b2(b2):
    enriched, lab = generic_labeling(b2)
    assert len(set(lab.labels[: b2.vertex_count])) == b2.vertex_count


def test_generic_labeling_simple_mirror_six_points():
    p = bg.NonCrossingPairing(
        bg.WeightComposition(4, (1, 1, 1, 1, 1, 1)), ((1, 2), (3, 4), (5, 6))
    )
    m, coloring, _ = bg.mirror_graph(p)
    enriched, lab = generic_labeling(m, coloring)
    assert lab.m == 6
    corner_labels = lab.labels[: m.vertex_count]
    assert len(set(corner_labels)) == 6
    ok, why = bg.verify_labeling(enriched, coloring, lab)
    assert ok, why


def test_generic_labeling_rejects_high_valence():
    p = bg.NonCrossingPairing(bg.WeightComposition(3, (2, 2)), ((1, 2), (1, 2)))
    m, _, _ = bg.mirror_graph(p)
    with pytest.raises(ValueError):
        generic_labeling(m)


# the potential walk against the face-stamping propagation ---------------------


def _enriched(m, coloring):
    return bg.enrich(m, bg.perfect_matching(bg.dot_graph(m, coloring)))


def _assert_walk_matches_propagation(m, coloring):
    try:
        want = propagated_labeling(m, coloring)
    except bg.InconsistentPropagation:
        with pytest.raises(bg.InconsistentPropagation):
            bg.admissible_labeling(m, coloring)
        return False
    assert bg.admissible_labeling(m, coloring) == want
    return True


def test_walk_matches_propagation_on_enriched_gb_corpus(gb_corpus):
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        if bg.hall_check(bg.dot_graph(m, coloring)).ok:
            _assert_walk_matches_propagation(_enriched(m, coloring), coloring)


def test_walk_matches_propagation_on_enriched_mirror_graphs():
    labeled = 0
    for _, m, coloring, _ in all_mirror_graphs(5):
        for col in (coloring, coloring.flip()):
            labeled += _assert_walk_matches_propagation(_enriched(m, col), col)
    assert labeled > 0


def test_walk_matches_propagation_on_corpus_pullbacks(constellation_corpus):
    for c in constellation_corpus:
        m, coloring, _ = bg.pullback_from_constellation(c)
        assert _assert_walk_matches_propagation(m, coloring)


def test_walk_matches_propagation_on_large_pullback():
    m, coloring, _ = fixed_point_free_pullback(128, 4)
    assert _assert_walk_matches_propagation(m, coloring)
    _assert_walk_matches_propagation(_enriched(m, coloring), coloring)


def test_walk_relabels_pullbacks_by_a_cyclic_shift(constellation_corpus):
    # genus 0 to 3: a pullback's own labels are a potential, and the walk
    # finds it up to the choice of the label at its starting vertex
    assert {bg.verify_constellation(c).genus for c in constellation_corpus} == {0, 1, 2, 3}
    for c in constellation_corpus:
        m, coloring, own = bg.pullback_from_constellation(c)
        lab = bg.admissible_labeling(m, coloring)
        assert lab.m == own.m
        shift = (lab.labels[0] - own.labels[0]) % own.m
        assert lab.labels == tuple((lb - 1 + shift) % own.m + 1 for lb in own.labels)


def test_walk_rejects_a_vertex_twice_on_a_face():
    # one vertex, two edges, one face on the torus: the face passes the
    # vertex four times, so no step of +1 around it can be consistent
    torus = bg.build_map(4, [2, 3, 0, 1], [1, 2, 3, 0])
    assert torus.faces == ((0, 3, 2, 1),)
    coloring = bg.FaceColoring((bg.COLOR_A,))
    with pytest.raises(bg.InconsistentPropagation, match="vertex 0 receives labels 1 and 2"):
        bg.admissible_labeling(torus, coloring)


def test_vertices_with_matches_a_scan():
    # classes lists the vertices with each label 1..m; labels out of range
    # belong to no class
    labelings = [
        bg.VertexLabeling(3, (1, 0, 3, 4, 3, -1, 2, 1)),
        bg.VertexLabeling(2, (0, 3)),
        bg.VertexLabeling(4, (2, 2, 2)),
    ]
    for lab in labelings:
        assert len(lab.classes) == lab.m
        for j in range(1, lab.m + 1):
            scan = tuple(v for v, lb in enumerate(lab.labels) if lb == j)
            assert lab.classes[j - 1] == scan


def test_verify_labeling_rejects_labels_out_of_range(b2):
    coloring = bg.alternating_coloring(b2)
    lab = bg.VertexLabeling(2, (0, 3))
    assert bg.verify_labeling(b2, coloring, lab) == (False, "labels must lie in 1..m")


# flat tables against the per-dart colorings they replaced ---------------------


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _probe_labeling(m, lab, rng):
    """A labeling, drawn at random, that fails ``verify_labeling`` at one
    of its checks or, as a cyclic shift of ``lab``, passes it."""
    k = lab.m if isinstance(lab, bg.VertexLabeling) else len(m.faces[0])
    n = m.vertex_count
    probes = [
        (1,) * (n + 1),
        (0,) + (1,) * (n - 1),
        (1,) * n,
        tuple(rng.choices(range(1, k + 1), k=n)),
    ]
    if isinstance(lab, bg.VertexLabeling):
        probes.append(tuple([lb % k + 1 for lb in lab.labels]))
    return bg.VertexLabeling(k, rng.choice(probes))


def _assert_flat_tables_match_the_oracles(m, coloring, rng, seen):
    """Labeling, verification and monodromy agree with the colored-walk
    oracles in result, or in exception type and message; ``seen`` counts
    the outcomes by their first words.  Returns the labeling's outcome."""
    lab = _outcome(bg.admissible_labeling, m, coloring)
    assert lab == _outcome(colored_walk_labeling, m, coloring)
    if isinstance(lab, bg.VertexLabeling):
        probes = [lab, _probe_labeling(m, lab, rng)]
        seen["labeled"] += 1
    else:
        probes = [_probe_labeling(m, lab, rng)]
        seen[lab[1].split()[2]] += 1
    for probe in probes:
        verdict = bg.verify_labeling(m, coloring, probe)
        assert verdict == colored_verify_labeling(m, coloring, probe)
        seen[" ".join(verdict[1].split()[:2]) if verdict[1] else "admissible"] += 1
        if len(probe.labels) == m.vertex_count:
            c = _outcome(bg.constellation_from, m, coloring, probe)
            assert c == _outcome(dict_constellation_from, m, coloring, probe)
            seen["constellation" if isinstance(c, bg.Constellation) else c[1].split()[2]] += 1
    return lab


def _realize_input(m, coloring):
    """The map and coloring ``realize`` labels for ``m``: 2-valent
    vertices spliced out, then enriched."""
    spliced, coloring, _ = bg.surface_map.splice_two_valent(m, coloring)
    return _enriched(spliced, coloring), coloring


def test_flat_tables_match_the_oracles(gb_corpus, constellation_corpus, b2):
    rng = random.Random(2301)
    seen = collections.Counter()
    for m in gb_corpus:
        coloring = bg.alternating_coloring(m)
        for col in (coloring, coloring.flip()):
            if bg.hall_check(bg.dot_graph(m, col)).ok:
                _assert_flat_tables_match_the_oracles(_enriched(m, col), col, rng, seen)
    for _, m, coloring, _ in all_mirror_graphs(6):
        _assert_flat_tables_match_the_oracles(_enriched(m, coloring), coloring, rng, seen)
    for c in constellation_corpus:
        m, coloring, own = bg.pullback_from_constellation(c)
        _assert_flat_tables_match_the_oracles(m, coloring, rng, seen)
        assert bg.constellation_from(m, coloring, own) == dict_constellation_from(m, coloring, own)
    # genus >= 1 pullbacks with a fixed point whose realization the
    # labeling walk rejects
    failing = 0
    while failing < 50:
        m, coloring, _ = bg.pullback_from_constellation(random_fixed_point_constellation(rng))
        lab = _assert_flat_tables_match_the_oracles(*_realize_input(m, coloring), rng, seen)
        failing += isinstance(lab, tuple) and "receives labels" in lab[1]
    # the rejection fixtures: uneven faces, a vertex twice on a face
    coloring = bg.alternating_coloring(b2)
    _assert_flat_tables_match_the_oracles(bg.subdivide_edges(b2, {0: 1}), coloring, rng, seen)
    torus = bg.build_map(4, [2, 3, 0, 1], [1, 2, 3, 0])
    _assert_flat_tables_match_the_oracles(torus, bg.FaceColoring((bg.COLOR_A,)), rng, seen)
    assert seen["labeled"] > 4000
    # every check of the three functions was reached
    assert all(seen[kind] for kind in ("different", "receives", "appears", "constellation"))
    assert all(seen[kind] for kind in ("admissible", "one label", "labels must", "face 0"))


# charge conservation ---------------------------------------------------------


def _figure_graph():
    # inputs i1, i2 feed interior u; one interior edge u-v; outputs from v
    edges = ((0, 0), (1, 0), (2, 0), (2, 1), (2, 2))
    return bg.ChargeableGraph(
        x_count=3,
        y_count=3,
        edges=edges,
        inputs=frozenset({0, 1}),
        outputs=frozenset({1, 2}),
        capacity={("y", 0): 4.0, ("x", 2): 4.0},
    )


def test_charge_conservation_figure_instance():
    cg = _figure_graph()
    report = bg.charge_conservation_check(cg, bg.Weighting((1.0, 2.0, 1.0, 2.0, 1.0)))
    assert report.equal
    assert report.in_value == pytest.approx(3.0)
    assert report.out_value == pytest.approx(3.0)


def test_charge_conservation_no_interior():
    cg = bg.ChargeableGraph(
        x_count=2,
        y_count=2,
        edges=((0, 0), (1, 1), (0, 1)),
        inputs=frozenset({0, 1}),
        outputs=frozenset({0, 1}),
    )
    report = bg.charge_conservation_check(cg, bg.Weighting((1.5, 2.5, 3.0)))
    assert report.equal and report.in_value == report.out_value == 7.0


def test_charge_conservation_infeasible():
    cg = _figure_graph()
    with pytest.raises(bg.InfeasibleWeighting):
        bg.charge_conservation_check(cg, bg.Weighting((1.0, -2.0, 1.0, 2.0, 1.0)))
    with pytest.raises(bg.InfeasibleWeighting):
        bg.charge_conservation_check(cg, bg.Weighting((1.0, 2.0, 1.0, 2.0, 5.0)))
    with pytest.raises(bg.InfeasibleWeighting, match="one weight per edge required"):
        bg.charge_conservation_check(cg, bg.Weighting((1.0, 2.0)))
    uncapped = bg.ChargeableGraph(3, 3, cg.edges, cg.inputs, cg.outputs, {("y", 0): 4.0})
    with pytest.raises(bg.InfeasibleWeighting, match=r"interior vertex \('x', 2\) has no capacity"):
        bg.charge_conservation_check(uncapped, bg.Weighting((1.0, 2.0, 1.0, 2.0, 1.0)))


def random_figure_weighting(rng):
    a, b, k = (rng.uniform(0.1, 5.0) for _ in range(3))
    cap = a + b + k
    alpha = rng.uniform(0.05, cap - k - 0.05)
    beta = cap - k - alpha
    cg = bg.ChargeableGraph(
        x_count=3,
        y_count=3,
        edges=((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)),
        inputs=frozenset({0, 1}),
        outputs=frozenset({1, 2}),
        capacity={("y", 0): cap, ("x", 2): cap},
    )
    return cg, bg.Weighting((a, b, k, alpha, beta))


def random_path_weighting(rng):
    # input - interior(y) - interior(x) - output
    cap = 7.0
    a = rng.uniform(0.5, cap - 0.5)
    cg = bg.ChargeableGraph(
        x_count=2,
        y_count=2,
        edges=((0, 0), (1, 0), (1, 1)),
        inputs=frozenset({0}),
        outputs=frozenset({1}),
        capacity={("y", 0): cap, ("x", 1): cap},
    )
    return cg, bg.Weighting((a, cap - a, a))


def random_layered_weighting(rng):
    # inputs -> interior layer (y side) -> interior layer (x side) -> outputs
    cap = 7.0
    n_in, n_mid, n_out = 2, 3, 2
    s = [rng.uniform(0.1 * cap, 0.9 * cap) for _ in range(n_mid)]
    rows = [rng.uniform(0.5, 2.0) for _ in range(n_in)]
    total_rows = sum(rows)
    edges = []
    weights = []
    for i in range(n_in):
        for v in range(n_mid):
            edges.append((i, v))
            weights.append(rows[i] * s[v] / total_rows)
    budgets = [cap - x for x in s]
    total = sum(budgets)
    mix = [rng.uniform(0.9, 1.1) for _ in range(n_mid)]
    t = [total * m_ / sum(mix) for m_ in mix]
    assert all(0 < x < cap for x in t)
    for v in range(n_mid):
        for w in range(n_mid):
            edges.append((n_in + w, v))
            weights.append(budgets[v] * t[w] / total)
    for w in range(n_mid):
        split = [rng.uniform(0.5, 2.0) for _ in range(n_out)]
        left = cap - t[w]
        for o in range(n_out):
            edges.append((n_in + w, n_mid + o))
            weights.append(left * split[o] / sum(split))
    cg = bg.ChargeableGraph(
        x_count=n_in + n_mid,
        y_count=n_mid + n_out,
        edges=tuple(edges),
        inputs=frozenset(range(n_in)),
        outputs=frozenset(range(n_mid, n_mid + n_out)),
        capacity={
            **{("y", v): cap for v in range(n_mid)},
            **{("x", n_in + w): cap for w in range(n_mid)},
        },
    )
    return cg, bg.Weighting(tuple(weights))


CHARGE_FAMILIES = (random_figure_weighting, random_path_weighting, random_layered_weighting)


@pytest.mark.parametrize("family", CHARGE_FAMILIES)
def test_charge_conservation_random(family):
    rng = random.Random(20240517)
    for _ in range(1000):
        cg, w = family(rng)
        report = bg.charge_conservation_check(cg, w)
        assert report.equal
        assert abs(report.in_value - report.out_value) <= 1e-9
