import random

import pytest

import balancedgraphs as bg
import balancedgraphs.permutations as permutations
from balancedgraphs.permutations import canonical_relabeling, conjugate
from helpers import random_rotation_map
from oracles import (
    all_roots_canonical,
    factorial_conjugation_canonical,
    rotated_orbits,
    sequential_canonical_relabeling,
)


def _outcome(routine, perms, n, roots):
    try:
        return routine(perms, n, roots)
    except bg.Disconnected:
        return "disconnected"


def _relabeled(rng, perms, n):
    return conjugate(perms, rng.sample(range(n), n))


def _random_tuple(rng):
    n = rng.randint(1, 12)
    return tuple([tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 3))]), n


def _cyclic_shifts(rng):
    # powers of one n-cycle: the centralizer holds every shift
    n = rng.randint(1, 12)
    shifts = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
    perms = tuple([tuple([(x + s) % n for x in range(n)]) for s in shifts])
    return _relabeled(rng, perms, n), n


def _equal_cycles(rng):
    # every permutation a union of equal-length cycles on fixed blocks;
    # without the joining shift, more than one block is intransitive
    n = rng.randint(1, 12)
    c = rng.choice([k for k in range(1, n + 1) if n % k == 0])
    perms = [
        tuple([x - x % c + (x % c + s) % c for x in range(n)])
        for s in [rng.randrange(c) for _ in range(rng.randint(1, 3))]
    ]
    if rng.random() < 0.5:
        perms.append(tuple([(x + c) % n for x in range(n)]))
    return _relabeled(rng, tuple(perms), n), n


def _random_map(rng):
    n = 2 * rng.randint(1, 8)
    darts = rng.sample(range(n), n)
    alpha = [0] * n
    for d, e in zip(darts[::2], darts[1::2]):
        alpha[d], alpha[e] = e, d
    return (tuple(alpha), tuple(rng.sample(range(n), n))), n


def _roots(rng, n):
    r = rng.random()
    if r < 0.5:
        return range(n)
    if r < 0.8:
        return rng.sample(range(n), n)
    return rng.sample(range(n), rng.randint(1, n))


def test_canonical_relabeling_matches_sequential_oracle():
    rng = random.Random(4417)
    makers = (_random_tuple, _cyclic_shifts, _equal_cycles, _random_map)
    disconnected = 0
    for _ in range(4000):
        perms, n = rng.choice(makers)(rng)
        roots = _roots(rng, n)
        want = _outcome(sequential_canonical_relabeling, perms, n, roots)
        assert _outcome(canonical_relabeling, perms, n, roots) == want
        disconnected += want == "disconnected"
    assert 0 < disconnected < 4000


def _all_ones_mirror_maps(max_d):
    """All-ones mirror graphs, nested and side-by-side arcs, and their
    enrichments, as ``realize`` builds them."""
    maps = []
    for d in range(2, max_d + 1):
        n = 2 * d - 2
        t = bg.WeightComposition(d, (1,) * n)
        for arcs in (
            [(i + 1, n - i) for i in range(n // 2)],
            [(2 * i + 1, 2 * i + 2) for i in range(n // 2)],
        ):
            m, coloring, _ = bg.mirror_graph(bg.NonCrossingPairing(t, tuple(arcs)))
            maps.append(m)
            maps.append(bg.enrich(m, bg.perfect_matching(bg.dot_graph(m, coloring))))
    return maps


def _count_union_find_calls(monkeypatch):
    calls = [0]
    find = permutations._find

    def counted(parent, x):
        calls[0] += 1
        return find(parent, x)

    monkeypatch.setattr(permutations, "_find", counted)
    return calls


def test_symmetric_mirror_maps_match_all_roots_oracle(monkeypatch):
    calls = _count_union_find_calls(monkeypatch)
    rng = random.Random(88)
    maps = _all_ones_mirror_maps(8)
    relabeled = [m.relabel(rng.sample(range(m.dart_count), m.dart_count)) for m in maps]
    assert [m.canonical_key() for m in relabeled] == [m.canonical_key() for m in maps]
    for m in maps + relabeled:
        key, dart_map = all_roots_canonical(m)
        assert m.canonical_key() == key
        assert m.canonical_dart_map() == dart_map
    # the maps have automorphisms, so roots were skipped by orbit
    assert calls[0] > 0


def test_cyclic_constellations_match_factorial_oracle(monkeypatch):
    calls = _count_union_find_calls(monkeypatch)
    rng = random.Random(31)
    for d in range(1, 8):
        for _ in range(4):
            # c^a, c^b, c^-(a+b) for the d-cycle c: a cyclic covering
            a, b = rng.randrange(d), rng.randrange(d)
            shifts = (a, b, -(a + b) % d)
            perms = tuple([tuple([(x + s) % d for x in range(d)]) for s in shifts])
            if not permutations.is_transitive(perms, d):
                continue
            c = bg.Constellation(d, _relabeled(rng, perms, d))
            ours = bg.conjugation_canonical(c).perms
            assert ours == sequential_canonical_relabeling(c.perms, d, range(d))[0]
            assert factorial_conjugation_canonical(bg.Constellation(d, ours)) == (
                factorial_conjugation_canonical(c)
            )
            other = bg.Constellation(d, _relabeled(rng, c.perms, d))
            assert bg.conjugation_canonical(other).perms == ours
    assert calls[0] > 0


def test_canonical_relabeling_edge_cases():
    assert canonical_relabeling((), 0, range(0)) == ((), ())
    assert canonical_relabeling(((), ()), 0, range(0)) == (((), ()), ())
    assert canonical_relabeling((), 1, range(1)) == ((), (0,))
    with pytest.raises(bg.Disconnected):
        canonical_relabeling((), 2, range(2))


def test_marked_canonical_key_uses_its_single_root(mirror_1234):
    _, m, _, real_cycle = mirror_1234
    (alpha, sigma), relabel = sequential_canonical_relabeling(
        (m.alpha, m.sigma), m.dart_count, (real_cycle[0],)
    )
    want = (alpha, sigma, tuple([relabel[d] for d in real_cycle]))
    assert bg.marked_canonical_key(m, real_cycle) == want
    assert relabel[real_cycle[0]] == 0


@pytest.mark.parametrize(
    "perms, roots",
    [
        # the first root's component is smaller than a later root's: the
        # last leader stops short
        (((0, 2, 1),), range(3)),
        # the first root's component is the larger one: a challenger ties
        # to the end of its own component
        (((1, 0, 2),), range(3)),
        (((0, 1, 2), (0, 2, 1)), (1, 0, 2)),
        # the leader's component ends while a tying challenger goes on
        (((0, 1, 2), (0, 2, 1)), range(3)),
        # two components of equal size
        (((1, 0, 2, 3), (1, 0, 3, 2)), (2, 0, 1, 3)),
    ],
)
def test_intransitive_tuples_raise_disconnected(perms, roots):
    n = len(perms[0])
    assert _outcome(sequential_canonical_relabeling, perms, n, roots) == "disconnected"
    with pytest.raises(bg.Disconnected):
        canonical_relabeling(perms, n, roots)


def _permutation_with_fixed_points(rng):
    n = rng.randint(1, 30)
    fixed = set(rng.sample(range(n), rng.randint(0, n)))
    moved = [x for x in range(n) if x not in fixed]
    p = list(range(n))
    for x, y in zip(moved, rng.sample(moved, len(moved))):
        p[x] = y
    return tuple(p)


def _assert_orbits(table, p):
    """``table`` is the oracle's, cycles start at their least points in
    increasing order and follow ``p``, and each point's index names the
    cycle holding it."""
    cycles, index = table
    assert table == rotated_orbits(p)
    starts = [c[0] for c in cycles]
    assert starts == sorted(starts) == [min(c) for c in cycles]
    for c in cycles:
        assert [p[x] for x in c] == list(c[1:] + c[:1])
    assert all(x in cycles[index[x]] for x in range(len(p)))


def test_orbits_match_the_rotated_oracle():
    rng = random.Random(22)
    perms = [(), (0,), tuple(range(7)), (1, 0)]
    perms += [_permutation_with_fixed_points(rng) for _ in range(300)]
    assert sum(x == y for p in perms for x, y in enumerate(p)) > 1000
    for p in perms:
        _assert_orbits(permutations.orbits(p), p)
        lengths = sorted([len(c) for c in rotated_orbits(p)[0]], reverse=True)
        assert permutations.cycle_type(p) == tuple(lengths)


def test_map_orbit_tables_match_the_rotated_oracle():
    # the dart-to-orbit table read first on faces, second on vertices
    rng = random.Random(23)
    for _ in range(150):
        valences = [rng.randint(2, 6) for _ in range(rng.randint(1, 5))]
        valences[0] += sum(valences) % 2
        m = random_rotation_map(rng, valences)
        m = m.relabel(rng.sample(range(m.dart_count), m.dart_count))
        phi = tuple([m.sigma[m.alpha[d]] for d in range(m.dart_count)])
        face_of_dart = m.face_of_dart
        _assert_orbits((m.faces, face_of_dart), phi)
        _assert_orbits((m.vertices, m.vertex_of_dart), m.sigma)
