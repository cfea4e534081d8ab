"""The one integer rule at every constructor and validator.

An integer is a value of type exactly ``int``.  Each case below builds a
value with one slot filled; the slot takes the integer ``valid``, and
1.5, ``True``, ``"1"`` and an ``IntEnum`` member there are rejected with
the package's own errors, never a ``TypeError`` or ``IndexError``.
``True`` and the member compare equal to an integer, so they pass any
test that only checks ranges.  A slot that holds a sequence of points or
of cycles takes a list or tuple, and anything else there is rejected with
:class:`BadPermutation`.
"""

import enum

import pytest

import balancedgraphs as bg


class Small(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


def non_integers(valid):
    return (1.5, True, "1", Small(valid))


def _pairing(arcs):
    return bg.NonCrossingPairing(bg.WeightComposition(2, (1, 1)), arcs)


TWO_DARTS = bg.CombinatorialMap((1, 0), (1, 0))
# vertex valences (4, 2, 4, 2, 2, 4, 4, 2)
PULLBACK, _, _ = bg.pullback_from_constellation(
    bg.Constellation.from_cycles(3, [[(1, 2)], [(2, 3)], [(2, 3)], [(1, 2)]])
)
# 8 edges
MIRROR, _, _ = bg.mirror_graph(
    bg.NonCrossingPairing(bg.WeightComposition(3, (1, 1, 1, 1)), ((1, 2), (3, 4)))
)

# (name, build, valid): build(x) fills one slot with x
CONSTRUCTORS = (
    ("map alpha", lambda x: bg.CombinatorialMap((x, 0), (1, 0)), 1),
    ("map sigma", lambda x: bg.CombinatorialMap((1, 0), (x, 0)), 1),
    ("build_map dart count", lambda x: bg.build_map(x, (1, 0), (1, 0)), 2),
    ("build_map entry", lambda x: bg.build_map(2, (1, 0), (1, x)), 0),
    ("serialize real_cycle", lambda x: bg.serialize(TWO_DARTS, real_cycle=(0, x)), 1),
    ("splice vertex", lambda x: bg.splice(PULLBACK, [x]), 1),
    ("subdivide edge id", lambda x: bg.subdivide_edges(MIRROR, {x: 1}), 1),
    ("subdivide count", lambda x: bg.subdivide_edges(MIRROR, {0: x}), 1),
    ("constellation degree", lambda x: bg.Constellation(x, ((0,),)), 1),
    ("constellation entry", lambda x: bg.Constellation(2, ((x, 0),)), 1),
    ("from_cycles degree", lambda x: bg.Constellation.from_cycles(x, [[(1,)]]), 1),
    ("from_cycles point", lambda x: bg.Constellation.from_cycles(2, [[(x, 2)]]), 1),
    ("weight type degree", lambda x: bg.WeightComposition(x, (1, 1)), 2),
    ("weight type multiplicity", lambda x: bg.WeightComposition(2, (x, 1)), 1),
    ("catalan degree", lambda x: bg.catalan(x), 1),
    ("pairing arc start", lambda x: bg.validate_pairing(_pairing(((x, 2),))), 1),
    ("pairing arc end", lambda x: bg.validate_pairing(_pairing(((1, x),))), 2),
    ("mirror graph arc", lambda x: bg.mirror_graph(_pairing(((x, 2),))), 1),
    ("tableau top", lambda x: bg.tableau_to_pairing(bg.Tableau2Row(((x,), (2,)))), 1),
    ("tableau bottom", lambda x: bg.tableau_to_pairing(bg.Tableau2Row(((1,), (x,)))), 2),
)


@pytest.mark.parametrize("name, build, valid", CONSTRUCTORS, ids=[c[0] for c in CONSTRUCTORS])
def test_constructors_take_only_integers(name, build, valid):
    build(valid)
    for x in non_integers(valid):
        with pytest.raises(bg.BalancedGraphsError):
            build(x)


# (name, build, count): build(x) fills one slot taking ids 0..count - 1
ID_SLOTS = (
    ("splice vertex", lambda x: bg.splice(PULLBACK, [x]), 8),
    ("subdivide edge id", lambda x: bg.subdivide_edges(MIRROR, {x: 1}), 8),
)


@pytest.mark.parametrize("name, build, count", ID_SLOTS, ids=[c[0] for c in ID_SLOTS])
def test_ids_lie_in_range(name, build, count):
    build(count - 1)
    for x in (-1, count):
        with pytest.raises(bg.InvariantViolation, match=rf"^{x} is not an? \w+ id$"):
            build(x)


@pytest.mark.parametrize(
    "build",
    [
        lambda: bg.Constellation.from_cycles(3, [5]),
        lambda: bg.Constellation.from_cycles(3, [[(1, 2)], None]),
        lambda: bg.Constellation(3, [5]),
        lambda: bg.Constellation(3, 5),
        lambda: bg.CombinatorialMap(None, None),
        lambda: bg.build_map(2, None, [0, 1]),
    ],
    ids=[
        "from_cycles slot",
        "from_cycles later slot",
        "constellation entry",
        "constellation perms",
        "map",
        "build_map",
    ],
)
def test_non_sequences_are_rejected(build):
    with pytest.raises(bg.BadPermutation, match=r"^(5|None) is not a list or tuple$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: bg.WeightComposition(3, 5), "multiplicities 5 are not a list or tuple"),
        (lambda: bg.catalan(None), "degree must be positive, got None"),
        (lambda: bg.catalan(1.5), "degree must be positive, got 1.5"),
    ],
    ids=["weight type multiplicities", "catalan None", "catalan float"],
)
def test_real_side_probes_raise_package_errors(build, message):
    with pytest.raises(bg.InvariantViolation, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("arc", [[1, 2], (1, 2, 2), 12, (1,)])
def test_pairing_arcs_are_pairs(arc):
    with pytest.raises(bg.InvariantViolation, match="must be two points i < j of 1..2"):
        bg.validate_pairing(_pairing((arc,)))


def test_verify_labeling_reports_non_integers(b2):
    coloring = bg.alternating_coloring(b2)
    for build, valid in (
        (lambda x: bg.VertexLabeling(2, (x, 2)), 1),
        (lambda x: bg.VertexLabeling(x, (1, 2)), 2),
    ):
        assert bg.verify_labeling(b2, coloring, build(valid)) == (True, None)
        for x in non_integers(valid):
            assert bg.verify_labeling(b2, coloring, build(x)) == (False, "labels must lie in 1..m")
    for labels in (None, 5, "12", {0: 1, 1: 2}):
        assert bg.verify_labeling(b2, coloring, bg.VertexLabeling(2, labels)) == (
            False,
            "one label per vertex required",
        )


@pytest.mark.parametrize("counts", [None, (), 0, [((0, 1), 1)]], ids=repr)
def test_enrich_rejects_counts_not_a_dict(counts):
    # an empty non-dict once returned the map unchanged, and a list of
    # pairs raised AttributeError
    with pytest.raises(bg.InvariantViolation, match=r"^matching counts .* are not a dict$"):
        bg.enrich(MIRROR, bg.DotMatching(counts))
