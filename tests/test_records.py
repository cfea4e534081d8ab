import os
import subprocess
import sys
from pathlib import Path

import pytest

import balancedgraphs as bg
from balancedgraphs._record import cached

CYCLE = bg.build_map(4, [1, 0, 3, 2], [2, 3, 0, 1])
TYPE = bg.WeightComposition(3, (1, 1, 1, 1))

# every value type the package exports: the arguments of one record (the
# defaulted fields left out), those of a record differing in one field,
# and the repr of the first
CASES = {
    bg.CombinatorialMap: (
        ((1, 0, 3, 2), (2, 3, 0, 1)),
        ((1, 0, 3, 2), (2, 3, 1, 0)),
        "CombinatorialMap(alpha=(1, 0, 3, 2), sigma=(2, 3, 0, 1))",
    ),
    bg.GlobalBalance: ((True, 2), (False, 2), "GlobalBalance(ok=True, d=2, reason=None)"),
    bg.Region: (
        (frozenset({0}), frozenset({1}), ((0, 1),), 1, 1),
        (frozenset({0}), frozenset({1}), ((0, 1),), 1, 2),
        "Region(faces=frozenset({0}), boundary_edges=frozenset({1}), "
        "boundary_cycles=((0, 1),), a_count=1, b_count=1)",
    ),
    bg.BalanceReport: (
        (3, True, True),
        (3, True, False),
        "BalanceReport(d=3, globally_balanced=True, locally_balanced=True, violation=None, "
        "violation_on_flipped=False, reason=None)",
    ),
    bg.DotGraph: (
        (2, (1, 1), (0,), (1,), ((1,), (0,))),
        (2, (1, 1), (1,), (0,), ((1,), (0,))),
        "DotGraph(m=2, dot_counts=(1, 1), a_faces=(0,), b_faces=(1,), "
        "face_neighbors=((1,), (0,)))",
    ),
    bg.HallResult: ((True,), (False,), "HallResult(ok=True, witness=())"),
    bg.DotMatching: (({(0, 1): 2},), ({(0, 1): 1},), "DotMatching(counts={(0, 1): 2})"),
    bg.VertexLabeling: ((2, (1, 2, 1)), (2, (2, 1, 2)), "VertexLabeling(m=2, labels=(1, 2, 1))"),
    bg.Passport: ((3, ((2, 1), (3,))), (3, ((3,), (3,))), "Passport(d=3, parts=((2, 1), (3,)))"),
    bg.ChargeableGraph: (
        (1, 1, ((0, 0),), frozenset(), frozenset({0})),
        (1, 1, ((0, 0),), frozenset({0}), frozenset({0})),
        "ChargeableGraph(x_count=1, y_count=1, edges=((0, 0),), inputs=frozenset(), "
        "outputs=frozenset({0}), capacity={})",
    ),
    bg.Weighting: (((0.5, 1.5),), ((1.5, 0.5),), "Weighting(weights=(0.5, 1.5))"),
    bg.ChargeReport: (
        (1.0, 1.0, True),
        (1.0, 2.0, False),
        "ChargeReport(in_value=1.0, out_value=1.0, equal=True)",
    ),
    bg.Constellation: (
        (2, ((1, 0), (1, 0))),
        (2, ((0, 1),)),
        "Constellation(d=2, perms=((1, 0), (1, 0)))",
    ),
    bg.Realization: (
        (False,),
        (True,),
        "Realization(ok=False, map=None, coloring=None, labeling=None, constellation=None, "
        "verdict='')",
    ),
    bg.ConstellationReport: (
        (True, True, True, 0, ((2,), (2,))),
        (True, True, True, 1, ((2,), (2,))),
        "ConstellationReport(ok=True, product_is_identity=True, transitive=True, genus=0, "
        "cycle_types=((2,), (2,)), passport_match=None, failures=())",
    ),
    bg.WeightComposition: (
        (3, (1, 1, 1, 1)),
        (3, (2, 1, 1)),
        "WeightComposition(d=3, a=(1, 1, 1, 1))",
    ),
    bg.NonCrossingPairing: (
        (TYPE, ((1, 2), (3, 4))),
        (TYPE, ((1, 4), (2, 3))),
        "NonCrossingPairing(type=WeightComposition(d=3, a=(1, 1, 1, 1)), arcs=((1, 2), (3, 4)))",
    ),
    bg.Tableau2Row: (
        (((1, 2), (3, 4)),),
        (((1, 3), (2, 4)),),
        "Tableau2Row(rows=((1, 2), (3, 4)))",
    ),
    bg.FaceColoring: ((("A", "B"),), (("B", "A"),), "FaceColoring(colors=('A', 'B'))"),
    bg.MapDocument: (
        (CYCLE,),
        (bg.build_map(2, [1, 0], [0, 1]),),
        "MapDocument(map=CombinatorialMap(alpha=(1, 0, 3, 2), sigma=(2, 3, 0, 1)), "
        "labels=None, colors=None, real_cycle=None)",
    ),
}

UNHASHABLE = {bg.DotMatching, bg.ChargeableGraph}


def test_cases_cover_every_exported_value_type():
    exported = {
        v for v in vars(bg).values() if isinstance(v, type) and not issubclass(v, Exception)
    }
    assert exported == set(CASES)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    args, other_args, text = CASES[cls]
    a, b, other = cls(*args), cls(*args), cls(*other_args)
    assert a == b and not a != b and a is not b
    assert a != other
    assert repr(a) == text
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)

    # an object of another class holding the same values is not equal: a
    # plain class of the same name, or any other value type with as many
    # fields; nor is a tuple
    names = cls.__match_args__
    values = [getattr(a, name) for name in names]
    twin_classes = [type(cls.__name__, (), {"__match_args__": names})]
    twin_classes += [t for t in CASES if t is not cls and len(t.__match_args__) == len(names)]
    for twin_cls in twin_classes:
        twin = object.__new__(twin_cls)
        twin.__dict__.update(zip(twin_cls.__match_args__, values))
        assert a != twin and a.__eq__(twin) is NotImplemented
    assert a.__eq__(args) is NotImplemented

    # keyword construction, with the defaulted fields given explicitly too
    assert cls(**dict(zip(names, args))) == a
    full = dict(zip(names, values))
    assert cls(**full) == a and repr(cls(*full.values())) == text

    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, unknown=1)
    with pytest.raises(TypeError):
        cls(*full.values(), None)

    for name in (names[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == text


def test_fresh_capacity_per_chargeable_graph():
    args = CASES[bg.ChargeableGraph][0]
    g, h = bg.ChargeableGraph(*args), bg.ChargeableGraph(*args)
    assert g.capacity == {} and g.capacity is not h.capacity
    g.capacity[("x", 0)] = 1.0
    assert h.capacity == {} and bg.ChargeableGraph(*args).capacity == {}


def test_invariant_checks_still_run():
    with pytest.raises(bg.InvariantViolation):
        bg.Constellation(0, ())
    with pytest.raises(bg.InvariantViolation):
        bg.Constellation(2, ((0, 0),))
    for d, a in ((1, (1,)), (3, (1, 1)), (3, (3, 1)), (3, (1, 1, 1))):
        with pytest.raises(bg.InvariantViolation):
            bg.WeightComposition(d, a)
    with pytest.raises(bg.InvariantViolation, match="^colors must assign A or B"):
        bg.FaceColoring(("A", "Z"))
    # the multiplicities, the permutations and the colors are stored as tuples
    assert bg.WeightComposition(3, [1, 1, 1, 1]) == TYPE
    assert bg.WeightComposition(3, [1, 1, 1, 1]).a == (1, 1, 1, 1)
    for given, stored in (
        (bg.Constellation(2, [[1, 0], [1, 0]]), bg.Constellation(2, ((1, 0), (1, 0)))),
        (bg.FaceColoring(["A", "B"]), bg.FaceColoring(("A", "B"))),
    ):
        assert given == stored and hash(given) == hash(stored) and repr(given) == repr(stored)


def test_unchecked_records_equal_checked():
    for cls in (bg.Constellation, bg.CombinatorialMap):
        args = CASES[cls][0]
        checked, unchecked = cls(*args), cls._unchecked(*args)
        assert unchecked == checked and hash(unchecked) == hash(checked)
        assert repr(unchecked) == repr(checked)


def test_maps_built_without_checks_equal_checked_maps(b2):
    # each builder that skips the checks stores tuple fields that the
    # checked constructor accepts as they are
    pairing = bg.NonCrossingPairing(TYPE, ((1, 2), (3, 4)))
    mirror, _, _ = bg.mirror_graph(pairing)
    pullback, _, _ = bg.pullback_from_constellation(
        bg.Constellation.from_cycles(3, [[(1, 2)], [(2, 3)], [(2, 3)], [(1, 2)]])
    )
    built = {
        "relabel": b2.relabel(range(b2.dart_count)[::-1]),
        "canonical": b2.canonical(),
        "subdivide_edges": bg.subdivide_edges(mirror, {0: 2, 5: 1}),
        "splice": bg.splice(pullback, [1, 3])[0],
        "mirror_graph": mirror,
        "pullback_from_constellation": pullback,
    }
    for name, m in built.items():
        assert type(m.alpha) is tuple and type(m.sigma) is tuple, name
        checked = bg.CombinatorialMap(m.alpha, m.sigma)
        assert m == checked and hash(m) == hash(checked), name
        assert repr(m) == repr(checked), name


def test_cached_properties_stay_out_of_eq_hash_and_repr():
    labeling = bg.VertexLabeling(2, (1, 2, 1))
    fresh_labeling = bg.VertexLabeling(2, (1, 2, 1))
    before = hash(labeling), repr(labeling)
    assert labeling.classes == ((0, 2), (1,))
    assert (hash(labeling), repr(labeling)) == before
    assert labeling == fresh_labeling and fresh_labeling == labeling

    pairing = bg.NonCrossingPairing(TYPE, ((1, 2), (3, 4)))
    fresh_pairing = bg.NonCrossingPairing(TYPE, ((1, 2), (3, 4)))
    before = hash(pairing), repr(pairing)
    assert pairing._replayed_arcs == ((1, 2), (3, 4))
    assert (hash(pairing), repr(pairing)) == before
    assert pairing == fresh_pairing and fresh_pairing == pairing


def test_cached_attribute_runs_its_body_once_per_instance():
    class Counted:
        calls = 0

        @cached
        def value(self):
            """A fresh object per instance."""
            Counted.calls += 1
            return object()

    first, second = Counted(), Counted()
    assert first.value is first.value and second.value is second.value
    assert first.value is not second.value
    assert Counted.calls == 2
    assert vars(first) == {"value": first.value}
    assert isinstance(Counted.value, cached)
    assert Counted.value.__doc__ == "A fresh object per instance."


def test_cached_attribute_stores_nothing_when_its_body_raises(tetrahedron):
    # the tetrahedron's faces are triangles: no alternating coloring
    m = bg.CombinatorialMap(tetrahedron.alpha, tetrahedron.sigma)
    for _ in range(3):
        with pytest.raises(bg.NotBipartiteFaces):
            bg.alternating_coloring(m)
        assert "_alternating_coloring" not in vars(m)


def test_cached_attributes_on_records_pass_round_assignment():
    labeling = bg.VertexLabeling(2, (1, 2, 1))
    assert labeling.classes is labeling.classes == ((0, 2), (1,))
    assert vars(labeling)["classes"] == ((0, 2), (1,))
    pairing = bg.NonCrossingPairing(TYPE, ((1, 2), (3, 4)))
    assert pairing._replayed_arcs is pairing._replayed_arcs == ((1, 2), (3, 4))
    assert vars(pairing)["_replayed_arcs"] == ((1, 2), (3, 4))
    # the records still refuse assignment, to fields and cached names alike
    for record, name in ((labeling, "classes"), (labeling, "m"), (pairing, "_replayed_arcs")):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
    # an invalid pairing raises on every read and stores nothing
    crossing = bg.NonCrossingPairing(TYPE, ((1, 3), (2, 4)))
    for _ in range(2):
        with pytest.raises(bg.InvariantViolation):
            crossing._replayed_arcs
    assert "_replayed_arcs" not in vars(crossing)


def test_cli_import_needs_no_dataclasses_or_inspect():
    src = Path(bg.__file__).resolve().parent.parent
    code = (
        "import sys, balancedgraphs.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out == "[]\n"
