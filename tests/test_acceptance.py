"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import balancedgraphs as bg
from balancedgraphs.cli import main as cli_main
from helpers import all_mirror_graphs
from oracles import column_fill_ssyt, region_invariants_hold
from test_labeling import CHARGE_FAMILIES

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")


def test_criterion_1_counting_identity():
    with criterion(1, "counting identity"):
        started = time.perf_counter()
        expected = [1, 2, 5, 14, 42, 132, 429]
        for d, value in zip(range(2, 9), expected):
            t = bg.WeightComposition(d, (1,) * (2 * d - 2))
            assert bg.kostka(t) == value
            assert value == math.comb(2 * d - 2, d - 1) // d
            assert bg.catalan(d) == value
        assert time.perf_counter() - started < 5.0


def test_criterion_2_triple_enumerator_agreement():
    with criterion(2, "triple enumerator agreement"):
        started = time.perf_counter()
        types = 0
        for d in range(2, 6):
            for a in bg.compositions(2 * d - 2, d - 1):
                if not 2 <= len(a) <= 2 * d - 2:
                    continue
                t = bg.WeightComposition(d, a)
                pairings = bg.enumerate_pairings(t)
                tableaux = bg.enumerate_ssyt(t)
                # the three share one table; the column fill shares nothing
                assert len(pairings) == len(tableaux) == bg.kostka(t) == len(column_fill_ssyt(t))
                images = [bg.pairing_to_tableau(p) for p in pairings]
                assert [bg.tableau_to_pairing(tb) for tb in images] == pairings
                assert sorted(tb.rows for tb in images) == [tb.rows for tb in tableaux]
                # distinct pairings, distinct marked mirror graphs
                keys = set()
                for p in pairings:
                    m, _, real_cycle = bg.mirror_graph(p)
                    keys.add(bg.marked_canonical_key(m, real_cycle))
                assert len(keys) == len(pairings)
                types += 1
        assert types == 138  # every type with d <= 5
        assert time.perf_counter() - started < 60.0


def test_criterion_3_derived_spot_value():
    with criterion(3, "derived spot value K(5,(2,1,1,2,1,1))"):
        t = bg.WeightComposition(5, (2, 1, 1, 2, 1, 1))
        tableaux = bg.enumerate_ssyt(t)
        pairings = bg.enumerate_pairings(t)
        assert len(tableaux) == len(pairings) == bg.kostka(t) == 6
        rows = [tb.rows for tb in tableaux]
        for shown in (
            ((1, 1, 4, 4), (2, 3, 5, 6)),
            ((1, 1, 3, 4), (2, 4, 5, 6)),
            ((1, 1, 2, 3), (4, 4, 5, 6)),
        ):
            assert shown in rows


def test_criterion_4_mirror_graphs_balanced():
    with criterion(4, "mirror graphs globally and locally balanced"):
        count = 0
        for _, m, coloring, _ in all_mirror_graphs(5):
            assert bg.is_globally_balanced(m, coloring).ok
            report = bg.is_locally_balanced(m, coloring)
            assert report.locally_balanced, report
            count += 1
        assert count > 0


def _witness_yields_certificate(m, coloring, witness_faces):
    neighbors = [set() for _ in range(m.face_count)]
    for f, g, _ in bg.face_adjacency(m):
        if f != g:
            neighbors[f].add(g)
            neighbors[g].add(f)
    region = set(witness_faces)
    for f in witness_faces:
        region |= neighbors[f]
    remaining = set(region)
    while remaining:
        component = {remaining.pop()}
        stack = list(component)
        while stack:
            f = stack.pop()
            for g in neighbors[f]:
                if g in region and g not in component:
                    component.add(g)
                    stack.append(g)
        remaining -= component
        if region_invariants_hold(m, coloring, component):
            a = sum(1 for f in component if coloring.color(f) == bg.COLOR_A)
            if a <= len(component) - a:
                return True
    return False


def test_criterion_5_theorem_a_suite(gb_corpus, counterexample):
    with criterion(5, "balance equivalence and realization round trip"):
        started = time.perf_counter()
        maps = [(m, bg.alternating_coloring(m)) for m in gb_corpus]
        maps.append(counterexample[:2])
        succeeded = failed = 0
        for m, coloring in maps:
            dg = bg.dot_graph(m, coloring)
            hall = bg.hall_check(dg)
            report = bg.is_locally_balanced(m, coloring)
            assert hall.ok == report.locally_balanced
            if hall.ok:
                matching = bg.perfect_matching(dg)
                enriched = bg.enrich(m, matching)
                lab = bg.admissible_labeling(enriched, coloring)
                ok, why = bg.verify_labeling(enriched, coloring, lab)
                assert ok, why
                c = bg.constellation_from(enriched, coloring, lab)
                assert bg.verify_constellation(c, bg.passport_of(enriched, lab)).ok
                rebuilt, _, _ = bg.pullback_from_constellation(c)
                assert bg.are_isomorphic(rebuilt, enriched)
                succeeded += 1
            else:
                assert _witness_yields_certificate(m, coloring, hall.witness)
                failed += 1
        assert succeeded > 0 and failed > 0
        assert time.perf_counter() - started < 600.0


def test_criterion_6_charge_conservation():
    with criterion(6, "charge conservation"):
        rng = random.Random(987654321)
        for family in CHARGE_FAMILIES:
            for _ in range(1000):
                cg, w = family(rng)
                report = bg.charge_conservation_check(cg, w)
                assert abs(report.in_value - report.out_value) <= 1e-9


def test_criterion_7_structural_bounds(gb_corpus, constellation_corpus):
    with criterion(7, "corner bound and genus agreement"):
        for m in gb_corpus:
            assert bg.corner_bound_check(m)
        for c in constellation_corpus:
            m, coloring, lab = bg.pullback_from_constellation(c)
            passport = bg.passport_of(m, lab)
            assert m.genus() == bg.rh_genus(passport)
            compressed_map, compressed_lab = (
                bg.compress_labels(m, lab) if m.corners else (m, lab)
            )
            if compressed_map.corners:
                d = compressed_map.face_count // 2
                bound = 2 * (compressed_map.genus() + d - 1)
                assert len(compressed_map.corners) <= bound


def test_criterion_8_cubic_reality_check():
    with criterion(8, "two marked mirror graphs in degree 3"):
        t = bg.WeightComposition(3, (1, 1, 1, 1))
        keys = set()
        for p in bg.enumerate_pairings(t):
            m, _, real_cycle = bg.mirror_graph(p)
            keys.add(bg.marked_canonical_key(m, real_cycle))
        assert len(keys) == 2


def test_criterion_9_determinism(capsys, tmp_path, b2, mirror_1234):
    with criterion(9, "byte-identical reruns"):
        assert bg.serialize(b2) == bg.serialize(b2)
        shuffled = b2.relabel((5, 2, 7, 0, 3, 6, 1, 4))
        assert bg.serialize(shuffled) == bg.serialize(b2)
        assert b2.canonical_key() == shuffled.canonical_key()

        _, m, coloring, real_cycle = mirror_1234
        path = tmp_path / "mirror.json"
        path.write_text(bg.serialize(m, coloring=coloring, real_cycle=real_cycle))
        for argv in (
            ["check", "--input", str(path)],
            ["realize", "--input", str(path)],
            ["count", "--d", "4"],
            ["export", "--input", str(path), "--format", "svg"],
        ):
            code1 = cli_main(list(argv))
            out1 = capsys.readouterr()
            code2 = cli_main(list(argv))
            out2 = capsys.readouterr()
            assert (code1, out1.out) == (code2, out2.out)
