import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import balancedgraphs as bg
from balancedgraphs import balance, cli
from balancedgraphs.cli import main
from helpers import (
    cycle_of_length,
    fixed_point_free_pullback,
    random_genus_zero_constellation,
    random_glued_map,
)
from oracles import full_parser_main

FIXTURES = Path(__file__).parent / "fixtures"
COUNTEREXAMPLE = FIXTURES / "counterexample_gb_not_lb.json"
FLIPPED = FIXTURES / "flipped_certificate.json"


@pytest.fixture
def b2_file(b2, tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(bg.serialize(b2))
    return str(path)


@pytest.fixture
def mirror_file(mirror_1234, tmp_path):
    _, m, coloring, real_cycle = mirror_1234
    path = tmp_path / "mirror.json"
    path.write_text(bg.serialize(m, coloring=coloring, real_cycle=real_cycle))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_balanced(capsys, b2_file):
    code, out, _ = run(capsys, "check", "--input", b2_file)
    assert code == 0
    assert "d=2" in out and "g=0" in out and "locally balanced" in out


@pytest.mark.parametrize("path", [COUNTEREXAMPLE, FLIPPED])
def test_check_decides_global_balance_once(capsys, monkeypatch, path):
    calls = []
    decide = balance.is_globally_balanced

    def counted(m, coloring=None):
        calls.append(coloring)
        return decide(m, coloring)

    expected = run(capsys, "check", "--input", str(path))
    monkeypatch.setattr(balance, "is_globally_balanced", counted)
    assert run(capsys, "check", "--input", str(path)) == expected
    assert len(calls) == 1 and "corner bound holds: True" in expected[1]


def test_check_counterexample(capsys):
    code, out, _ = run(capsys, "check", "--input", str(COUNTEREXAMPLE))
    assert code == 1
    assert "certificate faces" in out


def test_check_truncated_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"darts": 8, "alpha": [1')
    code, _, err = run(capsys, "check", "--input", str(path))
    assert code == 2 and "error" in err


def test_realize_b2(capsys, b2_file):
    code, out, _ = run(capsys, "realize", "--input", b2_file)
    assert code == 0
    map_line, constellation_line = out.strip().splitlines()
    doc = json.loads(constellation_line)
    assert doc == {"d": 2, "perms": [[2, 1], [2, 1]]}
    enriched = bg.deserialize(map_line)
    assert enriched.labels is not None


def test_realize_mirror(capsys, mirror_file):
    code, out, _ = run(capsys, "realize", "--input", mirror_file)
    assert code == 0
    map_line, constellation_line = out.strip().splitlines()
    constellation = bg.deserialize_constellation(constellation_line)
    assert constellation.d == 3 and constellation.m == 4
    assert bg.verify_constellation(constellation).ok


@pytest.mark.parametrize(
    "fixture, golden",
    [("b2_file", "realize_b2.txt"), ("mirror_file", "realize_mirror_1234.txt")],
)
def test_realize_golden(capsys, request, fixture, golden):
    code, out, _ = run(capsys, "realize", "--input", request.getfixturevalue(fixture))
    assert code == 0
    assert out == (FIXTURES / golden).read_text()


def test_realize_and_pullback_golden_through_canonical_form(capsys, tmp_path):
    # a mixed-weight mirror graph of degree 10, whose enriched map has runs
    # of 2-valent vertices of several lengths, and a genus-8 constellation
    # whose fixed points give its pullback 2-valent vertices
    pairing = tmp_path / "pairing.json"
    pairing.write_text(json.dumps({
        "n": 10,
        "a": [3, 1, 1, 1, 2, 3, 4, 1, 1, 1],
        "arcs": [[1, 2], [1, 7], [1, 10], [3, 7], [4, 6], [5, 6], [5, 6], [7, 8], [7, 9]],
    }))
    code, out, _ = run(capsys, "mirror", "--input", str(pairing))
    assert code == 0
    mirror = tmp_path / "mirror.json"
    mirror.write_text(out)
    code, out, _ = run(capsys, "realize", "--input", str(mirror))
    assert code == 0
    assert out == (FIXTURES / "realize_mirror_d10.txt").read_text()
    constellation = tmp_path / "constellation.json"
    constellation.write_text(json.dumps({"d": 8, "perms": [
        [1, 5, 7, 4, 8, 6, 3, 2],
        [5, 4, 2, 8, 1, 3, 6, 7],
        [2, 5, 7, 8, 3, 1, 4, 6],
        [4, 8, 6, 5, 7, 2, 3, 1],
        [6, 5, 1, 8, 4, 7, 2, 3],
    ]}))
    code, out, _ = run(capsys, "pullback", "--input", str(constellation))
    assert code == 0
    assert out == (FIXTURES / "pullback_d8_genus8.txt").read_text()


def test_realize_counterexample(capsys):
    cert = json.loads((FIXTURES / "counterexample_certificate.json").read_text())
    code, out, _ = run(capsys, "realize", "--input", str(COUNTEREXAMPLE))
    assert code == 1
    assert out.splitlines() == [
        f"not locally balanced; Hall witness B faces: {cert['hall_witness_faces']}"
    ]


def test_realize_without_alternating_coloring_gives_checks_verdict(capsys, tmp_path):
    # a well-formed map whose one face meets itself across its edge
    path = tmp_path / "loop.json"
    path.write_text('{"darts":2,"alpha":[1,0],"sigma":[0,1]}')
    verdict = (1, "not globally balanced: no alternating face coloring exists\n", "")
    assert run(capsys, "check", "--input", str(path)) == verdict
    assert run(capsys, "realize", "--input", str(path)) == verdict


def test_realize_names_witness_faces_of_the_input_document(capsys, tmp_path):
    # the counterexample with one edge subdivided and its darts renumbered;
    # the spliced map numbers its faces otherwise, as [6, 8, 9]
    path = tmp_path / "doc.json"
    path.write_text(
        '{"darts":30,"alpha":[10,15,6,19,11,25,2,21,13,16,0,4,24,8,22,1,9,27,29,3,'
        '26,7,14,28,12,5,20,17,23,18],"sigma":[17,29,18,10,28,14,22,26,24,6,3,20,'
        '13,16,0,11,23,5,15,7,21,2,25,12,1,4,27,19,9,8]}'
    )
    assert run(capsys, "realize", "--input", str(path)) == (
        1,
        "not locally balanced; Hall witness B faces: [5, 7, 9]\n",
        "",
    )
    assert "certificate faces: [0, 2, 5, 7, 9]" in run(capsys, "check", "--input", str(path))[1]


def test_realize_witness_is_the_documents_own_hall_witness(capsys, tmp_path):
    # subdivision keeps the dot counts and face adjacency, so the Hall
    # witness of the document's own map is the one realize must name
    base = bg.deserialize(COUNTEREXAMPLE.read_text()).map
    rng = random.Random(19)
    path = tmp_path / "doc.json"
    for _ in range(100):
        edges = rng.sample(range(base.edge_count), rng.randint(1, 3))
        m = bg.subdivide_edges(base, {e: rng.randint(1, 2) for e in edges})
        darts = list(range(m.dart_count))
        rng.shuffle(darts)
        m = m.relabel(darts)
        # the document keeps this dart numbering: serialize would canonicalize it
        path.write_text(
            json.dumps({"darts": m.dart_count, "alpha": list(m.alpha), "sigma": list(m.sigma)})
        )
        witness = bg.hall_check(bg.dot_graph(m, bg.alternating_coloring(m))).witness
        assert witness
        assert run(capsys, "realize", "--input", str(path)) == (
            1,
            f"not locally balanced; Hall witness B faces: {list(witness)}\n",
            "",
        )


def test_realize_pullback_round_trip(capsys, mirror_file):
    code, out, _ = run(capsys, "realize", "--input", mirror_file)
    assert code == 0
    map_line, constellation_line = out.strip().splitlines()
    enriched = bg.deserialize(map_line).map

    path = Path(mirror_file).parent / "constellation.json"
    path.write_text(constellation_line)
    code, out, _ = run(capsys, "pullback", "--input", str(path))
    assert code == 0
    rebuilt = bg.deserialize(out.strip()).map
    assert bg.are_isomorphic(rebuilt, enriched)


def test_realize_cycle_map_round_trip(capsys, tmp_path):
    # globally balanced without corners: the degree-1 covering
    path = tmp_path / "cycle.json"
    path.write_text('{"alpha":[1,0,3,2],"darts":4,"sigma":[2,3,0,1]}')
    code, out, err = run(capsys, "realize", "--input", str(path))
    assert (code, err) == (0, "")
    map_line, constellation_line = out.strip().splitlines()
    assert json.loads(constellation_line) == {"d": 1, "perms": [[1], [1]]}

    path.write_text(constellation_line)
    code, out, _ = run(capsys, "pullback", "--input", str(path))
    assert code == 0
    before, after = json.loads(map_line), json.loads(out)
    for key in ("darts", "alpha", "sigma"):
        assert before[key] == after[key]


# realize on the cycle through k vertices: the enriched map, then the
# degree-1 constellation with one trivial permutation per vertex
CYCLE_REALIZED = {
    2: (
        '{"alpha":[1,0,3,2],"colors":["A","B"],"darts":4,"labels":[1,2],"sigma":[2,3,0,1]}',
        '{"d":1,"perms":[[1],[1]]}',
    ),
    3: (
        '{"alpha":[1,0,4,5,2,3],"colors":["A","B"],"darts":6,"labels":[1,2,3],'
        '"sigma":[2,3,0,1,5,4]}',
        '{"d":1,"perms":[[1],[1],[1]]}',
    ),
    5: (
        '{"alpha":[1,0,4,5,2,3,8,9,6,7],"colors":["A","B"],"darts":10,"labels":[1,2,5,3,4],'
        '"sigma":[2,3,0,1,6,7,4,5,9,8]}',
        '{"d":1,"perms":[[1],[1],[1],[1],[1]]}',
    ),
}


@pytest.mark.parametrize("k", sorted(CYCLE_REALIZED))
def test_cycle_check_realize_and_pullback(capsys, tmp_path, k):
    path = tmp_path / "cycle.json"
    path.write_text(bg.serialize(cycle_of_length(k)))
    assert run(capsys, "check", "--input", str(path)) == (
        0,
        "globally balanced, d=1, g=0\ncorner bound holds: True\nlocally balanced\n",
        "",
    )
    map_line, constellation_line = CYCLE_REALIZED[k]
    assert run(capsys, "realize", "--input", str(path)) == (
        0,
        f"{map_line}\n{constellation_line}\n",
        "",
    )
    path.write_text(constellation_line)
    assert run(capsys, "pullback", "--input", str(path)) == (0, f"{map_line}\n", "")


# pullback of the degree-1 constellation with k trivial permutations: the
# one-vertex loop for k = 1, else the cycle through k vertices
DEGREE_ONE_PULLBACK = {
    1: '{"alpha":[1,0],"colors":["A","B"],"darts":2,"labels":[1],"sigma":[1,0]}',
    2: CYCLE_REALIZED[2][0],
    3: CYCLE_REALIZED[3][0],
}


@pytest.mark.parametrize("k", sorted(DEGREE_ONE_PULLBACK))
def test_degree_one_pullback_through_realize_and_back(capsys, tmp_path, k):
    map_line = DEGREE_ONE_PULLBACK[k]
    constellation_line = '{"d":1,"perms":[%s]}' % ",".join(["[1]"] * k)
    path = tmp_path / "doc.json"
    path.write_text(constellation_line)
    assert run(capsys, "pullback", "--input", str(path)) == (0, f"{map_line}\n", "")
    # a loop without corners is the cycle through one vertex, not a defect
    path.write_text(map_line)
    assert run(capsys, "check", "--input", str(path)) == (
        0,
        "globally balanced, d=1, g=0\ncorner bound holds: True\nlocally balanced\n",
        "",
    )
    assert run(capsys, "realize", "--input", str(path)) == (
        0,
        f"{map_line}\n{constellation_line}\n",
        "",
    )
    path.write_text(constellation_line)
    assert run(capsys, "pullback", "--input", str(path)) == (0, f"{map_line}\n", "")


def test_flipped_certificate_is_pinned(capsys):
    rng = random.Random(1309)
    m = random_glued_map(rng, rng.randint(3, 6))
    text = bg.serialize(m, coloring=bg.alternating_coloring(m))
    assert FLIPPED.read_text() == f"{text}\n"
    code, out, err = run(capsys, "check", "--input", str(FLIPPED))
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [
        "not locally balanced (flipped coloring): region with 2 A faces and 2 B faces",
        "certificate faces: [0, 1, 2, 3]",
    ]
    assert run(capsys, "realize", "--input", str(FLIPPED)) == (
        1,
        "not locally balanced; Hall witness B faces: [6, 8]\n",
        "",
    )


def test_realize_large_pullback_returns(capsys, tmp_path):
    # long augmenting paths once ended the matching in a RecursionError
    m, coloring, lab = fixed_point_free_pullback(128, 4)
    path = tmp_path / "pullback.json"
    path.write_text(bg.serialize(m, labels=lab.labels, coloring=coloring))
    code, out, err = run(capsys, "realize", "--input", str(path))
    assert code in (0, 1, 2)
    assert len(out.splitlines()) == {0: 2, 1: 1, 2: 0}[code]
    assert err.startswith("error: ") == (code == 2)


def test_realize_genus_zero_pullbacks_round_trip(capsys, tmp_path):
    # fixed points give 2-valent vertices, which realize splices out first
    rng = random.Random(11)
    path = tmp_path / "doc.json"
    for _ in range(100):
        c = random_genus_zero_constellation(rng)
        m, coloring, lab = bg.pullback_from_constellation(c)
        assert 2 in m.vertex_valences
        path.write_text(bg.serialize(m, labels=lab.labels, coloring=coloring))
        code, out, err = run(capsys, "realize", "--input", str(path))
        assert (code, err) == (0, "")
        map_line, constellation_line = out.splitlines()
        path.write_text(constellation_line)
        code, out, _ = run(capsys, "pullback", "--input", str(path))
        assert code == 0
        before, after = json.loads(map_line), json.loads(out)
        for key in ("darts", "alpha", "sigma"):
            assert before[key] == after[key]


def test_pullback_t1(capsys, tmp_path, t1):
    path = tmp_path / "c.json"
    path.write_text('{"d":2,"perms":[[2,1],[2,1],[2,1],[2,1]]}')
    code, out, _ = run(capsys, "pullback", "--input", str(path))
    assert code == 0
    doc = bg.deserialize(out.strip())
    assert doc.map.genus() == 1
    assert bg.are_isomorphic(doc.map, t1)


def test_pullback_rejects_nontransitive(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"d":2,"perms":[[1,2],[1,2]]}')
    code, out, _ = run(capsys, "pullback", "--input", str(path))
    assert code == 1
    assert "transitively" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"d":1,"perms":[[0]]}', "[0] is not a permutation of 1..1"),
        ('{"d":3,"perms":[[1,2,4],[1,2,3]]}', "[1, 2, 4] is not a permutation of 1..3"),
    ],
)
def test_pullback_reports_the_documents_own_values(capsys, tmp_path, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert run(capsys, "pullback", "--input", str(path)) == (2, "", f"error: {message}\n")


EMPTY_PERMS_FAILURE = (
    "constellation failed verification: the permutations do not act "
    "transitively; branching total is inconsistent with an integer genus\n"
)


def test_pullback_without_permutations_allocates_nothing_of_size_d(capsys, tmp_path):
    small = tmp_path / "small.json"
    small.write_text('{"d":3,"perms":[]}')
    assert run(capsys, "pullback", "--input", str(small))[:2] == (1, EMPTY_PERMS_FAILURE)
    # a 24-byte document must not cost memory linear in d
    large = tmp_path / "large.json"
    large.write_text('{"d":4000000,"perms":[]}')
    tracemalloc.start()
    try:
        code = main(["pullback", "--input", str(large)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (1, EMPTY_PERMS_FAILURE)
    assert peak < 1_000_000


def test_pullback_of_degree_one_without_permutations_fails_verification(capsys, tmp_path):
    # the document verifies, but there is no branch-point curve to build on
    path = tmp_path / "c.json"
    path.write_text('{"d":1,"perms":[]}')
    assert run(capsys, "pullback", "--input", str(path)) == (
        1,
        "constellation failed verification: a pullback needs at least one permutation\n",
        "",
    )


SINGLE_PAIRING = ("--d", "1000", "--a", ",".join(["999"] + ["1"] * 999))


@pytest.mark.parametrize("command", ["count", "pairings", "ssyt"])
def test_large_type_with_one_pairing(capsys, command):
    # 999 arcs from point 1; a recursion per point or per arc overflows
    code, out, err = run(capsys, command, *SINGLE_PAIRING)
    assert (code, len(out.splitlines()), err) == (0, 1, "")


def test_count_catalan_type_of_degree_400(capsys):
    code, out, err = run(capsys, "count", "--d", "400", "--a", ",".join(["1"] * 798))
    assert (code, err) == (0, "")
    assert out.split("K=")[1] == f"{math.comb(798, 399) // 400}\n"


def test_count_prints_catalan_numbers_past_the_int_to_str_limit():
    # from d = 7154 on the Catalan number has more than the 4,300 digits
    # CPython turns into text by default; the composition listing after
    # it never ends, so the process is stopped after its first line, which
    # -u writes to the pipe at once instead of holding it in a block buffer
    d = 7154
    src = str(Path(bg.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "balancedgraphs.cli", "count", "--d", str(d)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    watchdog = threading.Timer(120, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait(timeout=60)
        proc.stdout.close()
    prefix, _, digits = first.rstrip("\n").partition(" catalan=")
    assert prefix == f"d={d}"
    assert digits.isdigit() and digits[0] != "0" and len(digits) > 4300
    # read back 1,000 digits at a time, each within the limit
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == math.comb(2 * d - 2, d - 1) // d
    # halves that start with zeros keep them
    assert cli._decimal(10**5000) == "1" + "0" * 5000
    assert cli._decimal(10**9000 + 7) == "1" + "0" * 8999 + "7"


def test_count_d3(capsys):
    code, out, _ = run(capsys, "count", "--d", "3")
    assert code == 0
    assert "a=1,1,1,1 K=2" in out


def test_count_d7_all_ones(capsys):
    code, out, _ = run(capsys, "count", "--d", "7", "--a", ",".join(["1"] * 12))
    assert code == 0
    assert out.strip().endswith("K=132")


def test_count_d2(capsys):
    code, out, _ = run(capsys, "count", "--d", "2")
    assert "a=1,1 K=1" in out


@pytest.mark.parametrize("d", ["0", "-2"])
def test_count_nonpositive_degree_exits_2(capsys, d):
    code, out, err = run(capsys, "count", "--d", d)
    assert code == 2 and err.startswith("error:") and out == ""


def test_count_d1(capsys):
    assert run(capsys, "count", "--d", "1") == (0, "d=1 catalan=1\n", "")


def test_pairings_and_ssyt(capsys):
    code, out, _ = run(capsys, "pairings", "--d", "3", "--a", "1,1,1,1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["n"] == 4 for line in lines)

    code, out, _ = run(capsys, "ssyt", "--d", "3", "--a", "1,1,1,1")
    assert code == 0
    assert [json.loads(line)["rows"] for line in out.strip().splitlines()] == [
        [[1, 2], [3, 4]],
        [[1, 3], [2, 4]],
    ]


@pytest.mark.parametrize("command", ["pairings", "ssyt"])
def test_listing_requires_weights(capsys, command):
    code, out, err = _exit_and_output(capsys, [command, "--d", "3"])
    assert (code, out) == (2, "")
    assert "the following arguments are required: --a" in err


@pytest.mark.parametrize("command", ["pairings", "ssyt"])
def test_listing_golden(capsys, command):
    code, out, err = run(capsys, command, "--d", "5", "--a", "2,1,1,2,1,1")
    assert (code, err) == (0, "")
    assert out == (FIXTURES / f"{command}_d5_211211.txt").read_text()


def test_mirror_command(capsys, tmp_path, mirror_1234):
    p, expected, _, expected_cycle = mirror_1234
    path = tmp_path / "pairing.json"
    path.write_text(bg.serialize_pairing(p))
    code, out, _ = run(capsys, "mirror", "--input", str(path))
    assert code == 0
    doc = bg.deserialize(out.strip())
    assert bg.are_isomorphic(doc.map, expected)
    assert doc.real_cycle is not None and doc.colors is not None


def test_export_dot_golden(capsys, b2_file):
    code, out, _ = run(capsys, "export", "--input", b2_file, "--format", "dot")
    assert code == 0
    assert out == (FIXTURES / "b2.dot").read_text()
    assert out.count("--") == 4 and out.count(";") == 6


def test_export_svg_golden(capsys, mirror_file):
    code, out, _ = run(capsys, "export", "--input", mirror_file, "--format", "svg")
    assert code == 0
    assert out == (FIXTURES / "mirror_1234.svg").read_text()


def test_export_svg_rejects_an_open_real_cycle(capsys, tmp_path, open_real_cycle_documents):
    path = tmp_path / "doc.json"
    for text in open_real_cycle_documents:
        path.write_text(text)
        code, out, err = run(capsys, "export", "--input", str(path), "--format", "svg")
        assert code == 2 and out == "" and err.startswith("error:")
        assert "closed walk" in err


def test_export_svg_rejects_positive_genus(capsys, tmp_path, t1):
    path = tmp_path / "t1.json"
    path.write_text(bg.serialize(t1))
    code, _, err = run(capsys, "export", "--input", str(path), "--format", "svg")
    assert code == 2 and "planar" in err


def test_outputs_byte_identical_across_runs(capsys, mirror_file, b2_file):
    for argv in (
        ["check", "--input", b2_file],
        ["realize", "--input", mirror_file],
        ["count", "--d", "4"],
        ["export", "--input", mirror_file, "--format", "svg"],
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def _exit_and_output(capsys, argv):
    """(exit code, stdout, stderr) of one call, usage errors and help included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_carries_no_state_between_calls(capsys, monkeypatch, tmp_path):
    constellation = tmp_path / "c.json"
    constellation.write_text('{"d":2,"perms":[[2,1],[2,1],[2,1],[2,1]]}')
    calls = [
        ["check", "--bogus"],
        ["--help"],
        ["count", "--d", "3"],
        ["check", "--input", str(COUNTEREXAMPLE)],
        ["pullback", "--input", str(constellation)],
        ["check", "--bogus"],
    ]
    assert cli.build_parser() is cli.build_parser()
    shared = [_exit_and_output(capsys, argv) for argv in calls]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_exit_and_output(capsys, argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 1, 0, 2]


COMMANDS = ("check", "realize", "pullback", "count", "pairings", "ssyt", "mirror", "export")


def _argv_corpus(mirror_file, tmp_path):
    """Calls of every subcommand, help requests, and usage errors of the
    kinds argparse reports from the full parser or from a subcommand's."""
    constellation = tmp_path / "c.json"
    constellation.write_text('{"d":2,"perms":[[2,1],[2,1],[2,1],[2,1]]}')
    pairing = tmp_path / "p.json"
    pairing.write_text('{"n":4,"a":[1,1,1,1],"arcs":[[1,2],[3,4]]}')
    cex = str(COUNTEREXAMPLE)
    valid = [
        ["check", "--input", cex],
        ["realize", "--input", mirror_file],
        ["pullback", "--input", str(constellation)],
        ["count", "--d", "3"],
        ["count", "--d", "4", "--a", "3,1,1,1"],
        ["pairings", "--d", "3", "--a", "1,1,1,1"],
        ["ssyt", "--d", "3", "--a", "1,1,1,1"],
        ["mirror", "--input", str(pairing)],
        ["export", "--input", mirror_file, "--format", "svg"],
        ["export", "--input", cex],
    ]
    help_requests = [["--help"], ["-h"], [], ["bogus"], ["--d", "3"]]
    help_requests += [[command, flag] for command in COMMANDS for flag in ("-h", "--help")]
    usage = [
        ["check", "--bogus"],
        ["check", "--input", cex, "extra"],
        ["pairings", "--d", "3"],
        ["count"],
        ["count", "--d", "x"],
        ["count", "--d=3"],
        ["count", "--d", "-3"],
        ["check", "--inp", "-"],
        ["check", "--input"],
        ["export", "--format", "bogus"],
        ["export", "--input", cex, "--format=dot"],
        ["check", "--input", cex, "--", "x"],
        ["count", "--d", "3", "--"],
        ["ssyt", "--a", "1,1", "--d", "2", "-h"],
    ]
    return valid + help_requests + usage


def test_subcommand_parsing_matches_the_full_parser(capsys, monkeypatch, mirror_file, tmp_path):
    stdin = COUNTEREXAMPLE.read_text()

    def outcome(entry, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = entry(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    codes = []
    for argv in _argv_corpus(mirror_file, tmp_path):
        ours = outcome(main, argv)
        assert ours == outcome(full_parser_main, argv), argv
        codes.append(ours[0])
    assert {0, 1, 2} <= set(codes)


def _nested(prefix, depth=100_000):
    """``prefix`` followed by a JSON value nested ``depth`` lists deep."""
    return prefix + "[" * depth + "]" * depth + "}"


@pytest.mark.parametrize(
    "command, document",
    [
        ("pullback", '{"d":2,"perms":[["a","b"]]}'),
        ("mirror", '{"n":2,"a":["x",1],"arcs":[[1,2]]}'),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[5]}'),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[[1,"b"]]}'),
        (
            "check",
            '{"darts":8,"alpha":[1,0,3,2,5,4,7,6],"sigma":[2,7,4,1,6,3,0,5],'
            '"labels":[true,2]}',
        ),
        ("check", b"\xff\xfe{"),
        pytest.param("check", _nested('{"darts":8,"alpha":'), id="check-nested"),
        pytest.param("pullback", _nested('{"d":2,"perms":'), id="pullback-nested"),
        pytest.param("mirror", _nested('{"n":2,"a":'), id="mirror-nested"),
        ("mirror", '{"n":4.0,"a":[1,1,1,1],"arcs":[[1,2],[3,4]]}'),
        pytest.param(
            "check",
            '{"darts":' + "1" * 5000 + ',"alpha":[],"sigma":[]}',
            id="check-5000-digit-integer",
        ),
        (
            "check",
            '{"darts":8,"alpha":[1,0,3,2,5,4,7,6],"sigma":[2,7,4,1,6,3,0,5],'
            '"labels":[1.0,2]}',
        ),
        ("pullback", '{"d":2,"perms":[[2,true],[2,1]]}'),
        ("pullback", '{"d":2,"perms":[[2,1.0],[2,1]]}'),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[[1,true]]}'),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[[1,2.0]]}'),
        pytest.param("count --d 3 --a 1,x", None, id="count-weight-not-an-integer"),
        ("check", '{"darts":4,"alpha":[1,0],"sigma":[2,3,0,1]}'),
        ("check", '{"darts":4,"alpha":[1,0,3,2],"sigma":[2,3,0]}'),
        ("check", '{"darts":"4","alpha":[1,0,3,2],"sigma":[2,3,0,1]}'),
        ("check", '{"darts":4,"alpha":{"0":1},"sigma":[2,3,0,1]}'),
        ("check", '{"darts":4,"alpha":[1,0,3,2.0],"sigma":[2,3,0,1]}'),
        ("check", '{"darts":4,"alpha":[true,0,3,2],"sigma":[2,3,0,1]}'),
        ("check", '{"darts":4,"alpha":[1,0,3,2],"sigma":[2,3,0,"1"]}'),
        ("export", '{"darts":4,"alpha":[1,0,3,2],"sigma":[2,3,0,1],"real_cycle":[0,4]}'),
        pytest.param(
            "export --format svg",
            '{"darts":4,"alpha":[1,0,3,2],"sigma":[2,3,0,1],"real_cycle":[0,2]}',
            id="export-svg-real-cycle-repeats-a-vertex",
        ),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[[1,1]]}'),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[[0,2]]}'),
        ("mirror", '{"n":2,"a":[1,1],"arcs":[[2,1]]}'),
    ],
)
def test_malformed_documents_exit_2(capsys, tmp_path, command, document):
    if document is None:  # the arguments are the whole input
        code, out, err = run(capsys, *command.split())
    else:
        path = tmp_path / "doc.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(document)
        code, out, err = run(capsys, *command.split(), "--input", str(path))
    assert code == 2 and err.startswith("error:") and out == ""


def test_a_reversed_arc_is_named_by_the_rule_it_breaks(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"n":2,"a":[1,1],"arcs":[[2,1]]}')
    assert run(capsys, "mirror", "--input", str(path)) == (
        2,
        "",
        "error: arc (2, 1) must be two points i < j of 1..2\n",
    )
