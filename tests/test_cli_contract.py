"""The CLI exit-code contract on mutated documents.

Starting from valid map, constellation and pairing documents, fields are
deleted or retyped, numbers become floats, booleans or strings, and the
text is truncated or nested.  Every run must end in exit 0, 1 or 2
without raising, and exit 1 must come with a verdict line on stdout.
"""

import contextlib
import io
import json
import sys
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from balancedgraphs.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PAIRINGS = (
    '{"a":[1,1,1,1],"arcs":[[1,2],[3,4]],"n":4}',
    '{"a":[1,2,1,2],"arcs":[[1,2],[2,4],[3,4]],"n":4}',
)
COMMANDS = (
    ("check",),
    ("realize",),
    ("export", "--format", "dot"),
    ("export", "--format", "svg"),
    ("pullback",),
    ("mirror",),
)
COMMANDS_OF_KIND = {
    "map": COMMANDS[:4],
    "constellation": COMMANDS[4:5],
    "pairing": COMMANDS[5:],
}
VERDICTS = ("not globally balanced", "not locally balanced", "constellation failed")
NEST = "\x00nest\x00"  # placeholder replaced by deeply nested brackets


def run(argv, text):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def seed_documents():
    """Valid documents of each kind: the committed fixture, mirror graphs
    of two pairings, their realized maps with labels and constellations."""
    docs = {
        "map": [(FIXTURES / "counterexample_gb_not_lb.json").read_text()],
        "constellation": ['{"d":2,"perms":[[2,1],[2,1],[2,1],[2,1]]}'],
        "pairing": list(PAIRINGS),
    }
    for pairing in PAIRINGS:
        code, mirror, _ = run(("mirror",), pairing)
        assert code == 0
        code, realized, _ = run(("realize",), mirror)
        assert code == 0
        map_line, constellation_line = realized.splitlines()
        docs["map"] += [mirror.strip(), map_line]
        docs["constellation"].append(constellation_line)
    return {kind: [json.loads(text) for text in texts] for kind, texts in docs.items()}


def _replacement(value):
    """Strategy for what replaces one node of a document."""
    options = [st.none(), st.just("x"), st.just([]), st.just({}), st.just(NEST)]
    options += [st.booleans(), st.integers(-3, 40), st.floats(allow_nan=False)]
    if isinstance(value, int) and not isinstance(value, bool):
        options += [st.just(float(value)), st.just(str(value)), st.just(value != 0)]
    options.append(st.just([value]))
    return st.one_of(options)


@st.composite
def mutated(draw, value):
    """``value`` with one node deleted, replaced or retyped, or two items
    of one list swapped."""
    descend = draw(st.sampled_from((True, True, True, False)))
    if isinstance(value, (dict, list)) and value and descend:
        keys = list(value) if isinstance(value, dict) else list(range(len(value)))
        key = draw(st.sampled_from(keys))
        action = draw(st.sampled_from(("descend", "descend", "delete", "swap")))
        copy = value.copy()
        if action == "delete":
            del copy[key]
        elif action == "swap" and isinstance(value, list):
            other = draw(st.sampled_from(keys))
            copy[key], copy[other] = value[other], value[key]
        else:
            copy[key] = draw(mutated(value[key]))
        return copy
    return draw(_replacement(value))


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(sorted(COMMANDS_OF_KIND)))
    doc = draw(st.sampled_from(seed_documents()[kind]))
    for _ in range(draw(st.integers(0, 2))):
        doc = draw(mutated(doc))
    depth = draw(st.sampled_from((1, 50, 100_000)))
    text = json.dumps(doc).replace(json.dumps(NEST), "[" * depth + "]" * depth)
    distortion = draw(st.sampled_from(("none", "none", "none", "truncate", "wrap")))
    if distortion == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif distortion == "wrap":
        text = "[" * depth + text + "]" * depth
    # mostly the commands that read this kind, sometimes any command
    pool = draw(st.sampled_from((COMMANDS_OF_KIND[kind],) * 4 + (COMMANDS,)))
    return draw(st.sampled_from(pool)), text


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(documents())
def test_mutated_documents_keep_the_exit_code_contract(case):
    argv, text = case
    code, out, err = run(argv, text)
    assert code in (0, 1, 2)
    verdict = any(line.startswith(VERDICTS) for line in out.splitlines())
    assert (code == 1) == verdict
    assert err.startswith("error: ") == (code == 2)
