"""Seeded workloads: the operations each one runs and how outputs are checked.

A workload is a pool of operations in a fixed slot order; the seed picks
the instance that fills each slot (weight type, pairing, permutations),
never the slot sizes, so runs with different seeds do comparable work.
Expected results come from the benchmark's own code in ``maps`` or, for
the local-balance verdict, from the Hall condition, which shares no code
with the region enumeration that ``check`` times.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import maps

WORKLOADS = ("check-glued", "realize-roundtrip", "constellation-census", "real-census")


@dataclass(frozen=True)
class Step:
    """One command-line call, or with ``call`` set, one direct library call.

    ``stdin`` is the document fed to the step; ``None`` means the previous
    step's standard output, or only its line ``line`` when that is set.
    """

    argv: tuple[str, ...]
    stdin: str | None = None
    call: Callable[[str], str] | None = None
    line: int | None = None

    def input_from(self, previous: str | None) -> str:
        if self.stdin is not None:
            return self.stdin
        if self.line is not None:
            lines = previous.splitlines()
            return lines[self.line] if self.line < len(lines) else ""
        return previous


@dataclass(frozen=True)
class Op:
    kind: str
    steps: tuple[Step, ...]
    expect: tuple[int, ...]  # exit code of each step
    check: Callable[[list[str]], str | None]  # problem with the outputs, or None
    well_formed: bool = True


def build(name: str, seed: int, lib) -> list[Op]:
    """The operation pool of workload ``name`` for ``seed``.

    ``lib`` is the imported ``balancedgraphs`` package.  Generation uses it
    only for the Hall-condition verdicts, for the map documents that
    ``export`` reads, and for the one step that is not a CLI call.
    """
    rng = random.Random(f"{name}/{seed}")
    return _POOLS[name](rng, lib)


def digest(ops: list[Op]) -> str:
    """SHA-256 over every operation's kind, arguments and documents."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.kind.encode())
        for step in op.steps:
            h.update(b"\0" + "\0".join(step.argv).encode())
            h.update(b"\1" + (step.stdin or "").encode())
    return h.hexdigest()


def _pairing_document(a, arcs) -> str:
    return json.dumps({"a": list(a), "arcs": [list(x) for x in arcs], "n": len(a)})


def _small_large(sizes):
    """Sizes ordered smallest, largest, second smallest, ... so that every
    prefix of a pool holds light and heavy operations alike."""
    sizes = sorted(sizes)
    return [sizes[i // 2] if i % 2 == 0 else sizes[-1 - i // 2] for i in range(len(sizes))]


def _weight_type(rng: random.Random, d: int, n: int):
    a = maps.random_composition(rng, d, n)
    return a, maps.random_pairing(rng, a)


# ---------------------------------------------------------------- check-glued

GLUED_DEGREES = range(6, 11)
GLUED_PER_SLOT = 16
GLUED_ATTEMPTS = 12000


def _glued_points(d: int, level: int) -> int:
    """Point count of a level, spread evenly over d-1 .. 2d-2."""
    return d - 1 + level * (d - 1) // (GLUED_PER_SLOT - 1)


def _check_verdict(view: maps.MapView, verdict: str, d: int):
    def check(outs):
        lines = outs[-1].splitlines()
        if verdict == "not_gb":
            if len(lines) == 1 and lines[0].startswith("not globally balanced"):
                return None
            return f"expected a global-balance rejection, got {lines}"
        if not lines or lines[0] != f"globally balanced, d={d}, g=0":
            return f"unexpected first line {lines[:1]}"
        if verdict == "lb":
            return None if lines[-1] == "locally balanced" else f"expected lb, got {lines}"
        # a certificate must be a region with no more A faces than B faces
        if len(lines) != 4 or not lines[3].startswith("certificate faces: "):
            return f"expected a certificate, got {lines}"
        colors = view.alternating_colors()
        if "(flipped coloring)" in lines[2]:
            colors = ["B" if c == "A" else "A" for c in colors]
        faces = json.loads(lines[3][len("certificate faces: "):])
        counts = view.region_balance(colors, faces)
        if counts is None:
            return f"certificate {faces} is not a region"
        if counts[0] > counts[1]:
            return f"certificate {faces} is positive: {counts}"
        return None

    return check


def _build_check_glued(rng: random.Random, lib) -> list[Op]:
    """Maps glued from pairings P (upper arcs) and Q (lower arcs) of one type.

    Each degree gets the same number of maps per verdict, so the three
    paths through ``check`` (global rejection, full enumeration, early
    certificate) weigh the same in every run, and each verdict has one map
    per point-count level.  One lb map per degree is the mirror graph
    (Q = P), balanced by theorem.
    """
    found = {}
    for d in GLUED_DEGREES:
        # slot[verdict][level] holds one map whose point count is that level's
        slot = {"not_gb": {}, "lb": {}, "not_lb": {}}
        level = rng.randrange(GLUED_PER_SLOT)
        a, p = _weight_type(rng, d, _glued_points(d, level))
        slot["lb"][level] = (a, p, p)
        for attempt in range(GLUED_ATTEMPTS):
            open_levels = [
                i for i in range(GLUED_PER_SLOT) if any(i not in v for v in slot.values())
            ]
            if not open_levels:
                break
            level = open_levels[attempt % len(open_levels)]
            a, p = _weight_type(rng, d, _glued_points(d, level))
            q = maps.random_pairing(rng, a)
            if q == p:
                continue
            alpha, sigma = maps.glued_map(a, p, q)
            if not maps.MapView(alpha, sigma).globally_balanced():
                slot["not_gb"].setdefault(level, (a, p, q))
            elif level not in slot["lb"] or level not in slot["not_lb"]:
                m = lib.CombinatorialMap(alpha, sigma)
                hall = lib.hall_check(lib.dot_graph(m, lib.alternating_coloring(m)))
                slot["lb" if hall.ok else "not_lb"].setdefault(level, (a, p, q))
        else:
            raise RuntimeError(f"could not fill the verdict quotas for d={d}")
        found[d] = slot
    ops = []
    # interleave degrees and verdicts so any prefix of the pool has the same mix
    for i in range(GLUED_PER_SLOT):
        for verdict in ("not_gb", "lb", "not_lb"):
            for d in GLUED_DEGREES:
                a, p, q = found[d][verdict][i]
                alpha, sigma = maps.glued_map(a, p, q)
                ops.append(
                    Op(
                        f"check/{verdict}" + ("/mirror" if p == q else ""),
                        (Step(("check", "--input", "-"), maps.map_document(alpha, sigma)),),
                        (0 if verdict == "lb" else 1,),
                        _check_verdict(maps.MapView(alpha, sigma), verdict, d),
                    )
                )
    return ops


# ---------------------------------------------------------- realize-roundtrip

ROUNDTRIP_DEGREES = range(5, 15)
ROUNDTRIP_SHARES = (3, 5)  # point counts, in sixths of the all-ones count 2d - 2
ROUNDTRIP_ROUNDS = 3  # chains per degree and share


def _check_roundtrip(n: int, d: int):
    def check(outs):
        mirror = json.loads(outs[0])
        if mirror["darts"] != 2 * n + 4 * (d - 1) or len(mirror["real_cycle"]) != n:
            return "mirror document has the wrong size"
        realized = outs[1].splitlines()
        if len(realized) != 2:
            return f"realize printed {len(realized)} lines"
        before = json.loads(realized[0])
        after = json.loads(outs[2])
        for key in ("darts", "alpha", "sigma"):
            if before[key] != after[key]:
                return f"pullback changed {key}"
        return None

    return check


def _build_realize_roundtrip(rng: random.Random, lib) -> list[Op]:
    """mirror -> realize -> pullback chains on pairings of mixed weight.

    Per degree, a point count near half and one near five sixths of the
    all-ones count; the enriched map's size depends only on d and the
    point count, so every seed does the same canonical-form work.
    """
    ops = []
    for d in _small_large(list(ROUNDTRIP_DEGREES) * ROUNDTRIP_ROUNDS):
        for share in ROUNDTRIP_SHARES:
            n = -(-share * (2 * d - 2) // 6)
            a, p = _weight_type(rng, d, n)
            ops.append(
                Op(
                    f"roundtrip/n{share}of6",
                    (
                        Step(("mirror", "--input", "-"), _pairing_document(a, p)),
                        Step(("realize", "--input", "-")),
                        Step(("pullback", "--input", "-"), line=1),
                    ),
                    (0, 0, 0),
                    _check_roundtrip(n, d),
                )
            )
    return ops


# ------------------------------------------------------- constellation-census

CENSUS_LARGE = ((32, 3), (32, 5), (48, 4), (64, 3), (64, 5), (96, 3), (96, 4), (128, 3))
CENSUS_SMALL = ((6, 3), (6, 4), (6, 5), (7, 3), (7, 4), (7, 5), (8, 3), (8, 4))
CENSUS_ROUNDS = 3  # each round has one constellation per slot and three invalid documents


def _check_pullback(d: int, types, representative: bool):
    def check(outs):
        if representative:
            rep = json.loads(outs[0])
            perms = [[x - 1 for x in p] for p in rep["perms"]]
            if rep["d"] != d or [maps.cycle_type(p) for p in perms] != list(types):
                return "class representative changed the cycle types"
        doc = json.loads(outs[-1])
        if doc["darts"] != 2 * d * len(types):
            return f"pullback has {doc['darts']} darts"
        genus = maps.MapView(doc["alpha"], doc["sigma"]).genus()
        if genus != maps.rh_genus(d, types):
            return f"pullback genus {genus} differs from Riemann-Hurwitz"
        if len(doc["colors"]) != 2 * d or doc["colors"].count("A") != d:
            return "pullback colors do not give d sheets"
        return None

    return check


def _check_rejected(outs):
    lines = outs[-1].splitlines()
    if len(lines) == 1 and lines[0].startswith("constellation failed verification"):
        return None
    return f"expected a verification failure, got {lines}"


def _check_silent(outs):
    return None if outs[-1] == "" else "malformed input produced output"


def _build_constellation_census(rng: random.Random, lib) -> list[Op]:
    """Random transitive constellations: large ones pulled back directly,
    small ones first reduced to their conjugacy-class representative, and
    a few invalid documents (verdict exit 1, malformed exit 2)."""
    ops = []
    for _ in range(CENSUS_ROUNDS):
        ops += _census_round(rng, lib)
    return ops


def _census_round(rng: random.Random, lib) -> list[Op]:
    mono = lib.monodromy

    def representative(text: str) -> str:
        c = mono.deserialize_constellation(text)
        return mono.serialize_constellation(mono.conjugation_canonical(c))

    large = []
    for d, m in _small_large(CENSUS_LARGE):
        perms = maps.random_constellation(rng, d, m)
        types = [maps.cycle_type(p) for p in perms]
        large.append(
            Op(
                "census/a-pullback",
                (Step(("pullback", "--input", "-"), maps.constellation_document(d, perms)),),
                (0,),
                _check_pullback(d, types, False),
            )
        )
    small = []
    for d, m in _small_large(CENSUS_SMALL):
        perms = maps.random_constellation(rng, d, m)
        types = [maps.cycle_type(p) for p in perms]
        small.append(
            Op(
                "census/b-class",
                (
                    Step(("conjugation_canonical",), maps.constellation_document(d, perms), representative),
                    Step(("pullback", "--input", "-")),
                ),
                (0, 0),
                _check_pullback(d, types, True),
            )
        )
    # invalid: one factor reversed (product not the identity), a disjoint
    # union of two constellations (intransitive), and letters for sheets
    d = rng.randint(5, 8)
    broken = maps.random_constellation(rng, d, 3)
    broken[1] = list(reversed(broken[1]))
    left = maps.random_constellation(rng, 3, 3)
    right = maps.random_constellation(rng, 4, 3)
    union = [lp + [x + 3 for x in rp] for lp, rp in zip(left, right)]
    k = rng.randint(2, 6)
    strings = json.dumps({"d": k, "perms": [[chr(97 + i) for i in range(k)]]})
    invalid = [
        Op("census/c-not-identity", (Step(("pullback", "--input", "-"), maps.constellation_document(d, broken)),), (1,), _check_rejected),
        Op("census/c-intransitive", (Step(("pullback", "--input", "-"), maps.constellation_document(7, union)),), (1,), _check_rejected),
        Op("census/c-malformed", (Step(("pullback", "--input", "-"), strings),), (2,), _check_silent, False),
    ]
    ops = []
    for i in range(len(large)):
        ops += [large[i], small[i]]
        if i % 3 == 1:
            ops.append(invalid[i // 3])
    return ops


# ---------------------------------------------------------------- real-census

# (d, points, K): weight types whose pairing count lies within a tenth of
# K, the median count of random types with that many points; enumeration
# time follows the count, so every seed asks for about the same work
REAL_SLOTS = (
    (6, 5, 3), (6, 7, 10), (6, 9, 28),
    (7, 6, 7), (7, 8, 24), (7, 10, 62),
    (8, 7, 18), (8, 9, 49), (8, 11, 145),
    (9, 8, 40), (9, 10, 124), (9, 12, 290),
)


def _check_count(k: int):
    def check(outs):
        lines = outs[-1].splitlines()
        if len(lines) != 1 or not lines[0].endswith(f" K={k}"):
            return f"count printed {lines}, expected K={k}"
        return None

    return check


def _check_listing(k: int):
    def check(outs):
        lines = outs[-1].splitlines()
        if len(lines) != k or len(set(lines)) != k:
            return f"{len(lines)} lines ({len(set(lines))} distinct), expected K={k}"
        return None

    return check


def _check_mirror(n: int, d: int):
    def check(outs):
        doc = json.loads(outs[-1])
        if doc["darts"] != 2 * n + 4 * (d - 1) or len(doc["real_cycle"]) != n:
            return "mirror document has the wrong size"
        view = maps.MapView(doc["alpha"], doc["sigma"])
        if view.genus() != 0 or not view.globally_balanced():
            return "mirror graph is not a planar globally balanced map"
        return None

    return check


def _check_svg(n: int):
    def check(outs):
        svg = outs[-1]
        if not svg.startswith("<svg") or svg.count("<circle") != n:
            return f"svg does not draw {n} points"
        return None

    return check


def _build_real_census(rng: random.Random, lib) -> list[Op]:
    """count, pairings, ssyt, mirror and svg export on seeded weight types,
    with a few malformed pairing documents sent to ``mirror``."""
    ops = []
    for d, n, target in REAL_SLOTS * 2:
        while True:
            a = maps.random_composition(rng, d, n)
            k = maps.pairing_count(a)
            if abs(k - target) <= max(1, target // 10):
                break
        p = maps.random_pairing(rng, a)
        weights = ("--d", str(d), "--a", ",".join(map(str, a)))
        mirror_doc = _pairing_document(a, p)
        m, coloring, real_cycle = lib.mirror_graph(
            lib.NonCrossingPairing(lib.WeightComposition(d, a), p)
        )
        map_doc = lib.serialize(m, coloring=coloring, real_cycle=real_cycle)
        ops += [
            Op("real/count", (Step(("count",) + weights),), (0,), _check_count(k)),
            Op("real/pairings", (Step(("pairings",) + weights),), (0,), _check_listing(k)),
            Op("real/ssyt", (Step(("ssyt",) + weights),), (0,), _check_listing(k)),
            Op("real/mirror", (Step(("mirror", "--input", "-"), mirror_doc),), (0,), _check_mirror(n, d)),
            Op("real/export-svg", (Step(("export", "--format", "svg", "--input", "-"), map_doc),), (0,), _check_svg(n)),
        ]
    n = rng.randint(2, 6)
    malformed = [
        json.dumps({"a": ["x"] + [1] * (n - 1), "arcs": [[1, 2]], "n": n}),
        json.dumps({"a": [1] * n, "arcs": [rng.randint(1, n)], "n": n}),
        json.dumps({"a": [1, 1, 1, 1], "arcs": [[1, 3], [2, 4]], "n": 4}),
    ]
    step = len(ops) // len(malformed)
    for i, doc in enumerate(reversed(malformed)):
        at = (len(malformed) - i) * step
        ops.insert(at, Op("real/mirror-malformed", (Step(("mirror", "--input", "-"), doc),), (2,), _check_silent, False))
    return ops


_POOLS = {
    "check-glued": _build_check_glued,
    "realize-roundtrip": _build_realize_roundtrip,
    "constellation-census": _build_constellation_census,
    "real-census": _build_real_census,
}
