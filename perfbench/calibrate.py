"""A fixed reference computation that measures how fast the host runs now.

On a shared virtual machine the CPU time of the same Python code moves by
tens of percent from one minute to the next, as other guests load the
core, its caches and its memory bus.  The benchmark runs ``reference``
after every operation and divides each operation's time by the reference
times around it, so that a slow minute slows both and cancels out.

The reference is the benchmark's own code on one fixed input: building a
glued map, its orbits, coloring, balance and genus, counting and sampling
pairings, and growing connected face sets and testing them as regions.
It is plain interpreted Python like the library, with the same mix of
list, dict and frozenset work, and it never calls the library, so a
change to the library cannot change it.  Alternating it with the four
workloads' operations for two minutes, windows of a few seconds gave
reference and operation times a log-log correlation of 0.93 to 0.97.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import process_time

import maps

# Reference time that scaled figures are expressed against: on a 2-vCPU
# x86-64 VM with CPython 3.11, ``reference()`` took 2 ms in its fast
# spells and 3.3 ms in its slow ones.
NOMINAL_S = 0.003
WINDOW = 4  # an operation is scaled by the median reference of itself and 4 on each side

_RNG = random.Random("reference")
_A = maps.random_composition(_RNG, 10, 14)
_UPPER = maps.random_pairing(_RNG, _A)
_LOWER = maps.random_pairing(_RNG, _A)
_VIEW = maps.MapView(*maps.glued_map(_A, _UPPER, _LOWER))
_COLORS = _VIEW.alternating_colors()
_NEIGHBOURS = {f: set() for f in range(len(_VIEW.faces))}
for _d, _e in _VIEW.edges:
    _NEIGHBOURS[_VIEW.face_of[_d]].add(_VIEW.face_of[_e])
    _NEIGHBOURS[_VIEW.face_of[_e]].add(_VIEW.face_of[_d])


def _face_sets() -> None:
    """Grow connected face sets to four faces and test some as regions."""
    seen = set()
    frontier = [frozenset([f]) for f in _NEIGHBOURS]
    for _ in range(3):
        grown = []
        for faces in frontier:
            for f in faces:
                for g in _NEIGHBOURS[f]:
                    if g not in faces:
                        bigger = faces | {g}
                        if bigger not in seen:
                            seen.add(bigger)
                            grown.append(bigger)
        frontier = grown
    for faces in frontier[:60]:
        _VIEW.region_balance(_COLORS, faces)


def reference() -> float:
    """CPU seconds of one run of the reference computation.

    The garbage collector is off while it runs, so that a collection
    owed to the operation before it is not charged to the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        for i in range(3):
            view = maps.MapView(*maps.glued_map(_A, _UPPER, _LOWER))
            view.globally_balanced()
            view.genus()
            maps.pairing_count(_A)
            maps.random_pairing(random.Random(i), _A)
        _face_sets()
        return process_time() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: list[float], references: list[float]) -> list[float]:
    """Each time scaled to a host on which the reference takes NOMINAL_S."""
    out = []
    for i, dt in enumerate(seconds):
        around = references[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(dt * NOMINAL_S / statistics.median(around))
    return out
