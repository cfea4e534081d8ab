import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import balancedgraphs as bg
from helpers import build_gb_corpus, constellation_classes, map_from_rotations

FIXTURES = Path(__file__).parent / "fixtures"


def _cycles_to_perm(n, cycles):
    perm = list(range(n))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            perm[x] = cyc[(i + 1) % len(cyc)]
    return perm


@pytest.fixture
def cycle_map():
    """Two 2-valent vertices joined by two edges; the degree 1 pullback."""
    return bg.build_map(4, [1, 0, 3, 2], [2, 3, 0, 1])


@pytest.fixture
def b2():
    """Two 4-valent vertices, four parallel edges, four bigon faces."""
    sigma = _cycles_to_perm(8, [(0, 2, 4, 6), (7, 5, 3, 1)])
    return bg.build_map(8, [1, 0, 3, 2, 5, 4, 7, 6], sigma)


# frozen output of pulling back four transpositions in degree 2
T1_ALPHA = (1, 0, 4, 6, 2, 7, 3, 5, 10, 12, 8, 13, 9, 11, 15, 14)
T1_SIGMA = (2, 3, 5, 7, 8, 9, 10, 11, 12, 0, 13, 1, 14, 15, 4, 6)


@pytest.fixture
def t1():
    """Genus one map with four 4-valent vertices and four faces."""
    return bg.build_map(16, T1_ALPHA, T1_SIGMA)


@pytest.fixture
def tetrahedron():
    return map_from_rotations(
        [
            ["a", "b", "c"],
            ["a", "f", "d"],
            ["b", "d", "e"],
            ["c", "e", "f"],
        ]
    )


@pytest.fixture(scope="session")
def counterexample():
    """Globally balanced, not locally balanced; committed with certificate."""
    text = (FIXTURES / "counterexample_gb_not_lb.json").read_text()
    cert = json.loads((FIXTURES / "counterexample_certificate.json").read_text())
    doc = bg.deserialize(text)
    return doc.map, doc.colors, cert


@pytest.fixture(scope="session")
def gb_corpus():
    """All globally balanced maps within the stated valence and face caps."""
    return build_gb_corpus()


@pytest.fixture(scope="session")
def constellation_corpus():
    """All verified constellations with d <= 4, m <= 4, up to conjugation."""
    return constellation_classes()


@pytest.fixture
def mirror_1234():
    p = bg.NonCrossingPairing(
        bg.WeightComposition(3, (1, 1, 1, 1)), ((1, 2), (3, 4))
    )
    return p, *bg.mirror_graph(p)


@pytest.fixture
def open_real_cycle_documents(mirror_1234):
    """Planar map documents whose real cycle meets every vertex once but is
    not a closed walk: the edge of some dart does not end where the next
    dart starts."""
    _, m, coloring, (a, b, *rest) = mirror_1234
    return [
        '{"darts":4,"alpha":[1,0,3,2],"sigma":[0,3,1,2],"real_cycle":[0,3]}',
        bg.serialize(m, coloring=coloring, real_cycle=(b, a, *rest)),
    ]
