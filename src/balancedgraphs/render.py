"""Static DOT and SVG exports of maps."""

from __future__ import annotations

from .errors import UnsupportedFormat
from .surface_map import CombinatorialMap, real_cycle_order


def to_dot(m: CombinatorialMap) -> str:
    """Undirected DOT graph, one line per vertex and per edge."""
    lines = ["graph {"]
    for v in range(m.vertex_count):
        lines.append(f"  v{v};")
    vod = m.vertex_of_dart
    for d, e in m.edges:
        a, b = sorted((vod[d], vod[e]))
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def to_svg(m: CombinatorialMap, real_cycle) -> str:
    """Render a planar map with its real cycle on the horizontal axis.

    The vertices are spread along the x axis in real-cycle order; the real
    edge closing the cycle and the two halves of every doubled arc are
    drawn as semicircles above and below the axis, all in black, so the
    face colors play no part.  Positive-genus maps and maps without a real
    cycle are not supported, nor is a real cycle that is not a closed walk
    through every vertex once.
    """
    if m.genus() != 0:
        raise UnsupportedFormat("SVG export needs a planar map")
    if not real_cycle:
        raise UnsupportedFormat("SVG export needs a real cycle")
    real_cycle = tuple(real_cycle)
    order = real_cycle_order(m, real_cycle)
    if order is None:
        raise UnsupportedFormat(
            "the real cycle must be a closed walk through every vertex once"
        )
    vod = m.vertex_of_dart
    pos = {v: 60.0 * i for i, v in enumerate(order)}
    real_edges = {m.edge_of_dart[d] for d in real_cycle}

    # split the remaining edges into the two mirror halves: darts strictly
    # between the outgoing and incoming real darts at each vertex (in sigma
    # order) are on one side of the axis
    upper_darts = set()
    for i, d in enumerate(real_cycle):
        stop = m.alpha[real_cycle[i - 1]]
        d = m.sigma[d]
        while d != stop:
            upper_darts.add(d)
            d = m.sigma[d]

    n = len(order)
    width = 60.0 * (n - 1)
    radius_wrap = width / 2 + 30.0
    parts = []
    height = radius_wrap + 40.0
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(-40 - 0)} '
        f'{_fmt(-height)} {_fmt(width + 80)} {_fmt(2 * height)}">'
    )
    parts.append(
        f'<line x1="{_fmt(0)}" y1="0" x2="{_fmt(width)}" y2="0" stroke="black"/>'
    )

    wrap_edge = m.edge_of_dart[real_cycle[-1]]
    multiplicity: dict[tuple[int, int], int] = {}
    for i, (d, e) in enumerate(m.edges):
        u, w = vod[d], vod[e]
        if i in real_edges:
            if i == wrap_edge and n > 1:
                # the real edge closing the cycle, drawn as a big lower arc
                x1, x2 = sorted((pos[u], pos[w]))
                parts.append(
                    f'<path d="M {_fmt(x1)} 0 A {_fmt(radius_wrap)} '
                    f'{_fmt(radius_wrap)} 0 0 0 {_fmt(x2)} 0" '
                    'fill="none" stroke="black"/>'
                )
            continue
        up = d in upper_darts or e in upper_darts
        x1, x2 = sorted((pos[u], pos[w]))
        key = (min(u, w), max(u, w), up)
        bump = multiplicity.get(key, 0)
        multiplicity[key] = bump + 1
        r = (x2 - x1) / 2 + 8.0 * bump
        sweep = 1 if up else 0
        parts.append(
            f'<path d="M {_fmt(x1)} 0 A {_fmt(r)} {_fmt(r)} 0 0 {sweep} '
            f'{_fmt(x2)} 0" fill="none" stroke="black"/>'
        )
    for v in order:
        parts.append(
            f'<circle cx="{_fmt(pos[v])}" cy="0" r="3" fill="black"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
