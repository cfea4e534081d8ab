"""Command-line front end.

Subcommands: check, realize, pullback, count, pairings, ssyt, mirror,
export.  Exit codes: 0 for a positive verdict, 1 for a negative one
(not balanced, not realizable, unverifiable input), 2 for malformed
input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import balance, monodromy, real_combinatorics, render
from ._documents import read
from .errors import BalancedGraphsError, NotVerified, ParseError
from .surface_map import deserialize, serialize

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple([int(x) for x in text.split(",")])
    except ValueError as exc:
        raise ParseError(f"--a expects comma-separated integers, got {text!r}") from exc


def cmd_check(args) -> int:
    doc = deserialize(read(args.input))
    report = balance.is_locally_balanced(doc.map, doc.colors)
    if not report.globally_balanced:
        print(f"not globally balanced: {report.reason}")
        return EXIT_NEGATIVE
    print(f"globally balanced, d={report.d}, g={doc.map.genus()}")
    # a proper coloring given by the document is one of the two alternating
    # ones, so the degree it gives is the one corner_bound_check would find
    print(f"corner bound holds: {balance.corner_bound_holds(doc.map, report.d)}")
    if report.locally_balanced:
        print("locally balanced")
        return EXIT_OK
    region = report.violation
    which = "flipped coloring" if report.violation_on_flipped else "coloring"
    print(f"not locally balanced ({which}): {report.reason}")
    print(f"certificate faces: {list(region.sorted_faces())}")
    return EXIT_NEGATIVE


def cmd_realize(args) -> int:
    doc = deserialize(read(args.input))
    found = monodromy.realize(doc.map, doc.colors)
    if not found.ok:
        print(found.verdict)
        return EXIT_NEGATIVE
    print(serialize(found.map, labels=found.labeling.labels, coloring=found.coloring))
    print(monodromy.serialize_constellation(found.constellation))
    return EXIT_OK


def cmd_pullback(args) -> int:
    constellation = monodromy.deserialize_constellation(read(args.input))
    try:
        m, coloring, lab = monodromy.pullback_from_constellation(constellation)
    except NotVerified as exc:
        print(f"constellation failed verification: {exc}")
        return EXIT_NEGATIVE
    print(serialize(m, labels=lab.labels, coloring=coloring))
    return EXIT_OK


def _decimal(n: int) -> str:
    """The decimal digits of a count ``n >= 0``, of any size.

    CPython refuses to turn an int of more digits than
    ``sys.get_int_max_str_digits()`` (4,300 by default) into text.  Such a
    count is split at a power of ten into two halves, each turned into
    text the same way, so the interpreter's limit stays as it is.
    """
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of its digits
        high, low = divmod(n, 10**k)
        return _decimal(high) + _decimal(low).zfill(k)


def cmd_count(args) -> int:
    d = args.d
    if args.a is not None:
        weights = _parse_weights(args.a)
        t = real_combinatorics.WeightComposition(d, weights)
        print(f"a={','.join(map(str, weights))} K={_decimal(real_combinatorics.kostka(t))}")
        return EXIT_OK
    print(f"d={d} catalan={_decimal(real_combinatorics.catalan(d))}")
    for a in real_combinatorics.compositions(2 * d - 2, d - 1):
        if not 2 <= len(a) <= 2 * d - 2:
            continue
        t = real_combinatorics.WeightComposition(d, a)
        print(f"a={','.join(map(str, a))} K={_decimal(real_combinatorics.kostka(t))}")
    return EXIT_OK


def _composition_from_args(args) -> real_combinatorics.WeightComposition:
    weights = _parse_weights(args.a)
    return real_combinatorics.WeightComposition(args.d, weights)


def cmd_pairings(args) -> int:
    t = _composition_from_args(args)
    pairings = real_combinatorics.enumerate_pairings(t)
    sys.stdout.write(real_combinatorics.format_pairings(pairings))
    return EXIT_OK


def cmd_ssyt(args) -> int:
    t = _composition_from_args(args)
    tableaux = real_combinatorics.enumerate_ssyt(t)
    sys.stdout.write(real_combinatorics.format_tableaux(tableaux))
    return EXIT_OK


def cmd_mirror(args) -> int:
    pairing = real_combinatorics.deserialize_pairing(read(args.input))
    m, coloring, real_cycle = real_combinatorics.mirror_graph(pairing)
    print(serialize(m, coloring=coloring, real_cycle=real_cycle))
    return EXIT_OK


def cmd_export(args) -> int:
    doc = deserialize(read(args.input))
    if args.format == "dot":
        sys.stdout.write(render.to_dot(doc.map))
        return EXIT_OK
    sys.stdout.write(render.to_svg(doc.map, doc.real_cycle))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :func:`main`.

    Built on the first call and shared by every later one, so a process
    may call :func:`main` many times and builds its parser once; parsing
    leaves the parser as it was, so no state passes between calls.  Its
    ``commands`` attribute holds the parser of each subcommand by name.
    """
    parser = argparse.ArgumentParser(
        prog="balancedgraphs",
        description="Balance checks, covering realization, and pairing counts for cell graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p):
        p.add_argument("--input", default="-", help="input document path, - for stdin")
        return p

    p = with_input(sub.add_parser("check", help="balance verdict for a map document"))
    p.set_defaults(func=cmd_check)

    p = with_input(sub.add_parser("realize", help="enrich, label and extract monodromy"))
    p.set_defaults(func=cmd_realize)

    p = with_input(sub.add_parser("pullback", help="map document from a constellation"))
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("count", help="pairing counts per weight composition")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", help="comma-separated weights; omit to list all")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("pairings", help="enumerate non-crossing pairings")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True)
    p.set_defaults(func=cmd_pairings)

    p = sub.add_parser("ssyt", help="enumerate two-row tableaux")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", required=True)
    p.set_defaults(func=cmd_ssyt)

    p = with_input(sub.add_parser("mirror", help="mirror graph of a pairing document"))
    p.set_defaults(func=cmd_mirror)

    p = with_input(sub.add_parser("export", help="render a map document"))
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.set_defaults(func=cmd_export)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    """Run the subcommand named in ``argv`` (default ``sys.argv[1:]``) and
    return its exit code.

    When ``argv[0]`` names a subcommand, the rest of ``argv`` is parsed by
    that subcommand's parser alone: the full parser would hand it exactly
    those arguments, so this saves only the top-level parse.  The full
    parser parses the call when ``argv[0]`` names no subcommand
    (``--help``, no arguments, an unknown command) and when the
    subcommand's parser leaves arguments over, which only the full parser
    reports, under its own usage line.  Help and usage errors within the
    subcommand's arguments come from the subcommand's parser on either
    route, so stdout, stderr and the exit code are those of parsing every
    call with the full parser.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if sub is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BalancedGraphsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
