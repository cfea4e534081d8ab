"""Reading, parsing and dumping of the JSON documents the CLI exchanges.

Map, constellation and pairing documents share these rules: the text is
UTF-8, the document is a JSON object carrying every required field, and
an integer is a value of type exactly ``int``, the one integer test of
every reader, constructor and validator in the package (``type(x) is
int``), so booleans, floats, strings and int subclasses are rejected.
Each deserializer raises a package error on text that breaks them and
checks the invariants of its own kind.
"""

from __future__ import annotations

import json
import sys

from .errors import ParseError


def read(path: str) -> str:
    """Text of the file at ``path``, or of standard input for ``-``."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc


def load(text: str, kind: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in ``text``, which must carry every name in ``fields``."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers decode errors and over-long integer literals
        raise ParseError(f"not a valid document: {exc}") from exc
    if not isinstance(doc, dict) or not all(f in doc for f in fields):
        raise ParseError(f"{kind} document needs fields {', '.join(fields)}")
    return doc


def is_int_list(value, length: int | None = None) -> bool:
    """Whether ``value`` is a list of integers, of ``length`` items if given."""
    return (
        isinstance(value, list)
        and (length is None or len(value) == length)
        and all(type(x) is int for x in value)
    )


def dump(doc: dict) -> str:
    """The canonical text of ``doc``: sorted keys, no insignificant whitespace."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
