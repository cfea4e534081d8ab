"""Span recorder that instruments the library from outside.

``Tracer.install`` replaces each listed public function, in every
``balancedgraphs`` module namespace that binds it, with a wrapper that
records a span (name, start, end, parent, operation id), timed in
process CPU time like the operations themselves.  Calls that go
through module globals, such as ``positive_regions`` calling
``region_from_faces``, or through names imported into ``cli``, are caught
the same way.  ``uninstall`` puts the originals back.  Spans stay in
memory in flat arrays until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import process_time

# (defining module, function) pairs wrapped as spans
SPANNED = (
    ("surface_map", "serialize"),
    ("surface_map", "deserialize"),
    ("surface_map", "alternating_coloring"),
    ("balance", "is_locally_balanced"),
    ("balance", "positive_regions"),
    ("balance", "is_globally_balanced"),
    ("balance", "corner_bound_check"),
    ("enrichment", "dot_graph"),
    ("enrichment", "hall_check"),
    ("enrichment", "perfect_matching"),
    ("enrichment", "enrich"),
    ("labeling", "admissible_labeling"),
    ("labeling", "verify_labeling"),
    ("labeling", "passport_of"),
    ("monodromy", "conjugation_canonical"),
    ("monodromy", "verify_constellation"),
    ("monodromy", "pullback_from_constellation"),
    ("monodromy", "constellation_from"),
    ("monodromy", "serialize_constellation"),
    ("monodromy", "deserialize_constellation"),
    ("real_combinatorics", "enumerate_pairings"),
    ("real_combinatorics", "enumerate_ssyt"),
    ("real_combinatorics", "kostka"),
    ("real_combinatorics", "mirror_graph"),
    ("real_combinatorics", "deserialize_pairing"),
    ("render", "to_svg"),
    ("cli", "main"),
    ("cli", "build_parser"),
)

# called so often that a span would dominate the call; only counted, so
# their time stays in the caller's self time
COUNTED = (
    ("balance", "region_from_faces"),
    ("real_combinatorics", "validate_pairing"),
)

# CombinatorialMap methods; the three canonical entry points share a span name
METHODS = (
    ("canonical", "surface_map.canonical"),
    ("canonical_dart_map", "surface_map.canonical"),
    ("canonical_key", "surface_map.canonical"),
    ("__init__", "surface_map.map_init"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self.current_op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn, after=None):
        nid = self._intern(name)
        module = name.split(".")[0]
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            parent = stack[-1] if stack else -1
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(process_time())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = process_time()
                stack.pop()
                if parent < 0 or tracer.names[tracer.name_id[parent]].split(".")[0] != module:
                    tracer.count(f"{module}.errors")
                raise
            tracer.end[idx] = process_time()
            stack.pop()
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(f"{name}.calls")
            result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- installation

    def install(self, package) -> None:
        """Wrap the functions of ``package`` (the imported ``balancedgraphs``)."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        replacements = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, fn_name in table:
                original = getattr(getattr(package, module_name), fn_name)
                name = f"{module_name}.{fn_name}"
                replacements[id(original)] = (original, make(name, original, _AFTER.get(name)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        cls = package.surface_map.CombinatorialMap
        for method, name in METHODS:
            original = cls.__dict__[method]
            wrapped = self._spanned(name, original)
            if method.startswith("canonical"):
                wrapped = _count_canonical_work(self, wrapped)
            self._restore.append((cls, method, original))
            setattr(cls, method, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis

    def self_times(self) -> tuple[dict[str, float], dict[tuple[int, str], float], dict[str, int]]:
        """Self time per span name and per (operation, name), calls per name.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one thread.
        """
        children = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                children[p] += self.end[i] - self.start[i]
        by_name: dict[str, float] = {}
        by_op: dict[tuple[int, str], float] = {}
        calls: dict[str, int] = {}
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            own = self.end[i] - self.start[i] - children[i]
            by_name[name] = by_name.get(name, 0.0) + own
            key = (self.op[i], name)
            by_op[key] = by_op.get(key, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
        return by_name, by_op, calls

    def write(self, path) -> None:
        """Dump every span as a tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def _count_canonical_work(tracer: Tracer, wrapped):
    """Count the darts of maps whose canonical form is actually computed.

    The library caches the form on the instance (``_canonical``); a call
    finding it there does no canonical-labeling work.
    """

    @functools.wraps(wrapped)
    def wrapper(self, *args, **kwargs):
        if "_canonical" not in vars(self):
            tracer.count("surface_map.canonical.darts", self.dart_count)
        return wrapped(self, *args, **kwargs)

    return wrapper


def _verdict(tracer, args, report):
    if not report.globally_balanced:
        tracer.count("balance.verdicts.not_gb")
    elif report.locally_balanced:
        tracer.count("balance.verdicts.lb")
    else:
        tracer.count("balance.verdicts.not_lb")


def _region(tracer, args, region):
    if region is not None:
        tracer.count("balance.regions_found")


def _dots(tracer, args, dg):
    tracer.count("enrichment.dots", len(dg.dots_a) + len(dg.dots_b))


def _darts_added(tracer, args, enriched):
    tracer.count("enrichment.enrich.darts_added", enriched.dart_count - args[0].dart_count)


_AFTER = {
    "balance.is_locally_balanced": _verdict,
    "balance.region_from_faces": _region,
    "enrichment.dot_graph": _dots,
    "enrichment.enrich": _darts_added,
}
