"""Benchmark of the ``balancedgraphs`` command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one call of ``balancedgraphs.cli.main(argv)`` (a
``realize-roundtrip`` chain is three) on a document generated from the
seed, with standard input and output swapped for in-memory streams.  One
process, one thread, one client: a closed loop that sends the next
operation when the previous one returns, cycling through the workload's
pool in whole passes for about ``--seconds``.  Outputs are checked after
the timed loop.

Operation times and ``setup_s`` are CPU time (user + system) of the
process doing the work: this one for operations, a fresh interpreter
importing the CLI for ``setup_s``.  An operation runs on one thread and
does no I/O or waiting, so its CPU time is its wall time on a core of its
own; on a shared virtual machine it leaves out the time the hypervisor
gives the core to another guest (steal time), which can move wall-clock
figures by tens of percent between identical runs.  The CPU time of the
same code still moves by up to a third from minute to minute there, so
each figure is scaled by the speed of the host at the time it was
measured: the fixed reference computation in ``calibrate.py`` runs after
every operation and before every set-up spawn, and times are given as if
that reference took ``calibrate.NOMINAL_S``.  Rates and percentiles count
each operation of the pool once, at the median of its runs.  The report
prints the raw CPU figures and the wall-clock rate beside the scaled ones.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the library is instrumented
from outside (see ``spans.py``) and the object holds per-layer metrics,
given per pass over the pool.  Lines before it are a readable report.
The exit code is 0 when every output check passed, 1 when one failed and
2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import workloads
from calibrate import NOMINAL_S, WINDOW, reference, scaled
from spans import METHODS, SPANNED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

OP_CAP_S = 30.0  # an operation running longer is stopped and counted as a timeout
SETUP_SPAWNS = 9

# per-layer metrics: (name, unit, better)
SELF_TIMES = tuple(f"{module}.{fn}" for module, fn in SPANNED) + tuple(
    dict.fromkeys(name for _, name in METHODS)
)
SPAN_CALLS = (
    "surface_map.canonical",
    "surface_map.map_init",
    "enrichment.hall_check",
    "labeling.verify_labeling",
    "monodromy.conjugation_canonical",
    "monodromy.verify_constellation",
    "real_combinatorics.kostka",
)
COUNTERS = (
    ("balance.region_from_faces.calls", "lower"),
    ("balance.regions_found", "lower"),
    ("balance.verdicts.not_gb", "higher"),
    ("balance.verdicts.lb", "higher"),
    ("balance.verdicts.not_lb", "higher"),
    ("surface_map.canonical.darts", "lower"),
    ("enrichment.dots", "lower"),
    ("enrichment.enrich.darts_added", "lower"),
    ("real_combinatorics.validate_pairing.calls", "lower"),
    ("cli.main.tracebacks", "lower"),
) + tuple(
    (f"{layer}.errors", "lower")
    for layer in (
        "cli", "surface_map", "balance", "enrichment", "labeling",
        "monodromy", "real_combinatorics", "render",
    )
)
PER_LAYER = (
    tuple((f"{name}.self_s", "s", "lower") for name in SELF_TIMES)
    + tuple((f"{name}.calls", "count", "lower") for name in SPAN_CALLS)
    + tuple((name, "count", better) for name, better in COUNTERS)
    + (
        ("balance.region_yield", "ratio", "higher"),
        ("harness.trace_overhead", "ratio", "lower"),
    )
)


class OpTimeout(BaseException):
    """Raised by the alarm handler inside an operation that ran past its cap."""


def _alarm(signum, frame):
    raise OpTimeout


class Runner:
    """Runs operations of one pool and keeps what the checks need."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.first: dict[int, tuple[str, list[str], int]] = {}  # item -> status, outputs, digest
        self.records: list[tuple[int, str, float, int]] = []  # item, status, CPU seconds, digest
        self.reference: list[float] = []  # CPU seconds of the reference after each record
        self.wall = 0.0  # wall-clock seconds spent inside operations

    def _invoke(self, step, stdin):
        """(exit code, stdout, escaped exception name or None) of one step."""
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                if step.call is not None:
                    out.write(step.call(stdin))
                    return 0, out.getvalue(), None
                return self.cli.main(list(step.argv)), out.getvalue(), None
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
            return code, out.getvalue(), None
        except Exception as exc:
            return None, out.getvalue(), type(exc).__name__
        finally:
            sys.stdin = saved

    def _run_op(self, op):
        outputs = []
        previous = None
        for step, want in zip(op.steps, op.expect):
            code, out, error = self._invoke(step, step.input_from(previous))
            outputs.append(out)
            if error is not None:
                return f"traceback:{error}", outputs
            if code != want:
                return f"exit:{code}", outputs
            previous = out
        return "ok", outputs

    def run(self, seconds: float, tracer: Tracer | None = None) -> float:
        """Closed loop over the pool in whole passes; returns the elapsed time.

        The loop runs at least one pass and stops after the pass that
        brings it nearest to ``seconds``.  The reference computation runs
        after every operation.
        """
        n = len(self.ops)
        start = perf_counter()
        i = 0
        while True:
            item = i % n
            if tracer is not None:
                tracer.current_op = len(self.records)
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            w0, t0 = perf_counter(), process_time()
            try:
                status, outputs = self._run_op(self.ops[item])
            except OpTimeout:
                status, outputs = "timeout", []
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = process_time() - t0
            self.wall += perf_counter() - w0
            digest = hash(tuple(outputs))
            self.records.append((item, status, dt, digest))
            self.first.setdefault(item, (status, outputs, digest))
            self.reference.append(reference())
            i += 1
            if status == "timeout":
                break
            if i % n == 0:
                elapsed = perf_counter() - start
                if elapsed + elapsed / (i // n) / 2 >= seconds:
                    break
        return perf_counter() - start

    def verify(self) -> tuple[dict[int, str], list[bool]]:
        """Check problems per item, and a failed flag per record.

        A record fails when an exception escaped, an exit code differed
        from the expected one, the item's output check failed, or its
        output differed from the item's first run.  An item fails when
        any of its records failed.
        """
        problems = {}
        for item, (status, outputs, _) in self.first.items():
            if status != "ok":
                continue
            try:
                problem = self.ops[item].check(outputs)
            except Exception as exc:  # a malformed output must not stop the harness
                problem = f"output check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                problems[item] = problem
        failed = []
        for item, status, _, digest in self.records:
            same = digest == self.first[item][2]
            if not same and item not in problems:
                problems[item] = "output differs between runs of the same input"
            failed.append(status != "ok" or not same or item in problems)
        return problems, failed


# run in a fresh interpreter: prints the CPU seconds of importing the CLI
IMPORT_TIMER = (
    "import time; start = time.process_time(); import balancedgraphs.cli; "
    "print(time.process_time() - start)"
)


def setup_seconds() -> tuple[float, float]:
    """Median CPU time of importing the CLI in a fresh interpreter, scaled
    and raw.

    The child times the import itself, so interpreter start-up, which
    the library cannot change, is left out.  Each spawn is scaled by the
    median of three reference runs made just before it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-c", IMPORT_TIMER]
    raw, scaled = [], []
    for i in range(SETUP_SPAWNS + 1):
        speed = statistics.median(reference() for _ in range(3))
        child = subprocess.run(
            command, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True
        )
        if i:  # the first spawn may still write bytecode caches
            seconds = float(child.stdout)
            raw.append(seconds)
            scaled.append(seconds * NOMINAL_S / speed)
    return statistics.median(scaled), statistics.median(raw)


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )


def _quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of the order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    density, integrated numerically over each statistic's share of [0, 1].
    Unlike a single order statistic it does not jump when operations of
    similar cost swap places around the percentile, which in a pool made
    of size classes happens at every class boundary.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cells = 64 * n
    weights = [0.0] * n
    for k in range(cells):
        u = (k + 0.5) / cells
        weights[k * n // cells] += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report(line: str) -> None:
    print(f"# {line}")


def _failed_items(runner: Runner, failed: list[bool]) -> set[int]:
    return {item for (item, _, _, _), bad in zip(runner.records, failed) if bad}


def _mix(runner: Runner, failed: list[bool]) -> None:
    kinds: dict[str, list[int]] = {}
    codes: dict[str, int] = {}
    for (item, status, _, _), bad in zip(runner.records, failed):
        entry = kinds.setdefault(runner.ops[item].kind, [0, 0])
        entry[0] += 1
        entry[1] += bad
        codes[status] = codes.get(status, 0) + 1
    for kind, (runs, bad) in sorted(kinds.items()):
        _report(f"mix {kind}: {runs} runs, {bad} failed")
    _report("outcomes: " + ", ".join(f"{k} {v}" for k, v in sorted(codes.items())))


def _figures(runner: Runner, seconds: list[float]) -> tuple[float, float, float]:
    """(operations per second, p50 s, p90 s) over the pool's operations,
    each taken at the median of its runs."""
    runs: dict[int, list[float]] = {}
    for (item, _, _, _), dt in zip(runner.records, seconds):
        runs.setdefault(item, []).append(dt)
    per_op = [statistics.median(v) for v in runs.values()]
    return len(per_op) / sum(per_op), _quantile(per_op, 0.5), _quantile(per_op, 0.9)


def _scaled_rate(runner: Runner) -> float:
    """Runs per second of scaled CPU time, over every run of the loop."""
    return len(runner.records) / sum(scaled([r[2] for r in runner.records], runner.reference))


def end_to_end(runner: Runner, elapsed: float, failed: list[bool], setup: tuple[float, float]) -> dict:
    """End-to-end metrics of the untraced run.

    Each operation's time is scaled by ``NOMINAL_S`` over the median of
    the reference times around it (see ``calibrate.scaled``).  Rates and
    latencies are then taken over the pool, each operation counting once
    at the median of its runs, so that noise in one run of an operation
    does not decide a percentile.  The report also gives the raw CPU
    figures and the wall-clock rate.  ``success_ratio`` counts operations
    of the pool, an operation failing when any of its runs failed, so it
    does not depend on how many passes fit into the run.
    """
    n = len(runner.ops)
    seconds = [dt for _, _, dt, _ in runner.records]
    rate, p50, p90 = _figures(runner, scaled(seconds, runner.reference))
    raw_rate, raw_p50, raw_p90 = _figures(runner, seconds)
    bad = len(_failed_items(runner, failed))
    metrics = {
        "ops_per_s": _metric(rate, "1/s"),
        "latency_p50_ms": _metric(p50 * 1000, "ms"),
        "latency_p90_ms": _metric(p90 * 1000, "ms"),
        "success_ratio": _metric((n - bad) / n, "ratio"),
        "setup_s": _metric(setup[0], "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    speeds = [NOMINAL_S / r for r in runner.reference]
    speeds = statistics.quantiles(speeds, n=4) if len(speeds) > 1 else speeds * 3
    _report(
        f"{len(seconds)} runs in {elapsed:.3f} s: {len(seconds) // n} complete passes over {n} operations; "
        f"each operation counts once below, at the median of its runs"
    )
    _report(
        f"host speed against the reference: quartiles {speeds[0]:.3f}, {speeds[1]:.3f}, {speeds[2]:.3f}; "
        f"times below are scaled by the reference runs within {WINDOW} operations, "
        f"raw CPU figures in brackets"
    )
    _report(f"ops_per_s {rate:.3f} 1/s ({raw_rate:.3f})")
    _report(
        f"wall clock: {len(seconds) / runner.wall:.3f} operations per second, "
        f"{runner.wall / sum(seconds):.3f} s of wall time per s of CPU time inside operations"
    )
    _report(
        f"latency p50 {p50 * 1000:.3f} ms ({raw_p50 * 1000:.3f}), "
        f"p90 {p90 * 1000:.3f} ms ({raw_p90 * 1000:.3f}) ({n} samples)"
    )
    _report(
        f"failed_ratio {bad / n:.4f} ({bad} of {n} operations; {sum(failed)} of {len(seconds)} runs); "
        f"success_ratio {metrics['success_ratio']['value']:.4f}"
    )
    _report(
        f"setup_s {setup[0]:.4f} s ({setup[1]:.4f}) (median CPU time of importing "
        f"balancedgraphs.cli in {SETUP_SPAWNS} fresh interpreters)"
    )
    _report(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB (whole benchmark process)")
    return metrics


def per_layer(runner: Runner, tracer: Tracer, passes: int, untraced_rate: float, traced_rate: float) -> dict:
    by_name, by_op, calls = tracer.self_times()
    counters = dict(tracer.counters)
    counters["cli.main.tracebacks"] = sum(
        1 for _, status, _, _ in runner.records if status.startswith("traceback")
    )
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".self_s"):
            value = by_name.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls") and name[: -len(".calls")] in SPAN_CALLS:
            value = calls.get(name[: -len(".calls")], 0)
        elif name == "balance.region_yield":
            tried = counters.get("balance.region_from_faces.calls", 0)
            value = counters.get("balance.regions_found", 0) / tried if tried else 0.0
            metrics[name] = _metric(value, unit)
            continue
        elif name == "harness.trace_overhead":
            metrics[name] = _metric(untraced_rate / traced_rate, unit)
            continue
        else:
            value = counters.get(name, 0)
        metrics[name] = _metric(value / passes, unit)
    _report(f"per-layer values are per pass over the pool; {passes} traced passes, {len(tracer.start)} spans")
    _report(
        f"tracing overhead: {untraced_rate:.3f} ops/s untraced, {traced_rate:.3f} ops/s traced "
        f"(ratio {untraced_rate / traced_rate:.2f})"
    )
    _report("wait time: none; one thread, one client and no queue, so no layer waits")
    kind_of_record = [runner.ops[item].kind for item, _, _, _ in runner.records]
    per_kind: dict[str, dict[str, float]] = {}
    for (op_index, name), seconds in by_op.items():
        if op_index >= 0:
            table = per_kind.setdefault(kind_of_record[op_index], {})
            table[name] = table.get(name, 0.0) + seconds
    for kind, table in sorted(per_kind.items()):
        top = sorted(table.items(), key=lambda kv: -kv[1])[:3]
        _report(f"top self time {kind}: " + ", ".join(f"{n} {s / passes:.4f} s" for n, s in top))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "balancedgraphs" / "cli.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import balancedgraphs
    import balancedgraphs.cli

    if not Path(balancedgraphs.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: balancedgraphs was imported from {balancedgraphs.__file__}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    ops = workloads.build(args.workload, args.seed, balancedgraphs)
    _report(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    _report(
        f"python {platform.python_version()}, nproc {os.cpu_count()} "
        f"(usable {len(os.sched_getaffinity(0))}), src lines {src_lines()}"
    )
    _report(f"inputs: {len(ops)} operations, sha256 {workloads.digest(ops)}")
    _report("closed loop: one process, one thread, one client")

    # A command-line call starts from a small heap.  Freezing what set-up
    # left keeps the collector from scanning the pool on every full
    # collection, which would add time to whichever operation it lands in.
    gc.collect()
    gc.freeze()
    runner = Runner(balancedgraphs.cli, ops)
    if args.trace:
        Runner(balancedgraphs.cli, ops).run(0)  # warm-up, so both timed loops start warm
        untraced = Runner(balancedgraphs.cli, ops)
        untraced.run(0)
        tracer = Tracer()
        tracer.install(balancedgraphs)
        try:
            runner.run(args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        passes = max(1, len(runner.records) // len(ops))
        metrics = per_layer(runner, tracer, passes, _scaled_rate(untraced), _scaled_rate(runner))
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.tsv.gz"
        tracer.write(spans)
        _report(f"spans written to {spans.relative_to(ROOT)}")
    else:
        setup = setup_seconds()
        elapsed = runner.run(args.seconds)

    problems, failed = runner.verify()
    _mix(runner, failed)
    if not args.trace:
        metrics = end_to_end(runner, elapsed, failed, setup)
    for item, problem in sorted(problems.items()):
        _report(f"CHECK FAILED {runner.ops[item].kind} (operation {item}): {problem}")
    well_formed_failures = sum(
        1 for (item, _, _, _), bad in zip(runner.records, failed) if bad and ops[item].well_formed
    )
    correct = not problems and not well_formed_failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(_failed_items(runner, failed)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
