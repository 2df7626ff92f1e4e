#!/usr/bin/env python3
"""End-to-end benchmark of `planlab solve`, called in process through
planlab.cli.main with `--stats`.

Run from the repository root:

    python3 perfbench/run.py --workload mc-unary --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

One client, closed loop: each call starts when the previous one returned.
No threads or worker pools take part in the timed loop; the reference
verdicts are computed beforehand in one child process. Every call has the
same deadline (DEADLINE_S), enforced with SIGALRM in this process. The
host's speed is read between calls (hostspeed.py), and each call's time is
scaled to the host's reference speed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` one pass runs each item untraced and
then traced, and the JSON object holds the per-layer metrics. A wrong
verdict, an invalid plan (also one that planlab's own re-validation rejects
with an AssertionError), any other exception out of `cli.main`, or a counter
that differs between passes of one seed ends the run with exit code 1. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io as _io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("mc-unary", "steiner", "routed")
DEADLINE_S = 8.0
SETUP_REPEATS = 9
MIN_PASSES = 2
TAIL_BEYOND = 10

# Deterministic counters from `solve --stats`, under their per-layer names.
COUNTERS = {"visited_states": "oracle.visited_states",
            "search_tree_nodes": "postunique.tree_nodes",
            "dp_cells": "zerotwo.dp_cells",
            "assignments": "fomc.assignments"}


class DeadlineHit(BaseException):
    """Raised by SIGALRM at the per-call deadline. A BaseException, so that
    no `except Exception` inside planlab can swallow it."""


class BenchFailure(Exception):
    """A wrong verdict, an invalid plan, an exception out of `cli.main` or a
    non-deterministic counter."""


def _on_alarm(signum, frame):
    raise DeadlineHit()


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _compiled_kernels() -> List[str]:
    """Compiled modules beside their .py sources; they would shadow them."""
    kdir = SRC / "planlab" / "_kernels"
    return sorted(p.name for src in kdir.glob("*.py")
                  for p in kdir.glob(src.stem + ".*")
                  if p.suffix in (".so", ".pyd"))


def environment() -> Dict[str, object]:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "commit": _git_commit(),
            "compiled_kernels": _compiled_kernels()}


# ---------------------------------------------------------------------------
# One call and one pass
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    seconds: float
    status: str  # "ok", "deadline", "exit 2" or "exit 3"
    result: Optional[dict] = None


def solve(main, item) -> Outcome:
    """One call. The deadline and exit codes 2 and 3 are ordinary failures;
    any exception is a BenchFailure: `cmd_solve` raises AssertionError for a
    plan that fails its own re-validation, and main() maps every expected
    error to an exit code."""
    argv = ["solve", item.path, str(item.k), *item.solver_args, "--stats"]
    out, err = _io.StringIO(), _io.StringIO()
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineHit:
        return Outcome(time.perf_counter() - t0, "deadline")
    except (Exception, SystemExit) as exc:
        raise BenchFailure(f"{item.id} ({item.path} k={item.k}): cli.main "
                           f"raised {type(exc).__name__}: {exc}") from exc
    seconds = time.perf_counter() - t0
    if rc not in (0, 1):
        return Outcome(seconds, f"exit {rc}")
    return Outcome(seconds, "ok", json.loads(out.getvalue()))


def check(core, references, item, outcome: Outcome, expected: bool) -> None:
    """Raise BenchFailure unless the answer matches the reference and any
    plan re-validates within the bound."""
    res = outcome.result
    where = f"{item.id} ({item.path} k={item.k})"
    if references.ROUTE_OF.get(item.reference[0]) == res["solver"]:
        raise BenchFailure(f"{where}: reference route {item.reference[0]} "
                           "also answered the call")
    if res["solvable"] != expected:
        raise BenchFailure(f"{where}: {res['solver']} says solvable="
                           f"{res['solvable']}, reference "
                           f"{item.reference[0]} says {expected}")
    if res["solvable"]:
        plan = tuple(item.instance.action_id(name) for name in res["plan"])
        if not core.validate_plan(item.instance, plan).valid:
            raise BenchFailure(f"{where}: returned plan does not validate")
        if len(plan) > item.k:
            raise BenchFailure(f"{where}: plan length {len(plan)} > k")
    elif res["plan"] is not None:
        raise BenchFailure(f"{where}: plan returned for an unsolvable call")


@dataclass
class Pass:
    """One call per corpus item, in corpus order."""
    seconds: List[float] = field(default_factory=list)  # failed calls too
    # The same calls' times at the host's reference speed, and the host
    # speed readings they were scaled by (run_pass only).
    scaled: List[float] = field(default_factory=list)
    factors: List[float] = field(default_factory=list)
    status: List[str] = field(default_factory=list)
    counters: Dict[str, int] = field(
        default_factory=lambda: {c: 0 for c in COUNTERS})

    @property
    def instances_per_s(self) -> float:
        return self.status.count("ok") / sum(self.seconds)


def call(planlab, refs, item, main, into: Pass) -> None:
    _, core, references = planlab
    outcome = solve(main, item)
    into.seconds.append(outcome.seconds)
    into.status.append(outcome.status)
    if outcome.status == "ok":
        check(core, references, item, outcome, refs[references.key(item)])
        for c in COUNTERS:
            into.counters[c] += outcome.result["stats"].get(c, 0)


def run_pass(planlab, items, refs) -> Pass:
    """Reads the host's speed between calls and scales each call's time by
    the mean of the readings before and after it."""
    p = Pass()
    p.factors.append(hostspeed.factor())
    for item in items:
        call(planlab, refs, item, planlab[0].main, p)
        p.factors.append(hostspeed.factor())
        p.scaled.append(hostspeed.scale(p.seconds[-1], *p.factors[-2:]))
    return p


def run_paired_pass(planlab, items, refs, tracer) -> Tuple[Pass, Pass]:
    """Each item untraced, then traced: the pairs share the machine's state,
    so their difference is the tracing overhead and not drift."""
    cli = planlab[0]
    untraced, traced = Pass(), Pass()
    for item in items:
        call(planlab, refs, item, cli.main, untraced)
        tracer.instance = item.id
        tracer.install()
        try:
            call(planlab, refs, item, tracer.span("cli.main", cli.main),
                 traced)
        finally:
            tracer.uninstall()
    return untraced, traced


def same_counters(passes: List[Pass]) -> None:
    first = passes[0].counters
    for i, p in enumerate(passes[1:], start=2):
        if p.counters != first:
            raise BenchFailure(f"counters of pass {i} {p.counters} differ "
                               f"from pass 1 {first}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_level(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    beyond it."""
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def percentile(values: List[float], q: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(0, math.ceil(q / 100 * len(xs)) - 1)]


def end_to_end(passes: List[Pass], setup_s: float) -> Tuple[dict, str]:
    """Each item's time is the median of its successful calls' scaled times
    in the run's passes (of all its calls, if none succeeded)."""
    times, ok_ms = [], []
    for i in range(len(passes[0].status)):
        good = [p.scaled[i] for p in passes if p.status[i] == "ok"]
        times.append(statistics.median(good or [p.scaled[i]
                                                for p in passes]))
        if good:
            ok_ms.append(times[-1] * 1e3)
    q = tail_level(len(ok_ms))
    tail = percentile(ok_ms, q)
    metrics = {
        "instances_per_s": len(ok_ms) / sum(times),
        "solve_p50_ms": statistics.median(ok_ms),
        "solve_tail_ms": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    factors = [f for p in passes for f in p.factors]
    q1, q2, q3 = statistics.quantiles(factors, n=4)
    note = (f"solve_tail_ms is p{q} of {len(ok_ms)} instances, each the "
            f"median of {len(passes)} passes; "
            f"{sum(1 for ms in ok_ms if ms > tail)} beyond it\n"
            f"host speed: the kernel took {q2:.3f}x its reference time "
            f"(median of {len(factors)} readings; quartiles {q1:.3f}x and "
            f"{q3:.3f}x)")
    return metrics, note


def per_layer(spans, tracer, pass_spans: int, untraced: Pass, traced: Pass,
              family_ms: Dict[str, float], probe_failures: int,
              families) -> dict:
    """Per-layer metrics of the traced pass; the probes after it count
    only towards the deadline hits and known failures."""
    recs = tracer.spans[:pass_spans]
    s = spans.summarize(recs)
    get = lambda name: s.get(name, 0.0)  # noqa: E731
    assignments = sum(spans.values(recs, "fomc.eval", "assignments"))
    visited = sum(spans.values(recs, "oracle.bfs", "visited"))
    terminals = spans.values(recs, "zerotwo.dst_build", "terminals")
    universe = spans.values(recs, "fomc.structure", "universe")
    minimal = sum(spans.values(recs, "postunique.search", "minimal"))
    found = get("postunique.minimality_calls")
    deadline_hits = sum(1 for rec in tracer.spans
                        if rec[spans.NAME] == "postunique.search"
                        and rec[spans.ERROR] == "DeadlineHit")
    ips, traced_ips = untraced.instances_per_s, traced.instances_per_s
    m = {
        "cli.argparse_ms": get("cli.argparse_ms"),
        "io.parse_ms": get("io.parse_ms"),
        "core.classify_ms": get("core.classify_ms"),
        "core.validate_ms": get("core.validate_ms"),
        "core.validate_calls": get("core.validate_calls"),
        "oracle.bfs_ms": get("oracle.bfs_ms"),
        "oracle.states_per_s": (visited / get("oracle.bfs_ms") * 1e3
                                if visited else 0.0),
        "postunique.search_ms": get("postunique.search_ms"),
        "postunique.minimality_ms": get("postunique.minimality_ms"),
        "postunique.minimal_ratio": minimal / found if found else 0.0,
        "postunique.deadline_hits": deadline_hits,
        "zerotwo.transform_ms": get("zerotwo.transform_ms"),
        "zerotwo.dst_build_ms": get("zerotwo.dst_build_ms"),
        "zerotwo.dw_ms": get("zerotwo.dw_ms"),
        "zerotwo.extract_ms": get("zerotwo.extract_ms"),
        "zerotwo.terminals": statistics.mean(terminals) if terminals else 0.0,
        "fomc.structure_ms": get("fomc.structure_ms"),
        "fomc.formula_ms": get("fomc.formula_ms"),
        "fomc.compile_ms": get("fomc.compile_ms"),
        "fomc.eval_ms": get("fomc.eval_ms"),
        "fomc.assignments_per_s": (assignments / get("fomc.eval_ms") * 1e3
                                   if assignments else 0.0),
        "fomc.universe_size": statistics.mean(universe) if universe else 0.0,
    }
    m.update({COUNTERS[c]: v for c, v in untraced.counters.items()})
    m.update({f"{layer}.self_ms": get(f"{layer}.self_ms")
              for layer in spans.LAYERS})
    m.update({f"generators.{f}_ms": family_ms.get(f, 0.0) for f in families})
    m.update({
        "trace.untraced_instances_per_s": ips,
        "trace.traced_instances_per_s": traced_ips,
        "trace.overhead_pct": (ips - traced_ips) / ips * 100,
        "trace.spans": len(tracer.spans),
        "trace.missing_spans": len(tracer.missing),
        "probe.known_failures": probe_failures,
    })
    return m


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def declared(kind: str) -> Dict[str, str]:
    """Unit of every metric BENCHMARK.json declares under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: Dict[str, str]) -> None:
    if set(metrics) != set(units):
        raise KeyError(f"measured {sorted(set(metrics) ^ set(units))} "
                       "differ from the metrics BENCHMARK.json declares")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]}
                                  for n, v in metrics.items()}}))


def import_planlab():
    """Import planlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    from planlab import cli, core  # noqa: F401  (cli imports every route)
    import planlab
    if Path(planlab.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"planlab came from {planlab.__file__}, "
                          f"not from {SRC}")
    return cli, core


IMPORT_TIMER = """import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
before = hostspeed.factor()
t0 = time.perf_counter()
from planlab import cli
seconds = time.perf_counter() - t0
print(hostspeed.scale(seconds, before, hostspeed.factor()))
"""


def import_seconds() -> float:
    """Seconds to import planlab (cli imports every route) in a fresh
    interpreter, as `planlab solve` does on every start, at the host's
    reference speed."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC),
                           str(Path(__file__).resolve().parent)],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout)


def run_workload(args) -> int:
    env = environment()
    print("environment: " + json.dumps(env))
    try:
        cli, core = import_planlab()
    except ImportError as exc:
        print(f"cannot import planlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import references
    import spans
    import workloads

    outdir = OUT / f"{args.workload}-s{args.seed}"
    # Drawing the corpus runs the oracle on candidates to fix some strata's
    # verdicts and sizes; it is not part of set-up, only the generator calls
    # and the writing of the files are.
    selection = workloads.select(args.workload, args.seed)
    import_times, build_times, per_family = [], [], {}
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        before = hostspeed.factor()
        t0 = time.perf_counter()
        items, family_ms = workloads.build(selection, str(outdir / "corpus"))
        seconds = time.perf_counter() - t0
        build_times.append(hostspeed.scale(seconds, before,
                                           hostspeed.factor()))
        for f, ms in family_ms.items():
            per_family.setdefault(f, []).append(ms)
    setup_s = statistics.median(import_times) + statistics.median(build_times)
    family_ms = {f: statistics.median(v) for f, v in per_family.items()}

    t0 = time.perf_counter()
    refs = references.compute(items)
    print(f"corpus: {len(items)} calls, {len(refs)} reference verdicts in "
          f"{time.perf_counter() - t0:.1f} s")

    signal.signal(signal.SIGALRM, _on_alarm)
    planlab = (cli, core, references)
    attempted = failed = 0
    try:
        warm: Dict[tuple, object] = {}
        for item in items:
            warm.setdefault(item.solver_args, item)
        run_pass(planlab, list(warm.values()), refs)
        # The corpus and the benchmark's own objects would not exist in a
        # `planlab solve` process; keep the collector from scanning them.
        gc.collect()
        gc.freeze()
        if args.trace:
            tracer = spans.Tracer()
            passes = list(run_paired_pass(planlab, items, refs, tracer))
            pass_spans = len(tracer.spans)
            probe_failures = 0
            if args.workload == "routed":
                probe_failures = run_probes(planlab, tracer,
                                            outdir / "probes")
            for name in sorted(tracer.missing):
                print(f"missing span: {name}")
        else:
            passes, last = [], 0.0
            start = time.perf_counter()
            while len(passes) < MIN_PASSES or (
                    time.perf_counter() - start + last <= args.seconds):
                t0 = time.perf_counter()
                passes.append(run_pass(planlab, items, refs))
                last = time.perf_counter() - t0
        same_counters(passes)
    except BenchFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    attempted = sum(len(p.status) for p in passes)
    failed = sum(len(p.status) - p.status.count("ok") for p in passes)
    for item_id, status in sorted({(items[i].id, st) for p in passes
                                   for i, st in enumerate(p.status)
                                   if st != "ok"}):
        print(f"failure: {item_id}: {status}")
    print("counters: " + json.dumps({COUNTERS[c]: v for c, v
                                     in passes[0].counters.items()}))

    if args.trace:
        tracer.write(str(outdir / "spans.jsonl"))
        metrics = per_layer(spans, tracer, pass_spans, passes[0], passes[1],
                            family_ms, probe_failures, workloads.FAMILIES)
        units = declared("per_layer")
    else:
        metrics, note = end_to_end(passes, setup_s)
        print(note)
        units = declared("end_to_end")
    emit(True, attempted, failed, metrics, units)
    return 0


def run_probes(planlab, tracer, outdir: Path) -> int:
    """Known baseline failures of `--solver auto`, traced; a probe that
    answers is checked like any other call."""
    import references
    import workloads
    cli, core, _ = planlab
    failures = 0
    for item in workloads.probes(str(outdir)):
        tracer.instance = item.id
        tracer.install()
        try:
            outcome = solve(tracer.span("cli.main", cli.main), item)
        finally:
            tracer.uninstall()
        print(f"probe {item.id}: {outcome.status} after "
              f"{outcome.seconds:.2f} s")
        if outcome.status != "ok":
            failures += 1
            continue
        expected = references.compute([item])[references.key(item)]
        check(core, references, item, outcome, expected)
    return failures


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS. The
    workloads share the `--seconds` budget equally."""
    combined, correct, attempted, failed = {}, True, 0, 0
    seconds = args.seconds / len(WORKLOADS)
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, metric in res["metrics"].items():
            combined[f"{workload}/{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
