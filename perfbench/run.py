#!/usr/bin/env python3
"""Repository benchmark: explore seeded design lists end to end.

    python3 perfbench/run.py --workload verify-bound --seed 3 --seconds 15 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every run is
appended to ``perfbench/out/history.jsonl``; a traced run also writes
its spans to ``perfbench/out/``.

Exit codes: 0 when every design returned its committed optimum and
passed the audit, 1 otherwise, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from pools import BENCH_DIR, ROOT, WORKLOADS, Design, draw_list, load_json, rerun_list

OUT = BENCH_DIR / "out"

#: Wall time one pass over a workload's list takes on a 2-core Xeon (a
#: sweep-rerun pass is a cold and three warm sweeps). ``--seconds``
#: divided by it, rounded, fixes how many passes a run makes, so the
#: number of samples behind each figure never depends on host speed.
NOMINAL_PASS_S = {"cut-growth": 22.0, "verify-bound": 16.0, "sweep-rerun": 14.0}

#: A design fails when one exploration takes longer than this.
DESIGN_BUDGET_S = {"cut-growth": 90.0, "verify-bound": 20.0, "sweep-rerun": 60.0}

#: Fresh interpreters launched to measure set-up time; the median counts.
SETUP_LAUNCHES = 3

#: Warm passes per sweep-rerun cycle. One warm pass lasts about a
#: second; three of them, each from a copy of the cold pass's store,
#: keep warm_designs_per_s from resting on one short timing.
WARM_REPEATS = 3

#: Reference slices (see ``hostprobe.py``) before each design, or each
#: sweep pass: under 3% of a run's time.
PROBE_SLICES = {"cut-growth": 5, "verify-bound": 1, "sweep-rerun": 10}


#: The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, in
    the order ``BENCHMARK.json`` lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


class Tally:
    """Attempted and failed designs, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[Tuple[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, design: Design, reason: Optional[str]) -> bool:
        self.attempted += 1
        if reason is not None:
            self.failures.append((design.name, reason))
        return reason is None


def tail(samples: List[float], list_length: int) -> Tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` of the tail latency.

    The highest percentile that keeps ``TAIL_BEYOND`` samples beyond it,
    when one list is long enough for that to lie above the median;
    otherwise the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if list_length > 2 * TAIL_BEYOND:
        rank = n - TAIL_BEYOND - 1
        return ordered[rank], 100.0 * (rank + 1) / n, TAIL_BEYOND
    return statistics.median(ordered), 50.0, n // 2


def check_answer(design: Design, problem, status: str, cost, architecture, expected):
    """The failure reason for one design's answer, or ``None``."""
    from repro.explore.audit import audit_architecture

    if status != "optimal":
        return f"status {status}"
    want = expected[design.name]["cost"]
    if abs(cost - want) > 1e-6:
        return f"cost {cost} != expected {want}"
    if architecture is None:
        return "implementations differ from the committed optimum; no edges to audit"
    mapping_template, specification = problem
    if not audit_architecture(mapping_template, specification, architecture).holds:
        return "audit failed"
    return None


# -- single-process workloads ---------------------------------------------------


def in_child(work):
    """Run ``work()`` in a child forked from this process.

    Returns ``(work's JSON-able result, the child's peak RSS in MB)``.
    Each design runs in a child of its own, so no design inherits the
    heap another one left behind: run in one process, peak memory and
    timings depend on the order of the list.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            try:
                payload = json.dumps(work())
            except BaseException:
                payload = json.dumps({"reason": "raised " + traceback.format_exc(limit=8)})
            with os.fdopen(write_end, "w") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)
    os.close(write_end)
    try:
        with os.fdopen(read_end) as pipe:
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    if not payload:
        raise RuntimeError(f"design child ended with status {status} and no result")
    return json.loads(payload), usage.ru_maxrss / 1024.0


def explore_design(workload, index, design, expected, probe, recorder=None):
    """Reference slices, then one checked cold exploration with engine
    defaults, timed from ``ContrArcExplorer(...)`` to result."""
    from repro.explore.engine import ContrArcExplorer

    budget = DESIGN_BUDGET_S[workload]
    slices = [probe.slice() for _ in range(PROBE_SLICES[workload])]
    if recorder is not None:
        recorder.clear()  # this child's copy still holds the parent's spans
        recorder.design = index
    problem = design.build()
    span = recorder.begin("engine") if recorder is not None else None
    started = time.perf_counter()
    result = ContrArcExplorer(*problem, time_limit=budget).explore()
    wall = time.perf_counter() - started
    if recorder is not None:
        recorder.end(span)
        recorder.design = None
    reason = check_answer(
        design, problem, result.status.value, result.cost, result.architecture, expected
    )
    if reason is None and wall > budget:
        reason = f"over budget ({wall:.1f}s)"
    outcome = {
        "wall": wall,
        "reason": reason,
        "slices": slices,
        "counters": {
            "engine.iterations": result.stats.num_iterations,
            "certificates.cuts_installed": result.stats.total_cuts,
            "solver.rows_final": result.stats.final_milp_constraints,
        },
    }
    if recorder is not None:
        outcome["spans"] = recorder.spans
        outcome["counts"] = dict(recorder.counts)
    return outcome


def run_pass(workload, designs, probe, expected, tally, recorder=None):
    """Explore every design of the list, each in its own child."""
    outcomes = []
    for index, design in enumerate(designs):
        outcome, rss_mb = in_child(
            lambda: explore_design(workload, index, design, expected, probe, recorder)
        )
        outcome["rss_mb"] = rss_mb
        tally.record(design, outcome["reason"])
        probe.times.extend(outcome.get("slices", []))
        if recorder is not None and "spans" in outcome:
            recorder.merge(outcome["spans"], outcome["counts"])
        outcomes.append(outcome)
    return outcomes


def run_single(workload, designs, passes, probe, expected, tally) -> Dict[str, float]:
    outcomes = []
    for _ in range(passes):
        outcomes += run_pass(workload, designs, probe, expected, tally)
    walls = [o["wall"] for o in outcomes if "wall" in o]
    if not walls:
        raise SystemExit("no design finished")
    certified = sum(o["reason"] is None for o in outcomes)
    value, percentile, beyond = tail(walls, len(designs))
    rate = certified / sum(walls)
    return {
        "designs_per_s": rate,
        "design_p50_s": statistics.median(walls),
        "design_tail_s": value,
        # Engine defaults keep no cache across designs: a second pass
        # would start as cold as the first, so the warm rate is the cold one.
        "warm_designs_per_s": rate,
        "peak_rss_mb": max(o["rss_mb"] for o in outcomes),
        "_tail": f"p{percentile:.1f} with {beyond} samples beyond it",
        "_explore_wall_s": sum(walls),
    }


def trace_single(workload, designs, probe, expected, tally, spans_path):
    """One untraced and one traced pass; the per-layer metrics."""
    import layers

    untraced = run_single(workload, designs, 1, probe, expected, tally)
    recorder = layers.SpanRecorder()
    installed = layers.install(recorder)
    try:
        outcomes = run_pass(workload, designs, probe, expected, tally, recorder)
    finally:
        installed.remove()
    recorder.write(spans_path)

    counters = dict(recorder.counts)
    for outcome in outcomes:
        for key, value in outcome.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    own = recorder.self_times()
    emitted = counters.get("certificates.cuts_emitted", 0)
    sat = counters.get("refinement.sat_queries", 0)
    metrics = {
        "casestudies.build_s": recorder.total("casestudies"),
        "encoding.build_s": own.get("encoding", 0.0),
        "solver.solve_s": own.get("solver.solve", 0.0),
        "solver.matrix_s": own.get("solver.matrix", 0.0),
        "refinement.check_s": own.get("refinement", 0.0),
        "graph.embed_s": own.get("graph", 0.0),
        "certificates.self_s": own.get("certificates", 0.0),
        "engine.self_s": own.get("engine", 0.0),
        "refinement.sat_hit_frac": counters.get("refinement.sat_hits", 0) / sat if sat else 0.0,
        "certificates.install_frac": (
            counters["certificates.cuts_installed"] / emitted if emitted else 0.0
        ),
        "trace.overhead_frac": recorder.total("engine") / untraced["_explore_wall_s"] - 1.0,
    }
    return metrics, counters


# -- sweep-rerun ----------------------------------------------------------------


def store_bytes(cache: Path) -> int:
    return sum(
        path.stat().st_size
        for path in cache.parent.iterdir()
        if path.name.startswith(cache.name)
    )


def sweep_pass(designs, cache: Path, expected, tally):
    """One ``run_sweep`` over ``designs``; ``(wall_s, report, certified)``."""
    from repro.runtime.scheduler import Scheduler
    from repro.runtime.sweep import run_sweep

    specs = [design.job_spec() for design in designs]
    started = time.perf_counter()
    report = run_sweep(specs, scheduler=Scheduler(max_workers=1, cache_path=str(cache)))
    wall = time.perf_counter() - started
    certified = 0
    for design, result in zip(designs, report.results):
        reason = check_job(design, result, expected)
        if reason is None and result.duration > DESIGN_BUDGET_S["sweep-rerun"]:
            reason = f"over budget ({result.duration:.1f}s)"
        certified += tally.record(design, reason)
    return wall, report, certified


def check_job(design: Design, result, expected) -> Optional[str]:
    """Check a runtime record. It carries no edges, so the audit runs on
    the committed optimum's edges, once the job's implementations are
    found equal to the committed ones."""
    from repro.arch.architecture import CandidateArchitecture

    entry = expected[design.name]
    problem = design.build()
    architecture = None
    if result.selected == entry["selected"]:
        library = problem[0].library
        architecture = CandidateArchitecture(
            problem[0],
            [tuple(edge) for edge in entry["edges"]],
            {name: library.get(impl) for name, impl in result.selected.items()},
        )
    return check_answer(design, problem, result.status, result.cost, architecture, expected)


def sweep_cycle(seed, probe, expected, tally):
    """A cold pass into a fresh cache store, then ``WARM_REPEATS`` edited
    warm passes, each against its own copy of the store the cold pass
    left: ``{"cold": [pass], "warm": [pass, ...]}``."""
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
    try:
        stores = [workdir / "cold" / "oracle.db"]
        stores += [workdir / f"warm{i}" / "oracle.db" for i in range(WARM_REPEATS)]
        passes: Dict[str, list] = {"cold": [], "warm": []}
        for index, cache in enumerate(stores):
            cache.parent.mkdir()
            if index:
                for path in stores[0].parent.iterdir():
                    shutil.copy(path, cache.parent / path.name)
            label = "warm" if index else "cold"
            designs = rerun_list(seed) if index else draw_list("sweep-rerun", seed)
            for _ in range(PROBE_SLICES["sweep-rerun"]):
                probe.slice()
            wall, report, certified = sweep_pass(designs, cache, expected, tally)
            passes[label].append(
                {
                    "wall": wall,
                    "certified": certified,
                    "report": report,
                    "store_bytes": store_bytes(cache),
                }
            )
        return passes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_sweep_rerun(seed, passes, probe, expected, tally) -> Dict[str, float]:
    cycles = [sweep_cycle(seed, probe, expected, tally) for _ in range(passes)]
    durations = [
        result.duration
        for cycle in cycles
        for result in cycle["cold"][0]["report"].results
    ]
    # Jobs share the worker's oracle, so one job's time depends on which
    # jobs ran before it: a percentile over the 13 sub-second jobs moves
    # with the seed's order, their mean does not.
    mean_job_s = statistics.fmean(durations)

    def rate(label):
        done = [one for cycle in cycles for one in cycle[label]]
        return sum(one["certified"] for one in done) / sum(one["wall"] for one in done)

    return {
        "designs_per_s": rate("cold"),
        "design_p50_s": mean_job_s,
        "design_tail_s": mean_job_s,
        "warm_designs_per_s": rate("warm"),
        # The pool worker's peak depends on the job order (113-138 MB
        # across seeds); it is reported per layer, not here.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "_tail": f"mean cold job time over {len(durations)} jobs",
    }


def trace_sweep(seed, probe, expected, tally):
    """Per-layer figures of one cycle's cold and first warm pass, from
    ``JobResult``/``SweepReport`` fields and parent-side timing (no
    wrappers: jobs run in the worker)."""
    cycle = sweep_cycle(seed, probe, expected, tally)
    metrics: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    solve_s = refine_s = certificate_s = 0.0
    provenance: Dict[str, int] = {}
    iterations = cuts = rows = attempts = 0
    for label in ("cold", "warm"):
        report = cycle[label][0]["report"]
        totals = report.cache_totals
        job_s = report.total_job_time
        metrics[f"runtime.{label}.job_s"] = job_s
        metrics[f"runtime.{label}.overhead_s"] = cycle[label][0]["wall"] - job_s
        metrics[f"runtime.{label}.oracle_hit_frac"] = totals["hit_rate"]
        counters[f"runtime.{label}.oracle_hits"] = totals["hits"]
        counters[f"runtime.{label}.oracle_misses"] = totals["misses"]
        metrics[f"runtime.{label}.store_bytes"] = cycle[label][0]["store_bytes"]
        for result in report.results:
            stats = result.stats
            attempts += result.attempts - 1
            solve_s += stats.get("milp_time", 0.0)
            refine_s += stats.get("refinement_time", 0.0)
            certificate_s += stats.get("certificate_time", 0.0)
            iterations += stats.get("num_iterations", 0)
            cuts += stats.get("total_cuts", 0)
            rows += stats.get("final_milp_constraints", 0)
            for key, value in (stats.get("verification") or {}).items():
                provenance[key] = provenance.get(key, 0) + value
    metrics.update(
        {
            "runtime.worker_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            ),
            "solver.solve_s": solve_s,
            "refinement.check_s": refine_s,
            "certificates.self_s": certificate_s,
            "trace.overhead_frac": 0.0,
        }
    )
    counters.update(
        {
            "runtime.extra_attempts": attempts,
            "engine.iterations": iterations,
            "certificates.cuts_installed": cuts,
            "solver.rows_final": rows,
        }
    )
    for key, value in provenance.items():
        counters[f"refinement.{key}"] = value
    return metrics, counters


# -- set-up and output ----------------------------------------------------------


def measure_setup(workload: str, seed: int) -> Tuple[float, List[float]]:
    """Median set-up time over fresh interpreters (see ``setup_probe.py``)."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def collect_counters(workload: str, seed: int, probe=None, tally=None):
    """``(per-layer metrics, exact work counters, tally)`` of one traced run."""
    from hostprobe import HostProbe

    probe = probe or HostProbe()
    tally = tally or Tally()
    expected = load_json("expected.json")
    if workload == "sweep-rerun":
        metrics, counters = trace_sweep(seed, probe, expected, tally)
    else:
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        metrics, counters = trace_single(
            workload, draw_list(workload, seed), probe, expected, tally, spans
        )
    return metrics, counters, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hostprobe import HostProbe, append_history

    probe = HostProbe()
    tally = Tally()
    expected = load_json("expected.json")
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    if args.trace:
        layer, counters, _ = collect_counters(args.workload, args.seed, probe, tally)
        layer["host.ref_slice_s"] = probe.median()
        units = metric_units("per_layer")
        # A layer the workload does not reach reads 0.
        values = {name: float(layer.get(name, counters.get(name, 0))) for name in units}
        record["counters"] = counters
        committed = load_json("counters.json").get(args.workload, {})
        if committed.get("seed") == args.seed:
            same = committed["counters"] == counters
            print(f"work counters {'match' if same else 'differ from'} data/counters.json")
    else:
        if args.workload == "sweep-rerun":
            found = run_sweep_rerun(args.seed, passes, probe, expected, tally)
        else:
            designs = draw_list(args.workload, args.seed)
            found = run_single(args.workload, designs, passes, probe, expected, tally)
        found["setup_s"], record["setup_launches_s"] = measure_setup(
            args.workload, args.seed
        )
        units = metric_units("end_to_end")
        values = {name: found[name] for name in units}
        record.update(passes=passes, tail=found["_tail"], host_ref_slice_s=probe.median())
        print(
            f"design_tail_s: {found['_tail']}; passes: {passes}; "
            f"host.ref_slice_s: {probe.median():.6f}"
        )

    failed_frac = tally.failed / tally.attempted
    record.update(metrics=values, attempted=tally.attempted, failed=tally.failed,
                  failed_frac=failed_frac, failures=tally.failures)
    append_history(record)
    for name, reason in tally.failures:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    print(f"failed_frac: {failed_frac:.4f} ({tally.failed}/{tally.attempted})")
    for name, value in values.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
