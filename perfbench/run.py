"""Wall-clock benchmark of the runtime and its self-checks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pt2pt_self --seed 1 \\
        --seconds 20 --trace 0

Workloads (``workloads.py`` says why each was chosen): ``pt2pt_self``,
``pingpong_wild``, ``allreduce_large`` and ``static_check``.

``--trace 0`` measures the end-to-end metrics with the program exactly
as shipped: several set-ups (the median is ``setup_s``), then one timed
phase of ``--seconds``.  ``--trace 1`` runs half the seconds untraced
and half with the layer boundaries of ``layers.py`` wrapped, and
reports the per-layer metrics and the tracing overhead; on
``pt2pt_self`` it also times the five Figure-2 builds, untraced, and on
``static_check`` it traces one in-process check.  Spans are written to
``.perfbench/`` when the run ends.

The process pins itself to one CPU and records which, with the seed,
``nproc``, the Python and numpy versions, the load average and a fixed
pure-Python reference loop timed at the start and the end of the run,
so host drift can be seen.  The reference loop never scales a metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status 2
means the checkout has no ``repro`` source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per untraced run; the median is setup_s.  A static_check
#: set-up is a whole cold check (about 5 s), so it takes fewer.
SETUP_REPEATS = {"static_check": 3}
DEFAULT_SETUP_REPEATS = 5
#: Completed ops per window for latency_p50_us and latency_p99_us, so
#: the 99th percentile of a window has ten samples beyond it.
WINDOW_OPS = 1000
#: Fewer windows than this and the phase is taken as one window.
MIN_WINDOWS = 10
#: Iterations of the host reference loop.
REF_LOOP_N = 1_000_000
#: Ops of the traced CH3 (original build) block on pt2pt_self.
CH3_TRACED_OPS = 2000

#: End-to-end metric name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    """The command line."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ref_loop_ms() -> float:
    """Milliseconds of a fixed pure-Python loop: the host's speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc = (acc + i * i) & 0xFFFF
    return (perf_counter() - t0) * 1e3


def windowed(phase) -> tuple[float, float, int]:
    """``(p50 seconds, p99 seconds, windows)`` over consecutive windows
    of WINDOW_OPS completed ops.

    The host's speed comes in spells, and the latency distribution of
    a run mixes one mode per spell, so the median of a whole run jumps
    between modes as the share of slow spells changes.  The p50 is
    therefore each window's median, averaged over the windows, which
    moves smoothly with that share.  The p99 is the median of the
    windows' 99th percentiles, so a burst of load moves a few windows
    rather than the result.  With fewer than MIN_WINDOWS windows the
    phase is taken as one window."""
    lat = phase.latencies
    n = len(lat) // WINDOW_OPS
    if n < MIN_WINDOWS:
        return float(np.median(lat)), float(np.percentile(lat, 99)), 1
    windows = lat[:n * WINDOW_OPS].reshape(n, WINDOW_OPS)
    return (float(np.median(windows, axis=1).mean()),
            float(np.median(np.percentile(windows, 99, axis=1))), n)


def peak_rss_mb(who: int) -> float:
    """Peak resident memory in MiB of this process
    (``RUSAGE_SELF``) or of its largest finished child
    (``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def counter_delta(before: dict, after: dict) -> dict:
    """Counter movement between two readings."""
    return {k: after[k] - before.get(k, 0) for k in after}


def untraced(work, args, report: list[str]) -> tuple[dict, list]:
    """The end-to-end metrics: set-ups, then one timed phase."""
    static = args.workload == workloads.StaticCheck.name
    repeats = SETUP_REPEATS.get(args.workload, DEFAULT_SETUP_REPEATS)
    setup = work.setup(repeats)
    phase = work.run(args.seconds)
    if not len(phase.latencies):
        raise RuntimeError(f"no op completed: {phase.error}")
    # Every op's latency and completion time, for looking at the
    # distribution behind the summary metrics.
    np.savez(OUT_DIR / f"{args.workload}-seed{args.seed}-ops.npz",
             latency_s=phase.latencies, end_s=phase.ends)
    p50, p99, n_windows = windowed(phase)
    n = len(phase.latencies)
    metrics = {
        "ops_per_s": n / phase.elapsed_s,
        "latency_p50_us": p50 * 1e6,
        "latency_p99_us": p99 * 1e6,
        "setup_s": statistics.median(setup.total_s),
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN if static
                                   else resource.RUSAGE_SELF),
    }
    report.append(f"timed ops: {phase.attempted} in {phase.elapsed_s:.3f} s;"
                  f" latency samples: {n}; windows of {WINDOW_OPS} ops for "
                  f"p50 and p99: {n_windows}; set-up samples: "
                  f"{len(setup.total_s)}")
    beyond = int(n * 0.01)
    if n_windows == 1 and beyond < 10:
        report.append(f"latency_p99_us: only {beyond} of {n} samples lie "
                      "beyond the 99th percentile; it is close to the "
                      "slowest op")
    return metrics, [phase]


def traced_runtime(work, args, report: list[str]) -> tuple[dict, list]:
    """Per-layer metrics of a runtime workload."""
    from layers import UNITS, install_runtime, runtime_metrics
    from spantrace import Tracer

    setup = work.setup(3)
    plain = work.run(args.seconds / 2)
    tracer = Tracer()
    install_runtime(tracer)
    before = work.counters()
    try:
        traced = work.run(args.seconds / 2, tracer)
    finally:
        tracer.remove()
    after = work.counters()
    spans = tracer.spans()
    phases = [plain, traced]
    ch3_spans, ch3_ops = None, 0
    if args.workload == "pt2pt_self":
        # CH3 is reached only by the original build: trace one block
        # of the same op there.
        from repro.core.config import BuildConfig
        ch3_tracer = Tracer()
        install_runtime(ch3_tracer)
        try:
            ch3 = work.drive(work.new_world(BuildConfig.original()),
                             CH3_TRACED_OPS, float("inf"), ch3_tracer)
        finally:
            ch3_tracer.remove()
        ch3_spans, ch3_ops = ch3_tracer.spans(), ch3.attempted
        phases.append(ch3)
    metrics = dict.fromkeys(UNITS, 0.0)
    metrics.update(runtime_metrics(
        spans, tracer.counts(), counter_delta(before, after),
        traced.attempted, ch3_spans, ch3_ops))
    metrics["world.construct_s"] = statistics.median(setup.construct_s)
    metrics["world.first_run_s"] = statistics.median(setup.first_run_s)
    metrics["trace.overhead_ratio"] = (
        (traced.attempted / traced.elapsed_s)
        / (plain.attempted / plain.elapsed_s))
    if args.workload == "allreduce_large":
        metrics["reduceops.floor_us_per_op"] = work.floor_seconds() * 1e6
    if args.workload == "pt2pt_self":
        builds = work.build_report(args.seconds / 2)
        for label, rec in builds.items():
            metrics[f"build.{label}.p50_us"] = \
                float(np.median(rec["lat"])) * 1e6
            metrics[f"build.{label}.instructions_per_op"] = \
                rec["instructions_per_op"]
        report.extend(build_report(builds))
        phases.extend(workloads.Phase(attempted=r["ops"], failed=r["failed"],
                                      error=r["error"])
                      for r in builds.values())
    report.append(f"untraced ops: {plain.attempted} in "
                  f"{plain.elapsed_s:.3f} s; traced ops: {traced.attempted}"
                  f" in {traced.elapsed_s:.3f} s; spans: {len(spans)}")
    spans.save(OUT_DIR / f"{args.workload}-spans.npz")
    return metrics, phases


def traced_check(work, args, report: list[str]) -> tuple[dict, list]:
    """Per-layer metrics of static_check: one traced in-process check
    (the first in this process, so no in-process cache is warm), then
    one untraced for the tracing overhead."""
    from layers import UNITS, check_metrics, install_check
    from spantrace import Tracer

    metrics = dict.fromkeys(UNITS, 0.0)
    t0 = perf_counter()
    from repro.check.cli import run_check
    metrics["check.import_s"] = perf_counter() - t0

    def one(tracer=None) -> workloads.Phase:
        phase = workloads.Phase(attempted=1)
        if tracer is not None:
            tracer.set_op(0)
        t0 = perf_counter()
        try:
            code, snapshot, _ = run_check([])
            ok = work.matches(code, snapshot)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            ok, phase.error = False, f"{type(exc).__name__}: {exc}"
        phase.elapsed_s = perf_counter() - t0
        phase.failed = int(not ok)
        return phase

    tracer = Tracer()
    install_check(tracer)
    try:
        traced = one(tracer)
    finally:
        tracer.remove()
    plain = one()
    spans = tracer.spans()
    metrics.update(check_metrics(spans, tracer.counts(), traced.attempted))
    metrics["trace.overhead_ratio"] = plain.elapsed_s / traced.elapsed_s
    report.append(f"in-process checks: traced {traced.elapsed_s:.3f} s, "
                  f"untraced {plain.elapsed_s:.3f} s; spans: {len(spans)}")
    spans.save(OUT_DIR / f"{args.workload}-spans.npz")
    return metrics, [traced, plain]


def build_report(builds: dict) -> list[str]:
    """Per-build medians next to the exact instruction counts, µs per
    abstract instruction, and every inversion of Figure 2's ordering
    (a build Figure 2 charges more instructions that measures faster).
    Informational only."""
    from layers import BUILDS

    p50 = {b: float(np.median(builds[b]["lat"])) * 1e6 for b in BUILDS}
    instr = {b: builds[b]["instructions_per_op"] for b in BUILDS}
    lines = ["Figure-2 builds (one op = Irecv + Isend + 2 waits, untraced, "
             "interleaved blocks):",
             f"  {'build':<19}{'samples':>9}{'p50 us':>10}{'instr/op':>10}"
             f"{'us/instr':>10}"]
    for b in BUILDS:
        lines.append(f"  {b:<19}{len(builds[b]['lat']):>9}{p50[b]:>10.2f}"
                     f"{instr[b]:>10.1f}{p50[b] / instr[b]:>10.4f}")
    # Figure 2 orders the builds by instructions charged.
    modelled = sorted(BUILDS, key=lambda b: -instr[b])
    lines.append("  slowest first, measured:         "
                 + " > ".join(sorted(BUILDS, key=lambda b: -p50[b])))
    lines.append("  slowest first, Figure 2 (instr): " + " > ".join(modelled))
    inversions = [f"{a} ({instr[a]:.0f} instr, {p50[a]:.1f} us) measures "
                  f"faster than {b} ({instr[b]:.0f} instr, {p50[b]:.1f} us)"
                  for i, a in enumerate(modelled) for b in modelled[i + 1:]
                  if instr[a] > instr[b] and p50[a] < p50[b]]
    lines.append(f"  inversions of Figure 2's ordering: {len(inversions)}")
    lines.extend(f"    {x}" for x in inversions)
    return lines


def main(argv=None) -> int:
    """Run one workload; returns the exit status."""
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    missing = [p for p in ("src/repro/__init__.py", "AUDIT.json",
                           "COPYMAP.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a repro checkout: {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    # One CPU for the whole run, children included.  The rank threads
    # share one GIL, so a second core adds no parallel Python work; it
    # only exposes each cross-thread handoff to the host's wake-up and
    # steal-time noise.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    ref_start = ref_loop_ms()
    work = workloads.make(args.workload, args.seed, ROOT)
    report: list[str] = []
    try:
        if not args.trace:
            metrics, phases = untraced(work, args, report)
            units = END_TO_END
        else:
            from layers import UNITS
            run = (traced_check if args.workload == "static_check"
                   else traced_runtime)
            metrics, phases = run(work, args, report)
            units = UNITS
    except RuntimeError as exc:
        print(f"nothing to measure: {exc}", file=sys.stderr)
        return 1
    ref_end = ref_loop_ms()
    if args.trace:
        metrics["host.ref_loop_ms"] = (ref_start + ref_end) / 2

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    report.append(f"failed: {failed} of {attempted} ops attempted")
    report.extend(f"error: {p.error}" for p in phases if p.error)
    for name, value in metrics.items():
        report.append(f"{name}: {value:.6g} {units[name]}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "pinned_cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "loadavg_start": load_at_start, "loadavg_end": os.getloadavg(),
        "ref_loop_ms_start": ref_start, "ref_loop_ms_end": ref_end,
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out_file = OUT_DIR / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(
        {"record": record, "report": report, "result": result}, indent=1))
    for line in report:
        print(line)
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
