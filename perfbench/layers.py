"""Which runtime functions the traced run wraps, and the per-layer
metrics computed from what the wrappers and counters recorded.

Layer names follow the package's modules: ``mpi`` (Communicator entry
methods, ``pt2pt.mpi_entry`` and validation), ``ch4`` / ``ch3`` (device
isend/irecv), ``instrument`` (charging) with ``vclock``, ``netmod``,
``matching``, ``request``, ``datatypes`` (pack/unpack, dtype lookups
and the ``instrument.copies`` census), ``collectives`` with
``reduceops``, ``world``, and the self-analysis passes behind
``repro.check``.  Each function is wrapped where its callers look it
up (``ch4`` imports ``pack`` by name, so ``pack`` is patched in
``ch4``'s namespace too).

Every ``*_us_per_op`` time is *self* time: the wrapped call's span
minus its wrapped children, summed over ranks and divided by the ops of
the traced phase.  ``request.wait_us_per_op`` is therefore the time a
rank spent blocked in ``Request.wait``.  The ``check.*_s`` pass times
are whole spans (a pass includes the index it builds).  A layer a
workload never reaches reads 0.
"""

from __future__ import annotations

#: Communicator entry methods the workloads call.
MPI_ENTRIES = ("Send", "Recv", "Isend", "Irecv")

#: Short labels of the five Figure-2 builds, in plot order.
BUILDS = ("original", "default", "no-err", "no-err-single",
          "no-err-single-ipo")

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "mpi.self_us_per_op": "us/op",
    "mpi.validate_us_per_op": "us/op",
    "mpi.calls_per_op": "1/op",
    "ch4.self_us_per_op": "us/op",
    "ch3.self_us_per_op": "us/op",
    "ch4.rendezvous_ratio": "ratio",
    "instrument.charges_per_op": "1/op",
    "instrument.charge_us_per_op": "us/op",
    "instrument.instructions_per_op": "1/op",
    "vclock.calls_per_op": "1/op",
    "netmod.issue_us_per_op": "us/op",
    "netmod.issues_per_op": "1/op",
    "netmod.am_fallback_ratio": "ratio",
    "matching.post_us_per_op": "us/op",
    "matching.deposit_us_per_op": "us/op",
    "matching.posted_hit_ratio": "ratio",
    "request.acquire_us_per_op": "us/op",
    "request.complete_us_per_op": "us/op",
    "request.wait_us_per_op": "us/op",
    "request.acquires_per_op": "1/op",
    "request.releases_per_op": "1/op",
    "request.pool_reuse_ratio": "ratio",
    "datatypes.pack_us_per_op": "us/op",
    "datatypes.unpack_us_per_op": "us/op",
    "datatypes.dtype_lookups_per_op": "1/op",
    "datatypes.copies_per_op": "1/op",
    "datatypes.bytes_copied_per_op": "B/op",
    "collectives.self_us_per_op": "us/op",
    "collectives.messages_per_op": "1/op",
    "reduceops.us_per_op": "us/op",
    "reduceops.floor_us_per_op": "us/op",
    "world.construct_s": "s",
    "world.first_run_s": "s",
    "check.index_builds_per_op": "1/op",
    "check.files_parsed_per_op": "1/op",
    "check.import_s": "s",
    "check.sanitize_s": "s",
    "check.audit_s": "s",
    "check.bufcheck_s": "s",
    **{f"build.{b}.p50_us": "us" for b in BUILDS},
    **{f"build.{b}.instructions_per_op": "1/op" for b in BUILDS},
    "trace.overhead_ratio": "ratio",
    "host.ref_loop_ms": "ms",
}

#: Metrics where a larger value is the better one; all others are
#: better lower.
HIGHER_IS_BETTER = ("matching.posted_hit_ratio", "request.pool_reuse_ratio",
                    "trace.overhead_ratio")


def install_runtime(tracer) -> None:
    """Wrap every runtime layer boundary the per-layer metrics need."""
    import importlib

    from repro.ch3.device import CH3Device
    from repro.core.ch4 import CH4Device
    from repro.datatypes import predefined
    from repro.instrument.counter import InstructionCounter
    from repro.mpi import pt2pt, reduceops
    from repro.mpi.comm import Communicator
    from repro.netmod.base import Netmod
    from repro.runtime.matching import (BucketMatchingEngine,
                                        LinearMatchingEngine)
    from repro.runtime.proc import Proc
    from repro.runtime.request import Request, RequestPool
    from repro.runtime.vclock import VClock

    # Count-only: too small and too frequent to time without distorting
    # their callers, so their time stays in the caller's self time.
    tracer.wrap_method(VClock, "advance_instructions", "vclock",
                       kind="count")
    tracer.wrap_method(InstructionCounter, "charge", "counter.charge",
                       kind="count")
    tracer.wrap_method(RequestPool, "release", "request.release",
                       kind="count")
    tracer.wrap_function(predefined, "from_numpy_dtype",
                         "datatypes.dtype_lookup", kind="count")

    for method in MPI_ENTRIES:
        tracer.wrap_method(Communicator, method, "mpi")
    tracer.wrap_function(pt2pt, "mpi_entry", "mpi", kind="context")
    for fn in ("validate_send", "validate_recv"):
        tracer.wrap_function(pt2pt, fn, "mpi.validate")
    for method in ("isend", "irecv"):
        tracer.wrap_method(CH4Device, method, f"ch4.{method}")
        tracer.wrap_method(CH3Device, method, f"ch3.{method}")
    tracer.wrap_method(Proc, "charge", "instrument.charge")
    tracer.wrap_method(Netmod, "issue", "netmod.issue")
    for engine in (BucketMatchingEngine, LinearMatchingEngine):
        tracer.wrap_method(engine, "post", "matching.post")
        tracer.wrap_method(engine, "deposit", "matching.deposit")
    tracer.wrap_method(RequestPool, "acquire", "request.acquire")
    tracer.wrap_method(Request, "complete", "request.complete")
    tracer.wrap_method(Request, "wait", "request.wait")
    # The package re-exports pack() under the module's own name.
    pack_mod = importlib.import_module("repro.datatypes.pack")
    tracer.wrap_function(pack_mod, "pack", "datatypes.pack")
    tracer.wrap_function(pack_mod, "unpack", "datatypes.unpack")
    tracer.wrap_method(Communicator, "Allreduce", "collectives")
    # Allreduce combines with combine_arrays; apply_numpy is the
    # in-place form other reductions use.
    for method in ("apply_numpy", "combine_arrays"):
        tracer.wrap_method(reduceops.Op, method, "reduceops")


def install_check(tracer) -> None:
    """Wrap the self-analysis passes behind ``repro.check``."""
    import ast

    from repro.audit.callgraph import CodeIndex
    from repro.audit import cli as audit_cli
    from repro.bufcheck import cli as bufcheck_cli
    from repro.sanitize import astlint

    tracer.wrap_function(ast, "parse", "ast.parse", kind="count")
    tracer.wrap_method(CodeIndex, "build", "check.index_build")
    tracer.wrap_function(astlint, "lint_paths", "check.sanitize")
    tracer.wrap_function(audit_cli, "run_audit", "check.audit")
    tracer.wrap_function(bufcheck_cli, "run_bufcheck", "check.bufcheck")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def runtime_metrics(spans, counts: dict, delta: dict, ops: int,
                    ch3_spans=None, ch3_ops: int = 0) -> dict[str, float]:
    """The runtime layers' metrics from the traced phase's *spans* and
    count-only *counts*, the counter movement *delta* over it and its
    *ops*.  ``ch3.self_us_per_op`` comes from *ch3_spans*, a traced run
    of *ch3_ops* ops on the CH3 build (pt2pt_self only)."""
    us = 1e6

    def per_op(x: float) -> float:
        return _div(x, ops)

    def self_us(*names: str) -> float:
        return per_op(spans.self_seconds(names) * us)

    get = delta.get
    issues = get("native", 0) + get("am_fallback", 0)
    sends = get("eager", 0) + get("rendezvous", 0)
    acquires = get("pool_alloc", 0) + get("pool_reuse", 0)
    coll_sends = int((spans.mask(["ch4.isend", "ch3.isend"])
                      & spans.under(["collectives"])).sum())
    return {
        "mpi.self_us_per_op": self_us("mpi"),
        "mpi.validate_us_per_op": self_us("mpi.validate"),
        "mpi.calls_per_op": per_op(spans.outermost(["mpi", "collectives"])),
        "ch4.self_us_per_op": self_us("ch4.isend", "ch4.irecv"),
        "ch3.self_us_per_op": (
            _div(ch3_spans.self_seconds(["ch3.isend", "ch3.irecv"]) * us,
                 ch3_ops) if ch3_spans is not None else 0.0),
        "ch4.rendezvous_ratio": _div(get("rendezvous", 0), sends),
        "instrument.charges_per_op": per_op(counts.get("counter.charge", 0)),
        "instrument.charge_us_per_op": self_us("instrument.charge"),
        "instrument.instructions_per_op": per_op(get("instructions_total", 0)),
        "vclock.calls_per_op": per_op(counts.get("vclock", 0)),
        "netmod.issue_us_per_op": self_us("netmod.issue"),
        "netmod.issues_per_op": per_op(issues),
        "netmod.am_fallback_ratio": _div(get("am_fallback", 0), issues),
        "matching.post_us_per_op": self_us("matching.post"),
        "matching.deposit_us_per_op": self_us("matching.deposit"),
        "matching.posted_hit_ratio": _div(get("matched_posted", 0),
                                          get("deposited", 0)),
        "request.acquire_us_per_op": self_us("request.acquire"),
        "request.complete_us_per_op": self_us("request.complete"),
        "request.wait_us_per_op": self_us("request.wait"),
        "request.acquires_per_op": per_op(acquires),
        "request.releases_per_op": per_op(counts.get("request.release", 0)),
        "request.pool_reuse_ratio": _div(get("pool_reuse", 0), acquires),
        "datatypes.pack_us_per_op": self_us("datatypes.pack"),
        "datatypes.unpack_us_per_op": self_us("datatypes.unpack"),
        "datatypes.dtype_lookups_per_op":
            per_op(counts.get("datatypes.dtype_lookup", 0)),
        "datatypes.copies_per_op": per_op(get("copies", 0)),
        "datatypes.bytes_copied_per_op": per_op(get("bytes_copied", 0)),
        "collectives.self_us_per_op": self_us("collectives"),
        "collectives.messages_per_op": per_op(coll_sends),
        "reduceops.us_per_op": self_us("reduceops"),
    }


def check_metrics(spans, counts: dict, ops: int) -> dict[str, float]:
    """The self-analysis metrics of *ops* traced in-process checks."""

    def per_op(x: float) -> float:
        return _div(x, ops)

    def span_s(name: str) -> float:
        return per_op(float(spans.duration[spans.mask([name])].sum()))

    return {
        "check.index_builds_per_op": per_op(spans.count(["check.index_build"])),
        "check.files_parsed_per_op": per_op(counts.get("ast.parse", 0)),
        "check.sanitize_s": span_s("check.sanitize"),
        "check.audit_s": span_s("check.audit"),
        "check.bufcheck_s": span_s("check.bufcheck"),
    }
