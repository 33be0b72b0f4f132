"""The benchmark's four closed-loop workloads.

Every workload has one client: the next op starts only after the
previous one completed.  Inputs (tags, per-op stamps, wildcard choices,
reduction operands) come from the benchmark's ``--seed``; the program
sees only the generated values.  Every op's output is checked, and an
op that raises or fails its check counts as failed.

The runtime is driven through its public entry points only: ``World``,
``Communicator``, ``BuildConfig``/``named_builds`` and ``python -m
repro.check``.  Layer counters are read from public attributes and the
MPI_T pvars, outside the timed loops.

A runtime workload's timed phase is one ``World.run``: rank threads
start once, before the clock, and rank 0 decides when the phase ends
and tells its peer through the op's own data, so both ranks run the
same ops.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

#: Seeded tables (tags, wildcard choices) are indexed by op % TABLE.
TABLE = 4096
#: Largest tag drawn; well inside TAG_UB.
MAX_TAG = 32767
#: Seconds a World.run may take beyond its planned length.
RUN_SLACK_S = 60.0
#: Spans a traced phase keeps in memory before it ends early.
SPAN_CAP = 500_000


class Samples:
    """Start and completion times of ops, in perf_counter seconds."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")

    def add(self, t0: float, t1: float) -> None:
        """Record one op that started at *t0* and completed at *t1*."""
        self.start.append(t0)
        self.end.append(t1)

    def __len__(self) -> int:
        return len(self.end)


@dataclass
class Phase:
    """What one timed phase did."""

    attempted: int = 0
    failed: int = 0
    #: From the first op's start to the last op's completion.
    elapsed_s: float = 0.0
    #: Per-op latencies, and completion times from the phase's start,
    #: in completion order.
    latencies: np.ndarray = field(default_factory=lambda: np.empty(0))
    ends: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: Set when an exception ended the phase early.
    error: Optional[str] = None


@dataclass
class Setup:
    """Set-up samples: whole set-ups, and their World parts."""

    total_s: list[float] = field(default_factory=list)
    construct_s: list[float] = field(default_factory=list)
    first_run_s: list[float] = field(default_factory=list)


class _Run:
    """The shared state of one ``World.run`` of a workload loop.

    Rank 0 calls :meth:`begin_op` before each op; it answers whether
    that op is the last one, after *max_ops* ops or once *seconds* have
    passed since the first.  Each rank records its timings in
    ``samples[rank]`` and the ids of ops whose check failed in
    ``failed[rank]``; they outlive an exception that ends the run.
    """

    def __init__(self, nranks: int, first: int, max_ops: float,
                 seconds: float, tracer):
        self.first = first
        self.max_ops = max_ops
        self.seconds = seconds
        self.tracer = tracer
        self.samples = [Samples() for _ in range(nranks)]
        self.failed: list[set[int]] = [set() for _ in range(nranks)]
        self.barrier = threading.Barrier(nranks)
        self.attempted = 0
        self.start_s = 0.0

    def begin_op(self) -> bool:
        """Count one more op as attempted; True if it is the last one."""
        if self.attempted == 0:
            self.start_s = perf_counter()
        self.attempted += 1
        if (self.tracer is not None and self.attempted % 256 == 0
                and self.tracer.n_spans() >= SPAN_CAP):
            return True
        return (self.attempted >= self.max_ops
                or perf_counter() - self.start_s >= self.seconds)


class _RuntimeWorkload:
    """A workload that runs ops on a World.

    Subclasses provide ``new_world`` and the rank function ``loop``.
    """

    nranks = 1
    #: Ops of the warm-up run that ends each set-up.
    WARMUP = 1000
    #: True: an op's time runs from the last rank's start to the last
    #: rank's completion.  False: rank 0 (the client) times it alone.
    TIME_ALL_RANKS = False

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.world = None
        self.next_op = 0

    def new_world(self):
        """A fresh World for this workload."""
        raise NotImplementedError

    def loop(self, comm, run: _Run) -> None:
        """Run ops from ``run.first`` on one rank until rank 0 says
        stop."""
        raise NotImplementedError

    def drive(self, world, max_ops: float, seconds: float,
              tracer=None) -> Phase:
        """One ``World.run`` of the loop: at most *max_ops* ops, or as
        many as complete in *seconds*."""
        run = _Run(self.nranks, self.next_op, max_ops, seconds, tracer)
        phase = Phase()
        budget = (seconds if seconds != float("inf") else 0.0) + RUN_SLACK_S

        def body(comm) -> None:
            try:
                self.loop(comm, run)
            except BaseException:
                run.barrier.abort()     # release a peer waiting in it
                raise

        try:
            world.run(body, timeout=budget)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            phase.error = f"{type(exc).__name__}: {exc}"
        failed = set().union(*run.failed)
        if phase.error is not None:
            # The op in flight when the exception hit did not complete.
            failed.add(run.first + max(run.attempted, 1) - 1)
        phase.attempted = max(run.attempted, len(failed))
        phase.failed = len(failed)
        self.next_op += phase.attempted
        timed = run.samples if self.TIME_ALL_RANKS else run.samples[:1]
        n = min(len(s) for s in timed)
        start = np.max([np.frombuffer(s.start)[:n] for s in timed], axis=0)
        end = np.max([np.frombuffer(s.end)[:n] for s in timed], axis=0)
        order = np.argsort(end, kind="stable")
        phase.latencies = (end - start)[order]
        phase.ends = end[order] - run.start_s
        phase.elapsed_s = (float(end.max()) - run.start_s) if n else 0.0
        return phase

    def setup(self, repeats: int) -> Setup:
        """Build a fresh World and warm it up, *repeats* times; the last
        World stays for the timed phases."""
        out = Setup()
        for _ in range(repeats):
            t0 = perf_counter()
            world = self.new_world()
            t1 = perf_counter()
            warm = self.drive(world, self.WARMUP, float("inf"))
            t2 = perf_counter()
            if warm.failed or warm.error:
                raise RuntimeError(f"warm-up failed: {warm.failed} ops, "
                                   f"{warm.error}")
            out.total_s.append(t2 - t0)
            out.construct_s.append(t1 - t0)
            out.first_run_s.append(t2 - t1)
            self.world = world
        return out

    def run(self, seconds: float, tracer=None) -> Phase:
        """The timed phase: one World.run of *seconds*."""
        return self.drive(self.world, float("inf"), seconds, tracer)

    def counters(self) -> dict[str, float]:
        """Layer counters summed over the ranks of the current World:
        public attributes plus the MPI_T pvars."""
        from repro.instrument import copies
        from repro.mpi.tools import PvarSession

        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        for proc in self.world.procs:
            device = proc.device
            add("instructions_total",
                PvarSession(proc).read("instructions_total"))
            add("pool_alloc", proc.request_pool.n_alloc)
            add("pool_reuse", proc.request_pool.n_reuse)
            add("deposited", proc.engine.n_deposited)
            add("matched_posted", proc.engine.n_matched_posted)
            add("matched_unexpected", proc.engine.n_matched_unexpected)
            add("eager", device.n_eager)
            add("rendezvous", device.n_rendezvous)
            for mod in (device.netmod, device.shmmod):
                add("native", mod.n_native)
                add("am_fallback", mod.n_am_fallback)
        snap = copies.snapshot()
        out["copies"] = snap.n_copies
        out["bytes_copied"] = snap.bytes_copied
        return out


# ---------------------------------------------------------------------------
# pt2pt_self
# ---------------------------------------------------------------------------

#: Short metric label of each named_builds() entry, in Figure-2 order.
BUILD_LABELS = {
    "mpich/original": "original",
    "mpich/ch4 (default)": "default",
    "mpich/ch4 (no-err)": "no-err",
    "mpich/ch4 (no-err-single)": "no-err-single",
    "mpich/ch4 (no-err-single-ipo)": "no-err-single-ipo",
}


class Pt2ptSelf(_RuntimeWorkload):
    """1 rank on the default CH4 build: each op is an 8-byte Irecv ->
    Isend -> wait -> wait to itself, with a seeded tag and a per-op
    stamp.

    Chosen because with no second thread and no payload all the time
    is the per-call software path the paper analyses: MPI entry,
    validation, the device, charges, posted-path matching and request
    handles.  The op is one homogeneous population on one build, so its
    medians do not depend on how builds or blocks are mixed (pooling
    five builds into one distribution put the median in a gap between
    modes).  Charge-plan and observer-hook changes should move this
    workload and no other.
    """

    name = "pt2pt_self"
    #: Ops per World.run block in the Figure-2 build report.
    BUILD_BLOCK = 500

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tags = self.rng.integers(0, MAX_TAG + 1, TABLE).tolist()
        self.base = int(self.rng.integers(1, 2**40))

    def new_world(self, config=None):
        from repro.core.config import BuildConfig
        from repro.runtime.world import World
        return World(1, config if config is not None else BuildConfig())

    def loop(self, comm, run: _Run) -> None:
        tags, base, tracer = self.tags, self.base, run.tracer
        samples, failed = run.samples[0], run.failed[0]
        sbuf = np.zeros(1)
        rbuf = np.zeros(1)
        i = run.first
        last = False
        while not last:
            last = run.begin_op()
            tag = tags[i % TABLE]
            stamp = float(base + i)
            sbuf[0] = stamp
            if tracer is not None:
                tracer.set_op(i)
            t0 = perf_counter()
            rreq = comm.Irecv(rbuf, 0, tag)
            sreq = comm.Isend(sbuf, 0, tag)
            sreq.wait()
            rreq.wait()
            samples.add(t0, perf_counter())
            if rbuf[0] != stamp or rreq.source != 0 or rreq.tag != tag:
                failed.add(i)
            i += 1

    def build_report(self, seconds: float) -> dict[str, dict]:
        """The same op on each of the five Figure-2 builds, in blocks
        of BUILD_BLOCK ops run in a seeded order per round for about
        *seconds*: per build, the latencies, the ops and failures, and
        the exact instructions charged per op."""
        from repro.core.config import named_builds
        from repro.mpi.tools import PvarSession

        worlds = {BUILD_LABELS[label]: self.new_world(config)
                  for label, config in named_builds().items()}
        out = {key: {"lat": [], "ops": 0, "failed": 0, "error": None}
               for key in worlds}

        def block(key: str, n: int) -> Phase:
            phase = self.drive(worlds[key], n, float("inf"))
            rec = out[key]
            rec["ops"] += phase.attempted
            rec["failed"] += phase.failed
            rec["error"] = rec["error"] or phase.error
            return phase

        for key in worlds:                      # warm-up, not timed
            block(key, self.WARMUP)
        before = {key: (PvarSession(w.proc(0)).read("instructions_total"),
                        out[key]["ops"]) for key, w in worlds.items()}
        keys = list(worlds)
        t_end = perf_counter() + seconds
        while perf_counter() < t_end:
            for k in self.rng.permutation(len(keys)):
                phase = block(keys[k], self.BUILD_BLOCK)
                out[keys[k]]["lat"].append(phase.latencies)
        for key, w in worlds.items():
            rec = out[key]
            rec["lat"] = np.concatenate(rec["lat"])
            instructions, ops = before[key]
            rec["instructions_per_op"] = (
                (PvarSession(w.proc(0)).read("instructions_total")
                 - instructions) / (rec["ops"] - ops))
        return out


# ---------------------------------------------------------------------------
# pingpong_wild
# ---------------------------------------------------------------------------

class PingpongWild(_RuntimeWorkload):
    """2 ranks on two nodes, default build: blocking 8-byte Send/Recv
    round trips, with ANY_SOURCE on a seeded half of each rank's
    receives.

    Chosen because it is the only workload whose time goes to
    cross-thread completion (blocking in Request.wait), the wildcard
    matching fallback, the inter-node netmod and request recycling
    through blocking calls; pt2pt_self bypasses all four.  One node per
    rank makes the netmod carry every message.
    """

    name = "pingpong_wild"
    nranks = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tags = self.rng.integers(0, MAX_TAG + 1, TABLE).tolist()
        half = np.arange(TABLE) % 2 == 0
        self.wild = [self.rng.permutation(half).tolist() for _ in range(2)]
        self.base = int(self.rng.integers(1, 2**40))

    def new_world(self):
        from repro.core.config import BuildConfig
        from repro.fabric.topology import Topology
        from repro.runtime.world import World
        return World(2, BuildConfig(), Topology(nranks=2, cores_per_node=1))

    def loop(self, comm, run: _Run) -> None:
        from repro.consts import ANY_SOURCE

        rank = comm.rank
        peer = 1 - rank
        tags, wild, base = self.tags, self.wild[rank], self.base
        tracer, failed = run.tracer, run.failed[rank]
        samples = run.samples[rank]
        buf = np.zeros(1)
        i = run.first
        while True:
            tag = tags[i % TABLE]
            source = ANY_SOURCE if wild[i % TABLE] else peer
            stamp = float(base + i)
            if tracer is not None:
                tracer.set_op(i)
            if rank == 0:
                # Rank 0 negates the stamp of the last op to end the
                # run; rank 1 echoes what it received, negated.
                last = run.begin_op()
                sent = -stamp if last else stamp
                buf[0] = sent
                t0 = perf_counter()
                comm.Send(buf, 1, tag)
                status = comm.Recv(buf, source, tag)
                samples.add(t0, perf_counter())
                ok = buf[0] == -sent
            else:
                status = comm.Recv(buf, source, tag)
                got = float(buf[0])
                ok = abs(got) == stamp
                last = got < 0
                buf[0] = -got
                comm.Send(buf, 0, tag)
            if not ok or status.source != peer or status.tag != tag:
                failed.add(i)
            if last:
                return
            i += 1


# ---------------------------------------------------------------------------
# allreduce_large
# ---------------------------------------------------------------------------

class AllreduceLarge(_RuntimeWorkload):
    """2 ranks on one node (shmmod), default build: Allreduce SUM of
    1 MiB of float64 holding seeded integer values, so the result is
    exact.

    Chosen because payload work dominates -- pack views, the reduction
    and rendezvous -- and per-call charges are a small share: a
    fixed-cost optimisation should leave it unchanged, a copy or
    datatype optimisation should move it.
    """

    name = "allreduce_large"
    nranks = 2
    WARMUP = 60
    TIME_ALL_RANKS = True
    COUNT = 1 << 17          # 1 MiB of float64

    def __init__(self, seed: int):
        super().__init__(seed)
        lim = 1 << 20
        self.inputs = [self.rng.integers(-lim, lim, self.COUNT)
                       .astype(np.float64) for _ in range(2)]
        self.bases = [int(b) for b in self.rng.integers(1, 2**40, 2)]
        self.expected = self.inputs[0] + self.inputs[1]

    def new_world(self):
        from repro.core.config import BuildConfig
        from repro.runtime.world import World
        return World(2, BuildConfig())

    def loop(self, comm, run: _Run) -> None:
        rank = comm.rank
        tracer, failed = run.tracer, run.failed[rank]
        samples = run.samples[rank]
        send = self.inputs[rank].copy()
        recv = np.empty_like(send)
        expected = self.expected[1:]
        b0, b1 = self.bases
        # Element 0 carries each rank's per-op stamp, so a stale result
        # fails; rank 0 negates its stamp on the last op, which gives
        # the sum b1 - b0 instead of b0 + b1 + 2i.
        final = float(b1 - b0)
        i = run.first
        last = False
        while not last:
            if rank == 0:
                last = run.begin_op()
                send[0] = -float(b0 + i) if last else float(b0 + i)
            else:
                send[0] = float(b1 + i)
            if tracer is not None:
                tracer.set_op(i)
            t0 = perf_counter()
            comm.Allreduce(send, recv)
            samples.add(t0, perf_counter())
            head = recv[0]
            if rank == 1:
                last = head == final
            if (head != (final if last else float(b0 + b1 + 2 * i))
                    or not np.array_equal(recv[1:], expected)):
                failed.add(i)
            i += 1
            # Neither rank starts the next op before both have finished
            # this one, check included: one op in flight at a time, and
            # one rank's check never runs inside the other's timed op.
            run.barrier.wait()

    def floor_seconds(self, repeats: int = 50) -> float:
        """Median time of the same reduction done with plain numpy,
        outside the runtime: the single-threaded baseline."""
        a, b = self.inputs
        out = np.empty_like(a)
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            np.add(a, b, out=out)
            times.append(perf_counter() - t0)
        if not np.array_equal(out, self.expected):
            raise RuntimeError("numpy floor sum differs from the expected "
                               "result")
        return float(np.median(times))


# ---------------------------------------------------------------------------
# static_check
# ---------------------------------------------------------------------------

class StaticCheck:
    """Each op is one fresh-process ``python -m repro.check --json``
    (no ``--stress``).

    Chosen because the sanitize/audit/bufcheck/check layer is about a
    third of the code and no runtime workload touches it; one analysis
    front-end, or a regression in it, can only show here.  A fresh
    process per op measures what a CLI or CI user pays: an in-process
    repeat would let a module-level cache hide the per-invocation index
    build.  Its input is the checked-out tree itself, so the seed
    changes nothing; each op must exit 0 and reproduce the committed
    AUDIT.json and COPYMAP.json.
    """

    name = "static_check"
    #: Seconds one check process may take.
    OP_TIMEOUT_S = 120.0

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.audit_ref = json.loads((root / "AUDIT.json").read_text())
        self.copymap_ref = json.loads((root / "COPYMAP.json").read_text())
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def matches(self, code: int, snapshot: dict) -> bool:
        """Did a check exit 0 and reproduce the committed snapshots?"""
        return (code == 0 and snapshot.get("audit") == self.audit_ref
                and snapshot.get("bufcheck") == self.copymap_ref)

    def op(self) -> tuple[bool, float, Optional[str]]:
        """One check process: (output correct, seconds, error)."""
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.check", "--json"],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=self.OP_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return False, perf_counter() - t0, f"timeout: {exc}"
        seconds = perf_counter() - t0
        # The per-tool summary lines come first, then the JSON snapshot.
        start = proc.stdout.find("\n{")
        try:
            snapshot = json.loads(proc.stdout[start + 1:])
        except ValueError:
            return False, seconds, (f"exit {proc.returncode}, no snapshot: "
                                    f"{proc.stderr[-500:]}")
        if not self.matches(proc.returncode, snapshot):
            return False, seconds, (f"exit {proc.returncode}, snapshot "
                                    "differs from AUDIT.json/COPYMAP.json")
        return True, seconds, None

    def setup(self, repeats: int) -> Setup:
        """*repeats* cold checks; each is the set-up a user pays before
        the first result."""
        out = Setup()
        for _ in range(repeats):
            ok, seconds, error = self.op()
            if not ok:
                raise RuntimeError(f"cold check failed: {error}")
            out.total_s.append(seconds)
        return out

    def run(self, seconds: float, tracer=None) -> Phase:
        """Check repeatedly until *seconds* have passed."""
        phase = Phase()
        lat, ends = [], []
        start = perf_counter()
        while perf_counter() - start < seconds:
            phase.attempted += 1
            ok, op_s, error = self.op()
            lat.append(op_s)
            ends.append(perf_counter() - start)
            if not ok:
                phase.failed += 1
                phase.error = phase.error or error
        phase.elapsed_s = perf_counter() - start
        phase.latencies, phase.ends = np.array(lat), np.array(ends)
        return phase


RUNTIME_WORKLOADS = {cls.name: cls for cls in
                     (Pt2ptSelf, PingpongWild, AllreduceLarge)}
NAMES = (*RUNTIME_WORKLOADS, StaticCheck.name)


def make(name: str, seed: int, root: Path):
    """The workload called *name*, with inputs drawn from *seed*;
    static_check reads its reference snapshots under *root*."""
    if name == StaticCheck.name:
        return StaticCheck(seed, root)
    return RUNTIME_WORKLOADS[name](seed)
