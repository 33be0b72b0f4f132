"""Golden bit-identity test for precompiled charge plans.

Plans replace step-wise charging on the point-to-point paths, so every
call shape must leave exactly the counts and the virtual clock the
step-wise code left.  ``tests/data/charge_plans_golden.json`` holds,
for a matrix of call shapes, the per-case counter deltas and the
rank's cumulative ``vclock.now`` (as ``float.hex``), recorded from the
step-wise implementation.  The matrix covers every ``named_builds()``
build (CH3 and CH4) x the Section 3 ``ExtFlags`` shapes x destination
or source kind (concrete, ``PROC_NULL``, ``ANY_SOURCE``) x
communicator kind (``MPI_COMM_WORLD``, a dup with direct-table
translation, a predefined-handle dup) x datatype usage class
(compile-time, runtime-constant, derived), for isend, issend, irecv
and persistent starts, plus invalid count, tag, rank and datatype
arguments: an error must have the same class and leave the same
partial charges.

Float addition is not associative, so the clock only matches if a plan
adds its per-step seconds in the original order.

Regenerate (only for a deliberate change to the calibrated charges)::

    PYTHONPATH=src python tests/test_charge_plans.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.consts import ANY_SOURCE, PROC_NULL, TAG_UB
from repro.core import extensions as ext
from repro.core.config import BuildConfig, named_builds
from repro.datatypes.derived import contiguous
from repro.datatypes.predefined import DOUBLE
from repro.datatypes.usage import runtime_constant
from repro.instrument.categories import Category, Subsystem
from repro.instrument.plan import ChargeRecorder
from repro.mpi import pt2pt
from repro.runtime.ranktrans import DirectTableTranslation
from repro.runtime.world import World

GOLDEN = Path(__file__).resolve().parent / "data" / "charge_plans_golden.json"

#: Send-side Section 3 shapes (every flag alone, plus all at once).
SEND_FLAGS = {
    "none": ext.NONE,
    "global": ext.GLOBAL_RANK,
    "static": ext.STATIC_COMM,
    "npn": ext.NO_PROC_NULL,
    "noreq": ext.NOREQ,
    "nomatch": ext.NOMATCH,
    "all": ext.ALL_OPTS_PT2PT,
}

#: Receive-side shapes (no request-less receive exists).
RECV_FLAGS = {
    "none": ext.NONE,
    "static": ext.STATIC_COMM,
    "npn": ext.NO_PROC_NULL,
    "nomatch": ext.NOMATCH,
    "all": ext.ALL_OPTS_PT2PT.with_(noreq=False),
}

PEER_KINDS = {"concrete": 0, "proc_null": PROC_NULL, "any": ANY_SOURCE}


def _comms(world_comm):
    direct = world_comm.dup(name="direct")
    direct.translation = DirectTableTranslation(direct.group.world_ranks)
    return {"world": world_comm, "direct": direct,
            "predef": world_comm.dup_predefined(0)}


def _buffers():
    derived = contiguous(1, DOUBLE).commit()
    return {
        "compile": lambda: np.zeros(1),
        "runtime": lambda: (np.zeros(1), 1, runtime_constant(DOUBLE)),
        "derived": lambda: (np.zeros(1), 1, derived),
    }


def _state(proc) -> tuple:
    counter = proc.counter
    return (counter.total,
            tuple(counter.by_category[c] for c in Category),
            tuple(counter.by_subsystem[s] for s in Subsystem))


def _cases(comm):
    """(case id, thunk) for every shape of the matrix, in run order."""
    comms, bufs = _comms(comm), _buffers()
    for cname, c in comms.items():
        for uname, make in bufs.items():
            for kname, peer in PEER_KINDS.items():
                for fname, flags in SEND_FLAGS.items():
                    yield (f"isend/{cname}/{uname}/{kname}/{fname}",
                           lambda c=c, m=make, p=peer, f=flags:
                           c._buffer_send(m(), p, 7, sync=False, flags=f))
                for fname in ("none", "noreq"):
                    yield (f"issend/{cname}/{uname}/{kname}/{fname}",
                           lambda c=c, m=make, p=peer,
                           f=SEND_FLAGS[fname]:
                           c._buffer_send(m(), p, 7, sync=True, flags=f))
                for fname, flags in RECV_FLAGS.items():
                    yield (f"irecv/{cname}/{uname}/{kname}/{fname}",
                           lambda c=c, m=make, p=peer, f=flags:
                           c._buffer_recv(m(), p, 7, flags=f))
                yield (f"send_init/{cname}/{uname}/{kname}",
                       lambda c=c, m=make, p=peer:
                       c.Send_init(m(), p, 7).start())
                yield (f"recv_init/{cname}/{uname}/{kname}",
                       lambda c=c, m=make, p=peer:
                       c.Recv_init(m(), p, 7).start())
    undone = contiguous(2, DOUBLE)
    bad = {
        "count": lambda: comm.Isend((np.zeros(1), -1, DOUBLE), 0, 7),
        "tag": lambda: comm.Isend(np.zeros(1), 0, -5),
        "tag_ub": lambda: comm.Irecv(np.zeros(1), 0, TAG_UB + 1),
        "rank": lambda: comm.Isend(np.zeros(1), 5, 7),
        "recv_rank": lambda: comm.Irecv(np.zeros(1), 5, 7),
        "datatype": lambda: comm.Isend((np.zeros(2), 1, undone), 0, 7),
        "init_rank": lambda: comm.Send_init(np.zeros(1), 5, 7),
    }
    for name, thunk in bad.items():
        yield f"invalid/{name}", thunk


def _run_build(comm) -> list:
    proc = comm.proc
    rows = []
    for case, thunk in _cases(comm):
        before = _state(proc)
        try:
            thunk()
            error = None
        except Exception as exc:  # noqa: BLE001 - the class is the record
            error = type(exc).__name__
        after = _state(proc)
        rows.append([case, error, after[0] - before[0],
                     [a - b for a, b in zip(after[1], before[1])],
                     [a - b for a, b in zip(after[2], before[2])],
                     proc.vclock.now.hex()])
    return rows


def record_matrix() -> dict:
    """Run the whole matrix; build label -> list of case rows
    ``[case, error class or None, total delta, category deltas,
    subsystem deltas, cumulative vclock.now.hex()]``."""
    out = {}
    for label, config in named_builds().items():
        out[label] = World(1, config).run(_run_build, timeout=120)[0]
    return out


def test_plans_match_stepwise_golden():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(record_matrix()))
    assert list(got) == list(golden)
    for label, rows in golden.items():
        assert len(got[label]) == len(rows), label
        for want, have in zip(rows, got[label]):
            assert have == want, (label, want[0])


def test_matrix_exercises_every_shape_kind():
    golden = json.loads(GOLDEN.read_text())
    rows = golden["mpich/ch4 (default)"]
    errors = {row[1] for row in rows}
    assert None in errors and "MPIErrRank" in errors
    assert "MPIErrCount" in errors and "MPIErrTag" in errors
    assert "MPIErrDatatype" in errors and "MPIErrArg" in errors
    # CH3 rejects every extension flag after the MPI-layer charges.
    ch3 = {row[0]: row for row in golden["mpich/original"]}
    assert ch3["isend/world/compile/concrete/noreq"][1] == "MPIErrArg"
    assert ch3["isend/world/compile/concrete/noreq"][2] > 0


class TestPlanMechanics:
    """ChargePlan / ChargeRecorder / Proc.apply_plan in isolation."""

    STEPS = [(Category.ERROR_CHECKING, 22, None),
             (Category.MANDATORY, 9, Subsystem.OBJECT_LOOKUP),
             (Category.REDUNDANT_CHECKS, 31, None),
             (Category.MANDATORY, 0, Subsystem.PROC_NULL),
             (Category.MANDATORY, 11, Subsystem.RANK_TRANSLATION),
             (Category.MANDATORY, 13, Subsystem.REQUEST_MGMT)]

    @staticmethod
    def _proc():
        return World(1, BuildConfig.default(fabric="ofi")).proc(0)

    def _recorded(self, proc):
        rec = ChargeRecorder(proc)
        for category, n, subsystem in self.STEPS:
            rec.charge(category, n, subsystem)
        return rec.plan()

    def test_apply_equals_stepwise(self):
        stepwise, planned = self._proc(), self._proc()
        plan = self._recorded(planned)
        for _ in range(3):
            for category, n, subsystem in self.STEPS:
                stepwise.charge(category, n, subsystem)
            planned.apply_plan(plan)
        assert _state(planned) == _state(stepwise)
        assert planned.vclock.now.hex() == stepwise.vclock.now.hex()
        assert plan.total == sum(n for _, n, _ in self.STEPS)
        assert plan.steps == tuple(self.STEPS)

    def test_prefix_is_the_first_steps(self):
        stepwise, planned = self._proc(), self._proc()
        plan = self._recorded(planned)
        for category, n, subsystem in self.STEPS[:2]:
            stepwise.charge(category, n, subsystem)
        planned.apply_plan(plan.prefix(2))
        assert _state(planned) == _state(stepwise)
        assert planned.vclock.now.hex() == stepwise.vclock.now.hex()

    def test_negative_charges_rejected_before_counting(self):
        proc = self._proc()
        with pytest.raises(ValueError):
            proc.charge(Category.MANDATORY, -1)
        assert proc.counter.total == 0 and proc.vclock.now == 0.0
        with pytest.raises(ValueError):
            ChargeRecorder(proc).charge(Category.MANDATORY, -1)

    def test_counter_views_are_read_only(self):
        proc = self._proc()
        proc.charge(Category.MANDATORY, 5, Subsystem.DESCRIPTOR)
        view = proc.counter.by_category
        assert view[Category.MANDATORY] == 5
        assert view.get("mandatory", -1) == -1
        with pytest.raises(TypeError):
            view[Category.MANDATORY] = 0
        snap = proc.counter.snapshot()
        proc.charge(Category.MANDATORY, 1, Subsystem.DESCRIPTOR)
        assert snap.by_subsystem[Subsystem.DESCRIPTOR] == 5
        assert proc.counter.by_subsystem[Subsystem.DESCRIPTOR] == 6

    def test_plans_cached_per_rank_and_shape(self):
        def body(comm):
            for _ in range(3):
                comm.Isend(np.zeros(1), 0, 1).wait()
                comm.Recv(np.zeros(1), 0, 1)
            return len(comm.proc.plans), len(comm.proc.device.plans)

        world = World(1, BuildConfig())
        entry_and_validation, device = world.run(body)[0]
        # Entry (one cost pair) + send and receive validation.
        assert entry_and_validation == 3
        # One isend shape and one irecv shape.
        assert device == 2


class TestNumpyDatatypeCache:
    """normalize_buffer resolves a numpy dtype once, and never caches a
    dtype it cannot map."""

    def test_ref_resolved_once(self):
        a = pt2pt.normalize_buffer(np.zeros(3))[2]
        b = pt2pt.normalize_buffer(np.ones(5))[2]
        assert a is b and a.datatype is DOUBLE

    def test_unsupported_dtype_raises_every_call(self):
        arr = np.array(["a", "b"])
        for _ in range(2):
            with pytest.raises(KeyError):
                pt2pt.normalize_buffer(arr)
        assert arr.dtype not in pt2pt._NUMPY_REFS


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_charge_plans.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    data = record_matrix()
    with GOLDEN.open("w") as fh:
        fh.write("{\n")
        for i, (label, rows) in enumerate(data.items()):
            fh.write(f"{json.dumps(label)}: [\n")
            fh.write(",\n".join(json.dumps(r) for r in rows))
            fh.write("\n]" + (",\n" if i < len(data) - 1 else "\n"))
        fh.write("}\n")
    print(f"wrote {GOLDEN} ({sum(len(r) for r in data.values())} cases)")
