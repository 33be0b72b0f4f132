"""MPI-layer point-to-point machinery: validation, entry charging.

This module is the paper's "MPI layer" for sends/receives: the
function-call overhead, the (optional) error checking, and the
(optional) thread-safety gate all live here, each charging its Table 1
cost only when the build actually performs it.  Those charges are
static for a rank, so each function records them once into a
:class:`~repro.instrument.plan.ChargePlan` cached on the rank's
``Proc`` and applies the plan on every call.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional, Union

import numpy as np

from repro.consts import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB
from repro.datatypes.pack import Buffer
from repro.datatypes.predefined import BYTE, from_numpy_dtype
from repro.datatypes.usage import DatatypeRef, classify, compile_time
from repro.errors import (
    MPIError,
    MPIErrBuffer,
    MPIErrComm,
    MPIErrCount,
    MPIErrDatatype,
    MPIErrRank,
    MPIErrTag,
)
from repro.instrument.categories import Category
from repro.instrument.costs import ErrorCheckCosts
from repro.instrument.fastpath import fastpath
from repro.instrument.plan import ChargePlan, ChargeRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.comm import Communicator
    from repro.runtime.proc import Proc

#: Reference used for the internal byte-stream sends of collectives
#: and the pickled-object API (a Class-2 compile-time-constant usage).
BYTE_REF = compile_time(BYTE)


@fastpath
@contextmanager
def mpi_entry(proc: "Proc", function_call_cost: int,
              thread_check_cost: int,
              name: Optional[str] = None,
              vci=None) -> Iterator[None]:
    """One MPI API entry: function-call prologue charge (unless inlined
    away by ipo), thread-safety charge + critical section (unless a
    single-threaded build).  When the rank's timeline is enabled and a
    *name* is given, the call's virtual-time span is recorded.

    *vci* routes the modeled CS: a routed entry acquires only its
    owning VCI's lock (per-VCI sharding, ``num_vcis > 1``) and records
    CS occupancy on that VCI; unrouted entries — wildcard receives,
    persistent/collective internals, every ``num_vcis=1`` call — take
    ``proc.cs_lock``, which is VCI 0's lock.  Charged instruction
    counts are identical either way (the lock choice and the occupancy
    note are real-Python bookkeeping only).

    The entry's charges depend only on the build and the two costs, so
    they are one plan per cost pair, recorded on first use."""
    config = proc.config
    t0 = proc.vclock.now if proc.timeline is not None else 0.0
    if proc.sanitizer is not None and name is not None:
        proc.sanitizer.note_api(name)   # labels leak/deadlock reports
    if proc.faults is not None:
        proc.faults.check_self()   # stash flush + fault-plan rank kill
    key = ("entry", function_call_cost, thread_check_cost)
    plan = proc.plans.get(key)
    if plan is None:
        rec = ChargeRecorder(proc)
        if not config.ipo:
            rec.charge(Category.FUNCTION_CALL, function_call_cost)
        if config.thread_safety:
            rec.charge(Category.THREAD_SAFETY, thread_check_cost)
        plan = proc.plans[key] = rec.plan()
    try:  # audit: allow[FP204] - timeline bookkeeping must not leak
        proc.apply_plan(plan)
        if config.thread_safety:
            cs_lock = proc.cs_lock if vci is None else vci.lock
            with cs_lock:  # audit: allow[FP203] - the modeled CS
                if vci is None:
                    yield
                else:
                    cs_entry_total = proc.counter.total
                    yield
                    vci.note_cs(proc.counter.total - cs_entry_total)
        else:
            yield
    except MPIError as exc:
        # Annotate every error escaping an MPI entry with the raising
        # rank and the operation name, so error-handler callbacks and
        # teardown reports can say which call on which rank failed.
        if exc.rank is None:
            exc.rank = proc.world_rank
        if exc.op is None and name is not None:
            exc.op = name
        raise
    finally:
        if proc.timeline is not None and name is not None:
            from repro.analysis.timeline import TimelineEvent
            proc.timeline.append(
                TimelineEvent(name=name, t0=t0, t1=proc.vclock.now))


# ---------------------------------------------------------------------------
# buffer normalization
# ---------------------------------------------------------------------------

BufArg = Union[np.ndarray, tuple]

#: The Class-2 reference of every numpy dtype seen so far: a buffer's
#: datatype is resolved once per dtype, not once per call (the way
#: GPAW's ``CHK_ARRAY`` binds an array to its MPI type).  It memoizes a
#: fixed mapping to frozen values, so ranks and tests can share it.
#: Misses are never cached, so an unsupported dtype raises on every call.
_NUMPY_REFS: dict[np.dtype, DatatypeRef] = {}


def _numpy_ref(dtype: np.dtype) -> DatatypeRef:
    ref = _NUMPY_REFS.get(dtype)
    if ref is None:
        ref = _NUMPY_REFS[dtype] = compile_time(from_numpy_dtype(dtype))
    return ref


def normalize_buffer(arg: BufArg) -> tuple[Buffer, int, DatatypeRef]:
    """Normalize a user buffer argument.

    Accepted forms (mpi4py-flavoured):

    * a numpy array — count and datatype inferred (Class-2 usage);
    * ``(buf, count, datatype_or_ref)`` — explicit triple, where the
      datatype slot takes a :class:`Datatype` or a classified
      :class:`DatatypeRef` (Class-3 / derived usage).
    * ``(buf, datatype_or_ref)`` — count inferred from the buffer.
    """
    if isinstance(arg, np.ndarray):
        return arg, arg.size, _numpy_ref(arg.dtype)
    if isinstance(arg, tuple):
        if len(arg) == 3:
            buf, count, dt = arg
            return buf, count, classify(dt) if not isinstance(dt, DatatypeRef) else dt
        if len(arg) == 2:
            buf, dt = arg
            dtref = classify(dt) if not isinstance(dt, DatatypeRef) else dt
            nbytes = _buffer_nbytes(buf)
            if nbytes % dtref.datatype.extent:
                raise MPIErrBuffer(
                    f"buffer of {nbytes} bytes is not a whole number of "
                    f"{dtref.datatype.name} extents")
            return buf, nbytes // dtref.datatype.extent, dtref
    raise MPIErrBuffer(
        "buffer argument must be a numpy array or a (buf, count, datatype) "
        f"tuple, got {type(arg).__name__}")


def _buffer_nbytes(buf: Buffer) -> int:
    if isinstance(buf, np.ndarray):
        return buf.nbytes
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return len(buf)
    raise MPIErrBuffer(f"unsupported buffer type {type(buf).__name__}")


# ---------------------------------------------------------------------------
# error checking (Table 1 row 1 — removable, hence behind the config flag)
# ---------------------------------------------------------------------------
#
# Each validator's four charges are one plan per cost group, keyed by
# the group's identity: groups are frozen members of the long-lived cost
# model, and hashing the dataclass would cost more than the plan saves.
# The checks run first; a failing check charges the plan's steps up to
# and including its own (what step-wise charging had charged), then
# raises.

#: Plan steps charged when the argument, datatype, object or rank check
#: fails.
_ARGS, _DATATYPE, _OBJECT, _RANK = 1, 2, 3, 4


def _fail(proc: "Proc", plan: ChargePlan, steps: int,
          exc: MPIError) -> MPIError:
    """Charge the first *steps* steps of *plan*; returns *exc* to raise."""
    proc.apply_plan(plan.prefix(steps))
    return exc


@fastpath
def validate_send(proc: "Proc", err: ErrorCheckCosts, comm: "Communicator",
                  buf: Optional[Buffer], count: int, dtref: DatatypeRef,
                  dest: int, tag: int, global_rank: bool = False) -> None:
    """Send-side argument validation, charging per Table 1's
    error-checking decomposition."""
    key = ("validate_send", id(err))
    plan = proc.plans.get(key)
    if plan is None:
        rec = ChargeRecorder(proc)
        rec.charge(Category.ERROR_CHECKING, err.args_basic)
        rec.charge(Category.ERROR_CHECKING, err.datatype_committed)
        rec.charge(Category.ERROR_CHECKING, err.object_valid)
        rec.charge(Category.ERROR_CHECKING, err.rank_range)
        plan = proc.plans[key] = rec.plan()
    if count < 0:
        raise _fail(proc, plan, _ARGS,
                    MPIErrCount(f"count must be >= 0, got {count}"))
    if not 0 <= tag <= TAG_UB:
        raise _fail(proc, plan, _ARGS, MPIErrTag(
            f"tag must be in [0, {TAG_UB}], got {tag}"))
    if buf is None and count > 0:
        raise _fail(proc, plan, _ARGS,
                    MPIErrBuffer("NULL buffer with nonzero count"))
    if not dtref.datatype.committed:
        raise _fail(proc, plan, _DATATYPE, MPIErrDatatype(
            f"datatype {dtref.datatype.name} used before commit"))
    if comm.freed:
        raise _fail(proc, plan, _OBJECT,
                    MPIErrComm("operation on a freed communicator"))
    limit = comm.world_size if global_rank else comm.size
    if dest != PROC_NULL and not 0 <= dest < limit:
        raise _fail(proc, plan, _RANK, MPIErrRank(
            f"destination {dest} outside [0, {limit}) "
            f"({'world' if global_rank else 'communicator'} ranks)"))
    proc.apply_plan(plan)


@fastpath
def validate_recv(proc: "Proc", err: ErrorCheckCosts, comm: "Communicator",
                  count: int, dtref: DatatypeRef, source: int,
                  tag: int) -> None:
    """Receive-side argument validation."""
    key = ("validate_recv", id(err))
    plan = proc.plans.get(key)
    if plan is None:
        rec = ChargeRecorder(proc)
        rec.charge(Category.ERROR_CHECKING, err.args_basic)
        rec.charge(Category.ERROR_CHECKING, err.datatype_committed)
        rec.charge(Category.ERROR_CHECKING, err.object_valid)
        rec.charge(Category.ERROR_CHECKING, err.rank_range)
        plan = proc.plans[key] = rec.plan()
    if count < 0:
        raise _fail(proc, plan, _ARGS,
                    MPIErrCount(f"count must be >= 0, got {count}"))
    if tag != ANY_TAG and not 0 <= tag <= TAG_UB:
        raise _fail(proc, plan, _ARGS, MPIErrTag(
            f"tag must be ANY_TAG or in [0, {TAG_UB}], got {tag}"))
    if not dtref.datatype.committed:
        raise _fail(proc, plan, _DATATYPE, MPIErrDatatype(
            f"datatype {dtref.datatype.name} used before commit"))
    if comm.freed:
        raise _fail(proc, plan, _OBJECT,
                    MPIErrComm("operation on a freed communicator"))
    if source not in (ANY_SOURCE, PROC_NULL) and not 0 <= source < comm.size:
        raise _fail(proc, plan, _RANK, MPIErrRank(
            f"source {source} outside [0, {comm.size}) and not a wildcard"))
    proc.apply_plan(plan)
