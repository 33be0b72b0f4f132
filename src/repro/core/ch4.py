"""The CH4 device: the paper's lightweight critical path.

Design goals transcribed from Section 2 of the paper:

1. the fast path "flows as directly as possible to either the netmod
   or the shmmod using the fewest instructions";
2. "the communication semantics are never lost all the way through the
   software stack" — every method here receives the full MPI-level
   operation descriptor and the netmod/shmmod decides native-vs-AM
   with complete information.

Every step charges its calibrated instruction cost; extension flags
(Section 3 proposals) replace expensive steps with their cheap
counterparts, so Table 1 / Figures 2 and 6 fall out of the accounting
of real executions.  The point-to-point steps are static for a call
shape (flags, handle kind, rank-translation kind, datatype usage class,
peer kind), so the first call of each shape records them into a
:class:`~repro.instrument.plan.ChargePlan` cached on the device, and
every call applies the plan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.consts import ANY_SOURCE, PROC_NULL
from repro.core import am
from repro.core.extensions import ExtFlags
from repro.core.ops import AccOp, GetOp, PutOp, RecvOp, SendOp, SyncState
from repro.datatypes.pack import pack, packed_size, unpack
from repro.datatypes.usage import DatatypeRef, UsageClass
from repro.core.config import IpoScope
from repro.errors import MPIErrArg, MPIErrRank
from repro.instrument.categories import Category, Subsystem
from repro.instrument.costs import COSTS, CostModel, MandatoryCosts, RedundantCheckCosts
from repro.instrument.fastpath import fastpath
from repro.instrument.plan import ChargePlan, ChargeRecorder
from repro.netmod.base import Netmod
from repro.netmod.registry import build_netmod
from repro.netmod.shm import build_shmmod
from repro.runtime.message import Envelope, Message
from repro.runtime.matching import PostedRecv
from repro.runtime.ranktrans import DirectTableTranslation
from repro.runtime.request import Request, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc

_MAND = Category.MANDATORY
_RED = Category.REDUNDANT_CHECKS


class CH4Device:
    """Per-rank CH4 device instance (ch4 core + one netmod + one shmmod)."""

    name = "ch4"

    def __init__(self, proc: "Proc", costs: CostModel = COSTS):
        self.proc = proc
        self.costs = costs
        self.netmod: Netmod = build_netmod(proc, proc.config.fabric)
        self.shmmod: Netmod = build_shmmod(proc, proc.config.shm_fabric)
        self.force_am = proc.config.force_am_fallback
        #: Protocol statistics (CH4 also switches to rendezvous for
        #: large payloads — handled inside the netmod path, with no
        #: extra instruction charges on the fast path).
        self.n_eager = 0
        self.n_rendezvous = 0
        #: Precompiled point-to-point charge plans, one per call shape.
        self.plans: dict[tuple, "ChargePlan | tuple[ChargePlan, ...]"] = {}

    # ------------------------------------------------------------------ #
    # shared charging helpers                                             #
    # ------------------------------------------------------------------ #
    #
    # Each helper charges *proc*: the rank's Proc on the step-wise RMA
    # path, or a ChargeRecorder while a point-to-point plan compiles.

    def _transport_for(self, dest_world: int) -> Netmod:
        """CH4 core locality check: self/intra-node -> shmmod, else netmod."""
        if dest_world == self.proc.world_rank:
            return self.shmmod
        if self.proc.world.topology.same_node(self.proc.world_rank, dest_world):
            return self.shmmod
        return self.netmod

    @fastpath
    def _charge_object_lookup(self, proc, flags: ExtFlags,
                              static_handle: bool,
                              mandatory: MandatoryCosts) -> None:
        """Section 3.3: dynamic-object dereference vs static-index load."""
        if flags.static_comm or static_handle:
            proc.charge(_MAND, self.costs.predefined_object_lookup,
                        Subsystem.OBJECT_LOOKUP)
        else:
            proc.charge(_MAND, mandatory.object_lookup,
                        Subsystem.OBJECT_LOOKUP)

    def _redundant_checks_needed(self, dtref: DatatypeRef) -> bool:
        """Section 2.2: which datatype-usage classes keep their runtime
        checks under the build's inlining scope."""
        scope = self.proc.config.ipo_scope
        if dtref.usage is UsageClass.DERIVED:
            return True                     # Class 1: genuinely needed
        if scope is IpoScope.NONE:
            return True                     # no inlining: always checked
        if dtref.usage is UsageClass.COMPILE_TIME:
            return False                    # Class 2: folded by MPI-only ipo
        return scope is not IpoScope.WHOLE_PROGRAM   # Class 3

    @fastpath
    def _charge_redundant(self, proc, dtref: DatatypeRef,
                          costs: RedundantCheckCosts) -> None:
        if self._redundant_checks_needed(dtref):
            proc.charge(_RED, costs.datatype_size)
            proc.charge(_RED, costs.contiguity)
            proc.charge(_RED, costs.builtin_branch)
            proc.charge(_RED, costs.addr_arith)

    @fastpath
    def _charge_rank_translation(self, proc, comm, flags: ExtFlags,
                                 mandatory: MandatoryCosts) -> None:
        """Section 3.1: communicator-rank translation (or the global-rank
        bypass).  Direct-table communicators charge their cheap 2-instr
        lookup; the calibrated default (compressed) charges the
        per-operation calibrated cost."""
        if flags.global_rank:
            proc.charge(_MAND, self.costs.global_rank_lookup,
                        Subsystem.RANK_TRANSLATION)
        elif isinstance(comm.translation, DirectTableTranslation):
            proc.charge(_MAND, comm.translation.lookup_instructions,
                        Subsystem.RANK_TRANSLATION)
        else:
            proc.charge(_MAND, mandatory.rank_translation,
                        Subsystem.RANK_TRANSLATION)

    def _resolve_dest(self, comm, dest: int, flags: ExtFlags) -> int:
        return dest if flags.global_rank else comm.translation.world_rank(dest)

    @fastpath
    def _charge_match_bits(self, proc, comm, flags: ExtFlags,
                           mandatory: MandatoryCosts) -> None:
        """Section 3.6: full match bits, arrival-order bits, or the
        single-load form when the context is static (3.6 + 3.3)."""
        if flags.nomatch:
            static_ctx = (flags.static_comm or flags.global_rank
                          or comm.is_predefined_handle)
            n = (self.costs.nomatch_bits_static if static_ctx
                 else self.costs.nomatch_bits)
            proc.charge(_MAND, n, Subsystem.MATCH_BITS)
        else:
            proc.charge(_MAND, mandatory.match_bits, Subsystem.MATCH_BITS)

    # ------------------------------------------------------------------ #
    # point-to-point                                                      #
    # ------------------------------------------------------------------ #

    @fastpath
    def isend(self, op: SendOp) -> Optional[Request]:
        """Issue a send; returns None under the noreq extension.

        The charges are two plans, applied before and after the
        destination lookup: that lookup is the one step whose failure
        depends on the argument's value (an invalid rank in a build
        without error checking), and failing there must leave exactly
        the charges made before it."""
        proc = self.proc
        flags = op.flags
        comm = op.comm
        null = op.dest == PROC_NULL
        shape = ("isend", flags, comm.is_predefined_handle,
                 type(comm.translation), op.dtref.usage, null, op.sync)
        plans = self.plans.get(shape)
        if plans is None:
            # First call of this shape: record what each step charges,
            # up to where the shape leaves the path.
            c = self.costs
            man = c.isend_mandatory
            rec = ChargeRecorder(proc)
            self._charge_object_lookup(rec, flags, comm.is_predefined_handle,
                                       man)
            self._charge_redundant(rec, op.dtref, c.isend_redundant)
            # Section 3.4: MPI_PROC_NULL.
            if flags.no_proc_null:
                leaves = null and proc.config.error_checking
            else:
                rec.charge(_MAND, man.proc_null, Subsystem.PROC_NULL)
                leaves = null
            if not leaves:
                self._charge_rank_translation(rec, comm, flags, man)
            head = rec.plan()
            rec = ChargeRecorder(proc)
            if not leaves:
                self._charge_match_bits(rec, comm, flags, man)
                # Section 3.5: per-operation request vs bulk counter.
                if not flags.noreq:
                    rec.charge(_MAND, man.request_mgmt,
                               Subsystem.REQUEST_MGMT)
                elif not op.sync:
                    rec.charge(_MAND, c.noreq_counter_inc,
                               Subsystem.REQUEST_MGMT)
                if not (flags.noreq and op.sync):
                    # Descriptor fill (fused under the combined
                    # extensions, §3.7).
                    desc = (c.fused_descriptor_isend if flags.fused_pt2pt
                            else man.descriptor)
                    rec.charge(_MAND, desc, Subsystem.DESCRIPTOR)
            plans = self.plans[shape] = (head, rec.plan())
        head, tail = plans
        proc.apply_plan(head)

        if flags.no_proc_null:
            if proc.config.error_checking and null:
                raise MPIErrRank(
                    f"{op.mpi_name}: NPN routine called with MPI_PROC_NULL")
        elif null:
            return self._null_send(op)

        dest_world = self._resolve_dest(comm, op.dest, flags)
        proc.apply_plan(tail)
        env = Envelope(ctx=comm.ctx, src=comm.rank, tag=op.tag,
                       nomatch=flags.nomatch)

        if flags.noreq:
            if op.sync:
                raise MPIErrArg("synchronous mode cannot combine with noreq")
            request = None
        else:
            request = proc.request_pool.acquire(RequestKind.SEND)

        # Zero-copy fast path: the payload borrows the application
        # buffer; the request pins the view until recycled.  Fault-
        # injected builds keep the snapshot (the retransmit stash
        # holds payloads across calls).
        payload = pack(op.buf, op.count, op.dtref.datatype,
                       copy=not proc.config.zero_copy
                       or proc.faults is not None)
        if request is not None:
            request._keepalive = payload
        if proc.sanitizer is not None and request is not None:
            proc.sanitizer.note_send(request, dest_world, op.sync, payload,
                                     (op.buf, op.count, op.dtref.datatype))
        # Injection lane: the VCI owning this send's (ctx, dest, tag)
        # stream (None in the unsharded build; bookkeeping only).
        vci = proc.vci_for(comm.ctx, op.dest, op.tag, flags.nomatch)
        transport = self._transport_for(dest_world)
        native = (not self.force_am
                  and transport.send_is_native(op.dtref.datatype.contig))

        sync = None
        if op.sync:
            sync = SyncState(request=request,
                             ack_latency_s=transport.spec.latency_s)

        # Large payloads go rendezvous (RTS/CTS round trip on the wire;
        # CH4's netmod handles it without extra fast-path instructions).
        threshold = (proc.config.eager_threshold
                     if proc.config.eager_threshold is not None
                     else transport.spec.rendezvous_threshold)
        rendezvous = len(payload) > threshold
        if rendezvous:
            self.n_rendezvous += 1
        else:
            self.n_eager += 1

        result = transport.issue(len(payload), native, vci=vci)
        arrive = result.arrive_s
        complete = result.complete_s
        if rendezvous:
            arrive += 2.0 * transport.spec.latency_s
            complete = proc.vclock.now + 2.0 * transport.spec.latency_s
        if vci is not None:
            vci.completion.note("send", complete)
        msg = Message(env=env, data=payload, arrive_s=arrive, sync=sync)
        proc.deliver(dest_world, msg)

        if request is None:
            comm.note_noreq_issue(complete)
            return None
        if not op.sync:
            # Rendezvous completion (CTS arrival) is background-capable:
            # with a progress engine the precomputed completion parks on
            # the VCI's lane and the engine thread retires it — same
            # virtual time, same charges, zero user polls.  Eager and
            # progress=None builds complete inline as always.
            if rendezvous and proc.progress is not None:
                proc.progress.park_completion(vci, transport, request,
                                              complete)
                return request
            request.complete(complete)
        return request

    @fastpath
    def _null_send(self, op: SendOp) -> Optional[Request]:
        """Communication to MPI_PROC_NULL 'succeeds immediately'.

        Immediate is not free: the standard path must still hand back a
        completable handle (§3.5) — or bump the bulk counter under the
        noreq extension — so request management is charged exactly as
        on the wire-bound path.  (Found by the FP104 audit rule: this
        acquired and completed a request without charging for it.)
        """
        proc = self.proc
        noreq = op.flags.noreq
        shape = ("null_send", noreq)
        plan = self.plans.get(shape)
        if plan is None:
            c = self.costs
            rec = ChargeRecorder(proc)
            if noreq:
                rec.charge(_MAND, c.noreq_counter_inc, Subsystem.REQUEST_MGMT)
            else:
                rec.charge(_MAND, c.isend_mandatory.request_mgmt,
                           Subsystem.REQUEST_MGMT)
            plan = self.plans[shape] = rec.plan()
        proc.apply_plan(plan)
        if noreq:
            op.comm.note_noreq_issue(proc.vclock.now)
            return None
        request = proc.request_pool.acquire(RequestKind.SEND)
        request.complete(proc.vclock.now)
        return request

    @fastpath
    def irecv(self, op: RecvOp) -> Request:
        """Post a receive.

        The charge structure mirrors :meth:`isend` — the paper omits
        MPI_IRECV's analysis because "the software path is largely
        identical ... for network APIs that support matching".
        """
        proc = self.proc
        flags = op.flags
        comm = op.comm
        source = op.source
        peer = source if source in (PROC_NULL, ANY_SOURCE) else 0
        shape = ("irecv", flags, comm.is_predefined_handle,
                 type(comm.translation), op.dtref.usage, peer)
        plan = self.plans.get(shape)
        if plan is None:
            # First call of this shape: record what each step charges,
            # up to where the shape leaves the path.
            c = self.costs
            man = c.isend_mandatory
            rec = ChargeRecorder(proc)
            self._charge_object_lookup(rec, flags, comm.is_predefined_handle,
                                       man)
            self._charge_redundant(rec, op.dtref, c.isend_redundant)
            # Charged with the acquire so the PROC_NULL early return
            # pays for the handle it hands back (audit rule FP104).
            rec.charge(_MAND, man.request_mgmt, Subsystem.REQUEST_MGMT)
            if flags.no_proc_null:
                leaves = peer == PROC_NULL and proc.config.error_checking
            else:
                rec.charge(_MAND, man.proc_null, Subsystem.PROC_NULL)
                leaves = peer == PROC_NULL
            if not leaves:
                if peer != ANY_SOURCE:
                    self._charge_rank_translation(rec, comm, flags, man)
                self._charge_match_bits(rec, comm, flags, man)
                desc = (c.fused_descriptor_isend if flags.fused_pt2pt
                        else man.descriptor)
                rec.charge(_MAND, desc, Subsystem.DESCRIPTOR)
            plan = self.plans[shape] = rec.plan()
        proc.apply_plan(plan)
        request = proc.request_pool.acquire(RequestKind.RECV)

        if flags.no_proc_null:
            if proc.config.error_checking and source == PROC_NULL:
                raise MPIErrRank(
                    f"{op.mpi_name}: NPN routine called with MPI_PROC_NULL")
        elif source == PROC_NULL:
            # Standard: receive from PROC_NULL completes immediately
            # with source=PROC_NULL, tag=ANY_TAG, zero data.
            request.complete(proc.vclock.now, source=PROC_NULL,
                             tag=-1, count_bytes=0)
            return request

        buf = op.buf
        count = op.count
        datatype = op.dtref.datatype

        def on_match(msg: Message) -> None:
            try:
                if buf is None:
                    # Bufferless receive: the payload outlives the
                    # sender's buffer, so take ownership.
                    request.payload = msg.owned_data()
                else:
                    unpack(msg.data, buf, count, datatype)
                request.complete(msg.arrive_s, source=msg.env.src,
                                 tag=msg.env.tag, count_bytes=len(msg.data))
            except BaseException as exc:  # noqa: BLE001 - handed to waiter
                request.complete(msg.arrive_s, source=msg.env.src,
                                 tag=msg.env.tag, count_bytes=len(msg.data),
                                 error=exc)

        if proc.sanitizer is not None:
            proc.sanitizer.note_recv(
                request, None if op.source == ANY_SOURCE
                else comm.translation.world_rank(op.source))
        posted = PostedRecv(ctx=comm.ctx, src=op.source, tag=op.tag,
                            nomatch=flags.nomatch, request=request,
                            on_match=on_match)
        proc.engine.post(posted, now_s=proc.vclock.now)
        if proc.faults is not None:
            # This rank is about to block: release any outgoing packet
            # still parked in the wire's reorder stash so a peer is
            # never starved by a receiver that stopped sending.
            proc.faults.drain()
            # Tracked *after* posting so a message already waiting in
            # the unexpected queue wins over a concurrent peer-death
            # notification (ULFM: a matched receive is not in error).
            proc.faults.note_recv(
                request, None if op.source == ANY_SOURCE
                else comm.translation.world_rank(op.source), comm)
        return request

    # ------------------------------------------------------------------ #
    # one-sided                                                           #
    # ------------------------------------------------------------------ #

    @fastpath
    def _rma_prologue(self, op, mandatory: MandatoryCosts,
                      redundant: RedundantCheckCosts):
        """Shared RMA path: object lookup, PROC_NULL, rank translation,
        address resolution.  Returns (target_world, state, offset_bytes)
        or None when the target is PROC_NULL (no-op per the standard)."""
        proc, c = self.proc, self.costs
        flags = op.flags
        win = op.win

        self._charge_object_lookup(proc, flags, win.is_predefined_handle,
                                   mandatory)
        self._charge_redundant(proc, op.origin_dtref, redundant)

        if flags.no_proc_null:
            if proc.config.error_checking and op.target_rank == PROC_NULL:
                raise MPIErrRank(
                    f"{op.mpi_name}: NPN routine called with MPI_PROC_NULL")
        else:
            proc.charge(_MAND, mandatory.proc_null, Subsystem.PROC_NULL)
            if op.target_rank == PROC_NULL:
                return None

        self._charge_rank_translation(proc, win.comm, flags, mandatory)
        target_world = self._resolve_dest(win.comm, op.target_rank, flags)
        state = win.state_of(target_world)

        # Section 3.2: offset -> virtual address translation.
        if flags.virtual_addr:
            proc.charge(_MAND, c.virtual_addr_lookup,
                        Subsystem.VM_ADDRESSING)
            offset_bytes = op.target_disp
        else:
            proc.charge(_MAND, mandatory.vm_addressing,
                        Subsystem.VM_ADDRESSING)
            offset_bytes = op.target_disp * state.disp_unit
        return target_world, state, offset_bytes

    @fastpath
    def _charge_rma_descriptor(self, flags: ExtFlags,
                               mandatory: MandatoryCosts) -> None:
        desc = (self.costs.fused_descriptor_put if flags.fused_rma
                else mandatory.descriptor)
        self.proc.charge(_MAND, desc, Subsystem.DESCRIPTOR)

    @fastpath
    def put(self, op: PutOp) -> None:
        """One-sided put: remote write into the target window."""
        c = self.costs
        resolved = self._rma_prologue(op, c.put_mandatory, c.put_redundant)
        if resolved is None:
            return
        target_world, state, offset_bytes = resolved
        self._charge_rma_descriptor(op.flags, c.put_mandatory)

        data = pack(op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        expect = packed_size(op.target_count, op.target_dtref.datatype)
        if len(data) != expect:
            raise MPIErrArg(
                f"{op.mpi_name}: origin carries {len(data)} bytes but the "
                f"target layout holds {expect}")

        if self.proc.faults is not None:
            self.proc.faults.rma_transmit(target_world, op.mpi_name)
        transport = self._transport_for(target_world)
        contig = (op.origin_dtref.datatype.contig
                  and op.target_dtref.datatype.contig)
        native = not self.force_am and transport.rma_is_native(contig)
        vci = self.proc.vci_for(op.win.comm.ctx, op.target_rank, 0)
        result = transport.issue(len(data), native, vci=vci)
        if vci is not None:
            vci.completion.note("rma", result.arrive_s)
        am.run_handler("put", state, data=data, offset_bytes=offset_bytes,
                       target_count=op.target_count,
                       target_datatype=op.target_dtref.datatype)
        op.win.note_pending(target_world, result.arrive_s)

    @fastpath
    def get(self, op: GetOp) -> None:
        """One-sided get: remote read from the target window."""
        c = self.costs
        resolved = self._rma_prologue(op, c.put_mandatory, c.put_redundant)
        if resolved is None:
            return
        target_world, state, offset_bytes = resolved
        self._charge_rma_descriptor(op.flags, c.put_mandatory)

        nbytes = packed_size(op.origin_count, op.origin_dtref.datatype)
        expect = packed_size(op.target_count, op.target_dtref.datatype)
        if nbytes != expect:
            raise MPIErrArg(
                f"{op.mpi_name}: origin holds {nbytes} bytes but the "
                f"target layout carries {expect}")

        if self.proc.faults is not None:
            self.proc.faults.rma_transmit(target_world, op.mpi_name)
        transport = self._transport_for(target_world)
        contig = (op.origin_dtref.datatype.contig
                  and op.target_dtref.datatype.contig)
        native = not self.force_am and transport.rma_is_native(contig)
        vci = self.proc.vci_for(op.win.comm.ctx, op.target_rank, 0)
        result = transport.issue(nbytes, native, round_trip=True, vci=vci)
        if vci is not None:
            vci.completion.note("rma", result.complete_s)
        data = am.run_handler("get", state, offset_bytes=offset_bytes,
                              target_count=op.target_count,
                              target_datatype=op.target_dtref.datatype)
        unpack(data, op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        op.win.note_pending(target_world, result.complete_s)

    @fastpath
    def accumulate(self, op: AccOp) -> Optional[bytes]:
        """One-sided accumulate (and GET_ACCUMULATE when fetch_buf set)."""
        c = self.costs
        resolved = self._rma_prologue(op, c.put_mandatory, c.put_redundant)
        if resolved is None:
            return None
        target_world, state, offset_bytes = resolved
        self._charge_rma_descriptor(op.flags, c.put_mandatory)

        data = pack(op.origin_buf, op.origin_count, op.origin_dtref.datatype)
        if self.proc.faults is not None:
            self.proc.faults.rma_transmit(target_world, op.mpi_name)
        transport = self._transport_for(target_world)
        contig = (op.origin_dtref.datatype.contig
                  and op.target_dtref.datatype.contig)
        native = (not self.force_am
                  and transport.rma_is_native(contig, atomic=True))
        round_trip = op.fetch_buf is not None
        vci = self.proc.vci_for(op.win.comm.ctx, op.target_rank, 0)
        result = transport.issue(len(data), native, round_trip=round_trip,
                                 vci=vci)
        if vci is not None:
            vci.completion.note("rma", result.complete_s
                                if round_trip else result.arrive_s)
        before = am.run_handler(
            "accumulate", state, data=data, offset_bytes=offset_bytes,
            target_count=op.target_count,
            target_datatype=op.target_dtref.datatype, op=op.op,
            fetch=op.fetch_buf is not None)
        if op.fetch_buf is not None:
            unpack(before, op.fetch_buf, op.origin_count,
                   op.origin_dtref.datatype)
            op.win.note_pending(target_world, result.complete_s)
        else:
            op.win.note_pending(target_world, result.arrive_s)
        return before
