"""The real-clock interpreter of SPMD rank programs.

Both wall-clock backends -- :class:`~repro.exec.thread.ThreadBackend`
(one thread per rank) and :class:`~repro.exec.process.ProcessBackend`
(one forked worker per rank) -- run every rank through
:func:`interpret_rank`.  The generator runs the actual numpy work between
yields; ops are interpreted as real communication (inbox puts, ``(src,
tag)``-matched receives, barriers) or as pure accounting (compute/disk
charges, whose *real* duration is the measured interval since the previous
op).  Clocks and :class:`~repro.cluster.runtime.TraceEvent` intervals are
``time.monotonic`` seconds against a common epoch, and the per-rank stats
dict it returns is what :func:`repro.exec.stats.merge_rank_stats` folds.

What genuinely differs between the two backends is passed in as plain
callables:

- ``align(await_message) -> epoch`` -- the start-of-run rendezvous that
  rebases every rank's clock to one instant (a ``threading.Barrier``
  action versus the supervised barrier);
- ``barrier(await_message)`` -- a :class:`~repro.cluster.runtime.BarrierOp`
  (a ``threading.Barrier`` wait versus the supervised ``("barrier", rank,
  incarnation, seq)`` handshake, whose release token arrives through the
  rank's own inbox -- hence ``await_message``);
- ``on_op(op_index, op_kind, clock)`` -- the per-op hook (the process
  worker's heartbeat and snapshot);
- ``on_done()`` -- the terminal hook (the process worker's last snapshot).

The virtual-clock simulator (:func:`repro.cluster.runtime.run_spmd`) has
its own discrete-event loop: it charges a cost model instead of measuring
time, so it shares no dispatch with this one.
"""

from __future__ import annotations

import queue as queue_mod
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.cluster.faults import FaultPlan, FaultStats
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import CommStats
from repro.cluster.network import payload_elements, payload_nbytes
from repro.cluster.runtime import (
    BarrierOp,
    ComputeOp,
    DiskReadOp,
    DiskWriteOp,
    MONOTONIC_TIMEOUTS,
    RECV_TIMEOUT,
    RankEnv,
    RecvOp,
    SendOp,
    SleepOp,
    TraceEvent,
)
from repro.exec.base import ProgramFactory
from repro.exec.chaos import NULL_CHAOS, ChaosAgent
from repro.obs.live import RankProbe
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer

__all__ = ["AwaitMessage", "WorkerError", "interpret_rank"]

#: ``await_message(src, tag, deadline)``: the next ``(src, tag)`` payload,
#: or :data:`~repro.cluster.runtime.RECV_TIMEOUT` once the rank clock
#: passes ``deadline`` (``None``: wait up to the watchdog).
AwaitMessage = Callable[[int, int, float | None], Any]


class WorkerError(RuntimeError):
    """A rank (or the supervised run as a whole) failed.

    Beyond the message, carries a structured post-mortem when the
    supervisor produced one: the failing ``rank`` (``None`` for host-side
    failures such as the watchdog), its ``exit_code`` and decoded
    ``signal_name`` (``"SIGKILL"``) when it died on a signal, the
    formatted ``post_mortem`` string, and per-rank
    :class:`~repro.exec.supervisor.RankIncident` entries in ``incidents``
    -- including the last trace events of surviving ranks on traced runs.

    ``is_barrier_break`` marks a symptom rather than a cause: a rank
    released from a barrier because a peer failed.  The thread backend
    reports the peer's root cause instead of such an echo.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: int | None = None,
        exit_code: int | None = None,
        signal_name: str | None = None,
        post_mortem: str = "",
        incidents: Sequence[Any] = (),
        is_barrier_break: bool = False,
    ) -> None:
        super().__init__(
            f"{message}\n{post_mortem}" if post_mortem else message
        )
        self.rank = rank
        self.exit_code = exit_code
        self.signal_name = signal_name
        self.post_mortem = post_mortem
        self.incidents = list(incidents)
        self.is_barrier_break = is_barrier_break


def interpret_rank(
    rank: int,
    num_ranks: int,
    machine: MachineModel,
    program_factory: ProgramFactory,
    inboxes: Sequence[Any],
    *,
    align: Callable[[AwaitMessage], float],
    barrier: Callable[[AwaitMessage], None],
    watchdog_s: float,
    record_trace: bool,
    faults: FaultPlan | None,
    incarnation: int = 0,
    probe: RankProbe | None = None,
    on_op: Callable[[int, str, float], None] | None = None,
    on_done: Callable[[], None] | None = None,
) -> dict[str, Any]:
    """Interpret one rank's program in real time; returns its stats.

    ``inboxes`` are per-rank queues of ``(src, tag, payload)`` with
    ``put`` and ``get(timeout=)``.  A
    :class:`~repro.exec.chaos.ChaosAgent` intercepts op boundaries for
    the fault subset the backend declared; respawned incarnations run
    disarmed.  ``probe``, when given, is bound to this rank's live state
    and updated at every op boundary.
    """
    fstats = FaultStats()
    env = RankEnv(
        rank=rank,
        num_ranks=num_ranks,
        machine=machine,
        incarnation=incarnation,
        _fault_stats=fstats,
        timeouts=MONOTONIC_TIMEOUTS,
    )
    chaos = (
        ChaosAgent(faults, rank, incarnation, machine)
        if faults is not None
        else NULL_CHAOS
    )
    inbox = inboxes[rank]
    mailbox: dict[tuple[int, int], deque[Any]] = {}
    trace: list[TraceEvent] = []
    comm = CommStats()
    # Provisional clock origin; ``align`` returns the cohort's shared one
    # before the program starts.
    epoch = time.monotonic()

    def now() -> float:
        return time.monotonic() - epoch

    if record_trace:
        # Per-rank tracer on the shared monotonic epoch and a per-rank
        # registry; the host merges both when the stats come back.
        env.tracer = Tracer(rank=rank, clock=now)
        env.obs = MetricsRegistry()

    if probe is not None:
        # Bind the snapshot-bus probe to this rank's real state; readers
        # take these references without locks (each is one atomic
        # reference under the GIL; torn reads are diagnostic).
        probe.env = env
        probe.tracer = env.tracer
        probe.comm = comm
        probe.clock = now

    def await_message(src: int, tag: int, deadline: float | None) -> Any:
        """Next ``(src, tag)`` payload; :data:`RECV_TIMEOUT` past deadline."""
        hard = now() + watchdog_s
        while True:
            box = mailbox.get((src, tag))
            if box:
                return box.popleft()
            limit = hard if deadline is None else min(deadline, hard)
            wait = limit - now()
            if wait <= 0:
                if deadline is not None and now() >= deadline:
                    return RECV_TIMEOUT
                raise WorkerError(
                    f"rank {rank}: no message from {src} tag {tag} after "
                    f"{watchdog_s:.0f}s (likely deadlock or a dead peer)",
                    rank=rank,
                )
            try:
                msrc, mtag, payload = inbox.get(timeout=wait)
            except queue_mod.Empty:
                continue
            mailbox.setdefault((msrc, mtag), deque()).append(payload)

    # Align every rank's timeline at the start rendezvous so span/op start
    # times are comparable across lanes (spawn skew would otherwise show
    # up as phantom head-of-run work on the late ranks).
    epoch = align(await_message)

    gen = program_factory(env)
    resume: Any = None
    result: Any = None
    op_index = 0
    t_prev = now()
    while True:
        try:
            op = gen.send(resume)
        except StopIteration as stop:
            result = stop.value
            break
        # The chaos boundary: the program code *behind* this yield has run,
        # the op itself has not been interpreted -- the same instant the
        # simulator's op-indexed kill fires at, which is what makes seeded
        # crashes land on the identical protocol state on both backends.
        chaos.before_op(op_index)
        t_yield = now()
        env.clock = t_yield
        if probe is not None:
            probe.op_index = op_index
            probe.op_kind = type(op).__name__
        if on_op is not None:
            on_op(op_index, type(op).__name__, t_yield)
        resume = None
        if isinstance(op, ComputeOp):
            extra = chaos.compute_delay_s(t_yield - t_prev)
            if extra > 0.0:
                time.sleep(extra)
                t_yield = now()
                env.clock = t_yield
            env.compute_ops += op.element_ops
            if record_trace and t_yield > t_prev:
                trace.append(TraceEvent(rank, "compute", t_prev, t_yield))
        elif isinstance(op, SendOp):
            nbytes = payload_nbytes(op.payload)
            delay = chaos.send_delay_s(nbytes, t_yield)
            if delay > 0.0:
                time.sleep(delay)
            copies = chaos.deliveries(op.dst)
            for _ in range(copies):
                inboxes[op.dst].put((rank, op.tag, op.payload))
                # The simulator's network charges every posted copy, so a
                # duplicated delivery counts twice here too.
                comm.record(rank, op.dst, nbytes, payload_elements(op.payload))
            t_done = now()
            if record_trace:
                trace.append(
                    TraceEvent(
                        rank, "send", t_yield, t_done,
                        f"to {op.dst} ({nbytes}B)",
                        peer=op.dst, tag=op.tag, nbytes=nbytes,
                    )
                )
            if copies > 1:
                fstats.note(
                    "duplicate", t_done, rank,
                    f"{rank}->{op.dst} tag {op.tag} ({nbytes}B)",
                )
                if record_trace:
                    trace.append(
                        TraceEvent(
                            rank, "fault", t_done, t_done,
                            f"duplicate to {op.dst}",
                            peer=op.dst, tag=op.tag, nbytes=nbytes,
                        )
                    )
        elif isinstance(op, RecvOp):
            deadline = None if op.timeout is None else t_yield + op.timeout
            resume = await_message(op.src, op.tag, deadline)
            t_done = now()
            if resume is RECV_TIMEOUT:
                fstats.note(
                    "timeout", t_done, rank, f"recv from {op.src} tag {op.tag}"
                )
                if record_trace:
                    trace.append(
                        TraceEvent(
                            rank, "wait", t_yield, t_done,
                            f"timeout (from {op.src} tag {op.tag})",
                            peer=op.src, tag=op.tag,
                        )
                    )
                    trace.append(
                        TraceEvent(
                            rank, "fault", t_done, t_done,
                            f"timeout from {op.src}", peer=op.src, tag=op.tag,
                        )
                    )
            elif record_trace:
                trace.append(
                    TraceEvent(
                        rank, "recv", t_yield, t_done,
                        f"from {op.src} ({payload_nbytes(resume)}B)",
                        peer=op.src, tag=op.tag, nbytes=payload_nbytes(resume),
                    )
                )
        elif isinstance(op, DiskWriteOp):
            env.disk_bytes_written += op.nbytes
            if record_trace and t_yield > t_prev:
                trace.append(TraceEvent(rank, "disk", t_prev, t_yield, "write"))
        elif isinstance(op, DiskReadOp):
            env.disk_bytes_read += op.nbytes
            if record_trace and t_yield > t_prev:
                trace.append(TraceEvent(rank, "disk", t_prev, t_yield, "read"))
        elif isinstance(op, SleepOp):
            time.sleep(op.seconds)
            if record_trace:
                trace.append(TraceEvent(rank, "wait", t_yield, now(), "sleep"))
        elif isinstance(op, BarrierOp):
            barrier(await_message)
            if record_trace:
                trace.append(TraceEvent(rank, "barrier", t_yield, now()))
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")
        op_index += 1
        t_prev = now()

    env.clock = now()
    if probe is not None:
        # Terminal state: rates and peak memory reach their final values,
        # and the live view can render the rank as done.
        probe.op_index = op_index
        probe.op_kind = "done"
        probe.done = True
    if on_done is not None:
        on_done()
    return {
        "result": result,
        "clock": env.clock,
        "peak_memory_elements": env.peak_memory_elements,
        "compute_ops": env.compute_ops,
        "disk_bytes_written": env.disk_bytes_written,
        "disk_bytes_read": env.disk_bytes_read,
        "comm": comm,
        "trace": trace,
        "faults": fstats,
        "spans": env.tracer.spans if record_trace else [],
        "samples": env.tracer.samples if record_trace else [],
        "registry": env.obs if record_trace else None,
    }
