"""Record model streams by running the real rank programs.

The model checker and the plan verifier read what the schedulers' own rank
programs do, not hand-written copies of them.  :func:`record` drives the
program a backend would run -- :meth:`~repro.sched.base.Scheduler.rank_program`,
or the fault-tolerant Fig 5 program for ``detection_round`` -- on every
rank cooperatively over a FIFO mailbox, and logs each rank's sends,
receives and barriers plus the ``env.alloc`` / ``env.free`` ledger of its
:class:`RecordingEnv`, in program order.

This is exact because communication depends only on shape, bits and
options, never on values.  Each rank gets an empty sparse block of its
exact block shape, and the programs run with a private shape-only measure
whose partials are zero-stride views: every size is exact, no kernel works.

- ``step`` is an op's index in its rank's stream, the index a
  ``kill=(rank, op)`` scenario counts.
- ``edge`` is the payload's group-by, cleared on a message whose receiver
  later ships that group-by on (an intermediate lead, as in the shuffle
  program's multi-round reductions): only final holders are SPMD004 leads.
- ``kill=(rank, op)`` ends that rank once it has emitted ``op`` model ops.
  A timeout receive from a rank resolves to ``RECV_TIMEOUT`` only once that
  rank has stopped with nothing queued, so each survivor perceives the
  death exactly as far as its own heartbeats allow.  When every live rank
  is blocked, the blocked receives and barriers end their streams and
  recording stops; the explorer reports the stall (MC305/MC306).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence, cast

import numpy as np

from repro.analysis.model.ops import (
    MAlloc,
    MBarrier,
    MFree,
    MOp,
    MRecv,
    MSend,
    ModelProgram,
)
from repro.arrays.chunking import BlockPartition
from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure
from repro.arrays.sparse import SparseArray
from repro.cluster.machine import MachineModel
from repro.cluster.network import payload_elements
from repro.cluster.runtime import BarrierOp, Op, RankEnv, RecvOp, RECV_TIMEOUT, SendOp
from repro.cluster.topology import ProcessorGrid

if TYPE_CHECKING:
    from repro.analysis.verify_plan import CommSchedule
    from repro.arrays.persist import CheckpointStore
    from repro.core.parallel import PStep
    from repro.sched.base import Scheduler

__all__ = ["Recording", "RecordingEnv", "fig5_program", "program_for", "record"]

#: Any rank program (plain ones return their nodes, the fault-tolerant one
#: its nodes per virtual rank).
Program = Callable[[RankEnv], Generator[Op, Any, Any]]


def _zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(np.zeros((), dtype=np.float64), shape)


class _ShapeOnly(Measure):
    """A measure whose partials have exact shapes and no storage."""

    def new_accumulator(self, size: int, dtype: Any = np.float64) -> np.ndarray:
        return _zeros((size,))


_SHAPE_ONLY = _ShapeOnly(
    name="shape-only",
    identity=0.0,
    reduce_dense=lambda data, axes: _zeros(
        tuple(s for i, s in enumerate(data.shape) if i not in axes)
    ),
    scatter=lambda flat, idx, values: None,
    combine=lambda acc, other: acc,
)


class _NullStore:
    """Keeps no checkpoints, so adopters re-aggregate the dead rank's block
    (which allocates the same partials a checkpoint read would)."""

    def load(self, *args: Any) -> None:
        return None

    save = commit = committed_epoch = load_committed = load


def _empty_blocks(shape: tuple[int, ...], grid: ProcessorGrid) -> list[SparseArray | DenseArray]:
    partition = BlockPartition(shape, grid.parts)
    return [SparseArray(partition.local_shape(grid.label(r)), []) for r in grid.ranks()]


def _check_lengths(shape: Sequence[int], bits: Sequence[int]) -> None:
    if len(shape) != len(bits):
        raise ValueError("shape and bits must have equal length")


def fig5_program(
    schedule: "Sequence[PStep]",
    shape: Sequence[int],
    bits: Sequence[int],
    *,
    detection_round: bool = False,
) -> Program:
    """The plain or fault-tolerant Fig 5 program of ``schedule``, to record."""
    from repro.core.parallel import _make_program_ft, make_fig5_program

    _check_lengths(shape, bits)
    shape = tuple(shape)
    grid = ProcessorGrid(bits)
    blocks = _empty_blocks(shape, grid)
    if detection_round:
        store = cast("CheckpointStore", _NullStore())
        return _make_program_ft(list(schedule), grid, blocks, len(shape), _SHAPE_ONLY, store, None)
    return make_fig5_program(list(schedule), grid, blocks, len(shape), "flat", _SHAPE_ONLY)


def program_for(
    sched: "Scheduler",
    shape: Sequence[int],
    bits: Sequence[int],
    *,
    detection_round: bool = False,
) -> Program:
    """The program a build with ``sched`` runs, to record.

    ``detection_round`` selects the fault-tolerant program, which only
    schedulers accepting ``checkpoint=True`` have.
    """
    _check_lengths(shape, bits)
    shape, bits = tuple(shape), tuple(bits)
    sched.validate_shape(shape)
    if detection_round:
        from repro.sched.fig5 import fig5_schedule

        sched.validate_options(checkpoint=True)
        return fig5_program(fig5_schedule(len(shape)), shape, bits, detection_round=True)
    grid = ProcessorGrid(bits)
    return sched.rank_program(shape, bits, grid, _empty_blocks(shape, grid), measure=_SHAPE_ONLY)


class _Killed(Exception):
    """The rank used up its kill budget of model ops."""


@dataclass
class RecordingEnv(RankEnv):
    """A :class:`RankEnv` that logs its memory ledger as model ops.

    ``budget`` (a kill scenario) caps how many model ops the rank emits;
    the next one raises inside the program and ends it there.
    """

    stream: list[MOp] = field(default_factory=list)
    budget: int | None = None

    def emit(self, op: MOp) -> int:
        """Append ``op`` and return its index, or die at the kill budget."""
        if self.budget is not None and len(self.stream) >= self.budget:
            raise _Killed
        self.stream.append(op)
        return len(self.stream) - 1

    def alloc(self, key: Any, elements: int) -> None:
        self.emit(MAlloc(self.rank, key, int(elements), step=len(self.stream)))
        super().alloc(key, elements)

    def free(self, key: Any) -> None:
        self.emit(MFree(self.rank, key, step=len(self.stream)))
        super().free(key)


@dataclass
class Recording:
    """One recorded run: the streams, plus the order communication ran in.

    ``order`` holds ``(rank, index)`` per send or receive and a tuple of
    those per released barrier episode.
    """

    program: ModelProgram
    order: list[Any]
    rank_peak_memory_elements: list[int]

    def comm_schedule(self) -> "CommSchedule":
        """The streams flattened into a :class:`CommSchedule`, in run order."""
        from repro.analysis.verify_plan import CommSchedule, SymBarrier, SymOp, SymRecv, SymSend

        streams = self.program.streams
        ops: list[SymOp] = []
        for event in self.order:
            if isinstance(event[0], tuple):
                ops.append(SymBarrier(tuple(r for r, _ in event), step=event[0][1]))
                continue
            op = streams[event[0]][event[1]]
            if isinstance(op, MSend):
                ops.append(SymSend(op.rank, op.dst, op.tag, op.elements, op.step, op.edge))
            elif isinstance(op, MRecv):
                ops.append(SymRecv(op.rank, op.src, op.tag, op.step, op.edge))
        prog = self.program
        return CommSchedule(
            prog.shape, prog.bits, prog.num_ranks, ops, list(self.rank_peak_memory_elements)
        )


def _edge(payload: Any) -> tuple[int, ...] | None:
    return payload.dims if isinstance(payload, DenseArray) else None


def record(
    factory: Program,
    shape: Sequence[int],
    bits: Sequence[int],
    *,
    scheduler: str = "fig5",
    kill: tuple[int, int] | None = None,
) -> Recording:
    """Run ``factory`` (from :func:`program_for` / :func:`fig5_program`) on
    every rank and record its streams; ``kill=(rank, op)`` ends that rank
    after ``op`` model ops."""
    grid = ProcessorGrid(bits)
    p = grid.size
    if kill is not None and not 0 <= kill[0] < p:
        raise ValueError(f"kill rank {kill[0]} out of range for p={p}")
    if kill is not None and kill[1] < 0:
        raise ValueError(f"kill op index must be >= 0, got {kill[1]}")
    machine = MachineModel()
    envs = [
        RecordingEnv(r, p, machine, budget=kill[1] if kill and kill[0] == r else None)
        for r in range(p)
    ]
    gens = [factory(env) for env in envs]
    stopped = [False] * p
    blocked: list[RecvOp | BarrierOp | None] = [None] * p
    mailbox: dict[tuple[int, int, int], deque[tuple[Any, int]]] = {}
    order: list[Any] = []
    # (send rank, send index, recv rank, recv index, payload group-by)
    pairs: list[tuple[int, int, int, int, Any]] = []

    def stop(r: int) -> None:
        gens[r].close()
        stopped[r] = True
        blocked[r] = None

    def emit(r: int, op: MOp) -> int | None:
        try:
            return envs[r].emit(op)
        except _Killed:
            stop(r)
            return None

    def run(r: int, value: Any = None) -> None:
        """Resume rank ``r`` with ``value`` until it blocks or stops."""
        blocked[r] = None
        while True:
            try:
                op = gens[r].send(value)
            except (_Killed, StopIteration):
                stop(r)
                return
            value = None
            if isinstance(op, SendOp):
                edge = _edge(op.payload)
                at = emit(r, MSend(r, op.dst, op.tag, payload_elements(op.payload),
                                   len(envs[r].stream), edge))
                if at is None:
                    return
                order.append((r, at))
                mailbox.setdefault((r, op.dst, op.tag), deque()).append((op.payload, at))
            elif isinstance(op, (RecvOp, BarrierOp)):
                blocked[r] = op
                return

    for r in range(p):
        run(r)
    while True:
        progressed = False
        for r in range(p):
            op = blocked[r]
            if not isinstance(op, RecvOp):
                continue
            queue = mailbox.get((op.src, r, op.tag))
            if not queue and not (op.timeout is not None and stopped[op.src]):
                continue
            progressed = True
            payload: Any = RECV_TIMEOUT
            sent: int | None = None
            if queue:
                payload, sent = queue.popleft()
            edge = _edge(payload)
            got = emit(r, MRecv(r, op.src, op.tag, len(envs[r].stream), edge,
                                op.timeout is not None))
            if got is None:
                continue
            order.append((r, got))
            if sent is not None:
                pairs.append((op.src, sent, r, got, edge))
            run(r, payload)
        if progressed:
            continue
        live = [r for r in range(p) if not stopped[r]]
        if not live or not all(isinstance(blocked[r], BarrierOp) for r in live):
            break
        arrived = [(r, emit(r, MBarrier(r, len(envs[r].stream)))) for r in live]
        episode = tuple((r, i) for r, i in arrived if i is not None)
        if episode:
            order.append(episode)
        for r, _ in episode:
            run(r)

    # Stalled: keep every wait that never completes, for the explorer.
    for r, op in enumerate(blocked):
        stream = envs[r].stream
        if isinstance(op, RecvOp):
            stream.append(MRecv(r, op.src, op.tag, len(stream), timeout=op.timeout is not None))
        elif isinstance(op, BarrierOp):
            stream.append(MBarrier(r, len(stream)))

    streams = [env.stream for env in envs]
    _clear_forwarded_edges(streams, pairs)
    program = ModelProgram(
        shape=tuple(shape),
        bits=tuple(bits),
        num_ranks=p,
        streams=tuple(tuple(s) for s in streams),
        scheduler=scheduler,
        kill=kill,
    )
    return Recording(program, order, [env.peak_memory_elements for env in envs])


def _clear_forwarded_edges(
    streams: list[list[MOp]], pairs: list[tuple[int, int, int, int, Any]]
) -> None:
    """Drop ``edge`` from messages whose receiver ships that group-by on."""
    last_ship: list[dict[Any, int]] = [
        {op.edge: i for i, op in enumerate(s) if isinstance(op, MSend) and op.edge is not None}
        for s in streams
    ]
    for src, si, dst, ri, edge in pairs:
        send, recv = streams[src][si], streams[dst][ri]
        assert isinstance(send, MSend) and isinstance(recv, MRecv)
        if edge is not None and last_ship[dst].get(edge, -1) > ri:
            streams[src][si] = replace(send, edge=None)
            streams[dst][ri] = replace(recv, edge=None)
