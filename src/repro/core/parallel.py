"""Parallel data cube construction (paper, Fig 5).

The algorithm runs on ``p = 2**k`` virtual processors arranged by
:class:`repro.cluster.topology.ProcessorGrid`: dimension ``j`` is block
partitioned across ``2**bits[j]`` of them.  Mirroring the paper:

1. Every processor locally aggregates its portion of a node's array into
   partial results for *all* the node's aggregation-tree children at once
   (maximal cache/memory reuse; for the root this is one scan of the sparse
   input block).
2. Each child is then *finalized* right-to-left: the ``2**bits[j]``
   processors of each reduction group along the aggregated dimension ``j``
   combine their partials onto the group's lead (label ``l_j == 0``), which
   thereafter holds the child's portion.  Non-leads discard their partials.
3. Recursion proceeds exactly as in the sequential Fig 3 schedule; deeper
   levels run only on the (shrinking) holder sets -- the paper's point that
   the dominant first level is fully parallel while deeper levels
   sequentialize some processors.
4. A node is written back (simulated disk) by its holders exactly once.

The run measures communication volume exactly (tests check it equals the
Theorem 3 closed form), per-rank held-results memory (Theorem 4), and a
makespan.  The rank program is backend-portable: under the default
``backend="sim"`` it executes on the deterministic simulator (makespan in
simulated seconds under the machine cost model); under
``backend="process"`` the *same* program runs on real OS processes with
shared-memory input blocks (:mod:`repro.exec`), producing bit-identical
results and wall-clock metrics.

Fault tolerance (``checkpoint=True``): every rank persists its first-level
partials to a :class:`~repro.arrays.persist.CheckpointStore` right after the
root scan, then the cluster runs one failure-detection round (barrier +
all-to-all heartbeats with receive timeouts).  Each surviving rank derives
the same dead set and the same dead->buddy substitution map; a dead rank's
reduction-group buddy re-reads the lost partials from the checkpoint (or
re-aggregates them from the dead rank's input block if it died before
checkpointing) and executes the dead rank's remaining schedule alongside its
own.  The cube that comes out is bit-exact identical to the fault-free run
under any single-rank crash occurring before the detection round completes.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Generator, Sequence

import numpy as np

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_multi
from repro.arrays.chunking import BlockPartition
from repro.arrays.dense import DEFAULT_DTYPE, DenseArray
from repro.arrays.measures import Measure, SUM, get_measure
from repro.arrays.sparse import SparseArray
from repro.cluster.collectives import (
    reduce_binomial,
    reduce_to_lead,
    reduce_to_lead_chunked,
)
from repro.cluster.faults import FaultPlan
from repro.cluster.machine import MachineModel
from repro.cluster.metrics import RunMetrics
from repro.cluster.network import Control
from repro.cluster.runtime import Op, RankEnv, RECV_TIMEOUT
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import AggregationTree
from repro.core.comm_model import total_comm_volume
from repro.core.config import BuildConfig, UNSET
from repro.core.lattice import Node, full_node, node_size
from repro.obs.span import NULL_TRACER, Tracer
from repro.util import node_name

if TYPE_CHECKING:
    from repro.arrays.persist import CheckpointStore
    from repro.cluster.faults import FaultStats
    from repro.exec.shm import SharedOutputArena


# -- parallel schedule -------------------------------------------------------------


@dataclass(frozen=True)
class PLocalAggregate:
    """All holders of ``node`` locally aggregate every child's partial."""

    node: Node
    children: tuple[Node, ...]


@dataclass(frozen=True)
class PFinalize:
    """Reduction groups along ``dim`` combine partials of ``child`` onto leads."""

    child: Node
    dim: int


@dataclass(frozen=True)
class PWriteBack:
    """Holders of ``node`` write their finalized portion to disk.

    With ``discard=True`` the node is freed without being written (used by
    partial materialization for ancestors that were only needed as
    intermediates).
    """

    node: Node
    discard: bool = False


PStep = PLocalAggregate | PFinalize | PWriteBack


# -- result container ----------------------------------------------------------------


@dataclass
class ParallelResult:
    """Outcome of one simulated parallel construction."""

    results: dict[Node, DenseArray] | None
    metrics: RunMetrics
    bits: tuple[int, ...]
    shape: tuple[int, ...]
    expected_comm_volume_elements: int
    #: Spec of the scheduler that planned this run (``"fig5"`` default).
    scheduler: str = "fig5"

    @property
    def comm_volume_elements(self) -> int:
        return self.metrics.comm.total_elements

    @property
    def comm_volume_bytes(self) -> int:
        return self.metrics.comm.total_bytes

    @property
    def simulated_time_s(self) -> float:
        return self.metrics.makespan_s

    @property
    def elapsed_s(self) -> float:
        """Backend-neutral makespan: simulated seconds on ``"sim"`` runs,
        wall-clock seconds on ``"process"`` runs."""
        return self.metrics.makespan_s

    @property
    def backend(self) -> str:
        """Name of the execution backend that produced this result."""
        return self.metrics.backend

    @property
    def max_peak_memory_elements(self) -> int:
        return self.metrics.max_peak_memory_elements

    @property
    def fault_stats(self) -> FaultStats:
        """Fault events observed during the run (``RunMetrics.faults``)."""
        return self.metrics.faults

    def __getitem__(self, node: Sequence[int]) -> DenseArray:
        if self.results is None:
            raise ValueError("run was executed with collect_results=False")
        return self.results[tuple(node)]


# -- the rank program ---------------------------------------------------------------------


def _combine_dense(acc: DenseArray, other: DenseArray) -> DenseArray:
    acc.data += other.data
    return acc


def _make_combiner(measure: Measure) -> Callable[[Any, Any], Any]:
    def combine(acc: DenseArray, other: DenseArray) -> DenseArray:
        measure.combine(acc.data, other.data)
        return acc

    return combine


def make_fig5_program(
    schedule: list[PStep],
    grid: ProcessorGrid,
    local_inputs: list[SparseArray | DenseArray],
    n: int,
    reduction: str,
    measure: Measure = SUM,
    max_message_elements: int | None = None,
    outputs: "SharedOutputArena | None" = None,
) -> Callable[[RankEnv], Generator[Op, Any, dict[Node, Any]]]:
    """Build the Fig 5 rank program for ``schedule`` (the step-list IR).

    This is the interpreter behind the ``fig5`` and ``marginals-<k>``
    schedulers: one generator per rank walking the shared step list, with
    the reduction collectives doing the communication.  Kept here (not in
    :mod:`repro.sched`) because the step dataclasses, the fault-tolerant
    variant, and the partial-materialization path all share it.

    When ``outputs`` is a :class:`~repro.exec.shm.SharedOutputArena`, each
    lead writes its finalized portion straight into the arena's
    global-shaped slot at write-back time and returns a lightweight
    :class:`~repro.exec.shm.StagedResult` marker instead of the array --
    the host collects the assembled node from shared memory, so nothing
    is pickled back through result queues.  A portion the arena cannot
    take (dtype/shape mismatch) falls back to the normal in-band return.
    """
    reduce_fn = {"flat": reduce_to_lead, "binomial": reduce_binomial}[reduction]
    combine = _make_combiner(measure)
    all_dims = tuple(range(n))
    root = full_node(n)

    if outputs is not None:
        from repro.exec.shm import StagedResult

    def program(env: RankEnv) -> Generator[Op, Any, dict[Node, Any]]:
        rank = env.rank
        block = local_inputs[rank]
        local: dict[Node, DenseArray] = {}
        written: dict[Node, Any] = {}
        # Spans use the explicit clock/end_span style: a generator suspends
        # at every yield, so a `with` block cannot bracket backend time.
        # `traced` is False on untraced runs and every tracer touch below is
        # guarded on it, keeping the untraced path free of obs work.
        # Phases chain: each span starts where the previous one ended
        # (`end_span` returns its end time), so on real-clock backends the
        # interpreter overhead and scheduler stalls between segments stay
        # attributed to a named phase; the simulated clock cannot advance
        # between spans, so chaining is exact there.
        tr = env.tracer
        traced = tr.enabled

        # Read the local portion of the initial array from disk.
        # `mark` announces the phase *now starting* so the live snapshot
        # bus can attribute in-flight time; `end_span` still records the
        # completed span.  Both are single attribute writes when traced,
        # nothing when not.
        t0 = tr.clock() if traced else 0.0
        if traced:
            tr.mark("build.input_read")
        yield env.disk_read(block.nbytes)
        if traced:
            t0 = tr.end_span(
                "build.input_read", t0, attrs={"nbytes": block.nbytes}
            )

        for step_idx, step in enumerate(schedule):
            if isinstance(step, PLocalAggregate):
                if not grid.holds_node(rank, step.node):
                    continue
                if traced:
                    tr.mark(
                        "build.first_level" if step.node == root
                        else "build.local_aggregate"
                    )
                if step.node == root:
                    if isinstance(block, SparseArray):
                        outs = aggregate_sparse_multi(
                            block, all_dims, step.children, measure=measure
                        )
                        yield env.compute(
                            block.nnz * len(step.children), sparse=True
                        )
                    else:
                        outs = [
                            aggregate_dense(block, c, measure=measure)
                            for c in step.children
                        ]
                        yield env.compute(block.size * len(step.children))
                else:
                    parent = local[step.node]
                    outs = [
                        aggregate_dense(parent, c, measure=measure.rollup)
                        for c in step.children
                    ]
                    yield env.compute(parent.size * len(step.children))
                for child, out in zip(step.children, outs):
                    local[child] = out
                    env.alloc(child, out.size)
                if traced:
                    t0 = tr.end_span(
                        "build.first_level" if step.node == root
                        else "build.local_aggregate",
                        t0,
                        attrs={
                            "node": node_name(step.node),
                            "children": len(step.children),
                        },
                    )
            elif isinstance(step, PFinalize):
                parent = tuple(sorted(step.child + (step.dim,)))
                if not grid.holds_node(rank, parent):
                    continue
                group = grid.reduction_group(rank, step.dim)
                if len(group) == 1:
                    continue  # dimension not partitioned: already final
                if traced:
                    tr.mark("build.reduce")
                partial = local[step.child]
                if max_message_elements is not None:
                    final = yield from reduce_to_lead_chunked(
                        env,
                        group,
                        partial,
                        tag=step_idx,
                        max_message_elements=max_message_elements,
                        combine_flat=measure.combine,
                    )
                else:
                    final = yield from reduce_fn(
                        env,
                        group,
                        partial,
                        tag=step_idx,
                        combine=combine,
                        element_ops=partial.size,
                    )
                if traced:
                    t0 = tr.end_span(
                        "build.reduce",
                        t0,
                        attrs={
                            "child": node_name(step.child),
                            "dim": step.dim,
                            "lead": final is not None,
                        },
                    )
                if final is None:
                    # Non-lead: partial was shipped away.
                    del local[step.child]
                    env.free(step.child)
                else:
                    local[step.child] = final
            elif isinstance(step, PWriteBack):
                if not grid.holds_node(rank, step.node):
                    continue
                out = local.pop(step.node)
                env.free(step.node)
                if not step.discard:
                    if traced:
                        tr.mark("build.writeback")
                    yield env.disk_write(out.nbytes)
                    staged = outputs is not None and outputs.stage(
                        rank, step.node, out.data
                    )
                    if traced:
                        t0 = tr.end_span(
                            "build.writeback", t0,
                            attrs={"node": node_name(step.node), "staged": staged},
                        )
                    if staged:
                        written[step.node] = StagedResult(step.node, out.nbytes)
                    else:
                        written[step.node] = out
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown step {step!r}")

        if local:
            raise AssertionError(
                f"rank {rank} finished with nodes still in memory: {sorted(local)}"
            )
        return written

    return program


# -- fault-tolerant rank program ---------------------------------------------------------


#: Tag of the failure-detection heartbeats (data tags start at 2 * grid.size).
_HB_TAG = 1


def _buddy(grid: ProcessorGrid, dead: int, live: set[int]) -> int:
    """The surviving rank that adopts ``dead``'s role.

    The first live member of the dead rank's reduction group, scanning
    dimensions in order -- its closest peer in the topology, which is also
    the rank whose reduction work the dead rank would have fed.  Every
    survivor computes this identically from the (identical) dead set.
    """
    for dim in range(grid.ndim):
        if grid.parts[dim] == 1:
            continue
        for member in grid.reduction_group(dead, dim):
            if member != dead and member in live:
                return member
    live_others = live - {dead}
    if not live_others:
        raise ValueError("no surviving rank left to adopt the crashed rank")
    return min(live_others)


def _make_program_ft(
    schedule: list[PStep],
    grid: ProcessorGrid,
    local_inputs: list[SparseArray | DenseArray],
    n: int,
    measure: Measure,
    store: CheckpointStore,
    recv_timeout: float | None,
) -> Callable[[RankEnv], Generator[Op, Any, dict[int, dict[Node, DenseArray]]]]:
    """Fault-tolerant variant of :func:`make_fig5_program` (flat reduction only).

    Differences from the paper's fragile program:

    1. first-level partials are checkpointed (real ``.npz`` files plus the
       simulated :class:`DiskWriteOp` charge);
    2. one detection round (barrier + all-to-all ``Control`` heartbeats with
       receive timeouts) gives every survivor the same dead set and the same
       dead->buddy map;
    3. the rest of the schedule runs over *virtual* ranks: each physical
       rank executes every virtual rank it embodies, recovering a dead
       rank's partials from the checkpoint store (or by re-aggregating its
       input block) and rerouting that rank's messages to itself.  Message
       tags encode the virtual sender, so adopted traffic can share a
       physical channel without breaking FIFO pairing.
    """
    combine = _make_combiner(measure)
    all_dims = tuple(range(n))
    root = full_node(n)
    num_v = grid.size
    root_step = schedule[0]
    if not isinstance(root_step, PLocalAggregate) or root_step.node != root:
        raise ValueError(
            "checkpointed construction requires a schedule that starts with "
            "the root local aggregation"
        )

    def vtag(step_idx: int, vsrc: int) -> int:
        return (step_idx + 2) * num_v + vsrc

    def first_level(
        block: SparseArray | DenseArray,
    ) -> tuple[list[DenseArray], int, bool]:
        """One rank's first-level partials plus their compute charge.

        Returns ``(outs, element_ops, sparse)`` with ``outs`` aligned with
        the root step's children.
        """
        if isinstance(block, SparseArray):
            outs = aggregate_sparse_multi(
                block, all_dims, root_step.children, measure=measure
            )
            return outs, block.nnz * len(root_step.children), True
        outs = [
            aggregate_dense(block, c, measure=measure)
            for c in root_step.children
        ]
        return outs, block.size * len(root_step.children), False

    def program(env: RankEnv) -> Generator[Op, Any, dict[int, dict[Node, DenseArray]]]:
        me = env.rank
        # The detection window comes from the backend's timeout policy: the
        # simulator derives it from the cost model, a real-process backend
        # uses a wall-clock floor.  An explicit recv_timeout is still shaped
        # (scaled/floored) by the policy so simulator-tuned values stay safe
        # on real clocks.
        timeout = (
            env.timeouts.effective(recv_timeout)
            if recv_timeout is not None
            else env.timeouts.detection_timeout(env.machine)
        )
        block = local_inputs[me]
        vlocal: dict[int, dict[Node, DenseArray]] = {me: {}}
        written: dict[int, dict[Node, DenseArray]] = {me: {}}
        tr = env.tracer
        traced = tr.enabled

        # A respawned incarnation (supervised process backend) replays its
        # own committed checkpoint instead of redoing the first level; only
        # a committed epoch covering every child is trusted.
        restored = store.load_committed(me) if env.incarnation > 0 else None
        if restored is not None and any(
            c not in restored[1] for c in root_step.children
        ):
            restored = None

        # Phases chain (see the fault-free program): `end_span` returns its
        # end time, which seeds the next span's start.
        t0 = tr.clock() if traced else 0.0
        if restored is not None:
            ep, parts = restored
            for child in root_step.children:
                arr = parts[child]
                yield env.disk_read(arr.nbytes)
                vlocal[me][child] = arr
                env.alloc((me, child), arr.size)
            env.note_recovery(
                f"checkpoint epoch {ep}: rank {me} replayed first-level "
                f"partials after respawn"
            )
            if traced:
                t0 = tr.end_span(
                    "build.replay", t0,
                    attrs={"epoch": ep, "children": len(root_step.children)},
                )
        else:
            yield env.disk_read(block.nbytes)
            if traced:
                t0 = tr.end_span(
                    "build.input_read", t0, attrs={"nbytes": block.nbytes}
                )

            # 1. First-level local aggregation + checkpoint.
            outs, ops, sparse = first_level(block)
            yield env.compute(ops, sparse=sparse)
            for child, out in zip(root_step.children, outs):
                vlocal[me][child] = out
                env.alloc((me, child), out.size)
            if traced:
                t0 = tr.end_span(
                    "build.first_level", t0,
                    attrs={"node": node_name(root), "children": len(root_step.children)},
                )
            for child in root_step.children:
                arr = vlocal[me][child]
                store.save(me, child, arr)
                yield env.disk_write(arr.nbytes)
            # Commit makes the set restorable: a replaying reader trusts
            # only the manifest, never a bag of individually-atomic files.
            store.commit(me, root_step.children)
            if env.incarnation > 0:
                env.note_recovery(
                    f"rank {me} re-aggregated first-level partials from its "
                    f"input block after respawn (crash preceded the commit)"
                )
            if traced:
                t0 = tr.end_span(
                    "build.checkpoint", t0, attrs={"children": len(root_step.children)}
                )

        # 2. Failure detection: barrier, then all-to-all heartbeats.  The
        # barrier aligns clocks so a live peer's heartbeat always lands
        # within the window; a rank that died earlier never sends one.
        yield env.barrier()
        for dst in range(num_v):
            if dst != me:
                yield env.send(dst, Control("hb", (me,)), _HB_TAG)
        dead: list[int] = []
        for src in range(num_v):
            if src == me:
                continue
            beat = yield env.recv(src, _HB_TAG, timeout=timeout)
            if beat is RECV_TIMEOUT:
                dead.append(src)
        live = set(range(num_v)) - set(dead)
        pmap = {v: (v if v in live else _buddy(grid, v, live)) for v in range(num_v)}
        myv = sorted(v for v in range(num_v) if pmap[v] == me)
        if traced:
            t0 = tr.end_span("build.detect", t0, attrs={"dead": len(dead)})

        # 3. Adopt dead ranks: recover their first-level partials from the
        # checkpoint store, falling back to re-aggregating their input
        # block when they died before checkpointing.
        for d in myv:
            if d == me:
                continue
            vlocal[d] = {}
            written[d] = {}
            recovered = {c: store.load(d, c) for c in root_step.children}
            if all(arr is not None for arr in recovered.values()):
                for child, arr in recovered.items():
                    yield env.disk_read(arr.nbytes)
                    vlocal[d][child] = arr
                ep = store.committed_epoch(d) or 0
                env.note_recovery(
                    f"checkpoint epoch {ep}: re-read rank {d} partials "
                    f"from checkpoint"
                )
            else:
                dblock = local_inputs[d]
                yield env.disk_read(dblock.nbytes)
                douts, dops, dsparse = first_level(dblock)
                yield env.compute(dops, sparse=dsparse)
                for child, out in zip(root_step.children, douts):
                    vlocal[d][child] = out
                env.note_recovery(f"re-aggregated rank {d} partials from its block")
            for child in root_step.children:
                env.alloc((d, child), vlocal[d][child].size)
        if traced and len(myv) > 1:
            t0 = tr.end_span(
                "build.recover", t0, attrs={"adopted": len(myv) - 1}
            )

        # 4. The remaining schedule, executed per embodied virtual rank.
        inbox: dict[tuple[int, int, int], DenseArray] = {}
        for step_idx, step in enumerate(schedule[1:], start=1):
            if isinstance(step, PLocalAggregate):
                for v in myv:
                    if not grid.holds_node(v, step.node):
                        continue
                    parent = vlocal[v][step.node]
                    outs = [
                        aggregate_dense(parent, c, measure=measure.rollup)
                        for c in step.children
                    ]
                    yield env.compute(parent.size * len(step.children))
                    for child, out in zip(step.children, outs):
                        vlocal[v][child] = out
                        env.alloc((v, child), out.size)
                    if traced:
                        t0 = tr.end_span(
                            "build.local_aggregate", t0,
                            attrs={"node": node_name(step.node), "vrank": v},
                        )
            elif isinstance(step, PFinalize):
                parent = tuple(sorted(step.child + (step.dim,)))
                participants = [
                    v for v in myv if grid.holds_node(v, parent)
                ]
                # Phase 1: every embodied non-lead ships its partial (a
                # local handoff when the lead lives on this physical rank).
                for v in participants:
                    group = grid.reduction_group(v, step.dim)
                    if len(group) == 1 or v == group[0]:
                        continue
                    payload = vlocal[v].pop(step.child)
                    env.free((v, step.child))
                    lead_p = pmap[group[0]]
                    if lead_p == me:
                        inbox[(v, group[0], step_idx)] = payload
                    else:
                        yield env.send(lead_p, payload, vtag(step_idx, v))
                # Phase 2: every embodied lead combines, in group order, so
                # the float accumulation order matches the fault-free run.
                for v in participants:
                    group = grid.reduction_group(v, step.dim)
                    if len(group) == 1 or v != group[0]:
                        continue
                    acc = vlocal[v][step.child]
                    for vsrc in group[1:]:
                        if pmap[vsrc] == me:
                            other = inbox.pop((vsrc, v, step_idx))
                        else:
                            other = yield env.recv(
                                pmap[vsrc], vtag(step_idx, vsrc)
                            )
                        yield env.compute(other.size)
                        combine(acc, other)
                if traced and participants:
                    t0 = tr.end_span(
                        "build.reduce", t0,
                        attrs={"child": node_name(step.child), "dim": step.dim},
                    )
            elif isinstance(step, PWriteBack):
                for v in myv:
                    if not grid.holds_node(v, step.node):
                        continue
                    out = vlocal[v].pop(step.node)
                    env.free((v, step.node))
                    if not step.discard:
                        yield env.disk_write(out.nbytes)
                        if traced:
                            t0 = tr.end_span(
                                "build.writeback", t0,
                                attrs={"node": node_name(step.node), "vrank": v},
                            )
                        written[v][step.node] = out
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown step {step!r}")

        leftovers = {v: sorted(vlocal[v]) for v in myv if vlocal[v]}
        if leftovers:
            raise AssertionError(
                f"rank {me} finished with nodes still in memory: {leftovers}"
            )
        return written

    # Replayable from the checkpoint store: the supervised process backend
    # may respawn a crashed rank running this program (a plain program would
    # recompute sends its peers already consumed).
    setattr(program, "_restartable", True)
    return program


# -- host-side driver ------------------------------------------------------------------------


def _extract_local_inputs(
    array: SparseArray | DenseArray | np.ndarray,
    grid: ProcessorGrid,
) -> list[SparseArray | DenseArray]:
    """Hand each rank its block of the initial array."""
    shape = tuple(array.shape)
    partition = BlockPartition(shape, grid.parts)
    out: list[SparseArray | DenseArray] = []
    for rank in grid.ranks():
        slices = partition.slices(grid.label(rank))
        if isinstance(array, SparseArray):
            out.append(array.extract_block(slices))
        else:
            data = array.data if isinstance(array, DenseArray) else np.asarray(array)
            out.append(DenseArray(np.ascontiguousarray(data[slices]), tuple(range(len(shape)))))
    return out


def assemble_results(
    rank_results: Sequence[dict[Node, Any]],
    grid: ProcessorGrid,
    shape: Sequence[int],
) -> dict[Node, DenseArray]:
    """Stitch each node's per-lead portions into global arrays.

    Portions that were staged into a shared output arena travel as
    :class:`~repro.exec.shm.StagedResult` markers and are skipped here --
    the caller merges the arena's assembled arrays separately.
    """
    from repro.exec.shm import StagedResult

    shape = tuple(shape)
    partition = BlockPartition(shape, grid.parts)
    assembled: dict[Node, DenseArray] = {}
    for rank, written in enumerate(rank_results):
        label = grid.label(rank)
        for node, portion in written.items():
            if isinstance(portion, StagedResult):
                continue
            if node not in assembled:
                global_shape = tuple(shape[d] for d in node)
                assembled[node] = DenseArray.zeros(global_shape, node, dtype=portion.data.dtype)
            if node:
                sub = partition.project(node)
                sl = sub.slices(tuple(label[d] for d in node))
                assembled[node].data[sl] = portion.data
            else:
                assembled[node].data[()] = portion.data
    return assembled


def construct_cube_parallel(
    array: SparseArray | DenseArray | np.ndarray,
    bits: Sequence[int],
    machine: MachineModel | None = UNSET,
    reduction: str = UNSET,
    collect_results: bool = UNSET,
    tree: Any = UNSET,
    schedule: list[PStep] | None = UNSET,
    measure: Measure | str = UNSET,
    max_message_elements: int | None = UNSET,
    trace: bool = UNSET,
    trace_out: str | Path | None = UNSET,
    machines: list[MachineModel] | None = UNSET,
    fault_plan: FaultPlan | None = UNSET,
    checkpoint: bool = UNSET,
    checkpoint_dir: str | Path | None = UNSET,
    recv_timeout: float | None = UNSET,
    backend: Any = UNSET,
    scheduler: Any = UNSET,
    live: Any = UNSET,
    config: BuildConfig | None = None,
) -> ParallelResult:
    """Construct the data cube on an execution backend.

    All options live on :class:`~repro.core.config.BuildConfig` and may be
    passed either as ``config=BuildConfig(...)`` or as the individual
    keywords below; explicit keywords override the config's fields.

    Parameters
    ----------
    array:
        The initial n-dimensional array (axes already in aggregation-tree
        order); sparse input follows the paper's chunk-offset format.
    bits:
        Bits of partitioning per dimension (``2**sum(bits)`` processors);
        use :func:`repro.core.partition.greedy_partition` for the optimum.
    machine:
        Cost model (defaults to the paper-cluster preset).
    reduction:
        ``"flat"`` (the paper's gather-to-lead) or ``"binomial"``.
    collect_results:
        Assemble global result arrays from the per-rank portions.  Disable
        for large sweeps where only the metrics matter.
    tree:
        Alternative spanning tree (baselines); default aggregation tree.
        The expected-volume closed form only applies to the default.
    schedule:
        Explicit step list overriding the tree-derived one (partial
        materialization); mutually exclusive with ``tree``.
    measure:
        Any distributive measure (default SUM); reductions combine
        partials with the measure's merge operator.
    max_message_elements:
        Cap reduction messages at this many elements (the paper's
        communication-frequency / buffer-memory tradeoff, section 4).
        Default: whole-partial messages.
    trace:
        Record per-rank timelines (see :mod:`repro.cluster.trace`).
    trace_out:
        Write the run's Chrome trace-event JSON (open it in Perfetto /
        ``chrome://tracing``) to this path after the build; implies
        ``trace``.  See :mod:`repro.obs.export`.
    machines:
        Per-rank cost models (straggler studies); overrides ``machine``.
    fault_plan:
        Deterministic :class:`~repro.cluster.faults.FaultPlan` to inject
        (crashes, drops, stragglers, NIC degradation).  Without
        ``checkpoint``, a crash surfaces as a diagnosable
        :class:`~repro.cluster.runtime.DeadlockError` naming the dead rank.
    checkpoint:
        Run the fault-tolerant program: checkpoint first-level partials,
        detect failures via heartbeats, and recover any single crashed
        rank's work through its reduction-group buddy.  Requires the flat
        reduction and whole-partial messages.
    checkpoint_dir:
        Where checkpoint ``.npz`` files live (default: a temporary
        directory deleted after the run).
    recv_timeout:
        Failure-detection receive timeout in backend-clock seconds
        (default: derived from the backend's
        :class:`~repro.cluster.runtime.TimeoutPolicy`).
    backend:
        Execution backend -- a registered name (``"sim"``, ``"process"``,
        ``"thread"``) or a :class:`~repro.exec.base.Backend` instance.
        ``"sim"`` (the default) runs the deterministic simulator;
        ``"process"`` runs the same program on real OS processes with
        shared-memory input/output arenas; ``"thread"`` runs it on
        GIL-releasing threads in this process.  Results are bit-identical
        across all of them.  A backend resolved from a name is closed
        after the build; a passed-in instance is only released of its
        per-run state (``end_run``), so a warmed worker pool
        (``ThreadBackend().open(workers=p)``) is reused across builds.
    scheduler:
        Construction scheduler -- a registered spec (``"fig5"`` default,
        ``"shuffle"``, ``"marginals-<k>"``, ``"marginals-<k>-shuffle"``)
        or a :class:`~repro.sched.base.Scheduler` instance.  The scheduler
        owns cuboid ordering and the comm schedule; every scheduler runs
        on every backend.  See :mod:`repro.sched`.
    live:
        Optional :class:`~repro.obs.live.LiveRunView` fed with per-rank
        snapshots while the build runs -- the snapshot bus behind
        ``repro-cube top``.  Pair with ``trace=True`` for phase
        attribution in the view; without tracing, snapshots still carry
        op progress, rates, and memory high-water.
    config:
        A :class:`~repro.core.config.BuildConfig` carrying any/all of the
        above; individual keywords take precedence.
    """
    cfg = (config or BuildConfig()).merged_with(
        machine=machine,
        reduction=reduction,
        collect_results=collect_results,
        tree=tree,
        schedule=schedule,
        measure=measure,
        max_message_elements=max_message_elements,
        trace=trace,
        trace_out=trace_out,
        machines=machines,
        fault_plan=fault_plan,
        checkpoint=checkpoint,
        checkpoint_dir=checkpoint_dir,
        recv_timeout=recv_timeout,
        backend=backend,
        scheduler=scheduler,
        live=live,
    )
    machine = cfg.machine
    reduction = cfg.reduction
    collect_results = cfg.collect_results
    tree = cfg.tree
    schedule = list(cfg.schedule) if cfg.schedule is not None else None
    max_message_elements = cfg.max_message_elements
    trace = cfg.effective_trace
    machines = cfg.machines
    fault_plan = cfg.fault_plan
    checkpoint = cfg.checkpoint
    checkpoint_dir = cfg.checkpoint_dir
    recv_timeout = cfg.recv_timeout
    measure = get_measure(cfg.measure)
    # Resolve the execution backend (validated by BuildConfig already).
    # Imported lazily: repro.exec sits above repro.cluster and repro.arrays
    # only, but importing it eagerly here would be a needless cost for the
    # many consumers of this module that never construct.
    from repro.exec.base import Backend
    from repro.exec.registry import get_backend
    from repro.exec.shm import StagedResult, output_layout_for_schedule

    # Ownership rule: a backend resolved from a name here is ours to shut
    # down; a caller-passed instance keeps its lifecycle (warm worker
    # pools survive the build -- we only release per-run state).
    owns_backend = not isinstance(cfg.backend, Backend)
    backend_obj = get_backend(cfg.backend) if owns_backend else cfg.backend
    # Resolve the construction scheduler (options validated by BuildConfig;
    # imported lazily for the same layering reason as repro.exec above).
    from repro.sched import resolve_scheduler

    sched_obj = resolve_scheduler(cfg.scheduler)
    if isinstance(array, np.ndarray):
        array = DenseArray.full_cube_input(array)
    shape = tuple(array.shape)
    bits = tuple(bits)
    if len(bits) != len(shape):
        raise ValueError("bits must have one entry per dimension")
    n = len(shape)
    sched_obj.validate_shape(shape)
    grid = ProcessorGrid(bits)
    # Validate the partition against the shape early.
    BlockPartition(shape, grid.parts)

    # Host-side phases run on the wall clock in their own trace lane
    # (rank -1); they are outside every rank's timeline, so they never
    # perturb the backend's makespan accounting.
    host_tr = Tracer(rank=-1) if trace else NULL_TRACER
    with host_tr.span("build.partition", ranks=grid.size):
        local_inputs = backend_obj.prepare_inputs(_extract_local_inputs(array, grid))
    # Fig 5 -- or an explicit schedule/tree override, which BuildConfig
    # restricts to the fig5 scheduler -- runs through the exact pre-split
    # code path (bit-identity is pinned by the golden regression test);
    # every other scheduler supplies its own rank program.
    fig5_path = (
        sched_obj.spec == "fig5"
        or schedule is not None
        or tree is not None
        or checkpoint
    )
    if fig5_path and schedule is None:
        from repro.sched.fig5 import fig5_schedule

        schedule = fig5_schedule(n, tree=tree)

    tmpdir = None
    out_arena = None
    staged_results: dict[Node, DenseArray] = {}
    try:
        if checkpoint:
            # Imported here, not at module top: persist itself imports
            # repro.core for Node, so a top-level import would be circular.
            from repro.arrays.persist import CheckpointStore

            if checkpoint_dir is None:
                # Prefer a RAM-backed host-shared root (/dev/shm): forked
                # workers and respawned incarnations all see it, and
                # recovery replay never waits on disk.
                tmpdir = tempfile.TemporaryDirectory(
                    prefix="repro-ckpt-",
                    dir=str(CheckpointStore.preferred_root()),
                )
                checkpoint_dir = tmpdir.name
            store = CheckpointStore(checkpoint_dir)
            assert schedule is not None  # set above: checkpoint is fig5_path
            program = _make_program_ft(
                schedule, grid, local_inputs, n, measure, store, recv_timeout
            )
        elif fig5_path:
            assert schedule is not None  # set above on every fig5 path
            if collect_results:
                # Offer the backend a shared output arena: leads write
                # finalized aggregates straight into global-shaped shared
                # memory instead of pickling them back through result
                # queues (sim returns None -- results are in-process).
                # Sparse inputs accumulate into DEFAULT_DTYPE; dense
                # reductions preserve the input dtype.
                out_dtype = (
                    np.dtype(DEFAULT_DTYPE)
                    if isinstance(array, SparseArray)
                    else array.data.dtype
                )
                out_arena = backend_obj.prepare_outputs(
                    output_layout_for_schedule(
                        shape,
                        grid,
                        [
                            s.node
                            for s in schedule
                            if isinstance(s, PWriteBack) and not s.discard
                        ],
                        dtype=out_dtype,
                    )
                )
            program = make_fig5_program(
                schedule, grid, local_inputs, n, reduction, measure,
                max_message_elements, outputs=out_arena,
            )
        else:
            program = sched_obj.rank_program(
                shape,
                bits,
                grid,
                local_inputs,
                reduction=reduction,
                measure=measure,
                max_message_elements=max_message_elements,
            )
        metrics = backend_obj.spawn_ranks(
            grid.size, program, machine=machine, record_trace=trace,
            machines=machines, faults=fault_plan, live=cfg.live,
        )
        if out_arena is not None:
            # Copy staged nodes out *before* the finally clause releases
            # the arena; collect() returns owned arrays.
            staged_nodes = sorted(
                {
                    node
                    for written in metrics.rank_results
                    if written
                    for node, portion in written.items()
                    if isinstance(portion, StagedResult)
                }
            )
            if staged_nodes:
                with host_tr.span("build.staged_collect", nodes=len(staged_nodes)):
                    staged_results = out_arena.collect(staged_nodes)
    finally:
        # Release per-run state (arenas) always; shut the backend down
        # fully only when we created it from a registry name.  A
        # caller-owned instance keeps its warm pool for the next build.
        backend_obj.end_run()
        if owns_backend:
            backend_obj.close()
        if tmpdir is not None:
            tmpdir.cleanup()

    if checkpoint:
        # Flatten {virtual rank: written} maps (a buddy returns its own
        # nodes plus the adopted rank's) back onto per-label results.
        vres: list[dict[Node, DenseArray]] = [{} for _ in range(grid.size)]
        for rr in metrics.rank_results:
            if rr:
                for vrank, written in rr.items():
                    vres[vrank] = written
        rank_results: Sequence[dict[Node, DenseArray]] = vres
    else:
        rank_results = metrics.rank_results

    results = None
    if collect_results:
        with host_tr.span("build.assemble", ranks=grid.size):
            results = assemble_results(rank_results, grid, shape)
            for node, arr in staged_results.items():
                if node in results:
                    # A rank fell back to the in-band return for this
                    # node: its portion sits in the assembled array, the
                    # rest in the staged one.  Leads tile the node
                    # disjointly over zero-filled arrays, so summing
                    # merges exactly.
                    results[node].data += arr.data
                else:
                    results[node] = arr

    if host_tr.spans:
        metrics.spans = list(metrics.spans) + host_tr.spans

    if cfg.trace_out is not None:
        # Imported lazily: repro.obs.export is pure stdlib but pulling the
        # exporter in for every untraced build would be needless.
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(metrics, cfg.trace_out)

    # Explicit schedule/tree overrides keep the historical full-cube closed
    # form (partial materialization substitutes its own afterwards); plain
    # scheduler runs carry the scheduler's declared volume -- identical to
    # Theorem 3 for fig5.
    if schedule is not None or tree is not None:
        expected_volume = total_comm_volume(shape, bits)
    else:
        expected_volume = sched_obj.declared_volume(shape, bits)
    return ParallelResult(
        results=results,
        metrics=metrics,
        bits=bits,
        shape=shape,
        expected_comm_volume_elements=expected_volume,
        scheduler=sched_obj.spec,
    )


def sequential_fraction_at_first_level(shape: Sequence[int]) -> float:
    """Fraction of total computation at the first aggregation level.

    The paper notes this is ~98 % for a dense 4-d cube with equal extents,
    justifying sequentializing deeper levels.  Computation is measured as
    parent elements scanned per edge.
    """
    n = len(shape)
    tree = AggregationTree(n)
    first = 0
    total = 0
    root = full_node(n)
    for parent, _child in tree.iter_edges():
        cost = node_size(parent, shape)
        total += cost
        if parent == root:
            first += cost
    return first / total if total else 0.0
