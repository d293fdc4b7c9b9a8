"""The paper's Fig 5 scheduler (communication and memory optimal).

This is the schedule previously hardwired into
:func:`repro.core.parallel.construct_cube_parallel`, extracted verbatim so
it is one registered strategy among several.  :func:`fig5_schedule` is the
home of the step-list construction, and :class:`Fig5Scheduler` wraps it in
the :class:`~repro.sched.base.Scheduler` protocol.  The rank program is built
by the exact same code path as before the split, so output stays
bit-identical (pinned by the golden regression test).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from repro.arrays.dense import DenseArray
from repro.arrays.measures import Measure, SUM
from repro.arrays.sparse import SparseArray
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import AggregationTree
from repro.core.comm_model import total_comm_volume
from repro.core.lattice import full_node
from repro.core.memory_model import parallel_memory_bound_exact
from repro.sched.base import ProgramFactory, Scheduler

if TYPE_CHECKING:
    from repro.core.parallel import PStep


def fig5_schedule(n: int, tree: Any = None) -> "list[PStep]":
    """Linearize Fig 5: local aggregation, right-to-left finalize + recurse.

    ``tree`` may be any object with the spanning-tree traversal API
    (``children`` / ``is_leaf`` / ``aggregated_dim``); defaults to the
    aggregation tree.  Baselines pass alternative trees.
    """
    # Imported here, not at module top: the step dataclasses live with the
    # program interpreter in repro.core.parallel, which lazily imports this
    # module for the default schedule.
    from repro.core.parallel import (
        PFinalize,
        PLocalAggregate,
        PStep,
        PWriteBack,
    )

    if tree is None:
        tree = AggregationTree(n)
    root = full_node(n)
    steps: list[PStep] = []

    def evaluate(node: tuple[int, ...]) -> None:
        kids = tree.children(node)
        if kids:
            steps.append(PLocalAggregate(node, tuple(kids)))
        for child in reversed(kids):
            steps.append(PFinalize(child, tree.aggregated_dim(child)))
            if tree.is_leaf(child):
                steps.append(PWriteBack(child))
            else:
                evaluate(child)
        if node != root:
            steps.append(PWriteBack(node))

    evaluate(root)
    return steps


class Fig5Scheduler(Scheduler):
    """The paper's Fig 5 schedule: Theorem 3 volume, Theorem 4 memory."""

    name = "fig5"

    def rank_program(
        self,
        shape: tuple[int, ...],
        bits: tuple[int, ...],
        grid: ProcessorGrid,
        local_inputs: Sequence[SparseArray | DenseArray],
        *,
        reduction: str = "flat",
        measure: Measure = SUM,
        max_message_elements: int | None = None,
    ) -> ProgramFactory:
        """The unchanged Fig 5 rank program (bit-identical to pre-split)."""
        from repro.core.parallel import make_fig5_program

        n = len(shape)
        return make_fig5_program(
            fig5_schedule(n),
            grid,
            list(local_inputs),
            n,
            reduction,
            measure,
            max_message_elements,
        )

    def declared_volume(self, shape: Sequence[int], bits: Sequence[int]) -> int:
        """Theorem 3's closed form ``V = sum_j (2^k_j - 1) c_j``."""
        return total_comm_volume(shape, bits)

    def declared_memory_bound(
        self, shape: Sequence[int], bits: Sequence[int]
    ) -> int:
        """The Theorem 1/4 held-results bound, exact per-portion variant."""
        return parallel_memory_bound_exact(shape, bits)

    def validate_options(
        self,
        *,
        reduction: str = "flat",
        checkpoint: bool = False,
        max_message_elements: int | None = None,
        tree: object | None = None,
        schedule: object | None = None,
    ) -> None:
        """Fig 5 supports every build option; cross-field rules live on
        :class:`~repro.core.config.BuildConfig`."""
        if reduction not in ("flat", "binomial"):
            raise ValueError(f"unknown reduction {reduction!r}")

    def describe(self) -> str:
        """Summary line for ``repro-cube sched list``."""
        return (
            "the paper's Fig 5 SPMD schedule -- communication optimal "
            "(Theorem 3) and memory optimal (Theorem 4)"
        )
