"""The stream recorder: model streams come from running the real rank
programs, so these tests pin what it derives and how it handles kills."""

import hashlib
from dataclasses import fields

import pytest

from repro.analysis import verify_plan
from repro.analysis.model import MAlloc, MRecv, MSend, check_program, explore
from repro.sched import get_scheduler
from repro.sched.base import Scheduler
from repro.sched.shuffle import ShuffleScheduler, shuffle_comm_volume

P4 = ((4, 4, 4), (1, 1, 0))
P8 = ((4, 4, 4, 4), (1, 1, 1, 0))


def stream_digest(prog):
    """sha256 over every rank's ops, leaving out ``step`` and ``edge``."""
    h = hashlib.sha256()
    for stream in prog.streams:
        for op in stream:
            row = (type(op).__name__,) + tuple(
                getattr(op, f.name)
                for f in fields(op)
                if f.name not in ("step", "edge")
            )
            h.update(repr(row).encode() + b"\n")
        h.update(b"--\n")
    return h.hexdigest()


# Digests of the hand-written stream builders that the recorder replaced,
# computed from those builders before they were deleted: the recorded
# streams are op for op the streams those builders wrote.
GOLDEN = [
    ("fig5", P4, {}, "fb8be39365d6397a7b485894b8b918b79860ab74333ba3e92781c36bc3ed3c07"),
    ("fig5", P8, {}, "2c628d584936c331e13e8fc609b750da5af382bc9fdc471204187147af03fa6f"),
    ("shuffle", P4, {}, "dfc5a6724b7bce906c2ac0d7b11bc556f75cdbf0bea1daa3332c156509268d67"),
    ("shuffle", P8, {}, "06364619d4dc344f641374b2b144a3f98b7409fcb091c78f28167dd72ebfee99"),
    ("marginals-2", P4, {}, "bdf2d56cb49d020ff98f98315017212591ccc9ae50c332f753ef0c8435392a18"),
    ("marginals-2", P8, {}, "356c97ab053a3faf0fd878ba33e3fe31a3a07fc0ef659aab35ff5494b3e69230"),
    ("marginals-2-shuffle", P4, {},
     "11ed2353d06070feab2796c24723e9c87f17a8038b32304210ebe7e039c86f99"),
    ("marginals-2-shuffle", P8, {},
     "87da9bd3b9410724633a426455b2eb8db95f43f0681ee969120e8fe7d1a595ba"),
    ("fig5", P4, {"detection_round": True},
     "8ab7ec97e8e8633007565e4801f96260de01709444d72198d5fcb559699228bf"),
    ("fig5", P4, {"detection_round": True, "kill": (1, 0)},
     "23ed27519d51ccfccc6b7d315889bd225265754e7a387ed0ebb7e32a84bbfc51"),
]


@pytest.mark.parametrize(
    "spec,point,kwargs,digest",
    GOLDEN,
    ids=[f"{g[0]}-p{2 ** sum(g[1][1])}-{'-'.join(map(str, g[2]))}" for g in GOLDEN],
)
def test_recorded_streams_match_pinned_digests(spec, point, kwargs, digest):
    shape, bits = point
    prog = get_scheduler(spec).symbolic_ops(shape, bits, **kwargs)
    assert stream_digest(prog) == digest


class TestRecordedFields:
    def test_step_is_the_index_in_the_rank_stream(self):
        prog = get_scheduler("shuffle").symbolic_ops(*P4)
        for stream in prog.streams:
            assert [op.step for op in stream] == list(range(len(stream)))

    def test_fig5_edges_name_the_finalized_child(self):
        prog = get_scheduler("fig5").symbolic_ops(*P4)
        sends = [op for s in prog.streams for op in s if isinstance(op, MSend)]
        recvs = [op for s in prog.streams for op in s if isinstance(op, MRecv)]
        assert sends
        assert all(op.edge is not None and op.elements > 0 for op in sends)
        assert sorted(op.edge for op in sends) == sorted(op.edge for op in recvs)

    def test_shuffle_intermediate_leads_carry_no_edge(self):
        # At p=8 the order-1 targets reduce over two partitioned dims; the
        # first round ships to leads that forward the node again.
        prog = get_scheduler("shuffle").symbolic_ops(*P8)
        sends = [op for s in prog.streams for op in s if isinstance(op, MSend)]
        assert any(op.edge is None for op in sends)
        assert any(op.edge is not None for op in sends)
        assert verify_plan(*P8, scheduler="shuffle").ok


class TestKills:
    def test_kill_ends_the_rank_after_that_many_model_ops(self):
        full = get_scheduler("fig5").symbolic_ops(*P4, detection_round=True)
        prog = get_scheduler("fig5").symbolic_ops(
            *P4, detection_round=True, kill=(2, 3)
        )
        assert prog.kill == (2, 3)
        assert prog.streams[2] == full.streams[2][:3]

    def test_survivors_time_out_on_a_rank_dead_from_the_start(self):
        prog = get_scheduler("fig5").symbolic_ops(
            *P4, detection_round=True, kill=(1, 0)
        )
        assert prog.streams[1] == ()
        timed_out = [
            op for s in prog.streams for op in s
            if isinstance(op, MRecv) and op.src == 1 and op.timeout
        ]
        assert len(timed_out) == 3
        # The adopter allocates the dead rank's partials under its key.
        adopted = {
            op.key[0] for s in prog.streams for op in s
            if isinstance(op, MAlloc) and op.key[0] != op.rank
        }
        assert adopted == {1}
        assert explore(prog).certified

    def test_plain_program_kill_stalls_and_keeps_the_blocked_wait(self):
        prog = get_scheduler("fig5").symbolic_ops(*P4, kill=(1, 0))
        waits = [s[-1] for r, s in enumerate(prog.streams) if r != 1 and s]
        assert any(isinstance(op, MRecv) and op.src == 1 for op in waits)
        result = check_program(prog)
        assert "MC306" in {d.rule for d in result.report.diagnostics}

    @pytest.mark.parametrize("kill", [(4, 0), (0, -1)])
    def test_bad_kill_rejected(self, kill):
        with pytest.raises(ValueError, match="kill"):
            get_scheduler("fig5").symbolic_ops(*P4, kill=kill)


class _RankProgramOnly(Scheduler):
    """A scheduler that supplies only the three abstract methods."""

    name = "rank-program-only"

    def rank_program(self, shape, bits, grid, local_inputs, **options):
        return ShuffleScheduler().rank_program(
            shape, bits, grid, local_inputs, **options
        )

    def declared_volume(self, shape, bits):
        return shuffle_comm_volume(shape, bits)

    def declared_memory_bound(self, shape, bits):
        return ShuffleScheduler().declared_memory_bound(shape, bits)


def test_new_scheduler_needs_only_its_rank_program():
    sched = _RankProgramOnly()
    v = verify_plan(*P8, scheduler=sched)
    assert v.ok, v.describe()
    assert v.predicted_volume_elements == sched.declared_volume(*P8)
    prog = sched.symbolic_ops(*P8)
    result = check_program(
        prog, declared_bound_elements=sched.declared_memory_bound(*P8)
    )
    assert result.certified, result.certificate()
