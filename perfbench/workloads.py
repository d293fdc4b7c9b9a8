"""The benchmark's workloads and the layer replays of its traced run.

Every workload walks the same user journey -- ingest facts, build the
cube, serve queries while new facts arrive -- but spends its measured
seconds on a different part of it:

- ``fig7_sparse`` builds the paper's Fig 7 cube over and over: serial
  builds alternate with warm ``ThreadBackend`` builds at p=2.
- ``serve_mixed`` builds during set-up and spends its seconds on a closed
  loop of Zipf queries through ``CubeService.execute``, with one
  ``apply_delta`` after every 5,000 queries.

``fig7_sparse`` also serves its first build (a round of queries after each
build round, then until enough deltas have landed), and ``serve_mixed``'s
set-up builds three times each way, so every end-to-end metric is
measured on every workload.  All load comes from this one process, and no
build uses more than two ranks.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import gen
import oracle as orc
from tracing import Tracer

from repro.arrays.aggregate import aggregate_dense, aggregate_sparse_multi
from repro.arrays.chunking import BlockPartition
from repro.arrays.measures import get_measure
from repro.arrays.sparse import SparseArray
from repro.cluster.topology import ProcessorGrid
from repro.core.aggregation_tree import AggregationTree, ComputeChildren
from repro.core.lattice import full_node
from repro.core.parallel import construct_cube_parallel
from repro.core.plan import plan_cube
from repro.core.sequential import construct_cube_sequential
from repro.exec import ThreadBackend
from repro.olap.cube import DataCube
from repro.olap.maintenance import apply_delta, merge_sparse
from repro.olap.query import GroupByQuery
from repro.olap.schema import Schema
from repro.serve import CubeService

SUM = get_measure("sum")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  ``paper`` is what the benchmark measures; ``tiny`` is
    for the benchmark's own tests."""

    fig7_shape: tuple = (64, 64, 64, 64)
    fig7_chunk: tuple = (16, 16, 16, 16)
    density: float = 0.25
    serve_shape: tuple = (64, 64, 64, 64)
    serve_chunk: tuple = (32, 32, 32, 32)
    queries_per_delta: int = 5000
    #: fig7_sparse serves ``round_queries`` queries after each build round,
    #: then goes on until ``(deltas, queries per delta)`` have landed.  Its
    #: deltas re-ingest 4.2M base facts (~1.5 s each), so it takes few, with
    #: more queries each than serve_mixed to give its p99 enough samples.
    #: Spreading the queries over the build rounds matters: on a shared host
    #: speed drifts over seconds, and interpreter-bound query latency most.
    round_queries: int = 2000
    fig7_serving: tuple = (3, 8000)
    delta_facts: int = 4096
    cache_entries: int = 4096
    universe: int = 50000
    check_every: int = 25
    min_builds: int = 3
    serve_builds: int = 3
    max_builds: int = 200
    #: Set-up repeats; ``setup_s`` is their median.
    setup_repeats: int = 5


SCALES = {
    "paper": Scale(),
    "tiny": Scale(
        fig7_shape=(8, 8, 8, 8),
        fig7_chunk=(4, 4, 4, 4),
        serve_shape=(8, 8, 8, 8),
        serve_chunk=(4, 4, 4, 4),
        queries_per_delta=200,
        round_queries=50,
        fig7_serving=(2, 200),
        delta_facts=64,
        cache_entries=64,
        universe=400,
        check_every=5,
        min_builds=2,
        serve_builds=2,
    ),
}

FIG7_BITS = (1, 0, 0, 0)

#: The program's host-lane spans (rank -1), re-attributed to layers.
HOST_SPANS = {
    "build.partition": "core.parallel.partition",
    "build.staged_collect": "core.parallel.epilogue",
    "build.assemble": "core.parallel.epilogue",
}


def median(xs):
    return statistics.median(xs) if xs else float("nan")


class Run:
    """One benchmark run: its inputs' seed, samples, counts and failures."""

    def __init__(self, seed: int, seconds: float, trace: bool, scale: Scale,
                 inject: str | None = None):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.seconds = seconds
        self.scale = scale
        self.inject = inject
        self.tracer = Tracer(trace)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = {}
        self.info: dict[str, object] = {"seed": seed}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s = float("nan")
        self.setup_n = 1
        #: The timed operation tracing overhead is measured on.
        self.main_op = "build"

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    @contextmanager
    def op(self, what: str):
        """Count one attempted operation; a raised exception fails it."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self.fail(f"{what}: {type(exc).__name__}: {exc}")

    def set_up(self, make):
        """Generate the inputs ``setup_repeats`` times from the seed; the
        median is ``setup_s``.  Every repeat draws the same inputs, and the
        run's generator continues from the last one."""
        times = []
        out = None
        for _ in range(self.scale.setup_repeats):
            out = None  # free the previous repeat's arrays first
            t0 = time.perf_counter()
            self.rng = np.random.default_rng(self.seed)
            out = make(self.rng)
            times.append(time.perf_counter() - t0)
        self.setup_s = median(times)
        self.setup_n = len(times)
        return out

    def ingest(self, shape, coords, values, chunk_shape=None) -> SparseArray:
        """``SparseArray.from_coords``, timed; raises on failure."""
        with self.tracer.span("arrays.sparse.from_coords", facts=len(values)):
            t0 = time.perf_counter()
            arr = SparseArray.from_coords(shape, coords, values, chunk_shape=chunk_shape)
            dt = time.perf_counter() - t0
        self.samples["from_coords_s"].append(dt)
        self.samples["from_coords_facts"].append(len(values))
        return arr


def _timed(fn):
    """Wall and CPU seconds of ``fn()``; CPU adds reaped child processes."""
    ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    c0 = time.process_time()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (time.process_time() - c0) + (
        (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    )
    return out, wall, cpu


def _corrupt(results: dict) -> None:
    """Deliberately wrong aggregate, for the benchmark's own tests."""
    node = max(results, key=len)
    results[node].data.reshape(-1)[0] += 1.0


class BuildChecker:
    """Oracle check once per build kind, byte-identity for the rest."""

    def __init__(self, run: Run, oracle: dict):
        self.run = run
        self.oracle = oracle
        self.ref: dict[str, tuple[str, bool]] = {}

    def check(self, kind: str, results: dict, pr=None) -> None:
        run = self.run
        if pr is not None and pr.comm_volume_elements != pr.expected_comm_volume_elements:
            run.fail(
                f"{kind} build moved {pr.comm_volume_elements} elements; "
                f"Theorem 3 gives {pr.expected_comm_volume_elements}"
            )
            return
        d = orc.digest(results)
        if kind not in self.ref:
            bad = orc.mismatched_groupbys(results, self.oracle)
            self.ref[kind] = (d, not bad)
            if bad:
                run.fail(f"{kind} build: {len(bad)} group-bys differ from the oracle, "
                         f"e.g. {bad[0]}")
        elif d != self.ref[kind][0]:
            run.fail(f"{kind} build is not byte-identical to the run's first one")
        elif not self.ref[kind][1]:
            run.fail(f"{kind} build repeats the first build's wrong aggregates")


# -- builds -----------------------------------------------------------------


def _parallel(arr, bits, backend, trace=False):
    return construct_cube_parallel(arr, bits, backend=backend, trace=trace)


def _peak_mb(arr) -> float:
    """tracemalloc peak of one serial build above the pre-build level."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        construct_cube_sequential(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def _traced_build(run: Run, checker, arr, bits, backend) -> None:
    tr = run.tracer
    with run.op("traced parallel build"):
        # The call's self time (what its host-lane children leave) is the
        # rank phase on the backend, so the span belongs to ``exec``.
        with tr.span("core.parallel.construct_cube_parallel", layer="exec") as sp:
            t0 = time.perf_counter()
            pr = _parallel(arr, bits, backend, trace=True)
            wall = time.perf_counter() - t0
        parts = defaultdict(float)
        for s in pr.metrics.spans:
            if s.rank == -1 and s.name in HOST_SPANS:
                parts[HOST_SPANS[s.name]] += s.t_end - s.t_start
                tr.add(HOST_SPANS[s.name], s.t_start, s.t_end, sp)
        run.samples["traced_build_s"].append(wall)
        run.samples["partition_s"].append(parts["core.parallel.partition"])
        run.samples["epilogue_s"].append(parts["core.parallel.epilogue"])
        comm = pr.metrics.comm
        run.counts.update({
            "cluster.comm_elements": comm.total_elements,
            "cluster.comm_bytes": comm.total_bytes,
            "cluster.messages": comm.total_messages,
            "cluster.expected_comm_elements": pr.expected_comm_volume_elements,
            "cluster.max_peak_memory_elements": pr.max_peak_memory_elements,
        })
        checker.check("parallel", pr.results, pr)


def replay_layers(run: Run, arr, bits, backend) -> None:
    """Call each layer's public function the way a build does, timed.

    Blocks are cut with the slices ``BlockPartition.slices(grid.label(r))``
    gives, as the build's host prologue cuts them.
    """
    tr = run.tracer
    shape = tuple(arr.shape)
    n = len(shape)
    dims = tuple(range(n))
    grid = ProcessorGrid(bits)
    part = BlockPartition(shape, grid.parts)
    blocks = []
    for r in grid.ranks():
        sl = part.slices(grid.label(r))
        with tr.span("arrays.sparse.extract_block", rank=r):
            blocks.append(arr.extract_block(sl))
    run.counts["arrays.sparse.extract_nnz"] = sum(b.nnz for b in blocks)
    with tr.span("exec.prepare_inputs", backend=backend.name):
        backend.prepare_inputs(blocks)
    backend.end_run()

    tree = AggregationTree(n)
    root = full_node(n)
    children = tree.children(root)
    elems = 0
    for blk in blocks:
        with tr.span("arrays.aggregate.first_level"):
            aggregate_sparse_multi(blk, dims, children)
        elems += blk.nnz * len(children)
    run.counts["first_level_elems"] = elems
    del blocks

    with tr.span("core.sequential.construct_cube_sequential"):
        seq = construct_cube_sequential(arr)
    run.counts["core.sequential.compute_element_ops"] = seq.compute_element_ops
    run.counts["core.sequential.peak_memory_elements"] = seq.peak_memory_elements

    # Bytes each aggregation edge reads and writes, computed from sizes.
    nbytes = 0
    for step in tree.schedule():
        if not isinstance(step, ComputeChildren):
            continue
        if step.node == root:
            nbytes += arr.nbytes + sum(seq.results[c].nbytes for c in step.children)
            continue
        parent = seq.results[step.node]
        for child in step.children:
            with tr.span("arrays.aggregate.rollup"):
                out = aggregate_dense(parent, child, measure=SUM.rollup)
            nbytes += parent.nbytes + out.nbytes
    run.counts["arrays.aggregate.bytes_computed"] = nbytes


def build_phase(run: Run, arr, oracle, bits, backend, seconds, min_builds,
                serve=None):
    """Alternate parallel and serial builds for ``seconds``; check each.

    The traced run adds one traced parallel build per round, so tracing
    overhead is measured as traced minus untraced wall time in the same
    run.  With ``serve`` (``results -> Journey``), the first parallel build
    is served and every round ends with ``round_queries`` queries, which
    spreads the query samples over the whole phase: a shared host's speed
    drifts over seconds, and interpreter-bound query latency drifts most.

    Returns the last parallel build's aggregates and the journey, if any.
    """
    sc = run.scale
    checker = BuildChecker(run, oracle)
    if run.tracing:
        replay_layers(run, arr, bits, backend)
    results = None
    journey = None
    deadline = time.perf_counter() + seconds
    i = 0
    while (i < min_builds or time.perf_counter() < deadline) and i < sc.max_builds:
        with run.op("parallel build"):
            results = None
            pr, wall, cpu = _timed(lambda: _parallel(arr, bits, backend))
            run.samples["build_s"].append(wall)
            run.samples["build_cpu_s"].append(cpu)
            if i == 0 and run.inject == "corrupt-aggregate":
                _corrupt(pr.results)
            checker.check("parallel", pr.results, pr)
            results = pr.results
            del pr
        if run.tracing:
            _traced_build(run, checker, arr, bits, backend)
        with run.op("serial build"):
            sr, wall, cpu = _timed(lambda: construct_cube_sequential(arr))
            run.samples["serial_build_s"].append(wall)
            run.samples["serial_cpu_s"].append(cpu)
            checker.check("serial", sr.results)
            del sr
        if serve is not None and results is not None:
            if journey is None:
                journey = serve(results)
            journey.run(queries=sc.round_queries)
        i += 1
    with run.op("peak-memory build"):
        run.samples["build_peak_mb"].append(_peak_mb(arr))
    pool = getattr(backend, "pool", None)
    run.counts["exec.pool_tasks"] = pool.total_tasks if pool is not None else 0
    if results is None:
        raise RuntimeError("no parallel build succeeded; nothing to serve")
    return results, journey


# -- serving ------------------------------------------------------------------


def make_cube(shape, results, base) -> DataCube:
    """A served cube over build results (dimension ``i`` is named ``d<i>``)."""
    plan = plan_cube(shape, num_processors=2)
    if plan.order != tuple(range(len(shape))):
        raise RuntimeError(f"plan reorders dimensions: {plan.order}")
    schema = Schema.simple(**{f"d{i}": s for i, s in enumerate(shape)})
    return DataCube(schema=schema, plan=plan, aggregates=results, base=base)


def _to_query(template) -> GroupByQuery:
    group, where = template
    return GroupByQuery(
        group_by=tuple(f"d{d}" for d in group),
        where={f"d{d}": v for d, v in where},
    )


class Journey:
    """One closed-loop client of a served cube: each query waits for the
    previous answer.

    After every ``per_delta`` queries one ``apply_delta`` of new facts
    lands (``update_base=True``), which invalidates the cache.  Every
    ``check_every``-th query is checked against ``mirror``, an oracle copy
    that the deltas also update.
    """

    def __init__(self, run: Run, shape, results, base, mirror, per_delta):
        sc = run.scale
        self.run_ = run
        self.shape = shape
        self.cube = make_cube(shape, results, base)
        self.service = CubeService(self.cube, result_cache_size=sc.cache_entries)
        self.stream = gen.QueryStream(run.rng, shape, sc.universe)
        self.mirror = mirror
        self.per_delta = per_delta
        self.queries: dict[int, GroupByQuery] = {}
        self.count = 0
        self.since_delta = 0
        self.deltas = 0
        run.info.update(queries_per_delta=per_delta, delta_facts=sc.delta_facts,
                        cache_entries=sc.cache_entries)

    def run(self, *, queries=None, deadline=None, deltas=None) -> None:
        """Serve until ``queries`` more queries, ``deadline``, or ``deltas``
        deltas in all."""
        run = self.run_
        stop_at = None if queries is None else self.count + queries
        while True:
            if deltas is not None and self.deltas >= deltas:
                break
            if stop_at is not None and self.count >= stop_at:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            for k in self.stream.draw(256):
                self._query(int(k))
                self.since_delta += 1
                if self.since_delta >= self.per_delta:
                    self.since_delta = 0
                    _delta(run, self.service, self.cube, self.mirror, self.shape)
                    self.deltas += 1
                    break
                if stop_at is not None and self.count >= stop_at:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
        stats = self.service.cache_stats
        run.counts.update({
            "serve.queries": self.service.queries_served,
            "serve.cells_scanned": self.service.cells_scanned_actual,
            "serve.cache.hits": stats.hits,
            "serve.cache.misses": stats.misses,
            "serve.cache.invalidated": stats.invalidations,
        })

    def _query(self, k: int) -> None:
        run = self.run_
        lat = run.samples
        q = self.queries.get(k)
        if q is None:
            q = self.queries[k] = _to_query(self.stream.templates[k])
        self.count += 1
        traced = run.tracing and self.count % 2 == 0
        run.attempted += 1
        stats = self.service.cache_stats
        hits0 = stats.hits
        try:
            if traced:
                t0 = time.perf_counter()
                with run.tracer.span("serve.execute"):
                    res = self.service.execute(q)
                dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                res = self.service.execute(q)
                dt = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - counted as failed
            run.fail(f"query {q}: {type(exc).__name__}: {exc}")
            return
        hit = stats.hits > hits0
        if traced:
            lat["traced_query_s"].append(dt)
        else:
            lat["query_s"].append(dt)
            lat["hit_s" if hit else "miss_s"].append(dt)
        if self.count % run.scale.check_every == 0:
            group, where = self.stream.templates[k]
            if not orc.close(res.values, orc.answer(self.mirror, group, dict(where))):
                run.fail(f"query {q} answer differs from the oracle")
            if traced:
                _replay_query(run.tracer, self.service.engine, q, hit)


def _replay_query(tr, engine, q, hit: bool) -> None:
    """The query layer's steps, called one by one (uncached)."""
    with tr.span("olap.query.canonicalize"):
        cq = engine.canonicalize(q)
    with tr.span("olap.query.resolve_cover"):
        cover = engine.resolve_cover(cq.mentioned)
    if not hit:
        with tr.span("olap.query.reduce"):
            engine.reduce_to_mentioned(cover, cq.mentioned)


def _delta(run: Run, service, cube, oracle, shape) -> None:
    coords, values = gen.delta_batch(run.rng, shape, run.scale.delta_facts)
    with run.op("delta"):
        delta = run.ingest(shape, coords, values)
        t0 = time.perf_counter()
        with run.tracer.span("olap.maintenance.apply_delta"):
            apply_delta(cube, delta, update_base=True)
        run.samples["delta_apply_s"].append(time.perf_counter() - t0)
        orc.add_facts(oracle, shape, coords, values)
        if run.tracing:
            # apply_delta's two costs, replayed through public calls: the
            # delta cube, and the base merge.
            tr = run.tracer
            with tr.span("olap.maintenance.delta_cube"):
                cube.plan.run_partial(
                    delta, list(cube.aggregates),
                    parallel=cube.plan.num_processors > 1, measure=SUM,
                )
            with tr.span("olap.maintenance.merge_sparse"):
                merge_sparse(cube.base, delta)


def _mirror(oracle: dict) -> dict:
    """A copy of the oracle for the served cube; deltas update it in place
    while the builds keep checking against the original."""
    return {node: np.array(arr, copy=True) for node, arr in oracle.items()}


# -- workloads ----------------------------------------------------------------


def fig7_sparse(run: Run) -> None:
    sc = run.scale
    shape = sc.fig7_shape
    deltas, per_delta = sc.fig7_serving
    coords, values = run.set_up(lambda rng: gen.sparse_facts(rng, shape, sc.density))
    backend = ThreadBackend().open(workers=2)
    try:
        run.attempted += 1  # the ingest; it raises rather than fail quietly
        arr = run.ingest(shape, coords, values, chunk_shape=sc.fig7_chunk)
        run.samples["ingest_s"].append(run.samples["from_coords_s"][-1])
        oracle = orc.oracle_from_facts(shape, coords, values)
        del coords, values
        run.info.update(shape=list(shape), nnz=arr.nnz, chunk=list(sc.fig7_chunk),
                        chunks=len(arr.chunks), bits=list(FIG7_BITS), backend="thread")
        _, journey = build_phase(
            run, arr, oracle, FIG7_BITS, backend, run.seconds, sc.min_builds,
            serve=lambda res: Journey(run, shape, res, arr, _mirror(oracle),
                                      per_delta))
    finally:
        backend.close()
    journey.run(deltas=deltas)


def serve_mixed(run: Run) -> None:
    sc = run.scale
    shape = sc.serve_shape
    t0 = time.perf_counter()
    coords, values = gen.sparse_facts(run.rng, shape, sc.density)
    run.attempted += 1  # the ingest; it raises rather than fail quietly
    arr = run.ingest(shape, coords, values, chunk_shape=sc.serve_chunk)
    run.samples["ingest_s"].append(run.samples["from_coords_s"][-1])
    t_oracle = time.perf_counter()
    oracle = orc.oracle_from_facts(shape, coords, values)
    t_oracle = time.perf_counter() - t_oracle
    del coords, values
    run.info.update(shape=list(shape), nnz=arr.nnz, chunk=list(sc.serve_chunk),
                    chunks=len(arr.chunks), bits=list(FIG7_BITS), backend="thread")
    backend = ThreadBackend().open(workers=2)
    try:
        results, _ = build_phase(run, arr, oracle, FIG7_BITS, backend, 0.0,
                                 sc.serve_builds)
    finally:
        backend.close()
    journey = Journey(run, shape, results, arr, oracle, sc.queries_per_delta)
    # Set-up is generation, ingest and the serving cube's builds; the
    # oracle is the benchmark's own work and is left out.
    run.setup_s = time.perf_counter() - t0 - t_oracle
    run.main_op = "query"
    journey.run(deadline=time.perf_counter() + run.seconds)


WORKLOADS = {
    "fig7_sparse": fig7_sparse,
    "serve_mixed": serve_mixed,
}


# -- metrics ------------------------------------------------------------------


def _pct(xs, q):
    return float(np.percentile(np.asarray(xs), q)) if xs else float("nan")


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """Every end-to-end metric as ``name -> (value, unit, samples)``."""
    s = run.samples
    ingest = s["ingest_s"]
    q = s["query_s"]
    return {
        "setup_s": (run.setup_s, "s", run.setup_n),
        "ingest_s": (median(ingest), "s", len(ingest)),
        "build_s": (median(s["build_s"]), "s", len(s["build_s"])),
        "serial_build_s": (median(s["serial_build_s"]), "s", len(s["serial_build_s"])),
        "build_cpu_s": (median(s["build_cpu_s"]), "s", len(s["build_cpu_s"])),
        "build_peak_mb": (median(s["build_peak_mb"]), "MB", len(s["build_peak_mb"])),
        "query_p50_ms": (_pct(q, 50) * 1e3, "ms", len(q)),
        "query_p99_ms": (_pct(q, 99) * 1e3, "ms", len(q)),
        "queries_per_s": (len(q) / sum(q) if q else float("nan"), "queries/s", len(q)),
        "delta_apply_s": (median(s["delta_apply_s"]), "s", len(s["delta_apply_s"])),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str, int]]:
    """Every per-layer metric of a traced run, ``name -> (value, unit, n)``."""
    tr = run.tracer
    s = run.samples
    c = run.counts

    def total(name, unit="s"):
        d = tr.durations(name)
        return sum(d), unit, len(d)

    def med(name, unit, scale):
        d = tr.durations(name)
        return median(d) * scale, unit, len(d)

    fc_s, fc_n = sum(s["from_coords_s"]), len(s["from_coords_s"])
    fl_s = sum(tr.durations("arrays.aggregate.first_level"))
    nb = len(s["traced_build_s"])
    build = median(s["traced_build_s"])
    part = median(s["partition_s"])
    epi = median(s["epilogue_s"])
    build_cpu = median(s["build_cpu_s"])
    serial_cpu = median(s["serial_cpu_s"])
    queries = max(c.get("serve.queries", 0), 1)
    lookups = c.get("serve.cache.hits", 0) + c.get("serve.cache.misses", 0)
    # Tracing overhead on the workload's timed operation: traced minus
    # untraced, both measured in this run.
    if run.main_op == "query":
        traced, plain = s["traced_query_s"], s["query_s"]
    else:
        traced, plain = s["traced_build_s"], s["build_s"]
    overhead = median(traced) - median(plain)
    out = {
        "arrays.sparse.from_coords_s": (fc_s, "s", fc_n),
        "arrays.sparse.from_coords_nnz_per_s": (
            sum(s["from_coords_facts"]) / fc_s, "nnz/s", fc_n),
        "arrays.sparse.extract_block_s": total("arrays.sparse.extract_block"),
        "arrays.sparse.extract_nnz": (c["arrays.sparse.extract_nnz"], "count", 1),
        "arrays.aggregate.first_level_s": total("arrays.aggregate.first_level"),
        "arrays.aggregate.first_level_elems_per_s": (
            c["first_level_elems"] / fl_s, "elems/s", 1),
        "arrays.aggregate.rollup_s": total("arrays.aggregate.rollup"),
        "arrays.aggregate.bytes_computed": (
            c["arrays.aggregate.bytes_computed"], "bytes", 1),
        "core.sequential.compute_element_ops": (
            c["core.sequential.compute_element_ops"], "count", 1),
        "core.sequential.peak_memory_elements": (
            c["core.sequential.peak_memory_elements"], "count", 1),
        "core.sequential.serial_cpu_s": (serial_cpu, "s", len(s["serial_cpu_s"])),
        "core.parallel.traced_build_s": (build, "s", nb),
        "core.parallel.partition_s": (part, "s", nb),
        "core.parallel.epilogue_s": (epi, "s", nb),
        "core.parallel.prologue_share": (part / build, "ratio", nb),
        "exec.prepare_inputs_s": total("exec.prepare_inputs"),
        "exec.rank_phase_s": (build - part - epi, "s", nb),
        "exec.build_cpu_s": (build_cpu, "s", len(s["build_cpu_s"])),
        "exec.work_inflation": (build_cpu / serial_cpu, "ratio", len(s["build_cpu_s"])),
        "exec.pool_tasks": (c["exec.pool_tasks"], "count", 1),
        "cluster.comm_elements": (c["cluster.comm_elements"], "count", nb),
        "cluster.expected_comm_elements": (
            c["cluster.expected_comm_elements"], "count", nb),
        "cluster.comm_bytes": (c["cluster.comm_bytes"], "bytes", nb),
        "cluster.messages": (c["cluster.messages"], "count", nb),
        "cluster.max_peak_memory_elements": (
            c["cluster.max_peak_memory_elements"], "count", nb),
        "serve.cache.hit_rate": (c.get("serve.cache.hits", 0) / max(lookups, 1),
                                 "ratio", lookups),
        "serve.hit_us_p50": (median(s["hit_s"]) * 1e6, "us", len(s["hit_s"])),
        "serve.miss_ms_p50": (median(s["miss_s"]) * 1e3, "ms", len(s["miss_s"])),
        "serve.cells_scanned_per_query": (
            c.get("serve.cells_scanned", 0) / queries, "count", queries),
        "serve.cache.invalidated": (c.get("serve.cache.invalidated", 0), "count", 1),
        "olap.query.canonicalize_us": med("olap.query.canonicalize", "us", 1e6),
        "olap.query.resolve_cover_us": med("olap.query.resolve_cover", "us", 1e6),
        "olap.query.reduce_ms": med("olap.query.reduce", "ms", 1e3),
        "olap.maintenance.delta_cube_s": med("olap.maintenance.delta_cube", "s", 1.0),
        "olap.maintenance.merge_sparse_s": med("olap.maintenance.merge_sparse", "s", 1.0),
        "trace.overhead_ms": (overhead * 1e3, "ms", len(traced)),
        "trace.overhead_share": (overhead / median(plain), "ratio", len(traced)),
        "trace.spans": (len(tr.spans), "count", 1),
    }
    for layer, secs in tr.self_times().items():
        if layer != "cluster":
            out[f"{layer}.self_s"] = (secs, "s", 1)
    return out
