"""The GraphFlat MapReduce pipeline (§3.2.1) with re-indexing + sampling
(§3.2.2).

Rounds:

* **Map** (runs once): co-locates, per node ``v``, the self information
  ``S_0(v)`` (its feature), and v's out-edges; then propagates
  ``S_0(v)`` along out-edges as the in-edge information of the destinations.
* **Reduce × K**: round ``k`` merges each node's self information with its
  (sampled) in-edge information — producing the k-hop neighborhood — and
  propagates the merged result via out-edges for round ``k+1``.  Out-edge
  information passes through unchanged.
* **Storing**: final self informations of the target nodes are flattened to
  wire bytes (``repro.proto``) and written to the DFS.

Hub handling: when a destination's in-degree exceeds ``hub_threshold``
(degrees are pre-computed by a small MapReduce job), propagation appends a
deterministic suffix to the shuffle key, splitting the hub's in-edge records
across ``reindex_fanout`` reducers which pre-sample and pre-merge; an
inverted-indexing step restores the original key for the final merge.  This
is Figure 3 verbatim.

Every operator here is a top-level callable dataclass (not a closure) so a
job can be pickled to worker processes under the runtime's ``processes``
backend — which is what turns §3.2's "scales near-linearly with workers"
claim into something this reproduction can actually measure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.graphflat.records import InEdgeInfo, OutEdgeInfo, SubgraphInfo
from repro.core.graphflat.sampling import SamplingStrategy, make_sampler
from repro.graph.subgraph import GraphFeature, merge_graph_features
from repro.graph.tables import EdgeTable, NodeTable
from repro.graph.validate import validate_tables
from repro.mapreduce.fs import DistFileSystem
from repro.mapreduce.job import MapReduceJob, SumCombiner
from repro.mapreduce.runtime import LocalRuntime, RunStats
from repro.proto.codec import encode_sample
from repro.proto.columnar import write_sample_shard
from repro.tasks import make_task

__all__ = [
    "GraphFlatConfig",
    "GraphFlatResult",
    "MergeReducer",
    "PairReducer",
    "PartialReducer",
    "PrepareReducer",
    "SampleShardSink",
    "graph_flat",
]


@dataclass
class GraphFlatConfig:
    """What GraphFlat computes (the CLI flags of Figure 6's ``GraphFlat -n
    node_table -e edge_table -h hops -s sampling_strategy``).  How it runs
    — backend, workers, spill, codec, transport, retries — is the
    :class:`~repro.mapreduce.runtime.LocalRuntime` passed to
    :func:`graph_flat`."""

    hops: int = 2
    sampling: str = "uniform"
    max_neighbors: int = 32
    task: str = "node_classification"
    """Task plugin (``repro.tasks``) the samples are built for.  Node-level
    tasks keep the classic per-node flow byte-for-byte; edge-level tasks
    (``link_prediction`` / ``edge_classification``) derive a target-edge
    table, flatten *both* endpoints' k-hop neighborhoods, and join them in
    one extra pairing round keyed by edge index."""
    edge_targets: int | None = None
    """Edge-level tasks: cap on the number of positive target edges
    (seeded downsample); ``None`` keeps every eligible edge."""
    negative_ratio: int = 1
    """Link prediction: sampled negative edges per positive edge."""
    hub_threshold: int = 1_000
    reindex_fanout: int = 8
    num_reducers: int = 4
    seed: int = 0
    validate: bool = True

    def __post_init__(self):
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.reindex_fanout < 2:
            raise ValueError("reindex_fanout must be >= 2")
        if self.num_reducers < 1:
            raise ValueError("num_reducers must be >= 1")
        # unknown task/sampling names and bad caps fail here, not mid-pipeline
        make_task(self.task)
        make_sampler(self.sampling, self.max_neighbors, self.seed)
        if self.edge_targets is not None and self.edge_targets < 1:
            raise ValueError("edge_targets must be >= 1")
        if self.negative_ratio < 1:
            raise ValueError("negative_ratio must be >= 1")


@dataclass
class GraphFlatResult:
    """Output handle: encoded samples (in-memory mode) or a DFS dataset."""

    num_targets: int
    hops: int
    task: str = "node_classification"
    dataset: str | None = None
    samples: list[bytes] | None = None
    hub_nodes: list[int] = field(default_factory=list)
    round_stats: list[RunStats] = field(default_factory=list)
    neighborhood_nodes: np.ndarray | None = None
    neighborhood_edges: np.ndarray | None = None

    def summary(self) -> dict:
        out = {
            "targets": self.num_targets,
            "hops": self.hops,
            "hubs": len(self.hub_nodes),
        }
        if self.neighborhood_nodes is not None and len(self.neighborhood_nodes):
            out["mean_nodes"] = float(self.neighborhood_nodes.mean())
            out["max_nodes"] = int(self.neighborhood_nodes.max())
            out["mean_edges"] = float(self.neighborhood_edges.mean())
            out["max_edges"] = int(self.neighborhood_edges.max())
        return out


def _suffix(src: int, dst: int, fanout: int) -> int:
    """Deterministic 'random suffix' for re-indexing: stable across task
    re-execution (fault tolerance), across runs, and across rounds (so the
    per-slice sampling draw is the same every round — see repro.core.
    graphflat.sampling)."""
    return zlib.crc32(f"{src}|{dst}".encode()) % fanout


def _degree_mapper(key, value):
    # value: (src, dst, weight, edge_feat); count by destination
    yield value[1], 1


def _sum_reducer(key, values):
    yield key, sum(values)


def _degree_job(num_reducers: int) -> MapReduceJob:
    """In-degree counting — the broadcast input of the hub detector.

    The combiner is a :class:`~repro.mapreduce.job.SumCombiner`, which the
    spilling map path pushes down into the run writer: per-edge ``(dst, 1)``
    records are folded into per-key partial counts *inside the write
    buffer*, on the encoded records, before they ever hit disk."""
    return MapReduceJob(
        "graphflat-degree",
        _sum_reducer,
        mapper=_degree_mapper,
        combiner=SumCombiner(),
        num_reducers=num_reducers,
    )


def graph_flat(
    nodes: NodeTable,
    edges: EdgeTable,
    targets: np.ndarray | None = None,
    config: GraphFlatConfig | None = None,
    runtime: LocalRuntime | None = None,
    fs: DistFileSystem | None = None,
    dataset_name: str = "graphflat/output",
) -> GraphFlatResult:
    """Run GraphFlat end to end.

    Parameters
    ----------
    targets:
        node ids whose k-hop neighborhoods are materialised (the labeled
        nodes, §3.2); ``None`` keeps every node (GraphInfer-style input).
    runtime:
        MapReduce runtime; ``None`` runs on a serial, in-memory
        ``LocalRuntime()`` that this call creates and closes.
    fs / dataset_name:
        when ``fs`` is given, each final-round reducer writes its samples
        as one columnar shard of that dataset and ``result.dataset`` is
        set; otherwise the encoded samples are returned in memory
        (``result.samples``).
    """
    config = config or GraphFlatConfig()
    owns_runtime = runtime is None
    runtime = runtime or LocalRuntime()
    try:
        return _graph_flat(
            nodes, edges, targets, config, runtime, fs, dataset_name
        )
    finally:
        if owns_runtime:
            runtime.close()


def _graph_flat(
    nodes: NodeTable,
    edges: EdgeTable,
    targets: np.ndarray | None,
    config: GraphFlatConfig,
    runtime: LocalRuntime,
    fs: DistFileSystem | None,
    dataset_name: str,
) -> GraphFlatResult:
    if config.validate:
        validate_tables(nodes, edges)
    edges = edges.coalesce()  # one A_{v,u} entry per node pair (see EdgeTable)

    sampler = make_sampler(config.sampling, config.max_neighbors, config.seed)
    task_obj = make_task(config.task)
    # Meta records the task only when it deviates from the classic default,
    # so node-classification output (shards *and* _META.json) stays
    # byte-identical to the pre-task-layer pipeline.
    meta_task = None if config.task == "node_classification" else config.task
    edge_fanout = None
    if task_obj.edge_level:
        if targets is not None:
            raise ValueError(
                f"task {config.task!r} derives its targets from the edge "
                "table; explicit node targets only apply to node-level tasks"
            )
        # Parent-side + seeded: the target-edge table (including link
        # prediction's negative draws) is fixed before any MapReduce round
        # runs, so retries/speculation/backend choice cannot change it.
        edge_table = task_obj.build_edge_targets(
            nodes,
            edges,
            seed=config.seed,
            max_targets=config.edge_targets,
            negative_ratio=config.negative_ratio,
        )
        target_set = {int(t) for t in edge_table.endpoint_ids}
        label_of = _EdgeLabelTable(edge_table.labels)
        edge_fanout = _EdgeFanout.from_targets(edge_table)
    else:
        target_set = None if targets is None else {int(t) for t in np.asarray(targets)}
        label_of = _LabelTable.from_nodes(nodes)
    if target_set is not None:
        missing = [t for t in sorted(target_set) if t not in nodes]
        if missing:
            raise KeyError(f"{len(missing)} target ids not in node table (e.g. {missing[:5]})")
    type_table = _TypeTable.from_tables(nodes, edges)

    edge_rows = [
        (int(s), (int(s), int(d), float(w), f))
        for s, d, f, w in edges.rows()
    ]

    # ---- hub detection (a tiny MR job over the edge table) ----------------
    degree_pairs = runtime.run(_degree_job(config.num_reducers), edge_rows)
    degree_stats: list[RunStats] = list(runtime.round_stats)
    hubs = frozenset(int(v) for v, deg in degree_pairs if deg > config.hub_threshold)
    reindex_active = bool(hubs)

    # ---- Map phase ("runs only once at the beginning", §3.2.1) followed
    # by K Reduce rounds, submitted as one chained sequence: every round
    # is reduce-only, so the runtime hands partitions reducer-to-reducer
    # and intermediate state never funnels through this process.
    node_rows = [(int(i), ("node", feat)) for i, feat, _ in nodes.rows()]
    jobs = [
        MapReduceJob(
            "graphflat-map",
            PrepareReducer(hubs, config.reindex_fanout, reindex_active),
            num_reducers=config.num_reducers,
        )
    ]
    for k in range(1, config.hops + 1):
        if reindex_active:
            jobs.append(
                MapReduceJob(
                    f"graphflat-reduce{k}-reindex",
                    PartialReducer(sampler, k, config.reindex_fanout),
                    num_reducers=config.num_reducers,
                )
            )
        jobs.append(
            MapReduceJob(
                f"graphflat-reduce{k}",
                MergeReducer(
                    sampler,
                    k,
                    config.hops,
                    hubs,
                    config.reindex_fanout,
                    reindex_active,
                    None if target_set is None else frozenset(target_set),
                    edge_fanout,
                ),
                num_reducers=config.num_reducers,
            )
        )
    if edge_fanout is not None:
        # Pairing round: join the two endpoints' flattened neighborhoods
        # per target edge, keyed by edge index (output order is
        # partition-major over edge indices).
        jobs.append(
            MapReduceJob(
                "graphflat-pair",
                PairReducer(),
                num_reducers=config.num_reducers,
            )
        )
    samples = None
    if fs is None:
        data = runtime.run_rounds(jobs, node_rows + edge_rows)
        triples, n_nodes, n_edges = _final_triples(data, label_of, type_table)
        samples = [encode_sample(*triple) for triple in triples]
    else:
        # ---- Storing: each final-round reducer writes its own AGLC
        # shard straight into the (pre-cleared) dataset directory;
        # sample triples never travel through this process.  Shard
        # order = partition order and keys are sorted within a
        # partition, so the global record stream equals the in-memory
        # output exactly.
        directory = fs.prepare_dataset(dataset_name)
        sink = SampleShardSink(str(directory), label_of, type_table, meta_task)
        summaries = runtime.run_rounds(jobs, node_rows + edge_rows, final_sink=sink)
        fs.finalize_dataset(
            dataset_name,
            kind="samples",
            record_counts=[count for count, _, _ in summaries],
            task=meta_task,
        )
        n_nodes = [n for _, nodes_, _ in summaries for n in nodes_]
        n_edges = [n for _, _, edges_ in summaries for n in edges_]
    return GraphFlatResult(
        num_targets=len(n_nodes),
        hops=config.hops,
        task=config.task,
        dataset=None if fs is None else dataset_name,
        samples=samples,
        hub_nodes=sorted(hubs),
        # Degree-job stats included: the CLI/bench shuffle accounting must
        # cover every round the pipeline actually ran.
        round_stats=degree_stats + list(runtime.round_stats),
        neighborhood_nodes=np.asarray(n_nodes, dtype=np.int64),
        neighborhood_edges=np.asarray(n_edges, dtype=np.int64),
    )


def _final_triples(pairs, labels, types) -> tuple[list[tuple], list[int], list[int]]:
    """Final-round output pairs as ``(sample_id, label, GraphFeature)``
    triples, plus each sample's node and edge counts.

    ``sample_id`` is the node id (node tasks) or edge index (edge tasks);
    node flows yield SubgraphInfos to flatten, edge flows' pairing round
    already yields GraphFeatures."""
    triples: list[tuple] = []
    n_nodes: list[int] = []
    n_edges: list[int] = []
    for sample_id, (tag, info) in pairs:
        if tag != "final":  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected record tag {tag!r} after final round")
        gf = info if isinstance(info, GraphFeature) else info.to_graph_feature()
        if types is not None:
            gf = types.attach(gf)
        n_nodes.append(gf.num_nodes)
        n_edges.append(gf.num_edges)
        triples.append((sample_id, labels(sample_id), gf))
    return triples, n_nodes, n_edges


@dataclass(frozen=True)
class _LabelTable:
    """Picklable label lookup: sorted node ids + aligned label rows.

    The closure variant of this (capturing the whole :class:`NodeTable`)
    cannot ship inside a reducer-owned sink under the process backend;
    this table can, and the in-memory output uses it too so label
    semantics cannot drift between the two."""

    ids: np.ndarray
    values: np.ndarray | None

    @classmethod
    def from_nodes(cls, nodes: NodeTable) -> "_LabelTable":
        if nodes.labels is None:
            return cls(np.empty(0, dtype=np.int64), None)
        ids = np.asarray(nodes.ids)
        order = np.argsort(ids, kind="stable")
        return cls(ids[order], np.asarray(nodes.labels)[order])

    def __call__(self, node_id: int):
        if self.values is None:
            return None
        label = self.values[int(np.searchsorted(self.ids, node_id))]
        if np.ndim(label) == 0:
            return int(label)
        return np.asarray(label, dtype=np.float32)


@dataclass(frozen=True)
class _EdgeLabelTable:
    """Label lookup for edge-level tasks: the sample id *is* the row index
    into the target-edge table, so lookup is a direct index."""

    values: np.ndarray

    def __call__(self, edge_index: int) -> int:
        return int(self.values[int(edge_index)])


@dataclass(frozen=True)
class _EdgeFanout:
    """Broadcast table for edge-level tasks: node id -> the target edges it
    terminates, as ``(edge_index, role)`` entries (role 0 = src endpoint,
    role 1 = dst).  Built parent-side from the seeded target table, shipped
    inside the final MergeReducer, so every re-execution fans out the exact
    same records."""

    entries_by_node: dict[int, tuple[tuple[int, int], ...]]

    @classmethod
    def from_targets(cls, edge_table) -> "_EdgeFanout":
        return cls.from_pairs(edge_table.src, edge_table.dst)

    @classmethod
    def from_pairs(cls, src, dst) -> "_EdgeFanout":
        out: dict[int, list[tuple[int, int]]] = {}
        for idx in range(len(src)):
            out.setdefault(int(src[idx]), []).append((idx, 0))
            out.setdefault(int(dst[idx]), []).append((idx, 1))
        return cls({node: tuple(pairs) for node, pairs in out.items()})

    def entries(self, node_id: int) -> tuple[tuple[int, int], ...]:
        return self.entries_by_node.get(int(node_id), ())


@dataclass(frozen=True)
class _TypeTable:
    """Picklable node/edge type lookup for heterogeneous tables.

    Types ride *outside* the MapReduce rounds: the shuffled SubgraphInfo
    records stay exactly as they were (byte-identical spills), and types
    are attached to the flattened GraphFeatures at the storage boundary
    (:func:`_final_triples`)."""

    node_types: dict[int, int] | None
    edge_types: dict[tuple[int, int], int] | None

    @classmethod
    def from_tables(cls, nodes: NodeTable, edges: EdgeTable) -> "_TypeTable | None":
        if nodes.types is None and edges.types is None:
            return None
        node_types = None
        if nodes.types is not None:
            node_types = {
                int(i): int(t) for i, t in zip(nodes.ids.tolist(), nodes.types.tolist())
            }
        edge_types = None
        if edges.types is not None:
            edge_types = {
                (int(s), int(d)): int(t)
                for s, d, t in zip(
                    edges.src.tolist(), edges.dst.tolist(), edges.types.tolist()
                )
            }
        return cls(node_types, edge_types)

    def attach(self, gf: GraphFeature) -> GraphFeature:
        node_type = None
        if self.node_types is not None:
            node_type = np.asarray(
                [self.node_types[int(i)] for i in gf.node_ids.tolist()], dtype=np.int64
            )
        edge_type = None
        if self.edge_types is not None:
            g_src = gf.node_ids[gf.edge_src].tolist()
            g_dst = gf.node_ids[gf.edge_dst].tolist()
            edge_type = np.asarray(
                [self.edge_types[(int(s), int(d))] for s, d in zip(g_src, g_dst)],
                dtype=np.int64,
            )
        return GraphFeature(
            gf.target_ids,
            gf.node_ids,
            gf.x,
            gf.hops,
            gf.edge_src,
            gf.edge_dst,
            gf.edge_feat,
            gf.edge_weight,
            node_type,
            edge_type,
        )


@dataclass(frozen=True)
class SampleShardSink:
    """Reducer-owned columnar sink: the final-round reducer streams its
    output pairs straight into one AGLC shard (``part-<task>``), buffering
    one shard's triples — never the whole dataset.  Returns ``(count,
    n_nodes, n_edges)`` per partition; the parent only ever sees these
    summaries."""

    directory: str
    labels: _LabelTable | _EdgeLabelTable
    types: _TypeTable | None = None
    task: str | None = None

    def store(self, task_index: int, pairs):
        triples, n_nodes, n_edges = _final_triples(pairs, self.labels, self.types)
        path = Path(self.directory) / f"part-{task_index:05d}"
        count = write_sample_shard(path, triples, task=self.task)
        return count, n_nodes, n_edges


def _propagation_key(dst: int, src: int, hubs, fanout, reindex_active):
    if not reindex_active:
        return dst
    if dst in hubs:
        return (dst, 1 + _suffix(src, dst, fanout))
    return (dst, 0)


def _plain_key(node_id: int, reindex_active: bool):
    return (node_id, 0) if reindex_active else node_id


@dataclass(frozen=True)
class PrepareReducer:
    """The Map phase: build S_0, gather out-edges, propagate for round 1."""

    hubs: frozenset[int]
    fanout: int
    reindex_active: bool

    def __call__(self, node_id, values):
        feature = None
        outs: list[OutEdgeInfo] = []
        for value in values:
            tag = value[0]
            if tag == "node":
                feature = value[1]
            else:  # edge row keyed by source
                _, dst, weight, edge_feat = value
                outs.append(OutEdgeInfo(int(dst), weight, edge_feat))
        if feature is None:
            # Edge rows whose source never appears in the node table are
            # rejected by validation; reaching here means validation was
            # disabled — drop the stray records.
            return
        self_info = SubgraphInfo.seed(int(node_id), feature)
        yield _plain_key(int(node_id), self.reindex_active), ("self", self_info)
        if outs:
            yield _plain_key(int(node_id), self.reindex_active), ("out", outs)
            for out in outs:
                key = _propagation_key(
                    out.dst, int(node_id), self.hubs, self.fanout, self.reindex_active
                )
                yield key, ("in", InEdgeInfo(int(node_id), out.weight, out.edge_feat, self_info))


@dataclass(frozen=True)
class PartialReducer:
    """Re-indexed stage (Figure 3): sample/pre-merge hub slices, then
    inverted-index back to the original shuffle key."""

    sampler: SamplingStrategy
    round_index: int
    fanout: int

    def __call__(self, key, values):
        node_id, sfx = key
        if sfx == 0:
            # Non-hub records pass through unchanged (inverted index is a
            # no-op for them).
            for value in values:
                yield node_id, value
            return
        in_edges = [value[1] for value in values]  # only "in" records get suffixes
        sampled = self.sampler.select(in_edges, node_id, salt=sfx)
        yield node_id, ("partial", sampled)


@dataclass(frozen=True)
class MergeReducer:
    """The paper's Reduce: merge self + in-edge info, propagate via
    out-edges (or emit the final neighborhoods on the last round)."""

    sampler: SamplingStrategy
    round_index: int
    total_rounds: int
    hubs: frozenset[int]
    fanout: int
    reindex_active: bool
    target_set: frozenset[int] | None
    edge_fanout: _EdgeFanout | None = None

    @property
    def final_round(self) -> bool:
        return self.round_index == self.total_rounds

    def __call__(self, node_id, values):
        self_info: SubgraphInfo | None = None
        outs: list[OutEdgeInfo] = []
        ins: list[InEdgeInfo] = []
        for value in values:
            tag = value[0]
            if tag == "self":
                self_info = value[1]
            elif tag == "out":
                outs = value[1]
            elif tag == "in":
                ins.append(value[1])
            elif tag == "partial":
                ins.extend(value[1])
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown record tag {tag!r}")
        if self_info is None:
            # A node that only ever appears as an edge destination of
            # dropped strays (validation disabled); nothing to do.
            return

        sampled = self.sampler.select(ins, node_id, salt=0)
        # Copy-on-merge: the previous round's object is shared with every
        # reducer we propagated it to — never mutate it.
        merged = SubgraphInfo(self_info.root, dict(self_info.nodes), dict(self_info.edges))
        for in_edge in sampled:
            merged.absorb_neighbor(in_edge.subgraph, in_edge.weight, in_edge.edge_feat)

        if self.final_round:
            if self.edge_fanout is not None:
                # Edge-level task: the k-hop neighborhood of this endpoint
                # fans out to every target edge it terminates, keyed by
                # edge index for the pairing round.  The merged object is
                # shared across emissions — the pairing round only reads it.
                for edge_index, role in self.edge_fanout.entries(node_id):
                    yield edge_index, ("end", role, merged)
            elif self.target_set is None or node_id in self.target_set:
                yield node_id, ("final", merged)
            return
        yield _plain_key(node_id, self.reindex_active), ("self", merged)
        if outs:
            yield _plain_key(node_id, self.reindex_active), ("out", outs)
            for out in outs:
                key = _propagation_key(
                    out.dst, node_id, self.hubs, self.fanout, self.reindex_active
                )
                yield key, ("in", InEdgeInfo(node_id, out.weight, out.edge_feat, merged))


@dataclass(frozen=True)
class PairReducer:
    """Edge-task pairing round: join the two endpoint neighborhoods of one
    target edge into a single GraphFeature whose targets are the *ordered*
    ``[src, dst]`` pair.

    Receives exactly two ``("end", role, SubgraphInfo)`` records per edge
    index (role 0 = src, role 1 = dst); the merge dedupes overlapping
    neighborhoods exactly like the trainer's batch merge, then the ordered
    target pair is re-imposed on the merged arrays (the merge sorts its
    targets, but edge readout needs to know which endpoint is which)."""

    def __call__(self, edge_index, values):
        ends = sorted(
            ((value[1], value[2]) for value in values), key=lambda pair: pair[0]
        )
        if [role for role, _ in ends] != [0, 1]:
            raise RuntimeError(
                f"target edge {edge_index} expected one record per endpoint "
                f"role, got roles {[role for role, _ in ends]}"
            )
        src_info, dst_info = ends[0][1], ends[1][1]
        merged = merge_graph_features(
            [src_info.to_graph_feature(), dst_info.to_graph_feature()]
        )
        gf = GraphFeature(
            np.asarray([src_info.root, dst_info.root], dtype=np.int64),
            merged.node_ids,
            merged.x,
            merged.hops,
            merged.edge_src,
            merged.edge_dst,
            merged.edge_feat,
            merged.edge_weight,
        )
        yield edge_index, ("final", gf)
