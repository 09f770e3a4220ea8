"""The three benchmark workloads: inputs and one ingest → GraphFlat → train
→ GraphInfer pipeline each.

Every input is generated from the workload seed and round-tripped through
TSV node and edge tables; the pipeline sees only the tables read back (plus
the generated target or candidate list).
"""

from __future__ import annotations

import functools
import hashlib
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import datasets
from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import GraphTrainer, TrainerConfig, open_sample_source
from repro.mapreduce import DistFileSystem, LocalRuntime
from repro.nn.gnn import GCNModel, GraphSAGEModel
from repro.proto.codec import decode_prediction
from repro.ps import DistributedConfig, DistributedTrainer
from repro.utils.timer import TimerRegistry

WORKLOADS = {
    "uug-spill": (
        "distributed deployment: processes backend with binary spill, "
        "BSP training over the shm parameter server, shm slice broadcast"
    ),
    "uug-memory": (
        "single-process baseline on the same graph: serial backend, "
        "in-memory shuffle, one GraphTrainer; no spill, pool or PS"
    ),
    "lp-train": (
        "link prediction where trainer ingest dominates: 800 edge samples, "
        "32 epochs, threads prefetch; edge pairing and candidate scoring"
    ),
}

# The uug-like graph of benchmarks/conftest.bench_uug: 4,000 nodes, 8 hubs
# of in-degree 600, 64-d features.
UUG_GRAPH = dict(
    num_nodes=4000, avg_degree=8, feature_dim=64, num_hubs=8, hub_degree=600,
    feature_scale=0.06, noise_edge_fraction=0.4, homophily=0.92,
)
UUG_TARGETS = 800
UUG_SAMPLING = dict(sampling="weighted", max_neighbors=10, hub_threshold=200)
UUG_EPOCHS = 4
LP_GRAPH = dict(num_nodes=800, num_edges=3600, feature_dim=16)
LP_EDGE_TARGETS = 400
LP_EPOCHS = 32
WORKERS = 2


@dataclass
class Inputs:
    nodes: object
    edges: object
    targets: np.ndarray | None = None
    candidates: np.ndarray | None = None


@dataclass
class PipelineRun:
    """What one pipeline produced: stage walls, layer counts, digests."""

    stage_s: dict[str, float] = field(default_factory=dict)
    targets: int = 0
    trained: int = 0
    scored: int = 0
    flat_stats: list = field(default_factory=list)
    infer_stats: list = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    epoch_s: list[float] = field(default_factory=list)
    timers: dict[str, float] = field(default_factory=dict)
    step_s: list[float] = field(default_factory=list)
    ps: dict[str, int] = field(default_factory=dict)
    fit_s: float = 0.0
    pipeline_s: float = 0.0
    cpu_s: float = 0.0
    rusage_children_s: float = 0.0
    peak_rss_mb: float = 0.0
    model: object = None
    embedding_computations: int = 0
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: dict[str, str] = field(default_factory=dict)
    """stage -> why that stage's operation failed (raised or bad output)."""

    def fail(self, stage: str, reason: str) -> None:
        self.failures.setdefault(stage, reason)


def _tables_equal(a, b, names) -> bool:
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
            return False
    return True


def make_inputs(workload: str, seed: int, workdir: Path, span) -> Inputs:
    """Generate the workload's graph and round-trip it through TSV tables.
    ``span(name)`` times each part (the setup layers)."""
    with span("datasets.generate"):
        if workload == "lp-train":
            nodes, edges = datasets.labeled_edges_like(seed=seed, **LP_GRAPH)
            targets = None
        else:
            ds = datasets.uug_like(seed=seed, **UUG_GRAPH)
            nodes, edges, targets = ds.nodes, ds.edges, ds.train_ids[:UUG_TARGETS]
    node_path, edge_path = workdir / "nodes.tsv", workdir / "edges.tsv"
    with span("datasets.table_io"):
        datasets.write_node_table(node_path, nodes)
        datasets.write_edge_table(edge_path, edges)
        read_nodes = datasets.read_node_table(node_path)
        read_edges = datasets.read_edge_table(edge_path)
    if not (
        _tables_equal(nodes, read_nodes, ("ids", "features", "labels", "types"))
        and _tables_equal(edges, read_edges, ("src", "dst", "features", "weights", "types", "labels"))
    ):
        raise RuntimeError("TSV round trip changed the generated tables")
    if targets is not None and len(targets) != UUG_TARGETS:
        raise RuntimeError(f"seed {seed} yields fewer than {UUG_TARGETS} targets")
    candidates = None
    if workload == "lp-train":
        # The graph's own edges plus as many random node pairs.
        co = read_edges.coalesce()
        rng = np.random.default_rng(seed)
        ids = np.asarray(read_nodes.ids, dtype=np.int64)
        neg = ids[rng.integers(0, len(ids), size=(len(co.src), 2))]
        neg = neg[neg[:, 0] != neg[:, 1]]
        candidates = np.concatenate([np.stack([co.src, co.dst], axis=1), neg])
    return Inputs(read_nodes, read_edges, targets, candidates)


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(struct.pack("<Q", len(record)))
        h.update(record)
    return h.hexdigest()


def _loss_digest(losses) -> str:
    return hashlib.sha256(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()


def flat_config(workload: str, seed: int) -> GraphFlatConfig:
    if workload == "lp-train":
        return GraphFlatConfig(
            hops=2, max_neighbors=8, num_reducers=8, task="link_prediction",
            edge_targets=LP_EDGE_TARGETS, negative_ratio=1, seed=seed,
        )
    return GraphFlatConfig(hops=2, seed=seed, **UUG_SAMPLING)


def make_runtime(backend: str, workdir: Path) -> LocalRuntime:
    """``serial``: in-memory shuffle.  ``processes``: forkserver workers
    spilling binary shuffle runs to disk.  ``serial-spill``: the in-process
    twin of ``processes`` — the same spill and merge code on one thread, so
    wrapped layers' self-times hold no waits for the interpreter lock."""
    if backend == "serial":
        return LocalRuntime(backend="serial")
    return LocalRuntime(
        backend=backend.removesuffix("-spill"),
        max_workers=WORKERS if backend == "processes" else None,
        spill_dir=str(workdir / "spill"), shuffle_codec="binary",
        shuffle_transport="local",
    )


def flat_digest(workload: str, inputs: Inputs, seed: int, workdir: Path, backend: str) -> str:
    """GraphFlat record-stream digest of one run on ``backend`` (the
    byte-identity reference for the other backends)."""
    fs = DistFileSystem(workdir / f"ref-{backend}")
    run_flat(workload, inputs, seed, workdir, fs, backend)
    return digest(fs.read_dataset("train"))


def run_flat(workload: str, inputs: Inputs, seed: int, workdir: Path, fs, backend: str):
    with make_runtime(backend, workdir) as runtime:
        return graph_flat(
            inputs.nodes, inputs.edges, inputs.targets, flat_config(workload, seed),
            runtime, fs=fs, dataset_name="train",
        )


def run_infer(workload: str, inputs: Inputs, model, seed: int, workdir: Path, fs, backend: str):
    with make_runtime(backend, workdir) as runtime:
        if workload == "lp-train":
            return graph_infer(
                model, inputs.nodes, inputs.edges,
                GraphInferConfig(task="link_prediction", seed=seed), runtime,
                fs=fs, dataset_name="predictions", candidates=inputs.candidates,
            )
        return graph_infer(
            model, inputs.nodes, inputs.edges,
            GraphInferConfig(seed=seed, **UUG_SAMPLING), runtime,
            fs=fs, dataset_name="predictions",
        )


def _train(workload: str, source, seed: int, out: PipelineRun):
    if workload == "lp-train":
        model = GraphSAGEModel(LP_GRAPH["feature_dim"], 16, 2, num_layers=2, seed=seed)
        config = TrainerConfig(
            task="link_prediction", epochs=LP_EPOCHS, batch_size=32, lr=0.005,
            seed=seed, prefetch_backend="threads", prefetch_workers=1,
        )
    else:
        factory = functools.partial(
            GCNModel, UUG_GRAPH["feature_dim"], 16, 2, num_layers=2, seed=seed
        )
        config = TrainerConfig(
            task="binary", epochs=UUG_EPOCHS, batch_size=32, lr=0.01, seed=seed
        )
    if workload == "uug-spill":
        dist = DistributedConfig(
            num_workers=WORKERS, num_servers=2, mode="bsp",
            worker_backend="processes", seed=seed,
        )
        with DistributedTrainer(factory, config, dist) as trainer:
            start = time.perf_counter()
            history = trainer.fit(source)
            out.fit_s = time.perf_counter() - start
            out.ps = trainer.pull_stats()
            model = trainer.server_model()
    else:
        if workload == "uug-memory":
            model = factory()
        trainer = GraphTrainer(model, config)
        trainer.timers = TimerRegistry(keep_intervals=True)
        start = time.perf_counter()
        history = trainer.fit(source)
        out.fit_s = time.perf_counter() - start
        out.timers = trainer.timers.totals()
        out.step_s = [b - a for a, b in trainer.timers["compute"].intervals]
    out.losses = [float(h["loss"]) for h in history]
    out.epoch_s = [float(h["seconds"]) for h in history]
    out.trained = len(source) * config.epochs
    return model


def run_pipeline(workload: str, inputs: Inputs, seed: int, workdir: Path, tracer) -> PipelineRun:
    """One closed-loop iteration.  A stage that raises counts as a failed
    operation and ends the pipeline; the stages after it are not attempted.
    ``tracer.stage`` names the running stage for the span rollup."""
    backend = "processes" if workload == "uug-spill" else "serial"
    fs = DistFileSystem(workdir / "dfs")
    out = PipelineRun()

    def flat():
        result = run_flat(workload, inputs, seed, workdir, fs, backend)
        out.targets = result.num_targets
        out.flat_stats = result.round_stats

    def train():
        out.model = _train(workload, open_sample_source(fs, "train"), seed, out)

    def infer():
        result = run_infer(workload, inputs, out.model, seed, workdir, fs, backend)
        out.scored = result.num_nodes
        out.infer_stats = result.round_stats
        out.embedding_computations = result.embedding_computations

    for stage, body in (("flat", flat), ("train", train), ("infer", infer)):
        tracer.stage = stage
        out.attempted += 1
        start = time.perf_counter()
        try:
            with tracer.span(f"stage.{stage}"):
                body()
        except Exception as exc:  # a failed operation is counted, not fatal
            out.fail(stage, f"{type(exc).__name__}: {exc}")
            break
        finally:
            out.stage_s[stage] = time.perf_counter() - start
            tracer.stage = "check"
    return out


def check_outputs(workload: str, inputs: Inputs, workdir: Path, out: PipelineRun) -> None:
    """Digest every stage's output and sanity-check what can be checked
    without a reference: sample and score counts, finite losses and scores."""
    if out.failures:
        return
    fs = DistFileSystem(workdir / "dfs")
    expected_targets = 2 * LP_EDGE_TARGETS if workload == "lp-train" else UUG_TARGETS
    expected_scored = (
        len(inputs.candidates) if inputs.candidates is not None else len(inputs.nodes.ids)
    )
    out.digests["flat"] = digest(fs.read_dataset("train"))
    out.digests["loss"] = _loss_digest(out.losses)
    predictions = list(fs.read_dataset("predictions"))
    out.digests["infer"] = digest(predictions)
    if out.targets != expected_targets:
        out.fail("flat", f"{out.targets} samples, expected {expected_targets}")
    if not np.all(np.isfinite(out.losses)):
        out.fail("train", "non-finite loss")
    finite = all(np.all(np.isfinite(decode_prediction(r)[1])) for r in predictions)
    if len(predictions) != expected_scored or out.scored != expected_scored or not finite:
        out.fail("infer", (
            f"{len(predictions)} records ({out.scored} scored), "
            f"expected {expected_scored} finite scores"
        ))
