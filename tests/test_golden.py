"""Golden digests: pipeline output bytes pinned to fixed SHA-256 values.

Each digest covers the ``DistFileSystem.read_dataset`` record stream of one
run on a tiny seeded graph, every record length-prefixed.  GraphFlat output
is integer-exact and is compared on every host.  GraphInfer predictions are
float results, so their digests are compared only on the numeric platform
they were recorded on (numpy version, machine, CPU model and flags), the
way ``perfbench/golden.json`` is.

Every case also asserts that the DFS stream equals the in-memory output
(``fs=None``) of the same run: the reducers' shard writer and the parent's
in-memory collection must agree record for record.

GraphTrainer loss trajectories are float results too: their digests (the
epoch losses packed as little-endian doubles) are compared on
``INFER_PLATFORM`` only.
"""

from __future__ import annotations

import hashlib
import os
import platform
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import GraphTrainer, TrainerConfig
from repro.datasets import labeled_edges_like, uug_like
from repro.mapreduce import DistFileSystem, LocalRuntime
from repro.nn.gnn import GCNModel, GraphSAGEModel
from repro.proto.codec import encode_prediction

FLAT_GOLDEN = {
    "node_classification": "0e3c6d0e5c176655df219a31deb492ecacf40d624b1f836cf80afaa46fd72f8c",
    "link_prediction": "ce9e6af56a87dde8710dfad1eead47e1a923fb77af41968041956606dc7bd29f",
    "edge_classification": "f9ebc8ed8609e165f8e09e142acc5306f915c57b455c7995cd95ae995e515dbe",
}
INFER_GOLDEN = {
    "node_classification": "9c4b4d25eebfba6230133c946088c7791752c3811e9b46c7a11dd45285272b11",
    "link_prediction": "252da966b7d294f0186edad3a70ed58352c7acbeab2c68c4de6da85ef3bc4688",
}
TRAIN_GOLDEN = {
    "node_classification": "5ff6e14bb140419c1bac1c7598917871acad004cc7acb0655071a4b4b1d3461a",
    "link_prediction": "805dce98b42368b014d7b36ff7d69fffa00a3eec9d04c59dc2fcbcc1ce3b4c3a",
}
INFER_PLATFORM = "4921084a17790baa"
"""Numeric platform the ``INFER_GOLDEN`` and ``TRAIN_GOLDEN`` digests were
recorded on."""


def stream_digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(struct.pack("<Q", len(record)))
        h.update(record)
    return h.hexdigest()


def numeric_platform() -> str:
    """Fingerprint of what float results depend on: numpy and the CPUs."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith(("model name", "flags")):
                cpu += line
                if line.startswith("flags"):
                    break
    except OSError:
        pass
    text = f"{np.__version__}|{platform.machine()}|{os.cpu_count()}|{cpu}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def uug_graph():
    """Hub graph: ``hub_threshold=20`` below turns on hub re-indexing."""
    return uug_like(
        seed=3, num_nodes=150, avg_degree=4, feature_dim=6, num_hubs=2, hub_degree=30
    )


@pytest.fixture(scope="module")
def edge_graph():
    return labeled_edges_like(seed=7, num_nodes=60, num_edges=200, feature_dim=4)


UUG_SAMPLING = dict(max_neighbors=5, hub_threshold=20, num_reducers=3, seed=0)


def flat_case(task, uug_graph, edge_graph):
    if task == "node_classification":
        ds = uug_graph
        return ds.nodes, ds.edges, ds.train_ids[:40], GraphFlatConfig(hops=2, **UUG_SAMPLING)
    nodes, edges = edge_graph
    config = GraphFlatConfig(
        hops=2, max_neighbors=4, num_reducers=3, seed=0, task=task, edge_targets=20
    )
    return nodes, edges, None, config


def infer_case(task, uug_graph, edge_graph):
    if task == "node_classification":
        ds = uug_graph
        model = GCNModel(ds.feature_dim, 8, 2, num_layers=2, seed=0)
        return model, ds.nodes, ds.edges, GraphInferConfig(**UUG_SAMPLING), None
    nodes, edges = edge_graph
    model = GraphSAGEModel(4, 8, 2, num_layers=2, seed=0)
    candidates = np.stack([edges.src[:15], edges.dst[:15]], axis=1)
    config = GraphInferConfig(task=task, max_neighbors=4, num_reducers=3, seed=0)
    return model, nodes, edges, config, candidates


@pytest.mark.parametrize("task", sorted(FLAT_GOLDEN))
def test_graphflat_golden(task, uug_graph, edge_graph, tmp_path):
    nodes, edges, targets, config = flat_case(task, uug_graph, edge_graph)
    fs = DistFileSystem(tmp_path)
    graph_flat(nodes, edges, targets, config, fs=fs, dataset_name="flat")
    stream = list(fs.read_dataset("flat"))
    assert stream_digest(stream) == FLAT_GOLDEN[task]
    in_memory = graph_flat(nodes, edges, targets, config).samples
    assert stream == in_memory


@pytest.mark.parametrize("task", sorted(INFER_GOLDEN))
def test_graphinfer_golden(task, uug_graph, edge_graph, tmp_path):
    model, nodes, edges, config, candidates = infer_case(task, uug_graph, edge_graph)
    fs = DistFileSystem(tmp_path)
    graph_infer(
        model, nodes, edges, config, fs=fs, dataset_name="preds", candidates=candidates
    )
    stream = list(fs.read_dataset("preds"))
    scores = graph_infer(model, nodes, edges, config, candidates=candidates).scores
    assert stream == [encode_prediction(v, s) for v, s in scores.items()]
    if numeric_platform() == INFER_PLATFORM:
        assert stream_digest(stream) == INFER_GOLDEN[task]


def test_graphflat_golden_through_spill(uug_graph, tmp_path):
    """The processes backend spilling binary shuffle runs to disk writes the
    same bytes as the serial in-memory run."""
    nodes, edges, targets, config = flat_case("node_classification", uug_graph, None)
    fs = DistFileSystem(tmp_path / "dfs")
    with LocalRuntime(
        backend="processes", max_workers=2, spill_dir=tmp_path / "spill",
        shuffle_codec="binary",
    ) as runtime:
        graph_flat(nodes, edges, targets, config, runtime, fs=fs, dataset_name="flat")
    assert stream_digest(fs.read_dataset("flat")) == FLAT_GOLDEN["node_classification"]
    assert list((tmp_path / "spill").iterdir()) == []


def train_case(task, uug_graph, edge_graph):
    nodes, edges, targets, flat_config = flat_case(task, uug_graph, edge_graph)
    samples = graph_flat(nodes, edges, targets, flat_config).samples
    if task == "node_classification":
        model = GCNModel(uug_graph.feature_dim, 8, 2, num_layers=2, seed=0)
        config = TrainerConfig(task="multiclass", epochs=4, batch_size=8, seed=0)
    else:
        model = GraphSAGEModel(4, 8, 2, num_layers=2, seed=0)
        config = TrainerConfig(task="link_prediction", epochs=4, batch_size=8, seed=0)
    return model, config, samples


@pytest.mark.parametrize("task", sorted(TRAIN_GOLDEN))
def test_graphtrainer_loss_golden(task, uug_graph, edge_graph):
    model, config, samples = train_case(task, uug_graph, edge_graph)
    losses = [float(h["loss"]) for h in GraphTrainer(model, config).fit(samples)]
    assert len(losses) == config.epochs and all(np.isfinite(losses))
    if numeric_platform() == INFER_PLATFORM:
        digest = hashlib.sha256(struct.pack(f"<{len(losses)}d", *losses)).hexdigest()
        assert digest == TRAIN_GOLDEN[task]
