"""GraphTrainer: distributed graph training framework (§3.3).

Components map one-to-one onto the paper's Figure 4:

* :mod:`vectorize` — merge a batch of GraphFeatures and build the three
  matrices ``A_B`` (destination-sorted sparse adjacency), ``X_B``, ``E_B``;
* :mod:`dataset` — sample sources (in-memory lists, or
  zero-copy slicing over mmap'd columnar DFS shards);
* :mod:`pruning` — per-layer pruned adjacencies ``A^(k)_B`` (graph-level
  optimization);
* :mod:`partition` — conflict-free edge partitioning for parallel
  aggregation (edge/operator-level optimization);
* :mod:`pipeline` — the two-stage prefetch pipeline overlapping
  preprocessing with model computation (batch-level optimization);
* :mod:`trainer` — the training loop, standalone or against parameter
  servers.
"""

from repro.core.trainer.vectorize import TrainSample, decode_samples, vectorize_batch
from repro.core.trainer.dataset import (
    ColumnarDataset,
    ColumnarSlice,
    MemorySamples,
    SampleSource,
    as_sample_source,
    open_sample_source,
)
from repro.core.trainer.pruning import layer_edge_masks, prune_blocks
from repro.core.trainer.partition import EdgePartitionAggregator, partitioned_backend_factory
from repro.core.trainer.pipeline import BatchPipeline, BatchPreparer
from repro.core.trainer.trainer import GraphTrainer, TrainerConfig

__all__ = [
    "TrainSample",
    "decode_samples",
    "vectorize_batch",
    "ColumnarDataset",
    "ColumnarSlice",
    "MemorySamples",
    "SampleSource",
    "as_sample_source",
    "open_sample_source",
    "layer_edge_masks",
    "prune_blocks",
    "EdgePartitionAggregator",
    "partitioned_backend_factory",
    "BatchPipeline",
    "BatchPreparer",
    "GraphTrainer",
    "TrainerConfig",
]
