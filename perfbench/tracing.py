"""Span tracer that wraps the public functions each layer calls into.

Nothing in ``src/`` is instrumented: :class:`LayerPatches` swaps module
attributes and class methods of the ``repro`` package for timing wrappers
while a traced pipeline runs, and puts the originals back afterwards.

A span's *self time* is its duration minus the time its child spans cover
on the same thread.  Spans are rolled up per ``(stage, span name)``; the
stage (``flat``, ``train``, ``infer`` ...) is set by the benchmark's main
thread, so spans opened on worker or prefetch threads land in the stage
that was running.  Wrappers installed in this process cannot see calls
made inside forkserver-spawned worker processes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing.process
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.stage = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = defaultdict(lambda: [0.0, 0])
            self._local.stack = []
            with self._lock:
                self._tables.append(table)
        return table

    def _enter(self, name: str) -> list:
        self._table()
        frame = [name, self.stage, time.perf_counter(), 0.0]
        self._local.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[2]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][3] += duration
        cell = self._local.table[(frame[1], frame[0])]
        cell[0] += duration - frame[3]
        cell[1] += 1

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str):
        """Timing wrapper around ``fn``.  Generator functions are timed per
        resumption, so a reducer's span covers only its own work, not the
        consumer's between ``yield``s."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        frame = self._enter(name)
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            self._exit(frame)
                        yield item
                finally:
                    gen.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return wrapper

    def rollup(self) -> dict[tuple[str, str], tuple[float, int]]:
        """``{(stage, span): (self seconds, calls)}`` over every thread."""
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, (seconds, calls) in list(table.items()):
                out[key][0] += seconds
                out[key][1] += calls
        return {key: (s, c) for key, (s, c) in out.items()}


# (module, attribute path, span name): the calls the three workloads make
# into each layer.  A dotted attribute path names a class method.
# Module-level functions are replaced in every ``repro`` module that
# imported them by name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # mapreduce
    ("repro.mapreduce.shuffle", "default_partition", "mapreduce.partition"),
    ("repro.mapreduce.shuffle", "group_sorted", "mapreduce.group"),
    ("repro.mapreduce.retry", "RetryPolicy.backoff_s", "mapreduce.retry"),
    ("repro.mapreduce.spill", "SpillRunWriter.append", "mapreduce.spill_write"),
    ("repro.mapreduce.spill", "SpillRunWriter.finish", "mapreduce.spill_write"),
    ("repro.mapreduce.spill", "SpillLayout.iter_groups", "mapreduce.merge"),
    ("repro.mapreduce.fs", "DistFileSystem.prepare_dataset", "mapreduce.sink"),
    ("repro.mapreduce.fs", "DistFileSystem.finalize_dataset", "mapreduce.sink"),
    ("repro.core.graphflat.pipeline", "SampleShardSink.store", "mapreduce.sink"),
    ("repro.core.infer.pipeline", "PredictionShardSink.store", "mapreduce.sink"),
    # proto
    ("repro.proto.columnar", "write_sample_shard", "proto.encode"),
    ("repro.proto.columnar", "write_prediction_shard", "proto.encode"),
    ("repro.proto.columnar", "ColumnarShard.graph_feature", "proto.decode"),
    ("repro.proto.columnar", "ColumnarShard.label", "proto.decode"),
    # core.graphflat
    ("repro.core.graphflat.pipeline", "PrepareReducer.__call__", "graphflat.reduce"),
    ("repro.core.graphflat.pipeline", "PartialReducer.__call__", "graphflat.reduce"),
    ("repro.core.graphflat.pipeline", "MergeReducer.__call__", "graphflat.reduce"),
    ("repro.core.graphflat.pipeline", "PairReducer.__call__", "graphflat.reduce"),
    ("repro.core.graphflat.sampling", "UniformSampling.select", "sampling.select"),
    ("repro.core.graphflat.sampling", "WeightedSampling.select", "sampling.select"),
    ("repro.core.graphflat.sampling", "sample_negative_edges", "sampling.select"),
    # core.trainer
    ("repro.core.trainer.dataset", "ColumnarBatchRef.load_samples", "trainer.shard_read"),
    ("repro.proto.columnar", "ColumnarShard.__init__", "trainer.shard_read"),
    ("repro.core.trainer.vectorize", "vectorize_batch", "trainer.vectorize"),
    ("repro.core.trainer.pruning", "prune_blocks", "trainer.prune"),
    # nn
    ("repro.nn.gnn.base", "GNNModel.forward", "nn.forward"),
    ("repro.nn.gnn.base", "GNNModel.embed", "nn.forward"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Adam.step", "nn.optimizer"),
    # core.infer
    ("repro.core.infer.pipeline", "InferPrepareReducer.__call__", "infer.reduce"),
    ("repro.core.infer.pipeline", "InferPartialReducer.__call__", "infer.reduce"),
    ("repro.core.infer.pipeline", "EmbeddingReducer.__call__", "infer.reduce"),
    ("repro.core.infer.pipeline", "PredictionReducer.__call__", "infer.reduce"),
    ("repro.core.infer.pipeline", "EdgePredictionReducer.__call__", "infer.reduce"),
    ("repro.core.infer.segmentation", "broadcast_slices", "infer.slice_broadcast"),
)


class LayerPatches:
    """Install and remove the :data:`TARGETS` wrappers (plus process
    start-up, timed at ``multiprocessing``'s ``BaseProcess.start``)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple[object, str, bool, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        # ``own`` is False when the attribute is inherited from a base class
        own = attr == "__defaults__" or attr in vars(owner)
        self._undo.append((owner, attr, own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, attr, wrapper)
        # dataclass defaults captured at class creation (MapReduceJob's
        # ``partitioner=default_partition``)
        job_cls = sys.modules["repro.mapreduce.job"].MapReduceJob
        init = job_cls.__init__
        if init.__defaults__ and any(d is fn for d in init.__defaults__):
            self._set(init, "__defaults__", tuple(
                wrapper if d is fn else d for d in init.__defaults__
            ))

    def install(self) -> None:
        for module_name, path, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, attr, self.tracer.wrap(getattr(cls, attr), span))
            else:
                fn = getattr(module, path)
                self._patch_function(fn, self.tracer.wrap(fn, span))
        process = multiprocessing.process.BaseProcess
        self._set(process, "start", self.tracer.wrap(process.start, "process.start"))

    def remove(self) -> None:
        while self._undo:
            owner, attr, own, value = self._undo.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "LayerPatches":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
