"""Columnar shard format + the DFS dataset path: codec round-trips,
byte-identity with the in-memory output, O(1) counting, the typed error for
uncommitted datasets, trainer-ingest numerical identity across sources x
prefetch backends, and the worker-pool prefetch pipeline."""

import json

import numpy as np
import pytest

from repro.core.graphflat import GraphFlatConfig, graph_flat
from repro.core.infer import GraphInferConfig, graph_infer
from repro.core.trainer import (
    BatchPipeline,
    ColumnarDataset,
    GraphTrainer,
    MemorySamples,
    TrainerConfig,
    as_sample_source,
    decode_samples,
    open_sample_source,
)
from repro.mapreduce import DistFileSystem, UncommittedDatasetError
from repro.nn.gnn import GCNModel
from repro.proto.codec import decode_prediction, decode_sample, encode_prediction
from repro.proto.columnar import ColumnarShard, shard_record_count, write_sample_shard


@pytest.fixture(scope="module")
def flat_cora(mini_cora):
    """In-memory wire records from a 2-hop GraphFlat run."""
    ds = mini_cora
    config = GraphFlatConfig(hops=2, max_neighbors=20, hub_threshold=10**9)
    return graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples


class TestColumnarShard:
    def test_round_trip_exact(self, tmp_path, flat_cora):
        triples = [decode_sample(r) for r in flat_cora]
        path = tmp_path / "part-00000"
        assert write_sample_shard(path, triples) == len(triples)
        shard = ColumnarShard(path)
        assert len(shard) == len(triples)
        for i, (tid, label, gf) in enumerate(triples):
            stid, slabel, sgf = shard.sample(i)
            assert stid == tid
            assert slabel == label and type(slabel) is type(label)
            np.testing.assert_array_equal(sgf.node_ids, gf.node_ids)
            np.testing.assert_array_equal(sgf.x, gf.x)
            np.testing.assert_array_equal(sgf.hops, gf.hops)
            np.testing.assert_array_equal(sgf.edge_src, gf.edge_src)
            np.testing.assert_array_equal(sgf.edge_dst, gf.edge_dst)
            np.testing.assert_array_equal(sgf.edge_weight, gf.edge_weight)

    def test_wire_re_encoding_is_byte_identical(self, tmp_path, flat_cora):
        path = tmp_path / "part-00000"
        write_sample_shard(path, flat_cora)  # accepts wire bytes directly
        assert list(ColumnarShard(path).iter_wire()) == list(flat_cora)

    def test_header_carries_count_and_meta(self, tmp_path, flat_cora):
        path = tmp_path / "part-00000"
        write_sample_shard(path, flat_cora)
        assert shard_record_count(path) == len(flat_cora)
        shard = ColumnarShard(path)
        gf = decode_sample(flat_cora[0])[2]
        assert shard.meta["feature_dim"] == gf.feature_dim
        assert shard.label_kind == "int"

    def test_vector_labels_and_empty_shard(self, tmp_path, flat_cora):
        _, _, gf = decode_sample(flat_cora[0])
        vec = np.asarray([0.0, 1.0, 1.0], dtype=np.float32)
        path = tmp_path / "vec"
        write_sample_shard(path, [(7, vec, gf)])
        tid, label, _ = ColumnarShard(path).sample(0)
        assert tid == 7
        np.testing.assert_array_equal(label, vec)

        empty = tmp_path / "empty"
        write_sample_shard(empty, [])
        assert shard_record_count(empty) == 0
        assert list(ColumnarShard(empty).iter_wire()) == []

    def test_mixed_labels_rejected(self, tmp_path, flat_cora):
        t0, l0, gf = decode_sample(flat_cora[0])
        with pytest.raises(ValueError):
            write_sample_shard(tmp_path / "bad", [(t0, l0, gf), (t0, None, gf)])

    def test_corrupt_header_detected(self, tmp_path, flat_cora):
        from repro.proto.codec import CodecError

        path = tmp_path / "part-00000"
        write_sample_shard(path, flat_cora)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF  # flip a header byte
        path.write_bytes(bytes(raw))
        with pytest.raises(CodecError):
            ColumnarShard(path)


class TestFilesystemLayouts:
    def test_read_dataset_layout_transparent(self, tmp_path, flat_cora):
        """Columnar shards read back as the wire records they were written
        from, dataset-wide and shard by shard."""
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("col", [decode_sample(r) for r in flat_cora], num_shards=3)
        assert list(fs.read_dataset("col")) == list(flat_cora)
        per_shard = [list(fs.read_shard("col", i)) for i in range(3)]
        assert [len(shard) for shard in per_shard] == [
            len(flat_cora) // 3 + (i < len(flat_cora) % 3) for i in range(3)
        ]
        assert sum(per_shard, []) == list(flat_cora)

    def test_count_records_uses_metadata(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("d", flat_cora, num_shards=3)
        assert fs.count_records("d") == len(flat_cora)
        (tmp_path / "d" / "_META.json").unlink()
        with pytest.raises(UncommittedDatasetError):
            fs.count_records("d")

    def test_open_shard_requires_columnar(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("col", flat_cora, num_shards=2)
        assert len(fs.open_shard("col", 0)) + len(fs.open_shard("col", 1)) == len(flat_cora)
        _mark_row_layout(tmp_path / "col")
        with pytest.raises(UncommittedDatasetError, match="'row'"):
            fs.open_shard("col", 0)

    def test_bad_layout_rejected(self, tmp_path, flat_cora):
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("x", flat_cora)
        _mark_row_layout(tmp_path / "x")
        with pytest.raises(UncommittedDatasetError, match="re-run the job"):
            list(fs.read_dataset("x"))

    def test_kind_recorded_for_every_layout(self, tmp_path, flat_cora, mini_cora):
        """Both record kinds are recorded at commit; absent datasets stay a
        ``FileNotFoundError``."""
        fs = DistFileSystem(tmp_path)
        fs.write_dataset("samples", flat_cora, num_shards=2)
        preds = [(int(i), np.ones(3, dtype=np.float32)) for i in mini_cora.nodes.ids[:5]]
        fs.write_dataset("preds", preds, num_shards=2, kind="predictions")
        assert fs.kind("samples") == "samples"
        assert fs.kind("preds") == "predictions"
        with pytest.raises(FileNotFoundError):
            fs.kind("absent")


def _mark_row_layout(directory):
    """Rewrite a dataset's commit record the way the retired row layout
    wrote it."""
    meta_path = directory / "_META.json"
    meta = json.loads(meta_path.read_text())
    meta["layout"] = "row"
    meta_path.write_text(json.dumps(meta))


class TestUncommittedDataset:
    """A flattened dataset whose ``_META.json`` is gone (the job died before
    its commit) raises one typed error from every reader."""

    @pytest.fixture()
    def uncommitted(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path / "dfs")
        config = GraphFlatConfig(hops=1, max_neighbors=10)
        graph_flat(ds.nodes, ds.edges, ds.train_ids[:20], config, fs=fs, dataset_name="d")
        (tmp_path / "dfs" / "d" / "_META.json").unlink()
        return fs

    @pytest.mark.parametrize(
        "read",
        [
            lambda fs: fs.read_dataset("d"),
            lambda fs: fs.read_shard("d", 0),
            lambda fs: fs.open_shard("d", 0),
            lambda fs: open_sample_source(fs, "d"),
            lambda fs: fs.count_records("d"),
            lambda fs: fs.kind("d"),
            lambda fs: fs.task("d"),
        ],
        ids=[
            "read_dataset", "read_shard", "open_shard", "open_sample_source",
            "count_records", "kind", "task",
        ],
    )
    def test_every_reader_raises(self, uncommitted, read):
        with pytest.raises(UncommittedDatasetError, match="'d'.*re-run the job"):
            read(uncommitted)

    def test_describe_raises(self, uncommitted):
        from repro.cli import main

        with pytest.raises(UncommittedDatasetError, match="'d'"):
            main(["describe", "d", "--dfs", str(uncommitted.root)])

    def test_rerun_commits_again(self, uncommitted, mini_cora):
        ds = mini_cora
        graph_flat(
            ds.nodes, ds.edges, ds.train_ids[:20], GraphFlatConfig(hops=1, max_neighbors=10),
            fs=uncommitted, dataset_name="d",
        )
        assert uncommitted.count_records("d") == len(list(uncommitted.read_dataset("d")))


class TestGraphFlatLayouts:
    """The DFS output of a run is byte-identical to its in-memory output."""

    def test_dfs_outputs_byte_identical_across_layouts(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=2, max_neighbors=20)
        result = graph_flat(
            ds.nodes, ds.edges, ds.train_ids, config, fs=fs, dataset_name="flat"
        )
        assert result.dataset == "flat" and result.samples is None
        assert fs.num_shards("flat") == config.num_reducers
        in_memory = graph_flat(ds.nodes, ds.edges, ds.train_ids, config)
        assert list(fs.read_dataset("flat")) == in_memory.samples

    def test_infer_outputs_byte_identical_across_layouts(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        model = GCNModel(ds.feature_dim, 8, ds.num_classes, num_layers=2, seed=0)
        config = GraphInferConfig(max_neighbors=10**9)
        graph_infer(model, ds.nodes, ds.edges, config, fs=fs, dataset_name="scores")
        scores = graph_infer(model, ds.nodes, ds.edges, config).scores
        col = list(fs.read_dataset("scores"))
        assert col == [encode_prediction(v, s) for v, s in scores.items()]
        node_id, scores = decode_prediction(col[0])
        assert scores.shape == (ds.num_classes,)

    def test_invalid_layout_config(self):
        """The shard layout is no longer a knob."""
        with pytest.raises(TypeError):
            GraphFlatConfig(dataset_layout="row")
        with pytest.raises(TypeError):
            GraphInferConfig(dataset_layout="row")


class TestColumnarDatasetSource:
    @pytest.fixture()
    def fs_both(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=2, max_neighbors=20)
        graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs,
                   dataset_name="flat/columnar")
        rows = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
        return fs, rows

    def test_source_matches_row_order_and_content(self, fs_both):
        """The mmap'd source serves the in-memory wire records' samples in
        their order."""
        fs, rows = fs_both
        row = as_sample_source(rows)
        col = open_sample_source(fs, "flat/columnar")
        assert isinstance(row, MemorySamples) and isinstance(col, ColumnarDataset)
        assert len(row) == len(col)
        np.testing.assert_array_equal(row.ids(), col.ids())
        for i in range(len(row)):
            a, b = row.sample(i), col.sample(i)
            assert a.target_id == b.target_id and a.label == b.label
            np.testing.assert_array_equal(a.graph_feature.x, b.graph_feature.x)
        assert row.labels_by_id() == col.labels_by_id()
        assert row.label_kind == col.label_kind == "int"
        assert row.max_int_label() == col.max_int_label()

    def test_batch_ref_pickles_and_loads(self, fs_both):
        import pickle

        col = open_sample_source(fs_both[0], "flat/columnar")
        ref = col.batch(np.asarray([3, 0, 5]))
        clone = pickle.loads(pickle.dumps(ref))
        samples = clone.load_samples()
        assert [s.target_id for s in samples] == [
            col.sample(i).target_id for i in (3, 0, 5)
        ]

    def test_slice_is_picklable_sub_source(self, fs_both):
        """ColumnarSlice — the process-worker shard assignment — round-trips
        through pickle and serves the same samples as direct indexing."""
        import pickle

        col = open_sample_source(fs_both[0], "flat/columnar")
        indices = np.asarray([4, 1, 6, 1])
        sliced = pickle.loads(pickle.dumps(col.slice(indices)))
        assert len(sliced) == 4
        np.testing.assert_array_equal(sliced.ids(), col.ids()[indices])
        for pos, i in enumerate(indices):
            a, b = sliced.sample(pos), col.sample(int(i))
            assert a.target_id == b.target_id and a.label == b.label
            np.testing.assert_array_equal(a.graph_feature.x, b.graph_feature.x)
        ref = sliced.batch(np.asarray([2, 0]))
        assert [s.target_id for s in ref.load_samples()] == [
            col.sample(6).target_id, col.sample(4).target_id,
        ]

    def test_rewritten_dataset_not_served_stale(self, mini_cora, tmp_path):
        ds = mini_cora
        fs = DistFileSystem(tmp_path)
        config = GraphFlatConfig(hops=1, max_neighbors=10)
        graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs, dataset_name="d")
        assert len(open_sample_source(fs, "d")) == len(ds.train_ids)
        graph_flat(ds.nodes, ds.edges, ds.train_ids[:3], config, fs=fs, dataset_name="d")
        assert len(open_sample_source(fs, "d")) == 3


class TestTrainingIdentityAcrossLayouts:
    """Acceptance: columnar shards train to numerically identical per-epoch
    losses/metrics as the in-memory wire records (``row``), across prefetch
    backends x workers."""

    @pytest.fixture(scope="class")
    def fs_both(self, tmp_path_factory):
        from repro.datasets import cora_like

        ds = cora_like(seed=7, num_nodes=300, num_edges=900)
        fs = DistFileSystem(tmp_path_factory.mktemp("dfs"))
        config = GraphFlatConfig(hops=2, max_neighbors=20)
        graph_flat(ds.nodes, ds.edges, ds.train_ids, config, fs=fs,
                   dataset_name="flat/columnar")
        rows = graph_flat(ds.nodes, ds.edges, ds.train_ids, config).samples
        return ds, fs, rows

    def _run(self, fs_both, layout, backend, workers):
        ds, fs, rows = fs_both
        model = GCNModel(ds.feature_dim, 12, ds.num_classes, num_layers=2, seed=5)
        trainer = GraphTrainer(
            model,
            TrainerConfig(
                batch_size=8, epochs=2, lr=0.01, seed=9,
                prefetch_backend=backend, prefetch_workers=workers,
            ),
        )
        if layout == "row":
            source = as_sample_source(rows)
        else:
            source = open_sample_source(fs, "flat/columnar")
        history = trainer.fit(source)
        return [h["loss"] for h in history], trainer.evaluate(source)

    @pytest.mark.parametrize(
        "layout,backend,workers",
        [
            ("columnar", "threads", 1),
            ("columnar", "threads", 3),
            ("columnar", "serial", 1),
            ("row", "threads", 3),
        ],
    )
    def test_loss_trajectory_identical(self, fs_both, layout, backend, workers):
        ref = self._run(fs_both, "row", "threads", 1)
        got = self._run(fs_both, layout, backend, workers)
        assert got == ref

    def test_loss_trajectory_identical_processes(self, fs_both):
        """Process-pool prefetch: batches ship as shard locators, prepared
        tensors come back — same losses to the bit."""
        ref = self._run(fs_both, "row", "threads", 1)
        got = self._run(fs_both, "columnar", "processes", 2)
        assert got == ref


class TestPipelineWorkerPool:
    def _batches(self, flat_cora):
        samples = decode_samples(flat_cora)
        return [samples[i : i + 6] for i in range(0, len(samples), 6)]

    def test_pool_matches_single_thread(self, flat_cora):
        batches = self._batches(flat_cora)
        ref = list(BatchPipeline(batches, 2, backend="threads", workers=1))
        pool = list(BatchPipeline(batches, 2, backend="threads", workers=3))
        assert len(ref) == len(pool) == len(batches)
        for (b1, l1), (b2, l2) in zip(ref, pool):
            np.testing.assert_array_equal(b1.x, b2.x)
            np.testing.assert_array_equal(l1, l2)

    def test_pool_errors_surface(self, flat_cora):
        batches = self._batches(flat_cora) + [[]]  # empty batch raises
        with pytest.raises(ValueError):
            list(BatchPipeline(batches, 2, backend="threads", workers=3))

    def test_serial_backend_runs_inline(self, flat_cora):
        from repro.utils.timer import TimerRegistry

        timers = TimerRegistry()
        batches = self._batches(flat_cora)
        out = list(BatchPipeline(batches, 2, backend="serial", timers=timers))
        assert len(out) == len(batches)
        assert timers["preprocess"].count == len(batches)

    def test_pool_preprocess_time_recorded(self, flat_cora):
        from repro.utils.timer import TimerRegistry

        timers = TimerRegistry()
        batches = self._batches(flat_cora)
        list(BatchPipeline(batches, 2, backend="threads", workers=2, timers=timers))
        assert timers["preprocess"].count == len(batches)
        assert timers["preprocess"].total > 0

    def test_invalid_knobs_rejected(self, flat_cora):
        with pytest.raises(ValueError):
            BatchPipeline([], 2, backend="hovercraft")
        with pytest.raises(ValueError):
            BatchPipeline([], 2, workers=0)
        with pytest.raises(ValueError):
            TrainerConfig(prefetch_backend="hovercraft")
        with pytest.raises(ValueError):
            TrainerConfig(prefetch_workers=0)
