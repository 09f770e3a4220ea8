"""The Figure 6 command-line surface: graphflat -> graphtrainer -> graphinfer
over TSV tables and a local DFS, plus the model save/load format."""

import numpy as np
import pytest

from repro.cli import load_model, main, save_model
from repro.datasets import cora_like, write_edge_table, write_node_table
from repro.mapreduce import DistFileSystem
from repro.nn.gnn import GATModel


@pytest.fixture()
def workspace(tmp_path):
    ds = cora_like(seed=7, num_nodes=200, num_edges=600)
    write_node_table(tmp_path / "nodes.tsv", ds.nodes)
    write_edge_table(tmp_path / "edges.tsv", ds.edges)
    np.savetxt(tmp_path / "targets.txt", ds.train_ids, fmt="%d")
    return tmp_path, ds


class TestModelStore:
    def test_round_trip(self, tmp_path):
        model = GATModel(6, 8, 3, num_layers=2, seed=0)
        save_model(tmp_path / "m.pkl", model, "gat")
        clone = load_model(tmp_path / "m.pkl")
        for (n1, p1), (n2, p2) in zip(
            model.named_parameters(), clone.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_allclose(p1.data, p2.data)


class TestPipelineCommands:
    def test_full_cli_workflow(self, workspace, capsys):
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")

        rc = main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"),
            "-e", str(tmp_path / "edges.tsv"),
            "--hops", "2", "--max-neighbors", "20",
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GraphFlat: wrote" in out
        assert "shuffle:" in out  # codec accounting line
        assert DistFileSystem(dfs).exists("flat/train")

        rc = main([
            "graphtrainer",
            "-m", "gcn", "-i", "flat/train",
            "--model-out", str(tmp_path / "model.pkl"),
            "--epochs", "3", "--hidden", "8", "--dfs", dfs,
        ])
        assert rc == 0
        assert "model saved" in capsys.readouterr().out

        rc = main([
            "graphinfer",
            "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"),
            "-e", str(tmp_path / "edges.tsv"),
            "--max-neighbors", "20",
            "--output", "scores", "--dfs", dfs, "--workers", "1",
        ])
        assert rc == 0
        assert "scored" in capsys.readouterr().out
        assert DistFileSystem(dfs).count_records("scores") == len(ds.nodes)

    def test_distributed_training_knobs(self, workspace, capsys):
        """--dist-workers trains against the parameter servers with process
        workers over the shm transport and reports the PS topology."""
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--hops", "1", "--max-neighbors", "10",
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main([
            "graphtrainer",
            "-m", "gcn", "-i", "flat/train",
            "--model-out", str(tmp_path / "dist-model.pkl"),
            "--epochs", "2", "--hidden", "8", "--dfs", dfs,
            "--dist-workers", "2", "--dist-mode", "bsp",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ps topology: servers=2 workers=2 mode=bsp transport=shm" in out
        assert "2 processes workers, shm transport" in out
        assert "(0 transport bytes)" in out
        assert load_model(tmp_path / "dist-model.pkl") is not None

    def test_graphflat_codec_flag_outputs_identical(self, workspace, capsys):
        """--shuffle-codec pickle and binary (with a spill dir, so the codec
        is actually exercised) must produce byte-identical datasets."""
        tmp_path, ds = workspace
        shards = {}
        for codec in ("pickle", "binary"):
            dfs = str(tmp_path / f"dfs-{codec}")
            rc = main([
                "graphflat",
                "-n", str(tmp_path / "nodes.tsv"),
                "-e", str(tmp_path / "edges.tsv"),
                "--targets", str(tmp_path / "targets.txt"),
                "--output", "flat/train", "--dfs", dfs, "--workers", "1",
                "--spill-dir", str(tmp_path / f"spill-{codec}"),
                "--shuffle-codec", codec,
            ])
            assert rc == 0
            assert f"({codec} codec" in capsys.readouterr().out
            shards[codec] = list(DistFileSystem(dfs).read_dataset("flat/train"))
        assert shards["pickle"] == shards["binary"]

    def test_trainer_rejects_empty_dataset(self, tmp_path, capsys):
        fs = DistFileSystem(tmp_path / "dfs")
        fs.write_dataset("empty", [])
        rc = main([
            "graphtrainer", "-m", "gcn", "-i", "empty",
            "--model-out", str(tmp_path / "m.pkl"), "--dfs", str(tmp_path / "dfs"),
        ])
        assert rc == 1

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestDescribe:
    def test_describe_samples(self, workspace, capsys):
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main(["describe", "flat/train", "--dfs", dfs])
        out = capsys.readouterr().out
        assert rc == 0
        assert "GraphFeature samples" in out
        assert "label distribution" in out
        assert "ps topology: none (single-process" in out

    def test_describe_reports_requested_topology(self, workspace, capsys):
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        rc = main([
            "describe", "flat/train", "--dfs", dfs,
            "--dist-workers", "4", "--dist-mode", "ssp", "--staleness", "3",
            "--dist-backend", "threads", "--dist-transport", "local",
            "--dist-servers", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert (
            "ps topology: servers=5 workers=4 mode=ssp transport=local "
            "backend=threads staleness=3" in out
        )

    def test_describe_missing_dataset(self, tmp_path, capsys):
        rc = main(["describe", "nope", "--dfs", str(tmp_path / "dfs")])
        assert rc == 1

    @pytest.fixture()
    def inferred(self, workspace, capsys):
        """A trained model plus its prediction dataset."""
        tmp_path, ds = workspace
        dfs = str(tmp_path / "dfs")
        main([
            "graphflat",
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--targets", str(tmp_path / "targets.txt"),
            "--output", "flat/train", "--dfs", dfs, "--workers", "1",
        ])
        main([
            "graphtrainer", "-m", "gcn", "-i", "flat/train",
            "--model-out", str(tmp_path / "model.pkl"),
            "--epochs", "1", "--hidden", "8", "--dfs", dfs,
        ])
        main([
            "graphinfer", "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--max-neighbors", "20", "--output", "scores/columnar",
            "--dfs", dfs, "--workers", "1",
        ])
        capsys.readouterr()
        return tmp_path, dfs

    @pytest.mark.parametrize("layout", ["columnar"])
    def test_describe_predictions_dispatches_on_metadata(self, inferred, capsys, layout):
        """Prediction datasets are recognised from the recorded kind — no
        decode-and-see sniffing involved."""
        _, dfs = inferred
        rc = main(["describe", f"scores/{layout}", "--dfs", dfs])
        out = capsys.readouterr().out
        assert rc == 0
        assert "kind:     predictions" in out
        assert "transport:" not in out  # describe runs no shuffle

    def test_describe_corrupt_shard_raises(self, inferred, capsys):
        """Regression: a corrupt sample dataset used to be silently
        misreported as predictions (the broad except around decode_samples);
        now the decode error surfaces."""
        from repro.proto.codec import CodecError

        tmp_path, dfs = inferred
        shard = sorted((tmp_path / "dfs" / "flat/train").glob("part-*"))[0]
        raw = bytearray(shard.read_bytes())
        raw[50:58] = b"\xff" * 8
        shard.write_bytes(bytes(raw))
        with pytest.raises(CodecError):
            main(["describe", "flat/train", "--dfs", dfs])

    def test_describe_corrupt_legacy_row_raises(self, inferred, capsys):
        """A legacy row dataset (metadata says ``"layout": "row"``) is not
        sniffed into some kind: describe raises the typed error that says
        to re-run the job."""
        import json

        from repro.mapreduce import UncommittedDatasetError

        tmp_path, dfs = inferred
        fs = DistFileSystem(dfs)
        fs.write_dataset("flat/legacy", list(fs.read_dataset("flat/train")))
        meta_path = tmp_path / "dfs" / "flat/legacy" / "_META.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "layout": "row"}))
        with pytest.raises(UncommittedDatasetError, match="re-run the job"):
            main(["describe", "flat/legacy", "--dfs", dfs])

    def test_graphinfer_reports_backend_slice_transport(self, inferred, capsys):
        """The processes backend ships model slices through a shm slab, and
        the CLI reports it; the scores equal the in-process run's."""
        tmp_path, dfs = inferred
        rc = main([
            "graphinfer", "-m", str(tmp_path / "model.pkl"),
            "-n", str(tmp_path / "nodes.tsv"), "-e", str(tmp_path / "edges.tsv"),
            "--max-neighbors", "20", "--output", "scores/shm",
            "--dfs", dfs, "--backend", "processes", "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "shm slice transport" in out
        fs = DistFileSystem(dfs)
        assert list(fs.read_dataset("scores/shm")) == list(
            fs.read_dataset("scores/columnar")
        )

    @pytest.mark.parametrize("command", ["graphtrainer", "describe"])
    def test_mapreduce_flags_only_on_pipelines(self, inferred, command):
        """Only graphflat and graphinfer run MapReduce jobs, so the other
        commands reject its flags instead of silently ignoring them."""
        tmp_path, dfs = inferred
        if command == "graphtrainer":
            argv = ["graphtrainer", "-m", "gcn", "-i", "flat/train",
                    "--model-out", str(tmp_path / "m2.pkl"), "--dfs", dfs]
        else:
            argv = ["describe", "flat/train", "--dfs", dfs]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--backend", "processes", "--task-timeout", "1"])
        assert exc.value.code == 2
