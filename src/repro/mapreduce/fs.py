"""Directory-backed stand-in for the cluster distributed file system.

GraphFlat's output ("flattened to protobuf strings and stored on a
distributed file system", §3.2.1) and GraphInfer's inputs/outputs live here.
The abstraction is deliberately thin — named sharded datasets — because that
is all the paper's pipelines require of the real DFS.

A dataset is a directory of ``part-NNNNN`` shards, each one mmap-able
``AGLC`` frame of stacked matrices + offset tables
(:mod:`repro.proto.columnar`), plus a ``_META.json`` sidecar that commits
it.  :meth:`DistFileSystem.read_dataset` and
:meth:`~DistFileSystem.read_shard` yield wire records (re-encoded from the
shard matrices on the fly), while :meth:`~DistFileSystem.open_shard`
exposes the zero-copy reader.  The metadata records the record ``kind``
(samples / predictions), the producing task and per-shard record counts,
which is what makes :meth:`~DistFileSystem.count_records` O(1) and lets
tooling dispatch on :meth:`~DistFileSystem.kind`.

A directory without ``_META.json`` is a write that never committed (its
job died between the shard writes and the commit), and one whose metadata
says ``"layout": "row"`` predates the columnar format.  Every reader
raises :class:`UncommittedDatasetError` for both.
"""

from __future__ import annotations

import json
import shutil
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.proto.columnar import ColumnarShard, write_prediction_shard, write_sample_shard

__all__ = ["DistFileSystem", "UncommittedDatasetError"]

_META_NAME = "_META.json"


class UncommittedDatasetError(OSError):
    """A dataset directory holds no committed columnar dataset."""


class DistFileSystem:
    """Sharded record datasets rooted at a local directory.

    Shards are the unit of parallelism for downstream consumers (training
    workers read disjoint shard subsets).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _dataset_dir(self, name: str) -> Path:
        if not name or name.startswith("/") or ".." in name:
            raise ValueError(f"bad dataset name {name!r}")
        return self.root / name

    # -------------------------------------------------------------- writing
    def write_dataset(
        self,
        name: str,
        records: Iterable,
        num_shards: int = 1,
        kind: str = "samples",
        task: str | None = None,
    ) -> int:
        """Write ``records`` into ``num_shards`` contiguous columnar shards.

        Records are wire bytes or structured records —
        ``(target_id, label, GraphFeature)`` triples for ``kind="samples"``,
        ``(node_id, scores)`` pairs for ``kind="predictions"``.  Shards are
        contiguous, balanced (±1) chunks of the input, so a shard-major read
        reproduces the input order exactly.

        Returns the record count.  Overwrites any existing dataset of the
        same name (jobs are idempotent: re-running a failed job replaces
        partial output, like a MapReduce output-commit).
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        write = write_prediction_shard if kind == "predictions" else write_sample_shard
        extra = {} if kind == "predictions" else {"task": task}
        directory = self.prepare_dataset(name)
        everything = list(records)
        size, rest = divmod(len(everything), num_shards)
        counts = []
        start = 0
        for shard in range(num_shards):
            end = start + size + (1 if shard < rest else 0)
            counts.append(write(directory / f"part-{shard:05d}", everything[start:end], **extra))
            start = end
        self.finalize_dataset(name, kind=kind, record_counts=counts, task=task)
        return len(everything)

    def prepare_dataset(self, name: str) -> Path:
        """Clear + create a dataset directory for out-of-band shard writes.

        The reducer-owned sink path: the parent prepares the directory, the
        final-round reducers each write their own ``part-NNNNN`` shard into
        it, and the parent commits with :meth:`finalize_dataset`.  A crash
        in between leaves a directory without ``_META.json``, which readers
        reject and the next (idempotent) run clears and rewrites."""
        directory = self._dataset_dir(name)
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        return directory

    def finalize_dataset(
        self,
        name: str,
        kind: str,
        record_counts: list[int],
        task: str | None = None,
    ) -> None:
        """Commit a dataset whose shards were written out-of-band
        (:meth:`prepare_dataset`) by recording its ``_META.json``.

        ``task`` (when known) records which task plugin produced the
        samples; node classification records nothing, so its metadata stays
        byte-identical to datasets written before the task layer."""
        meta = {
            "layout": "columnar",
            "kind": kind,
            "record_counts": list(record_counts),
            "total_records": int(sum(record_counts)),
        }
        if task is not None:
            meta["task"] = task
        path = self._dataset_dir(name) / _META_NAME
        path.write_text(json.dumps(meta, sort_keys=True))

    # -------------------------------------------------------------- reading
    def _meta(self, name: str) -> dict:
        """The commit record of a dataset; raises for absent datasets
        (``FileNotFoundError``) and uncommitted or row-layout ones
        (:class:`UncommittedDatasetError`)."""
        directory = self._dataset_dir(name)
        if not directory.is_dir():
            raise FileNotFoundError(f"dataset {name!r} not found under {self.root}")
        path = directory / _META_NAME
        if not path.is_file():
            problem = f"has no {_META_NAME} (its writing job never committed)"
        else:
            meta = json.loads(path.read_text())
            if meta.get("layout") == "columnar":
                return meta
            problem = f"has layout {meta.get('layout')!r}; only columnar shards are readable"
        raise UncommittedDatasetError(
            f"dataset {name!r} under {self.root} {problem}; "
            "re-run the job that writes it"
        )

    def shards(self, name: str) -> list[Path]:
        """Sorted shard paths of a committed dataset."""
        self._meta(name)
        return sorted(self._dataset_dir(name).glob("part-*"))

    def read_dataset(self, name: str) -> Iterator[bytes]:
        """Every record of every shard, shard order then record order, as
        wire records.  The dataset is checked on call, not on first read."""
        paths = self.shards(name)
        return (record for path in paths for record in ColumnarShard(path).iter_wire())

    def read_shard(self, name: str, shard_index: int) -> Iterator[bytes]:
        return self.open_shard(name, shard_index).iter_wire()

    def open_shard(self, name: str, shard_index: int) -> ColumnarShard:
        """Zero-copy :class:`ColumnarShard` reader of one shard."""
        shards = self.shards(name)
        if not 0 <= shard_index < len(shards):
            raise IndexError(f"dataset {name!r} has {len(shards)} shards")
        return ColumnarShard(shards[shard_index])

    # ------------------------------------------------------------- metadata
    def kind(self, name: str) -> str:
        """Record kind of a dataset (``samples`` / ``predictions``).
        Metadata committed before kinds were recorded falls back to the
        first shard's header (a corrupt header raises)."""
        meta = self._meta(name)
        if "kind" in meta:
            return meta["kind"]
        return ColumnarShard(self.shards(name)[0]).kind

    def task(self, name: str) -> str | None:
        """Recorded task kind of a dataset, or ``None`` when absent.

        Only non-default tasks are recorded (node-classification output
        stays byte-identical to pre-task-layer shards), so ``None`` means
        either a legacy dataset or the node-classification default —
        callers render both as ``node_classification``.
        """
        return self._meta(name).get("task")

    def exists(self, name: str) -> bool:
        return self._dataset_dir(name).is_dir()

    def num_shards(self, name: str) -> int:
        return len(self.shards(name))

    def count_records(self, name: str) -> int:
        """Dataset record count, O(1) from the metadata."""
        return int(self._meta(name)["total_records"])

    def size_bytes(self, name: str) -> int:
        return sum(p.stat().st_size for p in self.shards(name))

    def delete(self, name: str) -> None:
        directory = self._dataset_dir(name)
        if directory.exists():
            shutil.rmtree(directory)

    def list_datasets(self) -> list[str]:
        return sorted(
            str(p.relative_to(self.root))
            for p in self.root.rglob("*")
            if p.is_dir() and any(child.name.startswith("part-") for child in p.iterdir())
        )
