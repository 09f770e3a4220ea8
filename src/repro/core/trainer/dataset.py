"""Sample sources — the trainer's view of a dataset.

GraphTrainer used to accept only in-memory lists (wire bytes or decoded
:class:`TrainSample` objects).  A :class:`SampleSource` generalises that to
"anything with random access to N training triples", which is what lets the
trainer run off mmap'd columnar shards without materialising — or even
decoding — the dataset:

* :class:`MemorySamples` — wraps a list (decoding wire bytes once), the old
  behavior;
* :class:`ColumnarDataset` — random access over the columnar shards of a
  DFS dataset.  ``batch()`` returns a tiny picklable
  :class:`ColumnarBatchRef` instead of sample objects, so a process-pool
  prefetch worker ships a few ints per batch and slices the shard out of
  its own mapping (per-process shard cache).

:func:`open_sample_source` opens a DFS dataset as a
:class:`ColumnarDataset`, which presents samples in ``read_dataset`` order
(shard-major) — the order of the in-memory GraphFlat output, so per-epoch
losses are bit-identical whichever of the two a trainer reads (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.trainer.vectorize import TrainSample, decode_samples
from repro.proto.columnar import ColumnarShard

__all__ = [
    "ColumnarBatchRef",
    "ColumnarDataset",
    "ColumnarSlice",
    "MemorySamples",
    "SampleSource",
    "as_sample_source",
    "open_sample_source",
]


class SampleSource:
    """Random-access source of :class:`TrainSample` records.

    Subclasses implement ``__len__``, :meth:`sample` and :meth:`ids`;
    :meth:`batch` may return any object the
    :class:`~repro.core.trainer.pipeline.BatchPipeline` preparer
    understands (a list of samples, or a picklable ref with a
    ``load_samples()`` method).
    """

    def __len__(self) -> int:
        raise NotImplementedError  # pragma: no cover - abstract

    def sample(self, i: int) -> TrainSample:
        raise NotImplementedError  # pragma: no cover - abstract

    def ids(self) -> np.ndarray:
        """``(N,) int64`` target id of every sample, in source order."""
        raise NotImplementedError  # pragma: no cover - abstract

    def batch(self, indices: np.ndarray):
        """Pipeline-ready batch for ``indices`` (in the given order)."""
        return [self.sample(int(i)) for i in indices]

    def iter_samples(self):
        for i in range(len(self)):
            yield self.sample(i)

    # ------------------------------------------------------------- labels
    @property
    def label_kind(self) -> str:
        """``"none"`` / ``"int"`` / ``"vector"`` — homogeneous per source."""
        if not len(self):
            return "none"
        label = self.sample(0).label
        if label is None:
            return "none"
        return "int" if np.ndim(label) == 0 else "vector"

    @property
    def label_dim(self) -> int:
        """Vector-label width (0 for int/absent labels)."""
        if self.label_kind != "vector":
            return 0
        return len(self.sample(0).label)

    def max_int_label(self) -> int:
        if self.label_kind != "int":
            raise ValueError("max_int_label needs int labels")
        return max(int(s.label) for s in self.iter_samples())

    def labels_by_id(self) -> dict[int, object]:
        """Target id -> label (evaluation-time lookup)."""
        return {int(s.target_id): s.label for s in self.iter_samples()}


class MemorySamples(SampleSource):
    """The in-memory source: a decoded list of :class:`TrainSample`."""

    def __init__(self, samples: list[TrainSample]):
        self._samples = list(samples)
        self._ids: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._samples)

    def sample(self, i: int) -> TrainSample:
        return self._samples[i]

    def ids(self) -> np.ndarray:
        if self._ids is None:
            self._ids = np.asarray(
                [int(s.target_id) for s in self._samples], dtype=np.int64
            )
        return self._ids

    def batch(self, indices) -> list[TrainSample]:
        return [self._samples[int(i)] for i in indices]

    def iter_samples(self):
        return iter(self._samples)


# Per-process cache so pool workers mmap each shard once, not per batch.
# Keyed on (path, mtime, size): rewriting a dataset in place invalidates
# the stale mapping instead of silently serving the old file.  LRU-bounded
# so a long-lived process touching many datasets doesn't pin file handles
# and address-space mappings forever.
_SHARD_CACHE: dict[tuple, ColumnarShard] = {}
_SHARD_CACHE_LIMIT = 256


def _cached_shard(path: str) -> ColumnarShard:
    stat = Path(path).stat()
    key = (path, stat.st_mtime_ns, stat.st_size)
    shard = _SHARD_CACHE.get(key)
    if shard is not None:
        _SHARD_CACHE[key] = _SHARD_CACHE.pop(key)  # refresh LRU position
        return shard
    for stale in [k for k in _SHARD_CACHE if k[0] == path]:
        del _SHARD_CACHE[stale]
    while len(_SHARD_CACHE) >= _SHARD_CACHE_LIMIT:
        del _SHARD_CACHE[next(iter(_SHARD_CACHE))]  # dicts iterate LRU-first
    shard = _SHARD_CACHE[key] = ColumnarShard(path)
    return shard


def _load_locator(shard_paths: tuple[str, ...], locator: tuple[int, int]) -> TrainSample:
    shard, row = locator
    return TrainSample(*_cached_shard(shard_paths[shard]).sample(row))


@dataclass(frozen=True)
class ColumnarBatchRef:
    """Picklable pointer to one batch: shard paths + (shard, row) locators.

    This is what crosses the process boundary under the ``processes``
    prefetch backend — a few dozen ints instead of the batch's tensors.
    """

    shard_paths: tuple[str, ...]
    locators: tuple[tuple[int, int], ...]

    def load_samples(self) -> list[TrainSample]:
        return [_load_locator(self.shard_paths, loc) for loc in self.locators]


@dataclass
class ColumnarSlice(SampleSource):
    """Picklable worker shard: a fixed subsequence of a columnar dataset.

    This is how a distributed-training worker *process* receives its data
    assignment: shard paths plus ``(shard, row)`` locators — a few ints per
    sample — instead of the samples themselves.  The worker opens the
    mmap'd shards through the per-process cache, so sample bytes never
    transit the parent.  Built by :meth:`ColumnarDataset.slice`.
    """

    shard_paths: tuple[str, ...]
    locators: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.locators)

    def sample(self, i: int) -> TrainSample:
        return _load_locator(self.shard_paths, self.locators[int(i)])

    def ids(self) -> np.ndarray:
        if not self.locators:
            return np.zeros(0, dtype=np.int64)
        locs = np.asarray(self.locators, dtype=np.int64)
        out = np.empty(len(locs), dtype=np.int64)
        for shard in np.unique(locs[:, 0]):  # one id-column read per shard
            mask = locs[:, 0] == shard
            ids = _cached_shard(self.shard_paths[int(shard)]).array("sample_ids")
            out[mask] = ids[locs[mask, 1]]
        return out

    def batch(self, indices) -> ColumnarBatchRef:
        return ColumnarBatchRef(
            self.shard_paths, tuple(self.locators[int(i)] for i in indices)
        )


class ColumnarDataset(SampleSource):
    """Random access over the columnar shards of one dataset.

    Global sample index is shard-major (shard 0's rows, then shard 1's …),
    matching ``DistFileSystem.read_dataset`` order.
    """

    def __init__(self, shard_paths):
        self._paths = tuple(str(p) for p in shard_paths)
        if not self._paths:
            raise ValueError("columnar dataset has no shards")
        self._shards = [_cached_shard(p) for p in self._paths]
        for shard in self._shards:
            if shard.kind != "samples":
                raise ValueError(
                    f"{shard.path} holds {shard.kind!r} records, not training samples"
                )
        counts = [len(s) for s in self._shards]
        self._starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._ids: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self._starts[-1])

    def _locate(self, i: int) -> tuple[int, int]:
        if not 0 <= i < len(self):
            raise IndexError(f"dataset has {len(self)} samples")
        shard = int(np.searchsorted(self._starts, i, side="right")) - 1
        return shard, i - int(self._starts[shard])

    def sample(self, i: int) -> TrainSample:
        shard, row = self._locate(int(i))
        return TrainSample(*self._shards[shard].sample(row))

    def ids(self) -> np.ndarray:
        if self._ids is None:
            blocks = [s.array("sample_ids") for s in self._shards if len(s)]
            self._ids = (
                np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
            )
        return self._ids

    def batch(self, indices) -> ColumnarBatchRef:
        return ColumnarBatchRef(
            self._paths, tuple(self._locate(int(i)) for i in indices)
        )

    def slice(self, indices) -> ColumnarSlice:
        """Picklable sub-source over ``indices`` (worker shard assignment)."""
        return ColumnarSlice(
            self._paths, tuple(self._locate(int(i)) for i in indices)
        )

    # ------------------------------------------------------------- labels
    @property
    def label_kind(self) -> str:
        for shard in self._shards:
            if len(shard):
                return shard.label_kind
        return "none"

    @property
    def label_dim(self) -> int:
        for shard in self._shards:
            if len(shard) and shard.label_kind == "vector":
                return int(shard.meta.get("label_dim", 0))
        return 0

    def max_int_label(self) -> int:
        if self.label_kind != "int":
            raise ValueError("max_int_label needs int labels")
        return max(int(s.array("labels").max()) for s in self._shards if len(s))

    def labels_by_id(self) -> dict[int, object]:
        out: dict[int, object] = {}
        for shard in self._shards:
            if not len(shard):
                continue
            ids = shard.array("sample_ids")
            if shard.label_kind == "none":
                out.update((int(i), None) for i in ids)
            elif shard.label_kind == "int":
                labels = shard.array("labels")
                out.update((int(i), int(lbl)) for i, lbl in zip(ids, labels))
            else:
                labels = shard.array("labels")
                out.update((int(i), labels[row]) for row, i in enumerate(ids))
        return out


def as_sample_source(data) -> SampleSource:
    """Coerce trainer input — a source, wire bytes, or decoded samples."""
    if isinstance(data, SampleSource):
        return data
    data = list(data)
    if data and isinstance(data[0], (bytes, bytearray)):
        return MemorySamples(decode_samples(data))
    return MemorySamples(data)


def open_sample_source(fs, name: str) -> ColumnarDataset:
    """The mmap'd :class:`ColumnarDataset` over a committed DFS dataset
    (an uncommitted one raises
    :class:`~repro.mapreduce.fs.UncommittedDatasetError`).  Every consumer
    that would loop ``read_dataset`` should go through this."""
    return ColumnarDataset(fs.shards(name))
