"""Partitioned shuffle spill: map-side sorted frame writes, reduce-side
streamed merge.

Each map task (or chain reducer) writes its output for reduce partition
``p`` to run files ``<root>/<job>.m<task>.p<p>.r<run>.<ext>``.  Within a
file, records are *stably sorted by canonical key bytes* (the map-side sort
of real MapReduce), so each reduce task can k-way-merge its partition's
files through a bounded buffer — one frame per file in flight — instead of
materializing the whole partition in RAM.  Merge streams are ordered
task-major then run-order and ties prefer the earlier stream, which makes
the merged stream exactly the stable sort of the old concatenation order:
grouping, and therefore job output, stays byte-identical.

Two write paths share that on-disk shape:

* :meth:`SpillLayout.write_map_output` — eager: one run (run 0) per
  partition from a fully materialized bucket list.
* :class:`SpillRunWriter` — the external sort: ``append`` streams records
  into bounded per-partition buffers and every time the run bounds fill,
  all non-empty buffers flush as key-sorted run files.  Peak writer memory
  is one run, not one task's whole output, no matter how large the shard.
  With an associative :class:`~repro.mapreduce.job.Combiner`, each key's
  buffered run is folded *before* it hits disk — for the binary codec
  directly on the encoded records (frame-level map-side combine).

Record encoding is pluggable (the ``codec`` knob):

* ``"pickle"`` — one pickle per record value; works for arbitrary jobs.
* ``"binary"`` — flat tagged records via :mod:`repro.proto.framing`; node
  and edge state goes to disk as raw little-endian blocks instead of pickled
  object graphs, which is the serialization tax AGL's C++ GraphFlat avoids
  with flat protobuf records (§3.2).  GraphFlat/GraphInfer register their
  record types' wire forms and default to this codec.

Keys are stored once per frame, as their canonical shuffle encoding
(:func:`repro.mapreduce.shuffle.key_bytes`) — it is simultaneously the merge
sort key and, via :func:`~repro.mapreduce.shuffle.decode_key`, the key
serialization.

Writes are atomic (temp file + ``os.replace``) so a task attempt that dies
mid-write can never leave a partial file for its re-execution to read, and
re-executions — being deterministic — simply overwrite.  ``cleanup`` also
glob-removes orphaned ``.tmp*`` files from attempts that died mid-write.
"""

from __future__ import annotations

import heapq
import io
import os
import pickle
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

from repro.mapreduce.fault import take_read_fault

from repro.proto.framing import (
    FrameCorruptionError,
    decode_value,
    encode_list_payload,
    encode_value,
    iter_frames,
    read_stream_header,
    write_frame,
    write_stream_header,
)
from repro.mapreduce.shuffle import decode_key, key_bytes

__all__ = [
    "DEFAULT_RUN_BYTES",
    "DEFAULT_RUN_RECORDS",
    "SPILL_CODECS",
    "SpillLayout",
    "SpillRunWriter",
    "SpillWriteResult",
]

SPILL_CODECS = ("pickle", "binary")

_CODEC_IDS = {"pickle": 0, "binary": 1}
_CODEC_EXTS = {"pickle": "pkl", "binary": "bin"}

_READ_BUFFER_BYTES = 1 << 16
"""Per-file read buffer of the merge iterator — the explicit bound on how
much of a partition is ever resident during a streamed reduce."""

DEFAULT_RUN_RECORDS = 1 << 16
"""Run bound by record count — caps buffered *objects* for both codecs."""

DEFAULT_RUN_BYTES = 32 << 20
"""Run bound by encoded bytes (binary codec only, where per-record
encodings are produced at append time): payloads plus each frame's key
and fixed framing overhead, approximating the run's size on disk."""


_STREAM_HEADER_BYTES = 6  # AGLS magic + version + codec id

_FRAME_FIXED_BYTES = 8
"""Approximate per-frame overhead beyond key and payload: two length
varints (1-2 bytes each for typical frames) plus the 4-byte CRC trailer.
Used by the run writer's byte budget so flushes track file bytes."""


def _damage(data: bytes, kind: str) -> bytes:
    """In-memory injury of one spill file's bytes for the read faults.

    ``truncate-run`` chops the tail mid-CRC (the trailer is the last four
    bytes of every frame, so any short chop is guaranteed detectable);
    ``corrupt-run`` flips a byte in the middle of the frame region, which
    the per-frame CRC32 — covering key and payload — catches.  The header
    is left intact: the point is a *frame* integrity failure, not a codec
    mismatch."""
    if kind == "truncate-run" and len(data) > _STREAM_HEADER_BYTES + 3:
        return data[:-3]
    injured = bytearray(data)
    body = len(injured) - _STREAM_HEADER_BYTES
    if body > 0:
        injured[_STREAM_HEADER_BYTES + body // 2] ^= 0xFF
    return bytes(injured)


@dataclass(frozen=True)
class SpillWriteResult:
    """What a map task (or chain reducer) reports back to the parent after
    spilling: per-partition record counts, total bytes on disk, and the
    largest single flush (the writer's actual buffering high-water mark)."""

    counts: list[int]
    bytes_written: int = 0
    peak_buffer_bytes: int = 0
    partition_bytes: tuple[int, ...] | None = None
    """Per-partition file bytes (parallel to ``counts``), feeding the
    runtime's shuffle-skew accounting.  ``None`` from legacy callers."""


@dataclass(frozen=True)
class SpillLayout:
    """Where one job's shuffle files live, and how records are encoded.
    Picklable: it crosses the process boundary inside every map/reduce task
    of a spilling job."""

    root: str
    job_name: str
    num_partitions: int
    codec: str = "pickle"
    partition_subdirs: bool = False
    """Route each partition's runs into a ``p00007/`` peer directory under
    ``root`` (the shared-dir shuffle transport: writers push straight to
    the owning reducer's location on a DFS mount).  File *names* are
    unchanged — only the directory differs — so the merge order, and
    therefore the reduced output, is byte-identical to the flat layout."""

    def __post_init__(self):
        if self.codec not in SPILL_CODECS:
            raise ValueError(
                f"unknown spill codec {self.codec!r}; known: {SPILL_CODECS}"
            )

    def path(self, map_task: int, partition: int) -> Path:
        """Path of the first (and, for eager writes, only) run file."""
        return self.run_path(map_task, partition, 0)

    def run_path(self, map_task: int, partition: int, run: int) -> Path:
        """Path of one sorted run.  Runs are numbered contiguously from 0
        per ``(map_task, partition)``; the reader scans until the first
        missing index."""
        ext = _CODEC_EXTS[self.codec]
        name = f"{self.job_name}.m{map_task:05d}.p{partition:05d}.r{run:05d}.{ext}"
        if self.partition_subdirs:
            return Path(self.root) / f"p{partition:05d}" / name
        return Path(self.root) / name

    # ------------------------------------------------------------ record codec
    def _encode_payload(self, values: list) -> bytes:
        """Encode one key-run (every value a map task emitted under one
        key).  Run-level framing amortizes per-frame overhead and, for the
        pickle codec, lets same-key records share pickle memoization."""
        if self.codec == "binary":
            return encode_value(values)
        return pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)

    def _decode_payload(self, payload: bytes) -> list:
        if self.codec == "binary":
            values, end = decode_value(payload)
            if end != len(payload):
                raise FrameCorruptionError(
                    f"{len(payload) - end} trailing bytes after spill run "
                    "(corrupt length varint inside the payload)"
                )
            return values
        return pickle.loads(payload)

    # ------------------------------------------------------------- map side
    def run_writer(
        self,
        map_task: int,
        combiner=None,
        run_records: int = DEFAULT_RUN_RECORDS,
        run_bytes: int = DEFAULT_RUN_BYTES,
    ) -> "SpillRunWriter":
        """Streaming bounded-memory writer for one task's partitioned
        output — see :class:`SpillRunWriter`."""
        return SpillRunWriter(
            self, map_task, combiner=combiner, run_records=run_records, run_bytes=run_bytes
        )

    def write_map_output(self, map_task: int, buckets: list[list[tuple]]) -> SpillWriteResult:
        """Spill one map task's partitioned output eagerly (one run per
        partition); returns per-partition record counts and bytes written
        (the only things shipped back to the parent)."""
        Path(self.root).mkdir(parents=True, exist_ok=True)
        counts = []
        partition_bytes = []
        for partition, bucket in enumerate(buckets):
            counts.append(len(bucket))
            if not bucket:
                partition_bytes.append(0)
                continue
            final = self.path(map_task, partition)
            if self.partition_subdirs:
                final.parent.mkdir(exist_ok=True)
            tmp = final.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                partition_bytes.append(self._write_bucket(fh, bucket))
            os.replace(tmp, final)
        return SpillWriteResult(
            counts, sum(partition_bytes), partition_bytes=tuple(partition_bytes)
        )

    def _write_bucket(self, fh, bucket: list[tuple]) -> int:
        """Encode one bucket as key-sorted run frames — one frame per
        distinct key, holding that key's values in emission order (so the
        merged stream reproduces the in-memory shuffle's value order
        exactly); returns bytes written."""
        runs: dict[bytes, list] = {}
        for key, value in bucket:
            kb = key_bytes(key)
            values = runs.get(kb)
            if values is None:
                runs[kb] = [value]
            else:
                values.append(value)
        written = write_stream_header(fh, _CODEC_IDS[self.codec])
        for kb in sorted(runs):
            written += write_frame(fh, kb, self._encode_payload(runs[kb]))
        return written

    # ---------------------------------------------------------- reduce side
    def _iter_task_runs(self, map_task: int, partition: int):
        """Run files one task wrote for one partition, in run order."""
        run = 0
        while True:
            path = self.run_path(map_task, partition, run)
            if not path.exists():
                return
            yield path
            run += 1

    def _iter_file(self, path: Path):
        """Yield ``(key_bytes, values)`` run frames from one spill file,
        streamed through a bounded buffer.

        An armed read fault (the ``corrupt-run``/``truncate-run`` kinds of
        :class:`~repro.mapreduce.fault.FaultPlan`) damages this attempt's
        *view* of the first file it opens — never the bytes on disk — so
        the frame CRC machinery fails the attempt loudly and its retry,
        reading the intact file, reproduces byte-identical output."""
        fault = take_read_fault()
        with open(path, "rb", buffering=_READ_BUFFER_BYTES) as fh:
            if fault is not None:
                fh = io.BytesIO(_damage(fh.read(), fault))
            codec_id = read_stream_header(fh)
            if codec_id != _CODEC_IDS[self.codec]:
                raise ValueError(
                    f"spill file {path} written with codec id {codec_id}, "
                    f"layout expects {self.codec!r}"
                )
            for kb, payload in iter_frames(fh):
                yield kb, self._decode_payload(payload)

    def _iter_merged(self, partition: int, num_map_tasks: int):
        """K-way merge of one partition's run files: globally key-sorted
        ``(key_bytes, values)`` run stream, holding one frame per file in
        memory.  Streams are ordered task-major then run-order and
        ``heapq.merge`` is stable, so same-key values concatenate in their
        original emission order — exactly the order a single eager sorted
        write per task would have produced."""
        streams = []
        for map_task in range(num_map_tasks):
            for path in self._iter_task_runs(map_task, partition):
                streams.append(self._iter_file(path))
        if not streams:
            return
        if len(streams) == 1:
            yield from streams[0]
            return
        yield from heapq.merge(*streams, key=itemgetter(0))

    def iter_partition(self, partition: int, num_map_tasks: int):
        """Streamed ``(key, value)`` pairs of one partition, key-sorted."""
        for key, values in self.iter_groups(partition, num_map_tasks):
            for value in values:
                yield key, value

    def iter_groups(self, partition: int, num_map_tasks: int):
        """Streamed reduce groups ``(key, values)`` — the external-merge
        replacement for ``group_sorted(read_partition(...))``: peak memory
        is one group (plus one buffered run per spill file), not the whole
        partition."""
        current_kb: bytes | None = None
        current_key = None
        acc: list = []
        for kb, values in self._iter_merged(partition, num_map_tasks):
            if kb != current_kb:
                if current_kb is not None:
                    yield current_key, acc
                current_kb, current_key, acc = kb, decode_key(kb), list(values)
            else:
                acc.extend(values)
        if current_kb is not None:
            yield current_key, acc

    # ------------------------------------------------------------- cleanup
    def cleanup(self, num_map_tasks: int | None = None) -> None:
        """Delete the job's spill files — every run of every task, plus
        ``.tmp*`` partials left by task attempts that died mid-write — once
        the reduce is done."""
        root = Path(self.root)
        if root.exists():
            pattern = f"{self.job_name}.m*"
            if self.partition_subdirs:
                pattern = f"p[0-9]*/{self.job_name}.m*"
            for path in root.glob(pattern):
                path.unlink(missing_ok=True)


class SpillRunWriter:
    """External sort on the write side: streamed append, bounded sorted runs.

    Records are buffered per ``(partition, canonical key bytes)``.  Once the
    buffered volume crosses ``run_records`` (both codecs) or ``run_bytes``
    (binary codec — per-record encodings are produced at append time, so
    byte accounting is exact), every non-empty partition buffer is flushed
    as one key-sorted run file and the buffers reset.  Flush points are a
    deterministic function of the append sequence, so a re-executed task
    attempt rewrites byte-identical runs over any partials a crashed attempt
    left behind (each run write is itself atomic: temp file + ``os.replace``).

    ``combiner`` (a :class:`~repro.mapreduce.job.Combiner`) folds each key's
    buffered values at flush time — before they reach disk.  Under the
    binary codec the fold runs on the encoded records via
    ``combine_encoded``, falling back to decode/combine/encode only if the
    combiner declines.

    Reported ``counts`` are post-combine; ``peak_buffer_bytes`` is the
    largest single flush in file bytes — the writer's actual buffering
    high-water mark, which stays flat as task output grows.
    """

    def __init__(
        self,
        layout: SpillLayout,
        map_task: int,
        combiner=None,
        run_records: int = DEFAULT_RUN_RECORDS,
        run_bytes: int = DEFAULT_RUN_BYTES,
    ):
        if run_records < 1:
            raise ValueError("run_records must be >= 1")
        if run_bytes < 1:
            raise ValueError("run_bytes must be >= 1")
        self._layout = layout
        self._map_task = map_task
        self._combiner = combiner
        self._run_records = run_records
        self._run_bytes = run_bytes
        self._binary = layout.codec == "binary"
        num = layout.num_partitions
        # partition -> key_bytes -> (key, values) where values are encoded
        # item bytes (binary) or plain objects (pickle).
        self._buffers: list[dict[bytes, tuple[object, list]]] = [{} for _ in range(num)]
        self._pending_records = 0
        self._pending_bytes = 0
        self._next_run = [0] * num
        self._counts = [0] * num
        self._partition_bytes = [0] * num
        self._bytes_written = 0
        self._peak_flush = 0
        self._made_root = False

    def append(self, partition: int, key, value) -> None:
        kb = key_bytes(key)
        buffer = self._buffers[partition]
        if self._binary:
            value = encode_value(value)
            self._pending_bytes += len(value)
        entry = buffer.get(kb)
        if entry is None:
            buffer[kb] = (key, [value])
            if self._binary:
                # A new key means a new frame at flush time: account its
                # fixed cost (key bytes, length varints, CRC trailer) so
                # the byte budget tracks file bytes, not just payloads.
                self._pending_bytes += len(kb) + _FRAME_FIXED_BYTES
        else:
            entry[1].append(value)
        self._pending_records += 1
        if self._pending_records >= self._run_records or (
            self._binary and self._pending_bytes >= self._run_bytes
        ):
            self._flush()

    def _combine_buffer(self, buffer: dict[bytes, tuple[object, list]]) -> None:
        for kb, (key, items) in buffer.items():
            if len(items) <= 1:
                continue
            if self._binary:
                folded = self._combiner.combine_encoded(kb, items)
                if folded is None:
                    values = [decode_value(item)[0] for item in items]
                    folded = [encode_value(v) for v in self._combiner.combine(key, values)]
                buffer[kb] = (key, folded)
            else:
                buffer[kb] = (key, list(self._combiner.combine(key, items)))

    def _flush(self) -> None:
        if self._pending_records == 0:
            return
        if not self._made_root:
            Path(self._layout.root).mkdir(parents=True, exist_ok=True)
            self._made_root = True
        codec_id = _CODEC_IDS[self._layout.codec]
        flushed = 0
        for partition, buffer in enumerate(self._buffers):
            if not buffer:
                continue
            if self._combiner is not None:
                self._combine_buffer(buffer)
            final = self._layout.run_path(
                self._map_task, partition, self._next_run[partition]
            )
            if self._layout.partition_subdirs:
                final.parent.mkdir(exist_ok=True)
            tmp = final.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                written = write_stream_header(fh, codec_id)
                for kb in sorted(buffer):
                    _, items = buffer[kb]
                    self._counts[partition] += len(items)
                    if self._binary:
                        payload = encode_list_payload(items)
                    else:
                        payload = pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
                    written += write_frame(fh, kb, payload)
            os.replace(tmp, final)
            self._next_run[partition] += 1
            self._buffers[partition] = {}
            self._partition_bytes[partition] += written
            flushed += written
        self._bytes_written += flushed
        if flushed > self._peak_flush:
            self._peak_flush = flushed
        self._pending_records = 0
        self._pending_bytes = 0

    def finish(self) -> SpillWriteResult:
        """Flush the final runs and report counts/bytes to the parent."""
        self._flush()
        return SpillWriteResult(
            list(self._counts),
            self._bytes_written,
            self._peak_flush,
            partition_bytes=tuple(self._partition_bytes),
        )
