"""CPU time and resident memory of a whole process tree, read from /proc.

``RUSAGE_CHILDREN`` only counts children the caller has waited for, so it
misses the MapReduce and parameter-server workers: those are spawned by the
multiprocessing forkserver and are grandchildren of the benchmark process.
Walking ``/proc`` sees every descendant.  A worker's CPU time stays visible
after it exits, because the forkserver reaps it and the kernel folds it into
the forkserver's ``cutime``/``cstime``.
"""

from __future__ import annotations

import os
import resource
import threading

_TICKS = os.sysconf("SC_CLK_TCK")
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _read_stat(pid: str) -> tuple[int, int, int]:
    """``(ppid, cpu ticks incl. reaped children, rss pages)`` of one pid."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        data = fh.read()
    # The command name may hold spaces and parentheses: fields start after
    # the last ')'.  fields[0] is the state (stat field 3).
    fields = data[data.rindex(b")") + 2 :].split()
    ppid = int(fields[1])
    cpu = sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    return ppid, cpu, int(fields[21])


def _scan() -> dict[int, tuple[int, int, int]]:
    table: dict[int, tuple[int, int, int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                table[int(name)] = _read_stat(name)
            except (OSError, ValueError, IndexError):
                pass  # the process exited during the scan
    return table


def _subtree(table: dict[int, tuple[int, int, int]], root: int) -> list[int]:
    """``root`` (if alive) and every descendant in ``table``."""
    children: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    found, stack = [], [root]
    while stack:
        pid = stack.pop()
        if pid in table:
            found.append(pid)
        stack.extend(children.get(pid, ()))
    return found


def descendants(root: int) -> list[int]:
    """Pids of every live descendant of ``root`` (not ``root`` itself)."""
    return [pid for pid in _subtree(_scan(), root) if pid != root]


def tree_usage(root: int) -> tuple[float, float]:
    """``(cpu seconds, rss MiB)`` summed over ``root`` and its descendants."""
    table = _scan()
    pids = _subtree(table, root)
    cpu = sum(table[pid][1] for pid in pids)
    rss = sum(table[pid][2] for pid in pids)
    return cpu / _TICKS, rss * _PAGE_MB


class TreeMonitor:
    """Context manager: CPU seconds and peak total RSS of this process tree.

    CPU is the difference of two snapshots (exact up to the clock tick).
    RSS is sampled on a background thread every ``interval`` seconds; the
    peak is the largest sum over the tree seen in any sample.  One scan of
    ``/proc`` holds the interpreter lock for about 1.5 ms, so the default
    interval keeps the sampler under 1% of the measured process's time."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.rusage_children_s = 0.0
        """What ``RUSAGE_CHILDREN`` saw over the same interval, for contrast."""
        self._root = os.getpid()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._cpu0 = self._children0 = 0.0

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            _, rss = tree_usage(self._root)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)

    @staticmethod
    def _children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def __enter__(self) -> "TreeMonitor":
        self._cpu0, self.peak_rss_mb = tree_usage(self._root)
        self._children0 = self._children_cpu()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        cpu1, rss = tree_usage(self._root)
        self.cpu_s = cpu1 - self._cpu0
        self.rusage_children_s = self._children_cpu() - self._children0
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
