"""Packed Hamming-distance kernels.

Fingerprints are stored as little-endian-bit-packed bytes, zero-padded up
to whole 64-bit words; distance is XOR + population count over those
words. The scan over a corpus is the package's hot loop: numpy's
``np.bitwise_count`` over a column-major word matrix, one word column at
a time, added into a uint16 accumulator (int64 past 1,023 words) that is
returned as the distances. A corpus of at least ``_SPLIT_ROWS`` rows is
split into two contiguous row halves when the process may run on two or
more CPUs: the calling thread scans the first half while one persistent
helper thread, started on the first such scan, scans the second into the
same accumulator. numpy's ufuncs release the interpreter lock, so both
halves run at once. The calling thread then scans the second half as well
until the helper is done, so a helper that is late or has lost its CPU
costs no more than the one-thread scan. There is no setting for this.
"""

from __future__ import annotations

import os
import threading

import numpy as np

WORD_BYTES = 8
_BLOCK_ROWS = 4096
# Rows below which a split scan is no faster. Each thread takes the
# interpreter lock back after each of its 3 * w ufunc calls, and waking a
# thread costs tens of microseconds on a 2-vCPU x86_64 VM (a split of a
# 2-row corpus took 130-160 us there). With w = 12 the split lost below
# about 48K rows and won by about 19% (median) at 64K and 29% at 100K.
_SPLIT_ROWS = 65536


def active_backend() -> str:
    """Name of the scan implementation, stamped on benchmark reports."""
    return "numpy"


# -- layout helpers ----------------------------------------------------------

def words_per_row(n_bytes: int) -> int:
    return (n_bytes + WORD_BYTES - 1) // WORD_BYTES


def bytes_to_words(packed: bytes | np.ndarray) -> np.ndarray:
    """One packed payload -> (w,) uint64 row, zero-padded to a word boundary."""
    raw = np.frombuffer(bytes(packed), dtype=np.uint8)
    w = words_per_row(raw.size)
    padded = np.zeros(w * WORD_BYTES, dtype=np.uint8)
    padded[: raw.size] = raw
    return padded.view(np.uint64)


def rows_to_words(rows: np.ndarray) -> np.ndarray:
    """(n, n_bytes) uint8 matrix -> (n, w) uint64 word matrix.

    The result is column-major (Fortran order): each word column is one
    contiguous run of n words, which is what the scans walk.
    """
    if rows.ndim != 2 or rows.dtype != np.uint8:
        raise ValueError("expected a 2-D uint8 matrix of packed rows")
    words = np.empty((words_per_row(rows.shape[1]), rows.shape[0]), dtype=np.uint64)
    fill_words(words, rows)
    return words.T


def fill_words(out: np.ndarray, rows: np.ndarray) -> None:
    """Write (n, n_bytes) uint8 rows into ``out``, a (w, n) uint64 block
    whose column j receives row j zero-padded to w words."""
    n, n_bytes = rows.shape
    # Pad and transpose a cache-sized block of rows at a time; one whole
    # transposing copy runs about twice as long.
    padded = np.zeros((min(n, _BLOCK_ROWS), out.shape[0] * WORD_BYTES), dtype=np.uint8)
    for start in range(0, n, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        padded[: len(block), :n_bytes] = block
        out[:, start:start + len(block)] = padded[: len(block)].view(np.uint64).T


# -- scan ---------------------------------------------------------------------

def scan_distances(corpus_words: np.ndarray, query_words: np.ndarray) -> np.ndarray:
    """Distances from one query row to every corpus row: (n,) uint16, exact
    while a row's 64 * w bits fit (w <= 1,023, dim <= 65,472), else int64."""
    if corpus_words.ndim != 2 or query_words.ndim != 1:
        raise ValueError("expected corpus (n, w) and query (w,)")
    n, w = corpus_words.shape
    if w != query_words.shape[0]:
        raise ValueError(
            f"word width mismatch: corpus {w} vs query {query_words.shape[0]}")
    acc = np.zeros(n, dtype=np.uint16 if 64 * w <= 0xFFFF else np.int64)
    if n >= _SPLIT_ROWS and _usable_cpus() >= 2:
        return _split_scan(corpus_words, query_words, acc)
    _scan_into(corpus_words, query_words, acc)
    return acc


def _scan_into(corpus_words: np.ndarray, query_words: np.ndarray,
               acc: np.ndarray, stop: threading.Lock | None = None) -> bool:
    """Add each corpus row's distance to the query into ``acc``. Given a
    ``stop`` lock, give up before the next column once it is held and
    return False."""
    # One word column at a time, into buffers of n elements that stay in
    # cache, instead of an (n, w) XOR matrix and an (n, w) count matrix.
    n = acc.size
    xor = np.empty(n, dtype=np.uint64)
    count = np.empty(n, dtype=np.uint8)
    for j in range(corpus_words.shape[1]):
        if stop is not None and stop.locked():
            return False
        np.bitwise_xor(corpus_words[:, j], query_words[j], out=xor)
        np.bitwise_count(xor, out=count)
        np.add(acc, count, out=acc)
    return True


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# -- the helper thread ---------------------------------------------------------

_helper_jobs = None                 # the helper's job queue, once it runs
_helper_start = threading.Lock()


def _split_scan(corpus_words: np.ndarray, query_words: np.ndarray,
                acc: np.ndarray) -> np.ndarray:
    """:func:`scan_distances` over two row halves at once. This thread
    scans the first half and queues the second for the helper, then scans
    the second too, into a buffer of its own. Whichever copy of the second
    half is finished first is kept and the other stops at its next column,
    so a helper that wakes late, is busy with another caller's half or
    loses its CPU leaves this thread doing the one-thread scan."""
    half = acc.size // 2
    rest, rest_acc = corpus_words[half:], acc[half:]
    first = threading.Lock()        # taken by the copy finished first
    failed: list[BaseException] = []
    _helper().put((rest, query_words, rest_acc, first, failed))
    _scan_into(corpus_words[:half], query_words, acc[:half])
    mine = np.zeros_like(rest_acc)
    if _scan_into(rest, query_words, mine, stop=first) and first.acquire(blocking=False):
        # The helper may still be writing rest_acc until its next column.
        return np.concatenate((acc[:half], mine))
    if failed:                      # the helper took ``first`` after this
        raise failed[0]
    return acc


def _helper():
    """The helper's job queue, starting the thread on first use."""
    global _helper_jobs
    with _helper_start:
        if _helper_jobs is None:
            import queue
            jobs = queue.SimpleQueue()
            threading.Thread(target=_serve, args=(jobs,), daemon=True,
                             name="binaryshield-scan").start()
            _helper_jobs = jobs
        return _helper_jobs


def _serve(jobs) -> None:
    """The helper thread: scan each queued second half, and take its
    ``first`` lock once finished unless the caller's copy has it."""
    while True:
        rest, query_words, acc, first, failed = jobs.get()
        try:
            finished = _scan_into(rest, query_words, acc, stop=first)
        except BaseException as exc:    # handed to the caller, which raises it
            failed.append(exc)
            finished = True
        if finished:
            first.acquire(blocking=False)


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread does not exist here,
    so the next split scan starts the child's own."""
    global _helper_jobs, _helper_start
    _helper_jobs = None
    _helper_start = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
