"""Packed Hamming-distance kernels.

Fingerprints are stored as little-endian-bit-packed bytes, zero-padded up
to whole 64-bit words; distance is XOR + population count over those
words. The scan over a corpus is the package's hot loop: numpy's
``np.bitwise_count`` over a column-major word matrix, one word column at
a time.
"""

from __future__ import annotations

import numpy as np

WORD_BYTES = 8
_BLOCK_ROWS = 4096


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
    """Distances from one query row to every corpus row, as int64 (n,)."""
    if corpus_words.ndim != 2 or query_words.ndim != 1:
        raise ValueError("expected corpus (n, w) and query (w,)")
    n, w = corpus_words.shape
    if w != query_words.shape[0]:
        raise ValueError(
            f"word width mismatch: corpus {w} vs query {query_words.shape[0]}")
    # One word column at a time, into buffers of n elements that stay in
    # cache, instead of an (n, w) XOR matrix and an (n, w) count matrix.
    # A row holds at most 64 * w set bits; a uint16 accumulator moves a
    # quarter of int64's bytes and is exact while that sum fits.
    acc = np.zeros(n, dtype=np.uint16 if 64 * w <= 0xFFFF else np.int64)
    xor = np.empty(n, dtype=np.uint64)
    count = np.empty(n, dtype=np.uint8)
    for j in range(w):
        np.bitwise_xor(corpus_words[:, j], query_words[j], out=xor)
        np.bitwise_count(xor, out=count)
        np.add(acc, count, out=acc)
    return acc.astype(np.int64, copy=False)
