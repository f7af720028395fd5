"""Reference answers computed from the benchmark's own copy of a log.

The oracle never touches ``binaryshield.store`` or ``binaryshield.kernels``:
it keeps its own append-only uint64 matrix and counts with numpy XOR +
popcount. Every check here runs after the timed window closes.
"""

from __future__ import annotations

import json
import re

import numpy as np

from inputs import N_BYTES

WORDS = (N_BYTES + 7) // 8
_TOKENS = (re.compile(r"\S{5,}"), re.compile(r"\w{5,}"))


def to_words(packed: bytes) -> np.ndarray:
    row = np.zeros(WORDS * 8, dtype=np.uint8)
    row[:N_BYTES] = np.frombuffer(packed, dtype=np.uint8)
    return row.view(np.uint64)


class LogOracle:
    """The log as it stood after each append, so an answer can be checked
    against the exact prefix the program saw when it answered."""

    def __init__(self, rows: np.ndarray, ids: list[str], spare: int = 0):
        n = rows.shape[0]
        padded = np.zeros((n + spare, WORDS * 8), dtype=np.uint8)
        padded[:n, :N_BYTES] = rows
        self._words = padded.view(np.uint64)
        self.ids = list(ids)

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, entry_id: str, packed: bytes) -> None:
        n = len(self.ids)
        if n == self._words.shape[0]:
            self._words = np.concatenate(
                [self._words, np.zeros_like(self._words[: max(n, 1)])])
        self._words[n] = to_words(packed)
        self.ids.append(entry_id)

    def distances(self, packed: bytes, n_rows: int) -> np.ndarray:
        return np.bitwise_count(self._words[:n_rows] ^ to_words(packed)).sum(
            axis=1, dtype=np.int64)

    def count_within(self, packed: bytes, tau: int, n_rows: int) -> int:
        return int((self.distances(packed, n_rows) <= tau).sum())

    def topk(self, packed: bytes, k: int, n_rows: int) -> list[tuple[str, int]]:
        """The k nearest of the first n_rows entries by (distance, sequence)."""
        d = self.distances(packed, n_rows)
        kth = np.partition(d, k - 1)[k - 1]
        idx = np.flatnonzero(d <= kth)      # ascending, i.e. insertion order
        order = idx[np.argsort(d[idx], kind="stable")][:k]
        return [(self.ids[i], int(d[i])) for i in order]


def leaked_tokens(text: str, frame: bytes) -> list[str]:
    """Input tokens of five or more characters found in a frame's text
    fields. The fixed key names and the typed numeric fields cannot carry
    prompt text; the base64 payload is checked bit-for-bit elsewhere, and a
    128-character random base64 string would match a five-letter token by
    chance too often to test here."""
    obj = json.loads(frame)
    fields = [obj["origin_service"], obj["fingerprint_id"]]
    for key, value in obj["metadata"].items():
        fields += [key, value]
    haystack = "\x00".join(fields).lower()
    tokens = {tok for pattern in _TOKENS for tok in pattern.findall(text)}
    return sorted(tok for tok in tokens if tok.lower() in haystack)
