"""Benchmark harness: random corpora and the packed-vs-dense scan
comparison. The dense-cosine scan lives here only as the baseline the
packed store is measured against."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import kernels
from .evaluation import storage_report
from .fingerprint import pack_last_axis, philox
from .store import FingerprintStore, StoredFingerprint, query_bytes

_CHUNK_QUERIES = 44


@dataclass
class ScanReport:
    mode: str
    corpus_size: int
    n_queries: int
    total_seconds: float
    backend: str

    def __add__(self, other: ScanReport) -> ScanReport:
        """The report of both runs' queries, timed back to back."""
        return replace(self, n_queries=self.n_queries + other.n_queries,
                       total_seconds=self.total_seconds + other.total_seconds)

    @property
    def mean_query_seconds(self) -> float:
        return self.total_seconds / self.n_queries if self.n_queries else 0.0

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "backend": self.backend,
            "corpus_size": self.corpus_size,
            "n_queries": self.n_queries,
            "total_seconds": self.total_seconds,
            "mean_query_seconds": self.mean_query_seconds,
        }, sort_keys=True)


def random_bit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    """(n, ceil(dim/8)) packed uint8 rows with zeroed padding."""
    bits = philox(seed).integers(0, 2, size=(n, dim), dtype=np.uint8)
    return pack_last_axis(bits)


def make_random_store(n: int, dim: int, seed: int) -> FingerprintStore:
    rows = random_bit_rows(n, dim, seed)
    store = FingerprintStore(dim=dim)
    for i in range(n):
        store.insert(StoredFingerprint(id=f"e{i}", bits=rows[i].tobytes(),
                                       dim=dim))
    return store


def random_unit_rows(n: int, dim: int, seed: int) -> np.ndarray:
    """(n, dim) float32 standard-normal rows from Philox(seed), scaled to
    unit L2 norm (a zero row stays zero)."""
    matrix = philox(seed).standard_normal((n, dim)).astype(np.float32)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    matrix /= norms
    return matrix


def scan_benchmark(store: FingerprintStore,
                   queries: Sequence[bytes]) -> ScanReport:
    """Time a per-query top-1 packed-Hamming scan over the whole store.

    Queries are processed one at a time, mirroring how a correlation
    service answers independent lookups. Packing the word matrix happens
    before the timed region (index build cost).
    """
    words = store.word_matrix()
    rows = [kernels.bytes_to_words(query_bytes(q, store.dim)) for q in queries]
    t0 = time.perf_counter()
    for row in rows:
        distances = kernels.scan_distances(words, row)
        _ = int(distances.argmin()) if distances.size else -1
    total = time.perf_counter() - t0
    return ScanReport(mode="packed_hamming", corpus_size=len(store),
                      n_queries=len(queries), total_seconds=total,
                      backend=kernels.active_backend())


def dense_scan_benchmark(matrix: np.ndarray, queries: np.ndarray) -> ScanReport:
    """Time a per-query top-1 cosine scan of unit-norm ``queries`` over the
    unit-norm rows of ``matrix``, one query at a time as the packed scan
    in :func:`scan_benchmark` does."""
    t0 = time.perf_counter()
    for vec in queries:
        scores = matrix @ vec
        _ = int(scores.argmax()) if scores.size else -1
    total = time.perf_counter() - t0
    return ScanReport(mode="dense_cosine", corpus_size=matrix.shape[0],
                      n_queries=len(queries), total_seconds=total,
                      backend="blas")


@dataclass
class EfficiencyReport:
    packed: ScanReport
    dense: ScanReport
    storage_float32_ratio: float
    storage_float64_ratio: float

    @property
    def speedup(self) -> float:
        if self.packed.total_seconds == 0:
            return float("inf")
        return self.dense.total_seconds / self.packed.total_seconds

    def to_json(self) -> str:
        return json.dumps({
            "packed": json.loads(self.packed.to_json()),
            "dense": json.loads(self.dense.to_json()),
            "speedup": self.speedup,
            "storage_float32_ratio": self.storage_float32_ratio,
            "storage_float64_ratio": self.storage_float64_ratio,
        }, sort_keys=True)


def _settle() -> None:
    """Wait, at most about 1 s, until this process's threads are idle: a
    BLAS worker thread spins on a CPU for about 0.1 s after each call, and
    the packed scan's helper thread needs that CPU."""
    for _ in range(100):
        cpu = time.process_time()
        time.sleep(0.01)
        if time.process_time() - cpu < 0.001:
            return


def efficiency_run(n: int, n_queries: int, dim: int = 768,
                   seed: int = 0) -> EfficiencyReport:
    """Build one random packed corpus and one random dense corpus of the
    same size and time a per-query top-1 scan over each. The two sides take
    turns, ``_CHUNK_QUERIES`` queries at a time, so a change in host load
    falls on both; each side's total is the sum of its chunks. Each chunk
    starts with the process idle, so neither side runs beside the other's
    threads."""
    store = make_random_store(n, dim, seed)
    matrix = random_unit_rows(n, dim, seed + 1)
    queries = [row.tobytes() for row in random_bit_rows(n_queries, dim, seed + 1000)]
    vectors = random_unit_rows(n_queries, dim, seed + 1001)
    packed, dense = scan_benchmark(store, []), dense_scan_benchmark(matrix, vectors[:0])
    for i in range(0, n_queries, _CHUNK_QUERIES):
        _settle()
        packed += scan_benchmark(store, queries[i:i + _CHUNK_QUERIES])
        _settle()
        dense += dense_scan_benchmark(matrix, vectors[i:i + _CHUNK_QUERIES])
    return EfficiencyReport(packed=packed, dense=dense,
                            storage_float32_ratio=storage_report(n, dim, 4).ratio,
                            storage_float64_ratio=storage_report(n, dim, 8).ratio)
