"""Per-service fingerprint log with brute-force packed-Hamming search.

Entries are append-only and keep their arrival order; searches order
results by (distance, insertion sequence) so seeded experiments reproduce
identical match lists. The scan runs through :mod:`binaryshield.kernels`
over one uint64 word matrix that each search extends with the entries
inserted since the last one.
"""

from __future__ import annotations

import csv
import io
import json
import mmap
import struct
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .atomicio import atomic_output
from .errors import CorruptPayload, DimensionMismatch
from .fingerprint import BinaryFingerprint, check_padding, packed_length

SNAPSHOT_MAGIC = b"BSFP\x00\x01"

QueryLike = bytes | BinaryFingerprint


@dataclass(frozen=True)
class StoredFingerprint:
    id: str
    bits: bytes
    dim: int
    alpha: float | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    inserted_at: int | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("fingerprint id must be non-empty")
        if len(self.bits) != packed_length(self.dim):
            raise CorruptPayload(
                f"entry {self.id}: payload is {len(self.bits)} bytes, "
                f"expected {packed_length(self.dim)} for dim {self.dim}")
        check_padding(self.bits, self.dim)
        object.__setattr__(self, "bits", bytes(self.bits))


@dataclass(frozen=True)
class MatchResult:
    id: str
    distance: int
    metadata_overlap: int = 0


@dataclass
class ScanReport:
    mode: str
    corpus_size: int
    n_queries: int
    total_seconds: float
    per_query_seconds: list[float]
    backend: str

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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["query_index", "seconds"])
        for i, s in enumerate(self.per_query_seconds):
            writer.writerow([i, f"{s:.9f}"])
        return buf.getvalue()


def _query_bytes(query: QueryLike, dim: int) -> bytes:
    if isinstance(query, BinaryFingerprint):
        if query.dim != dim:
            raise DimensionMismatch(query.dim, dim, "query")
        return query.bits
    data = bytes(query)
    if len(data) != packed_length(dim):
        raise DimensionMismatch(len(data) * 8, dim, "query payload bits")
    check_padding(data, dim)
    return data


def _metadata_overlap(entry_meta: dict[str, str],
                      query_meta: dict[str, str] | None) -> int:
    if not query_meta:
        return 0
    return sum(1 for k, v in query_meta.items() if entry_meta.get(k) == v)


class FingerprintStore:
    """Append-only log; many concurrent readers or one writer at a time."""

    def __init__(self, dim: int | None = None):
        self.dim = dim
        self._entries: list[StoredFingerprint] = []
        self._id_index: dict[str, int] = {}
        # (words, capacity) uint64; its first _covered columns hold the
        # first _covered entries. Columns past that are never touched, so
        # spare capacity costs no resident memory.
        self._words: np.ndarray | None = None
        self._covered = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def get(self, entry_id: str) -> StoredFingerprint:
        return self._entries[self._id_index[entry_id]]

    def payload_bytes(self) -> int:
        return sum(len(e.bits) for e in self._entries)

    def insert(self, fp: StoredFingerprint) -> int:
        """Add one entry; returns its insertion sequence number."""
        if self.dim is None:
            self.dim = fp.dim
        if fp.dim != self.dim:
            raise DimensionMismatch(fp.dim, self.dim, f"entry {fp.id}")
        if fp.id in self._id_index:
            raise ValueError(f"duplicate fingerprint id {fp.id!r}")
        seq = len(self._entries)
        # An entry that already carries its sequence number (as the snapshot
        # loader builds them) is kept, and its number object shared with the
        # index, instead of being copied and validated again.
        entry = fp if fp.inserted_at == seq else replace(fp, inserted_at=seq)
        with self._lock:
            self._entries.append(entry)
            self._id_index[fp.id] = entry.inserted_at
        return seq

    def insert_many(self, fps: Iterable[StoredFingerprint]) -> int:
        count = 0
        for fp in fps:
            self.insert(fp)
            count += 1
        return count

    # -- search ----------------------------------------------------------------

    def _pack(self, start: int, stop: int) -> np.ndarray:
        """Entries [start, stop) as a column-major (stop - start, words)
        matrix; the joined payload bytes are freed on return."""
        rows = np.frombuffer(b"".join(e.bits for e in self._entries[start:stop]),
                             dtype=np.uint8)
        return kernels.rows_to_words(
            rows.reshape(stop - start, packed_length(self.dim)))

    def _word_matrix(self) -> np.ndarray:
        """The (n, words) view of the packed matrix, after writing in the
        entries inserted since the last call."""
        with self._lock:
            n = len(self._entries)
            if n == 0:
                return np.zeros((0, 1), dtype=np.uint64)
            if self._covered < n:
                new = self._pack(self._covered, n).T
                old, done = self._words, self._covered
                if old is None:
                    self._words = new
                else:
                    if old.shape[1] < n:
                        # An anonymous mapping rather than np.empty, which
                        # asks for transparent huge pages on large arrays:
                        # those would make the unused tail of every word row
                        # resident as soon as its head is written.
                        shape = (old.shape[0], max(n, 2 * old.shape[1]))
                        buf = mmap.mmap(-1, shape[0] * shape[1] * kernels.WORD_BYTES)
                        self._words = np.frombuffer(buf, dtype=np.uint64).reshape(shape)
                        self._words[:, :done] = old[:, :done]
                    self._words[:, done:n] = new
                self._covered = n
            return self._words[:, :n].T

    def _distances(self, query: QueryLike) -> np.ndarray:
        data = _query_bytes(query, self.dim)
        words = self._word_matrix()
        return kernels.scan_distances(words, kernels.bytes_to_words(data))

    def _ordered(self, idx: np.ndarray, distances: np.ndarray,
                 query_metadata: dict[str, str] | None) -> list[MatchResult]:
        order = np.lexsort((idx, distances[idx]))
        return [MatchResult(id=self._entries[i].id,
                            distance=int(distances[i]),
                            metadata_overlap=_metadata_overlap(
                                self._entries[i].metadata, query_metadata))
                for i in idx[order]]

    def search_threshold(self, query: QueryLike, tau: int,
                         query_metadata: dict[str, str] | None = None,
                         min_metadata_overlap: int = 0) -> list[MatchResult]:
        """Every entry within Hamming distance tau, ordered by
        (distance asc, insertion sequence asc)."""
        if self.dim is None:
            return []
        if not (0 <= tau <= self.dim):
            raise ValueError(f"tau must be in [0, {self.dim}], got {tau}")
        if not self._entries:
            return []
        distances = self._distances(query)
        idx = np.flatnonzero(distances <= tau)
        results = self._ordered(idx, distances, query_metadata)
        if min_metadata_overlap > 0:
            results = [r for r in results if r.metadata_overlap >= min_metadata_overlap]
        return results

    def search_topk(self, query: QueryLike, k: int,
                    query_metadata: dict[str, str] | None = None) -> list[MatchResult]:
        """The k nearest entries, ties broken by insertion sequence.

        Asking for more entries than the store holds returns the whole
        store (documented behaviour, not an error).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.dim is None or not self._entries:
            return []
        distances = self._distances(query)
        n = distances.size
        if k >= n:
            idx = np.arange(n)
        else:
            kth = np.partition(distances, k - 1)[k - 1]
            less = np.flatnonzero(distances < kth)
            # flatnonzero is ascending, i.e. insertion order, so taking the
            # first equal-distance entries respects the tie-break.
            equal = np.flatnonzero(distances == kth)[: k - less.size]
            idx = np.concatenate([less, equal])
        return self._ordered(idx, distances, query_metadata)

    # -- benchmark ---------------------------------------------------------------

    def scan_benchmark(self, queries: Sequence[QueryLike]) -> ScanReport:
        """Time a per-query top-1 packed-Hamming scan over the whole store.

        Queries are processed one at a time, mirroring how a correlation
        service answers independent lookups. Packing the word matrix happens
        before the timed region (index build cost).
        """
        words = self._word_matrix()
        rows = [kernels.bytes_to_words(_query_bytes(q, self.dim)) for q in queries]
        per_query: list[float] = []
        t0 = time.perf_counter()
        for row in rows:
            tq = time.perf_counter()
            distances = kernels.scan_distances(words, row)
            _ = int(distances.argmin()) if distances.size else -1
            per_query.append(time.perf_counter() - tq)
        total = time.perf_counter() - t0
        return ScanReport(mode="packed_hamming", corpus_size=len(self._entries),
                          n_queries=len(queries), total_seconds=total,
                          per_query_seconds=per_query,
                          backend=kernels.active_backend())

    # -- persistence ---------------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        """Write the length-prefixed snapshot format (id, alpha, metadata,
        packed bits per record). The file
        is replaced atomically: a failed save leaves the old one intact."""
        with atomic_output(path, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(struct.pack("<II", self.dim or 0, len(self._entries)))
            for e in self._entries:
                ident = e.id.encode("utf-8")
                fh.write(struct.pack("<I", len(ident)))
                fh.write(ident)
                if e.alpha is None:
                    fh.write(b"\x00")
                else:
                    fh.write(b"\x01")
                    fh.write(struct.pack("<d", e.alpha))
                fh.write(struct.pack("<I", len(e.metadata)))
                for key in sorted(e.metadata):
                    kb, vb = key.encode("utf-8"), e.metadata[key].encode("utf-8")
                    fh.write(struct.pack("<I", len(kb)))
                    fh.write(kb)
                    fh.write(struct.pack("<I", len(vb)))
                    fh.write(vb)
                fh.write(e.bits)

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "FingerprintStore":
        """Read a snapshot; a truncated, malformed or over-long file raises
        CorruptPayload."""
        path = Path(path)
        with open(path, "rb") as fh:

            def take(n: int) -> bytes:
                chunk = fh.read(n)
                if len(chunk) != n:
                    raise CorruptPayload(
                        f"{path}: truncated at byte {fh.tell() - len(chunk)}")
                return chunk

            def u32() -> int:
                return int.from_bytes(take(4), "little")

            def text() -> str:
                raw = take(u32())
                try:
                    return raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise CorruptPayload(f"{path}: string at byte "
                                         f"{fh.tell() - len(raw)} is not UTF-8") from None

            magic = fh.read(len(SNAPSHOT_MAGIC))
            if magic != SNAPSHOT_MAGIC:
                raise CorruptPayload(f"{path}: bad snapshot magic {magic!r}")
            dim, count = u32(), u32()
            if count and not dim:
                raise CorruptPayload(f"{path}: header gives dim 0 for {count} records")
            store = cls(dim=dim or None)
            n_bytes = packed_length(dim)
            for _ in range(count):
                ident = text()
                flag = take(1)
                if flag not in (b"\x00", b"\x01"):
                    raise CorruptPayload(
                        f"{path}: bad alpha flag {flag!r} at byte {fh.tell() - 1}")
                alpha = struct.unpack("<d", take(8))[0] if flag == b"\x01" else None
                metadata = {}
                for _ in range(u32()):
                    key = text()
                    metadata[key] = text()
                bits = take(n_bytes)
                try:
                    store.insert(StoredFingerprint(id=ident, bits=bits, dim=dim,
                                                   alpha=alpha, metadata=metadata,
                                                   inserted_at=len(store)))
                except ValueError as exc:
                    raise CorruptPayload(f"{path}: record {ident!r}: {exc}") from None
            if fh.read(1):
                raise CorruptPayload(f"{path}: trailing bytes after {count} records")
        return store
