"""Per-service fingerprint log with brute-force packed-Hamming search.

Entries are append-only and keep their arrival order; searches order
results by (distance, insertion sequence) so seeded experiments reproduce
identical match lists. The store is columnar: ids, alphas and metadata
are kept as per-entry columns, and the packed bits only in one uint64
word matrix, which the scan in :mod:`binaryshield.kernels` reads and
``insert`` writes each new entry's column into.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
import threading
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .atomicio import atomic_output
from .errors import CorruptPayload, DimensionMismatch
from .fingerprint import (PrivacyBudget, check_padding, check_payload,
                          packed_length, padding_mask)
from .records import check_strings

SNAPSHOT_MAGIC = b"BSFP\x00\x01"
_HEADER = struct.Struct("<II")      # dim, record count
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_CHUNK = 1 << 20                    # snapshot bytes read or written at a time
_ROW_BLOCK = 4096                   # entries copied out of the matrix at a time


@dataclass(frozen=True)
class StoredFingerprint:
    """One entry as given to ``FingerprintStore.insert``, which checks it,
    or as ``get()`` and iteration rebuild it."""

    id: str
    bits: bytes
    dim: int
    alpha: float | None = None
    metadata: dict[str, str] = field(default_factory=dict)
    inserted_at: int | None = None


@dataclass(frozen=True)
class MatchResult:
    id: str
    distance: int
    metadata_overlap: int = 0


def query_bytes(query: bytes, dim: int) -> bytes:
    """A packed query buffer (never an int), checked against the store's dim."""
    data = memoryview(query).tobytes()
    if len(data) != packed_length(dim):
        raise DimensionMismatch(len(data) * 8, dim, "query payload bits")
    check_padding(data, dim)
    return data


def _metadata_overlap(entry_meta: dict[str, str],
                      query_meta: dict[str, str] | None) -> int:
    if not query_meta:
        return 0
    return sum(1 for k, v in query_meta.items() if entry_meta.get(k) == v)


def _alloc_words(n_words: int, capacity: int) -> np.ndarray:
    """A zeroed (n_words, capacity) uint64 matrix in an anonymous mapping.

    Not np.empty, which asks for transparent huge pages on large arrays:
    those would make the unused tail of every word row resident as soon
    as its head is written.
    """
    buf = mmap.mmap(-1, n_words * capacity * kernels.WORD_BYTES)
    return np.frombuffer(buf, dtype=np.uint64).reshape(n_words, capacity)


def _row_bytes(words: np.ndarray, n_bytes: int) -> Iterator[bytes]:
    """Each row of an (n, words) matrix as its first n_bytes bytes, copied
    out a block of rows at a time."""
    for start in range(0, words.shape[0], _ROW_BLOCK):
        block = np.ascontiguousarray(words[start:start + _ROW_BLOCK]).view(np.uint8)
        for row in block[:, :n_bytes]:
            yield row.tobytes()


def _encode_metadata(metadata: dict[str, str]) -> bytes:
    parts = [_U32.pack(len(metadata))]
    for key in sorted(metadata):
        kb, vb = key.encode("utf-8"), metadata[key].encode("utf-8")
        parts += [_U32.pack(len(kb)), kb, _U32.pack(len(vb)), vb]
    return b"".join(parts)


def _decode_text(raw: bytes, path: Path, at: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CorruptPayload(f"{path}: string at byte {at} is not UTF-8") from None


def _decode_metadata(raw: bytes, path: Path, at: int) -> dict[str, str]:
    """Inverse of :func:`_encode_metadata`; ``raw`` is known to hold
    exactly the pairs it counts, and starts at file offset ``at``."""
    metadata = {}
    pos = _U32.size
    for _ in range(_U32.unpack_from(raw)[0]):
        text = []
        for _ in range(2):
            (length,) = _U32.unpack_from(raw, pos)
            pos += _U32.size
            text.append(_decode_text(raw[pos:pos + length], path, at + pos))
            pos += length
        metadata[text[0]] = text[1]
    return metadata


class FingerprintStore:
    """Append-only log; many concurrent readers or one writer at a time.

    Entry ``seq`` is ``_ids[seq]``, ``_alphas[seq]`` (NaN when it has no
    alpha) and ``_metadata[seq]`` (one dict shared by every entry with the
    same metadata). Its bits are column ``seq`` of the word matrix.
    """

    def __init__(self, dim: int | None = None):
        self.dim = dim
        self._ids: list[str] = []
        self._id_index: dict[str, int] = {}
        self._alphas = array("d")
        self._metadata: list[dict[str, str]] = []
        self._shared_metadata: dict[tuple, dict[str, str]] = {}
        # (words, capacity) uint64; column seq holds entry seq's bits.
        # Columns past len(self) are never touched, so spare capacity
        # costs no resident memory.
        self._words = np.zeros((0, 0), dtype=np.uint64)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[StoredFingerprint]:
        """Every entry in insertion order, its bits read in one pass over
        the word matrix."""
        rows = _row_bytes(self.word_matrix(), self._n_bytes())
        for seq, bits in enumerate(rows):
            yield self._entry(seq, bits)

    def get(self, entry_id: str) -> StoredFingerprint:
        """The entry with this id; its metadata dict is the caller's copy."""
        with self._lock:
            seq = self._id_index[entry_id]
            bits = self._words[:, seq].tobytes()[: self._n_bytes()]
        return self._entry(seq, bits)

    def _entry(self, seq: int, bits: bytes) -> StoredFingerprint:
        alpha = self._alphas[seq]
        return StoredFingerprint(id=self._ids[seq], bits=bits, dim=self.dim,
                                 alpha=None if math.isnan(alpha) else alpha,
                                 metadata=dict(self._metadata[seq]),
                                 inserted_at=seq)

    def _n_bytes(self) -> int:
        return packed_length(self.dim or 0)

    def payload_bytes(self) -> int:
        return len(self) * self._n_bytes()

    def insert(self, fp: StoredFingerprint) -> int:
        """Check one entry, write its bits into the word matrix and return
        its insertion sequence number. A rejected entry leaves the store
        as it was."""
        check_payload(fp.bits, fp.dim)
        alpha = math.nan if fp.alpha is None else PrivacyBudget.of(fp.alpha).alpha
        row = kernels.bytes_to_words(fp.bits)
        with self._lock:
            if self.dim is not None and fp.dim != self.dim:
                raise DimensionMismatch(fp.dim, self.dim, f"entry {fp.id}")
            # One shared dict per metadata content, in its key order; a
            # content seen before passed the string rule then.
            try:
                key = tuple(fp.metadata.items())
                metadata = self._shared_metadata.get(key)
            except (AttributeError, TypeError):     # not a dict of hashables
                metadata = None
            try:
                check_strings({"id": fp.id},
                              metadata=fp.metadata if metadata is None else {})
            except ValueError as exc:
                raise ValueError(f"entry {fp.id!r}: {exc}") from None
            if fp.id in self._id_index:
                raise ValueError(f"duplicate fingerprint id {fp.id!r}")
            self.dim = fp.dim
            seq = len(self._ids)
            if seq == self._words.shape[1]:         # full: double it
                grown = _alloc_words(row.size, max(1, 2 * seq))
                if seq:
                    grown[:, :seq] = self._words
                self._words = grown
            self._words[:, seq] = row
            self._ids.append(fp.id)
            self._alphas.append(alpha)
            if metadata is None:
                metadata = self._shared_metadata[key] = dict(fp.metadata)
            self._metadata.append(metadata)
            self._id_index[fp.id] = seq
        return seq

    # -- search ----------------------------------------------------------------

    def word_matrix(self) -> np.ndarray:
        """The (n, words) uint64 view of every entry's bits that the scans
        read. Later inserts write only columns past n, or grow into a new
        matrix, so the view never changes."""
        with self._lock:
            return self._words[:, :len(self._ids)].T

    def _distances(self, query: bytes) -> np.ndarray:
        data = query_bytes(query, self.dim)
        words = self.word_matrix()
        return kernels.scan_distances(words, kernels.bytes_to_words(data))

    def _ordered(self, idx: np.ndarray, distances: np.ndarray,
                 query_metadata: dict[str, str] | None) -> list[MatchResult]:
        order = np.lexsort((idx, distances[idx]))
        return [MatchResult(id=self._ids[i],
                            distance=int(distances[i]),
                            metadata_overlap=_metadata_overlap(
                                self._metadata[i], query_metadata))
                for i in idx[order]]

    def search_threshold(self, query: bytes, tau: int,
                         query_metadata: dict[str, str] | None = None
                         ) -> list[MatchResult]:
        """Every entry within Hamming distance tau, ordered by
        (distance asc, insertion sequence asc)."""
        if self.dim is None:
            return []
        if not (0 <= tau <= self.dim):
            raise ValueError(f"tau must be in [0, {self.dim}], got {tau}")
        if not self._ids:
            return []
        distances = self._distances(query)
        idx = np.flatnonzero(distances <= tau)
        return self._ordered(idx, distances, query_metadata)

    def search_topk(self, query: bytes, k: int,
                    query_metadata: dict[str, str] | None = None) -> list[MatchResult]:
        """The k nearest entries, ties broken by insertion sequence.

        Asking for more entries than the store holds returns the whole
        store (documented behaviour, not an error).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self.dim is None or not self._ids:
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

    # -- persistence ---------------------------------------------------------------

    def save_snapshot(self, path: str | Path) -> None:
        """Write the length-prefixed snapshot format (id, alpha, metadata,
        packed bits per record). The file is replaced atomically: a failed
        save leaves the old one intact."""
        words = self.word_matrix()
        encoded: dict[int, bytes] = {}      # id of a shared metadata dict
        with atomic_output(path, "wb") as fh:
            out = bytearray(SNAPSHOT_MAGIC + _HEADER.pack(self.dim or 0, words.shape[0]))
            for seq, bits in enumerate(_row_bytes(words, self._n_bytes())):
                ident = self._ids[seq].encode("utf-8")
                alpha = self._alphas[seq]
                metadata = self._metadata[seq]
                if id(metadata) not in encoded:
                    encoded[id(metadata)] = _encode_metadata(metadata)
                out += _U32.pack(len(ident))
                out += ident
                out += b"\x00" if math.isnan(alpha) else b"\x01" + _F64.pack(alpha)
                out += encoded[id(metadata)]
                out += bits
                if len(out) >= _CHUNK:
                    fh.write(out)
                    del out[:]
            fh.write(out)

    @classmethod
    def load_snapshot(cls, path: str | Path) -> "FingerprintStore":
        """Read a snapshot; a truncated, malformed or over-long file raises
        CorruptPayload."""
        path = Path(path)
        with open(path, "rb") as fh:
            magic = fh.read(len(SNAPSHOT_MAGIC))
            if magic != SNAPSHOT_MAGIC:
                raise CorruptPayload(f"{path}: bad snapshot magic {magic!r}")
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise CorruptPayload(f"{path}: truncated at byte {fh.tell()}")
            dim, count = _HEADER.unpack(header)
            if count and not dim:
                raise CorruptPayload(f"{path}: header gives dim 0 for {count} records")
            store = cls(dim=dim or None)
            _read_records(fh, path, store, count)
        return store


def _read_records(fh, path: Path, store: FingerprintStore, count: int) -> None:
    """Parse ``count`` snapshot records from ``fh`` into the empty
    ``store``'s columns and a word matrix allocated once; the file must end
    after them.

    Records are parsed from buffered chunks of about ``_CHUNK`` bytes. A
    record that runs past the buffer is moved to its front and the buffer
    grows by at least its own size, so a record of any length is read in
    time linear in that length. The bits of the records parsed from one
    buffer are written into the matrix as one block.
    """
    n_bytes = store._n_bytes()
    start_at = fh.tell()
    room = os.fstat(fh.fileno()).st_size - start_at
    smallest = 2 * _U32.size + 1 + n_bytes      # empty id and metadata, no alpha
    if count * smallest > room:
        raise CorruptPayload(f"{path}: header gives {count} records, but "
                             f"{room} bytes cannot hold them")
    words = _alloc_words(kernels.words_per_row(n_bytes), count) if count else None
    ids, index, metadata = store._ids, store._id_index, store._metadata
    alphas = store._alphas
    shared: dict[bytes, dict[str, str]] = {}    # encoded metadata -> its dict
    u32, f64 = _U32.unpack_from, _F64.unpack_from
    buf = fh.read(_CHUNK)
    base = start_at     # file offset of buf[0]
    pos = 0
    bits_at: list[int] = []     # offsets in buf of bits not yet in words
    done = 0                    # records whose bits are in words

    def flush() -> None:
        nonlocal done
        if bits_at:
            rows = sliding_window_view(np.frombuffer(buf, dtype=np.uint8), n_bytes)
            kernels.fill_words(words[:, done:done + len(bits_at)], rows[bits_at])
            done += len(bits_at)
            bits_at.clear()

    seq = 0
    while seq < count:
        record = pos
        try:
            (length,) = u32(buf, pos)
            raw_id = buf[pos + 4:pos + 4 + length]
            pos += 4 + length
            flag = buf[pos]
            if flag == 1:
                (alpha,) = f64(buf, pos + 1)
                if alpha != alpha:
                    raise CorruptPayload(f"{path}: alpha at byte {base + pos + 1} is NaN")
                pos += 9
            elif flag == 0:
                alpha = math.nan
                pos += 1
            else:
                raise CorruptPayload(
                    f"{path}: bad alpha flag {bytes([flag])!r} at byte {base + pos}")
            meta_at = pos
            (pairs,) = u32(buf, pos)
            pos += 4
            for _ in range(2 * pairs):
                pos += 4 + u32(buf, pos)[0]
            if pos + n_bytes > len(buf):
                raise IndexError
        except (struct.error, IndexError):
            flush()
            more = fh.read(max(_CHUNK, len(buf) - record))
            if not more:
                raise CorruptPayload(f"{path}: truncated at byte {base + len(buf)}") from None
            base += record
            buf = buf[record:] + more
            pos = 0
            continue
        ident = _decode_text(raw_id, path, base + record + 4)
        if not ident:
            raise CorruptPayload(f"{path}: record {seq} has an empty id")
        if ident in index:
            raise CorruptPayload(f"{path}: duplicate fingerprint id {ident!r}")
        raw_meta = buf[meta_at:pos]
        meta = shared.get(raw_meta)
        if meta is None:
            meta = shared[raw_meta] = _decode_metadata(raw_meta, path, base + meta_at)
        index[ident] = seq
        ids.append(ident)
        alphas.append(alpha)
        metadata.append(meta)
        bits_at.append(pos)
        pos += n_bytes
        seq += 1
    flush()
    if pos < len(buf) or fh.read(1):
        raise CorruptPayload(f"{path}: trailing bytes after {count} records")
    if count:
        _check_columns(path, store.dim, ids, alphas, words)
        store._words = words
    store._shared_metadata = {tuple(m.items()): m for m in shared.values()}


def _check_columns(path: Path, dim: int, ids: list[str], alphas: array,
                   words: np.ndarray) -> None:
    """Vectorized checks of a loaded store: zero padding bits in every
    row's last byte, and a valid PrivacyBudget for every alpha set."""
    mask = padding_mask(dim)
    if mask:
        last = packed_length(dim) - 1
        shift = 8 * (last % kernels.WORD_BYTES)
        bad = np.flatnonzero(words[last // kernels.WORD_BYTES] & np.uint64(mask << shift))
        if bad.size:
            raise CorruptPayload(f"{path}: record {ids[bad[0]]!r}: nonzero padding "
                                 f"bits beyond index {dim - 1}")
    column = np.frombuffer(alphas, dtype=np.float64)
    for value in np.unique(column[~np.isnan(column)]):
        try:
            PrivacyBudget(float(value))
        except ValueError as exc:
            first = int(np.flatnonzero(column == value)[0])
            raise CorruptPayload(f"{path}: record {ids[first]!r}: {exc}") from None
