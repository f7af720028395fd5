"""Embedding providers: deterministic pseudo-embedder, file-backed cache,
and a remote HTTP client for OpenAI-convention embedding endpoints.

All providers yield :class:`~binaryshield.fingerprint.DenseEmbedding` for
redacted text. The pseudo-embedder exists so end-to-end detection tests
are meaningful without a neural model: token-overlapping texts land near
each other after sign quantization.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (CorruptPayload, EmbeddingTransportError, MissingEmbedding)
from .fingerprint import DenseEmbedding, rekeyed_philox
from .redaction import RedactedPrompt
from .textproc import stable_hash64, tokenize

CACHE_MAGIC = b"BSEMB\x00\x00\x01"
_HEADER = struct.Struct("<II")  # dim, record count (after the 8-byte magic)
_KEYLEN = struct.Struct("<I")

TextLike = str | RedactedPrompt


class ProviderKind(Enum):
    PSEUDO = "pseudo"
    FILE_CACHE = "file_cache"
    REMOTE_HTTP = "remote_http"


@dataclass(frozen=True)
class ProviderConfig:
    kind: ProviderKind
    dim: int = 768
    model_id: str = "pseudo"
    endpoint_url: str | None = None
    api_key_env_var: str | None = None
    cache_path: str | Path | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.kind is ProviderKind.REMOTE_HTTP and not self.endpoint_url:
            raise ValueError("REMOTE_HTTP provider requires endpoint_url")
        if self.kind is ProviderKind.FILE_CACHE and not self.cache_path:
            raise ValueError("FILE_CACHE provider requires cache_path")


def text_of(text: TextLike) -> str:
    return text.text if isinstance(text, RedactedPrompt) else text


def content_key(text: TextLike) -> str:
    """Stable join key: hex SHA-256 of the exact redacted text bytes."""
    return hashlib.sha256(text_of(text).encode("utf-8")).hexdigest()


def _require_nonempty(text: TextLike) -> str:
    raw = text_of(text)
    if not raw.strip():
        raise ValueError("cannot embed empty text")
    return raw


class _EmbedEach:
    """``embed_batch`` for providers that embed one text at a time."""

    def embed_batch(self, texts: Sequence[TextLike]) -> list[DenseEmbedding]:
        if not texts:
            raise ValueError("embed_batch requires at least one text")
        return [self.embed(t) for t in texts]


class PseudoEmbedder(_EmbedEach):
    """Pure-function embedder: normalized sum of per-token sign vectors.

    Each token is hashed to a 64-bit seed; the seed expands through the
    package's Philox noise generator into a dim-length vector of
    +-1/sqrt(dim) entries. The output is the L2-normalized sum over
    tokens (with multiplicity), rounded to float32. No dependence on
    process, time, or locale.
    """

    def __init__(self, dim: int = 768, model_id: str | None = None):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.model_id = model_id or f"pseudo-{dim}"
        self._token_cache: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            u = rekeyed_philox(stable_hash64(token)).random(self.dim)
            signs = np.where(u < 0.5, 1.0, -1.0)
            vec = signs / np.sqrt(self.dim)
            vec.setflags(write=False)
            self._token_cache[token] = vec
        return vec

    def embed(self, text: TextLike) -> DenseEmbedding:
        raw = _require_nonempty(text)
        tokens = tokenize(raw) or [raw.strip()]
        total = np.zeros(self.dim)
        for tok in tokens:
            total += self._token_vector(tok)
        norm = np.linalg.norm(total)
        if norm > 0:
            total /= norm
        return DenseEmbedding(values=total.astype(np.float32), model_id=self.model_id,
                              dim=self.dim)


# -- file-backed cache ---------------------------------------------------------

class EmbeddingCacheFile:
    """Streaming reader/writer for the binary embedding cache format.

    Layout: 8-byte magic ``BSEMB\\x00\\x00\\x01``, uint32 LE dim, uint32 LE
    record count, then per record: uint32 LE key length, UTF-8 key bytes,
    dim float32 LE values. Keys are content hashes and must be unique.
    A file that breaks this layout (truncated, a zero dim, a non-UTF-8 or
    repeated key, bytes after the last record) raises CorruptPayload.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.dim, self.count = self._read_header()
        self._offsets: dict[str, int] | None = None

    @classmethod
    def create(cls, path: str | Path, dim: int) -> "EmbeddingCacheFile":
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(_HEADER.pack(dim, 0))
        return cls(path)

    def _read_header(self) -> tuple[int, int]:
        with open(self.path, "rb") as fh:
            magic = fh.read(len(CACHE_MAGIC))
            if magic != CACHE_MAGIC:
                raise CorruptPayload(f"{self.path}: bad cache magic {magic!r}")
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise CorruptPayload(f"{self.path}: truncated cache header")
            dim, count = _HEADER.unpack(header)
            if dim == 0:
                raise CorruptPayload(f"{self.path}: cache header gives dim 0")
            return dim, count

    def iter_records(self) -> Iterable[tuple[str, np.ndarray]]:
        """Stream (key, float32 values) in file order without loading the
        whole file."""
        with open(self.path, "rb") as fh:
            for key, offset in self._index().items():
                fh.seek(offset)
                yield key, np.frombuffer(fh.read(self.dim * 4), dtype="<f4")

    def _index(self) -> dict[str, int]:
        """Key -> offset of its values, from one walk over the record
        headers that checks every length against the file size."""
        if self._offsets is None:
            offsets: dict[str, int] = {}
            pos = len(CACHE_MAGIC) + _HEADER.size
            vec_bytes = self.dim * 4
            with open(self.path, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                for i in range(self.count):
                    fh.seek(pos)
                    raw = fh.read(_KEYLEN.size)
                    if len(raw) != _KEYLEN.size:
                        raise CorruptPayload(f"{self.path}: truncated record {i}")
                    (key_len,) = _KEYLEN.unpack(raw)
                    offset = pos + _KEYLEN.size + key_len
                    if offset + vec_bytes > size:
                        raise CorruptPayload(f"{self.path}: truncated record {i}")
                    try:
                        key = fh.read(key_len).decode("utf-8")
                    except UnicodeDecodeError:
                        raise CorruptPayload(
                            f"{self.path}: key of record {i} is not UTF-8") from None
                    if key in offsets:
                        raise CorruptPayload(f"{self.path}: repeated key {key}")
                    offsets[key] = offset
                    pos = offset + vec_bytes
            if pos != size:
                raise CorruptPayload(
                    f"{self.path}: {size - pos} trailing bytes after {self.count} records")
            self._offsets = offsets
        return self._offsets

    def keys(self) -> set[str]:
        return set(self._index())

    def get(self, key: str) -> np.ndarray:
        offset = self._index().get(key)
        if offset is None:
            raise MissingEmbedding(key)
        with open(self.path, "rb") as fh:
            fh.seek(offset)
            return np.frombuffer(fh.read(self.dim * 4), dtype="<f4")

    def append(self, records: Iterable[tuple[str, np.ndarray]]) -> int:
        """Append records with fresh keys; returns how many were written."""
        existing = self._index()
        written = 0
        with open(self.path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            for key, values in records:
                if key in existing:
                    continue
                values = np.asarray(values, dtype="<f4").reshape(-1)
                if values.size != self.dim:
                    raise CorruptPayload(
                        f"record for {key} has {values.size} values, cache dim {self.dim}")
                key_bytes = key.encode("utf-8")
                offset = fh.tell() + _KEYLEN.size + len(key_bytes)
                fh.write(_KEYLEN.pack(len(key_bytes)))
                fh.write(key_bytes)
                fh.write(values.tobytes())
                existing[key] = offset
                written += 1
            self.count += written
            fh.seek(len(CACHE_MAGIC))
            fh.write(_HEADER.pack(self.dim, self.count))
        return written


def build_cache(texts: Iterable[TextLike], source_provider,
                cache_path: str | Path, dim: int | None = None) -> dict[str, int]:
    """Materialize embeddings for every distinct text into a cache file.

    Idempotent: re-running over the same inputs appends nothing and leaves
    the file byte-identical. Every text is embedded before the file is
    created or changed. Returns {"written": n, "skipped": m}.
    """
    dim = dim or source_provider.dim
    cache_path = Path(cache_path)
    cache = EmbeddingCacheFile(cache_path) if cache_path.exists() else None
    if cache is not None and cache.dim != dim:
        raise CorruptPayload(
            f"{cache_path}: cache dim {cache.dim} does not match provider dim {dim}")
    seen = cache.keys() if cache is not None else set()
    pending: list[tuple[str, np.ndarray]] = []
    skipped = 0
    for text in texts:
        key = content_key(text)
        if key in seen:
            skipped += 1
            continue
        seen.add(key)
        emb = source_provider.embed(text)
        pending.append((key, emb.values.astype("<f4")))
    if cache is None:
        cache = EmbeddingCacheFile.create(cache_path, dim)
    written = cache.append(pending) if pending else 0
    return {"written": written, "skipped": skipped}


class FileCacheProvider(_EmbedEach):
    """Serves embeddings from a prebuilt cache; misses are explicit errors."""

    def __init__(self, config: ProviderConfig):
        if config.kind is not ProviderKind.FILE_CACHE:
            raise ValueError("FileCacheProvider requires a FILE_CACHE config")
        self.config = config
        self._cache = EmbeddingCacheFile(config.cache_path)
        if self._cache.dim != config.dim:
            raise CorruptPayload(
                f"{config.cache_path}: cache dim {self._cache.dim} "
                f"does not match configured dim {config.dim}")
        self.dim = config.dim
        self.model_id = config.model_id

    def embed(self, text: TextLike) -> DenseEmbedding:
        _require_nonempty(text)
        values = self._cache.get(content_key(text))
        return DenseEmbedding(values=values, model_id=self.model_id, dim=self.dim)


# -- remote HTTP client --------------------------------------------------------

Transport = Callable[[str, bytes, dict[str, str], float], tuple[int, bytes]]


def _urllib_transport(url: str, body: bytes, headers: dict[str, str],
                      timeout: float) -> tuple[int, bytes]:
    req = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()
    except (urllib.error.URLError, TimeoutError, OSError) as exc:
        raise EmbeddingTransportError(f"transport failure: {exc}", retryable=True)


class RemoteHttpProvider:
    """Client for embedding endpoints speaking the common JSON convention:
    POST {"model": ..., "input": [texts]} -> {"data": [{"embedding": [...]}]}.

    Accepts only :class:`RedactedPrompt` inputs — raw strings are rejected
    at the boundary so pre-redaction text can never leave the process.
    Requests are sent one chunk of ``MAX_BATCH`` texts at a time (in-flight
    bound of 1); retries: 3 attempts with exponential backoff from 250 ms
    on transport errors and 429/5xx statuses.
    """

    MAX_ATTEMPTS = 3
    BACKOFF_S = 0.25
    MAX_BATCH = 100
    REQUEST_TIMEOUT_S = 30.0

    def __init__(self, config: ProviderConfig, transport: Transport | None = None,
                 sleeper: Callable[[float], None] = time.sleep):
        if config.kind is not ProviderKind.REMOTE_HTTP:
            raise ValueError("RemoteHttpProvider requires a REMOTE_HTTP config")
        self.config = config
        self.dim = config.dim
        self.model_id = config.model_id
        self._transport = transport or _urllib_transport
        self._sleeper = sleeper

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env_var:
            key = os.environ.get(self.config.api_key_env_var, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post_chunk(self, texts: list[str]) -> list[DenseEmbedding]:
        body = json.dumps({"model": self.model_id, "input": texts}).encode("utf-8")
        last_error: EmbeddingTransportError | None = None
        for attempt in range(1, self.MAX_ATTEMPTS + 1):
            try:
                status, payload = self._transport(
                    self.config.endpoint_url, body, self._headers(),
                    self.REQUEST_TIMEOUT_S)
            except EmbeddingTransportError as exc:
                last_error = EmbeddingTransportError(
                    str(exc), attempts=attempt, retryable=True)
            else:
                if 200 <= status < 300:
                    return self._parse(payload, len(texts))
                retryable = status == 429 or 500 <= status < 600
                last_error = EmbeddingTransportError(
                    f"endpoint returned HTTP {status}", status=status,
                    attempts=attempt, retryable=retryable)
                if not retryable:
                    raise last_error
            if attempt < self.MAX_ATTEMPTS:
                self._sleeper(self.BACKOFF_S * (2 ** (attempt - 1)))
        raise last_error

    def _parse(self, payload: bytes, expected: int) -> list[DenseEmbedding]:
        """The embeddings of a 2xx reply body, in input order. Any fault in
        the body raises ``EmbeddingTransportError``."""
        try:
            obj = json.loads(payload)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep
            raise EmbeddingTransportError(f"malformed response body: {exc}") from None
        items = obj.get("data") if isinstance(obj, dict) else None
        if not (isinstance(items, list)
                and all(isinstance(item, dict) for item in items)):
            raise EmbeddingTransportError(
                "malformed response body: 'data' must be a list of objects")
        if len(items) != expected:
            raise EmbeddingTransportError(
                f"response has {len(items)} embeddings for {expected} inputs")
        if any("index" in item for item in items):
            indexes = [item.get("index") for item in items]
            if not (all(type(i) is int for i in indexes)
                    and sorted(indexes) == list(range(expected))):
                raise EmbeddingTransportError(
                    "malformed response body: 'index' values must be 0..n-1")
            items = sorted(items, key=lambda item: item["index"])
        embeddings = []
        for item in items:
            values = item.get("embedding")
            if not (isinstance(values, list)
                    and all(type(v) in (int, float) for v in values)):
                raise EmbeddingTransportError(
                    "malformed response body: 'embedding' must be a list of numbers")
            try:
                arr = np.asarray(values, dtype=np.float64)
                if (np.abs(arr) > np.finfo(np.float32).max).any():
                    raise ValueError("embedding value beyond the float32 range")
                embeddings.append(DenseEmbedding(
                    values=arr.astype(np.float32),
                    model_id=self.model_id, dim=self.dim))
            except (ValueError, OverflowError) as exc:
                raise EmbeddingTransportError(
                    f"malformed response body: {exc}") from None
        return embeddings

    def _check_input(self, text: TextLike) -> str:
        if not isinstance(text, RedactedPrompt):
            raise TypeError(
                "remote provider accepts only RedactedPrompt values; "
                "redact before embedding")
        return _require_nonempty(text)

    def embed(self, text: TextLike) -> DenseEmbedding:
        return self.embed_batch([text])[0]

    def embed_batch(self, texts: Sequence[TextLike]) -> list[DenseEmbedding]:
        if not texts:
            raise ValueError("embed_batch requires at least one text")
        raws = [self._check_input(t) for t in texts]
        out: list[DenseEmbedding] = []
        size = self.MAX_BATCH
        for i in range(0, len(raws), size):
            chunk = raws[i:i + size]
            try:
                vectors = self._post_chunk(chunk)
            except EmbeddingTransportError as exc:
                raise EmbeddingTransportError(
                    f"batch chunk {i // size} (inputs {i}..{i + len(chunk) - 1}) "
                    f"failed: {exc}", status=exc.status, attempts=exc.attempts,
                    retryable=exc.retryable) from exc
            out.extend(vectors)
        return out


def make_provider(config: ProviderConfig, transport: Transport | None = None):
    if config.kind is ProviderKind.PSEUDO:
        return PseudoEmbedder(dim=config.dim, model_id=config.model_id)
    if config.kind is ProviderKind.FILE_CACHE:
        return FileCacheProvider(config)
    return RemoteHttpProvider(config, transport=transport)
