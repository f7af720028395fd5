import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaryshield.embeddings import (EmbeddingCacheFile, FileCacheProvider,
                                     ProviderConfig, ProviderKind, PseudoEmbedder,
                                     RemoteHttpProvider, build_cache, content_key,
                                     make_provider)
from binaryshield.errors import (CorruptPayload, EmbeddingTransportError,
                                 MissingEmbedding)
from binaryshield.fingerprint import hamming, quantize
from binaryshield.redaction import RedactedPrompt


def _redacted(text: str) -> RedactedPrompt:
    return RedactedPrompt(text=text, entity_counts={}, original_length=len(text))


class TestPseudoEmbedder:
    def test_bitwise_deterministic(self, pseudo768):
        a = pseudo768.embed("abc")
        b = pseudo768.embed("abc")
        assert np.array_equal(a.values, b.values)
        assert a.model_id == b.model_id == "pseudo-768"

    def test_different_texts_differ(self, pseudo768):
        assert not np.array_equal(pseudo768.embed("abc").values,
                                  pseudo768.embed("abd").values)

    def test_random_pairs_agree_on_half_the_signs(self, pseudo768):
        # unrelated single-token texts give independent sign patterns, so
        # quantized distance ~ Binomial(768, 1/2)
        rng = np.random.Generator(np.random.Philox(key=5))
        dists = []
        for _ in range(300):
            a = "tok" + str(rng.integers(10**12))
            b = "tok" + str(rng.integers(10**12))
            dists.append(hamming(quantize(pseudo768.embed(a)),
                                 quantize(pseudo768.embed(b))))
        stderr = 13.86 / np.sqrt(len(dists))
        assert abs(np.mean(dists) - 384) <= 4 * stderr

    def test_token_overlap_orders_distance(self, pseudo768):
        # 0/25/50/75/100% shared tokens -> strictly decreasing mean distance
        rng = np.random.Generator(np.random.Philox(key=6))
        means = []
        for replaced in (20, 15, 10, 5, 0):
            dists = []
            for _ in range(30):
                base = [f"w{int(rng.integers(10**9))}" for _ in range(20)]
                other = list(base)
                for i in rng.choice(20, size=replaced, replace=False):
                    other[int(i)] = f"x{int(rng.integers(10**9))}"
                dists.append(hamming(quantize(pseudo768.embed(" ".join(base))),
                                     quantize(pseudo768.embed(" ".join(other)))))
            means.append(np.mean(dists))
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[-1] == 0.0

    def test_accepts_redacted_prompt(self, pseudo768):
        raw = pseudo768.embed("hello world")
        red = pseudo768.embed(_redacted("hello world"))
        assert np.array_equal(raw.values, red.values)

    def test_token_order_irrelevant(self, pseudo768):
        a = pseudo768.embed("alpha beta gamma")
        b = pseudo768.embed("gamma alpha beta")
        assert np.array_equal(a.values, b.values)

    def test_empty_text_rejected(self, pseudo768):
        with pytest.raises(ValueError, match="empty"):
            pseudo768.embed("   ")

    def test_batch_order_and_validation(self, pseudo768):
        texts = ["one", "two", "three"]
        out = pseudo768.embed_batch(texts)
        assert [np.array_equal(e.values, pseudo768.embed(t).values)
                for e, t in zip(out, texts)] == [True, True, True]
        with pytest.raises(ValueError):
            pseudo768.embed_batch([])


class TestCacheFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "c.bsemb"
        EmbeddingCacheFile.create(path, dim=4)
        cache = EmbeddingCacheFile(path)
        values = np.array([0.25, -1.5, 3.125, 0.0], dtype="<f4")
        cache.append([("k1", values)])
        got = EmbeddingCacheFile(path).get("k1")
        assert got.tobytes() == values.tobytes()

    def test_missing_key_error_carries_key(self, tmp_path):
        path = tmp_path / "c.bsemb"
        EmbeddingCacheFile.create(path, dim=4)
        with pytest.raises(MissingEmbedding) as err:
            EmbeddingCacheFile(path).get("absent")
        assert err.value.key == "absent"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bsemb"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(CorruptPayload, match="magic"):
            EmbeddingCacheFile(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "c.bsemb"
        EmbeddingCacheFile.create(path, dim=4)
        EmbeddingCacheFile(path).append([("key", np.zeros(4, dtype="<f4"))])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(CorruptPayload, match="truncated"):
            list(EmbeddingCacheFile(path).iter_records())

    def test_streaming_matches_index(self, tmp_path):
        path = tmp_path / "c.bsemb"
        EmbeddingCacheFile.create(path, dim=2)
        rows = [(f"k{i}", np.array([i, -i], dtype="<f4")) for i in range(20)]
        EmbeddingCacheFile(path).append(rows)
        cache = EmbeddingCacheFile(path)
        streamed = {k: v.tobytes() for k, v in cache.iter_records()}
        assert streamed == {k: v.tobytes() for k, v in rows}


class TestCacheFileCorruption:
    """A damaged cache fails with CorruptPayload from every reader, never a
    bare struct or Unicode error, and is never silently accepted."""

    @pytest.fixture()
    def cache(self, tmp_path):
        path = tmp_path / "c.bsemb"
        build_cache(["alpha", "beta"], PseudoEmbedder(dim=8), path)
        return path, path.read_bytes()

    @staticmethod
    def _assert_every_reader_rejects(path):
        readers = (lambda c: c.keys(), lambda c: c.get(content_key("alpha")),
                   lambda c: list(c.iter_records()))
        for read in readers:
            with pytest.raises(CorruptPayload):
                read(EmbeddingCacheFile(path))

    def test_two_records_of_dim_8(self, cache):
        path, data = cache
        assert len(data) == 16 + 2 * (4 + 64 + 8 * 4) == 216
        assert EmbeddingCacheFile(path).keys() == {content_key("alpha"),
                                                    content_key("beta")}

    def test_every_truncation_rejected(self, cache):
        path, data = cache
        for n in range(len(data)):
            path.write_bytes(data[:n])
            self._assert_every_reader_rejects(path)
            with pytest.raises(CorruptPayload):
                build_cache(["gamma"], PseudoEmbedder(dim=8), path)
            assert path.read_bytes() == data[:n]

    def test_trailing_byte_rejected(self, cache):
        path, data = cache
        path.write_bytes(data + b"\x00")
        self._assert_every_reader_rejects(path)

    def test_non_utf8_key_rejected(self, cache):
        path, data = cache
        path.write_bytes(data[:20] + b"\xff" + data[21:])
        self._assert_every_reader_rejects(path)

    def test_repeated_key_rejected(self, cache):
        path, data = cache
        first = data[16:116]
        path.write_bytes(data[:16] + first + first)
        self._assert_every_reader_rejects(path)

    def test_dim_0_header_rejected(self, tmp_path):
        path = tmp_path / "c.bsemb"
        path.write_bytes(b"BSEMB\x00\x00\x01" + b"\x00" * 8)
        with pytest.raises(CorruptPayload, match="dim 0"):
            EmbeddingCacheFile(path)


def _valid_cache() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bsemb"
        build_cache(["alpha", "beta"], PseudoEmbedder(dim=8), path)
        return path.read_bytes()


VALID_CACHE = _valid_cache()


def _read_every_way(data: bytes) -> None:
    """Open ``data`` as a cache through every reader and through
    build_cache, each on its own copy; only CorruptPayload and
    MissingEmbedding may escape, and those are swallowed."""
    readers = (lambda p: EmbeddingCacheFile(p).keys(),
               lambda p: EmbeddingCacheFile(p).get(content_key("alpha")),
               lambda p: list(EmbeddingCacheFile(p).iter_records()),
               lambda p: build_cache(["alpha", "gamma"], PseudoEmbedder(dim=8), p))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.bsemb"
        for read in readers:
            path.write_bytes(data)
            try:
                read(path)
            except (CorruptPayload, MissingEmbedding):
                pass


class TestCacheFileFuzz:
    @given(st.one_of(st.binary(max_size=300),
                     st.binary(max_size=300).map(lambda b: VALID_CACHE[:8] + b),
                     st.binary(max_size=300).map(lambda b: VALID_CACHE[:16] + b)))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_raise_only_typed_errors(self, data):
        _read_every_way(data)

    @given(st.integers(0, len(VALID_CACHE) - 1), st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_single_byte_mutation_raises_only_typed_errors(self, at, value):
        data = bytearray(VALID_CACHE)
        data[at] = value
        _read_every_way(bytes(data))


class TestBuildCache:
    def test_duplicate_texts_stored_once(self, tmp_path, pseudo768):
        path = tmp_path / "c.bsemb"
        stats = build_cache(["aaa", "bbb", "aaa"], pseudo768, path)
        assert stats == {"written": 2, "skipped": 1}
        assert EmbeddingCacheFile(path).count == 2

    def test_rerun_is_byte_identical(self, tmp_path, pseudo768):
        path = tmp_path / "c.bsemb"
        texts = ["alpha", "beta", "gamma"]
        build_cache(texts, pseudo768, path)
        digest1 = hashlib.sha256(path.read_bytes()).hexdigest()
        stats = build_cache(texts, pseudo768, path)
        assert stats["written"] == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest1

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_text_leaves_no_file_and_changes_none(self, tmp_path,
                                                         pseudo768, existing):
        path = tmp_path / "c.bsemb"
        if existing:
            build_cache(["alpha"], pseudo768, path)
        before = path.read_bytes() if existing else None
        with pytest.raises(ValueError, match="empty text"):
            build_cache(["beta", "  ", "gamma"], pseudo768, path)
        assert (path.read_bytes() if path.exists() else None) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            (["c.bsemb"] if existing else [])

    def test_dim_mismatch_on_open(self, tmp_path, pseudo768):
        path = tmp_path / "c.bsemb"
        EmbeddingCacheFile.create(path, dim=16)
        with pytest.raises(CorruptPayload, match="dim"):
            build_cache(["x"], pseudo768, path)

    def test_content_key_is_sha256_of_text(self):
        assert content_key("abc") == hashlib.sha256(b"abc").hexdigest()
        assert content_key(_redacted("abc")) == content_key("abc")


class TestFileCacheProvider:
    def _provider(self, tmp_path, pseudo768, texts):
        path = tmp_path / "c.bsemb"
        build_cache(texts, pseudo768, path)
        config = ProviderConfig(kind=ProviderKind.FILE_CACHE, dim=768,
                                model_id="cached", cache_path=path)
        return FileCacheProvider(config)

    def test_returns_stored_floats_exactly(self, tmp_path, pseudo768):
        provider = self._provider(tmp_path, pseudo768, ["stored text"])
        direct = pseudo768.embed("stored text").values.astype("<f4")
        got = provider.embed("stored text")
        assert got.values.astype("<f4").tobytes() == direct.tobytes()
        assert got.model_id == "cached"

    def test_miss_raises(self, tmp_path, pseudo768):
        provider = self._provider(tmp_path, pseudo768, ["present"])
        with pytest.raises(MissingEmbedding):
            provider.embed("absent")


def _ok_body(vectors):
    return json.dumps({"data": [{"index": i, "embedding": list(map(float, v))}
                                for i, v in enumerate(vectors)]}).encode()


class CountingTransport:
    def __init__(self, dim, fail_statuses=()):
        self.dim = dim
        self.calls = []
        self.fail_statuses = list(fail_statuses)

    def __call__(self, url, body, headers, timeout):
        payload = json.loads(body)
        self.calls.append({"url": url, "n": len(payload["input"]),
                           "headers": dict(headers)})
        if self.fail_statuses:
            return self.fail_statuses.pop(0), b"upstream error"
        return 200, _ok_body([[0.5] * self.dim] * len(payload["input"]))


def _remote(dim=8, transport=None, sleeps=None, api_key_env=None):
    config = ProviderConfig(kind=ProviderKind.REMOTE_HTTP, dim=dim,
                            model_id="remote-model",
                            endpoint_url="https://embed.example/v1",
                            api_key_env_var=api_key_env)
    recorded = sleeps if sleeps is not None else []
    return RemoteHttpProvider(config, transport=transport,
                              sleeper=recorded.append), recorded


class TestRemoteProvider:
    def test_batch_chunking_exact_request_count(self):
        transport = CountingTransport(dim=8)
        provider, _ = _remote(transport=transport)
        texts = [_redacted(f"t{i}") for i in range(250)]
        out = provider.embed_batch(texts)
        assert len(out) == 250
        assert [c["n"] for c in transport.calls] == [100, 100, 50]

    def test_single_embed_is_batch_of_one(self):
        transport = CountingTransport(dim=8)
        provider, _ = _remote(transport=transport)
        emb = provider.embed(_redacted("hello"))
        assert emb.dim == 8
        assert [c["n"] for c in transport.calls] == [1]

    def test_rejects_raw_strings_at_type_level(self):
        provider, _ = _remote(transport=CountingTransport(dim=8))
        with pytest.raises(TypeError, match="RedactedPrompt"):
            provider.embed("raw text")

    def test_retries_on_5xx_with_backoff(self):
        transport = CountingTransport(dim=8, fail_statuses=[500, 503])
        provider, sleeps = _remote(transport=transport)
        out = provider.embed_batch([_redacted("x")])
        assert len(out) == 1
        assert len(transport.calls) == 3
        assert sleeps == [0.25, 0.5]

    def test_gives_up_after_three_attempts(self):
        transport = CountingTransport(dim=8, fail_statuses=[500, 500, 500])
        provider, _ = _remote(transport=transport)
        with pytest.raises(EmbeddingTransportError) as err:
            provider.embed_batch([_redacted("x")])
        assert err.value.attempts == 3
        assert err.value.status == 500

    def test_non_retryable_status_fails_fast(self):
        transport = CountingTransport(dim=8, fail_statuses=[400])
        provider, _ = _remote(transport=transport)
        with pytest.raises(EmbeddingTransportError) as err:
            provider.embed_batch([_redacted("x")])
        assert len(transport.calls) == 1
        assert not err.value.retryable

    def test_wrong_vector_length_rejected(self):
        def transport(url, body, headers, timeout):
            return 200, _ok_body([[0.5] * 3])
        provider, _ = _remote(dim=8, transport=transport)
        with pytest.raises(EmbeddingTransportError, match="length"):
            provider.embed(_redacted("x"))

    def test_malformed_body_rejected(self):
        provider, _ = _remote(transport=lambda *a: (200, b"not json"))
        with pytest.raises(EmbeddingTransportError, match="malformed"):
            provider.embed(_redacted("x"))

    def test_bearer_header_from_env(self, monkeypatch):
        monkeypatch.setenv("EMBED_KEY", "sk-test-123")
        transport = CountingTransport(dim=8)
        provider, _ = _remote(transport=transport, api_key_env="EMBED_KEY")
        provider.embed(_redacted("x"))
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer sk-test-123"

    def test_failing_chunk_identified(self):
        transport = CountingTransport(dim=8, fail_statuses=[200, 404])

        def failing(url, body, headers, timeout):
            n = len(json.loads(body)["input"])
            if len(transport.calls) == 0:
                transport.calls.append({"n": n})
                return 200, _ok_body([[0.5] * 8] * n)
            return 404, b"gone"
        provider, _ = _remote(transport=failing)
        n = RemoteHttpProvider.MAX_BATCH + 10
        with pytest.raises(EmbeddingTransportError, match="chunk 1"):
            provider.embed_batch([_redacted(f"t{i}") for i in range(n)])


def _reply_provider(body: bytes):
    return _remote(dim=4, transport=lambda *a: (200, body))[0]


_TWO_ITEMS = {"data": [{"index": 0, "embedding": [0.5, -1, 2, 0]},
                       {"index": 1, "embedding": [-0.5, 1, -2, 3]}]}
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3), max_leaves=10)


class TestRemoteReplyParsing:
    """A 2xx reply body is untrusted input: it yields the embeddings or an
    EmbeddingTransportError, never a bare error or a coerced value."""

    def test_two_items_in_index_order(self):
        body = {"data": _TWO_ITEMS["data"][::-1]}
        out = _reply_provider(json.dumps(body).encode()).embed_batch(
            [_redacted("a"), _redacted("b")])
        assert [e.values.tolist() for e in out] == [[0.5, -1, 2, 0], [-0.5, 1, -2, 3]]

    @pytest.mark.parametrize("body", [
        b'{"data": 5}', b'{"data": [5]}', b'{"data": [{"index": 0}]}',
        b'{"data": [{"embedding": "abcd"}]}', b"\xff", b"[" * 100_000,
        b'{"data": [{"embedding": [[1], [2], [3], [4]]}]}',
        b'{"data": [{"embedding": ["1", "2", "3", "4"]}]}',
        b'{"data": [{"embedding": [true, false, true, false]}]}',
        b'{"data": [{"embedding": [1e300, 1, 1, 1]}]}',
        b'{"data": [{"embedding": [1' + b"0" * 400 + b', 1, 1, 1]}]}',
        b'{"data": [{"index": 1, "embedding": [1, 1, 1, 1]}]}',
        b'{"data": [{"index": true, "embedding": [1, 1, 1, 1]}]}',
    ], ids=["data_int", "item_int", "no_embedding", "embedding_str", "not_utf8",
            "deep", "nested", "strings", "booleans", "float32_overflow", "int400",
            "index_1", "index_bool"])
    @pytest.mark.filterwarnings("error")
    def test_malformed_reply_is_a_transport_error(self, body):
        with pytest.raises(EmbeddingTransportError, match="malformed"):
            _reply_provider(body).embed(_redacted("x"))

    def test_index_on_some_items_only_rejected(self):
        body = {"data": [_TWO_ITEMS["data"][0], {"embedding": [1, 1, 1, 1]}]}
        with pytest.raises(EmbeddingTransportError, match="index"):
            _reply_provider(json.dumps(body).encode()).embed_batch(
                [_redacted("a"), _redacted("b")])

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_any_bytes(self, body):
        try:
            out = _reply_provider(body).embed(_redacted("x"))
        except EmbeddingTransportError:
            return
        assert out.dim == 4 and np.isfinite(out.values).all()

    @given(st.sampled_from(["data", "item", "embedding", "index"]), _JSON_VALUES)
    @settings(max_examples=400)
    def test_any_json_value_in_any_position(self, position, value):
        body = json.loads(json.dumps(_TWO_ITEMS))
        if position == "data":
            body["data"] = value
        elif position == "item":
            body["data"][0] = value
        else:
            body["data"][0][position] = value
        try:
            out = _reply_provider(json.dumps(body).encode()).embed_batch(
                [_redacted("a"), _redacted("b")])
        except EmbeddingTransportError:
            return
        assert [e.dim for e in out] == [4, 4]
        if position == "embedding":
            assert out[0].values.tolist() == np.float32(value).tolist()
        if position == "index":
            assert value == 0 and type(value) is int


class TestProviderConfig:
    def test_remote_requires_endpoint(self):
        with pytest.raises(ValueError, match="endpoint_url"):
            ProviderConfig(kind=ProviderKind.REMOTE_HTTP, dim=8)

    def test_cache_requires_path(self):
        with pytest.raises(ValueError, match="cache_path"):
            ProviderConfig(kind=ProviderKind.FILE_CACHE, dim=8)

    def test_factory_builds_pseudo(self):
        provider = make_provider(ProviderConfig(kind=ProviderKind.PSEUDO, dim=32))
        assert isinstance(provider, PseudoEmbedder)
        assert provider.dim == 32
