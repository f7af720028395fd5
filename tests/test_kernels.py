import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from binaryshield import kernels

from conftest import naive_hamming_bits, naive_popcount


def _pack(value: int, dim: int) -> bytes:
    bits = np.array([(value >> i) & 1 for i in range(dim)], dtype=np.uint8)
    return np.packbits(bits, bitorder="little").tobytes()


def _corpus(payloads: list[bytes]) -> np.ndarray:
    rows = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    return kernels.rows_to_words(rows.reshape(len(payloads), -1))


def test_active_backend_is_numpy():
    assert kernels.active_backend() == "numpy"


def test_scan_matches_popcount_exhaustively():
    # every possible packed value per width, checked against bin().count
    for dim in range(1, 17):
        corpus = _corpus([_pack(value, dim) for value in range(1 << dim)])
        got = kernels.scan_distances(corpus, kernels.bytes_to_words(_pack(0, dim)))
        assert got.tolist() == [naive_popcount(value) for value in range(1 << dim)]


def test_scan_all_pairs_small_dims():
    for dim in (3, 5, 8):
        payloads = [_pack(v, dim) for v in range(1 << dim)]
        corpus = _corpus(payloads)
        for a in range(1 << dim):
            got = kernels.scan_distances(corpus, kernels.bytes_to_words(payloads[a]))
            assert got.tolist() == [naive_popcount(a ^ b) for b in range(1 << dim)]


def test_random_768_pairs_match_bit_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    pairs = []
    for _ in range(300):
        a = np.packbits(rng.integers(0, 2, 768, dtype=np.uint8),
                        bitorder="little").tobytes()
        b = np.packbits(rng.integers(0, 2, 768, dtype=np.uint8),
                        bitorder="little").tobytes()
        pairs.append((a, b))
    # row i of the corpus is the left side of pair i
    corpus = _corpus([a for a, _ in pairs])
    for i, (a, b) in enumerate(pairs):
        got = kernels.scan_distances(corpus, kernels.bytes_to_words(b))
        assert got[i] == naive_hamming_bits(a, b, 768)


def test_scan_matches_per_pair_loop():
    rng = np.random.Generator(np.random.Philox(key=12))
    rows = np.packbits(rng.integers(0, 2, (500, 768), dtype=np.uint8),
                       axis=1, bitorder="little")
    corpus = kernels.rows_to_words(rows)
    query_bytes = np.packbits(rng.integers(0, 2, 768, dtype=np.uint8),
                              bitorder="little").tobytes()
    query = kernels.bytes_to_words(query_bytes)
    got = kernels.scan_distances(corpus, query)
    expected = [naive_hamming_bits(rows[i].tobytes(), query_bytes, 768)
                for i in range(rows.shape[0])]
    assert got.tolist() == expected


def test_scan_wider_than_uint16_counts():
    # 1,100 words = 70,400 bits: an all-ones row is further from the zero
    # query than a 16-bit count can hold.
    dim = 1100 * 64
    rng = np.random.Generator(np.random.Philox(key=14))
    rows = np.packbits(rng.integers(0, 2, (6, dim), dtype=np.uint8),
                       axis=1, bitorder="little")
    rows[0] = 0xFF
    query_bytes = bytes(rows.shape[1])
    got = kernels.scan_distances(kernels.rows_to_words(rows),
                                 kernels.bytes_to_words(query_bytes))
    expected = [naive_hamming_bits(r.tobytes(), query_bytes, dim) for r in rows]
    assert expected[0] == dim
    assert got.dtype == np.int64
    assert got.tolist() == expected


def test_scan_row_major_corpus_matches_column_major():
    rng = np.random.Generator(np.random.Philox(key=15))
    rows = np.packbits(rng.integers(0, 2, (300, 200), dtype=np.uint8),
                       axis=1, bitorder="little")
    query_bytes = np.packbits(rng.integers(0, 2, 200, dtype=np.uint8),
                              bitorder="little").tobytes()
    query = kernels.bytes_to_words(query_bytes)
    column_major = kernels.rows_to_words(rows)
    row_major = np.ascontiguousarray(column_major)
    assert column_major.flags.f_contiguous and row_major.flags.c_contiguous
    expected = [naive_hamming_bits(r.tobytes(), query_bytes, 200) for r in rows]
    assert kernels.scan_distances(column_major, query).tolist() == expected
    assert kernels.scan_distances(row_major, query).tolist() == expected


def test_words_layout_pads_to_word_boundary():
    row = kernels.bytes_to_words(b"\xff")  # 8 set bits, padded to one word
    assert row.shape == (1,)
    assert int(np.bitwise_count(row).sum()) == 8
    rows = kernels.rows_to_words(np.full((3, 9), 0xFF, dtype=np.uint8))
    assert rows.shape == (3, 2)


def test_scan_shape_validation():
    corpus = np.zeros((4, 2), dtype=np.uint64)
    with pytest.raises(ValueError, match="width mismatch"):
        kernels.scan_distances(corpus, np.zeros(3, dtype=np.uint64))
    with pytest.raises(ValueError):
        kernels.rows_to_words(np.zeros(4, dtype=np.uint8))


# -- the split scan -------------------------------------------------------------

T = kernels._SPLIT_ROWS


@pytest.fixture()
def two_cpus(monkeypatch):
    """Take the split path wherever the row count allows, whatever the
    CPU affinity of the test run."""
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)


def _reference(corpus: np.ndarray, query: np.ndarray) -> np.ndarray:
    """One thread, one pass: the distances the split scan must give, in
    the dtype it must give them: uint16 up to 1,023 words, int64 beyond."""
    distances = np.bitwise_count(corpus ^ query).sum(axis=1, dtype=np.int64)
    return distances.astype(np.uint16) if corpus.shape[1] <= 1023 else distances


def _random_words(n: int, w: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = rng.integers(0, 1 << 64, (w, n + 1), dtype=np.uint64, endpoint=False)
    return np.asfortranarray(words[:, 1:].T), words[:, 0].copy()


def _helper_running() -> bool:
    return any(t.name == "binaryshield-scan" for t in threading.enumerate())


@pytest.mark.parametrize("w", [1, 12, 13])
@pytest.mark.parametrize("n", [0, 1, T - 1, T, T + 1, 3 * T // 2 + 7])
def test_split_scan_equals_one_thread(two_cpus, n, w):
    corpus, query = _random_words(n, w, seed=n + w)
    got = kernels.scan_distances(corpus, query)
    assert got.dtype == np.uint16
    assert got.tobytes() == _reference(corpus, query).tobytes()
    if n >= T:
        assert _helper_running()


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 23])
def test_split_scan_int64_accumulator(two_cpus, monkeypatch, n):
    monkeypatch.setattr(kernels, "_SPLIT_ROWS", 8)
    w = 1025                        # 64 * w > 0xFFFF: int64 accumulator
    corpus, query = _random_words(n, w, seed=40 + n)
    corpus[:1] = ~query             # a row at distance 64 * w
    got = kernels.scan_distances(corpus, query)
    assert got.tobytes() == _reference(corpus, query).tobytes()
    assert n == 0 or got[0] == 64 * w


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("w, dtype", [(1023, np.uint16), (1024, np.int64)])
def test_accumulator_dtype_boundary(two_cpus, monkeypatch, split, w, dtype):
    # 1,023 words is the widest corpus whose 64 * w bits fit in uint16.
    monkeypatch.setattr(kernels, "_SPLIT_ROWS", 2 if split else 1 << 30)
    corpus = np.zeros((3, w), dtype=np.uint64, order="F")
    corpus[1] = ~np.uint64(0)       # all ones: distance 64 * w
    got = kernels.scan_distances(corpus, np.zeros(w, dtype=np.uint64))
    assert got.dtype == dtype
    assert got.tolist() == [0, 64 * w, 0]       # 65,472 at 1,023 words


def test_split_scan_of_a_store_view(two_cpus, monkeypatch):
    monkeypatch.setattr(kernels, "_SPLIT_ROWS", 64)
    from binaryshield.store import FingerprintStore, StoredFingerprint
    rng = np.random.Generator(np.random.Philox(key=16))
    rows = np.packbits(rng.integers(0, 2, (301, 768), dtype=np.uint8),
                       axis=1, bitorder="little")
    store = FingerprintStore(dim=768)
    for i, row in enumerate(rows):
        store.insert(StoredFingerprint(id=f"e{i}", bits=row.tobytes(), dim=768))
    view = store.word_matrix()
    assert view.shape == (301, 12) and store._words.shape[1] == 512
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    query = kernels.bytes_to_words(rows[0].tobytes())
    got = kernels.scan_distances(view, query)
    assert got.tobytes() == _reference(view, query).tobytes()


def test_one_usable_cpu_stays_on_one_thread(monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(kernels, "_split_scan", None)   # a call would fail
    corpus, query = _random_words(T + 1, 12, seed=17)
    assert kernels.scan_distances(corpus, query).tolist() == \
        _reference(corpus, query).tolist()


def test_usable_cpus_follows_affinity():
    if hasattr(os, "sched_getaffinity"):
        assert kernels._usable_cpus() == len(os.sched_getaffinity(0))
    assert kernels._usable_cpus() >= 1


def test_helper_error_reaches_the_caller(two_cpus, monkeypatch):
    corpus, query = _random_words(2 * T, 12, seed=18)
    kernels.scan_distances(corpus, query)                # helper running
    caller = threading.get_ident()
    helper_started = threading.Event()
    scan_into = kernels._scan_into

    def failing_off_caller(corpus_words, query_words, acc, stop=None):
        if threading.get_ident() != caller:
            helper_started.set()
            raise MemoryError("helper")
        assert helper_started.wait(timeout=30)
        return scan_into(corpus_words, query_words, acc, stop)

    monkeypatch.setattr(kernels, "_scan_into", failing_off_caller)
    with pytest.raises(MemoryError, match="helper"):
        kernels.scan_distances(corpus, query)
    monkeypatch.setattr(kernels, "_scan_into", scan_into)
    assert kernels.scan_distances(corpus, query).tolist() == \
        _reference(corpus, query).tolist()


def test_stalled_helper_leaves_the_caller_scanning(two_cpus, monkeypatch):
    corpus, query = _random_words(2 * T, 12, seed=20)
    kernels.scan_distances(corpus, query)                # helper running
    caller = threading.get_ident()
    caller_done, helper_done = threading.Event(), threading.Event()
    helper_finished = []
    own_stops = []      # the warm-up scan's job may still be queued; skip it
    scan_into = kernels._scan_into

    def stalled_off_caller(corpus_words, query_words, acc, stop=None):
        if threading.get_ident() == caller:
            own_stops.append(stop)
            return scan_into(corpus_words, query_words, acc, stop)
        caller_done.wait(timeout=30)
        finished = scan_into(corpus_words, query_words, acc, stop)
        if any(stop is own for own in own_stops):
            helper_finished.append(finished)
            helper_done.set()
        return finished

    monkeypatch.setattr(kernels, "_scan_into", stalled_off_caller)
    got = kernels.scan_distances(corpus, query)
    caller_done.set()
    assert got.tobytes() == _reference(corpus, query).tobytes()
    assert helper_done.wait(timeout=30)
    assert helper_finished == [False]                   # it gave up at once


def _scan_in_child(corpus: np.ndarray, query: np.ndarray) -> None:
    ok = (kernels.scan_distances(corpus, query).tobytes()
          == _reference(corpus, query).tobytes())
    sys.exit(0 if ok and _helper_running() else 1)


def test_forked_child_starts_its_own_helper(two_cpus):
    corpus, query = _random_words(2 * T, 12, seed=19)
    kernels.scan_distances(corpus, query)
    assert _helper_running()
    child = multiprocessing.get_context("fork").Process(
        target=_scan_in_child, args=(corpus, query))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join(timeout=10)
    assert not hung
    assert child.exitcode == 0
