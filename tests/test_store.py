import os
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaryshield.bench import (dense_scan_benchmark, efficiency_run,
                                make_random_store, random_bit_rows,
                                random_unit_rows, scan_benchmark)
from binaryshield.errors import CorruptPayload, DimensionMismatch
from binaryshield.fingerprint import pack_bits, unpack_bits
from binaryshield import kernels
from binaryshield import store as store_module
from binaryshield.store import (SNAPSHOT_MAGIC, FingerprintStore, MatchResult,
                                StoredFingerprint)

from conftest import naive_hamming_bits


def _fp(ident, bits, dim=None, **kw):
    data = pack_bits(bits) if isinstance(bits, (list, tuple)) else bits
    return StoredFingerprint(id=ident, bits=data, dim=dim or
                             (len(bits) if isinstance(bits, (list, tuple))
                              else len(data) * 8), **kw)


def _random_packed(dim, seed):
    return random_bit_rows(1, dim, seed)[0].tobytes()


def _flip_bits(data: bytes, dim: int, positions) -> bytes:
    bits = unpack_bits(data, dim).copy()
    for p in positions:
        bits[p] ^= 1
    return pack_bits(bits)


def oracle_sorted(store, query_bytes, dim):
    """Full-sort oracle over per-bit distances, ordered (distance, seq)."""
    rows = [(naive_hamming_bits(e.bits, query_bytes, dim), e.inserted_at, e.id)
            for e in store]
    rows.sort()
    return rows


class TestInsert:
    def test_insert_then_exact_search_finds_self(self):
        store = FingerprintStore()
        entry = _fp("a", [1, 0, 1, 0, 0, 0, 0, 1])
        store.insert(entry)
        results = store.search_threshold(entry.bits, tau=0)
        assert [r.id for r in results] == ["a"]
        assert results[0].distance == 0

    def test_duplicate_id_rejected_store_unchanged(self):
        store = FingerprintStore()
        store.insert(_fp("a", [1, 0, 0, 0]))
        with pytest.raises(ValueError, match="duplicate"):
            store.insert(_fp("a", [0, 1, 0, 0]))
        assert len(store) == 1
        assert store.get("a").bits == pack_bits([1, 0, 0, 0])

    def test_dim_fixed_by_first_insert(self):
        store = FingerprintStore()
        store.insert(_fp("a", [1] * 16))
        with pytest.raises(DimensionMismatch):
            store.insert(_fp("b", [1] * 8))

    def test_sequence_numbers_in_arrival_order(self):
        store = FingerprintStore()
        for i in range(5):
            assert store.insert(_fp(f"e{i}", [i % 2] * 8)) == i
        assert [e.inserted_at for e in store] == list(range(5))

    def test_bulk_payload_accounting(self):
        store = make_random_store(10_000, 768, seed=3)
        assert len(store) == 10_000
        assert store.payload_bytes() == 10_000 * 96

    def test_nonzero_padding_rejected(self):
        # dim 75 leaves 5 padding bits in the last byte; set, they would
        # count in every word-scan distance to this entry
        store = FingerprintStore()
        with pytest.raises(CorruptPayload, match="padding"):
            store.insert(StoredFingerprint(id="p", bits=b"\xff" * 10, dim=75))


def _entry75(ident, seed, **kw):
    return StoredFingerprint(id=ident, bits=_random_packed(75, seed), dim=75, **kw)


# Entries that insert rejects from a dim-75 store, whatever it holds, and
# the error each raises.
REJECTED = {
    "empty id": (lambda: _entry75("", 90), ValueError, "non-empty"),
    "wrong length": (lambda: StoredFingerprint(id="x", bits=b"\x00" * 9, dim=75),
                     CorruptPayload, "expected 10"),
    "nonzero padding": (lambda: StoredFingerprint(id="x", bits=b"\xff" * 10, dim=75),
                        CorruptPayload, "padding"),
    "wrong dim": (lambda: StoredFingerprint(id="x", bits=_random_packed(64, 91), dim=64),
                  DimensionMismatch, "64"),
    "bad alpha": (lambda: _entry75("x", 92, alpha=-3.0), ValueError, "alpha"),
    "dim 0": (lambda: StoredFingerprint(id="x", bits=b"", dim=0), ValueError,
              "dim must be >= 1"),
    "dim -5": (lambda: StoredFingerprint(id="x", bits=b"", dim=-5), ValueError,
               "dim must be >= 1"),
    "non-string id": (lambda: _entry75(5, 94), ValueError, "string"),
    "list metadata value": (lambda: _entry75("x", 95, metadata={"k": ["x"]}),
                            ValueError, "metadata"),
    "int metadata value": (lambda: _entry75("x", 96, metadata={"k": 5}),
                           ValueError, "metadata"),
    "int metadata key": (lambda: _entry75("x", 97, metadata={5: "v"}),
                         ValueError, "metadata"),
    "list metadata": (lambda: _entry75("x", 98, metadata=[("k", "v")]),
                      ValueError, "metadata"),
    "surrogate id": (lambda: _entry75("x\ud800", 99), ValueError, "UTF-8"),
    "surrogate metadata key": (lambda: _entry75("x", 99, metadata={"\udfff": "v"}),
                               ValueError, "entry 'x': .* UTF-8"),
    "surrogate metadata value": (lambda: _entry75("x", 99, metadata={"k": "\ud800"}),
                                 ValueError, "entry 'x': .* UTF-8"),
}


class TestInsertRejection:
    """A rejected insert leaves the store exactly as it was: the same
    length and dim, no trace of the entry, and the next valid entry takes
    the next sequence number and is found on its own."""

    @staticmethod
    def _store(held):
        store = FingerprintStore(dim=75)
        for i in range(held):
            store.insert(_entry75(f"held-{i}", 100 + i))
        return store

    @staticmethod
    def _assert_unchanged(store, held, bad_id):
        assert len(store) == held
        if bad_id is not None:
            with pytest.raises(KeyError):
                store.get(bad_id)
        assert [e.id for e in store] == [f"held-{i}" for i in range(held)]
        valid = _entry75("next", 200)
        assert store.insert(valid) == held
        assert [r.id for r in store.search_threshold(valid.bits, 0)] == ["next"]
        assert store.get("next").bits == valid.bits

    @pytest.mark.parametrize("held", [0, 3])
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_entry_leaves_store_unchanged(self, case, held):
        make, error, message = REJECTED[case]
        entry, store = make(), self._store(held)
        with pytest.raises(error, match=message):
            store.insert(entry)
        assert store.dim == 75
        self._assert_unchanged(store, held, entry.id)

    def test_duplicate_id(self):
        store = self._store(3)
        before = store.get("held-1")
        with pytest.raises(ValueError, match="duplicate"):
            store.insert(_entry75("held-1", 93))
        assert store.get("held-1") == before
        self._assert_unchanged(store, 3, None)

    @pytest.mark.parametrize("dim", [0, -5])
    def test_dim_below_one_leaves_dim_unset(self, dim):
        store = FingerprintStore()
        with pytest.raises(ValueError, match="dim must be >= 1"):
            store.insert(StoredFingerprint(id="x", bits=b"", dim=dim))
        assert store.dim is None
        self._assert_unchanged(store, 0, "x")
        assert store.dim == 75


class TestSearchThreshold:
    def test_tau_dim_returns_everything(self):
        store = make_random_store(50, 64, seed=4)
        assert len(store.search_threshold(_random_packed(64, 9), tau=64)) == 50

    def test_tau_zero_without_match_is_empty(self):
        store = make_random_store(50, 768, seed=5)
        assert store.search_threshold(_random_packed(768, 99), tau=0) == []

    def test_planted_entries_recovered_exactly(self):
        dim = 768
        store = make_random_store(1000, dim, seed=6)
        query = _random_packed(dim, 1234)
        planted = []
        rng = np.random.Generator(np.random.Philox(key=7))
        for i in range(5):
            k = int(rng.integers(0, 21))
            positions = rng.choice(dim, size=k, replace=False)
            ident = f"planted-{i}"
            store.insert(_fp(ident, _flip_bits(query, dim, positions), dim=dim))
            planted.append(ident)
        results = store.search_threshold(query, tau=20)
        assert sorted(r.id for r in results) == sorted(planted)
        oracle = [r for r in oracle_sorted(store, query, dim) if r[0] <= 20]
        assert [r.id for r in results] == [r[2] for r in oracle]

    def test_monotone_in_tau(self):
        store = make_random_store(300, 64, seed=8)
        query = _random_packed(64, 10)
        previous = set()
        for tau in (5, 15, 25, 40, 64):
            ids = {r.id for r in store.search_threshold(query, tau)}
            assert previous <= ids
            previous = ids

    def test_tau_out_of_range(self):
        store = make_random_store(5, 64, seed=9)
        with pytest.raises(ValueError, match="tau"):
            store.search_threshold(_random_packed(64, 11), tau=65)

    def test_query_dim_mismatch(self):
        store = make_random_store(5, 64, seed=12)
        with pytest.raises(DimensionMismatch):
            store.search_threshold(b"\x00" * 12, tau=3)

    def test_query_is_packed_bytes_only(self):
        store = make_random_store(5, 64, seed=12)
        with pytest.raises(TypeError):
            store.search_threshold(8, tau=64)
        row = np.frombuffer(store.get("e0").bits, dtype=np.uint8)
        assert store.search_topk(row, k=1)[0].id == "e0"

    def test_metadata_overlap_and_filter(self):
        store = FingerprintStore()
        store.insert(_fp("a", [1] * 8, metadata={"tool": "email", "region": "eu"}))
        store.insert(_fp("b", [1] * 8, metadata={"tool": "email", "region": "us"}))
        results = store.search_threshold(pack_bits([1] * 8), tau=8,
                                         query_metadata={"tool": "email",
                                                         "region": "eu"})
        assert [(r.id, r.metadata_overlap) for r in results] == [("a", 2), ("b", 1)]


class TestSearchTopK:
    def test_exact_duplicate_first(self):
        store = make_random_store(200, 768, seed=13)
        target = store.get("e42")
        results = store.search_topk(target.bits, k=1)
        assert results[0] == MatchResult(id="e42", distance=0)

    def test_topk_equals_full_sort_prefix(self):
        store = make_random_store(500, 64, seed=14)
        query = _random_packed(64, 77)
        results = store.search_topk(query, k=5)
        oracle = oracle_sorted(store, query, 64)[:5]
        assert [(r.distance, r.id) for r in results] == \
            [(d, i) for d, _, i in oracle]

    def test_prefix_property(self):
        store = make_random_store(300, 64, seed=15)
        query = _random_packed(64, 78)
        for k in (1, 3, 7, 20):
            assert store.search_topk(query, k) == \
                store.search_topk(query, k + 1)[:k]

    def test_ties_broken_by_insertion_sequence(self):
        store = FingerprintStore()
        for i in range(6):
            store.insert(_fp(f"dup{i}", [1, 0, 1, 0, 1, 0, 1, 0]))
        results = store.search_topk(pack_bits([1, 0, 1, 0, 1, 0, 1, 0]), k=3)
        assert [r.id for r in results] == ["dup0", "dup1", "dup2"]

    def test_k_larger_than_store_returns_all(self):
        store = make_random_store(7, 64, seed=16)
        assert len(store.search_topk(_random_packed(64, 79), k=50)) == 7

    def test_k_must_be_positive(self):
        store = make_random_store(5, 64, seed=17)
        with pytest.raises(ValueError):
            store.search_topk(_random_packed(64, 80), k=0)

    def test_oracle_agreement_randomized(self):
        rng = np.random.Generator(np.random.Philox(key=18))
        for trial in range(10):
            dim = int(rng.choice([64, 96, 768]))
            store = make_random_store(int(rng.integers(50, 400)), dim,
                                      seed=1000 + trial)
            query = _random_packed(dim, 2000 + trial)
            k = int(rng.integers(1, 12))
            tau = int(rng.integers(0, dim + 1))
            oracle = oracle_sorted(store, query, dim)
            got_k = store.search_topk(query, k)
            assert [(r.distance, r.id) for r in got_k] == \
                [(d, i) for d, _, i in oracle[:k]]
            got_t = store.search_threshold(query, tau)
            expected_t = [(d, i) for d, _, i in oracle if d <= tau]
            assert [(r.distance, r.id) for r in got_t] == expected_t

    @pytest.mark.parametrize("dim", [75, 768])
    def test_interleaved_inserts_and_searches(self, dim):
        # Batches of 1-5 inserts between searches take the word matrix
        # through capacities 1, 2, 4, ..., 64.
        rng = np.random.Generator(np.random.Philox(key=dim))
        rows = random_bit_rows(60, dim, seed=dim + 1)
        query = random_bit_rows(1, dim, seed=dim + 2)[0].tobytes()
        store = FingerprintStore()
        n = 0
        while n < len(rows):
            for _ in range(int(rng.integers(1, 6))):
                if n < len(rows):
                    store.insert(StoredFingerprint(id=f"r{n}", bits=rows[n].tobytes(),
                                                   dim=dim))
                    n += 1
            tau = int(rng.integers(0, dim + 1))
            oracle = oracle_sorted(store, query, dim)
            one_go = FingerprintStore()
            for e in store:
                one_go.insert(StoredFingerprint(id=e.id, bits=e.bits, dim=dim))
            got_k, got_t = store.search_topk(query, 5), store.search_threshold(query, tau)
            assert [(r.distance, r.id) for r in got_k] == \
                [(d, i) for d, _, i in oracle[:5]]
            assert [(r.distance, r.id) for r in got_t] == \
                [(d, i) for d, _, i in oracle if d <= tau]
            assert got_k == one_go.search_topk(query, 5)
            assert got_t == one_go.search_threshold(query, tau)

    def test_inserts_racing_searches(self):
        # Two writers insert while four readers search, so the word matrix
        # doubles under the readers. Every search must see a prefix of the
        # store in insertion order, each entry at its true distance.
        dim, n = 75, 240
        rows = random_bit_rows(n, dim, seed=31)
        query = random_bit_rows(1, dim, seed=32)[0].tobytes()
        truth = {f"r{i}": naive_hamming_bits(rows[i].tobytes(), query, dim)
                 for i in range(n)}
        store = FingerprintStore(dim=dim)
        seen: list[list[MatchResult]] = []
        final: list[list[MatchResult]] = []     # each reader's last search
        writing = threading.Event()
        writing.set()

        def writer(first):
            for i in range(first, n, 2):
                store.insert(StoredFingerprint(id=f"r{i}", bits=rows[i].tobytes(),
                                               dim=dim))

        def reader():
            while writing.is_set():
                seen.append(store.search_threshold(query, dim))
            final.append(store.search_threshold(query, dim))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writers = [threading.Thread(target=writer, args=(k,)) for k in range(2)]
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for t in readers + writers:
                t.start()
            for t in writers:
                t.join(timeout=30)
            writing.clear()
            for t in readers:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in readers + writers)
        finally:
            sys.setswitchinterval(interval)

        assert len(store) == n
        order = {e.id: e.inserted_at for e in store}
        assert all(store.get(f"r{i}").bits == rows[i].tobytes() for i in range(n))
        for results in seen + final:
            assert all(r.distance == truth[r.id] for r in results)
            assert sorted(order[r.id] for r in results) == list(range(len(results)))
        assert [len(results) for results in final] == [n] * 4

    def test_inserts_racing_split_searches(self, monkeypatch):
        # The same race with the store above the split row count, so the
        # four readers' scans share the one helper thread. The test decides
        # each split scan's race, alternately: one copy of the second half
        # waits until the other has taken ``stop``, so both the helper's
        # copy and the caller's are kept in some searches.
        monkeypatch.setattr(kernels, "_SPLIT_ROWS", 16)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        scan_into = kernels._scan_into
        helper_finished, helper_won, caller_won = [], [], []
        helper_first: dict[object, bool] = {}   # stop lock -> who must win
        deciding_lock = threading.Lock()

        def wait_taken(stop) -> bool:
            deadline = time.monotonic() + 30
            while not stop.locked():
                if time.monotonic() > deadline:
                    return False
                time.sleep(1e-4)
            return True

        def deciding(corpus_words, query_words, acc, stop=None):
            if stop is None:
                return scan_into(corpus_words, query_words, acc, stop)
            with deciding_lock:
                helper_wins = helper_first.setdefault(stop, len(helper_first) % 2 == 0)
            on_helper = threading.current_thread().name == "binaryshield-scan"
            if helper_wins != on_helper and wait_taken(stop):
                (caller_won if on_helper else helper_won).append(acc.size)
            finished = scan_into(corpus_words, query_words, acc, stop)
            if finished and on_helper:
                helper_finished.append(acc.size)
            return finished

        monkeypatch.setattr(kernels, "_scan_into", deciding)
        self.test_inserts_racing_searches()
        assert helper_finished
        assert helper_won and caller_won

    def test_query_with_nonzero_padding_rejected(self):
        store = make_random_store(5, 75, seed=29)
        with pytest.raises(CorruptPayload, match="padding"):
            store.search_threshold(b"\xff" * 10, 10)

    def test_reproducible_match_lists(self):
        a = make_random_store(200, 64, seed=21).search_topk(
            _random_packed(64, 5), k=10)
        b = make_random_store(200, 64, seed=21).search_topk(
            _random_packed(64, 5), k=10)
        assert a == b


class TestSnapshot:
    def test_roundtrip_preserves_everything(self, tmp_path):
        store = FingerprintStore()
        store.insert(_fp("x1", [1, 0] * 12, alpha=2.0,
                         metadata={"tool": "email"}))
        store.insert(_fp("x2", [0, 1] * 12))
        path = tmp_path / "s.bsfp"
        store.save_snapshot(path)
        loaded = FingerprintStore.load_snapshot(path)
        assert len(loaded) == 2
        assert loaded.get("x1").alpha == 2.0
        assert loaded.get("x1").metadata == {"tool": "email"}
        assert loaded.get("x2").alpha is None
        assert loaded.get("x1").bits == store.get("x1").bits

    def test_resave_is_byte_identical(self, tmp_path):
        store = make_random_store(50, 96, seed=22)
        p1, p2 = tmp_path / "a.bsfp", tmp_path / "b.bsfp"
        store.save_snapshot(p1)
        FingerprintStore.load_snapshot(p1).save_snapshot(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_search_identical_after_reload(self, tmp_path):
        store = make_random_store(100, 64, seed=23)
        query = _random_packed(64, 55)
        path = tmp_path / "s.bsfp"
        store.save_snapshot(path)
        reloaded = FingerprintStore.load_snapshot(path)
        assert store.search_topk(query, 5) == reloaded.search_topk(query, 5)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bsfp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CorruptPayload, match="magic"):
            FingerprintStore.load_snapshot(path)


    def _three_records(self, tmp_path):
        store = FingerprintStore()
        store.insert(_fp("a", [1, 0] * 12, alpha=2.0, metadata={"tool": "email"}))
        store.insert(_fp("b", [0, 1] * 12))
        store.insert(_fp("c", [1, 1] * 12, alpha=0.5, metadata={"k": "v", "r": "eu"}))
        path = tmp_path / "s.bsfp"
        store.save_snapshot(path)
        return path

    def test_truncated_or_extended_snapshot_raises_only_corrupt_payload(self, tmp_path):
        path = self._three_records(tmp_path)
        data = path.read_bytes()
        broken = tmp_path / "broken.bsfp"
        for variant in [data[:i] for i in range(len(data))] + [data + b"\x00"]:
            broken.write_bytes(variant)
            with pytest.raises(CorruptPayload):
                FingerprintStore.load_snapshot(broken)

    def test_non_utf8_id_rejected(self, tmp_path):
        path = self._three_records(tmp_path)
        data = bytearray(path.read_bytes())
        id_at = len(b"BSFP\x00\x01") + 8 + 4   # first record's one-byte id
        assert data[id_at:id_at + 1] == b"a"
        data[id_at] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptPayload, match="UTF-8"):
            FingerprintStore.load_snapshot(path)

    def test_zero_dim_header_with_records_rejected(self, tmp_path):
        path = tmp_path / "s.bsfp"
        path.write_bytes(b"BSFP\x00\x01" + (0).to_bytes(4, "little")
                         + (1).to_bytes(4, "little")
                         + (1).to_bytes(4, "little") + b"a" + b"\x00"
                         + (0).to_bytes(4, "little"))
        with pytest.raises(CorruptPayload, match="dim 0"):
            FingerprintStore.load_snapshot(path)

    def test_record_with_nonzero_padding_rejected(self, tmp_path):
        path = tmp_path / "s.bsfp"
        make_random_store(3, 75, seed=30).save_snapshot(path)
        data = bytearray(path.read_bytes())
        data[-1] |= 0x80                       # bit 79 of the last record
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptPayload, match="padding"):
            FingerprintStore.load_snapshot(path)

    def test_failed_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        path = self._three_records(tmp_path)
        before = path.read_bytes()
        bad = FingerprintStore()
        bad.insert(_fp("x", [1, 0] * 12, metadata={"note": "n"}))

        def failing(metadata):
            raise OSError("metadata encoder failed")

        monkeypatch.setattr(store_module, "_encode_metadata", failing)
        with pytest.raises(OSError, match="encoder failed"):
            bad.save_snapshot(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.bsfp"]

class TestScanBenchmark:
    def test_zero_queries_valid_empty_report(self):
        store = make_random_store(10, 64, seed=24)
        report = scan_benchmark(store, [])
        assert report.n_queries == 0
        assert report.mean_query_seconds == 0.0
        assert report.corpus_size == 10

    def test_packed_report_fields(self):
        store = make_random_store(100, 768, seed=25)
        queries = [_random_packed(768, 300 + i) for i in range(5)]
        report = scan_benchmark(store, queries)
        assert report.mode == "packed_hamming"
        assert report.n_queries == 5
        assert report.total_seconds > 0
        assert "corpus_size" in report.to_json()

    def test_efficiency_storage_ratios_are_the_storage_report(self):
        # dim 75 packs into 10 bytes: 300 / 10 and 600 / 10
        report = efficiency_run(40, 2, dim=75, seed=3)
        assert report.storage_float32_ratio == 30.0
        assert report.storage_float64_ratio == 60.0

    def test_efficiency_run_counts_every_query_on_both_sides(self):
        # 50 queries take turns in chunks of 44 and 6 per side
        report = efficiency_run(40, 50, dim=75, seed=3)
        assert (report.packed.n_queries, report.dense.n_queries) == (50, 50)
        assert (report.packed.mode, report.dense.mode) == ("packed_hamming",
                                                           "dense_cosine")
        assert report.packed.total_seconds > 0 and report.dense.total_seconds > 0

    def test_dense_mode_runs(self):
        matrix = random_unit_rows(50, 64, seed=27)
        queries = random_unit_rows(3, 64, seed=28)
        report = dense_scan_benchmark(matrix, queries)
        assert report.mode == "dense_cosine"
        assert report.n_queries == 3


BAD_ALPHAS = [float("nan"), -3.0, 0.0, float("inf"), float("-inf")]


def _snapshot(dim, records):
    """A .bsfp written by hand from (id, alpha, metadata, bits) tuples, so
    a record can hold what save_snapshot would never write."""
    out = [SNAPSHOT_MAGIC, struct.pack("<II", dim, len(records))]
    for ident, alpha, metadata, bits in records:
        raw = ident.encode("utf-8")
        out += [struct.pack("<I", len(raw)), raw]
        out.append(b"\x00" if alpha is None else b"\x01" + struct.pack("<d", alpha))
        out.append(struct.pack("<I", len(metadata)))
        for key, value in metadata.items():
            for text in (key.encode("utf-8"), value.encode("utf-8")):
                out += [struct.pack("<I", len(text)), text]
        out.append(bits)
    return b"".join(out)


class TestAlphaValidation:
    @pytest.mark.parametrize("alpha", BAD_ALPHAS, ids=str)
    def test_insert_rejects_invalid_alpha(self, alpha):
        store = FingerprintStore()
        store.insert(_fp("ok", [1, 0] * 12, alpha=2.0))
        with pytest.raises(ValueError, match="alpha"):
            store.insert(_fp("bad", [0, 1] * 12, alpha=alpha))
        assert len(store) == 1 and [e.id for e in store] == ["ok"]

    def test_insert_rejects_alpha_too_large_for_a_float(self):
        store = FingerprintStore()
        with pytest.raises(ValueError, match="alpha must be a positive finite"):
            store.insert(_fp("bad", [0, 1] * 12, alpha=10**400))
        assert len(store) == 0 and store.dim is None

    @pytest.mark.parametrize("alpha", BAD_ALPHAS, ids=str)
    def test_load_rejects_invalid_alpha(self, tmp_path, alpha):
        path = tmp_path / "s.bsfp"
        bits = pack_bits([1, 0] * 12)
        path.write_bytes(_snapshot(24, [("ok", 2.0, {}, bits), ("bad", alpha, {}, bits)]))
        with pytest.raises(CorruptPayload, match="alpha"):
            FingerprintStore.load_snapshot(path)


class TestColumnarEquivalence:
    def test_interleaved_store_matches_one_at_a_time_and_reload(self, tmp_path):
        dim, n = 75, 240
        rows = random_bit_rows(n, dim, seed=41)
        queries = [random_bit_rows(1, dim, seed=42 + i)[0].tobytes() for i in range(4)]
        metas = [{}, {"tool": "email"}, {"tool": "email", "region": "eu"},
                 {"region": "us", "tool": "web"}]
        fps = [StoredFingerprint(id=f"m{i}", bits=rows[i].tobytes(), dim=dim,
                                 alpha=None if i % 3 == 0 else 0.5 + i % 4,
                                 metadata=dict(metas[i % 4]))
               for i in range(n)]
        query_meta = {"tool": "email", "region": "eu"}

        def searches(store, tau):
            return [(store.search_topk(q, 7, query_metadata=query_meta),
                     store.search_threshold(q, tau, query_metadata=query_meta))
                    for q in queries]

        rng = np.random.Generator(np.random.Philox(key=43))
        live, done = FingerprintStore(), 0
        while done < n:
            step = min(n - done, int(rng.integers(1, 40)))
            for fp in fps[done:done + step]:
                live.insert(fp)
            done += step
            one_go = FingerprintStore()
            for fp in fps[:done]:
                one_go.insert(fp)
            tau = int(rng.integers(20, dim + 1))
            assert searches(live, tau) == searches(one_go, tau)

        paths = [tmp_path / name for name in ("live.bsfp", "one.bsfp", "again.bsfp")]
        live.save_snapshot(paths[0])
        one_go.save_snapshot(paths[1])
        reloaded = FingerprintStore.load_snapshot(paths[0])
        reloaded.save_snapshot(paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

        expected = [replace(fp, inserted_at=i) for i, fp in enumerate(fps)]
        for store in (live, one_go, reloaded):
            assert list(store) == expected
            assert [store.get(fp.id) for fp in fps] == expected
            assert store.payload_bytes() == n * 10
            assert searches(store, 30) == searches(live, 30)

        # A loaded store keeps growing like any other.
        extra = StoredFingerprint(id="late", bits=queries[0], dim=dim, alpha=1.0,
                                  metadata={"tool": "email"})
        for store in (live, reloaded):
            assert store.insert(extra) == n
        assert reloaded.get("late") == live.get("late") == replace(extra, inserted_at=n)
        assert searches(reloaded, 30) == searches(live, 30)

    def test_returned_metadata_is_a_copy(self):
        store = FingerprintStore()
        for i in range(4):
            store.insert(_fp(f"e{i}", [1, 0] * 12, metadata={"tool": "email"}))
        store.get("e1").metadata["tool"] = "web"
        next(iter(store)).metadata["extra"] = "x"
        assert [e.metadata for e in store] == [{"tool": "email"}] * 4
        results = store.search_topk(pack_bits([1, 0] * 12), 4,
                                    query_metadata={"tool": "email"})
        assert [r.metadata_overlap for r in results] == [1] * 4


def _valid_snapshot() -> bytes:
    store = FingerprintStore()
    store.insert(_fp("a", _random_packed(75, 1), dim=75, alpha=2.0,
                     metadata={"tool": "email"}))
    store.insert(_fp("bb", _random_packed(75, 2), dim=75))
    store.insert(_fp("ccc", _random_packed(75, 3), dim=75, alpha=0.5,
                     metadata={"k": "v", "r": "eu"}))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.bsfp"
        store.save_snapshot(path)
        return path.read_bytes()


VALID_SNAPSHOT = _valid_snapshot()


def _load_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.bsfp"
        path.write_bytes(data)
        try:
            return FingerprintStore.load_snapshot(path)
        except CorruptPayload:
            return None


class TestSnapshotFuzz:
    @given(st.one_of(st.binary(max_size=400),
                     st.binary(max_size=400).map(lambda b: SNAPSHOT_MAGIC + b)))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_raise_only_corrupt_payload(self, data):
        _load_bytes(data)

    @given(st.integers(0, len(VALID_SNAPSHOT) - 1), st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_single_byte_mutation_raises_only_corrupt_payload(self, at, value):
        data = bytearray(VALID_SNAPSHOT)
        data[at] = value
        loaded = _load_bytes(bytes(data))
        if loaded is not None:
            assert len(loaded) == 3

    @given(st.integers(0, len(VALID_SNAPSHOT) - 1))
    @settings(max_examples=100, deadline=None)
    def test_truncation_raises_corrupt_payload(self, at):
        assert _load_bytes(VALID_SNAPSHOT[:at]) is None

    def test_record_longer_than_read_chunk(self, tmp_path):
        store = FingerprintStore()
        store.insert(_fp("before", _random_packed(768, 1), dim=768, alpha=1.0))
        store.insert(_fp("blob", _random_packed(768, 2), dim=768,
                         metadata={"v": "x" * (2 << 20)}))
        store.insert(_fp("after", _random_packed(768, 3), dim=768,
                         metadata={"v": "y"}))
        path = tmp_path / "s.bsfp"
        store.save_snapshot(path)
        assert path.stat().st_size > 2 * store_module._CHUNK
        loaded = FingerprintStore.load_snapshot(path)
        assert list(loaded) == list(store)
        loaded.save_snapshot(tmp_path / "again.bsfp")
        assert (tmp_path / "again.bsfp").read_bytes() == path.read_bytes()

    def test_every_field_straddling_a_chunk_edge(self, tmp_path):
        # The filler's metadata moves the second record across the edge
        # one byte at a time, so every field of it, the id included, is
        # split by some chunk boundary near 1 MiB.
        chunk, path = store_module._CHUNK, tmp_path / "s.bsfp"
        second = _fp("id-straddles-edge", _random_packed(768, 5), dim=768, alpha=2.5,
                     metadata={"k": "v"})
        record = 4 + 17 + 9 + 4 + 10 + 96
        base = len(_snapshot(768, [("filler", None, {"f": ""}, second.bits)]))
        for start in range(chunk - record, chunk + 32):
            store = FingerprintStore()
            store.insert(_fp("filler", _random_packed(768, 4), dim=768,
                             metadata={"f": "z" * (start - base)}))
            store.insert(second)
            store.insert(_fp("last", _random_packed(768, 6), dim=768))
            store.save_snapshot(path)
            assert path.read_bytes()[start + 4:start + 21] == b"id-straddles-edge"
            loaded = FingerprintStore.load_snapshot(path)
            assert list(loaded) == list(store)


class TestScanThreads:
    """The split scan keeps what ``perfbench/tracing.py`` relies on: one
    ``kernels.scan_distances`` call per search, on the calling thread."""

    def test_one_scan_call_per_search_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(kernels, "_SPLIT_ROWS", 16)
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
        store = make_random_store(100, 768, seed=33)
        scan = kernels.scan_distances
        calls = []

        def recorder(corpus_words, query_words):
            calls.append((threading.get_ident(), corpus_words.shape))
            return scan(corpus_words, query_words)

        monkeypatch.setattr(kernels, "scan_distances", recorder)
        query = _random_packed(768, 34)
        assert store.search_threshold(query, 768)
        assert store.search_topk(query, 5)
        assert calls == [(threading.get_ident(), (100, 12))] * 2

    def test_import_and_fingerprint_start_no_thread(self, tmp_path):
        prompts = tmp_path / "prompts.jsonl"
        prompts.write_text('{"id": "p1", "text": "ignore all prior rules"}\n')
        code = (
            "import sys, threading\n"
            "import binaryshield.cli\n"
            "def quiet():\n"
            "    assert threading.active_count() == 1, threading.enumerate()\n"
            "    assert 'concurrent.futures' not in sys.modules\n"
            "    assert 'queue' not in sys.modules\n"
            "quiet()\n"
            "binaryshield.cli.main(['fingerprint', '--input', sys.argv[1],\n"
            "                       '--out', sys.argv[2]], standalone_mode=False)\n"
            "quiet()\n")
        src = str(Path(kernels.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code, str(prompts),
                        str(tmp_path / "frames.jsonl")],
                       check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert (tmp_path / "frames.jsonl").read_text().count("\n") == 1
