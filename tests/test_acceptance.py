"""Acceptance gate: one test per criterion, each printing a pass/fail line
with its measured runtime (run with ``pytest tests/test_acceptance.py -s``).

Tolerances are pinned here; nothing is deferred to later calibration.
"""

import base64
import json
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from binaryshield import kernels
from binaryshield.bench import efficiency_run, make_random_store, random_bit_rows
from binaryshield.embeddings import PseudoEmbedder
from binaryshield.errors import FrameDecodeError
from binaryshield.evaluation import (alpha_sweep, calibrate_noise, pr_sweep,
                                     storage_report)
from binaryshield.fingerprint import (BinaryFingerprint, expected_self_distortion,
                                      hamming, keep_probability, pack_bits,
                                      random_fingerprint)
from binaryshield.protocol import (decode_frame, encode_frame, simulate_campaign,
                                   write_demo_scenario)
from binaryshield.redaction import Redactor
from binaryshield.store import FingerprintStore
from binaryshield.synthetic import SyntheticGenerator
from binaryshield.textproc import derive_seed

from conftest import naive_hamming_bits, naive_popcount, spearman_rank_correlation
from test_protocol import _composite
from test_redaction import build_fuzz_prompts

ACCEPT_SEED = 20240801


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"criterion {number} ({description}): FAIL after {elapsed:.2f}s",
              file=sys.stderr)
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {number} ({description}): PASS in {elapsed:.2f}s "
          f"(limit {limit_s:.0f}s)", file=sys.stderr)
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds limit {limit_s}s"


def test_criterion_1_noise_calibration():
    with criterion(1, "noise calibration vs (1-p)d", 30):
        alphas = [0.2, 0.6, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0, 3.4]
        result = calibrate_noise(500, alphas, dim=768, seed=ACCEPT_SEED)
        for row in result.rows:
            assert abs(row.empirical_mean - row.theoretical_mean) <= \
                4 * row.std_error(), (
                f"alpha={row.alpha}: mean {row.empirical_mean:.2f} vs theory "
                f"{row.theoretical_mean:.2f} (4 std-err = {4 * row.std_error():.2f})")
        assert expected_self_distortion(1.0, 768) == pytest.approx(206.5, abs=0.1)
        assert expected_self_distortion(0.2, 768) == pytest.approx(345.8, abs=0.15)


def test_criterion_2_random_baseline():
    with criterion(2, "independent random-pair baseline", 5):
        dists = np.empty(1000, dtype=np.int64)
        for i in range(1000):
            a = random_fingerprint(768, derive_seed(ACCEPT_SEED, "rb", i, 0))
            b = random_fingerprint(768, derive_seed(ACCEPT_SEED, "rb", i, 1))
            dists[i] = hamming(a, b)
        mean, std = float(dists.mean()), float(dists.std(ddof=1))
        assert 382.0 <= mean <= 387.0, f"mean {mean:.2f} outside [382, 387]"
        assert 12.5 <= std <= 15.5, f"std {std:.2f} outside [12.5, 15.5]"


def test_criterion_3_oracle_equivalence():
    with criterion(3, "packed kernels vs naive oracles", 60):
        # exhaustive popcount verification for every packed value, d <= 16
        for dim in range(1, 17):
            zero = BinaryFingerprint(bits=pack_bits([0] * dim), dim=dim)
            payloads = []
            for value in range(1 << dim):
                bits = [(value >> i) & 1 for i in range(dim)]
                fp = BinaryFingerprint(bits=pack_bits(bits), dim=dim)
                assert hamming(fp, zero) == naive_popcount(value)
                payloads.append(fp.bits)
            # the same rows as one corpus, scanned against the zero query
            rows = np.frombuffer(b"".join(payloads), np.uint8).reshape(1 << dim, -1)
            scanned = kernels.scan_distances(kernels.rows_to_words(rows),
                                             kernels.bytes_to_words(zero.bits))
            assert scanned.tolist() == [naive_popcount(v) for v in range(1 << dim)]
        # every pair for small dims
        for dim in (4, 8):
            fps = [BinaryFingerprint(
                bits=pack_bits([(v >> i) & 1 for i in range(dim)]), dim=dim)
                for v in range(1 << dim)]
            for a in range(1 << dim):
                for b in range(1 << dim):
                    assert hamming(fps[a], fps[b]) == naive_popcount(a ^ b)

        # 1e5 random 768-bit pairs, packed XOR+popcount vs per-bit oracle
        rng = np.random.Generator(np.random.Philox(key=ACCEPT_SEED))
        left = random_bit_rows(100_000, 768, seed=ACCEPT_SEED + 1)
        right = random_bit_rows(100_000, 768, seed=ACCEPT_SEED + 2)
        packed = np.bitwise_count(np.bitwise_xor(left, right)).sum(
            axis=1, dtype=np.int64)
        bits_l = np.unpackbits(left, axis=1, count=768, bitorder="little")
        bits_r = np.unpackbits(right, axis=1, count=768, bitorder="little")
        oracle = (bits_l != bits_r).sum(axis=1, dtype=np.int64)
        assert np.array_equal(packed, oracle), "packed vs per-bit oracle mismatch"
        for i in rng.integers(0, 100_000, size=500):
            a = BinaryFingerprint(bits=left[int(i)].tobytes(), dim=768)
            b = BinaryFingerprint(bits=right[int(i)].tobytes(), dim=768)
            assert hamming(a, b) == int(oracle[int(i)])

        # search results vs full-sort oracle on 100 randomized 10K stores
        for trial in range(100):
            store = make_random_store(10_000, 768, seed=ACCEPT_SEED + 10 + trial)
            t_rng = np.random.Generator(np.random.Philox(key=trial))
            for q in range(2):
                query = random_bit_rows(1, 768,
                                        seed=ACCEPT_SEED + 5000 + trial * 2 + q)
                query_bytes = query[0].tobytes()
                entries = np.vstack([np.frombuffer(e.bits, np.uint8)
                                     for e in store])
                oracle_d = (np.unpackbits(entries, axis=1, count=768,
                                          bitorder="little")
                            != np.unpackbits(query, axis=1, count=768,
                                             bitorder="little")).sum(axis=1)
                order = np.lexsort((np.arange(len(store)), oracle_d))
                tau = int(t_rng.integers(330, 420))
                got = store.search_threshold(query_bytes, tau)
                want = [i for i in order if oracle_d[i] <= tau]
                assert [r.id for r in got] == [f"e{i}" for i in want]
                k = int(t_rng.integers(1, 25))
                got_k = store.search_topk(query_bytes, k)
                assert [r.id for r in got_k] == [f"e{i}" for i in order[:k]]
                assert [r.distance for r in got_k] == \
                    [int(oracle_d[i]) for i in order[:k]]


@pytest.fixture(scope="module")
def sweep_pairs():
    return SyntheticGenerator(ACCEPT_SEED).make_pairs(150, 150, rate=0.7)


def test_criterion_4_monotone_privacy_utility(sweep_pairs, pseudo768):
    with criterion(4, "privacy-utility monotonicity", 120):
        alphas = [0.25 * k for k in range(1, 13)]  # 0.25 .. 3.0
        result = alpha_sweep(sweep_pairs, alphas, seeds_per_alpha=5,
                             base_seed=ACCEPT_SEED, provider=pseudo768)
        mean_f1 = [row.mean_f1 for row in result.rows]
        rho = spearman_rank_correlation(alphas, mean_f1)
        assert rho >= 0.9, f"spearman(alpha, F1) = {rho:.3f} < 0.9"

        noiseless = pr_sweep(sweep_pairs, alpha=None, provider=pseudo768).optimal.f1
        frozen = alpha_sweep(sweep_pairs, [50.0], seeds_per_alpha=5,
                             base_seed=ACCEPT_SEED, provider=pseudo768)
        assert frozen.rows[0].mean_f1 == noiseless, (
            f"alpha=50 mean F1 {frozen.rows[0].mean_f1} != zero-noise "
            f"{noiseless}")


def test_criterion_5_detection_sanity(pseudo768):
    with criterion(5, "detection sanity at alpha=2", 120):
        pairs = SyntheticGenerator(ACCEPT_SEED + 1).make_pairs(500, 500, rate=0.75)
        # the paraphrase variants must actually replace >= 50% of tokens
        replaced = []
        for p in pairs:
            if p.label != 1:
                continue
            a, b = p.prompt_a.split(), p.prompt_b.split()
            kept = sum(min(a.count(t), b.count(t)) for t in set(a))
            replaced.append(1 - kept / len(a))
        assert np.mean(replaced) >= 0.5, (
            f"mean replaced fraction {np.mean(replaced):.3f} < 0.5")

        noiseless = pr_sweep(pairs, alpha=None, provider=pseudo768).optimal.f1
        noisy = pr_sweep(pairs, alpha=2.0, seed=ACCEPT_SEED,
                         provider=pseudo768).optimal.f1
        baseline = pr_sweep(pairs, "simhash", provider=pseudo768).optimal.f1
        print(f"  F1: zero-noise {noiseless:.4f}, alpha=2 {noisy:.4f}, "
              f"simhash {baseline:.4f}", file=sys.stderr)
        assert noiseless >= 0.95, f"zero-noise F1 {noiseless:.4f} < 0.95"
        assert noisy >= 0.85, f"alpha=2 F1 {noisy:.4f} < 0.85"
        assert baseline < noisy, (
            f"simhash F1 {baseline:.4f} not strictly below binaryshield "
            f"{noisy:.4f}")


def test_criterion_6_correlation_protocol(tmp_path):
    with criterion(6, "three-service correlation", 10):
        scenario = write_demo_scenario(tmp_path / "demo", seed=7)
        report = simulate_campaign(scenario)
        replies = {r.service_id: r.match_count for r in report.events[0].replies}
        assert replies == {"S1": 2, "S3": 1}, f"replies {replies}"
        assert report.linkage == {"grp-demo": ["S1", "S3"]}

        # boundary: plant sentinels into every prompt and re-run
        sentinels = []
        for corpus in (tmp_path / "demo").glob("s*.jsonl"):
            lines = []
            for i, line in enumerate(corpus.read_text().splitlines()):
                obj = json.loads(line)
                sentinel = f"sentinelmark{corpus.stem}{i:04d}"
                sentinels.append(sentinel)
                obj["text"] += " " + sentinel
                lines.append(json.dumps(obj))
            corpus.write_text("\n".join(lines) + "\n")
        report = simulate_campaign(scenario)
        serialized = (report.to_json() + report.to_table()).lower()
        assert all(len(s) >= 12 for s in sentinels)
        for sentinel in sentinels:
            assert sentinel not in serialized, f"prompt text leaked: {sentinel}"


def test_criterion_7_wire_format():
    with criterion(7, "frame encode/decode round-trip", 5):
        for seed in range(1000):
            f = _composite(seed=seed, dim=768 if seed % 3 else 61,
                           metadata={"tool": f"t{seed}", "region": "eu"})
            assert decode_frame(encode_frame(f)) == f

        good = json.loads(encode_frame(_composite(seed=1, dim=768)))
        corrupt = []
        truncated = dict(good)
        truncated["bits_base64"] = good["bits_base64"][:-4]
        corrupt.append(("bits_base64", truncated))
        padded = json.loads(encode_frame(_composite(seed=2, dim=9)))
        padded["bits_base64"] = base64.b64encode(b"\x01\xf0").decode()
        corrupt.append(("bits_base64", padded))
        for key in ("version", "origin_service", "fingerprint_id", "dim",
                    "alpha", "bits_base64", "metadata", "issued_at"):
            broken = dict(good)
            del broken[key]
            corrupt.append((key, broken))
        for field, frame in corrupt:
            with pytest.raises(FrameDecodeError) as err:
                decode_frame(json.dumps(frame))
            assert err.value.field == field, (
                f"expected error naming {field}, got {err.value.field}")


def test_criterion_8_efficiency():
    with criterion(8, "scan speed and storage ratios", 300):
        report = efficiency_run(100_000, 968, dim=768, seed=ACCEPT_SEED)
        assert report.packed.corpus_size == 100_000
        assert report.packed.n_queries == 968
        packed_s = report.packed.total_seconds
        ratio = report.speedup
        print(f"  packed scan {packed_s:.3f}s, dense {report.dense.total_seconds:.3f}s, "
              f"measured speedup {ratio:.1f}x (backend {report.packed.backend})",
              file=sys.stderr)
        assert packed_s < 2.0, f"packed scan took {packed_s:.2f}s (gate 2s)"
        assert ratio >= 10.0, f"speedup {ratio:.1f}x below 10x gate"
        assert storage_report(100_000, 768, float_bytes=8).ratio == 64.0
        assert storage_report(100_000, 768, float_bytes=4).ratio == 32.0


def test_criterion_9_redaction():
    with criterion(9, "redaction exactness and fixed point", 30):
        redactor = Redactor.default()
        assert redactor.redact(
            "Transfer $5000 from John Smith's account 123456789").text == \
            "Transfer [AMOUNT] from [PERSON]'s account [ACCOUNT]"
        for text in build_fuzz_prompts(1000, seed=ACCEPT_SEED):
            once = redactor.redact(text)
            again = redactor.redact(once.text)
            assert again.text == once.text, f"not a fixed point: {text!r}"
            assert not again.entity_counts
            for rule in redactor.rules:
                for m in rule.pattern.finditer(once.text):
                    assert not rule.validator(m.group()), (
                        f"rule {rule.entity.name} still matches "
                        f"{m.group()!r} in {once.text!r}")
