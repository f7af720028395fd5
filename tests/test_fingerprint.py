import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaryshield.bench import random_bit_rows, random_unit_rows
from binaryshield.errors import CorruptPayload, DimensionMismatch
from binaryshield.fingerprint import (BinaryFingerprint, DenseEmbedding,
                                      PrivacyBudget, expected_self_distortion,
                                      flip_probability, flips, hamming,
                                      keep_probability, pack_bits, packed_length,
                                      philox, quantize, randomize,
                                      random_fingerprint, rekeyed_philox,
                                      unpack_bits)
from binaryshield.synthetic import SyntheticGenerator

from conftest import naive_hamming_bits

# frozen with 50-digit arithmetic: e^2 / (e^2 + 1)
KEEP_P_ALPHA2 = 0.8807970779778823


def _embedding(values, model="test"):
    return DenseEmbedding(values=np.asarray(values, dtype=np.float64),
                          model_id=model, dim=len(values))


# whole bytes, a lone bit, and partial last bytes, where padding can go wrong
DIMS = (1, 7, 8, 9, 75, 768)


def _pack_per_bit(bits) -> bytes:
    """Per-bit reference for the layout contract: bit i sets position
    i % 8 of byte i // 8; nothing else is set."""
    out = bytearray(packed_length(len(bits)))
    for i, b in enumerate(bits):
        out[i // 8] |= int(b) << (i % 8)
    return bytes(out)


class TestQuantize:
    def test_sign_rule_with_zero(self):
        fp = quantize(_embedding([0.3, -1.2, 0.0, 2.5]))
        assert unpack_bits(fp.bits, 4).tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("dim", DIMS)
    def test_sign_rule_per_bit(self, dim):
        values = np.random.Generator(np.random.Philox(key=dim)).standard_normal(dim)
        values[::5] = 0.0
        expected = [1 if v > 0 else 0 for v in values]
        assert quantize(_embedding(values)).bits == _pack_per_bit(expected)

    def test_all_negative_768_gives_zero_payload(self):
        fp = quantize(_embedding([-1.0] * 768))
        assert fp.bits == b"\x00" * 96

    def test_seeded_normal_popcount_near_half(self):
        # sign symmetry of the generator: popcount ~ Binomial(768, 1/2),
        # 4 sigma = 4 * sqrt(768)/2 ~ 55
        rng = np.random.Generator(np.random.Philox(key=99))
        fp = quantize(_embedding(rng.standard_normal(768)))
        assert abs(fp.popcount() - 384) <= 55

    def test_rejects_non_finite_with_index(self):
        values = np.zeros(8)
        values[5] = np.nan
        with pytest.raises(ValueError, match="index 5"):
            _embedding(values)

    def test_popcount_equals_positive_coordinate_count(self):
        rng = np.random.Generator(np.random.Philox(key=100))
        values = rng.standard_normal(200)
        fp = quantize(_embedding(values))
        assert fp.popcount() == int((values > 0).sum())

    @given(st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=30)
    def test_positive_scaling_invariance(self, scale):
        rng = np.random.Generator(np.random.Philox(key=101))
        values = rng.standard_normal(64)
        assert quantize(_embedding(values * scale)).bits == \
            quantize(_embedding(values)).bits


class TestKeepProbability:
    def test_paper_operating_point(self):
        assert round(keep_probability(0.25), 3) == 0.562

    def test_alpha_two_high_precision(self):
        assert keep_probability(2.0) == pytest.approx(KEEP_P_ALPHA2, abs=1e-15)

    def test_limits(self):
        assert keep_probability(1e-9) == pytest.approx(0.5, abs=1e-9)
        assert keep_probability(100.0) == pytest.approx(1.0, abs=1e-12)
        assert 0.5 < keep_probability(0.01) < keep_probability(3.0) < 1.0

    def test_rejects_nonpositive_alpha(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                keep_probability(bad)

    def test_flip_probability_no_overflow(self):
        assert flip_probability(2.0) == pytest.approx(1 - KEEP_P_ALPHA2, abs=1e-15)
        assert flip_probability(5000.0) == 0.0


class TestExpectedSelfDistortion:
    def test_spot_values(self):
        assert expected_self_distortion(0.2, 768) == pytest.approx(345.73, abs=0.01)
        assert expected_self_distortion(1.0, 768) == pytest.approx(206.547, abs=0.001)
        assert expected_self_distortion(2.0, 768) == pytest.approx(91.55, abs=0.01)

    def test_vanishes_for_large_alpha(self):
        assert expected_self_distortion(50.0, 768) < 1e-10

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            expected_self_distortion(1.0, 0)


class TestRandomize:
    def _fp(self, seed=7, dim=768):
        return random_fingerprint(dim, seed)

    def test_deterministic_given_same_inputs(self):
        fp = self._fp()
        assert randomize(fp, 1.0, 42).bits == randomize(fp, 1.0, 42).bits

    def test_different_seeds_differ(self):
        fp = self._fp()
        assert randomize(fp, 1.0, 1).bits != randomize(fp, 1.0, 2).bits

    def test_huge_alpha_is_identity(self):
        fp = self._fp()
        for seed in (0, 1, 2**63, 2**64 - 1):
            assert randomize(fp, 50.0, seed).bits == fp.bits

    @pytest.mark.parametrize("alpha", [0.8, 3.0])
    @pytest.mark.parametrize("dim", DIMS)
    def test_draw_order_contract(self, dim, alpha):
        # reimplement the documented contract bit by bit: Philox(seed),
        # d float64 draws in index order, keep iff u < p (strict)
        fp = self._fp(dim=dim)
        seed = 12345
        p = keep_probability(alpha)
        u = np.random.Generator(np.random.Philox(key=seed)).random(dim)
        bits = unpack_bits(fp.bits, dim)
        expected = [b if u[i] < p else 1 - b for i, b in enumerate(bits)]
        assert randomize(fp, alpha, seed).bits == _pack_per_bit(expected)

    def test_mean_distortion_tracks_theory(self):
        fp = self._fp()
        n = 200
        dists = [hamming(fp, randomize(fp, 1.0, s)) for s in range(n)]
        theory = expected_self_distortion(1.0, 768)
        p = keep_probability(1.0)
        stderr = math.sqrt(768 * p * (1 - p) / n)
        assert abs(np.mean(dists) - theory) <= 4 * stderr

    def test_carries_alpha_and_seed(self):
        out = randomize(self._fp(), PrivacyBudget(2.0), 9)
        assert out.alpha.alpha == 2.0
        assert out.noise_seed == 9
        assert out.dim == 768

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="uint64"):
            randomize(self._fp(), 1.0, -1)

    @pytest.mark.parametrize("dim", DIMS)
    def test_release_is_payload_xor_flips(self, dim):
        fp = self._fp(dim=dim)
        mask = flips(dim, 0.8, 99)
        assert mask.dtype == np.uint8 and mask.size == packed_length(dim)
        assert mask.tobytes() == _pack_per_bit(
            np.random.Generator(np.random.Philox(key=99)).random(dim)
            >= keep_probability(0.8))
        expected = np.frombuffer(fp.bits, dtype=np.uint8) ^ mask
        assert randomize(fp, 0.8, 99).bits == expected.tobytes()


REKEY_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2,
               2**64 - 1]


class TestSeededGenerator:
    """``philox`` is the one seeded generator; every seeded draw in the
    package goes through it."""

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_same_stream_as_a_fresh_philox(self, seed):
        fresh = np.random.Generator(np.random.Philox(key=seed))
        assert philox(seed).random(16).tobytes() == fresh.random(16).tobytes()

    def test_rekeyed_draws_equal_a_fresh_philox(self):
        # from two threads at once, each drawing odd sizes so that a stale
        # buffer or counter would show, then in a forked child after the
        # parent has drawn
        seeds = REKEY_SEEDS * 20

        def check(out):
            for seed in seeds:
                for size in (1, 5, 768):
                    got = rekeyed_philox(seed).random(size)
                    out.append(got.tobytes() == philox(seed).random(size).tobytes())

        results = [[], []]
        threads = [threading.Thread(target=check, args=(r,)) for r in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(results[0]) and all(results[1])
        assert len(results[0]) == len(results[1]) == 3 * len(seeds)
        if not hasattr(os, "fork") or sys.version_info >= (3, 12):
            return      # fork warns there once threads have run
        pid = os.fork()
        if pid == 0:
            ok = []
            try:
                check(ok)
            finally:
                os._exit(0 if ok and all(ok) else 1)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0

    @pytest.mark.parametrize("draw", [
        philox, SyntheticGenerator, lambda s: random_bit_rows(2, 8, s),
        lambda s: random_unit_rows(2, 8, s)])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, draw, seed):
        with pytest.raises(ValueError, match="uint64"):
            draw(seed)


class TestHamming:
    def test_identical_is_zero(self):
        fp = random_fingerprint(768, 5)
        assert hamming(fp, fp) == 0

    def test_four_bit_example(self):
        a = BinaryFingerprint(bits=pack_bits([1, 0, 1, 1]), dim=4)
        b = BinaryFingerprint(bits=pack_bits([1, 1, 1, 0]), dim=4)
        assert hamming(a, b) == 2

    def test_random_pair_mean_near_half_dim(self):
        dists = [hamming(random_fingerprint(768, 2 * i),
                         random_fingerprint(768, 2 * i + 1)) for i in range(200)]
        assert abs(np.mean(dists) - 384) <= 4 * 13.86 / math.sqrt(200)

    def test_dimension_mismatch_names_both(self):
        a = random_fingerprint(768, 1)
        b = random_fingerprint(512, 2)
        with pytest.raises(DimensionMismatch, match="768 vs 512"):
            hamming(a, b)

    def test_mixed_types_allowed(self):
        fp = random_fingerprint(64, 3)
        priv = randomize(fp, 2.0, 4)
        assert hamming(fp, priv) == naive_hamming_bits(fp.bits, priv.bits, 64)

    @given(st.integers(min_value=1, max_value=200), st.data())
    @settings(max_examples=50)
    def test_metric_properties(self, dim, data):
        seeds = data.draw(st.tuples(*[st.integers(0, 2**32)] * 3))
        a, b, c = (random_fingerprint(dim, s) for s in seeds)
        assert hamming(a, b) == hamming(b, a)
        assert (hamming(a, b) == 0) == (a.bits == b.bits)
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestPacking:
    def test_nine_bit_example(self):
        assert pack_bits([1, 0, 0, 0, 0, 0, 0, 0, 1]) == bytes([0x01, 0x01])

    def test_768_payload_length(self):
        assert packed_length(768) == 96
        assert len(pack_bits([0] * 768)) == 96

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=900))
    @settings(max_examples=80)
    def test_roundtrip_identity(self, bits):
        assert unpack_bits(pack_bits(bits), len(bits)).tolist() == bits

    def test_nonzero_padding_rejected(self):
        with pytest.raises(CorruptPayload, match="padding"):
            unpack_bits(b"\xff", 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(CorruptPayload, match="expected"):
            unpack_bits(b"\x00\x00", 3)

    def test_non_binary_values_rejected(self):
        with pytest.raises(ValueError):
            pack_bits([0, 2, 1])

    @pytest.mark.parametrize("bits", [[0.5, 1.9, 1, 0], [256, 0], [-1, 1]],
                             ids=["fractions", "256", "-1"])
    def test_values_checked_before_any_cast(self, bits):
        # a uint8 cast would truncate the fractions to 0/1 and overflow on
        # 256 and -1
        with pytest.raises(ValueError, match="only 0/1 values"):
            pack_bits(bits)

    def test_bool_and_float_bits_pack_like_ints(self):
        assert pack_bits([True, False, True]) == pack_bits([1.0, 0.0, 1.0]) == b"\x05"


class TestTypes:
    def test_embedding_length_validation(self):
        with pytest.raises(DimensionMismatch):
            DenseEmbedding(values=np.zeros(3), model_id="m", dim=4)

    def test_embedding_values_readonly(self):
        e = _embedding([1.0, -1.0])
        with pytest.raises(ValueError):
            e.values[0] = 5.0

    def test_privacy_budget_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0)
        assert PrivacyBudget.of(1.5).alpha == 1.5
        assert PrivacyBudget.of(PrivacyBudget(2.0)).alpha == 2.0

    def test_privacy_budget_rejects_int_too_large_for_a_float(self):
        for too_large in (10**400, 10**5000):
            with pytest.raises(ValueError, match="positive finite"):
                PrivacyBudget(too_large)
        assert type(PrivacyBudget(2).alpha) is float

    def test_fingerprint_padding_validation(self):
        with pytest.raises(CorruptPayload):
            BinaryFingerprint(bits=b"\xff", dim=3)

    def test_release_fields_validated_only_when_set(self):
        plain = quantize(_embedding([0.5, -0.5, 1.0]))
        assert (plain.alpha, plain.noise_seed) == (None, None)
        release = BinaryFingerprint(bits=plain.bits, dim=3, alpha=1.5, noise_seed=4)
        assert release.alpha == PrivacyBudget(1.5)
        assert isinstance(randomize(plain, 1.5, 4), BinaryFingerprint)
        with pytest.raises(ValueError, match="alpha"):
            BinaryFingerprint(bits=plain.bits, dim=3, alpha=0.0)
        with pytest.raises(ValueError, match="uint64"):
            BinaryFingerprint(bits=plain.bits, dim=3, noise_seed=2**64)
