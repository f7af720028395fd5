import math
from collections import Counter

import numpy as np
import pytest

from binaryshield.embeddings import PseudoEmbedder
from binaryshield.evaluation import (AlphaSweepResult, ConfusionMatrix,
                                     _fingerprint_rows, _labeled_rows,
                                     _pair_distances, _released,
                                     accuracy_at_k, alpha_sweep,
                                     calibrate_noise, pr_sweep, prpoint,
                                     storage_report)
from binaryshield.fingerprint import hamming, quantize, randomize
from binaryshield.records import CorpusRecord, PairRecord, VariantType
from binaryshield.simhash import simhash, simhash_distance
from binaryshield.synthetic import SyntheticGenerator
from binaryshield.textproc import derive_seed

from conftest import spearman_rank_correlation
# The dataset loaders' tests live in test_records.py beside the other
# readers'; this import also collects them here.
from test_records import TestLoaders  # noqa: F401


def _toy_pairs(n=20):
    """Perfectly separable: identical attack pairs, disjoint benign pairs."""
    pairs = []
    for i in range(n):
        text = f"attack payload token{i} alpha{i} beta{i} gamma{i} delta{i}"
        pairs.append(PairRecord(id=f"a{i}", prompt_a=text, prompt_b=text,
                                label=1, variant_type=VariantType.PARAPHRASE))
        pairs.append(PairRecord(
            id=f"b{i}", prompt_a=f"benign left{i} one{i} two{i} three{i}",
            prompt_b=f"other right{i} four{i} five{i} six{i}",
            label=0, variant_type=VariantType.BENIGN_PAIR))
    return pairs


def _confusion_oracle(distances, labels, tau):
    tp = sum(1 for d, y in zip(distances, labels) if y == 1 and d <= tau)
    fp = sum(1 for d, y in zip(distances, labels) if y == 0 and d <= tau)
    fn = sum(1 for d, y in zip(distances, labels) if y == 1 and d > tau)
    tn = sum(1 for d, y in zip(distances, labels) if y == 0 and d > tau)
    return tp, fp, tn, fn


def _distances(pairs, method, provider, alpha=None, seed=0):
    """Each pair's distance by the experiments' row path, and its bit count."""
    _, rows, dim = _labeled_rows(pairs, method, provider)
    return _pair_distances(pairs, rows, dim, alpha, seed), dim


class TestPRSweep:
    def test_separable_toy_set_perfect_f1(self, pseudo768):
        result = pr_sweep(_toy_pairs(), alpha=50.0, seed=1, provider=pseudo768)
        assert result.optimal.f1 == 1.0
        assert result.optimal.confusion.fp == 0
        assert result.optimal.confusion.fn == 0

    def test_single_class_rejected(self, pseudo768):
        attack_only = [p for p in _toy_pairs() if p.label == 1]
        with pytest.raises(ValueError, match="both labels"):
            pr_sweep(attack_only, provider=pseudo768)

    def test_tau_dim_classifies_everything_positive(self, pseudo768):
        result = pr_sweep(_toy_pairs(), alpha=None, provider=pseudo768)
        end = result.points[-1]
        assert end.tau == 768
        assert end.recall == 1.0
        assert end.confusion.tn == 0

    def test_tau_zero_on_noisy_pairs_all_negative_f1_zero(self, pseudo768):
        pairs = SyntheticGenerator(5).make_pairs(10, 10, rate=0.7)
        result = pr_sweep(pairs, alpha=0.5, seed=3, provider=pseudo768)
        start = result.points[0]
        assert start.tau == 0 and start.f1 == 0.0 and start.precision == 0.0

    def test_metrics_recomputable_from_confusion(self, pseudo768):
        result = pr_sweep(_toy_pairs(), alpha=2.0, seed=2, provider=pseudo768)
        for pt in result.points[::97]:
            cm = pt.confusion
            precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
            recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            assert abs(pt.precision - precision) < 1e-12
            assert abs(pt.recall - recall) < 1e-12
            assert abs(pt.f1 - f1) < 1e-12
            assert cm.total == len(_toy_pairs())

    def test_mirrored_confusion_metamorphic(self, pseudo768):
        # flipping labels and the predicate direction swaps tp<->tn, fp<->fn
        pairs = SyntheticGenerator(6).make_pairs(15, 15, rate=0.7)
        distances, dim = _distances(pairs, "binaryshield", pseudo768, 2.0, 4)
        labels = [p.label for p in pairs]
        result = pr_sweep(pairs, alpha=2.0, seed=4, provider=pseudo768)
        for pt in result.points[::101]:
            tp, fp, tn, fn = _confusion_oracle(distances, labels, pt.tau)
            assert (pt.confusion.tp, pt.confusion.fp) == (tp, fp)
            flipped = [1 - y for y in labels]
            ftp, ffp, ftn, ffn = _confusion_oracle(
                [-d for d in distances], flipped, -(pt.tau + 1))
            # pred' = dist > tau encoded via negated distances
            assert (ftp, ffp, ftn, ffn) == (tn, fn, tp, fp)

    def test_optimal_tie_breaks_to_smallest_tau(self, pseudo768):
        result = pr_sweep(_toy_pairs(), alpha=None, provider=pseudo768)
        best = result.optimal
        same_f1 = [pt for pt in result.points if pt.f1 == best.f1]
        assert best.tau == min(pt.tau for pt in same_f1)

    def test_simhash_method_uses_64_bit_range(self, pseudo768):
        result = pr_sweep(_toy_pairs(), "simhash", provider=pseudo768)
        assert result.points[-1].tau == 64
        assert result.method == "simhash"

    def test_method_is_named(self, pseudo768):
        result = pr_sweep(_toy_pairs(), "binaryshield", alpha=1.0, seed=3,
                          provider=pseudo768)
        assert result.method == "binaryshield"

    def test_unknown_method_rejected(self, pseudo768):
        with pytest.raises(ValueError, match="unknown method 'quantum'"):
            pr_sweep(_toy_pairs(), "quantum", provider=pseudo768)

    def test_csv_schema(self, pseudo768):
        text = pr_sweep(_toy_pairs(), alpha=None, provider=pseudo768).to_csv()
        lines = text.splitlines()
        assert lines[0] == "# binaryshield pr-sweep schema v1"
        assert lines[1] == "tau,precision,recall,f1,accuracy,tp,fp,tn,fn"
        assert len(lines) == 2 + 769


@pytest.fixture(scope="module")
def pairs():
    return SyntheticGenerator(8).make_pairs(60, 60, rate=0.7)


@pytest.fixture(scope="module")
def calibration():
    return calibrate_noise(150, [0.2, 1.0, 2.0], dim=768, seed=3,
                           baseline_pairs=300)


class TestAlphaSweep:
    def test_f1_increases_with_alpha(self, pairs, pseudo768):
        result = alpha_sweep(pairs, [0.25, 0.75, 1.5, 2.5], seeds_per_alpha=2,
                             base_seed=5, provider=pseudo768)
        f1s = [row.mean_f1 for row in result.rows]
        rho = spearman_rank_correlation([r.alpha for r in result.rows], f1s)
        assert rho >= 0.9

    def test_alpha_50_equals_zero_noise_exactly(self, pairs, pseudo768):
        noiseless = pr_sweep(pairs, alpha=None, provider=pseudo768).optimal.f1
        result = alpha_sweep(pairs, [50.0], seeds_per_alpha=3, base_seed=6,
                             provider=pseudo768)
        assert result.rows[0].mean_f1 == noiseless

    def test_csv_schema(self, pairs, pseudo768):
        result = alpha_sweep(pairs, [1.0], seeds_per_alpha=1, provider=pseudo768)
        lines = result.to_csv().splitlines()
        assert lines[0] == "# binaryshield alpha-sweep schema v1"
        assert lines[1].startswith("alpha,mean_f1,")
        assert isinstance(result, AlphaSweepResult)

    @pytest.mark.parametrize("alphas, seeds, match", [
        ([], 2, "at least one alpha"),
        ([1.0], 0, "seeds_per_alpha must be >= 1"),
    ])
    def test_empty_sweep_rejected(self, pairs, pseudo768, alphas, seeds, match):
        with pytest.raises(ValueError, match=match):
            alpha_sweep(pairs, alphas, seeds_per_alpha=seeds, provider=pseudo768)


class _CountingEmbedder(PseudoEmbedder):
    def __init__(self):
        super().__init__(dim=768)
        self.calls: Counter = Counter()

    def embed(self, text):
        self.calls[text] += 1
        return super().embed(text)


class TestFingerprintRows:
    """The experiments' row form against the one-record release path."""

    @pytest.mark.parametrize("alpha", [None, 1.5])
    @pytest.mark.parametrize("dim", [75, 768])
    def test_rows_equal_per_record_releases(self, dim, alpha):
        provider = PseudoEmbedder(dim=dim)
        texts = [p.prompt_a for p in SyntheticGenerator(12).make_pairs(15, 15)]
        texts += texts[:5]  # repeated texts get their own noise
        seeds = [derive_seed(7, "row", i) for i in range(len(texts))]
        rows = _released(_fingerprint_rows(texts, provider), dim, alpha, seeds)
        assert rows.shape == (len(texts), (dim + 7) // 8)
        for row, text, seed in zip(rows, texts, seeds):
            fp = quantize(provider.embed(text))
            expected = fp if alpha is None else randomize(fp, alpha, seed)
            assert row.tobytes() == expected.bits

    @pytest.mark.parametrize("alpha", [None, 1.5])
    @pytest.mark.parametrize("dim", [75, 768])
    def test_row_distances_equal_per_pair_hamming(self, dim, alpha):
        provider = PseudoEmbedder(dim=dim)
        pairs = SyntheticGenerator(13).make_pairs(15, 15, rate=0.7)
        distances, got_dim = _distances(pairs, "binaryshield", provider, alpha, 7)

        def release(text, pair_id, side):
            fp = quantize(provider.embed(text))
            return fp if alpha is None else randomize(
                fp, alpha, derive_seed(7, pair_id, side))
        expected = [hamming(release(p.prompt_a, p.id, "a"),
                            release(p.prompt_b, p.id, "b")) for p in pairs]
        assert got_dim == dim
        assert distances.dtype == np.int64
        assert distances.tolist() == expected

    def test_simhash_row_distances_equal_simhash_distance(self):
        pairs = SyntheticGenerator(13).make_pairs(15, 15, rate=0.7)
        distances, dim = _distances(pairs, "simhash", None)
        expected = [simhash_distance(simhash(p.prompt_a), simhash(p.prompt_b))
                    for p in pairs]
        assert dim == 64
        assert distances.tolist() == expected

    def test_sweeps_embed_each_distinct_text_once(self, pairs):
        once = Counter({t: 1 for p in pairs for t in (p.prompt_a, p.prompt_b)})
        provider = _CountingEmbedder()
        alpha_sweep(pairs, [0.5, 1.0, 2.0], seeds_per_alpha=3, provider=provider)
        assert provider.calls == once
        provider = _CountingEmbedder()
        pr_sweep(pairs, alpha=1.0, provider=provider)
        assert provider.calls == once


class TestCalibrateNoise:
    def test_rows_track_theory_within_4_stderr(self, calibration):
        for row in calibration.rows:
            assert abs(row.empirical_mean - row.theoretical_mean) <= \
                4 * row.std_error()

    def test_baseline_near_half_dim(self, calibration):
        assert abs(calibration.baseline_mean - 384) <= 4 * 13.86 / math.sqrt(300)
        assert 11.0 <= calibration.baseline_std <= 17.0

    def test_minimum_prompt_count_enforced(self):
        with pytest.raises(ValueError, match="100"):
            calibrate_noise(50, [1.0])

    def test_empty_alphas_rejected(self):
        with pytest.raises(ValueError, match="at least one alpha"):
            calibrate_noise(100, [])

    def test_csv_has_baseline_row(self, calibration):
        lines = calibration.to_csv().splitlines()
        assert lines[0] == "# binaryshield noise-calibration schema v1"
        assert lines[-1].startswith("random_baseline,")


class TestAccuracyAtK:
    def _corpus_with_duplicate_query(self):
        corpus, queries = SyntheticGenerator(9).make_hybrid_corpus(
            300, n_groups=6, variants_per_group=2)
        # plant an exact duplicate of each group's v0 as the query
        exact = [CorpusRecord(id=f"q-{r.attack_group}", text=r.text,
                              is_attack=True, attack_group=r.attack_group)
                 for r in corpus if r.is_attack and r.id.endswith("-v0")]
        return corpus, exact

    def test_exact_duplicate_no_noise_accuracy_one(self, pseudo768):
        corpus, queries = self._corpus_with_duplicate_query()
        result = accuracy_at_k(corpus, queries, method="binaryshield",
                               k_values=[1], alpha=None, provider=pseudo768)
        assert dict(result.rows)[1] == 1.0

    def test_non_decreasing_in_k(self, pseudo768):
        corpus, queries = SyntheticGenerator(10).make_hybrid_corpus(
            400, n_groups=8, variants_per_group=3)
        result = accuracy_at_k(corpus, queries, method="binaryshield",
                               k_values=[1, 3, 5, 10], alpha=1.0, seed=2,
                               provider=pseudo768)
        accs = [acc for _, acc in result.rows]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_missing_group_precondition_lists_offenders(self, pseudo768):
        corpus, queries = SyntheticGenerator(11).make_hybrid_corpus(
            100, n_groups=2, variants_per_group=2)
        rogue = CorpusRecord(id="rogue", text="zzz", is_attack=True,
                             attack_group="grp-ghost")
        with pytest.raises(ValueError, match="grp-ghost"):
            accuracy_at_k(corpus, queries + [rogue], provider=pseudo768)

    def test_dense_and_simhash_methods_run(self, pseudo768):
        corpus, queries = self._corpus_with_duplicate_query()
        dense = accuracy_at_k(corpus, queries, method="dense", k_values=[1],
                              provider=pseudo768)
        assert dict(dense.rows)[1] == 1.0
        sim = accuracy_at_k(corpus, queries, method="simhash", k_values=[1, 3],
                            provider=pseudo768)
        assert 0.0 <= dict(sim.rows)[1] <= 1.0
        assert sim.method == "simhash"

    def test_unknown_method_rejected(self, pseudo768):
        corpus, queries = self._corpus_with_duplicate_query()
        with pytest.raises(ValueError, match="unknown method"):
            accuracy_at_k(corpus, queries, method="quantum", provider=pseudo768)

    def test_empty_k_list_rejected(self, pseudo768):
        corpus, queries = self._corpus_with_duplicate_query()
        with pytest.raises(ValueError, match="non-empty list"):
            accuracy_at_k(corpus, queries, k_values=[], provider=pseudo768)


class TestStorageReport:
    def test_float64_ratio_exactly_64(self):
        assert storage_report(10_000, 768, float_bytes=8).ratio == 64.0

    def test_float32_ratio_exactly_32(self):
        assert storage_report(5_000, 768, float_bytes=4).ratio == 32.0

    def test_binary_payload_bytes(self):
        report = storage_report(10_000, 768, float_bytes=8)
        assert report.binary_bytes == 960_000
        assert report.dense_bytes == 10_000 * 768 * 8

    def test_non_multiple_of_8_uses_ceil(self):
        report = storage_report(10, 12, float_bytes=4)
        assert report.binary_bytes == 10 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            storage_report(0, 768)
        with pytest.raises(ValueError):
            storage_report(10, 768, float_bytes=2)

    def test_csv(self):
        report = storage_report(100, 768, float_bytes=8, measured_binary_bytes=12345)
        lines = report.to_csv().splitlines()
        assert lines[0] == "# binaryshield storage schema v1"
        assert lines[-1].endswith(",12345")


class TestCsvDeterminism:
    def test_identical_config_identical_csv_bytes(self, pseudo768):
        pairs = SyntheticGenerator(14).make_pairs(25, 25, rate=0.7)

        def run_all():
            return (pr_sweep(pairs, alpha=1.5, seed=9, provider=pseudo768).to_csv()
                    + alpha_sweep(pairs, [0.5, 2.0], seeds_per_alpha=2,
                                  base_seed=9, provider=pseudo768).to_csv()
                    + calibrate_noise(100, [1.0], dim=768, seed=9,
                                      baseline_pairs=100).to_csv())

        assert run_all() == run_all()


class TestSpearman:
    def test_perfect_and_reversed(self):
        assert spearman_rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0
        assert spearman_rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_ties_use_average_ranks(self):
        rho = spearman_rank_correlation([1, 2, 3, 4], [1, 1, 2, 2])
        assert 0.85 <= rho <= 0.95

    def test_constant_input_is_zero(self):
        assert spearman_rank_correlation([1, 2, 3], [5, 5, 5]) == 0.0


class TestConfusionTypes:
    def test_counts_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)

    def test_prpoint_zero_division_convention(self):
        pt = prpoint(0, ConfusionMatrix(tp=0, fp=0, tn=5, fn=5))
        assert pt.precision == 0.0 and pt.recall == 0.0 and pt.f1 == 0.0
