"""Metrics, threshold calibration, privacy-utility sweeps, noise
calibration, retrieval accuracy, and storage accounting.

The experiments take records already loaded; reading and writing dataset
JSONL lives in :mod:`binaryshield.records`.

Every experiment is seed-deterministic end to end: identical inputs and
seeds produce identical CSV bytes. All metrics are recomputable from the
emitted confusion matrices.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import PseudoEmbedder
from .fingerprint import (BinaryFingerprint, expected_self_distortion, hamming,
                          packed_length, quantize, randomize, random_fingerprint)
from .records import CorpusRecord, PairRecord
from .simhash import SIMHASH_BITS, simhash, simhash_distance
from .store import FingerprintStore, StoredFingerprint
from .synthetic import SyntheticGenerator
from .textproc import derive_seed

CSV_SCHEMA_VERSION = 1


def _schema_line(name: str) -> str:
    return f"# binaryshield {name} schema v{CSV_SCHEMA_VERSION}\n"


# -- metric types --------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class PRPoint:
    tau: int
    precision: float
    recall: float
    f1: float
    accuracy: float
    confusion: ConfusionMatrix


def prpoint(tau: int, cm: ConfusionMatrix) -> PRPoint:
    """Derive the point metrics; 0/0 ratios are defined as 0."""
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall > 0 else 0.0)
    accuracy = (cm.tp + cm.tn) / cm.total if cm.total else 0.0
    return PRPoint(tau=tau, precision=precision, recall=recall, f1=f1,
                   accuracy=accuracy, confusion=cm)


# -- fingerprinting methods ------------------------------------------------------

@dataclass(frozen=True)
class BinaryShieldMethod:
    """Embed -> quantize -> (optionally) randomize; alpha None disables the
    noise layer (the zero-noise pipeline)."""

    alpha: float | None = 2.0
    seed: int = 0

    def label(self) -> str:
        noise = "none" if self.alpha is None else f"{self.alpha:g}"
        return f"binaryshield(alpha={noise},seed={self.seed})"


@dataclass(frozen=True)
class SimHashMethod:
    def label(self) -> str:
        return "simhash"


Method = BinaryShieldMethod | SimHashMethod


def _distances_by_pair(pairs: Sequence[PairRecord], method: Method,
                       provider) -> tuple[np.ndarray, int]:
    """Per-pair fingerprint distance and the fingerprint dimension."""
    if isinstance(method, SimHashMethod):
        dist = np.fromiter(
            (simhash_distance(simhash(p.prompt_a), simhash(p.prompt_b))
             for p in pairs), count=len(pairs), dtype=np.int64)
        return dist, SIMHASH_BITS
    base: dict[str, BinaryFingerprint] = {}
    for p in pairs:
        for text in (p.prompt_a, p.prompt_b):
            if text not in base:
                base[text] = quantize(provider.embed(text))
    out = np.empty(len(pairs), dtype=np.int64)
    for i, p in enumerate(pairs):
        fa, fb = base[p.prompt_a], base[p.prompt_b]
        if method.alpha is not None:
            fa = randomize(fa, method.alpha, derive_seed(method.seed, p.id, "a"))
            fb = randomize(fb, method.alpha, derive_seed(method.seed, p.id, "b"))
        out[i] = hamming(fa, fb)
    return out, provider.dim


def _curve(distances: np.ndarray, labels: np.ndarray,
           taus: Sequence[int]) -> list[PRPoint]:
    dim = int(max(distances.max(initial=0), max(taus, default=0)))
    attack = np.bincount(distances[labels == 1], minlength=dim + 1).cumsum()
    benign = np.bincount(distances[labels == 0], minlength=dim + 1).cumsum()
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    points = []
    for tau in taus:
        tp = int(attack[min(tau, dim)])
        fp = int(benign[min(tau, dim)])
        points.append(prpoint(tau, ConfusionMatrix(
            tp=tp, fp=fp, tn=n_neg - fp, fn=n_pos - tp)))
    return points


@dataclass
class PRSweepResult:
    method: str
    points: list[PRPoint]
    optimal: PRPoint

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_schema_line("pr-sweep"))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["tau", "precision", "recall", "f1", "accuracy",
                         "tp", "fp", "tn", "fn"])
        for pt in self.points:
            writer.writerow([pt.tau, f"{pt.precision:.6f}", f"{pt.recall:.6f}",
                             f"{pt.f1:.6f}", f"{pt.accuracy:.6f}",
                             pt.confusion.tp, pt.confusion.fp,
                             pt.confusion.tn, pt.confusion.fn])
        return buf.getvalue()


def pr_sweep(pairs: Sequence[PairRecord], method: Method,
             tau_range: Sequence[int] | None = None,
             provider=None) -> PRSweepResult:
    """Sweep integer thresholds over pair distances; a pair is predicted an
    attack pair iff distance <= tau. Optimal point maximizes F1, ties going
    to the smallest tau."""
    if not pairs:
        raise ValueError("pr_sweep requires a non-empty pair set")
    labels = np.fromiter((p.label for p in pairs), count=len(pairs), dtype=np.int64)
    if labels.min() == labels.max():
        raise ValueError("pr_sweep requires both labels present; "
                         "metrics are undefined on a single class")
    provider = provider or PseudoEmbedder()
    distances, dim = _distances_by_pair(pairs, method, provider)
    taus = list(tau_range) if tau_range is not None else list(range(dim + 1))
    points = _curve(distances, labels, taus)
    optimal = max(points, key=lambda pt: (pt.f1, -pt.tau))
    return PRSweepResult(method=method.label(), points=points, optimal=optimal)


@dataclass
class AlphaSweepRow:
    alpha: float
    mean_f1: float
    mean_precision: float
    mean_recall: float
    mean_optimal_tau: float
    confusion: ConfusionMatrix  # summed over seeds at each seed's optimum


@dataclass
class AlphaSweepResult:
    rows: list[AlphaSweepRow]
    seeds_per_alpha: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_schema_line("alpha-sweep"))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alpha", "mean_f1", "mean_precision", "mean_recall",
                         "mean_optimal_tau", "tp", "fp", "tn", "fn"])
        for row in self.rows:
            writer.writerow([f"{row.alpha:g}", f"{row.mean_f1:.6f}",
                             f"{row.mean_precision:.6f}", f"{row.mean_recall:.6f}",
                             f"{row.mean_optimal_tau:.2f}", row.confusion.tp,
                             row.confusion.fp, row.confusion.tn, row.confusion.fn])
        return buf.getvalue()


def alpha_sweep(pairs: Sequence[PairRecord], alphas: Sequence[float],
                seeds_per_alpha: int = 5, base_seed: int = 0,
                provider=None) -> AlphaSweepResult:
    """Run pr_sweep per (alpha, seed) and average the optimal-point metrics
    over seeds for each alpha."""
    provider = provider or PseudoEmbedder()
    rows = []
    for a_idx, alpha in enumerate(alphas):
        optima = []
        for s in range(seeds_per_alpha):
            seed = derive_seed(base_seed, a_idx, s)
            result = pr_sweep(pairs, BinaryShieldMethod(alpha=alpha, seed=seed),
                              provider=provider)
            optima.append(result.optimal)
        cm = ConfusionMatrix(tp=sum(o.confusion.tp for o in optima),
                             fp=sum(o.confusion.fp for o in optima),
                             tn=sum(o.confusion.tn for o in optima),
                             fn=sum(o.confusion.fn for o in optima))
        rows.append(AlphaSweepRow(
            alpha=float(alpha),
            mean_f1=float(np.mean([o.f1 for o in optima])),
            mean_precision=float(np.mean([o.precision for o in optima])),
            mean_recall=float(np.mean([o.recall for o in optima])),
            mean_optimal_tau=float(np.mean([o.tau for o in optima])),
            confusion=cm))
    return AlphaSweepResult(rows=rows, seeds_per_alpha=seeds_per_alpha)


# -- noise calibration ------------------------------------------------------------

@dataclass
class NoiseCalibrationRow:
    alpha: float
    dim: int
    empirical_mean: float
    empirical_std: float
    theoretical_mean: float
    n: int

    def std_error(self) -> float:
        # binomial std-err of the mean: sqrt(d * p * (1-p) / n), with
        # d * p * (1-p) rewritten through theoretical_mean = (1-p) * d
        var = self.theoretical_mean * (1 - self.theoretical_mean / self.dim)
        return math.sqrt(var / self.n)


@dataclass
class NoiseCalibration:
    dim: int
    rows: list[NoiseCalibrationRow]
    baseline_mean: float
    baseline_std: float
    baseline_pairs: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_schema_line("noise-calibration"))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alpha", "empirical_mean", "empirical_std",
                         "theoretical_mean", "n"])
        for row in self.rows:
            writer.writerow([f"{row.alpha:g}", f"{row.empirical_mean:.4f}",
                             f"{row.empirical_std:.4f}",
                             f"{row.theoretical_mean:.4f}", row.n])
        writer.writerow(["random_baseline", f"{self.baseline_mean:.4f}",
                         f"{self.baseline_std:.4f}", f"{self.dim / 2:.4f}",
                         self.baseline_pairs])
        return buf.getvalue()


def calibrate_noise(n_prompts: int, alphas: Sequence[float], dim: int = 768,
                    seed: int = 0, provider=None,
                    baseline_pairs: int = 1000) -> NoiseCalibration:
    """Measure self-Hamming distortion against the (1-p)d theory curve.

    Fingerprints n_prompts synthetic prompts once, randomizes each once per
    alpha, and reports mean/std against theory, plus the independent
    random-pair baseline (expected mean d/2, std sqrt(d)/2).
    """
    if n_prompts < 100:
        raise ValueError(f"n_prompts must be >= 100, got {n_prompts}")
    provider = provider or PseudoEmbedder(dim=dim)
    gen = SyntheticGenerator(seed)
    bases = [quantize(provider.embed(gen.attack_prompt(salt=i)))
             for i in range(n_prompts)]
    rows = []
    for a_idx, alpha in enumerate(alphas):
        dists = np.empty(n_prompts, dtype=np.int64)
        for i, b in enumerate(bases):
            noisy = randomize(b, alpha, derive_seed(seed, "cal", a_idx, i))
            dists[i] = hamming(b, noisy)
        rows.append(NoiseCalibrationRow(
            alpha=float(alpha), dim=dim, empirical_mean=float(dists.mean()),
            empirical_std=float(dists.std(ddof=1)),
            theoretical_mean=expected_self_distortion(alpha, dim), n=n_prompts))
    base_dists = np.empty(baseline_pairs, dtype=np.int64)
    for i in range(baseline_pairs):
        a = random_fingerprint(dim, derive_seed(seed, "rnd", i, 0))
        b = random_fingerprint(dim, derive_seed(seed, "rnd", i, 1))
        base_dists[i] = hamming(a, b)
    return NoiseCalibration(dim=dim, rows=rows,
                            baseline_mean=float(base_dists.mean()),
                            baseline_std=float(base_dists.std(ddof=1)),
                            baseline_pairs=baseline_pairs)


# -- retrieval accuracy ------------------------------------------------------------

@dataclass
class AccuracyResult:
    method: str
    corpus_size: int
    n_queries: int
    rows: list[tuple[int, float]]  # (k, accuracy)

    def accuracy_at(self, k: int) -> float:
        for kk, acc in self.rows:
            if kk == k:
                return acc
        raise KeyError(k)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_schema_line("accuracy-at-k"))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", "corpus_size", "k", "accuracy"])
        for k, acc in self.rows:
            writer.writerow([self.method, self.corpus_size, k, f"{acc:.6f}"])
        return buf.getvalue()


def accuracy_at_k(corpus: Sequence[CorpusRecord], queries: Sequence[CorpusRecord],
                  method: str = "binaryshield", k_values: Sequence[int] = (1, 3, 5),
                  alpha: float | None = 2.0, seed: int = 0,
                  provider=None) -> AccuracyResult:
    """Fraction of queries whose attack group appears in the top-k results.

    method: "binaryshield" (privatized packed Hamming), "simhash" (64-bit),
    or "dense" (non-private float cosine baseline).
    """
    groups_in_corpus = {r.attack_group for r in corpus if r.attack_group}
    offenders = sorted({q.attack_group for q in queries
                        if q.attack_group not in groups_in_corpus})
    if offenders:
        raise ValueError(
            f"queries reference attack groups absent from the corpus: {offenders}")
    if not queries:
        raise ValueError("accuracy_at_k requires at least one query")
    k_values = sorted(set(int(k) for k in k_values))
    if k_values[0] < 1:
        raise ValueError("k values must be >= 1")
    provider = provider or PseudoEmbedder()
    group_of = {r.id: r.attack_group for r in corpus}
    max_k = k_values[-1]
    hits = {k: 0 for k in k_values}

    if method == "dense":
        matrix = np.vstack([provider.embed(r.text).values for r in corpus])
        matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        ids = [r.id for r in corpus]
        for q in queries:
            vec = provider.embed(q.text).values
            vec = vec / np.linalg.norm(vec)
            scores = matrix @ vec
            top = np.argsort(-scores, kind="stable")[:max_k]
            _tally(hits, k_values, [ids[i] for i in top], group_of, q.attack_group)
        return _accuracy_result("dense", len(corpus), len(queries), hits, k_values)

    store = FingerprintStore()
    if method == "simhash":
        for r in corpus:
            fp = simhash(r.text)
            store.insert(StoredFingerprint(
                id=r.id, bits=fp.bits.to_bytes(8, "little"), dim=SIMHASH_BITS))
        def query_bits(rec):
            return simhash(rec.text).bits.to_bytes(8, "little")
    elif method == "binaryshield":
        def query_bits(rec, tag="query"):
            fp = quantize(provider.embed(rec.text))
            if alpha is None:
                return fp.bits
            return randomize(fp, alpha, derive_seed(seed, tag, rec.id)).bits
        for r in corpus:
            store.insert(StoredFingerprint(id=r.id, bits=query_bits(r, "corpus"),
                                           dim=provider.dim, alpha=alpha))
    else:
        raise ValueError(f"unknown method {method!r}")

    for q in queries:
        results = store.search_topk(query_bits(q), max_k)
        _tally(hits, k_values, [r.id for r in results], group_of, q.attack_group)
    return _accuracy_result(method, len(corpus), len(queries), hits, k_values)


def _tally(hits, k_values, result_ids, group_of, target_group):
    for k in k_values:
        if any(group_of.get(rid) == target_group for rid in result_ids[:k]):
            hits[k] += 1


def _accuracy_result(method, corpus_size, n_queries, hits, k_values):
    rows = [(k, hits[k] / n_queries) for k in k_values]
    return AccuracyResult(method=method, corpus_size=corpus_size,
                          n_queries=n_queries, rows=rows)


# -- storage accounting ------------------------------------------------------------

@dataclass
class StorageReport:
    count: int
    dim: int
    float_bytes: int
    dense_bytes: int
    binary_bytes: int
    ratio: float
    measured_binary_bytes: int | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(_schema_line("storage"))
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["count", "dim", "float_bytes", "dense_bytes",
                         "binary_bytes", "ratio", "measured_binary_bytes"])
        writer.writerow([self.count, self.dim, self.float_bytes, self.dense_bytes,
                         self.binary_bytes, f"{self.ratio:.4f}",
                         "" if self.measured_binary_bytes is None
                         else self.measured_binary_bytes])
        return buf.getvalue()


def storage_report(count: int, dim: int, float_bytes: int = 4,
                   measured_binary_bytes: int | None = None) -> StorageReport:
    """Dense vs packed-binary payload accounting for one corpus."""
    if count < 1 or dim < 1:
        raise ValueError("count and dim must be positive")
    if float_bytes not in (4, 8):
        raise ValueError(f"float_bytes must be 4 or 8, got {float_bytes}")
    dense = count * dim * float_bytes
    binary = count * packed_length(dim)
    return StorageReport(count=count, dim=dim, float_bytes=float_bytes,
                         dense_bytes=dense, binary_bytes=binary,
                         ratio=dense / binary,
                         measured_binary_bytes=measured_binary_bytes)


# -- small statistics helpers ------------------------------------------------------

def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho with average ranks for ties (no scipy dependency)."""
    def ranks(values):
        arr = np.asarray(values, dtype=np.float64)
        order = np.argsort(arr, kind="stable")
        r = np.empty(arr.size, dtype=np.float64)
        i = 0
        while i < arr.size:
            j = i
            while j + 1 < arr.size and arr[order[j + 1]] == arr[order[i]]:
                j += 1
            r[order[i:j + 1]] = (i + j) / 2 + 1
            i = j + 1
        return r
    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx ** 2).sum()) * float((ry ** 2).sum()))
    return float((rx * ry).sum() / denom) if denom else 0.0
