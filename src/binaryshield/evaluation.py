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
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import PseudoEmbedder
from .fingerprint import (expected_self_distortion, flips, packed_length,
                          quantize, random_fingerprint)
from .records import CorpusRecord, PairRecord
from .simhash import SIMHASH_BITS, simhash
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


# -- fingerprint rows: one packed uint8 row per record ---------------------------

def _rows(payloads: Sequence[bytes], dim: int) -> np.ndarray:
    return np.frombuffer(b"".join(payloads), dtype=np.uint8).reshape(
        len(payloads), packed_length(dim))


def _fingerprint_rows(texts: Sequence[str], provider) -> np.ndarray:
    """The noiseless fingerprint row of each text; each distinct text is
    embedded once, in one ``embed_batch`` call."""
    index: dict[str, int] = {}
    order = [index.setdefault(t, len(index)) for t in texts]
    embeddings = provider.embed_batch(list(index))
    return _rows([quantize(e).bits for e in embeddings], provider.dim)[order]


def _method_rows(texts: Sequence[str], method: str,
                 provider) -> tuple[np.ndarray, int]:
    """Each text's noiseless row under ``method``, and the rows' bit count:
    "binaryshield" quantizes the provider's embedding, "simhash" is the
    64-bit SimHash (which has no noise layer)."""
    if method == "binaryshield":
        return _fingerprint_rows(texts, provider), provider.dim
    if method == "simhash":
        return _rows([simhash(t).bits.to_bytes(8, "little") for t in texts],
                     SIMHASH_BITS), SIMHASH_BITS
    raise ValueError(f"unknown method {method!r}")


def _released(rows: np.ndarray, dim: int, alpha: float | None,
              seeds: Sequence[int]) -> np.ndarray:
    """Each row XOR its release's flip mask (row i under ``seeds[i]``);
    alpha None is the zero-noise pipeline."""
    if alpha is None:
        return rows
    return rows ^ np.vstack([flips(dim, alpha, s) for s in seeds])


def _popcounts(rows: np.ndarray) -> np.ndarray:
    """Set bits per row; of ``a ^ b``, the Hamming distance of each row pair."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def _labeled_rows(pairs: Sequence[PairRecord], method: str,
                  provider) -> tuple[np.ndarray, np.ndarray, int]:
    """The pairs' labels, the noiseless rows of their a sides then their b
    sides, and the rows' bit count."""
    if not pairs:
        raise ValueError("pr_sweep requires a non-empty pair set")
    labels = np.fromiter((p.label for p in pairs), count=len(pairs), dtype=np.int64)
    if labels.min() == labels.max():
        raise ValueError("pr_sweep requires both labels present; "
                         "metrics are undefined on a single class")
    texts = [p.prompt_a for p in pairs] + [p.prompt_b for p in pairs]
    return labels, *_method_rows(texts, method, provider or PseudoEmbedder())


def _pair_distances(pairs: Sequence[PairRecord], rows: np.ndarray, dim: int,
                    alpha: float | None, seed: int) -> np.ndarray:
    """Distance between each pair's two releases under one noise seed."""
    seeds = [derive_seed(seed, p.id, side) for side in "ab" for p in pairs]
    a, b = _released(rows, dim, alpha, seeds).reshape(2, len(pairs), -1)
    return _popcounts(a ^ b)


def _curve(distances: np.ndarray, labels: np.ndarray, dim: int) -> list[PRPoint]:
    """One point per threshold tau in 0..dim; at tau = dim every pair is
    predicted positive, so the last cumulative counts are the class sizes."""
    tps, fps = (np.bincount(distances[labels == y], minlength=dim + 1).cumsum().tolist()
                for y in (1, 0))
    return [prpoint(tau, ConfusionMatrix(tp=tp, fp=fp, tn=fps[-1] - fp,
                                         fn=tps[-1] - tp))
            for tau, (tp, fp) in enumerate(zip(tps, fps))]


def _optimum(points: list[PRPoint]) -> PRPoint:
    """The point of highest F1, ties going to the smallest tau."""
    return max(points, key=lambda pt: (pt.f1, -pt.tau))


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


def pr_sweep(pairs: Sequence[PairRecord], method: str = "binaryshield",
             alpha: float | None = 2.0, seed: int = 0,
             provider=None) -> PRSweepResult:
    """Sweep every integer threshold 0..dim over pair distances; a pair is
    predicted an attack pair iff distance <= tau. Optimal point maximizes
    F1, ties going to the smallest tau. Method "binaryshield" releases each
    side under alpha (None: no noise); "simhash" has no noise layer."""
    labels, rows, dim = _labeled_rows(pairs, method, provider)
    distances = _pair_distances(pairs, rows, dim,
                                alpha if method == "binaryshield" else None, seed)
    points = _curve(distances, labels, dim)
    return PRSweepResult(method=method, points=points, optimal=_optimum(points))


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
    over seeds for each alpha. The pairs are fingerprinted once; each
    (alpha, seed) draws only its own noise."""
    if not alphas:
        raise ValueError("alpha_sweep requires at least one alpha")
    if seeds_per_alpha < 1:
        raise ValueError(f"seeds_per_alpha must be >= 1, got {seeds_per_alpha}")
    labels, pair_rows, dim = _labeled_rows(pairs, "binaryshield", provider)
    rows = []
    for a_idx, alpha in enumerate(alphas):
        optima = []
        for s in range(seeds_per_alpha):
            seed = derive_seed(base_seed, a_idx, s)
            distances = _pair_distances(pairs, pair_rows, dim, alpha, seed)
            optima.append(_optimum(_curve(distances, labels, dim)))
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
                    seed: int = 0, baseline_pairs: int = 1000) -> NoiseCalibration:
    """Measure the noise layer's self-Hamming distortion against the (1-p)d
    theory curve.

    A release's distance from its own fingerprint is the popcount of its
    flip mask, whatever the fingerprint, so n_prompts releases of the
    all-zero fingerprint per alpha stand in for embedded prompts. It reports
    mean/std against theory, plus the independent random-pair baseline
    (expected mean d/2, std sqrt(d)/2).
    """
    if n_prompts < 100:
        raise ValueError(f"n_prompts must be >= 100, got {n_prompts}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if not alphas:
        raise ValueError("calibrate_noise requires at least one alpha")
    zero = np.zeros((n_prompts, packed_length(dim)), dtype=np.uint8)
    rows = []
    for a_idx, alpha in enumerate(alphas):
        seeds = [derive_seed(seed, "cal", a_idx, i) for i in range(n_prompts)]
        dists = _popcounts(_released(zero, dim, alpha, seeds))
        rows.append(NoiseCalibrationRow(
            alpha=float(alpha), dim=dim, empirical_mean=float(dists.mean()),
            empirical_std=float(dists.std(ddof=1)),
            theoretical_mean=expected_self_distortion(alpha, dim), n=n_prompts))
    a, b = (_rows([random_fingerprint(dim, derive_seed(seed, "rnd", i, side)).bits
                   for i in range(baseline_pairs)], dim) for side in (0, 1))
    base_dists = _popcounts(a ^ b)
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
    """Fraction of queries whose attack group appears in the top-k results,
    nearest first with ties in corpus order (``search_topk``'s order).

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
    if not k_values or k_values[0] < 1:
        raise ValueError("k values must be a non-empty list of integers >= 1")
    provider = provider or PseudoEmbedder()
    if method == "dense":
        matrix = np.vstack([provider.embed(r.text).values for r in corpus])
        matrix = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        vectors = (provider.embed(q.text).values for q in queries)
        keys = (-(matrix @ (v / np.linalg.norm(v))) for v in vectors)
    else:
        rows, dim = _method_rows([r.text for r in [*corpus, *queries]], method,
                                 provider)
        seeds = [derive_seed(seed, tag, r.id)
                 for tag, group in (("corpus", corpus), ("query", queries))
                 for r in group]
        rows = _released(rows, dim, alpha if method == "binaryshield" else None,
                         seeds)
        matrix = rows[:len(corpus)]
        keys = (_popcounts(matrix ^ row) for row in rows[len(corpus):])
    groups = [r.attack_group for r in corpus]
    hits = dict.fromkeys(k_values, 0)
    for q, key in zip(queries, keys):
        top = [groups[i] for i in np.argsort(key, kind="stable")[:k_values[-1]]]
        for k in k_values:
            hits[k] += q.attack_group in top[:k]
    return AccuracyResult(method=method, corpus_size=len(corpus),
                          n_queries=len(queries),
                          rows=[(k, hits[k] / len(queries)) for k in k_values])


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
