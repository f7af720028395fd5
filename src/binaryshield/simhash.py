"""64-bit SimHash over token features — the privacy-preserving baseline.

Featurization is pinned so reported numbers are reproducible: lowercase
word unigrams plus adjacent bigrams, weighted by occurrence count, each
hashed with blake2b/8. Bit j of the output is 1 iff the weighted signed
sum for that bit is strictly positive (ties go to 0, mirroring the sign
quantizer's convention).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .textproc import stable_hash64, tokenize

SIMHASH_BITS = 64
_BIGRAM_SEP = "\x1f"


@dataclass(frozen=True)
class SimHashFingerprint:
    bits: int
    feature_count: int

    def __post_init__(self):
        if not (0 <= self.bits < (1 << SIMHASH_BITS)):
            raise ValueError("bits must fit in 64 bits")


def _features(text: str) -> Counter:
    tokens = tokenize(text)
    feats: Counter[str] = Counter(tokens)
    feats.update(a + _BIGRAM_SEP + b for a, b in zip(tokens, tokens[1:]))
    return feats


def simhash(text: str) -> SimHashFingerprint:
    feats = _features(text)
    if not feats:
        return SimHashFingerprint(bits=0, feature_count=0)
    sums = np.zeros(SIMHASH_BITS, dtype=np.int64)
    for feature, weight in feats.items():
        h = stable_hash64(feature)
        bits = (h >> np.arange(SIMHASH_BITS, dtype=np.uint64)) & 1
        sums += np.where(bits == 1, weight, -weight)
    out = 0
    for j in range(SIMHASH_BITS):
        if sums[j] > 0:
            out |= 1 << j
    return SimHashFingerprint(bits=out, feature_count=len(feats))


def simhash_distance(a: SimHashFingerprint, c: SimHashFingerprint) -> int:
    return (a.bits ^ c.bits).bit_count()
