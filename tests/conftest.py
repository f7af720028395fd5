import math
from typing import Sequence

import numpy as np
import pytest

from binaryshield.embeddings import PseudoEmbedder


@pytest.fixture(scope="session")
def pseudo768():
    return PseudoEmbedder(dim=768)


def naive_hamming_bits(a_bytes: bytes, b_bytes: bytes, dim: int) -> int:
    """Independent per-bit oracle: unpack to individual bits and compare."""
    a = np.unpackbits(np.frombuffer(a_bytes, np.uint8), count=dim, bitorder="little")
    b = np.unpackbits(np.frombuffer(b_bytes, np.uint8), count=dim, bitorder="little")
    return int((a != b).sum())


def naive_popcount(value: int) -> int:
    return bin(value).count("1")


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
