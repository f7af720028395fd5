"""Embedding -> binary fingerprint transformations and Hamming arithmetic.

Bit layout contract (shared with the wire format and the store): bit i of
a fingerprint lives in byte ``i // 8`` at position ``i % 8``,
least-significant-bit first; padding bits past ``dim - 1`` are zero. Its
home is the one packer, :func:`pack_last_axis`. ``quantize`` packs the sign
bits, and ``randomize`` XORs the packed payload with the packed flips.

Noise contract: :func:`flips`, the one noise draw of a release, takes
exactly ``dim`` float64 uniforms, in bit-index order, from numpy's
Philox4x64-10 counter generator keyed by the 64-bit seed
(``np.random.Generator(np.random.Philox(key=seed)).random(dim)``). Bit i
is kept when ``u_i < p`` (strict) and flipped otherwise. Identical
(bits, alpha, seed) triples therefore reproduce identical output anywhere.
The draw comes from :func:`rekeyed_philox`, which re-keys one generator
per thread instead of building one per seed; its draws are a fresh
``philox(seed)``'s.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import CorruptPayload, DimensionMismatch

_MAX_SEED = 2**64


def _check_seed(seed: int) -> int:
    if not (0 <= int(seed) < _MAX_SEED):
        raise ValueError(f"seed must be a uint64, got {seed}")
    return int(seed)


def philox(seed: int) -> np.random.Generator:
    """The package's one seeded generator: Philox4x64-10 keyed by a uint64."""
    return np.random.Generator(np.random.Philox(key=_check_seed(seed)))


_rekeyable = threading.local()      # this thread's (generator, state dict)


def rekeyed_philox(seed: int) -> np.random.Generator:
    """This thread's one Philox generator, set to the state a fresh
    ``philox(seed)`` starts in: key ``[seed, 0]``, counter zero, empty
    buffer. Building a ``Philox`` costs about as much as a 768-value draw,
    so a caller that draws once and drops the generator uses this; the
    next call on the same thread re-keys it, so a caller that keeps its
    generator uses :func:`philox`."""
    try:
        gen, state = _rekeyable.pair
    except AttributeError:
        gen = philox(0)
        state = gen.bit_generator.state
        _rekeyable.pair = gen, state
    state["state"]["key"][0] = _check_seed(seed)
    state["state"]["counter"][:] = 0
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    gen.bit_generator.state = state
    return gen


def packed_length(dim: int) -> int:
    return (dim + 7) // 8


def pack_last_axis(bits: np.ndarray) -> np.ndarray:
    """Pack a bool or 0/1 array along its last axis by the layout contract."""
    return np.packbits(bits, axis=-1, bitorder="little")


def pack_bits(bits: Sequence[int] | np.ndarray) -> bytes:
    """Pack a 0/1 sequence LSB-first into ``ceil(len/8)`` bytes."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError("pack_bits expects a flat bit sequence")
    # checked before any cast, which would truncate 1.9 and overflow on 256
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("pack_bits expects only 0/1 values")
    return pack_last_axis(arr == 1).tobytes()


def unpack_bits(data: bytes, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; rejects payloads with nonzero padding."""
    check_payload(data, dim)
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=dim,
                         bitorder="little")


def padding_mask(dim: int) -> int:
    """The padding bits of a packed payload's last byte (0 if it has none)."""
    rem = dim % 8
    return ~((1 << rem) - 1) & 0xFF if rem else 0


def check_padding(data: bytes, dim: int) -> None:
    """Reject a packed payload whose bits past ``dim - 1`` are not zero."""
    mask = padding_mask(dim)
    if mask and data[-1] & mask:
        raise CorruptPayload(
            f"nonzero padding bits beyond index {dim - 1} (corrupt payload)")


def check_payload(data: bytes, dim: int) -> None:
    """The packed payload rule: dim >= 1 (``ValueError``), then exactly
    ``packed_length(dim)`` bytes with zero padding (``CorruptPayload``)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    expected = packed_length(dim)
    if len(data) != expected:
        raise CorruptPayload(
            f"length {len(data)} bytes, expected {expected} for dim {dim}")
    check_padding(data, dim)


@dataclass(frozen=True, eq=False)
class DenseEmbedding:
    """A d-dimensional real vector produced by an embedding provider."""

    values: np.ndarray
    model_id: str
    dim: int

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if arr.size != self.dim:
            raise DimensionMismatch(arr.size, self.dim, "embedding length")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(
                f"non-finite embedding coordinate at index {bad[0]}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class PrivacyBudget:
    """Per-bit privacy budget (nats); larger alpha means less noise. The one
    alpha rule: positive and at most the largest float, so NaN, infinities
    and too-large integers are a ``ValueError``. Stored as a float."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha <= sys.float_info.max:
            got = ("an int beyond the float range" if isinstance(self.alpha, int)
                   and abs(self.alpha) > sys.float_info.max else self.alpha)
            raise ValueError(f"alpha must be a positive finite real, got {got}")
        object.__setattr__(self, "alpha", float(self.alpha))

    @classmethod
    def of(cls, value: Union["PrivacyBudget", float]) -> "PrivacyBudget":
        return value if isinstance(value, PrivacyBudget) else cls(value)


@dataclass(frozen=True)
class BinaryFingerprint:
    """Packed d-bit vector; the unit of storage and search.

    A randomized-response release also carries its privacy budget and
    noise seed; the seed is a local reproducibility handle and is never
    transmitted.
    """

    bits: bytes
    dim: int
    alpha: PrivacyBudget | None = None
    noise_seed: int | None = None

    def __post_init__(self):
        check_payload(self.bits, self.dim)
        object.__setattr__(self, "bits", bytes(self.bits))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", PrivacyBudget.of(self.alpha))
        if self.noise_seed is not None:
            object.__setattr__(self, "noise_seed", _check_seed(self.noise_seed))

    def popcount(self) -> int:
        return int(np.bitwise_count(np.frombuffer(self.bits, np.uint8)).sum())


def quantize(e: DenseEmbedding) -> BinaryFingerprint:
    """Sign quantization: bit i is 1 iff coordinate i is strictly positive."""
    return BinaryFingerprint(bits=pack_last_axis(e.values > 0).tobytes(),
                             dim=e.dim)


def keep_probability(alpha: Union[PrivacyBudget, float]) -> float:
    """Probability e^a / (e^a + 1) of keeping a true bit; in (0.5, 1)."""
    a = PrivacyBudget.of(alpha).alpha
    return 1.0 / (1.0 + math.exp(-a))


def flip_probability(alpha: Union[PrivacyBudget, float]) -> float:
    """1 - keep_probability, computed without cancellation at large alpha."""
    a = PrivacyBudget.of(alpha).alpha
    z = math.exp(-a)  # never overflows for a > 0
    return z / (1.0 + z)


def expected_self_distortion(alpha: Union[PrivacyBudget, float], dim: int) -> float:
    """Expected Hamming distance (1 - p) * d between a vector and its
    randomized release."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return flip_probability(alpha) * dim


def flips(dim: int, alpha: Union[PrivacyBudget, float], seed: int) -> np.ndarray:
    """The packed flip mask of one release: bit i is set when ``u_i >= p``."""
    return pack_last_axis(rekeyed_philox(seed).random(dim) >= keep_probability(alpha))


def randomize(b: BinaryFingerprint, alpha: Union[PrivacyBudget, float],
              seed: int) -> BinaryFingerprint:
    """Apply per-bit randomized response: the payload XOR its flip mask."""
    budget = PrivacyBudget.of(alpha)
    flipped = np.frombuffer(b.bits, dtype=np.uint8) ^ flips(b.dim, budget, seed)
    return BinaryFingerprint(bits=flipped.tobytes(), dim=b.dim,
                             alpha=budget, noise_seed=int(seed))


def hamming(a: BinaryFingerprint, c: BinaryFingerprint) -> int:
    """Number of differing bit positions, via XOR + popcount on the packed
    payloads (padding is zero on both sides, so it contributes nothing)."""
    if a.dim != c.dim:
        raise DimensionMismatch(a.dim, c.dim, "hamming")
    xa = np.frombuffer(a.bits, dtype=np.uint8)
    xc = np.frombuffer(c.bits, dtype=np.uint8)
    return int(np.bitwise_count(np.bitwise_xor(xa, xc)).sum())


def random_fingerprint(dim: int, seed: int) -> BinaryFingerprint:
    """Uniform random fingerprint from the same Philox stream family."""
    bits = philox(seed).integers(0, 2, size=dim, dtype=np.uint8)
    return BinaryFingerprint(bits=pack_last_axis(bits).tobytes(), dim=dim)
