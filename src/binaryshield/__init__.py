"""BinaryShield: privacy-preserving binary fingerprints for flagged prompts.

Pipeline: PII redaction -> semantic embedding -> sign quantization ->
per-bit randomized response, then packed-Hamming search and aggregate-only
cross-service correlation.
"""

from .fingerprint import (BinaryFingerprint, DenseEmbedding, PrivacyBudget,
                          expected_self_distortion, hamming, keep_probability,
                          pack_bits, quantize, randomize, unpack_bits)
from .protocol import (CompositeFingerprint, CorrelationReply, ServiceNode,
                       broadcast, decode_frame, encode_frame, ingest_detection,
                       simulate_campaign)
from .redaction import EntitySpan, EntityType, RedactedPrompt, Redactor
from .simhash import SimHashFingerprint
from .store import FingerprintStore, MatchResult, StoredFingerprint

__version__ = "0.1.0"

__all__ = [
    "BinaryFingerprint", "DenseEmbedding", "PrivacyBudget",
    "expected_self_distortion", "hamming", "keep_probability", "pack_bits",
    "quantize", "randomize", "unpack_bits",
    "CompositeFingerprint", "CorrelationReply", "ServiceNode", "broadcast",
    "decode_frame", "encode_frame", "ingest_detection", "simulate_campaign",
    "EntitySpan", "EntityType", "RedactedPrompt", "Redactor",
    "SimHashFingerprint",
    "FingerprintStore", "MatchResult", "StoredFingerprint",
    "__version__",
]
