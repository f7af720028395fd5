"""Cross-service correlation: composite fingerprints, the newline-delimited
JSON wire frame and frame files, aggregate-count broadcast, and the
scripted campaign simulator.

Boundary property: nothing serialized by this module (frames, replies,
reports) ever contains raw or redacted prompt text — fingerprint bits and
caller-supplied non-private metadata only. Replies carry aggregate match
counts; per-match ids stay inside the owning service.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .embeddings import PseudoEmbedder
from .errors import CorruptPayload, FieldError, FrameDecodeError, SchemaError
from .fingerprint import (BinaryFingerprint, PrivacyBudget, check_payload,
                          quantize, randomize)
from .records import (CorpusRecord, check_strings, iter_lines, load_corpus,
                      write_corpus_jsonl)
from .redaction import Redactor
from .store import FingerprintStore, StoredFingerprint
from .synthetic import SyntheticGenerator
from .textproc import derive_seed

FRAME_VERSION = 1
# Built once: json.dumps with separators= builds a new encoder per call.
_FRAME_JSON = json.JSONEncoder(separators=(",", ":"))
# The simulator's PseudoEmbedder keeps a dim-long float64 vector per token.
MAX_SCENARIO_DIM = 1 << 16
# Each frame key, in wire order, with the JSON types it may hold (a bool
# is not a number here) and the reason a value of another type gets.
_FRAME_FIELDS = {
    "version": ((int,), "must be an integer"),
    "origin_service": ((str,), "must be a string"),
    "fingerprint_id": ((str,), "must be a string"),
    "dim": ((int,), "must be a positive integer"),
    "alpha": ((int, float), "must be a positive finite number"),
    "bits_base64": ((str,), "must be a string"),
    "metadata": ((dict,), "must be an object"),
    "issued_at": ((int,), "must be an integer"),
}


@dataclass(frozen=True)
class CompositeFingerprint:
    """Privatized bits plus non-private metadata; the wire object. ``bits``
    is the packed payload, which only a frame spells in base64. Its values
    are checked only here: a bad one raises ``FrameDecodeError`` naming the
    wire field, however the composite was made. ``alpha`` is stored as a
    float."""

    version: int
    origin_service: str
    fingerprint_id: str
    dim: int
    alpha: float
    bits: bytes
    metadata: dict[str, str]
    issued_at: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "alpha", PrivacyBudget(self.alpha).alpha)
        except ValueError:
            raise FrameDecodeError("alpha", _FRAME_FIELDS["alpha"][1]) from None
        try:
            check_payload(self.bits, self.dim)
        except CorruptPayload as exc:
            raise FrameDecodeError("bits_base64", f"decoded {exc}") from None
        except ValueError:
            raise FrameDecodeError("dim", _FRAME_FIELDS["dim"][1]) from None
        try:
            check_strings({"origin_service": self.origin_service,
                           "fingerprint_id": self.fingerprint_id},
                          metadata=self.metadata)
        except FieldError as exc:
            raise FrameDecodeError(exc.field, exc.reason) from None

    def decoded_bits(self) -> bytes:
        """Alias of ``bits``, kept only because the benchmark under
        ``perfbench/`` calls it; it goes with that benchmark's next change."""
        return self.bits


def compose(origin_service: str, fingerprint_id: str, release: BinaryFingerprint,
            metadata: Mapping[str, str], issued_at: int) -> CompositeFingerprint:
    """The wire composite for a randomized release; dim and alpha are the
    release's own."""
    if release.alpha is None:
        raise ValueError("compose needs a randomized release, which carries alpha")
    return CompositeFingerprint(
        version=FRAME_VERSION, origin_service=origin_service,
        fingerprint_id=fingerprint_id, dim=release.dim,
        alpha=release.alpha.alpha, bits=release.bits,
        metadata=dict(metadata), issued_at=issued_at)


def encode_frame(f: CompositeFingerprint) -> bytes:
    """Single-line JSON frame, newline terminated; metadata keys sorted so
    identical composites encode to identical bytes."""
    obj = {
        "version": f.version,
        "origin_service": f.origin_service,
        "fingerprint_id": f.fingerprint_id,
        "dim": f.dim,
        "alpha": f.alpha,
        "bits_base64": base64.b64encode(f.bits).decode("ascii"),
        "metadata": {k: f.metadata[k] for k in sorted(f.metadata)},
        "issued_at": f.issued_at,
    }
    return (_FRAME_JSON.encode(obj) + "\n").encode("utf-8")


def decode_frame(data: bytes | str) -> CompositeFingerprint:
    """Parse and validate one frame; every failure names the bad field."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameDecodeError("<frame>", f"not valid UTF-8 at byte {exc.start}") from None
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise FrameDecodeError("<frame>", f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameDecodeError("<frame>", "frame is not a JSON object")
    for key in _FRAME_FIELDS:
        if key not in obj:
            raise FrameDecodeError(key, "missing required key")
    unknown = set(obj) - set(_FRAME_FIELDS)
    if unknown:
        raise FrameDecodeError(sorted(unknown)[0], "unknown key")
    for key, (types, reason) in _FRAME_FIELDS.items():
        if type(obj[key]) not in types:
            raise FrameDecodeError(key, reason)
    try:
        bits = base64.b64decode(obj.pop("bits_base64"), validate=True)
    except ValueError as exc:       # binascii.Error, or not ASCII
        raise FrameDecodeError("bits_base64", f"invalid base64: {exc}") from None
    return CompositeFingerprint(bits=bits, **obj)


def read_frames(path: str | Path) -> Iterator[tuple[int, CompositeFingerprint]]:
    """(line number, frame) for each frame of a frames file (one per
    non-blank line), in order. A bad frame raises ``SchemaError`` at
    path:line with the field's message."""
    for lineno, line in iter_lines(path):
        try:
            yield lineno, decode_frame(line)
        except FrameDecodeError as exc:
            raise SchemaError(str(exc), path=str(path), line=lineno) from None


@dataclass(frozen=True)
class CorrelationReply:
    """Aggregate-only answer from one peer: a count, never match contents."""

    service_id: str
    fingerprint_id: str
    match_count: int
    tau_used: int
    error: str | None = None

    def to_dict(self) -> dict:
        out = {"service_id": self.service_id, "fingerprint_id": self.fingerprint_id,
               "match_count": self.match_count, "tau_used": self.tau_used}
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class ServiceNode:
    """One compliance boundary: a service id, its private log, and its
    local matching threshold."""

    service_id: str
    store: FingerprintStore
    tau: int

    def __post_init__(self):
        if self.store.dim is None:
            raise ValueError(f"store of {self.service_id} has no dim, so tau "
                             f"{self.tau} cannot be checked")
        if not 0 <= self.tau <= self.store.dim:
            raise ValueError(
                f"tau {self.tau} outside [0, {self.store.dim}] for {self.service_id}")


@dataclass
class PipelineConfig:
    """Everything a node needs to turn a raw prompt into a composite."""

    redactor: Redactor
    provider: object
    alpha: float
    base_seed: int
    dim: int = 768


def ingest_detection(node: ServiceNode, raw_prompt: str,
                     metadata: Mapping[str, str], config: PipelineConfig,
                     fingerprint_id: str | None = None,
                     issued_at: int = 0) -> CompositeFingerprint:
    """Run redact -> embed -> quantize -> randomize inside the node's
    boundary, log the privatized fingerprint locally, and return the
    composite for broadcast.

    Nothing is stored if any stage fails, and neither the raw nor the
    redacted text ever reaches a serialized artifact.
    """
    if fingerprint_id is None:
        fingerprint_id = f"{node.service_id}-fp{len(node.store)}"
    redacted = config.redactor.redact(raw_prompt)
    embedding = config.provider.embed(redacted)
    base = quantize(embedding)
    seed = derive_seed(config.base_seed, node.service_id, fingerprint_id)
    privatized = randomize(base, PrivacyBudget.of(config.alpha), seed)
    composite = compose(node.service_id, fingerprint_id, privatized, metadata,
                        issued_at)
    node.store.insert(StoredFingerprint(
        id=fingerprint_id, bits=privatized.bits, dim=privatized.dim,
        alpha=composite.alpha, metadata=dict(metadata)))
    return composite


def broadcast(f: CompositeFingerprint,
              peers: Sequence[ServiceNode]) -> list[CorrelationReply]:
    """Search every peer's own store for the composite and collect
    aggregate match counts, in deterministic peer-id order.

    A dimension mismatch or any other failure at one peer yields an
    error-marker reply for that peer (the exception's type and message);
    the others are unaffected. Peers' stores are never modified.
    """
    if not peers:
        raise ValueError("broadcast requires at least one peer")
    replies: list[CorrelationReply] = []
    for peer in sorted(peers, key=lambda p: p.service_id):
        count, error = 0, None
        if peer.store.dim is not None and peer.store.dim != f.dim:
            error = f"dimension mismatch: {f.dim} vs {peer.store.dim}"
        else:
            try:
                count = len(peer.store.search_threshold(f.bits, peer.tau))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        replies.append(CorrelationReply(
            service_id=peer.service_id, fingerprint_id=f.fingerprint_id,
            match_count=count, tau_used=peer.tau, error=error))
    return replies


# -- scripted campaign simulation ----------------------------------------------

@dataclass
class EventOutcome:
    index: int
    service_id: str
    fingerprint_id: str
    record_id: str
    attack_group: str | None
    replies: list[CorrelationReply]

    def to_dict(self) -> dict:
        return {"index": self.index, "service_id": self.service_id,
                "fingerprint_id": self.fingerprint_id, "record_id": self.record_id,
                "attack_group": self.attack_group,
                "replies": [r.to_dict() for r in self.replies]}


@dataclass
class CampaignReport:
    dim: int
    alpha: float
    seed: int
    events: list[EventOutcome] = field(default_factory=list)
    service_totals: dict[str, dict] = field(default_factory=dict)
    linkage: dict[str, list[str]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "dim": self.dim, "alpha": self.alpha, "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
            "service_totals": {k: self.service_totals[k]
                               for k in sorted(self.service_totals)},
            "linkage": {k: self.linkage[k] for k in sorted(self.linkage)},
        }, separators=(",", ":")) + "\n"

    def to_table(self) -> str:
        lines = [f"campaign: dim={self.dim} alpha={self.alpha} seed={self.seed}"]
        for e in self.events:
            lines.append(f"event {e.index}: {e.service_id} broadcast "
                         f"{e.fingerprint_id} (group={e.attack_group or '-'})")
            for r in e.replies:
                status = r.error if r.error else f"{r.match_count} match(es)"
                lines.append(f"    {r.service_id} @ tau={r.tau_used}: {status}")
        lines.append("linkage:")
        for group in sorted(self.linkage):
            lines.append(f"    {group}: {', '.join(self.linkage[group])}")
        return "\n".join(lines) + "\n"


def _load_scenario(scenario: dict | str | Path) -> tuple[dict, Path | None]:
    if isinstance(scenario, (str, Path)):
        path = Path(scenario)
        try:
            obj = json.loads(path.read_text("utf-8"))
        except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep
            raise SchemaError(f"scenario is not valid JSON: {exc}",
                              path=str(path)) from None
        return obj, path
    return scenario, None


def _field(obj, key: str, kinds: tuple, where: str, owner: str):
    """``obj[key]``; ``obj`` must be an object holding ``key`` as one of the
    JSON types ``kinds`` (a bool is not a number here)."""
    if not isinstance(obj, dict) or key not in obj or type(obj[key]) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise SchemaError(f"{owner} needs key {key!r} of type {names}", path=where)
    return obj[key]


def simulate_campaign(scenario: dict | str | Path,
                      redactor: Redactor | None = None) -> CampaignReport:
    """Replay a scripted multi-service scenario fully in-process.

    Each service first fingerprints its own corpus into its private log
    (the historical record), then scripted detection events run in order:
    the named service ingests the named record's prompt and broadcasts the
    composite to every other service. Fully deterministic for a fixed
    scenario: the logical clock is the event index and all noise seeds
    derive from (seed, service, record).
    """
    obj, base_path = _load_scenario(scenario)
    where = str(base_path) if base_path else "<scenario>"
    dim = _field(obj, "dim", (int,), where, "scenario")
    alpha = _field(obj, "alpha", (int, float), where, "scenario")
    seed = _field(obj, "seed", (int,), where, "scenario")
    services = _field(obj, "services", (list,), where, "scenario")
    events = _field(obj, "events", (list,), where, "scenario")
    if not 1 <= dim <= MAX_SCENARIO_DIM:
        raise SchemaError(f"needs dim in [1, {MAX_SCENARIO_DIM}], got {dim}",
                          path=where)
    try:
        alpha = PrivacyBudget(alpha).alpha
    except ValueError as exc:
        raise SchemaError(f"scenario {exc}", path=where) from None
    config = PipelineConfig(redactor=redactor or Redactor.default(),
                            provider=PseudoEmbedder(dim=dim), alpha=alpha,
                            base_seed=seed, dim=dim)

    nodes: dict[str, ServiceNode] = {}
    corpora: dict[str, dict[str, object]] = {}
    for svc in services:
        service_id = _field(svc, "service_id", (str,), where, "service entry")
        corpus = _field(svc, "corpus", (str,), where, "service entry")
        tau = _field(svc, "tau", (int,), where, "service entry")
        if service_id in nodes:
            raise SchemaError(f"duplicate service_id {service_id!r}", path=where)
        try:
            check_strings({"service_id": service_id})
            node = ServiceNode(service_id, FingerprintStore(dim=dim), tau)
        except ValueError as exc:
            raise SchemaError(str(exc), path=where) from None
        corpus_path = Path(corpus)
        if base_path and not corpus_path.is_absolute():
            corpus_path = base_path.parent / corpus_path
        try:
            records = load_corpus(corpus_path).records
        except SchemaError:
            raise
        except ValueError as exc:  # NUL in the path
            raise SchemaError(f"corpus {corpus!r}: {exc}", path=where) from None
        for rec in records:
            meta = {"attack_group": rec.attack_group} if rec.attack_group else {}
            try:
                check_strings(metadata=meta)
            except ValueError as exc:
                raise SchemaError(f"corpus {corpus!r} record {rec.id!r}: {exc}",
                                  path=where) from None
            ingest_detection(node, rec.text, meta, config, fingerprint_id=rec.id)
        nodes[service_id] = node
        corpora[service_id] = {rec.id: rec for rec in records}

    report = CampaignReport(dim=dim, alpha=alpha, seed=seed)
    totals = {sid: {"events_detected": 0, "replies_sent": 0, "matches_reported": 0}
              for sid in nodes}
    linkage: dict[str, set[str]] = {}
    for idx, event in enumerate(events):
        service_id = _field(event, "service", (str,), where, f"event {idx}")
        record_id = _field(event, "record_id", (str,), where, f"event {idx}")
        metadata = event.get("metadata", {})
        try:
            check_strings(metadata=metadata)
        except ValueError as exc:
            raise SchemaError(f"event {idx}: {exc}", path=where) from None
        if service_id not in nodes:
            raise SchemaError(f"event {idx} names unknown service {service_id!r}",
                              path=where)
        record = corpora[service_id].get(record_id)
        if record is None:
            raise SchemaError(
                f"event {idx}: record {record_id!r} not in corpus of "
                f"{service_id}", path=where)
        fingerprint_id = f"{record.id}#e{idx}"
        if fingerprint_id in corpora[service_id]:
            raise SchemaError(f"event {idx}: {fingerprint_id!r} is a record id too",
                              path=where)
        node = nodes[service_id]
        composite = ingest_detection(
            node, record.text, metadata, config,
            fingerprint_id=fingerprint_id, issued_at=idx)
        totals[service_id]["events_detected"] += 1
        peers = [n for sid, n in sorted(nodes.items()) if sid != service_id]
        replies = broadcast(composite, peers) if peers else []
        for reply in replies:
            totals[reply.service_id]["replies_sent"] += 1
            totals[reply.service_id]["matches_reported"] += reply.match_count
            if record.attack_group and reply.match_count > 0 and not reply.error:
                linkage.setdefault(record.attack_group, set()).add(reply.service_id)
        report.events.append(EventOutcome(
            index=idx, service_id=service_id,
            fingerprint_id=composite.fingerprint_id, record_id=record.id,
            attack_group=record.attack_group, replies=replies))
    report.service_totals = totals
    report.linkage = {g: sorted(s) for g, s in linkage.items()}
    return report


def write_demo_scenario(out_dir: str | Path, seed: int = 7, dim: int = 768,
                        alpha: float = 2.0, tau: int = 280) -> Path:
    """Materialize the three-service demo: one attack campaign planted as
    two variants in S1 and one in S3, detected and broadcast by S2.

    With the default parameters the broadcast yields replies of exactly
    2 matches from S1 and 1 from S3.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gen = SyntheticGenerator(seed)
    base = gen.attack_prompt(salt=0)
    group = "grp-demo"

    def benign(n, salt):
        return [CorpusRecord(id=f"{salt}-ben-{i:03d}",
                             text=gen.variant(gen.benign_prompt(), n_substitutions=2)
                             + f" session {gen._tag(i)}",
                             is_attack=False)
                for i in range(n)]

    s1 = benign(30, "s1") + [
        CorpusRecord(id="s1-atk-v1", text=gen.variant(base, n_substitutions=1),
                     is_attack=True, attack_group=group),
        CorpusRecord(id="s1-atk-v2", text=gen.variant(base, n_substitutions=2),
                     is_attack=True, attack_group=group)]
    s2 = benign(30, "s2") + [
        CorpusRecord(id="s2-atk-base", text=base, is_attack=True,
                     attack_group=group)]
    s3 = benign(30, "s3") + [
        CorpusRecord(id="s3-atk-v1", text=gen.variant(base, n_substitutions=1),
                     is_attack=True, attack_group=group)]
    for name, records in (("s1", s1), ("s2", s2), ("s3", s3)):
        write_corpus_jsonl(records, out_dir / f"{name}.jsonl")

    scenario = {
        "dim": dim, "alpha": alpha, "seed": seed,
        "services": [
            {"service_id": "S1", "corpus": "s1.jsonl", "tau": tau},
            {"service_id": "S2", "corpus": "s2.jsonl", "tau": tau},
            {"service_id": "S3", "corpus": "s3.jsonl", "tau": tau},
        ],
        "events": [
            {"service": "S2", "record_id": "s2-atk-base",
             "metadata": {"tool": "email", "region": "eu"}},
        ],
    }
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n", "utf-8")
    return path
