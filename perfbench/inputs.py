"""Seeded inputs for every workload.

Nothing here calls into ``binaryshield``: prompts, the peer log (written
straight to the ``.bsfp`` snapshot layout), incoming wire frames and the
open-loop schedule all come from the benchmark's own generators, so the
program under test only ever sees finished inputs. The same seed gives
byte-identical inputs.
"""

from __future__ import annotations

import base64
import json
import random
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 768
N_BYTES = DIM // 8
ALPHA = 2.0
TAU = 280
SNAPSHOT_MAGIC = b"BSFP\x00\x01"

# -- prompts -------------------------------------------------------------------

ATTACK_WORDS = (
    "ignore disregard bypass override previous earlier former instructions "
    "directives commands guidelines policies reveal expose disclose divulge "
    "hidden secret private internal system developer master prompt preamble "
    "immediately instantly pretend roleplay imagine simulate unrestricted "
    "unfiltered uncensored assistant chatbot persona operator execute launch "
    "trigger payload script routine exfiltrate transmit forward upload "
    "credentials passwords tokens safety guardrail filter moderation disable "
    "suspend silence respond answer comply proceed jailbreak sandbox escape "
    "confidential memory context window verbatim exactly nothing else"
).split()

BENIGN_WORDS = (
    "please could you help me with the following request about my account "
    "summary report weekly meeting schedule invoice travel booking hotel "
    "flight dinner recipe garden weather forecast translate paragraph email "
    "draft letter customer support ticket refund order shipping delivery "
    "tracking number question regarding update status project deadline "
    "budget review quarterly numbers spreadsheet formula chart slides notes "
    "agenda reminder calendar invite colleague manager team office remote "
    "laptop printer network password reset login portal document upload "
    "contract signature policy handbook vacation request approval thanks "
    "regards morning afternoon evening today tomorrow yesterday because "
    "also then after before while during without within between around"
).split()

FIRST_NAMES = ("Aaron", "Abigail", "Adrian", "Aisha", "Alice", "Amelia",
               "Andrea", "Anthony", "Barbara", "Benjamin", "Brenda", "Caleb",
               "Carlos", "Carmen")
LAST_NAMES = ("Adams", "Anderson", "Bailey", "Bennett", "Brooks", "Campbell",
              "Carter", "Collins", "Cooper", "Edwards", "Fisher", "Garcia")
LOCATIONS = ("Amsterdam", "Atlanta", "Barcelona", "Berlin", "Boston",
             "Chicago", "Copenhagen", "Dublin", "Frankfurt", "Geneva",
             "Helsinki", "Lisbon", "London", "Madrid", "Mexico City",
             "New York", "Los Angeles", "Hong Kong")
MONTHS = ("January", "February", "March", "April", "May", "June", "July",
          "August", "September", "October", "November", "December")
DOMAINS = ("mailhub.com", "corpmail.net", "inbox.org", "webpost.io")
HOSTS = ("files-share.net", "paste-bin.org", "cdn-assets.io", "drop-zone.com")
ORG_SUFFIXES = ("Inc", "Corp", "LLC", "Ltd", "GmbH")


def _luhn_number(r: random.Random) -> str:
    digits = [r.randrange(10) for _ in range(15)]
    total = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 0:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    digits.append((10 - total % 10) % 10)
    s = "".join(map(str, digits))
    return " ".join(s[i:i + 4] for i in range(0, 16, 4))


def _pii(r: random.Random) -> str:
    kind = r.randrange(12)
    first, last = r.choice(FIRST_NAMES), r.choice(LAST_NAMES)
    if kind == 0:
        return first
    if kind == 1:
        return f"{first} {last}"
    if kind == 2:
        return r.choice(LOCATIONS)
    if kind == 3:
        return f"{first.lower()}.{last.lower()}@{r.choice(DOMAINS)}"
    if kind == 4:
        a, b, c = r.randrange(201, 990), r.randrange(200, 999), r.randrange(10000)
        return f"({a}) {b}-{c:04d}" if r.random() < 0.5 else f"{a}-{b}-{c:04d}"
    if kind == 5:
        return f"{r.randrange(100, 666)}-{r.randrange(1, 100):02d}-{r.randrange(1, 10000):04d}"
    if kind == 6:
        return _luhn_number(r)
    if kind == 7:
        return ".".join(str(r.randrange(1, 255)) for _ in range(4))
    if kind == 8:
        return f"https://{r.choice(HOSTS)}/{r.choice(ATTACK_WORDS)}/{r.randrange(10**6)}"
    if kind == 9:
        if r.random() < 0.5:
            return f"{r.randrange(2015, 2027)}-{r.randrange(1, 13):02d}-{r.randrange(1, 29):02d}"
        return f"{r.choice(MONTHS)} {r.randrange(1, 29)}, {r.randrange(2015, 2027)}"
    if kind == 10:
        return f"${r.randrange(10, 99999):,}.{r.randrange(100):02d}"
    return f"{last} {r.choice(ORG_SUFFIXES)}" if r.random() < 0.5 else str(
        r.randrange(10**7, 10**9))


class PromptFactory:
    """Flagged prompts: campaign variants and one-off attacks in ordinary
    text, mostly 15-40 tokens with a tail to about 400, about half carrying
    1-4 PII entities of mixed types."""

    N_CAMPAIGNS = 40

    def __init__(self, seed: int, stream: int = 0):
        self.r = random.Random(f"prompts/{seed}/{stream}")
        template_rng = random.Random(f"campaigns/{seed}")
        self.templates = [
            [template_rng.choice(ATTACK_WORDS)
             for _ in range(template_rng.randrange(10, 20))]
            for _ in range(self.N_CAMPAIGNS)]

    def _length(self) -> int:
        r = self.r
        if r.random() < 0.92:
            return r.randrange(15, 41)
        return 40 + int(360 * r.random() ** 2)

    def prompt(self) -> str:
        r = self.r
        target = self._length()
        if r.random() < 0.6:
            tokens = list(r.choice(self.templates))
            for _ in range(r.randrange(0, 4)):
                tokens[r.randrange(len(tokens))] = r.choice(ATTACK_WORDS)
        else:
            tokens = [r.choice(ATTACK_WORDS) for _ in range(r.randrange(5, 12))]
        while len(tokens) < target:
            at = r.randrange(len(tokens) + 1)
            tokens[at:at] = [r.choice(BENIGN_WORDS) for _ in range(r.randrange(1, 6))]
        del tokens[target:]
        tokens[0] = tokens[0].capitalize()
        if r.random() < 0.5:
            for _ in range(r.randrange(1, 5)):
                at = r.randrange(len(tokens) + 1)
                tokens.insert(at, _pii(r))
        return " ".join(tokens)


def write_prompt_chunks(seed: int, n_chunks: int, chunk: int,
                        out_dir: Path) -> list[tuple[Path, list[dict]]]:
    """``n_chunks`` JSONL files of ``chunk`` prompt records each."""
    factory = PromptFactory(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    chunks = []
    for c in range(n_chunks):
        records = [{"id": f"r{c * chunk + i:07d}", "text": factory.prompt(),
                    "metadata": {"tier": "t1"}} for i in range(chunk)]
        path = out_dir / f"chunk{c:05d}.jsonl"
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records),
                        "utf-8")
        chunks.append((path, records))
    return chunks


# -- the peer log ----------------------------------------------------------------

def _flip(rows: np.ndarray, radii: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flip exactly ``radii[i]`` distinct bits of packed row i."""
    rank = rng.random((rows.shape[0], DIM)).argsort(axis=1).argsort(axis=1)
    mask = (rank < radii[:, None]).astype(np.uint8)
    return rows ^ np.packbits(mask, axis=1, bitorder="little")


@dataclass
class PeerLog:
    """A service's fingerprint log: uniform background plus campaign
    clusters whose members sit 30-120 bits from their campaign centre."""

    rows: np.ndarray        # (n, N_BYTES) uint8, packed LSB-first
    ids: list[str]
    centers: np.ndarray     # (n_campaigns, N_BYTES)


def peer_ids(n: int) -> list[str]:
    return [f"h{i:07d}" for i in range(n)]


def make_peer_log(seed: int, n: int, n_campaigns: int = 100) -> PeerLog:
    rng = np.random.Generator(np.random.Philox(key=[seed % 2**64, 1]))
    rows = rng.integers(0, 256, size=(n, N_BYTES), dtype=np.uint8)
    centers = rng.integers(0, 256, size=(n_campaigns, N_BYTES), dtype=np.uint8)
    sizes = rng.integers(10, 61, size=n_campaigns)
    owner = np.repeat(np.arange(n_campaigns), sizes)[: n // 2]
    members = _flip(centers[owner], rng.integers(30, 121, size=owner.size), rng)
    slots = rng.choice(n, size=owner.size, replace=False)
    rows[slots] = members
    return PeerLog(rows=rows, ids=peer_ids(n), centers=centers)


def write_snapshot(log: PeerLog, path: Path) -> None:
    """The ``.bsfp`` layout: magic, <dim, count>, then per record the id,
    alpha, one metadata pair and the packed bits."""
    n = log.rows.shape[0]
    alpha = b"\x01" + struct.pack("<d", ALPHA)
    key = b"surface"
    metas = [struct.pack("<I", 1) + struct.pack("<I", len(key)) + key
             + struct.pack("<I", len(v)) + v for v in (b"api", b"web", b"app")]
    parts = [SNAPSHOT_MAGIC, struct.pack("<II", DIM, n)]
    for i in range(n):
        ident = log.ids[i].encode("ascii")
        parts += [struct.pack("<I", len(ident)), ident, alpha, metas[i % 3],
                  log.rows[i].tobytes()]
    path.write_bytes(b"".join(parts))


# -- incoming frames --------------------------------------------------------------

MALFORMED_KINDS = ("truncated", "bad_base64", "short_payload", "missing_key",
                   "unknown_key", "bad_dim")


@dataclass
class Frame:
    data: bytes
    kind: str            # random | campaign | boundary | malformed
    bits: bytes | None   # packed payload of a well-formed frame


def _frame_obj(origin: str, fid: str, bits: bytes, issued_at: int) -> dict:
    return {"version": 1, "origin_service": origin, "fingerprint_id": fid,
            "dim": DIM, "alpha": ALPHA,
            "bits_base64": base64.b64encode(bits).decode("ascii"),
            "metadata": {"region": "eu"}, "issued_at": issued_at}


def _encode(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode("utf-8")


def _malform(obj: dict, kind: str) -> bytes:
    if kind == "truncated":
        data = _encode(obj)
        return data[: len(data) // 2]
    if kind == "bad_base64":
        obj["bits_base64"] = "!" + obj["bits_base64"][1:]
    elif kind == "short_payload":
        obj["bits_base64"] = base64.b64encode(b"\x00" * (N_BYTES - 1)).decode("ascii")
    elif kind == "missing_key":
        del obj["alpha"]
    elif kind == "unknown_key":
        obj["note"] = "x"
    else:
        obj["dim"] = 0
    return _encode(obj)


def make_frames(seed: int, n: int, log: PeerLog,
                origins: tuple[str, ...] = ("S2", "S3")) -> list[Frame]:
    """Incoming frames: 84% uniform random bits (no match), 14% near a
    campaign centre (counts of tens), 1% exactly TAU or TAU+1 bits from a
    logged entry, 1% malformed."""
    rng = np.random.Generator(np.random.Philox(key=[seed % 2**64, 2]))
    u = rng.random(n)
    bits = rng.integers(0, 256, size=(n, N_BYTES), dtype=np.uint8)
    campaign = (u >= 0.84) & (u < 0.98)
    boundary = (u >= 0.98) & (u < 0.99)
    idx = np.flatnonzero(campaign)
    bits[idx] = _flip(log.centers[rng.integers(0, len(log.centers), idx.size)],
                      rng.integers(20, 101, size=idx.size), rng)
    idx = np.flatnonzero(boundary)
    bits[idx] = _flip(log.rows[rng.integers(0, log.rows.shape[0], idx.size)],
                      TAU + rng.integers(0, 2, size=idx.size), rng)
    bad_kind = rng.integers(0, len(MALFORMED_KINDS), size=n)
    frames = []
    for i in range(n):
        payload = bits[i].tobytes()
        obj = _frame_obj(origins[i % len(origins)], f"{origins[i % len(origins)]}-q{i}",
                         payload, i)
        if u[i] >= 0.99:
            frames.append(Frame(_malform(obj, MALFORMED_KINDS[bad_kind[i]]),
                                "malformed", None))
        else:
            kind = "campaign" if campaign[i] else "boundary" if boundary[i] else "random"
            frames.append(Frame(_encode(obj), kind, payload))
    return frames


# -- the open-loop schedule ------------------------------------------------------

def poisson_schedule(seed: int, rate: float, seconds: float,
                     detect_every: int) -> list[tuple[float, bool]]:
    """(due offset in seconds, is_detection) for a Poisson stream of
    ``rate`` requests/s over ``seconds``, conditioned on its count being
    exactly ``round(rate * seconds)`` (sorted uniform arrival times). Every
    ``detect_every``-th request is a local detection; the rest are peers'
    frames. A fixed interleave, rather than a coin flip per request, keeps
    the share of slow requests the same in every run."""
    r = random.Random(f"schedule/{seed}")
    n = round(rate * seconds)
    times = sorted(r.random() * seconds for _ in range(n))
    return [(t, i % detect_every == detect_every - 1) for i, t in enumerate(times)]
