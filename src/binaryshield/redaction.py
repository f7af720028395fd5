"""Rule-based PII detection and placeholder substitution.

The redactor is a deterministic stand-in for an ML entity recognizer,
built from a versioned rule config (regex + named validator per entity
type) plus bundled name/location dictionaries. It is pluggable: anything
implementing ``detect(text) -> list[EntitySpan]`` can replace it upstream.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from .errors import SchemaError


class EntityType(Enum):
    """Detected entity kinds; the default rules give each its value as
    priority."""

    PERSON = 0
    EMAIL = 1
    PHONE = 2
    SSN = 3
    CREDIT_CARD = 4
    IP_ADDRESS = 5
    URL = 6
    DATE = 7
    LOCATION = 8
    ORGANIZATION = 9
    AMOUNT = 10
    ACCOUNT = 11


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    entity_type: EntityType
    matched_text: str

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class RedactedPrompt:
    """Text with every detected entity replaced by ``[ENTITY_TYPE]``."""

    text: str
    entity_counts: dict[EntityType, int]
    original_length: int


@dataclass(frozen=True)
class Rule:
    entity: EntityType
    priority: int
    validator: Callable[[str], bool]
    validator_name: str
    pattern: re.Pattern


# -- validators ---------------------------------------------------------------

def _luhn(text: str) -> bool:
    digits = [int(ch) for ch in text if ch.isdigit()]
    if len(digits) < 13:
        return False
    total = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 1:
            d *= 2
            if d > 9:
                d -= 9
        total += d
    return total % 10 == 0


def _ssn_format(text: str) -> bool:
    area, group, serial = text.split("-")
    if area in ("000", "666") or area.startswith("9"):
        return False
    return group != "00" and serial != "0000"


def _ip_octets(text: str) -> bool:
    return all(0 <= int(part) <= 255 for part in text.split("."))


VALIDATORS: dict[str, Callable[[str], bool]] = {
    "none": lambda _text: True,
    "luhn": _luhn,
    "ssn_format": _ssn_format,
    "ip_octets": _ip_octets,
}


# -- config loading -----------------------------------------------------------

def _load_wordlist(name: str) -> list[str]:
    text = resources.files("binaryshield.data").joinpath(name).read_text("utf-8")
    return [w.strip() for w in text.splitlines() if w.strip() and not w.startswith("#")]


def _dictionary_alternation(words: list[str]) -> str:
    # Longest-first so the regex prefers full multi-word entries.
    escaped = sorted((re.escape(w) for w in words), key=len, reverse=True)
    return "(?:" + "|".join(escaped) + ")"


def parse_rules(text: str, source: str = "<config>") -> tuple[int, list[Rule]]:
    """Parse the tab-separated rule config; returns (version, rules)."""
    macros = {
        "@FIRST_NAMES@": _dictionary_alternation(_load_wordlist("first_names.txt")),
        "@LAST_NAMES@": _dictionary_alternation(_load_wordlist("last_names.txt")),
        "@LOCATIONS@": _dictionary_alternation(_load_wordlist("locations.txt")),
    }
    version = None
    rules: list[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("version"):
            version = int(line.split()[1])
            continue
        parts = raw.split("\t")
        if len(parts) != 4:
            raise SchemaError(f"rule line needs 4 tab-separated fields, got {len(parts)}",
                              path=source, line=lineno)
        entity_name, priority, validator_name, pattern = parts
        try:
            entity = EntityType[entity_name.strip()]
        except KeyError:
            raise SchemaError(f"unknown entity type {entity_name!r}",
                              path=source, line=lineno) from None
        if validator_name.strip() not in VALIDATORS:
            raise SchemaError(f"unknown validator {validator_name!r}",
                              path=source, line=lineno)
        for macro, alternation in macros.items():
            pattern = pattern.replace(macro, alternation)
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            raise SchemaError(f"bad pattern: {exc}", path=source, line=lineno) from None
        rules.append(Rule(entity=entity, priority=int(priority),
                          validator=VALIDATORS[validator_name.strip()],
                          validator_name=validator_name.strip(), pattern=compiled))
    if version is None:
        raise SchemaError("missing 'version' line", path=source)
    return version, rules


class Redactor:
    """Immutable rule engine; safe for concurrent use once constructed."""

    def __init__(self, rules: list[Rule], version: int = 0):
        self._rules = tuple(rules)
        self.version = version

    @classmethod
    def default(cls) -> "Redactor":
        text = resources.files("binaryshield.data").joinpath("default.rules").read_text("utf-8")
        version, rules = parse_rules(text, source="binaryshield/data/default.rules")
        return cls(rules, version=version)

    @classmethod
    def from_config(cls, path: str | Path) -> "Redactor":
        path = Path(path)
        version, rules = parse_rules(path.read_text("utf-8"), source=str(path))
        return cls(rules, version=version)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def detect(self, text: str) -> list[EntitySpan]:
        """All entity spans after overlap resolution.

        Candidates are resolved deterministically: longer span wins, then
        the matching rule's lower PRIORITY, then the entity type's lower
        value, then earlier start. Returned spans are non-overlapping and
        sorted by start offset.
        """
        candidates: set[tuple[int, int, int, EntityType]] = set()
        for rule in self._rules:
            for m in rule.pattern.finditer(text):
                if m.start() == m.end():
                    continue
                if rule.validator(m.group()):
                    candidates.add((m.start(), m.end(), rule.priority, rule.entity))
        ordered = sorted(candidates,
                         key=lambda c: (-(c[1] - c[0]), c[2], c[3].value, c[0]))
        accepted: list[tuple[int, int, EntityType]] = []
        for start, end, _priority, entity in ordered:
            if all(end <= s or start >= e for s, e, _ in accepted):
                accepted.append((start, end, entity))
        accepted.sort()
        return [EntitySpan(start=s, end=e, entity_type=t, matched_text=text[s:e])
                for s, e, t in accepted]

    def redact(self, text: str) -> RedactedPrompt:
        """Replace every resolved span with its ``[ENTITY_TYPE]`` placeholder.

        Replacement runs right-to-left so earlier offsets stay valid, and
        repeats until no rule matches, which makes redaction a fixed point
        (a second pass is almost never needed; it only fires when a
        partially overlapping candidate left a detectable tail).
        """
        counts: Counter[EntityType] = Counter()
        original_length = len(text)
        current = text
        for _ in range(8):
            spans = self.detect(current)
            if not spans:
                break
            for span in reversed(spans):
                counts[span.entity_type] += 1
                current = (current[: span.start]
                           + f"[{span.entity_type.name}]"
                           + current[span.end:])
        return RedactedPrompt(text=current, entity_counts=dict(counts),
                              original_length=original_length)


def entity_histogram(corpus: Iterable[object],
                     redactor: Redactor | None = None) -> tuple[Counter, int]:
    """Sum detected-entity counts across a corpus of strings.

    Non-string / undecodable records are skipped and tallied in the second
    return value instead of aborting the stream.
    """
    redactor = redactor or Redactor.default()
    histogram: Counter[EntityType] = Counter()
    skipped = 0
    for item in corpus:
        if not isinstance(item, str):
            skipped += 1
            continue
        for span in redactor.detect(item):
            histogram[span.entity_type] += 1
    return histogram, skipped


def histogram_to_csv(histogram: Counter) -> str:
    """Plot-ready CSV (entity,count), all entity types, descending count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entity", "count"])
    for entity in sorted(EntityType, key=lambda e: (-histogram.get(e, 0), e.value)):
        writer.writerow([entity.name, histogram.get(entity, 0)])
    return buf.getvalue()
