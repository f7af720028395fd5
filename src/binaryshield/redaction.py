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
from typing import Callable

from .errors import SchemaError

try:
    from re import _compiler as _regex_compiler
    from re import _parser as _regex_parser
except ImportError:  # Python 3.10 names them sre_compile and sre_parse
    import sre_compile as _regex_compiler
    import sre_parse as _regex_parser


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
    """One detection rule. ``literals`` and ``needs_digit`` are what every
    match of ``pattern`` contains; ``Redactor.detect`` skips the rule on a
    text without them. A rule built without them always runs."""

    entity: EntityType
    priority: int
    validator: Callable[[str], bool]
    validator_name: str
    pattern: re.Pattern
    literals: frozenset[str] = frozenset()
    needs_digit: bool = False


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
    # Longest-first so the regex prefers full multi-word entries. The
    # lookahead on the entries' first characters rejects most positions
    # before the engine tries every entry.
    escaped = sorted((re.escape(w) for w in words), key=len, reverse=True)
    firsts = "".join(re.escape(ch) for ch in sorted({w[0] for w in words}))
    return f"(?:(?=[{firsts}])(?:" + "|".join(escaped) + "))"


_DIGIT = re.compile(r"\d")


def _required(parsed) -> tuple[frozenset[str], bool]:
    """What every match of a parsed pattern contains: its mandatory literal
    runs, and whether it has a mandatory ``\\d``.

    Only mandatory elements count: literals, ``\\d``, repeats with a
    minimum of at least one, and groups. Branches, lookarounds and anything
    else add nothing; literals under IGNORECASE add nothing either.
    """
    literals: set[str] = set()
    needs_digit = False

    def walk(items, ignorecase: bool) -> None:
        nonlocal needs_digit
        run: list[str] = []
        for op, arg in items:
            if op == _regex_parser.LITERAL and not ignorecase:
                run.append(chr(arg))
                continue
            if run:
                literals.add("".join(run))
                run = []
            if op == _regex_parser.IN:
                needs_digit |= arg == [(_regex_parser.CATEGORY,
                                        _regex_parser.CATEGORY_DIGIT)]
            elif op in (_regex_parser.MAX_REPEAT, _regex_parser.MIN_REPEAT):
                if arg[0] >= 1:
                    walk(arg[2], ignorecase)
            elif op == _regex_parser.SUBPATTERN:
                _group, add_flags, del_flags, body = arg
                walk(body, bool((ignorecase or add_flags & re.IGNORECASE)
                                and not del_flags & re.IGNORECASE))
        if run:
            literals.add("".join(run))

    walk(parsed, bool(parsed.state.flags & re.IGNORECASE))
    return frozenset(literals), needs_digit


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
            # One parse serves the gate and the compiled pattern: parsing a
            # dictionary alternation costs about half of compiling it. A
            # pattern compiled from its parse has ``.pattern`` None.
            parsed = _regex_parser.parse(pattern)
            literals, needs_digit = _required(parsed)
            compiled = _regex_compiler.compile(parsed)
        except re.error as exc:
            raise SchemaError(f"bad pattern: {exc}", path=source, line=lineno) from None
        rules.append(Rule(entity=entity, priority=int(priority),
                          validator=VALIDATORS[validator_name.strip()],
                          validator_name=validator_name.strip(), pattern=compiled,
                          literals=literals, needs_digit=needs_digit))
    if version is None:
        raise SchemaError("missing 'version' line", path=source)
    return version, rules


class Redactor:
    """Immutable rule engine; safe for concurrent use once constructed."""

    def __init__(self, rules: list[Rule], version: int = 0):
        self._rules = tuple(rules)
        self.version = version
        self._literals = frozenset().union(*(rule.literals for rule in self._rules))

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
        sorted by start offset. A rule whose required literals or digit
        the text lacks cannot match and is skipped.
        """
        has_digit = _DIGIT.search(text) is not None
        present = {literal for literal in self._literals if literal in text}
        candidates: set[tuple[int, int, int, EntityType]] = set()
        for rule in self._rules:
            if (rule.needs_digit and not has_digit) or not rule.literals <= present:
                continue
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
        repeats until no rule matches, which makes redaction a fixed point.
        Whenever a pass found anything, a confirming pass follows (about 1.5
        ``detect`` calls per redact on prompts that often carry PII); it
        rarely finds more, only when a partially overlapping candidate left
        a detectable tail. The confirming pass is cheap when the first
        removed every digit, since the digit rules are then skipped.
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


def histogram_to_csv(histogram: Counter) -> str:
    """Plot-ready CSV (entity,count), all entity types, descending count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["entity", "count"])
    for entity in sorted(EntityType, key=lambda e: (-histogram.get(e, 0), e.value)):
        writer.writerow([entity.name, histogram.get(entity, 0)])
    return buf.getvalue()
