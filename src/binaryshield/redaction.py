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


_MACROS = {"@FIRST_NAMES@": "first_names.txt", "@LAST_NAMES@": "last_names.txt",
          "@LOCATIONS@": "locations.txt"}

_LITERAL = _regex_parser.LITERAL
_SUBPATTERN = _regex_parser.SUBPATTERN
_BRANCH = _regex_parser.BRANCH
_ASSERT = _regex_parser.ASSERT
_REPEATS = (_regex_parser.MAX_REPEAT, _regex_parser.MIN_REPEAT)
_ZERO_WIDTH = (_regex_parser.AT, _ASSERT, _regex_parser.ASSERT_NOT)
_ONE_CHAR = (_LITERAL, _regex_parser.NOT_LITERAL, _regex_parser.IN, _regex_parser.ANY)


def _group(state, items: list) -> tuple:
    """A non-capturing group around ``items``, as one parse-tree item."""
    return _SUBPATTERN, (None, 0, 0, _regex_parser.SubPattern(state, items))


def _dictionary_tree(words: list[str], state) -> tuple:
    """The parse tree of a dictionary macro: the entries longest-first, so
    the regex prefers full multi-word entries, grouped by first character.

    A group whose entries share one exact first character is written
    ``A(?:lice|aron|...)``, which the leading-assertion rewrite turns into
    one lookbehind per group. Groups are keyed by the casefolded first
    character: under IGNORECASE only entries of one group can match at a
    position, in the same order as in one flat alternation.
    """
    groups: dict[str, list[str]] = {}
    for word in sorted(words, key=len, reverse=True):
        groups.setdefault(word[0].casefold(), []).append(word)

    def literals(text: str) -> list:
        return [(_LITERAL, ord(ch)) for ch in text]

    alternatives = []
    for group in groups.values():
        first = group[0][0]
        if all(word[0] == first for word in group):
            rests = [_regex_parser.SubPattern(state, literals(word[1:])) for word in group]
            alternatives.append(literals(first)
                                + [_group(state, [(_BRANCH, (None, rests))])])
        else:
            alternatives.extend(literals(word) for word in group)
    return _group(state, [(_BRANCH, (None, [_regex_parser.SubPattern(state, alternative)
                                            for alternative in alternatives]))])


def _macro_trees() -> dict[str, tuple]:
    """Each macro's dictionary tree, built from its bundled word list."""
    state = _regex_parser.State()
    return {macro: _dictionary_tree(_load_wordlist(name), state)
            for macro, name in _MACROS.items()}


def _splice(parsed, marks: dict[tuple, tuple]):
    """A copy of ``parsed`` with each macro mark, a group around one literal
    that is a key of ``marks``, replaced by its dictionary tree. Every
    subpattern is new, so no width cached while the marks stood is kept,
    and each capturing group's width is measured again for lookbehind
    references."""
    state = parsed.state

    def copy(value):
        if isinstance(value, _regex_parser.SubPattern):
            return walk(value)
        if isinstance(value, (tuple, list)):
            return type(value)(copy(part) for part in value)
        return value

    def walk(subpattern):
        items = []
        for op, av in subpattern.data:
            if op is _SUBPATTERN and len(av[3]) == 1 and av[3][0] in marks:
                items.append(marks[av[3][0]])
                continue
            if op is _regex_parser.IN and any(item in marks for item in av):
                raise re.error("a macro cannot stand inside a character set")
            av = copy(av)
            if op is _SUBPATTERN and av[0] is not None:
                state.groupwidths[av[0]] = av[3].getwidth()
            items.append((op, av))
        return _regex_parser.SubPattern(state, items)

    return walk(parsed)


def _parse_pattern(pattern: str, trees: dict[str, tuple]):
    """The parse tree of ``pattern`` with each macro's tree spliced in.

    Parsing a macro's alternation as text would cost more than the rest of
    the rule, so each macro is parsed as a mark: a private-use character the
    pattern cannot spell, in a flag group (``(?s:...)``; the flag changes
    nothing for a literal), which the parser neither unpacks, nor merges
    into a character set, nor factors out of a branch. Neither the character
    nor its hex code (which a ``\\u`` or ``\\U`` escape would need) is in the
    text, and private-use characters have no ``\\N{...}`` name.
    """
    lowered = pattern.lower()
    free = (code for code in range(0xE000, 0xF900)
            if chr(code) not in pattern and f"{code:x}" not in lowered)
    marked, marks = pattern, {}
    for macro, tree in trees.items():
        if macro in pattern:
            code = next(free, None)
            if code is None:
                raise re.error("no private-use character is free to mark a macro")
            marked = marked.replace(macro, f"(?s:{chr(code)})")
            marks[_LITERAL, code] = tree
    parsed = _regex_parser.parse(marked)
    return _splice(parsed, marks) if marks else parsed


def _peel(zero_width: list, items: list, state) -> list | None:
    """``items`` preceded by the zero-width ``zero_width``, rewritten as
    ``C (?<=Z C) rest``: its first character C, a one-character lookbehind
    that evaluates Z at C's position, then the rest. None if the first
    element is not a character, a repeat of at least one, a plain group or
    a branch of such."""
    if not items:
        return None
    (op, av), rest = items[0], items[1:]
    if op in _ONE_CHAR:
        behind = _regex_parser.SubPattern(state, [*zero_width, (op, av)])
        return [(op, av), (_ASSERT, (-1, behind)), *rest]
    if op in _REPEATS and av[0] >= 1:
        # X{m,n} is X X{m-1,n-1}, tried in the same order
        low, high, body = av
        head = _peel(zero_width, list(body), state)
        if head is None:
            return None
        if high != _regex_parser.MAXREPEAT:
            high -= 1
        return [*head, *([(op, (low - 1, high, body))] if high else []), *rest]
    if op is _SUBPATTERN and av[:3] == (None, 0, 0):
        head = _peel(zero_width, list(av[3]), state)
        return None if head is None else [*head, *rest]
    if op is _BRANCH:
        # Z(A|B) is (ZA|ZB)
        alternatives = [_peel(zero_width, list(alternative), state)
                        for alternative in av[1]]
        if None in alternatives:
            return None
        return [(_BRANCH, (None, [_regex_parser.SubPattern(state, alternative)
                                  for alternative in alternatives])), *rest]
    return None


def _skip_ahead(parsed):
    """``parsed`` with its leading zero-width items (``\\b``, ``^``,
    lookarounds) moved behind its first character, so that the compiled
    pattern starts with a character or set the engine can search for;
    ``parsed`` itself when it has none or they cannot move. The lookbehind
    steps back over that character and evaluates them at the same position,
    so every match is the same."""
    count = 0
    while count < len(parsed) and parsed[count][0] in _ZERO_WIDTH:
        count += 1
    if not count:
        return parsed
    items = _peel(list(parsed[:count]), list(parsed[count:]), parsed.state)
    return parsed if items is None else _regex_parser.SubPattern(parsed.state, items)


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
            if op is _LITERAL and not ignorecase:
                run.append(chr(arg))
                continue
            if run:
                literals.add("".join(run))
                run = []
            if op is _regex_parser.IN:
                needs_digit |= arg == [(_regex_parser.CATEGORY,
                                        _regex_parser.CATEGORY_DIGIT)]
            elif op in _REPEATS:
                if arg[0] >= 1:
                    walk(arg[2], ignorecase)
            elif op is _SUBPATTERN:
                _number, add_flags, del_flags, body = arg
                walk(body, bool((ignorecase or add_flags & re.IGNORECASE)
                                and not del_flags & re.IGNORECASE))
        if run:
            literals.add("".join(run))

    walk(parsed, bool(parsed.state.flags & re.IGNORECASE))
    return frozenset(literals), needs_digit


def parse_rules(text: str, source: str = "<config>") -> tuple[int, list[Rule]]:
    """Parse the tab-separated rule config; returns (version, rules).

    Each pattern is parsed once. A dictionary macro is parsed as a private
    mark and its tree, built from the word list, is spliced in where the
    mark stands, which costs less than parsing the alternation's text. The
    gate (:func:`_required`) is read from that tree. Its leading zero-width
    items then move behind its first character (:func:`_skip_ahead`), so
    that the engine searches for that character instead of trying a match
    at every position, and the result is compiled. The matches are the same
    as the pattern's as written, macros expanded; a pattern compiled from
    its parse has ``.pattern`` None.
    """
    trees = _macro_trees()
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
        try:
            parsed = _parse_pattern(pattern, trees)
            literals, needs_digit = _required(parsed)
            compiled = _regex_compiler.compile(_skip_ahead(parsed))
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
