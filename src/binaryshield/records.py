"""Record types and the one reader of line-oriented input.

Prompt files, labelled datasets (pairs and corpora) and wire-frame files
are all read through :func:`iter_lines`: bytes in, each line decoded as
UTF-8 on its own, blank lines skipped. Records are checked field by field
against a table of JSON types before they are built, so every fault in
such a file is a ``SchemaError`` at path:line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from .errors import FieldError, SchemaError


class VariantType(Enum):
    V1 = "V1"
    V3 = "V3"
    V5 = "V5"
    V10 = "V10"
    V20 = "V20"
    PARAPHRASE = "PARAPHRASE"
    BENIGN_PAIR = "BENIGN_PAIR"


#: How many token substitutions each word-flipping variant applies.
VARIANT_SUBSTITUTIONS = {
    VariantType.V1: 1,
    VariantType.V3: 3,
    VariantType.V5: 5,
    VariantType.V10: 10,
    VariantType.V20: 20,
}


def check_strings(ids: Mapping[str, object] = {}, texts: Mapping[str, object] = {},
                  metadata: object = {}) -> None:
    """The one rule for the strings of a prompt, dataset record, wire frame,
    scenario event or store entry: each id is a non-empty string,
    ``metadata`` maps strings to strings with no newline in a value, and
    UTF-8 can encode every id, text and metadata string, so no lone
    surrogate such as ``"\\ud800"`` (a valid JSON escape) passes. ``ids``
    and ``texts`` (strings already) map field names to values; a fault
    raises ``FieldError`` naming its field."""
    for name, value in ids.items():
        if not isinstance(value, str) or not value:
            raise FieldError(name, "must be a non-empty string")
    if not isinstance(metadata, dict):
        raise FieldError("metadata", "must map strings to strings")
    strings = [*ids.items(), *texts.items()]
    for key, value in metadata.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise FieldError("metadata", "must map strings to strings")
        if "\n" in value:
            raise FieldError("metadata", f"value for {key!r} contains a newline")
        strings += (("metadata", key), ("metadata", value))
    for name, value in strings:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise FieldError(name, f"is not UTF-8 encodable ({value[exc.start]!r} "
                                   f"at character {exc.start})") from None


@dataclass(frozen=True)
class PromptRecord:
    """One flagged prompt, as read by the fingerprint, redact, simhash and
    embed-cache commands; metadata travels with its fingerprint."""

    id: str
    text: str
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PairRecord:
    """One labeled prompt pair: attack variants (label 1) or two unrelated
    benign prompts (label 0)."""

    id: str
    prompt_a: str
    prompt_b: str
    label: int
    variant_type: VariantType

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        benign = self.variant_type is VariantType.BENIGN_PAIR
        if (self.label == 1) == benign:
            raise ValueError(
                f"pair {self.id}: label {self.label} inconsistent with "
                f"variant_type {self.variant_type.value}")


@dataclass(frozen=True)
class CorpusRecord:
    """One corpus entry; attack_group links variants of the same attack."""

    id: str
    text: str
    is_attack: bool
    attack_group: str | None = None

    def __post_init__(self):
        if self.is_attack != (self.attack_group is not None):
            raise ValueError(
                f"record {self.id}: attack_group must be present iff is_attack")


# -- reading ------------------------------------------------------------------

def iter_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) for each non-blank line of a file, stripped.
    Each line is decoded on its own, so bytes that are not UTF-8 raise
    ``SchemaError`` at path:line, naming their offset in the file."""
    with open(path, "rb") as fh:
        offset = 0
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise SchemaError(f"not valid UTF-8 at byte {offset + exc.start}",
                                  path=str(path), line=lineno) from None
            offset += len(raw)
            if line:
                yield lineno, line


def _iter_objects(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file."""
    for lineno, line in iter_lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"malformed JSON: {exc.msg}",
                              path=str(path), line=lineno) from None
        except (ValueError, RecursionError) as exc:  # too long an int, too deep
            raise SchemaError(f"malformed JSON: {exc}",
                              path=str(path), line=lineno) from None
        if not isinstance(obj, dict):
            raise SchemaError("record is not a JSON object",
                              path=str(path), line=lineno)
        yield lineno, obj


@dataclass
class LoadResult:
    records: list
    dropped_empty: int = 0
    dropped_duplicate: int = 0


# Each field's allowed JSON types; a field that allows null may be absent.
_PROMPT_FIELDS = {"id": (str,), "text": (str,), "metadata": (dict, type(None))}
_PAIR_FIELDS = {"id": (str,), "prompt_a": (str,), "prompt_b": (str,),
                "label": (int,), "variant_type": (str,)}
_CORPUS_FIELDS = {"id": (str,), "text": (str,), "is_attack": (bool,),
                  "attack_group": (str, type(None))}


def _load_records(path: str | Path, fields: dict, build) -> list:
    """The one typed record loop: fields are type-checked and held to
    :func:`check_strings` before ``build`` runs, so every violation, a
    repeated id included, is a ``SchemaError`` at path:line."""
    records = []
    seen_ids: set[str] = set()
    required = [k for k, kinds in fields.items() if type(None) not in kinds]
    for lineno, obj in _iter_objects(path):
        where = {"path": str(path), "line": lineno}
        missing = [k for k in required if k not in obj]
        if missing:
            raise SchemaError(f"missing field {sorted(missing)[0]!r}", **where)
        unknown = obj.keys() - fields.keys()
        if unknown:
            raise SchemaError(f"unknown field {sorted(unknown)[0]!r}", **where)
        for key, value in obj.items():
            if type(value) not in fields[key]:
                raise SchemaError(f"field {key!r} has the wrong type "
                                  f"{type(value).__name__}", **where)
        try:
            check_strings({"id": obj["id"]},
                          {k: v for k, v in obj.items() if k != "id" and type(v) is str},
                          obj.get("metadata") or {})
            if obj["id"] in seen_ids:
                raise ValueError(f"duplicate id {obj['id']!r}")
            records.append(build(obj))
        except ValueError as exc:
            raise SchemaError(str(exc), **where) from None
        seen_ids.add(obj["id"])
    return records


def _drop_empty_and_repeated(records: list, content) -> LoadResult:
    """Drop records whose ``content`` strings hold an empty one, or repeat
    an earlier record's, and count both."""
    kept = []
    seen: set[tuple[str, ...]] = set()
    dropped_empty = dropped_duplicate = 0
    for record in records:
        key = content(record)
        if not all(text.strip() for text in key):
            dropped_empty += 1
        elif key in seen:
            dropped_duplicate += 1
        else:
            seen.add(key)
            kept.append(record)
    return LoadResult(records=kept, dropped_empty=dropped_empty,
                      dropped_duplicate=dropped_duplicate)


def load_prompts(path: str | Path) -> list[PromptRecord]:
    """Read prompt JSONL: string ``id`` and ``text``, optional ``metadata``.

    Ids must be non-empty and unique. Empty and repeated texts are kept:
    each prompt is a detection in its own right and gets its own
    fingerprint.
    """
    return _load_records(
        path, _PROMPT_FIELDS,
        lambda o: PromptRecord(id=o["id"], text=o["text"],
                               metadata=o.get("metadata") or {}))


def load_pairs(path: str | Path) -> LoadResult:
    """Read PairRecord JSONL with strict validation.

    Duplicate ids are an error; records with empty prompts or duplicate
    (prompt_a, prompt_b) content are dropped and counted, mirroring the
    dataset filtering the experiments assume.
    """
    return _drop_empty_and_repeated(_load_records(
        path, _PAIR_FIELDS,
        lambda o: PairRecord(id=o["id"], prompt_a=o["prompt_a"],
                             prompt_b=o["prompt_b"], label=o["label"],
                             variant_type=VariantType(o["variant_type"]))),
        lambda r: (r.prompt_a, r.prompt_b))


def load_corpus(path: str | Path) -> LoadResult:
    """Read CorpusRecord JSONL with strict validation; same drop rules as
    load_pairs (empty texts and exact duplicate texts)."""
    return _drop_empty_and_repeated(_load_records(
        path, _CORPUS_FIELDS,
        lambda o: CorpusRecord(id=o["id"], text=o["text"], is_attack=o["is_attack"],
                               attack_group=o.get("attack_group"))),
        lambda r: (r.text,))


# -- writing ------------------------------------------------------------------

def _write_jsonl(objs: Iterable[dict], dest) -> None:
    """One compact JSON object per line, to a path or an open text handle."""
    fh = dest if hasattr(dest, "write") else open(dest, "w", encoding="utf-8")
    try:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")
    finally:
        if fh is not dest:
            fh.close()


def write_pairs_jsonl(records: Iterable[PairRecord], dest) -> None:
    """Write PairRecord JSONL to a path or an open text handle."""
    _write_jsonl(({"id": r.id, "prompt_a": r.prompt_a, "prompt_b": r.prompt_b,
                   "label": r.label, "variant_type": r.variant_type.value}
                  for r in records), dest)


def write_corpus_jsonl(records: Iterable[CorpusRecord], dest) -> None:
    """Write CorpusRecord JSONL to a path or an open text handle; a record
    with no attack group has no attack_group key."""
    _write_jsonl(({"id": r.id, "text": r.text, "is_attack": r.is_attack}
                  | ({} if r.attack_group is None else {"attack_group": r.attack_group})
                  for r in records), dest)
