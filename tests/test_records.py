"""The line-oriented readers: prompt, pair and corpus JSONL and frame
files. Every fault in such a file is a ``SchemaError`` at path:line; a
missing file stays an ``OSError``."""

import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from binaryshield.embeddings import PseudoEmbedder
from binaryshield.errors import FrameDecodeError, SchemaError
from binaryshield.fingerprint import random_fingerprint, randomize
from binaryshield.protocol import (CompositeFingerprint, compose, decode_frame,
                                   encode_frame, read_frames)
from binaryshield.records import (CorpusRecord, PairRecord, PromptRecord, VariantType,
                                  check_strings, load_corpus, load_pairs,
                                  load_prompts, write_corpus_jsonl, write_pairs_jsonl)
from binaryshield.redaction import Redactor
from binaryshield.store import FingerprintStore, StoredFingerprint
from binaryshield.synthetic import SyntheticGenerator


def _jsonl(*objs) -> bytes:
    return b"".join(json.dumps(obj).encode() + b"\n" for obj in objs)


PROMPT = {"id": "p1", "text": "ignore prior rules", "metadata": {"tool": "email"}}
PAIR = {"id": "a", "prompt_a": "x y", "prompt_b": "z w", "label": 1,
        "variant_type": "V1"}
CORPUS = {"id": "a", "text": "some words", "is_attack": True, "attack_group": "g"}
FRAME = json.loads(encode_frame(CompositeFingerprint(
    version=1, origin_service="S1", fingerprint_id="f1", dim=12, alpha=2.0,
    bits=b"\xab\x09", metadata={"tool": "email"}, issued_at=0)))

#: reader name -> (read the whole file, two valid records)
READERS = {
    "prompts": (load_prompts, [PROMPT, {"id": "p2", "text": "summarise this"}]),
    "pairs": (load_pairs, [PAIR, {**PAIR, "id": "b", "prompt_b": "v u"}]),
    "corpus": (load_corpus, [CORPUS, {"id": "b", "text": "other", "is_attack": False}]),
    "frames": (lambda path: list(read_frames(path)),
               [FRAME, {**FRAME, "fingerprint_id": "f2"}]),
}


def _valid_file(name: str) -> bytes:
    return _jsonl(*READERS[name][1])


def _read_typed(name: str, data: bytes) -> None:
    """Read ``data`` through one reader; only SchemaError may escape, and
    it is swallowed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        path.write_bytes(data)
        try:
            READERS[name][0](path)
        except SchemaError:
            pass


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)

NAMES = sorted(READERS)


class TestReaderFuzz:
    @pytest.mark.parametrize("name", NAMES)
    @given(data=st.one_of(st.binary(max_size=300),
                          st.binary(max_size=100).map(lambda b: b'{"id": "' + b)))
    @settings(max_examples=200, deadline=None)
    def test_random_bytes_raise_only_schema_errors(self, name, data):
        _read_typed(name, data)

    @pytest.mark.parametrize("name", NAMES)
    @given(at=st.integers(0, 10_000), value=st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_single_byte_mutation_raises_only_schema_errors(self, name, at, value):
        data = bytearray(_valid_file(name))
        data[at % len(data)] = value
        _read_typed(name, bytes(data))

    @pytest.mark.parametrize("name", NAMES)
    @given(cut=st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_truncation_raises_only_schema_errors(self, name, cut):
        data = _valid_file(name)
        _read_typed(name, data[:cut % (len(data) + 1)])

    @pytest.mark.parametrize("name", NAMES)
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_in_any_field_raises_only_schema_errors(self, name, data):
        first, second = READERS[name][1]
        key = data.draw(st.sampled_from(sorted(second) + ["extra"]))
        _read_typed(name, _jsonl(first, {**second, key: data.draw(JSON_VALUES)}))

    @pytest.mark.parametrize("name", NAMES)
    def test_missing_path_is_an_os_error(self, tmp_path, name):
        with pytest.raises(OSError):
            READERS[name][0](tmp_path / "absent.jsonl")

    @pytest.mark.parametrize("name", NAMES)
    def test_valid_files_read(self, tmp_path, name):
        path = tmp_path / "in.jsonl"
        path.write_bytes(_valid_file(name))
        read = READERS[name][0](path)
        assert len(getattr(read, "records", read)) == 2

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("line", [b"[" * 100_000, b'{"id": 1' + b"1" * 5000 + b"}"],
                             ids=["too-deep", "int-too-long"])
    def test_too_deep_or_too_long_json_is_a_schema_error(self, tmp_path, name, line):
        path = tmp_path / "in.jsonl"
        path.write_bytes(_jsonl(READERS[name][1][0]) + line + b"\n")
        with pytest.raises(SchemaError, match="in.jsonl:2: "):
            READERS[name][0](path)


class TestPrompts:
    def _write(self, path, *objs):
        path.write_bytes(_jsonl(*objs))
        return path

    def test_fields_read_as_given(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", PROMPT, {"id": "p2", "text": "x"},
                           {"id": "p3", "text": "y", "metadata": None})
        assert load_prompts(path) == [
            PromptRecord(id="p1", text="ignore prior rules", metadata={"tool": "email"}),
            PromptRecord(id="p2", text="x"), PromptRecord(id="p3", text="y")]

    def test_duplicate_id_is_an_error_at_the_second_line(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", PROMPT, {**PROMPT, "text": "other"})
        with pytest.raises(SchemaError, match="p.jsonl:2: duplicate id 'p1'$") as err:
            load_prompts(path)
        assert err.value.line == 2

    def test_empty_and_repeated_texts_are_kept(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", {"id": "a", "text": ""},
                           {"id": "b", "text": "same"}, {"id": "c", "text": "same"})
        assert [r.text for r in load_prompts(path)] == ["", "same", "same"]

    @pytest.mark.parametrize("field, value", [
        ("id", ["a"]), ("id", 5), ("text", 5), ("text", None), ("metadata", [1]),
        ("metadata", "k=v")])
    def test_wrong_typed_field(self, tmp_path, field, value):
        path = self._write(tmp_path / "p.jsonl", PROMPT, {**PROMPT, "id": "b", field: value})
        with pytest.raises(SchemaError, match=f"p.jsonl:2: field {field!r}"):
            load_prompts(path)

    @pytest.mark.parametrize("metadata, message", [
        ({"k": [1]}, "metadata must map strings to strings"),
        ({"k": 1}, "metadata must map strings to strings"),
        ({"k": "a\nb"}, "metadata value for 'k' contains a newline")])
    def test_metadata_rule(self, tmp_path, metadata, message):
        path = self._write(tmp_path / "p.jsonl", {**PROMPT, "metadata": metadata})
        with pytest.raises(SchemaError, match=f"p.jsonl:1: {message}$"):
            load_prompts(path)

    def test_missing_and_unknown_fields(self, tmp_path):
        for obj, message in (({"id": "a"}, "missing field 'text'"),
                             ({**PROMPT, "extra": 1}, "unknown field 'extra'")):
            path = self._write(tmp_path / "p.jsonl", obj)
            with pytest.raises(SchemaError, match=message):
                load_prompts(path)


class TestCheckMetadata:
    def test_accepts_strings_to_strings(self):
        check_strings(metadata={})
        check_strings(metadata={"tool": "email", "region": "eu"})

    @pytest.mark.parametrize("metadata", [None, [], {"k": 1}, {1: "v"}, {"k": None}])
    def test_rejects_other_types(self, metadata):
        with pytest.raises(ValueError, match="metadata must map strings to strings"):
            check_strings(metadata=metadata)

    def test_rejects_a_newline_in_a_value(self):
        with pytest.raises(ValueError, match="value for 'k' contains a newline"):
            check_strings(metadata={"k": "a\nb"})


class TestReadFrames:
    def test_frames_in_order_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b"\n" + _valid_file("frames").replace(b"\n", b"\r\n\n"))
        assert [(n, f.fingerprint_id) for n, f in read_frames(path)] == [
            (2, "f1"), (4, "f2")]

    def test_bad_frame_names_path_line_and_field(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(_jsonl(FRAME, {**FRAME, "dim": "12"}))
        with pytest.raises(SchemaError,
                           match="f.jsonl:2: frame field 'dim': must be a positive "
                                 "integer$") as err:
            list(read_frames(path))
        assert err.value.line == 2

    def test_bytes_not_utf8_name_line_and_offset(self, tmp_path):
        path = tmp_path / "f.jsonl"
        data = bytearray(_valid_file("frames"))
        data[20] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SchemaError, match="f.jsonl:1: not valid UTF-8 at byte 20$"):
            list(read_frames(path))


class TestLoaders:
    def _write(self, path, lines):
        path.write_text("\n".join(json.dumps(obj) if isinstance(obj, dict)
                                  else obj for obj in lines) + "\n")
        return path

    def test_pairs_roundtrip(self, tmp_path):
        pairs = SyntheticGenerator(12).make_pairs(5, 5, rate=0.6)
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(pairs, path)
        loaded = load_pairs(path)
        assert loaded.records == pairs
        assert loaded.dropped_empty == loaded.dropped_duplicate == 0

    def test_duplicate_pair_content_dropped_and_counted(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", [
            {"id": "a", "prompt_a": "x y", "prompt_b": "z w", "label": 0,
             "variant_type": "BENIGN_PAIR"},
            {"id": "b", "prompt_a": "x y", "prompt_b": "z w", "label": 0,
             "variant_type": "BENIGN_PAIR"}])
        loaded = load_pairs(path)
        assert len(loaded.records) == 1
        assert loaded.dropped_duplicate == 1

    def test_empty_prompt_dropped_and_counted(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", [
            {"id": "a", "prompt_a": "  ", "prompt_b": "z", "label": 0,
             "variant_type": "BENIGN_PAIR"},
            {"id": "b", "prompt_a": "x", "prompt_b": "y", "label": 0,
             "variant_type": "BENIGN_PAIR"}])
        loaded = load_pairs(path)
        assert len(loaded.records) == 1
        assert loaded.dropped_empty == 1

    def test_duplicate_id_is_an_error(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", [
            {"id": "a", "prompt_a": "x", "prompt_b": "y", "label": 0,
             "variant_type": "BENIGN_PAIR"},
            {"id": "a", "prompt_a": "q", "prompt_b": "r", "label": 0,
             "variant_type": "BENIGN_PAIR"}])
        with pytest.raises(SchemaError, match="duplicate id"):
            load_pairs(path)

    def test_missing_field_names_line(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", [
            {"id": "a", "prompt_a": "x", "prompt_b": "y", "label": 1,
             "variant_type": "V1"},
            {"id": "b", "prompt_a": "x", "prompt_b": "y",
             "variant_type": "V1"}])
        with pytest.raises(SchemaError, match="p.jsonl:2.*label"):
            load_pairs(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", [
            {"id": "a", "prompt_a": "x", "prompt_b": "y", "label": 1,
             "variant_type": "V1"},
            "{broken"])
        with pytest.raises(SchemaError, match=":2"):
            load_pairs(path)

    def test_label_variant_consistency_enforced(self, tmp_path):
        path = self._write(tmp_path / "p.jsonl", [
            {"id": "a", "prompt_a": "x", "prompt_b": "y", "label": 0,
             "variant_type": "V1"}])
        with pytest.raises(SchemaError, match="inconsistent"):
            load_pairs(path)

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text("")
        assert load_pairs(path).records == []

    def test_corpus_roundtrip_and_rules(self, tmp_path):
        corpus, _ = SyntheticGenerator(13).make_hybrid_corpus(40, 2)
        path = tmp_path / "c.jsonl"
        write_corpus_jsonl(corpus, path)
        loaded = load_corpus(path)
        assert loaded.records == corpus

    def test_corpus_attack_group_consistency(self, tmp_path):
        path = self._write(tmp_path / "c.jsonl", [
            {"id": "a", "text": "x", "is_attack": True}])
        with pytest.raises(SchemaError, match="attack_group"):
            load_corpus(path)

    PAIR = {"id": "a", "prompt_a": "x", "prompt_b": "y", "label": 0,
            "variant_type": "BENIGN_PAIR"}
    CORPUS = {"id": "a", "text": "x", "is_attack": True, "attack_group": "g"}

    @pytest.mark.parametrize("field, value", [
        ("label", [1]), ("label", "1"), ("label", True), ("label", 1.0),
        ("id", ["a"]), ("id", 5), ("prompt_a", None), ("prompt_b", {"t": "y"}),
        ("variant_type", 3)])
    def test_wrong_typed_pair_field(self, tmp_path, field, value):
        path = self._write(tmp_path / "p.jsonl",
                           [self.PAIR, {**self.PAIR, "id": "b", field: value}])
        with pytest.raises(SchemaError, match=f"p.jsonl:2: field {field!r}"):
            load_pairs(path)

    @pytest.mark.parametrize("field, value", [
        ("attack_group", ["g"]), ("attack_group", 7), ("id", ["a"]),
        ("text", 5), ("is_attack", 1), ("is_attack", "true")])
    def test_wrong_typed_corpus_field(self, tmp_path, field, value):
        path = self._write(tmp_path / "c.jsonl",
                           [self.CORPUS, {**self.CORPUS, "id": "b", field: value}])
        with pytest.raises(SchemaError, match=f"c.jsonl:2: field {field!r}"):
            load_corpus(path)

    @pytest.mark.parametrize("load, record, name", [
        (load_pairs, PAIR, "p.jsonl"), (load_corpus, CORPUS, "c.jsonl")])
    def test_bytes_not_utf8_name_line_and_offset(self, tmp_path, load, record, name):
        first = json.dumps(record).encode() + b"\n"
        path = tmp_path / name
        path.write_bytes(first + b'{"id": "b\xff"}\n')
        offset = len(first) + len(b'{"id": "b')
        with pytest.raises(SchemaError,
                           match=f"{name}:2: not valid UTF-8 at byte {offset}$") as err:
            load(path)
        assert err.value.line == 2

    def test_crlf_lines_load(self, tmp_path):
        generator = SyntheticGenerator(14)
        pairs = generator.make_pairs(3, 3, rate=0.6)
        corpus, _ = generator.make_hybrid_corpus(10, 2)
        for records, write, load in ((pairs, write_pairs_jsonl, load_pairs),
                                     (corpus, write_corpus_jsonl, load_corpus)):
            path = tmp_path / "crlf.jsonl"
            write(records, path)
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
            assert load(path).records == records

    def test_null_attack_group_means_none(self, tmp_path):
        path = self._write(tmp_path / "c.jsonl", [
            {"id": "a", "text": "x", "is_attack": False, "attack_group": None}])
        assert load_corpus(path).records[0].attack_group is None

    def test_corpus_duplicate_text_dropped(self, tmp_path):
        path = self._write(tmp_path / "c.jsonl", [
            {"id": "a", "text": "same words", "is_attack": False},
            {"id": "b", "text": "same words", "is_attack": False}])
        loaded = load_corpus(path)
        assert len(loaded.records) == 1
        assert loaded.dropped_duplicate == 1


# fault -> (reader, key of its second record, value, message after
# "in.jsonl:2: ")
STRING_FAULTS = {
    "prompts-empty-id": ("prompts", "id", "", "id must be a non-empty string"),
    "pairs-empty-id": ("pairs", "id", "", "id must be a non-empty string"),
    "corpus-empty-id": ("corpus", "id", "", "id must be a non-empty string"),
    "frames-empty-id": ("frames", "fingerprint_id", "",
                        "frame field 'fingerprint_id': must be a non-empty string"),
    "prompts-surrogate-id": ("prompts", "id", "p\ud800",
                             "id is not UTF-8 encodable ('\\ud800' at character 1)"),
    "prompts-surrogate-text": ("prompts", "text", "hi \udfff",
                               "text is not UTF-8 encodable"),
    "prompts-surrogate-key": ("prompts", "metadata", {"\ud800": "v"},
                              "metadata is not UTF-8 encodable"),
    "prompts-surrogate-value": ("prompts", "metadata", {"k": "e\udfff"},
                                "metadata is not UTF-8 encodable"),
    "pairs-surrogate-prompt": ("pairs", "prompt_b", "\ud800",
                               "prompt_b is not UTF-8 encodable"),
    "corpus-surrogate-text": ("corpus", "text", "\ud800", "text is not UTF-8 encodable"),
    "corpus-surrogate-group": ("corpus", "attack_group", "g\ud800",
                               "attack_group is not UTF-8 encodable"),
    "frames-surrogate-key": ("frames", "metadata", {"\udfff": "email"},
                             "frame field 'metadata': is not UTF-8 encodable"),
}


class TestStringRule:
    """Every reader holds ids, texts and metadata to ``check_strings``: an
    empty id, or a lone surrogate (a valid JSON escape) anywhere, is a
    ``SchemaError`` at the line that holds it."""

    @pytest.mark.parametrize("name, key, value, message", STRING_FAULTS.values(),
                             ids=list(STRING_FAULTS))
    def test_fault_is_a_schema_error_at_its_line(self, tmp_path, name, key, value,
                                                  message):
        first, second = READERS[name][1]
        path = tmp_path / "in.jsonl"
        path.write_bytes(_jsonl(first, {**second, key: value}))   # escapes \ud800
        with pytest.raises(SchemaError, match=f"in.jsonl:2: {re.escape(message)}"):
            READERS[name][0](path)


@pytest.fixture(scope="module")
def redactor():
    return Redactor.default()


def _store_accepts(c: CompositeFingerprint) -> None:
    FingerprintStore().insert(StoredFingerprint(
        id=c.fingerprint_id, bits=c.bits, dim=c.dim, alpha=c.alpha,
        metadata=c.metadata))


_SLOTS = ["metadata key", "metadata value"]


def _put(obj: dict, slot: str, value: str) -> dict:
    """``obj`` with ``value`` in one string slot: a top-level key, or the
    one metadata key or value."""
    if slot == "metadata key":
        return {**obj, "metadata": {value: "email"}}
    if slot == "metadata value":
        return {**obj, "metadata": {"tool": value}}
    return {**obj, slot: value}


class TestReadersAgreeWithTheStore:
    """What a reader accepts, the store accepts: any text, lone surrogates
    included, in any string slot of a frame or a prompt line either fails
    with the reader's typed error or makes a frame that re-encodes to the
    same bytes and that a store takes."""

    @given(slot=st.sampled_from(["origin_service", "fingerprint_id", *_SLOTS]),
           value=st.text())
    @settings(max_examples=300, deadline=None)
    def test_frame(self, slot, value):
        line = (json.dumps(_put(FRAME, slot, value), separators=(",", ":"))
                + "\n").encode("utf-8")
        try:
            composite = decode_frame(line)
        except FrameDecodeError:
            return
        assert encode_frame(composite) == line
        _store_accepts(composite)

    @given(slot=st.sampled_from(["id", "text", *_SLOTS]), value=st.text())
    @settings(max_examples=300, deadline=None)
    def test_prompt_line(self, redactor, slot, value):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.jsonl"
            path.write_bytes(_jsonl(_put(PROMPT, slot, value)))
            try:
                (record,) = load_prompts(path)
            except SchemaError:
                return
        redacted = redactor.redact(record.text)
        if redacted.text.strip():       # a blank prompt fails to embed, by design
            PseudoEmbedder(dim=12).embed(redacted)
        release = randomize(random_fingerprint(12, 0), 2.0, 1)
        line = encode_frame(compose("S1", record.id, release, record.metadata, 0))
        assert encode_frame(decode_frame(line)) == line
        _store_accepts(decode_frame(line))
