import dataclasses
import re
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binaryshield.errors import SchemaError
from binaryshield.redaction import (_MACROS, VALIDATORS, EntityType, Redactor, Rule,
                                    _dictionary_tree, _load_wordlist, _macro_trees,
                                    _parse_pattern, _regex_compiler, _regex_parser,
                                    _skip_ahead, histogram_to_csv, parse_rules)
from binaryshield.synthetic import SyntheticGenerator

PAPER_SENTENCE = "Transfer $5000 from John Smith's account 123456789"
PAPER_REDACTED = "Transfer [AMOUNT] from [PERSON]'s account [ACCOUNT]"


@pytest.fixture(scope="module")
def redactor():
    return Redactor.default()


def luhn_fix(prefix15: str) -> str:
    """Append the check digit that makes a 16-digit number pass Luhn."""
    for check in "0123456789":
        digits = [int(c) for c in prefix15 + check]
        total = 0
        for i, d in enumerate(reversed(digits)):
            if i % 2 == 1:
                d *= 2
                if d > 9:
                    d -= 9
            total += d
        if total % 10 == 0:
            return prefix15 + check
    raise AssertionError("unreachable")


def build_fuzz_prompts(n: int, seed: int) -> list[str]:
    """Benign carrier sentences with random PII snippets spliced in."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    first = ["John", "Alice", "Maria", "Omar", "Priya", "Victor"]
    last = ["Smith", "Garcia", "Nguyen", "Patel", "Kowalski", "Tanaka"]
    cities = ["Berlin", "Tokyo", "Seattle", "New York", "Paris"]
    carriers = [
        "please forward the report to {} before the review",
        "the customer {} called twice about the invoice",
        "note from support: {} should be archived",
        "escalate ticket mentioning {} to tier two",
        "billing flagged {} in the overnight batch",
    ]

    def snippet() -> str:
        kind = int(rng.integers(9))
        if kind == 0:
            return f"{first[int(rng.integers(6))]} {last[int(rng.integers(6))]}"
        if kind == 1:
            return f"user{int(rng.integers(1000))}@example{int(rng.integers(90))}.com"
        if kind == 2:
            return f"{int(rng.integers(200, 900))}-{int(rng.integers(10, 99))}0-{int(rng.integers(1000, 9999))}"
        if kind == 3:
            area = int(rng.integers(100, 665))
            return f"{area:03d}-{int(rng.integers(1, 99)):02d}-{int(rng.integers(1, 9999)):04d}"
        if kind == 4:
            return luhn_fix("453212345678901"[:15 - 0])
        if kind == 5:
            return f"{int(rng.integers(1, 255))}.{int(rng.integers(0, 255))}.{int(rng.integers(0, 255))}.{int(rng.integers(1, 255))}"
        if kind == 6:
            return f"https://host{int(rng.integers(100))}.example.net/path{int(rng.integers(100))}"
        if kind == 7:
            return f"${int(rng.integers(10, 99999))}"
        return f"{int(rng.integers(10**6, 10**11))}"

    prompts = []
    for i in range(n):
        carrier = carriers[i % len(carriers)]
        parts = " and ".join(snippet() for _ in range(1 + int(rng.integers(3))))
        prompts.append(carrier.format(parts) + f" in {cities[i % len(cities)]}")
    return prompts


class TestDetect:
    def test_single_email(self, redactor):
        spans = redactor.detect("email me at a@b.com")
        assert len(spans) == 1
        assert spans[0].entity_type is EntityType.EMAIL
        assert spans[0].matched_text == "a@b.com"

    def test_paper_sentence_entities(self, redactor):
        spans = redactor.detect(PAPER_SENTENCE)
        found = {(s.entity_type, s.matched_text) for s in spans}
        assert (EntityType.AMOUNT, "$5000") in found
        assert (EntityType.PERSON, "John Smith") in found
        assert (EntityType.ACCOUNT, "123456789") in found

    def test_two_phone_occurrences(self, redactor):
        # rule oracle: the phone regex matches each occurrence separately
        spans = redactor.detect("call 555-010-1234 or 555-010-1234")
        phones = [s for s in spans if s.entity_type is EntityType.PHONE]
        assert len(phones) == 2
        assert all(s.matched_text == "555-010-1234" for s in phones)

    def test_empty_text(self, redactor):
        assert redactor.detect("") == []

    def test_spans_sorted_and_disjoint(self, redactor):
        text = "wire $250 to Alice Johnson at alice@corp.example.com now"
        spans = redactor.detect(text)
        for s, t in zip(spans, spans[1:]):
            assert s.end <= t.start

    def test_determinism(self, redactor):
        text = build_fuzz_prompts(5, seed=3)[2]
        assert redactor.detect(text) == redactor.detect(text)

    def test_longer_span_beats_shorter(self, redactor):
        spans = redactor.detect("signed by John Smith Inc yesterday")
        assert [s.entity_type for s in spans] == [EntityType.ORGANIZATION]
        assert spans[0].matched_text == "John Smith Inc"

    def test_priority_breaks_equal_length_ties(self, redactor):
        # a bare 10-digit run matches both PHONE and ACCOUNT at equal
        # length; PHONE has the higher (smaller-valued) priority
        spans = redactor.detect("reach me on 5550101234 today")
        assert [s.entity_type for s in spans] == [EntityType.PHONE]

    def test_rule_priority_beats_entity_order(self):
        # the same 10-digit span from two rules: the rule file's PRIORITY
        # decides, not the EntityType declaration order
        version, rules = parse_rules("version 1\n"
                                     "PHONE\t9\tnone\t\\b\\d{10}\\b\n"
                                     "ACCOUNT\t0\tnone\t\\b\\d{10}\\b\n")
        spans = Redactor(rules, version).detect("reach me on 5550101234 today")
        assert [s.entity_type for s in spans] == [EntityType.ACCOUNT]

    def test_default_priorities_follow_entity_order(self, redactor):
        assert all(rule.priority == rule.entity.value for rule in redactor.rules)

    def test_luhn_gate_on_card_numbers(self, redactor):
        valid = luhn_fix("453212345678901")
        spans = redactor.detect(f"card {valid} on file")
        assert any(s.entity_type is EntityType.CREDIT_CARD for s in spans)
        # break the checksum: falls back to the ACCOUNT digit-run rule
        broken = valid[:-1] + ("0" if valid[-1] != "0" else "1")
        spans = redactor.detect(f"card {broken} on file")
        assert all(s.entity_type is not EntityType.CREDIT_CARD for s in spans)


class TestRedact:
    def test_paper_example_exact(self, redactor):
        assert redactor.redact(PAPER_SENTENCE).text == PAPER_REDACTED

    def test_counts_for_paper_example(self, redactor):
        counts = redactor.redact(PAPER_SENTENCE).entity_counts
        assert counts == {EntityType.AMOUNT: 1, EntityType.PERSON: 1,
                          EntityType.ACCOUNT: 1}

    def test_no_pii_is_unchanged(self, redactor):
        text = "explain the rules of chess castling to a beginner"
        result = redactor.redact(text)
        assert result.text == text
        assert result.entity_counts == {}
        assert result.original_length == len(text)

    def test_ssn_and_person(self, redactor):
        result = redactor.redact("SSN 078-05-1120 for John Smith")
        assert result.text == "SSN [SSN] for [PERSON]"
        assert result.entity_counts == {EntityType.SSN: 1, EntityType.PERSON: 1}

    def test_fixed_point_on_fuzz_corpus(self, redactor):
        for text in build_fuzz_prompts(200, seed=17):
            once = redactor.redact(text)
            twice = redactor.redact(once.text)
            assert twice.text == once.text
            assert not twice.entity_counts  # monotone to zero

    def test_no_rule_matches_redacted_output(self, redactor):
        for text in build_fuzz_prompts(120, seed=23):
            redacted = redactor.redact(text).text
            for rule in redactor.rules:
                for m in rule.pattern.finditer(redacted):
                    assert not rule.validator(m.group()), (
                        f"rule {rule.entity} matched {m.group()!r} in "
                        f"{redacted!r}")


def _summed_counts(redactor, corpus):
    """The entity histogram ``redact --histogram`` writes: the sum of each
    text's ``redact`` counts."""
    histogram = Counter()
    for text in corpus:
        histogram.update(redactor.redact(text).entity_counts)
    return histogram


class TestHistogram:
    def test_empty_corpus(self, redactor):
        assert _summed_counts(redactor, []) == Counter()

    def test_two_example_sentences(self, redactor):
        corpus = [PAPER_SENTENCE, "SSN 078-05-1120 for John Smith"]
        histogram = _summed_counts(redactor, corpus)
        assert histogram == Counter({EntityType.PERSON: 2, EntityType.AMOUNT: 1,
                                     EntityType.ACCOUNT: 1, EntityType.SSN: 1})

    def test_linearity_over_copies(self, redactor):
        histogram = _summed_counts(redactor, [PAPER_SENTENCE] * 1000)
        assert histogram[EntityType.PERSON] == 1000

    def test_csv_contains_all_types(self, redactor):
        histogram = _summed_counts(redactor, [PAPER_SENTENCE])
        csv_text = histogram_to_csv(histogram)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "entity,count"
        assert len(lines) == 1 + len(EntityType)


class TestRuleConfig:
    def test_default_config_versioned(self, redactor):
        assert redactor.version == 1
        assert len(redactor.rules) >= 12

    def test_custom_config_roundtrip(self, tmp_path):
        cfg = tmp_path / "mini.rules"
        cfg.write_text("version 3\nEMAIL\t1\tnone\t[a-z]+@[a-z]+\\.com\n")
        custom = Redactor.from_config(cfg)
        assert custom.version == 3
        assert custom.redact("mail me x@y.com").text == "mail me [EMAIL]"

    def test_unknown_entity_rejected(self):
        with pytest.raises(SchemaError, match="unknown entity"):
            parse_rules("version 1\nWIDGET\t1\tnone\tx\n")

    def test_unknown_validator_rejected(self):
        with pytest.raises(SchemaError, match="unknown validator"):
            parse_rules("version 1\nEMAIL\t1\tsorcery\tx\n")

    def test_bad_pattern_rejected(self):
        with pytest.raises(SchemaError, match="bad pattern"):
            parse_rules("version 1\nEMAIL\t1\tnone\t(unclosed\n")

    def test_missing_version_rejected(self):
        with pytest.raises(SchemaError, match="version"):
            parse_rules("EMAIL\t1\tnone\tx\n")


def ungated(redactor: Redactor) -> Redactor:
    """The same rules with their gates dropped, so every rule always runs."""
    return Redactor([dataclasses.replace(rule, literals=frozenset(), needs_digit=False)
                     for rule in redactor.rules], redactor.version)


def assert_same_as_ungated(redactor: Redactor, reference: Redactor, text: str):
    assert redactor.detect(text) == reference.detect(text), text
    assert redactor.redact(text) == reference.redact(text), text


# Every gate literal, ASCII and other Unicode digits, dictionary names
# (a multi-word location and its one-word prefix among them) and separators.
ATOMS = ["@", ".", "$", "-", "/", ":", "http", "://", "https://", "0", "7", "12",
         "555", "2024", "٣", "١٢٣", " ", "\n", ",", "(", ")", "+", "_", "a", "Z",
         "com", "John", "Smith", "Maria", "Garcia", "Mexico City", "Mexico",
         "City", "New York", "Berlin", "Inc", "Corp", "March"]

# (entity, literals, needs \d) of each default rule, in file order.
DEFAULT_GATES = [
    ("PERSON", set(), False), ("PERSON", set(), False),
    ("EMAIL", {"@", "."}, False),
    ("PHONE", set(), True), ("PHONE", set(), True),
    ("SSN", {"-"}, True),
    ("CREDIT_CARD", set(), True), ("CREDIT_CARD", set(), True),
    ("IP_ADDRESS", {"."}, True),
    ("URL", {"http", "://"}, False),
    ("DATE", {"-"}, True), ("DATE", {"/"}, True), ("DATE", set(), True),
    ("LOCATION", set(), False),
    ("ORGANIZATION", set(), False),
    ("AMOUNT", {"$"}, True),
    ("ACCOUNT", set(), True),
]


def one_rule(pattern: str, entity: str = "URL") -> Rule:
    _version, rules = parse_rules(f"version 1\n{entity}\t1\tnone\t{pattern}\n")
    return rules[0]


class TestGates:
    def test_default_gates_pinned(self, redactor):
        assert [(rule.entity.name, set(rule.literals), rule.needs_digit)
                for rule in redactor.rules] == DEFAULT_GATES

    def test_ignorecase_gives_no_literal_gate(self):
        assert one_rule(r"(?i)https?://\S+").literals == frozenset()
        assert one_rule(r"(?i:http)s?://\S+").literals == {"://"}
        assert one_rule(r"(?i)acme(?-i:Co)x").literals == {"Co"}
        rule = one_rule(r"(?i)https?://\S+")
        spans = Redactor([rule]).detect("see HTTPS://X.ORG now")
        assert [s.matched_text for s in spans] == ["HTTPS://X.ORG"]

    def test_optional_and_alternative_parts_give_no_gate(self):
        assert one_rule(r"(?:ab)?c|d").literals == frozenset()
        assert one_rule(r"x(?=y)(?:ab){2}\d*").literals == {"x", "ab"}
        assert not one_rule(r"x(?=y)(?:ab){2}\d*").needs_digit
        assert one_rule(r"[\d]+").needs_digit

    def test_macro_keeps_neighbouring_literals_apart(self):
        rule = one_rule("x@LAST_NAMES@y", entity="PERSON")
        assert rule.literals == {"x", "y"}
        spans = Redactor([rule]).detect("xSmithy")
        assert [s.matched_text for s in spans] == ["xSmithy"]

    def test_quantified_macro_stays_optional(self):
        # no last name starts with "x", so a lookahead outside the optional
        # group would reject "Qx"
        rule = one_rule("Q@LAST_NAMES@?x", entity="PERSON")
        assert [m.group() for m in rule.pattern.finditer("Qx QSmithx Qsmith")] == [
            "Qx", "QSmithx"]

    def test_custom_digit_rule_gated_and_matches(self, tmp_path):
        cfg = tmp_path / "digits.rules"
        cfg.write_text("version 2\nACCOUNT\t1\tnone\t\\b\\d{4}\\b\n")
        custom = Redactor.from_config(cfg)
        assert [rule.needs_digit for rule in custom.rules] == [True]
        assert custom.redact("pin 1234 or ٣٣٣٣").text == "pin [ACCOUNT] or [ACCOUNT]"
        assert custom.redact("no digits here").entity_counts == {}

    def test_gate_skips_a_rule(self):
        rule = Rule(entity=EntityType.EMAIL, priority=1, validator=VALIDATORS["none"],
                    validator_name="none", pattern=re.compile("abc"), needs_digit=True)
        assert Redactor([rule]).detect("abc") == []
        assert len(Redactor([rule]).detect("abc ٣")) == 1

    def test_hand_built_rule_always_runs(self):
        rule = Rule(entity=EntityType.ACCOUNT, priority=11, validator=VALIDATORS["none"],
                    validator_name="none", pattern=re.compile(r"\d+"))
        assert rule.literals == frozenset() and not rule.needs_digit
        spans = Redactor([rule]).detect("code ١٢٣")
        assert [s.matched_text for s in spans] == ["١٢٣"]

    def test_unicode_digits_pass_the_digit_gate(self, redactor):
        assert redactor.redact("id ١٢٣٤٥٦٧ ok").text == "id [ACCOUNT] ok"


class TestGatedEquivalence:
    """Gated detection equals running every rule on every text."""

    @pytest.fixture(scope="class")
    def reference(self, redactor):
        return ungated(redactor)

    def test_synthetic_corpus(self, redactor, reference):
        corpus, queries = SyntheticGenerator(11).make_hybrid_corpus(300, 20)
        texts = [r.text for r in corpus + queries] + build_fuzz_prompts(300, seed=29)
        for text in texts:
            assert_same_as_ungated(redactor, reference, text)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(ATOMS), max_size=40).map("".join))
    def test_random_texts(self, redactor, reference, text):
        assert_same_as_ungated(redactor, reference, text)


def plain_alternation(words: list[str]) -> str:
    escaped = sorted((re.escape(w) for w in words), key=len, reverse=True)
    return "(?:" + "|".join(escaped) + ")"


def expanded(pattern: str) -> re.Pattern:
    """``pattern`` compiled as written, each macro expanded as the text of
    the plain longest-first alternation of its word list."""
    for macro, name in _MACROS.items():
        pattern = pattern.replace(macro, plain_alternation(_load_wordlist(name)))
    return re.compile(pattern)


def spans(pattern: re.Pattern, text: str) -> list[tuple[int, int]]:
    return [m.span() for m in pattern.finditer(text)]


def assert_same_spans(pattern: str, texts) -> None:
    compiled, reference = one_rule(pattern, entity="PERSON").pattern, expanded(pattern)
    for text in texts:
        assert spans(compiled, text) == spans(reference, text), (pattern, text)


class TestDictionaryGroups:
    """A macro compiled through ``parse_rules`` matches what the plain
    alternation of its entries matches."""

    @pytest.mark.parametrize("name", ["first_names.txt", "last_names.txt",
                                      "locations.txt"])
    def test_match_set_equals_plain_alternation(self, name):
        words = _load_wordlist(name)
        macro = {file: macro for macro, file in _MACROS.items()}[name]
        for wrap in ("{}", r"\b{}\b"):
            plain = re.compile(wrap.format(plain_alternation(words)))
            grouped = one_rule(wrap.format(macro), entity="PERSON").pattern
            for word in words:
                for text in (word, word.lower(), f"x{word}"):
                    for suffix in ("", "s", " ", " City", "-9", "Smith"):
                        assert (spans(grouped, text + suffix)
                                == spans(plain, text + suffix))

    @pytest.mark.parametrize("flags", ["", "(?i)"])
    def test_mixed_case_first_characters_keep_their_order(self, flags):
        # "ali", "Alice" and "Al" fall in one casefolded group that is not
        # pre-factored; under (?i) the longest-first order across them
        # decides what "alix" matches
        words = ["ali", "Alice", "Al", "bob", "Bo", "Carl", "Cy", "C"]
        trees = {"@M@": _dictionary_tree(words, _regex_parser.State())}
        for wrap in ("{}", r"\b{}\b", r"\b{}x"):
            compiled = _regex_compiler.compile(
                _skip_ahead(_parse_pattern(flags + wrap.format("@M@"), trees)))
            reference = re.compile(flags + wrap.format(plain_alternation(words)))
            for text in ("alice", "ALICE al Al AL", "Bob bo BOB", "Carlos carl Cyx Cx",
                         "xAlice Alicex Alx alx alix ALIX", "c C cy"):
                assert spans(compiled, text) == spans(reference, text), (wrap, text)

    def test_macro_inside_a_set_or_lookbehind_rejected(self):
        for pattern in ("[@FIRST_NAMES@]", "(?<=@LAST_NAMES@)x",
                        r"(@LAST_NAMES@)(?<=\1)x"):
            with pytest.raises(SchemaError, match="bad pattern"):
                one_rule(pattern, entity="PERSON")

    def test_rule_text_cannot_collide_with_a_macro_mark(self):
        # private-use characters a mark could use, spelled as escapes inside
        # the mark's own flag group, stay literals of the rule
        texts = ["\ue000Smith", "\ue000\ue001Smith", "Smith", "\ue000\ue001"]
        for pattern in ("(?s:\\ue000)@LAST_NAMES@",
                        "\ue000(?s:\\U0000e001)@LAST_NAMES@"):
            assert_same_spans(pattern, texts)
        assert one_rule("\ue000(?s:\\U0000e001)@LAST_NAMES@",
                        entity="PERSON").literals == {"\ue000", "\ue001"}

    def test_macro_in_a_branch_stays_an_alternative(self):
        texts = ["Smith x Smiths Smithzz Lee", "x", "Leezz Lees"]
        for pattern in ("@LAST_NAMES@|x", "@LAST_NAMES@s|@LAST_NAMES@zz",
                        "(?:@LAST_NAMES@)?x"):
            assert_same_spans(pattern, texts)


def skip_kind(pattern: str) -> str | None:
    """How the compiled rule finds where a match may start: "set" when it
    searches for a character set, "prefix" for a literal prefix, None when
    it tries every position."""
    code = _regex_compiler._code(_skip_ahead(_parse_pattern(pattern, _macro_trees())), 0)
    assert code[0] == _regex_compiler.INFO
    if code[2] & _regex_compiler.SRE_INFO_PREFIX:
        return "prefix"
    return "set" if code[2] & _regex_compiler.SRE_INFO_CHARSET else None


def default_patterns() -> list[str]:
    text = resources.files("binaryshield.data").joinpath("default.rules").read_text("utf-8")
    return [line.split("\t")[3] for line in text.splitlines()
            if line.count("\t") == 3 and not line.startswith("#")]


# (entity, how the rule skips ahead) of each default rule, in file order.
# PHONE's first rule starts with an optional group and tries every
# position; AMOUNT starts with "$" as written.
DEFAULT_SKIPS = [
    ("PERSON", "set"), ("PERSON", "set"), ("EMAIL", "set"),
    ("PHONE", None), ("PHONE", "set"), ("SSN", "set"),
    ("CREDIT_CARD", "set"), ("CREDIT_CARD", "set"), ("IP_ADDRESS", "set"),
    ("URL", "prefix"), ("DATE", "set"), ("DATE", "set"), ("DATE", "set"),
    ("LOCATION", "set"), ("ORGANIZATION", "set"), ("AMOUNT", "prefix"),
    ("ACCOUNT", "set"),
]

# One rule per shape: (pattern, how it skips ahead, whether the rewrite
# leaves its tree as it was).
CASES = [
    (r"\b\d{3}\b", "set", False),
    (r"(?<!\w)\d+", "set", False),
    (r"(?m)^\d+", "set", False),
    (r"(?=\d{3})\d+-\d", "set", False),
    (r"\b\d{2,4}-", "set", False),
    (r"\b\w{2,5}?x", "set", False),
    (r"\b(?:\d{4}[- ]){3}\d{4}\b", "set", False),
    (r"\b(?:Mr|Dr|Ms)\.?", "set", False),
    (r"\b(?:\+1 )?\d+", None, True),
    (r"\b(?i:mr)\.", None, True),
    (r"\b(\d+)-", None, True),
    (r"(?i)\b@LAST_NAMES@\b", None, False),
]
CASE_ATOMS = ATOMS + ["x", "Mr", "Dr", "ms", "MR", "+1 ", "1234", "smith", "SMITH",
                      "Lee", "lee"]


class TestSkipAhead:
    """Leading zero-width items move behind the first character; every
    rule matches what its text, macros expanded, matches."""

    @pytest.fixture(scope="class")
    def references(self):
        return [expanded(pattern) for pattern in default_patterns()]

    def test_default_skips_pinned(self, redactor):
        assert [(rule.entity.name, skip_kind(pattern))
                for rule, pattern in zip(redactor.rules, default_patterns())] == DEFAULT_SKIPS

    def test_default_rules_on_synthetic_and_fuzz_prompts(self, redactor, references):
        corpus, queries = SyntheticGenerator(13).make_hybrid_corpus(300, 20)
        texts = [r.text for r in corpus + queries] + build_fuzz_prompts(300, seed=31)
        for rule, reference in zip(redactor.rules, references):
            for text in texts:
                assert spans(rule.pattern, text) == spans(reference, text), (rule, text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(ATOMS), max_size=40).map("".join))
    def test_default_rules_on_random_texts(self, redactor, references, text):
        for rule, reference in zip(redactor.rules, references):
            assert spans(rule.pattern, text) == spans(reference, text), rule

    @pytest.mark.parametrize("pattern, kind, unchanged", CASES,
                             ids=[case[0] for case in CASES])
    def test_rule_shapes(self, pattern, kind, unchanged):
        assert skip_kind(pattern) == kind
        parsed = _parse_pattern(pattern, _macro_trees())
        assert (_skip_ahead(parsed) is parsed) == unchanged
        assert_same_spans(pattern, [
            "", "123", "a123 456_789", "x12-3456 7890", "1234-5678-9012-3456",
            "1234 5678 9012 3456x", "ab\n12\n 34", "Mr. Dr.x drMs. mr.", "+1 555",
            "abxx abcx a_bx abbbbbx", "Smith SMITH smith xLee"])

    @pytest.fixture(scope="class")
    def shapes(self):
        return [(one_rule(pattern, entity="PERSON").pattern, expanded(pattern))
                for pattern, _kind, _unchanged in CASES]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(CASE_ATOMS), max_size=30).map("".join))
    def test_rule_shapes_on_random_texts(self, shapes, text):
        for compiled, reference in shapes:
            assert spans(compiled, text) == spans(reference, text), reference
