"""The one-pattern lexer against the character-by-character reference.

Every input must give the same ``(kind, value, type(value), pos)`` stream,
the same comments, and the same error type, message and position.  The one
allowed difference is the ASCII rule: the reference took any Unicode digit
or letter, while ``repro.lang.lexer`` stops with ``unexpected character`` at
the first non-ASCII character outside a comment.  For such input the
expected outcome is the reference's on the text before that character,
followed by that error.
"""

import random
import string

import pytest

from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark_source
from repro.errors import LexError, SourcePos
from repro.lang.lexer import Lexer, scan_comments, tokenize
from tests.lang import reference_lexer
from tests.lang.test_incremental_parse import fuzzer_corpus

#: The characters that steer the lexer, plus letters.
ALPHABET = (
    string.digits + ".eE+-_#!@$\n\r\t(){}[];,=<>*/% " + string.ascii_letters
)
NON_ASCII = ["\u00b2", "\u00e9", "\u0663", "\u00a0", "\u00df", "\u2003", "\U0001f600"]
ORIGIN = SourcePos(1, 1)


def _pos(pos):
    return (type(pos).__name__, pos.line, pos.column)


def _tokens(tokens):
    return [(t.kind, t.value, type(t.value), _pos(t.pos)) for t in tokens]


def reference_outcome(source, start=ORIGIN):
    lexer = reference_lexer.Lexer(source, start)
    try:
        tokens = list(lexer.tokens())
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error), _pos(error.pos), lexer.comments)
    return ("ok", _tokens(tokens), lexer.comments)


def outcome(source, start=ORIGIN):
    comments = []
    try:
        tokens = tokenize(source, start, comments)
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        pos = getattr(error, "pos", None)
        return ("error", type(error), str(error), pos and _pos(pos), comments)
    return ("ok", _tokens(tokens), comments)


def first_non_ascii(source):
    """Offset of the first non-ASCII character outside a ``#`` comment."""
    offset = 0
    for line in source.split("\n"):
        code = line.split("#", 1)[0]
        for column, char in enumerate(code):
            if not char.isascii():
                return offset + column
        offset += len(line) + 1
    return None


def expected_outcome(source, start=ORIGIN):
    cut = first_non_ascii(source)
    if cut is None:
        return reference_outcome(source, start)
    before = reference_outcome(source[:cut], start)
    if before[0] == "error":
        return before
    newline = source.rfind("\n", 0, cut)
    line = start.line + source.count("\n", 0, cut)
    column = cut - newline if newline >= 0 else start.column + cut
    message = f"unexpected character {source[cut]!r} at {line}:{column}"
    return ("error", LexError, message, ("SourcePos", line, column), before[2])


def assert_same(source, start=ORIGIN):
    assert outcome(source, start) == expected_outcome(source, start), (source, start)


def suite_sources():
    for profile in list(SUITE.values()) + list(RECURSION_SUITE.values()):
        for scale in (1, 2):
            yield build_benchmark_source(profile, scale)


def mutate(rng, text, alphabet):
    """One replaced, inserted or deleted character."""
    at = rng.randrange(len(text) + 1)
    roll = rng.random()
    if roll < 0.4 and at < len(text):
        return text[:at] + rng.choice(alphabet) + text[at + 1 :]
    if roll < 0.8:
        return text[:at] + rng.choice(alphabet) + text[at:]
    return text[:at] + text[at + 1 :]


def windows(rng, count, size=300):
    """``count`` seeded slices of the suite texts, cut anywhere."""
    texts = list(suite_sources())
    for _ in range(count):
        text = rng.choice(texts)
        first = rng.randrange(len(text))
        yield text[first : first + rng.randrange(1, size)]


class TestEquivalence:
    def test_fuzzer_corpus(self):
        for source in fuzzer_corpus():
            assert_same(source)

    def test_suite_profiles(self):
        for source in suite_sources():
            assert_same(source)

    def test_single_point_mutations(self):
        rng = random.Random(13)
        for text in windows(rng, 3000):
            assert_same(mutate(rng, text, ALPHABET))

    def test_random_strings(self):
        rng = random.Random(17)
        for _ in range(2000):
            assert_same("".join(rng.choice(ALPHABET) for _ in range(rng.randrange(30))))

    def test_fragments_with_start_positions(self):
        rng = random.Random(19)
        for text in windows(rng, 500):
            start = SourcePos(rng.randrange(1, 500), rng.randrange(1, 80))
            assert_same(text, start)
            assert_same(mutate(rng, text, ALPHABET), start)

    def test_non_ascii_insertions(self):
        rng = random.Random(23)
        for text in windows(rng, 1000):
            at = rng.randrange(len(text) + 1)
            source = text[:at] + rng.choice(NON_ASCII) + text[at:]
            if rng.random() < 0.3:
                source = "# \u00e9\n" + source.replace("\n", " # \u00b2 ", 1)
            assert_same(source)
            assert_same(source, SourcePos(4, 9))

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "\n\n",
            "   ",
            "#",
            "# trailing\r",
            "a\r\nb # c\r\n",
            "x = 1.e5;",
            "x = 1._;",
            "x = 1e+;",
            "x = 1e-5e;",
            "3.14.15",
            "1.",
            "1e",
            "007 1E+07 8.e",
            "!= ! =",
            "a\fb",
            "a\vb",
        ],
    )
    def test_edge_cases(self, source):
        assert_same(source)
        assert_same(source, SourcePos(3, 5))


class TestPublicWrappers:
    """``Lexer`` and ``scan_comments`` keep the reference's behaviour."""

    def test_lexer_object_matches_reference(self):
        commented = "# head\nproc main() { x = 1; # tail\r\n print(x); }\n#"
        for source in list(suite_sources())[:2] + [commented]:
            new, old = Lexer(source), reference_lexer.Lexer(source)
            assert _tokens(new.tokens()) == _tokens(old.tokens())
            assert new.comments == old.comments

    @pytest.mark.parametrize(
        "source", ["# a\nx = 1; # b\n", "# a\nx = @; # b\n", "# noqa\n!"]
    )
    def test_scan_comments_matches_reference(self, source):
        assert scan_comments(source) == reference_lexer.scan_comments(source)
