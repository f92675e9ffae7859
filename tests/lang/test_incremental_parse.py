"""The incremental parser against the full parser, position for position.

AST equality ignores positions (``compare=False``), so every comparison here
goes through :func:`dump`, which renders each node with its ``SourcePos``.
Invalid input must raise the same error type, message and position as
:func:`parse_program`.
"""

import dataclasses
import random

import pytest

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.loadgen import edit_script
from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark_source
from repro.errors import SourcePos
from repro.lang.lexer import tokenize
from repro.lang.parser import IncrementalParser, parse_program
from repro.lang.pretty import pretty_program


def dump(node):
    """A nested tuple of every field of ``node``, positions included.

    A ``SourcePos`` is a named tuple and so equal to a plain tuple; its
    dump carries the type name, so that a position only matches a
    position."""
    if isinstance(node, list):
        return [dump(item) for item in node]
    if isinstance(node, SourcePos):
        return ("SourcePos", node.line, node.column)
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            dump(getattr(node, f.name)) for f in dataclasses.fields(node)
        )
    return node


def outcome(parse, source):
    try:
        return ("ok", dump(parse(source)))
    except Exception as error:  # noqa: BLE001 - the error is the outcome
        return ("error", type(error), str(error), getattr(error, "pos", None))


def assert_same_walk(sources):
    """Feed ``sources`` in order through one parser; every version must
    match a full parse of the same text."""
    parser = IncrementalParser()
    for source in sources:
        assert outcome(parser.parse, source) == outcome(parse_program, source)


def fuzzer_corpus():
    """The differential fuzzer's generator shapes and seeds."""
    shapes = [
        (None, range(140)),
        (GeneratorConfig(allow_recursion=True), range(60)),
        (GeneratorConfig(allow_recursion=True, n_procs=6, p_call=0.40), range(50)),
    ]
    for config, seeds in shapes:
        for seed in seeds:
            yield pretty_program(generate_program(seed, config))


SAMPLE = """\
global g, h;
init { g = 1; }

proc main() {
    call leaf(g);
    call mid(2);
}

proc mid(a) {
    if (a > 1) { call leaf(a); } else { print(a); }
}

proc leaf(b) {
    print(b + g);
}
"""


class TestCorpusEquivalence:
    def test_fuzzer_corpus(self):
        for source in fuzzer_corpus():
            assert_same_walk([source])

    @pytest.mark.parametrize(
        "name", sorted(SUITE) + sorted(RECURSION_SUITE)
    )
    def test_suite_profiles(self, name):
        profile = SUITE.get(name) or RECURSION_SUITE[name]
        assert_same_walk([build_benchmark_source(profile, scale) for scale in (1, 2)])

    def test_edit_script_versions(self):
        for seed in range(4):
            versions = edit_script(seed, 6, procs=20)
            # Forward, then back: the walk back meets earlier texts again.
            assert_same_walk(versions + versions[::-1])

    def test_random_line_edits(self):
        """Lines inserted, deleted or garbled anywhere, valid or not."""
        rng = random.Random(7)
        junk = ["{", "}", "proc", "proc q() {}", "# proc {", "global z;",
                "x = 1;", "init { g = 3; }", "!", "\r", ""]
        for seed in range(30):
            lines = pretty_program(generate_program(seed)).split("\n")
            versions = []
            for _ in range(12):
                at = rng.randrange(len(lines) + 1)
                roll = rng.random()
                if roll < 0.4:
                    lines.insert(at, rng.choice(junk))
                elif roll < 0.7 and at < len(lines):
                    del lines[at]
                elif at < len(lines):
                    lines[at] = lines[at].replace("1", "11", 1)
                versions.append("\n".join(lines))
            assert_same_walk(versions)


class TestHostileSplits:
    @pytest.mark.parametrize(
        "source",
        [
            "",
            "   \n# only a comment\n",
            SAMPLE,
            "# proc fake() { }\n" + SAMPLE,
            SAMPLE.replace("print(a);", "print(a); # proc x() {"),
            SAMPLE.replace("call mid(2);", "myproc = 2; proc_1 = myproc;"),
            "proc main() { call a(); } proc a() { print(1); }",
            "proc main() { print(1); }\nglobal g;\nproc b() { print(g); }\n",
            "proc main() { print(1); }\ninit { g = 2; }\nglobal g;\n",
            SAMPLE.replace("\n", "\r\n"),
            SAMPLE + "}",
            SAMPLE.replace("proc leaf(b) {", "proc leaf(b) {{"),
            SAMPLE.replace("proc mid(a) {", "proc mid(a)"),
            "}" + SAMPLE,
            SAMPLE + "proc",
            SAMPLE.replace("proc leaf", "proc proc"),
            SAMPLE.replace("print(a);", "print(a); !"),
            SAMPLE.replace("global g, h;", "global g, h"),
            "proc main() { x = 1; }\n\tproc\tb()\t{ }",
            "proc main() { x = 3proc; }",
            "global g; proc main() { print(g); } init { g = 1; }",
        ],
    )
    def test_cold_parse_matches(self, source):
        assert_same_walk([source])

    def edit_walk(self, edit):
        assert_same_walk([SAMPLE, edit(SAMPLE), SAMPLE])

    def test_add_procedure(self):
        self.edit_walk(lambda s: s + "\nproc extra() { print(3); }\n")

    def test_remove_procedure(self):
        head, main, mid, leaf = SAMPLE.split("\n\n")
        self.edit_walk(lambda s: "\n\n".join([head, main, leaf]))

    def test_rename_procedure(self):
        self.edit_walk(lambda s: s.replace("leaf", "tip"))

    def test_move_procedure(self):
        head, main, mid, leaf = SAMPLE.split("\n\n")
        self.edit_walk(lambda s: "\n\n".join([head, leaf, main, mid]) + "\n")

    def test_add_lines_above(self):
        self.edit_walk(lambda s: s.replace("call mid(2);", "call mid(2);\n\n    x = 4;"))

    def test_shift_columns_on_shared_line(self):
        source = "proc main() { call a(); } proc a() { print(1); }"
        assert_same_walk([source, "  " + source, source.replace("a();", "a( );")])

    def test_break_then_repair(self):
        assert_same_walk([SAMPLE, SAMPLE.replace("print(b + g);", "print(b + );"), SAMPLE])


class TestReuse:
    def test_unchanged_text_parses_nothing(self):
        parser = IncrementalParser()
        first = parser.parse(SAMPLE)
        assert parser.parsed == 3
        second = parser.parse(SAMPLE)
        assert parser.parsed == 0
        assert all(a is b for a, b in zip(first.procedures, second.procedures))
        assert second is not first

    def test_edit_reparses_edited_and_moved_procedures_only(self):
        parser = IncrementalParser()
        first = parser.parse(SAMPLE)
        # Same line count: only ``main`` changes.
        second = parser.parse(SAMPLE.replace("call mid(2);", "call mid(3);"))
        assert parser.parsed == 1
        assert second.procedures[1:] == first.procedures[1:]
        assert all(a is b for a, b in zip(first.procedures[1:], second.procedures[1:]))
        # One added line in ``main`` moves ``mid`` and ``leaf`` as well.
        parser.parse(SAMPLE.replace("call mid(2);", "call mid(2);\n"))
        assert parser.parsed == 3

    def test_comments_do_not_defeat_the_split(self):
        # ``proc`` and braces inside comments must not cut or unbalance the
        # text, or every parse would fall back and reuse nothing.
        source = "# proc fake() {\n" + SAMPLE.replace(
            "call mid(2);", "call mid(2);  # } proc x() {"
        )
        parser = IncrementalParser()
        parser.parse(source)
        parser.parse(source.replace("print(b + g);", "print(b - g);"))
        assert parser.parsed == 1

    def test_fallback_counts_every_procedure(self):
        parser = IncrementalParser()
        parser.parse(SAMPLE)
        parser.parse(SAMPLE + "global late;\n")
        assert parser.parsed == 3

    def test_error_keeps_previous_segments(self):
        parser = IncrementalParser()
        parser.parse(SAMPLE)
        with pytest.raises(Exception):
            parser.parse(SAMPLE.replace("print(b + g);", "print(b +);"))
        parser.parse(SAMPLE)
        assert parser.parsed == 0


def test_lexer_start_position():
    tokens = tokenize("a\n  b", SourcePos(7, 3))
    assert [(t.pos.line, t.pos.column) for t in tokens] == [(7, 3), (8, 3), (8, 4)]


def test_dump_tells_positions_from_tuples():
    assert dump(SourcePos(2, 5)) != dump((2, 5))
    assert dump([SourcePos(2, 5)]) == [("SourcePos", 2, 5)]
