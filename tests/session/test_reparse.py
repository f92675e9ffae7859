"""Incremental reparse in sessions: the parse counter, and diagnostics whose
positions follow procedures that moved."""

import pytest

from repro.api import AnalysisSession
from repro.bench.generator import GeneratorConfig, generate_program
from repro.core.config import ICPConfig
from repro.core.report import analysis_report, diagnostics_report
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.obs import Observability
from repro.serve import AnalysisServer

SOURCE = """\
global g;
init { g = 1; }

proc main() {
    x = 2;
    call f(x);
    print(x);
    print(g);
    y = g + 1;
    y = 3;
    print(y);
}

proc f(n) {
    call h(n);
}

proc h(k) {
    print(k);
}
"""

HEADER_COMMENT = "# one\n# two\n" + SOURCE


def render(diag):
    return diagnostics_report(diag, path="prog.mf")


def cold_render(text):
    return render(AnalysisSession(text).diagnostics())


def insert_line(source, index, line):
    """Insert ``line`` as the first body line of procedure ``index``."""
    lines = source.split("\n")
    heads = [i for i, text in enumerate(lines) if text.startswith("proc ")]
    at = heads[index] + 1
    if lines[at].strip() == "{":
        at += 1
    return "\n".join(lines[:at] + [line] + lines[at:])


class TestParseCounter:
    def test_constructor_parses_every_procedure(self):
        assert AnalysisSession(SOURCE).stats.last_parsed == 3

    def test_one_literal_edit_parses_one(self):
        session = AnalysisSession(SOURCE)
        session.analyze()
        assert session.sync(SOURCE.replace("x = 2;", "x = 5;")) == 1
        assert session.stats.last_parsed == 1

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_line_adding_edit_parses_from_k_on(self, k):
        session = AnalysisSession(SOURCE)
        session.analyze()
        session.sync(insert_line(SOURCE, k, "    z = 4;"))
        assert session.stats.last_parsed == 3 - k

    def test_identical_text_parses_nothing(self):
        session = AnalysisSession(SOURCE)
        session.analyze()
        assert session.sync(SOURCE) == 0
        assert session.stats.last_parsed == 0

    def test_ast_sync_parses_nothing(self):
        session = AnalysisSession(SOURCE)
        session.sync(parse_program(SOURCE))
        assert session.stats.last_parsed == 0

    def test_parsed_gauge(self):
        obs = Observability.create(metrics=True)
        session = AnalysisSession(SOURCE, obs=obs)
        assert obs.metrics.gauge("session.parsed").value == 3
        session.sync(SOURCE.replace("print(k);", "print(k + 1);"))
        assert obs.metrics.gauge("session.parsed").value == 1

    def test_moved_procedure_is_not_an_edit(self):
        session = AnalysisSession(SOURCE)
        session.analyze()
        assert session.sync(HEADER_COMMENT) == 0
        assert session.stats.last_parsed == 3
        assert analysis_report(session.analyze()) == analysis_report(
            AnalysisSession(HEADER_COMMENT).analyze()
        )


class TestInitValues:
    def test_int_to_float_init_is_a_whole_program_change(self):
        # 2 == 2.0, but the lattice keeps them apart: the edit must not be
        # mistaken for a no-op that keeps the old program.
        source = SOURCE.replace("x = 2;", "x = g / 4;")
        edited = source.replace("g = 1;", "g = 1.0;")
        session = AnalysisSession(source)
        session.analyze()
        assert session.sync(edited) == 3
        assert analysis_report(session.analyze()) == analysis_report(
            AnalysisSession(edited).analyze()
        )


class TestMovedDiagnostics:
    def test_header_comment_moves_findings(self):
        session = AnalysisSession(SOURCE)
        assert "9:5  warning ICP003 [main]" in render(session.diagnostics())
        assert session.sync(HEADER_COMMENT) == 0
        moved = render(session.diagnostics())
        assert "11:5  warning ICP003 [main]" in moved
        assert moved == cold_render(HEADER_COMMENT)

    @pytest.mark.parametrize("seed", range(10))
    def test_insert_in_second_to_last_procedure(self, seed):
        source = pretty_program(generate_program(seed, GeneratorConfig(n_procs=8)))
        procs = source.count("\nproc ")
        edited = insert_line(source, procs - 2, "    zz_new = 1;")
        session = AnalysisSession(source)
        session.diagnostics()
        session.sync(edited)
        assert render(session.diagnostics()) == cold_render(edited)

    def test_noop_resubmission_needs_no_reanalysis(self):
        session = AnalysisSession(SOURCE)
        session.diagnostics()
        analyses = session.stats.analyses
        session.sync(SOURCE)
        session.diagnostics()
        assert session.stats.analyses == analyses


class TestDaemonDiagnostics:
    @staticmethod
    def findings(server, pid):
        status, payload, _ = server.dispatch("GET", f"/programs/{pid}/diagnostics", None)
        assert status == 200
        return payload["findings"]

    def test_unchanged_edit_still_moves_findings(self):
        server = AnalysisServer(ICPConfig.from_dict({"serve_workers": 1}))
        try:
            server.dispatch("POST", "/programs/p", {"source": SOURCE})
            self.findings(server, "p")
            status, payload, _ = server.dispatch(
                "POST", "/programs/p/edits", {"source": HEADER_COMMENT}
            )
            assert status == 200 and payload["changed"] == 0
            server.dispatch("POST", "/programs/cold", {"source": HEADER_COMMENT})
            moved = self.findings(server, "p")
            assert [f["line"] for f in moved] == [11]
            assert moved == self.findings(server, "cold")
        finally:
            server.close()
