"""The traced operation of the cold workloads: Figure 2 replayed from outside.

``CompilationPipeline.run`` calls the phases below in this order; the
replay calls the same public functions itself, one span per call, so each
layer's time is measured from the benchmark's own file.  The replay gate
holds the replay to the pipeline: the cold workloads' output check compares
every replayed report byte for byte with ``repro.api.analyze`` on the same
text, and a mismatch fails the run, because its layer numbers would then
describe a different computation.
"""

from __future__ import annotations

from typing import Tuple

from repro.api import ICPConfig, PipelineResult
from repro.callgraph.pcg import build_pcg
from repro.core.flow_insensitive import flow_insensitive_icp
from repro.core.flow_sensitive import flow_sensitive_icp, make_engine
from repro.core.report import analysis_report
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.symbols import collect_symbols
from repro.lang.validate import validate_program
from repro.sched.scheduler import Scheduler
from repro.summary.alias import compute_aliases
from repro.summary.modref import compute_modref
from repro.summary.use import compute_use

from measure import Spans

#: Span names of the replay, in call order.  ``lang.parse_rest`` is the
#: parser proper; ``lang.parse_s`` reports lex + parse_rest (what
#: ``parse_program`` costs).
REPLAY_LAYERS = (
    "lang.lex",
    "lang.parse_rest",
    "lang.validate",
    "lang.symbols",
    "callgraph.pcg",
    "summary.alias",
    "summary.modref",
    "core.fi",
    "core.fs",
    "summary.use",
    "sched.finish",
    "core.report",
)


def replay(text: str, config: ICPConfig, spans: Spans) -> Tuple[PipelineResult, str, int]:
    """Analyze ``text`` phase by phase; returns (result, report, tokens)."""
    if config.propagate_returns or config.propagate_exit_values:
        raise ValueError("the replay covers the default phase list only")
    call = spans.call
    tokens = call("lang.lex", tokenize, text)
    program = call("lang.parse_rest", Parser(tokens).parse_program)
    call(
        "lang.validate",
        validate_program,
        program,
        require_main=(config.entry == "main"),
        allow_missing=config.allow_missing,
    )
    symbols = call("lang.symbols", collect_symbols, program)
    pcg = call("callgraph.pcg", build_pcg, program, symbols, config.entry)
    if pcg.missing_callees and not config.allow_missing:
        raise ValueError(f"calls to missing procedures: {sorted(pcg.missing_callees)}")
    aliases = call("summary.alias", compute_aliases, program, symbols, pcg)
    modref = call("summary.modref", compute_modref, program, symbols, pcg, aliases)
    fi = call("core.fi", flow_insensitive_icp, program, symbols, pcg, modref, config)
    # A fresh pipeline owns a fresh engine and an uncached scheduler.
    engine = make_engine(config)
    scheduler = Scheduler.from_config(config)
    try:
        fs = call(
            "core.fs",
            flow_sensitive_icp,
            program, symbols, pcg, modref, aliases, fi, config, engine,
            scheduler=scheduler,
        )
        use = call("summary.use", compute_use, program, symbols, pcg, modref, scheduler=scheduler)
    finally:
        sched = call("sched.finish", scheduler.finish)
    result = PipelineResult(
        program=program,
        symbols=symbols,
        pcg=pcg,
        aliases=aliases,
        modref=modref,
        use=use,
        fi=fi,
        fs=fs,
        config=config,
        sched=sched,
    )
    report = call("core.report", analysis_report, result)
    return result, report, len(tokens)
