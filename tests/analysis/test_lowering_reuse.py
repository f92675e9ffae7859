"""The SCC engine's lowering reuse: one CFG/SSA build per procedure and
effect signature, shared by every later solve of that procedure."""

import sys
import threading

import pytest

import repro.analysis.scc as scc
from repro.analysis.base import ConservativeEffects
from repro.analysis.scc import SCCEngine, lowering_key
from repro.api import CompilationPipeline, ICPConfig
from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark_source
from repro.core.report import analysis_report
from repro.ir.lattice import Const
from repro.lang.parser import IncrementalParser, parse_program
from repro.lang.pretty import pretty_program
from repro.lang.symbols import collect_symbols

SOURCE = """
global g;
init { g = 1; }
proc main() {
    x = 2;
    if (x > 1) { y = x + 3; } else { y = 0; }
    i = 4;
    while (i > 0) { g = g + y; i = i - 1; }
    call f(y, g);
    print(y);
}
proc f(a, b) { g = a + b; }
"""


class NoModEffects(ConservativeEffects):
    """Conservative effects whose calls modify nothing: another signature."""

    def modified_vars(self, site):
        return set()


def _context(source=SOURCE, proc="main"):
    program = parse_program(source)
    symbols = collect_symbols(program)
    effects = ConservativeEffects(program.global_set())
    return program.procedure(proc), symbols[proc], effects


def _variants(engine, proc):
    return engine._lowerings[id(proc)][1]


class FreshPerAnalysis(SCCEngine):
    """An engine that lowers every procedure anew on every analysis."""

    def analyze(self, *args, **kwargs):
        return SCCEngine().analyze(*args, **kwargs)


class TestLoweringKey:
    def test_stable_across_calls(self):
        proc, symbols, effects = _context()
        assert lowering_key(proc, symbols, effects, None) == lowering_key(
            proc, symbols, effects, None
        )

    def test_exit_record_set_changes_key(self):
        proc, symbols, effects = _context()
        assert lowering_key(proc, symbols, effects, None) != lowering_key(
            proc, symbols, effects, {"g"}
        )

    def test_effect_signature_changes_key(self):
        proc, symbols, effects = _context()
        narrow = NoModEffects(effects._globals)
        assert lowering_key(proc, symbols, effects, None) != lowering_key(
            proc, symbols, narrow, None
        )


class TestReuse:
    def test_warm_hit_returns_the_same_objects(self):
        proc, symbols, effects = _context()
        engine = SCCEngine()
        first = engine.analyze(proc, symbols, {}, effects)
        second = engine.analyze(proc, symbols, {}, effects)
        assert second.detail.build is first.detail.build
        assert second.detail.ssa is first.detail.ssa
        assert second.detail.values == first.detail.values
        assert len(_variants(engine, proc)) == 1

    def test_repeat_solves_are_identical(self):
        proc, symbols, effects = _context()
        engine = SCCEngine()
        first = engine.analyze(proc, symbols, {}, effects).detail
        second = engine.analyze(proc, symbols, {}, effects).detail
        assert list(first.values) == list(second.values)
        assert first.values == second.values
        assert first.reached_blocks == second.reached_blocks
        assert first.executable_edges == second.executable_edges

    def test_engine_reuses_lowering_across_analyses(self, monkeypatch):
        calls = []
        build_ssa = scc.build_ssa

        def counting_build_ssa(*args, **kwargs):
            calls.append(args)
            return build_ssa(*args, **kwargs)

        monkeypatch.setattr(scc, "build_ssa", counting_build_ssa)
        proc, symbols, effects = _context()
        engine = SCCEngine()
        for _ in range(3):
            engine.analyze(proc, symbols, {}, effects)
        # One lowering serves all three solves.
        assert len(calls) == 1
        (entry,) = engine._lowerings.values()
        assert entry[0] is proc
        assert len(entry[1]) == 1

    def test_other_exit_record_set_misses(self):
        proc, symbols, effects = _context()
        engine = SCCEngine()
        plain = engine.analyze(proc, symbols, {}, effects)
        recorded = engine.analyze(
            proc, symbols, {}, effects, record_exit_vars={"g"}
        )
        assert recorded.detail.ssa is not plain.detail.ssa
        assert len(_variants(engine, proc)) == 2

    def test_other_effect_signature_misses(self):
        proc, symbols, effects = _context()
        engine = SCCEngine()
        wide = engine.analyze(proc, symbols, {}, effects)
        narrow = engine.analyze(
            proc, symbols, {}, NoModEffects(effects._globals)
        )
        assert narrow.detail.ssa is not wide.detail.ssa
        assert narrow.detail.build is not wide.detail.build
        assert len(_variants(engine, proc)) == 2

    def test_equal_text_in_another_procedure_object_misses(self):
        proc, symbols, effects = _context()
        other, other_symbols, _ = _context()
        engine = SCCEngine()
        first = engine.analyze(proc, symbols, {}, effects)
        second = engine.analyze(other, other_symbols, {}, effects)
        assert second.detail.build is not first.detail.build
        assert len(engine._lowerings) == 2

    def test_entry_env_respected_on_reuse(self):
        proc, symbols, effects = _context("proc f(a) { b = a + 1; print(b); }", "f")
        engine = SCCEngine()
        for env in ({}, {"a": Const(3)}, {"a": Const(10)}, {}):
            reused = engine.analyze(proc, symbols, dict(env), effects)
            fresh = SCCEngine().analyze(proc, symbols, dict(env), effects)
            assert list(reused.detail.values) == list(fresh.detail.values)
            assert reused.detail.values == fresh.detail.values
            assert reused.detail.visits == fresh.detail.visits
        assert len(_variants(engine, proc)) == 1

    def test_concurrent_analyses_agree(self):
        # Eight threads race a cold engine on every procedure: each
        # procedure must end with one shared lowering and solve like a
        # fresh engine, whichever thread built it.
        program = parse_program(SOURCE)
        symbols = collect_symbols(program)
        effects = ConservativeEffects(program.global_set())
        procs = program.procedures
        oracle = {
            proc.name: SCCEngine().analyze(proc, symbols[proc.name], {}, effects)
            for proc in procs
        }
        engine = SCCEngine()
        start = threading.Barrier(8)
        results = []

        def worker():
            start.wait(timeout=30)
            for _ in range(25):
                for proc in procs:
                    results.append(
                        engine.analyze(proc, symbols[proc.name], {}, effects)
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 * 25 * len(procs)
        for proc in procs:
            assert len(_variants(engine, proc)) == 1
        for result in results:
            (build, ssa), = _variants(
                engine, program.procedure(result.proc_name)
            ).values()
            assert result.detail.ssa is ssa and result.detail.build is build
            assert result.detail.values == oracle[result.proc_name].detail.values


    def test_warm_engine_solves_concurrently(self):
        proc, symbols, effects = _context()
        engine = SCCEngine()
        baseline = engine.analyze(proc, symbols, {}, effects)
        results = []

        def worker():
            results.append(engine.analyze(proc, symbols, {}, effects))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4
        for result in results:
            assert result.detail.ssa is baseline.detail.ssa
            assert result.detail.values == baseline.detail.values
        assert len(_variants(engine, proc)) == 1


class TestBounds:
    def test_eviction_drops_oldest_half(self):
        engine = SCCEngine()
        engine.max_procs = 4
        procs = []
        for k in range(5):
            proc, symbols, effects = _context(
                f"proc main() {{ x = {k}; print(x); }}"
            )
            procs.append(proc)
            engine.analyze(proc, symbols, {}, effects)
            if k == 3:
                assert len(engine._lowerings) == 4
        # The oldest two made room; the newest three remain.
        assert list(engine._lowerings) == [id(proc) for proc in procs[2:]]

    def test_variant_cap_bounds_inner_map(self):
        proc, symbols, effects = _context()
        engine = SCCEngine()
        engine.max_variants = 2
        for k in range(5):
            engine.analyze(proc, symbols, {}, effects, record_exit_vars={f"v{k}"})
            assert len(_variants(engine, proc)) <= 2

    def test_default_bounds(self):
        assert SCCEngine.max_procs == 4096
        assert SCCEngine.max_variants == 8


class TestPipelineReuse:
    def test_value_contexts_build_ssa_less_often_than_they_analyze(self, monkeypatch):
        counts = {"build_ssa": 0, "analyze": 0}
        build_ssa = scc.build_ssa
        analyze = SCCEngine.analyze

        def counting_build_ssa(*args, **kwargs):
            counts["build_ssa"] += 1
            return build_ssa(*args, **kwargs)

        def counting_analyze(self, *args, **kwargs):
            counts["analyze"] += 1
            return analyze(self, *args, **kwargs)

        monkeypatch.setattr(scc, "build_ssa", counting_build_ssa)
        monkeypatch.setattr(SCCEngine, "analyze", counting_analyze)
        source = build_benchmark_source(RECURSION_SUITE["rec.self"], 1)
        CompilationPipeline(ICPConfig(context_mode="value-contexts")).run(source)
        assert 0 < counts["build_ssa"] < counts["analyze"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"context_mode": "value-contexts"},
            {"propagate_returns": True, "propagate_exit_values": True},
            {"context_mode": "value-contexts", "propagate_returns": True},
        ],
        ids=["carini-hind", "value-contexts", "exit-values", "vc-returns"],
    )
    def test_reused_lowerings_give_identical_reports_and_optimizer_output(
        self, overrides
    ):
        config = ICPConfig.from_dict(overrides)
        programs = [
            build_benchmark_source(RECURSION_SUITE[name], 1)
            for name in sorted(RECURSION_SUITE)
        ]
        programs.append(build_benchmark_source(SUITE["030.matrix300"], 1))
        recursive = GeneratorConfig(allow_recursion=True, n_procs=6, p_call=0.40)
        programs += [
            pretty_program(generate_program(seed, recursive)) for seed in range(8)
        ]
        # One warm pipeline reruns each AST, so its second run (and its
        # optimizer) reuses every lowering the first run built.
        warm = CompilationPipeline(config)
        fresh = CompilationPipeline(config)
        fresh.engine = FreshPerAnalysis()
        for index, source in enumerate(programs):
            program = parse_program(source)
            warm.run(program, run_transform=True)
            reused = warm.run(program, run_transform=True)
            oracle = fresh.run(parse_program(source), run_transform=True)
            assert analysis_report(reused) == analysis_report(oracle), index
            assert pretty_program(reused.transform.program) == pretty_program(
                oracle.transform.program
            ), index

    def test_shared_procedure_with_new_callee_effects_relowers(self):
        # An incremental reparse keeps main's Procedure object while f
        # starts modifying x and g, so main's call site gets a new MOD set.
        parser = IncrementalParser()
        before = parser.parse(
            "global g;\ninit { g = 1; }\n"
            "proc main() { x = 1; call f(x); print(x); print(g); }\n"
            "proc f(a) { print(a); }\n"
        )
        after = parser.parse(
            "global g;\ninit { g = 1; }\n"
            "proc main() { x = 1; call f(x); print(x); print(g); }\n"
            "proc f(a) { a = 5; g = 2; }\n"
        )
        assert after.procedure("main") is before.procedure("main")
        warm = CompilationPipeline(ICPConfig())
        warm.run(before, run_transform=True)
        reused = warm.run(after, run_transform=True)
        fresh = CompilationPipeline(ICPConfig())
        fresh.engine = FreshPerAnalysis()
        oracle = fresh.run(after, run_transform=True)
        assert analysis_report(reused) == analysis_report(oracle)
        assert pretty_program(reused.transform.program) == pretty_program(
            oracle.transform.program
        )
