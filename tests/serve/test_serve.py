"""The analysis daemon: routing, backpressure, degradation, warm starts."""

import json
import os
import re
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import ICPConfig
from repro.serve import RETRY_AFTER_SECONDS, AnalysisServer

SOURCE = """\
proc main() { call sub1(0); }
proc sub1(f1) {
    x = 1;
    if (f1 != 0) { y = 1; } else { y = 0; }
    call sub2(y, 4, f1, x);
}
proc sub2(f2, f3, f4, f5) { t = f2 + f3 + f4 + f5; print(t); }
"""

EDITED = SOURCE.replace("call sub1(0)", "call sub1(9)")


def _server(tmp_path=None, **overrides):
    data = {"serve_workers": 2, "serve_max_queue": 4, **overrides}
    if tmp_path is not None:
        data["store_dir"] = str(tmp_path / "store")
    return AnalysisServer(ICPConfig.from_dict(data))


@pytest.fixture
def server():
    srv = _server()
    yield srv
    srv.close()


class TestRouting:
    def test_healthz(self, server):
        status, payload, _ = server.dispatch("GET", "/healthz")
        assert status == 200
        # Regression: the per-shard liveness JSON shape.  A single-process
        # daemon reports itself (shard null) plus its session pool and
        # (absent) store, so the router can aggregate the same payload
        # per shard.
        assert sorted(payload) == [
            "ok", "pid", "programs", "sessions", "shard", "store",
        ]
        assert payload["ok"] is True
        assert payload["programs"] == 0
        assert payload["pid"] == os.getpid()
        assert payload["shard"] is None
        assert payload["store"] is None
        assert payload["sessions"] == {
            "resident": 0,
            "max": server.config.serve_max_sessions,
            "evicted": 0,
        }

    def test_healthz_reports_store_stats(self, tmp_path):
        srv = _server(tmp_path)
        try:
            srv.dispatch("POST", "/programs/p1", {"source": SOURCE})
            _, payload, _ = srv.dispatch("GET", "/healthz")
            assert payload["programs"] == 1
            assert payload["sessions"]["resident"] == 1
            store = payload["store"]
            assert store["writes"] > 0
            assert store["entries"] > 0
            assert store["dir"] == str(tmp_path / "store")
        finally:
            srv.close()

    def test_load_analyzes(self, server):
        status, payload, _ = server.dispatch(
            "POST", "/programs/p1", {"source": SOURCE}
        )
        assert status == 200
        assert payload["degraded"] is False
        assert payload["method"] == "fs"
        assert payload["procedures"] == 3
        formals = {
            (row["proc"], row["formal"]): row["value"]
            for row in payload["constant_formals"]
        }
        assert formals[("sub1", "f1")] == 0
        assert formals[("sub2", "f3")] == 4

    def test_report_and_diagnostics(self, server):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        status, payload, _ = server.dispatch("GET", "/programs/p1/report")
        assert status == 200
        assert "constant propagation report" in payload["report"]
        status, payload, _ = server.dispatch("GET", "/programs/p1/diagnostics")
        assert status == 200
        assert isinstance(payload["findings"], list)
        assert payload["counts"]

    def test_edit_is_incremental(self, server):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        status, payload, _ = server.dispatch(
            "POST", "/programs/p1/edits", {"source": EDITED}
        )
        assert status == 200
        assert payload["changed"] == 1
        assert payload["session"]["analyses"] == 2
        # A no-op resync keeps everything clean — no engine runs at all.
        status, payload, _ = server.dispatch(
            "POST", "/programs/p1/edits", {"source": EDITED}
        )
        assert payload["changed"] == 0
        assert payload["session"]["analyses"] == 2

    def test_procedure_scoped_edit(self, server):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        status, payload, _ = server.dispatch(
            "POST",
            "/programs/p1/edits",
            {
                "procedure": "sub2",
                "source": "proc sub2(f2, f3, f4, f5) { print(f2 * f3); }",
            },
        )
        assert status == 200
        assert payload["changed"] == 1

    def test_delete_then_404(self, server):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        assert server.dispatch("DELETE", "/programs/p1")[0] == 200
        assert server.dispatch("DELETE", "/programs/p1")[0] == 404
        assert server.dispatch("GET", "/programs/p1/report")[0] == 404

    def test_unknown_routes_and_programs(self, server):
        assert server.dispatch("GET", "/nope")[0] == 404
        assert server.dispatch("GET", "/programs/ghost/report")[0] == 404
        assert (
            server.dispatch("POST", "/programs/ghost/edits", {"source": "x"})[0]
            == 404
        )

    def test_bad_requests(self, server):
        assert server.dispatch("POST", "/programs/p", {})[0] == 400
        assert server.dispatch("POST", "/programs/p", {"source": 42})[0] == 400
        status, payload, _ = server.dispatch(
            "POST", "/programs/p", {"source": "proc main( {"}
        )
        assert status == 400
        assert "error" in payload
        assert (
            server.dispatch(
                "POST", "/programs/p", {"source": SOURCE, "timeout": "soon"}
            )[0]
            == 400
        )
        assert (
            server.dispatch(
                "POST", "/programs/p", {"source": SOURCE, "timeout": -1}
            )[0]
            == 400
        )

    @pytest.mark.parametrize(
        "source",
        [
            "proc main() { x = \u00b2; print(x); }",
            "proc main() { x = " + "(" * 65 + "1" + ")" * 65 + "; print(x); }",
            "proc main() { x = " + "(" * 3000 + "1" + ")" * 3000 + "; }",
            "proc main() { x = " + "7" * 4301 + "; print(x); }",
        ],
    )
    def test_hostile_sources_are_400_with_a_position(self, server, source):
        status, payload, _ = server.dispatch("POST", "/programs/p", {"source": source})
        assert status == 400 and re.search(r" at \d+:\d+$", payload["error"]), payload
        assert server.dispatch("POST", "/programs/q", {"source": SOURCE})[0] == 200
        status, payload, _ = server.dispatch(
            "POST", "/programs/q/edits", {"source": source}
        )
        assert status == 400 and re.search(r" at \d+:\d+$", payload["error"]), payload
        assert server.dispatch("GET", "/healthz")[0] == 200


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, server):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        # Drain every admission slot, as a flood of in-flight requests would.
        held = 0
        while server._slots.acquire(blocking=False):
            held += 1
        assert held == server.config.serve_max_queue
        status, payload, headers = server.dispatch(
            "GET", "/programs/p1/report"
        )
        assert status == 503
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)
        assert payload["retry_after"] == RETRY_AFTER_SECONDS
        assert server.stats.rejected == 1
        for _ in range(held):
            server._slots.release()
        # With slots back, the same request is served.
        assert server.dispatch("GET", "/programs/p1/report")[0] == 200

    def test_flood_of_slow_requests_sheds_load(self):
        srv = _server(serve_workers=1, serve_max_queue=2)
        try:
            gate = threading.Event()
            statuses = []
            lock = threading.Lock()
            srv.dispatch("POST", "/programs/p1", {"source": SOURCE})

            # The gate sits inside the admitted job, so the two admitted
            # requests hold both slots until it opens, and every other
            # request of the flood meets a full queue.
            original = srv._execute

            def slow_execute(job, timeout):
                def slow_job():
                    gate.wait(5)
                    return job()

                return original(slow_job, timeout)

            srv._execute = slow_execute

            def fire():
                status, _, _ = srv.dispatch("GET", "/programs/p1/report")
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for _ in range(1000):
                with lock:
                    if len(statuses) >= 4:
                        break
                time.sleep(0.005)
            gate.set()
            for thread in threads:
                thread.join(10)
                assert not thread.is_alive()
            assert statuses.count(503) == 4
            assert statuses.count(200) == 2
        finally:
            gate.set()
            srv.close()


class TestDegradation:
    """A request whose flow-sensitive analysis cannot meet its deadline is
    answered with the flow-insensitive solution.  A fast analysis may
    legitimately beat even a tiny deadline (the scheduler races the timed
    wait), so these tests pin the slow side by making the session slow."""

    @staticmethod
    def _slow_sessions(monkeypatch, seconds=0.3):
        import repro.serve.daemon as daemon
        from repro.session import AnalysisSession

        class SlowSession(AnalysisSession):
            def analyze(self, *args, **kwargs):
                import time

                time.sleep(seconds)
                return super().analyze(*args, **kwargs)

        monkeypatch.setattr(daemon, "AnalysisSession", SlowSession)

    def test_deadline_exceeded_load_degrades_to_fi(self, server, monkeypatch):
        self._slow_sessions(monkeypatch)
        status, payload, _ = server.dispatch(
            "POST", "/programs/p1", {"source": SOURCE, "timeout": 0.05}
        )
        assert status == 200
        assert payload["degraded"] is True
        assert payload["method"] == "fi"
        # FI still proves the paper's obvious constants, just fewer of them.
        pairs = {
            (row["proc"], row["formal"]) for row in payload["constant_formals"]
        }
        assert ("sub1", "f1") in pairs
        assert server.stats.degraded == 1

    def test_deadline_exceeded_edit_degrades_to_fi(self, server, monkeypatch):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        program = server._get_program("p1")
        original = program.session.analyze

        def slow_analyze(*args, **kwargs):
            import time

            time.sleep(0.3)
            return original(*args, **kwargs)

        monkeypatch.setattr(program.session, "analyze", slow_analyze)
        status, payload, _ = server.dispatch(
            "POST",
            "/programs/p1/edits",
            {"source": EDITED, "timeout": 0.05},
        )
        assert status == 200
        assert payload["degraded"] is True
        assert payload["method"] == "fi"

    def test_report_has_no_fallback_504(self, server, monkeypatch):
        server.dispatch("POST", "/programs/p1", {"source": SOURCE})
        program = server._get_program("p1")

        def slow_report():
            import time

            time.sleep(0.3)
            return "late"

        monkeypatch.setattr(program.session, "report", slow_report)
        status, payload, _ = server.dispatch(
            "GET", "/programs/p1/report?timeout=0.05"
        )
        assert status == 504
        assert server.stats.timeouts == 1


class TestSessionPool:
    def test_lru_eviction_bounds_residency(self):
        srv = _server(serve_max_sessions=2)
        try:
            for index in range(3):
                srv.dispatch(
                    "POST", f"/programs/p{index}", {"source": SOURCE}
                )
            status, payload, _ = srv.dispatch("GET", "/healthz")
            assert payload["programs"] == 2
            assert srv.stats.sessions_evicted == 1
            # p0 was the least recently used; p2 survives.
            assert srv.dispatch("GET", "/programs/p0/report")[0] == 404
            assert srv.dispatch("GET", "/programs/p2/report")[0] == 200
        finally:
            srv.close()

    def test_stats_endpoint(self, tmp_path):
        srv = _server(tmp_path)
        try:
            srv.dispatch("POST", "/programs/p1", {"source": SOURCE})
            status, payload, _ = srv.dispatch("GET", "/stats")
            assert status == 200
            assert payload["programs"] == ["p1"]
            assert payload["store"]["writes"] > 0
            assert payload["config"]["max_queue"] == 4
        finally:
            srv.close()


class TestWarmStart:
    def test_restarted_daemon_reuses_persisted_summaries(self, tmp_path):
        first = _server(tmp_path)
        status, cold, _ = first.dispatch(
            "POST", "/programs/p1", {"source": SOURCE}
        )
        _, cold_report, _ = first.dispatch("GET", "/programs/p1/report")
        assert cold["session"]["engine_runs"] > 0
        first.close()

        second = _server(tmp_path)
        try:
            status, warm, _ = second.dispatch(
                "POST", "/programs/p1", {"source": SOURCE}
            )
            assert warm["session"]["engine_runs"] == 0
            assert warm["session"]["cached"] == cold["session"]["engine_runs"]
            assert warm["constant_formals"] == cold["constant_formals"]
            _, warm_report, _ = second.dispatch("GET", "/programs/p1/report")
            assert warm_report["report"] == cold_report["report"]
        finally:
            second.close()


class TestHTTP:
    def test_end_to_end_over_a_real_socket(self, tmp_path):
        srv = _server(tmp_path, serve_port=0)
        host, port = srv.start()
        base = f"http://{host}:{port}"

        def request(method, path, body=None):
            data = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            req = urllib.request.Request(
                base + path,
                data=data,
                method=method,
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(req, timeout=10) as resp:
                    return resp.status, json.loads(resp.read()), resp.headers
            except urllib.error.HTTPError as error:
                return error.code, json.loads(error.read()), error.headers

        try:
            assert request("GET", "/healthz")[0] == 200
            status, payload, _ = request(
                "POST", "/programs/p1", {"source": SOURCE}
            )
            assert status == 200 and payload["method"] == "fs"
            status, payload, _ = request(
                "POST", "/programs/p1/edits", {"source": EDITED}
            )
            assert status == 200 and payload["changed"] == 1
            status, payload, _ = request("GET", "/programs/p1/report")
            assert "constant propagation report" in payload["report"]
            status, payload, headers = request(
                "POST", "/bogus", {"x": 1}
            )
            assert status == 404
            status, _, _ = request("DELETE", "/programs/p1")
            assert status == 200
        finally:
            srv.close()

    def test_malformed_body_is_400(self, tmp_path):
        srv = _server(serve_port=0)
        host, port = srv.start()
        try:
            req = urllib.request.Request(
                f"http://{host}:{port}/programs/p1",
                data=b"{not json",
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(req, timeout=10)
            assert excinfo.value.code == 400
        finally:
            srv.close()
