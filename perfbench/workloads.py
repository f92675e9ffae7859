"""The four workloads, each from MiniF source text to report.

Every workload is one process doing serial analysis (``workers=1``) with at
most two threads or connections.  A run either measures the end-to-end
metrics (``trace=False``: no spans anywhere) or the per-layer metrics
(``trace=True``: the first half of the window runs untraced, for the
tracing-overhead ratio, the second half traced).  Output checks run after
the timed window; a failed check counts the operation as failed.  Every
reported time is calibrated (``measure.Calibration``): a probe runs after
each operation and around each set-up, outside the measured span.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api import AnalysisSession, CompilationPipeline, ICPConfig, analyze
from repro.core.metrics import call_site_candidates, propagated_constants
from repro.core.report import analysis_report
from repro.diag.sanitize import sanitize_result
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser

import inputs
from measure import Calibration, Spans, median, percentile
from replay import REPLAY_LAYERS, replay

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Smallest gate on attributed time (ROADMAP item 1).
MIN_COVERAGE = 0.95

#: Workload sizes.  ``smoke`` is the self-test's smallest size.
SIZES = {
    "full": {
        "suite_scales": (1, 2, 3),
        "recursion_scales": (2, 3, 4, 5, 6),
        "session_programs": 30,
        "serve_programs": 30,
        "edits": 6,
        "procs": 20,
        "setup_repeats": 3,
        "probe_repeats": 9,
    },
    "smoke": {
        "suite_scales": (1,),
        "recursion_scales": (1,),
        "session_programs": 3,
        "serve_programs": 3,
        "edits": 2,
        "procs": 6,
        "setup_repeats": 2,
        "probe_repeats": 2,
    },
}

#: Per-layer metric names and units.  Layer times are mean seconds per
#: traced operation, counts are per traced operation; a layer the workload
#: does not enter (or cannot see, as inside the daemon) reads 0.
PER_LAYER_UNITS = {
    "lang.lex_s": "s/op",
    "lang.parse_s": "s/op",
    "lang.tokens_per_s": "1/s",
    "lang.validate_s": "s/op",
    "lang.symbols_s": "s/op",
    "callgraph.pcg_s": "s/op",
    "summary.alias_s": "s/op",
    "summary.modref_s": "s/op",
    "summary.use_s": "s/op",
    "core.fi_s": "s/op",
    "core.fs_s": "s/op",
    "core.report_s": "s/op",
    "core.fs_over_fi": "ratio",
    "analysis.engine_runs": "count/op",
    "analysis.contexts": "count/op",
    "analysis.widenings": "count/op",
    "sched.tasks_cached": "count/op",
    "session.sync_s": "s/op",
    "session.analyze_s": "s/op",
    "session.dirty": "count/op",
    "session.reuse_rate": "ratio",
    "diag.diagnostics_s": "s/op",
    "store.hits": "count/op",
    "store.misses": "count/op",
    "store.writes": "count/op",
    "serve.server_ms.p50": "ms",
    "serve.envelope_ms.p50": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "error_rate": "ratio",
    "calib.probe_ms": "ms",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "write_ms.p50": "ms",
    "write_ms.p75": "ms",
    "read_ms.p50": "ms",
    "read_ms.p75": "ms",
    "peak_rss_mb": "MB",
    "constants_found": "count",
}


@dataclass
class Window:
    """What one timed window observed.  ``ops``, ``writes`` and ``reads``
    hold calibrated seconds; ``seconds`` is the window's wall time, probes
    included."""

    calibration: Calibration
    seconds: float = 0.0
    ops: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    raw_op_seconds: float = 0.0
    failed: int = 0
    #: (program, version) -> digests of every report the window produced.
    reports: Dict[Tuple[str, int], List[str]] = field(default_factory=dict)

    def record(self, write: float = 0.0, read: float = 0.0, spans: Optional[Spans] = None) -> None:
        """One completed operation made of a write part and a read part
        (either may be absent); runs the probe for its factor."""
        factor = self.calibration.factor()
        if spans is not None:
            spans.calibrate_op(factor)
        self.ops.append((write + read) * factor)
        if write:
            self.writes.append(write * factor)
        if read:
            self.reads.append(read * factor)
        self.raw_op_seconds += write + read

    @property
    def ops_per_s(self) -> float:
        """Operations per calibrated second spent in operations."""
        return len(self.ops) / sum(self.ops)

    def saw(self, key: Tuple[str, int], report: str) -> None:
        self.reports.setdefault(key, []).append(sha(report))


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    gates_ok: bool = True


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def constants_found(result) -> int:
    """FS constant call-site args + formals + entry globals (Tables 1-2)."""
    args = (result.program, result.symbols, result.pcg, result.modref, result.fi, result.fs, result.config)
    sites = call_site_candidates("", *args)
    entry = propagated_constants("", *args)
    return sites.fs_args + entry.fs_formals + entry.fs_globals


def engine_runs(result) -> int:
    """Engine runs of a cold pipeline: the scheduler's count when it ran
    tasks, else one flow-sensitive pass per analyzed procedure (serial)."""
    return result.sched.tasks_run or len(result.fs.intra)


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(setups, window: Window, rss: float, constants: int) -> Dict[str, Tuple[float, str]]:
    values = {
        "setup_s": median(setups),
        "ops_per_s": window.ops_per_s,
        "op_ms.p50": percentile(window.ops, 50) * 1000.0,
        "write_ms.p50": percentile(window.writes, 50) * 1000.0,
        "write_ms.p75": percentile(window.writes, 75) * 1000.0,
        "read_ms.p50": percentile(window.reads, 50) * 1000.0,
        "read_ms.p75": percentile(window.reads, 75) * 1000.0,
        "peak_rss_mb": rss,
        "constants_found": float(constants),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def sample_note(window: Window) -> str:
    return (
        f"samples: op={len(window.ops)} write={len(window.writes)} "
        f"read={len(window.reads)} over {window.seconds:.2f}s; uncalibrated "
        f"{len(window.ops) / window.raw_op_seconds:.4g} ops/s, "
        f"probe median {window.calibration.probe_ms():.4g} ms"
    )


def calibrated_setup(calibration: Calibration, setup):
    """Run ``setup()``, which returns ``(value, seconds)``; returns the value
    and the seconds scaled by the mean factor of the moments just before
    and just after the set-up.  The set-up starts from a collected heap, as
    in a fresh process: garbage left by an earlier repeat would otherwise
    make its collections, and so its time, depend on the repeat."""
    gc.collect()
    before = calibration.settle()
    value, seconds = setup()
    after = calibration.settle()
    return value, seconds * (before + after) / 2.0


def layer_metrics(values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    metrics = {name: (0.0, unit) for name, unit in PER_LAYER_UNITS.items()}
    for name, value in values.items():
        metrics[name] = (float(value), PER_LAYER_UNITS[name])
    return metrics


def fs_over_fi(base: float, fi: float, fs: float) -> float:
    """``(base+fi+fs)/(base+fi)``, as ``bench.tables.TimingRow``."""
    return (base + fi + fs) / (base + fi)


# ----------------------------------------------------------------------
# suite-cold and recursion-contexts: a fresh pipeline per program.
# ----------------------------------------------------------------------


def probe_setup(config: ICPConfig, repeats: int, calibration: Calibration) -> List[float]:
    """Import ``repro`` and build the first pipeline, in fresh processes."""
    probe = os.path.join(HERE, "setup_probe.py")

    def setup():
        done = subprocess.run(
            [sys.executable, probe, json.dumps(config.to_dict())],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return None, float(done.stdout.strip().splitlines()[-1])

    return [calibrated_setup(calibration, setup)[1] for _ in range(repeats)]


def cold_window(programs, config, duration, seed, calibration, spans: Optional[Spans], counts):
    """Whole passes over the programs, each in a seeded order, until
    ``duration`` has elapsed: every program gets the same share of ops."""
    rng = random.Random(f"perfbench/passes/{seed}")
    window = Window(calibration)
    started = time.perf_counter()
    while time.perf_counter() - started < duration:
        batch = list(programs)
        rng.shuffle(batch)
        for name, text in batch:
            try:
                if spans is None:
                    t0 = time.perf_counter()
                    result = CompilationPipeline(config).run(text)
                    t1 = time.perf_counter()
                    report = analysis_report(result)
                    t2 = time.perf_counter()
                else:
                    spans.begin_op()
                    t0 = time.perf_counter()
                    result, report, tokens = replay(text, config, spans)
                    t2 = time.perf_counter()
                    spans.end_op()
                    # The write ends where the replay's last span, the
                    # core.report call, starts.
                    t1 = spans.records[-2][1]
                    counts["tokens"] += tokens
                    counts["engine_runs"] += engine_runs(result)
                    counts["tasks_cached"] += result.sched.tasks_cached
                    if result.fs.contexts is not None:
                        counts["contexts"] += result.fs.contexts.contexts
                        counts["widenings"] += result.fs.contexts.widenings
            except Exception as error:  # noqa: BLE001 - counted, reported
                print(f"op failed on {name}: {type(error).__name__}: {error}", file=sys.stderr)
                window.failed += 1
                continue
            del result
            window.record(t1 - t0, t2 - t1, spans)
            window.saw((name, 0), report)
    window.seconds = time.perf_counter() - started
    return window


def check_cold(programs, config, windows) -> Tuple[int, int, List[str]]:
    """Reports against a cold ``analyze``; the reference result against the
    reference interpreter (ICP900).  Returns (failed ops, constants, notes)."""
    failed = 0
    constants = 0
    notes = []
    for name, text in programs:
        reference = analyze(text, config)
        expected = sha(analysis_report(reference))
        unsound = [f for f in sanitize_result(reference) if f.rule_id in ("ICP900", "ICP901")]
        constants += constants_found(reference)
        for window in windows:
            digests = window.reports.get((name, 0), [])
            bad = len(digests) if unsound else sum(d != expected for d in digests)
            if bad:
                notes.append(f"{name}: {bad} report(s) failed the check ({len(unsound)} unsound claim(s))")
            failed += bad
    return failed, constants, notes


def run_cold(seed, seconds, trace, size, recursion) -> Outcome:
    scales = size["recursion_scales" if recursion else "suite_scales"]
    config = ICPConfig(context_mode="value-contexts") if recursion else ICPConfig()
    programs = inputs.suite_programs(seed, recursion, scales)
    notes = [f"inputs: {inputs.digest(text for _, text in programs)}"]
    calibration = Calibration()
    if not trace:
        setups = probe_setup(config, size["probe_repeats"], calibration)
        window = cold_window(programs, config, seconds, seed, calibration, None, None)
        rss = rss_mb(resource.RUSAGE_SELF)
        failed, constants, check_notes = check_cold(programs, config, [window])
        notes += [sample_note(window)] + check_notes
        metrics = end_to_end(setups, window, rss, constants)
        return Outcome(len(window.ops) + window.failed, window.failed + failed, metrics, notes)

    counts = dict.fromkeys(("tokens", "engine_runs", "tasks_cached", "contexts", "widenings"), 0)
    plain = cold_window(programs, config, seconds / 2.0, seed, calibration, None, None)
    spans = Spans()
    traced = cold_window(programs, config, seconds / 2.0, seed, calibration, spans, counts)
    failed, _constants, check_notes = check_cold(programs, config, [plain, traced])
    totals = spans.totals()
    n = len(traced.ops)
    per_op = {name: totals.get(name, 0.0) / n for name in REPLAY_LAYERS}
    parse = per_op["lang.lex"] + per_op["lang.parse_rest"]
    base = parse + sum(
        per_op[name]
        for name in ("lang.validate", "lang.symbols", "callgraph.pcg",
                     "summary.alias", "summary.modref", "summary.use")
    )
    coverage = spans.coverage(REPLAY_LAYERS)
    values = {
        "lang.lex_s": per_op["lang.lex"],
        "lang.parse_s": parse,
        "lang.tokens_per_s": counts["tokens"] / (parse * n),
        "lang.validate_s": per_op["lang.validate"],
        "lang.symbols_s": per_op["lang.symbols"],
        "callgraph.pcg_s": per_op["callgraph.pcg"],
        "summary.alias_s": per_op["summary.alias"],
        "summary.modref_s": per_op["summary.modref"],
        "summary.use_s": per_op["summary.use"],
        "core.fi_s": per_op["core.fi"],
        "core.fs_s": per_op["core.fs"],
        "core.report_s": per_op["core.report"],
        "core.fs_over_fi": fs_over_fi(base, per_op["core.fi"], per_op["core.fs"]),
        "analysis.engine_runs": counts["engine_runs"] / n,
        "analysis.contexts": counts["contexts"] / n,
        "analysis.widenings": counts["widenings"] / n,
        "sched.tasks_cached": counts["tasks_cached"] / n,
        "trace.coverage": coverage,
        "trace.overhead": plain.ops_per_s / traced.ops_per_s,
    }
    return traced_outcome(values, [plain, traced], failed, coverage, notes + check_notes)


def traced_outcome(values, windows, check_failed, coverage, notes) -> Outcome:
    attempted = sum(len(w.ops) + w.failed for w in windows)
    failed = sum(w.failed for w in windows) + check_failed
    values["error_rate"] = failed / attempted
    values["calib.probe_ms"] = windows[-1].calibration.probe_ms()
    notes.append(" ".join(sample_note(w) for w in windows))
    gates_ok = coverage >= MIN_COVERAGE
    if not gates_ok:
        notes.append(f"attribution gate failed: coverage {coverage:.3f} < {MIN_COVERAGE}")
    return Outcome(attempted, failed, layer_metrics(values), notes, gates_ok)


# ----------------------------------------------------------------------
# session-edits: AnalysisSessions driven by a closed loop of one-procedure
# edits (sync -> analyze -> report -> diagnostics).
# ----------------------------------------------------------------------


def open_sessions(corpus, config):
    """Every program's session after its first ``analyze``, and the seconds
    that took."""
    started = time.perf_counter()
    sessions = {}
    for pid in corpus.ids:
        session = AnalysisSession(corpus.versions[pid][0], config)
        session.analyze()
        sessions[pid] = session
    return sessions, time.perf_counter() - started


def session_window(corpus, sessions, visits, order, duration, edits, calibration, spans, counts):
    """One read sample per operation: its report and its diagnostics
    together.  Apart, the two halves of the sample form two clusters of
    equal weight and the median falls in the gap between them."""
    window = Window(calibration)
    started = time.perf_counter()
    while time.perf_counter() - started < duration:
        pid = next(order)
        visits[pid] += 1
        version = inputs.pingpong(visits[pid], edits)
        text = corpus.versions[pid][version]
        session = sessions[pid]
        try:
            if spans is None:
                t0 = time.perf_counter()
                session.sync(text)
                session.analyze()
                t1 = time.perf_counter()
                report = session.report()
                session.diagnostics()
                t3 = time.perf_counter()
            else:
                spans.begin_op()
                t0 = time.perf_counter()
                tokens = spans.call("lang.lex", tokenize, text)
                program = spans.call("lang.parse_rest", Parser(tokens).parse_program)
                spans.call("session.sync", session.sync, program)
                result = spans.call("session.analyze", session.analyze)
                t1 = time.perf_counter()
                report = spans.call("core.report", analysis_report, result)
                spans.call("diag.diagnostics", session.diagnostics)
                t3 = time.perf_counter()
                spans.end_op()
                counts["tokens"] += len(tokens)
                for phase, seconds in result.timings.items():
                    counts[phase] = counts.get(phase, 0.0) + seconds
                stats = session.stats
                counts["engine_runs"] += stats.last_engine_runs
                counts["tasks_cached"] += result.sched.tasks_cached
                counts["dirty"] += stats.last_dirty
                counts["reuse_rate"] += stats.reuse_rate
        except Exception as error:  # noqa: BLE001 - counted, reported
            print(f"op failed on {pid}: {type(error).__name__}: {error}", file=sys.stderr)
            window.failed += 1
            continue
        window.record(t1 - t0, t3 - t1, spans)
        window.saw((pid, version), report)
    window.seconds = time.perf_counter() - started
    return window


def check_edits(corpus, config, windows, constants_of=()) -> Tuple[int, int, List[str]]:
    """Every report against a cold ``analyze`` of the same text.  Also
    counts ``constants_found`` over version 0 of the programs named in
    ``constants_of``, from the same cold results."""
    failed = 0
    constants = 0
    notes = []
    keys = {key for window in windows for key in window.reports}
    keys.update((pid, 0) for pid in constants_of)
    for pid, version in sorted(keys):
        cold = analyze(corpus.versions[pid][version], config)
        if version == 0 and pid in constants_of:
            constants += constants_found(cold)
        expected = sha(analysis_report(cold))
        for window in windows:
            bad = sum(d != expected for d in window.reports.get((pid, version), []))
            if bad:
                notes.append(f"{pid}@v{version}: {bad} report(s) differ from a cold analyze")
            failed += bad
    return failed, constants, notes


def round_robin(seed, ids, tag):
    round_index = 0
    while True:
        yield from inputs.program_order(seed + 7919 * round_index, ids, len(ids), tag)
        round_index += 1


def run_session_edits(seed, seconds, trace, size) -> Outcome:
    config = ICPConfig()
    corpus = inputs.edit_corpus(seed, size["session_programs"], size["edits"], size["procs"], "se")
    notes = [f"inputs: {inputs.digest(t for pid in corpus.ids for t in corpus.versions[pid])}"]
    visits = dict.fromkeys(corpus.ids, 0)
    edits = size["edits"]
    calibration = Calibration()
    if not trace:
        setups = []
        for _ in range(size["setup_repeats"]):
            sessions = None  # free the previous repeat's sessions first
            sessions, seconds_to_ready = calibrated_setup(calibration, lambda: open_sessions(corpus, config))
            setups.append(seconds_to_ready)
        constants = sum(constants_found(sessions[pid].result) for pid in corpus.ids)
        order = round_robin(seed, corpus.ids, "session")
        window = session_window(corpus, sessions, visits, order, seconds, edits, calibration, None, None)
        rss = rss_mb(resource.RUSAGE_SELF)
        sessions = None
        failed, _, check_notes = check_edits(corpus, config, [window])
        notes += [sample_note(window)] + check_notes
        metrics = end_to_end(setups, window, rss, constants)
        return Outcome(len(window.ops) + window.failed, window.failed + failed, metrics, notes)

    sessions, _ = open_sessions(corpus, config)
    # Both halves replay the same program order, so the overhead ratio
    # compares like with like.
    order = round_robin(seed, corpus.ids, "session")
    plain = session_window(corpus, sessions, visits, order, seconds / 2.0, edits, calibration, None, None)
    spans = Spans()
    counts = dict.fromkeys(("tokens", "engine_runs", "tasks_cached", "dirty", "reuse_rate"), 0)
    order = round_robin(seed, corpus.ids, "session")
    traced = session_window(corpus, sessions, visits, order, seconds / 2.0, edits, calibration, spans, counts)
    sessions = None
    failed, _, check_notes = check_edits(corpus, config, [plain, traced])
    layers = ("lang.lex", "lang.parse_rest", "session.sync", "session.analyze",
              "core.report", "diag.diagnostics")
    totals = spans.totals()
    n = len(traced.ops)
    per_op = {name: totals.get(name, 0.0) / n for name in layers}
    inner = {phase: counts.get(phase, 0.0) / n for phase in
             ("validate", "collect", "pcg", "alias", "modref", "icp_fi", "icp_fs", "use")}
    parse = per_op["lang.lex"] + per_op["lang.parse_rest"]
    base = parse + per_op["session.sync"] + sum(
        inner[p] for p in ("validate", "collect", "pcg", "alias", "modref", "use")
    )
    coverage = spans.coverage(layers)
    values = {
        "lang.lex_s": per_op["lang.lex"],
        "lang.parse_s": parse,
        "lang.tokens_per_s": counts["tokens"] / (parse * n),
        # Phases inside session.analyze, from its PipelineResult.timings.
        "lang.validate_s": inner["validate"],
        "lang.symbols_s": inner["collect"],
        "callgraph.pcg_s": inner["pcg"],
        "summary.alias_s": inner["alias"],
        "summary.modref_s": inner["modref"],
        "summary.use_s": inner["use"],
        "core.fi_s": inner["icp_fi"],
        "core.fs_s": inner["icp_fs"],
        "core.report_s": per_op["core.report"],
        "core.fs_over_fi": fs_over_fi(base, inner["icp_fi"], inner["icp_fs"]),
        "analysis.engine_runs": counts["engine_runs"] / n,
        "sched.tasks_cached": counts["tasks_cached"] / n,
        "session.sync_s": per_op["session.sync"],
        "session.analyze_s": per_op["session.analyze"],
        "session.dirty": counts["dirty"] / n,
        "session.reuse_rate": counts["reuse_rate"] / n,
        "diag.diagnostics_s": per_op["diag.diagnostics"],
        "trace.coverage": coverage,
        "trace.overhead": plain.ops_per_s / traced.ops_per_s,
    }
    return traced_outcome(values, [plain, traced], failed, coverage, notes + check_notes)


# ----------------------------------------------------------------------
# serve-mixed: one `repro-icp serve` daemon, one closed-loop connection.
# ----------------------------------------------------------------------


class Daemon:
    """A `repro-icp serve` child in its default single-process setup."""

    def __init__(self, workdir: str, index: int):
        self.store = os.path.join(workdir, f"store-{index}")
        self.log_path = os.path.join(workdir, f"serve-{index}.log")
        shutil.rmtree(self.store, ignore_errors=True)
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.next_id = 0

    def start(self) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                 "--store-dir", self.store, "--max-seconds", "170"],
                stdout=subprocess.DEVNULL, stderr=log, env=env,
            )
        deadline = time.monotonic() + 60.0
        port = None
        while port is None:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"serve did not start; see {self.log_path}")
            with open(self.log_path) as log:
                for line in log:
                    if "listening on http://" in line:
                        port = int(line.split("listening on http://")[1].split()[0].rsplit(":", 1)[1])
                        break
            if port is None:
                time.sleep(0.005)
        self.port = port
        status, payload = self.request("GET", "/v1/healthz")
        if status != 200 or not payload.get("ok"):
            raise RuntimeError(f"serve is not healthy: {status} {payload}")

    def request(self, method: str, path: str, body=None) -> Tuple[int, dict]:
        """One request on its own connection, as ``repro-icp loadgen`` sends
        them (a kept-alive connection stalls on delayed ACKs instead)."""
        self.next_id += 1
        headers = {"X-Repro-Request-Id": f"pb{self.next_id}", "Connection": "close"}
        data = None
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.store, ignore_errors=True)
        if os.path.exists(self.log_path):
            os.remove(self.log_path)


def boot(corpus, workdir, index) -> Tuple[Daemon, float]:
    """Daemon start to healthy ``/v1/healthz``, plus preloading every program."""
    daemon = Daemon(workdir, index)
    started = time.perf_counter()
    try:
        daemon.start()
        for pid in corpus.ids:
            status, payload = daemon.request("POST", f"/v1/programs/{pid}", {"source": corpus.versions[pid][0]})
            if status != 200 or payload.get("degraded"):
                raise RuntimeError(f"preload of {pid} failed: {status}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - started


def serve_window(daemon, corpus, current, visits, order, kinds, duration, edits, calibration, trace):
    """``trace`` is None (untraced) or a dict collecting per-layer inputs."""
    window = Window(calibration)
    pending: Dict[str, Tuple[int, float]] = {}
    spans = trace["spans"] if trace is not None else None
    started = time.perf_counter()
    while time.perf_counter() - started < duration:
        pid = next(order)
        kind = next(kinds)
        if kind in ("edit", "analyze"):
            visits[pid] += 1
            version = inputs.pingpong(visits[pid], edits)
            body = {"source": corpus.versions[pid][version]}
            path = f"/v1/programs/{pid}/edits" if kind == "edit" else f"/v1/programs/{pid}"
            method = "POST"
        else:
            version = current[pid]
            body = None
            path = f"/v1/programs/{pid}/{'report' if kind == 'report' else 'diagnostics'}"
            method = "GET"
        if spans is not None:
            spans.begin_op()
        t0 = time.perf_counter()
        try:
            status, payload = daemon.request(method, path, body)
        except (OSError, http.client.HTTPException, ValueError) as error:
            print(f"{method} {path} failed: {error}", file=sys.stderr)
            window.failed += 1
            continue
        elapsed = time.perf_counter() - t0
        if spans is not None:
            spans.end_op()
            pending[f"pb{daemon.next_id}"] = (spans.op, elapsed)
        if status != 200 or payload.get("degraded"):
            print(f"{method} {path}: HTTP {status} {payload}", file=sys.stderr)
            window.failed += 1
            continue
        if method == "POST":
            current[pid] = version
            window.record(write=elapsed, spans=spans)
            if trace is not None:
                session = payload["session"]
                trace["writes"] += 1
                trace["engine_runs"] += session["engine_runs"]
                trace["dirty"] += session["dirty"]
                trace["reuse_rate"] += session["reuse_rate"]
        else:
            window.record(read=elapsed, spans=spans)
            if kind == "report":
                window.saw((pid, version), payload["report"])
        if trace is not None and len(pending) >= 100:
            match_server_latency(daemon, pending, trace)
    if trace is not None and pending:
        match_server_latency(daemon, pending, trace)
    window.seconds = time.perf_counter() - started
    return window


def match_server_latency(daemon, pending, trace) -> None:
    """Split client latency into the daemon's own and the envelope."""
    status, payload = daemon.request("GET", "/v1/debug/last?n=256")
    if status != 200:
        raise RuntimeError(f"/v1/debug/last answered {status}")
    server = {e.get("request_id"): e["latency_ms"] / 1000.0 for e in payload["entries"]}
    spans = trace["spans"]
    for request_id, (op, elapsed) in pending.items():
        if request_id not in server:
            raise RuntimeError(f"request {request_id} missing from /v1/debug/last")
        spans.add("serve.server", server[request_id], op)
        spans.add("serve.envelope", elapsed - server[request_id], op)
    pending.clear()


def store_counts(daemon) -> Dict[str, int]:
    status, payload = daemon.request("GET", "/v1/stats")
    if status != 200:
        raise RuntimeError(f"/v1/stats answered {status}")
    store = payload["store"]
    return {key: store[key] for key in ("hits", "misses", "writes")}


def endless(kinds_list):
    while True:
        yield from kinds_list


def run_serve_mixed(seed, seconds, trace, size) -> Outcome:
    config = ICPConfig()
    corpus = inputs.edit_corpus(seed, size["serve_programs"], size["edits"], size["procs"], "sm")
    notes = [f"inputs: {inputs.digest(t for pid in corpus.ids for t in corpus.versions[pid])}"]
    workdir = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    current = dict.fromkeys(corpus.ids, 0)
    visits = dict.fromkeys(corpus.ids, 0)
    edits = size["edits"]
    repeats = size["setup_repeats"] if not trace else 1
    calibration = Calibration()
    setups = []
    daemon = None
    try:
        for index in range(repeats):
            if daemon is not None:
                daemon.stop()
                daemon = None
            daemon, seconds_to_ready = calibrated_setup(calibration, lambda: boot(corpus, workdir, index))
            setups.append(seconds_to_ready)
        # Both halves of a traced run replay the same operation sequence,
        # so the overhead ratio compares like with like.
        def ops():
            return round_robin(seed, corpus.ids, "serve"), endless(inputs.op_kinds(seed, 4096))

        if not trace:
            window = serve_window(daemon, corpus, current, visits, *ops(), seconds, edits, calibration, None)
            windows = [window]
        else:
            plain = serve_window(daemon, corpus, current, visits, *ops(), seconds / 2.0, edits, calibration, None)
            before = store_counts(daemon)
            spans = Spans()
            collected = {"spans": spans, "writes": 0, "engine_runs": 0, "dirty": 0, "reuse_rate": 0.0}
            traced = serve_window(daemon, corpus, current, visits, *ops(), seconds / 2.0, edits, calibration, collected)
            after = store_counts(daemon)
            windows = [plain, traced]
    finally:
        if daemon is not None:
            daemon.stop()
    rss = rss_mb(resource.RUSAGE_CHILDREN)
    failed, constants, check_notes = check_edits(corpus, config, windows, corpus.ids)
    if not trace:
        notes += [sample_note(window)] + check_notes
        metrics = end_to_end(setups, window, rss, constants)
        return Outcome(len(window.ops) + window.failed, window.failed + failed, metrics, notes)

    n = len(traced.ops)
    server = spans.durations("serve.server")
    envelope = spans.durations("serve.envelope")
    # The envelope is client latency minus the daemon's, so this coverage
    # is 1 by construction: on this workload the gate cannot fail.
    coverage = spans.coverage(("serve.server", "serve.envelope"))
    writes = max(collected["writes"], 1)
    values = {
        "analysis.engine_runs": collected["engine_runs"] / n,
        "session.dirty": collected["dirty"] / n,
        "session.reuse_rate": collected["reuse_rate"] / writes,
        "store.hits": (after["hits"] - before["hits"]) / n,
        "store.misses": (after["misses"] - before["misses"]) / n,
        "store.writes": (after["writes"] - before["writes"]) / n,
        "serve.server_ms.p50": percentile(server, 50) * 1000.0,
        "serve.envelope_ms.p50": percentile(envelope, 50) * 1000.0,
        "trace.coverage": coverage,
        "trace.overhead": plain.ops_per_s / traced.ops_per_s,
    }
    return traced_outcome(values, [plain, traced], failed, coverage, notes + check_notes)


WORKLOADS = {
    "suite-cold": lambda seed, seconds, trace, size: run_cold(seed, seconds, trace, size, recursion=False),
    "session-edits": run_session_edits,
    "serve-mixed": run_serve_mixed,
    "recursion-contexts": lambda seed, seconds, trace, size: run_cold(seed, seconds, trace, size, recursion=True),
}
