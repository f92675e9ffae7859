"""Seeded inputs of the four workloads.

Everything here runs before the first timer starts.  The program under
test receives only the generated MiniF text.  The same seed gives the same
texts; two seeds give different texts:

- the suite profiles (``SUITE``, ``RECURSION_SUITE``) are fixed shapes, so
  the seed alpha-renames every procedure but ``main`` and shuffles the
  declaration order — a different text with the same analysis facts;
- the edit workloads use ``loadgen.edit_script`` programs whose generator
  seeds derive from the workload seed, and the seed orders the programs
  and draws the operation mix.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.generator import GeneratorConfig, generate_program
from repro.bench.loadgen import OP_MIX, edit_script
from repro.bench.suite import RECURSION_SUITE, SUITE, build_benchmark_source
from repro.callgraph.pcg import build_pcg
from repro.lang import ast
from repro.lang.clone import clone_procedure
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.symbols import collect_symbols


def disguise(source: str, rng: random.Random) -> str:
    """Rename every procedure but ``main`` and shuffle declaration order."""
    program = parse_program(source)
    tag = f"{rng.randrange(1 << 24):06x}"
    names = {
        proc.name: f"{proc.name}_{tag}"
        for proc in program.procedures
        if proc.name != "main"
    }
    procs = [
        clone_procedure(proc, names.get(proc.name), rename_calls=names)
        for proc in program.procedures
    ]
    rng.shuffle(procs)
    return pretty_program(ast.Program(program.global_names, program.inits, procs))


def suite_programs(seed: int, recursion: bool, scales: Tuple[int, ...]) -> List[Tuple[str, str]]:
    """``(profile@scale, text)`` for every profile of the chosen suite at
    every scale.  Several scales spread the program sizes, so latency
    percentiles do not sit on the gap between two profiles."""
    rng = random.Random(f"perfbench/suite/{seed}")
    profiles = RECURSION_SUITE if recursion else SUITE
    return [
        (f"{name}@{scale}", disguise(build_benchmark_source(profile, scale), rng))
        for scale in scales
        for name, profile in profiles.items()
    ]


def pingpong(step: int, edits: int) -> int:
    """Version index of the ``step``-th visit: 0, 1, .., E, E-1, .., 1, 0, 1 ..

    Consecutive versions of an edit script differ in exactly one
    procedure, so every step is a one-procedure edit.  Visits 1 to E walk
    forward to versions the session has not analysed yet; the workloads
    size E above the visits a window makes, so a walk back to a version
    already in the session's summary cache is the exception.
    """
    period = 2 * edits
    position = step % period
    return position if position <= edits else period - position


@dataclass
class EditCorpus:
    """A working set of programs, each a list of source versions."""

    ids: List[str]
    versions: Dict[str, List[str]]


def all_live(program: ast.Program) -> bool:
    """Every procedure is reachable from ``main`` (no dead procedures)."""
    pcg = build_pcg(program, collect_symbols(program), "main")
    return set(pcg.nodes) == {proc.name for proc in program.procedures}


def live_seed(seed: int, procs: int) -> int:
    """The first generator seed derived from ``seed`` whose program has no
    dead procedure.  Dead procedures are skipped by the analysis, so
    admitting them would make the work per program — and the constants
    found — swing with the seed far more than the program size does."""
    for attempt in range(10_000):
        candidate = seed * 10_007 + attempt
        if all_live(generate_program(candidate, GeneratorConfig(n_procs=procs))):
            return candidate
    raise RuntimeError(f"no all-live program near seed {seed}")


def edit_corpus(seed: int, programs: int, edits: int, procs: int, tag: str) -> EditCorpus:
    ids = [f"{tag}{index:03d}" for index in range(programs)]
    versions = {
        pid: edit_script(live_seed(seed * 1009 + index, procs), edits, procs)
        for index, pid in enumerate(ids)
    }
    return EditCorpus(ids, versions)


def program_order(seed: int, ids: List[str], count: int, tag: str) -> List[str]:
    """``count`` program ids: seeded permutations, each id once per round.

    Round-robin keeps every program's share of the operations equal, so
    the latency sample reflects the whole working set, not a lucky draw.
    """
    rng = random.Random(f"perfbench/order/{tag}/{seed}")
    order: List[str] = []
    while len(order) < count:
        round_ids = list(ids)
        rng.shuffle(round_ids)
        order.extend(round_ids)
    return order[:count]


def op_kinds(seed: int, count: int) -> List[str]:
    """``loadgen.OP_MIX`` (report/diagnostics/edit/analyze) in seeded order.

    Drawn in shuffled blocks that hold each kind in exact proportion, so
    every stretch of the run has the mix's share of writes: a free draw
    lets the write share, and with it the throughput, wander by seed.
    """
    rng = random.Random(f"perfbench/mix/{seed}")
    unit = math.gcd(*(weight for _, weight in OP_MIX))
    block = [kind for kind, weight in OP_MIX for _ in range(weight // unit)]
    kinds: List[str] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def digest(texts) -> str:
    """A short fingerprint of generated inputs (self-test: seeds differ)."""
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()[:16]
