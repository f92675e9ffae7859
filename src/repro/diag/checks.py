"""The six interprocedural checks (ICP001–ICP006).

Each check is a pure function from a :class:`~repro.core.driver.PipelineResult`
(or, for the structural scan, just the parsed program) to a list of
:class:`~repro.diag.findings.Finding`.  They compute nothing of their own:
every fact comes from a pipeline artifact the paper's Figure 2 already
produced — USE sets, MOD/REF, alias pairs, the FS SCC solution, the PCG.

Two invariants every check obeys:

- messages carry **no line numbers** (the baseline fingerprints on the
  message text, so findings must survive line drift);
- array names never feed value-based rules (element stores and reads are
  may-effects on the whole array — the paper's stated limitation).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.liveness import dead_assignments, upward_exposed
from repro.diag.findings import RULES, Finding
from repro.ir.builder import build_cfg
from repro.ir.cfg import Branch, CFG, CallInstr
from repro.ir.ssa import instr_use_vars
from repro.lang import ast
from repro.lang.symbols import CallSite, ProcedureSymbols
from repro.summary.use import bound_call_uses

# Typing only; avoid a hard import cycle with the driver package.
PipelineResult = "repro.core.driver.PipelineResult"


def _call_uses_fn(result) -> Callable[[CallSite], Set[str]]:
    globals_set = frozenset(result.program.global_names)

    def call_uses(site: CallSite) -> Set[str]:
        return bound_call_uses(
            site, result.symbols, result.modref, result.use, globals_set
        )

    return call_uses


# ----------------------------------------------------------------------
# ICP001 — use before initialization through calls (program entry).
# ----------------------------------------------------------------------

def check_use_before_init(result) -> List[Finding]:
    """Variables the entry procedure may read before any path writes them.

    Upward-exposed uses of the entry procedure, computed with call read
    effects bound from USE summaries and — unlike the USE computation —
    call MOD sets credited as *kills*: a variable some call surely-or-maybe
    writes is given the benefit of the doubt, so only variables no path
    (through any call) initializes remain.  Formals of the entry procedure
    are caller-supplied, initialized globals are initialized, and arrays are
    exempt (element granularity is beyond the paper's model).
    """
    entry = result.pcg.entry
    proc_map = result.program.procedure_map()
    if entry not in proc_map or entry not in result.symbols:
        return []
    proc = proc_map[entry]
    symbols = result.symbols[entry]
    globals_set = frozenset(result.program.global_names)
    initialized = set(result.program.initial_globals())

    call_uses = _call_uses_fn(result)
    build = build_cfg(proc, symbols)
    exposed = upward_exposed(
        build.cfg, call_uses, call_kills=result.modref.callsite_mod
    )

    findings: List[Finding] = []
    for name in sorted(exposed):
        if name in symbols.formal_set or name in symbols.array_names:
            continue
        if name in globals_set and name in initialized:
            continue
        kind = "global" if name in globals_set else "local"
        stmt, via = _first_read(build.cfg, name, call_uses)
        if via:
            message = (
                f"{kind} '{name}' may be read (via the call to '{via}') "
                f"before any path from '{entry}' initializes it"
            )
        else:
            message = (
                f"{kind} '{name}' may be read before any path from "
                f"'{entry}' initializes it"
            )
        findings.append(
            Finding.at(
                RULES["ICP001"],
                message,
                proc=entry,
                pos=stmt.pos if stmt is not None else proc.pos,
            )
        )
    return findings


def _first_read(
    cfg: CFG, name: str, call_uses: Callable[[CallSite], Set[str]]
) -> Tuple[Optional[ast.Stmt], Optional[str]]:
    """First statement (in RPO, skipping block-local killed reads) reading
    ``name``; returns ``(stmt, callee-or-None)`` as a position hint."""
    for block_id in cfg.reachable_ids():
        block = cfg.blocks[block_id]
        killed = False
        for instr in block.instrs:
            if isinstance(instr, CallInstr):
                if name in call_uses(instr.site):
                    return instr.stmt, instr.site.callee
                if instr.target == name:
                    killed = True
            else:
                if name in instr_use_vars(instr):
                    return instr.stmt, None
                if getattr(instr, "target", None) == name:
                    killed = True
            if killed:
                break
        if killed:
            continue
        term = block.terminator
        if term is not None and name in instr_use_vars(term):
            return getattr(term, "stmt", None), None
    return None, None


# ----------------------------------------------------------------------
# ICP002 — Fortran argument-aliasing violations.
# ----------------------------------------------------------------------

def check_aliasing(result, proc: str) -> List[Finding]:
    """Aliased actuals (or a global actual) with a modified counterpart.

    Fortran leaves a call undefined when two dummy arguments are associated
    with the same datum (or a dummy with a visible global) and the callee
    stores through either.  Detected from the propagated alias pairs
    (``summary/alias``) and the alias-closed MOD sets (``summary/modref``).
    """
    if proc not in result.symbols:
        return []
    symbols = result.symbols[proc]
    globals_set = frozenset(result.program.global_names)
    aliases = result.aliases
    modref = result.modref
    rule = RULES["ICP002"]

    findings: List[Finding] = []
    for site in symbols.call_sites:
        callee = site.callee
        if callee not in result.symbols:
            continue
        formals = result.symbols[callee].formals
        if len(formals) != len(site.args):
            continue  # arity mismatch is ICP005's report
        bare = [
            (i, arg.name)
            for i, arg in enumerate(site.args)
            if isinstance(arg, ast.Var)
        ]
        pos = site.stmt.pos
        seen: Set[str] = set()

        # Two actuals naming (or may-aliasing) the same datum.
        for x in range(len(bare)):
            i, name_a = bare[x]
            for y in range(x + 1, len(bare)):
                j, name_b = bare[y]
                if name_a != name_b and not aliases.may_alias(proc, name_a, name_b):
                    continue
                modified = sorted(
                    {
                        formals[k]
                        for k in (i, j)
                        if modref.formal_modified(callee, formals[k])
                    }
                )
                if not modified:
                    continue
                what = (
                    f"'{name_a}' twice"
                    if name_a == name_b
                    else f"aliased '{name_a}' and '{name_b}'"
                )
                mods = " and ".join(f"'{f}'" for f in modified)
                noun = "formals" if len(modified) > 1 else "formal"
                message = (
                    f"call to '{callee}' passes {what} (arguments "
                    f"{i + 1} and {j + 1}) while '{callee}' may modify "
                    f"{noun} {mods}"
                )
                if message not in seen:
                    seen.add(message)
                    findings.append(
                        Finding.at(rule, message, proc=proc, pos=pos)
                    )

        # An actual aliasing a global the callee also touches.
        callee_visible = modref.mod_of(callee) | modref.ref_of(callee)
        for i, name in bare:
            global_partners = {
                g
                for g in aliases.partners(proc, name) | {name}
                if g in globals_set
            }
            for g in sorted(global_partners):
                if g not in callee_visible:
                    continue
                formal = formals[i]
                hazard = modref.formal_modified(callee, formal) or (
                    g in modref.mod_globals(callee)
                )
                if not hazard:
                    continue
                message = (
                    f"call to '{callee}' passes '{name}' (argument {i + 1}), "
                    f"which may alias global '{g}' that '{callee}' also "
                    f"accesses, and one of the pair may be modified"
                )
                if message not in seen:
                    seen.add(message)
                    findings.append(
                        Finding.at(rule, message, proc=proc, pos=pos)
                    )
    return findings


# ----------------------------------------------------------------------
# ICP003 — dead stores.
# ----------------------------------------------------------------------

def check_dead_stores(result, proc: str) -> List[Finding]:
    """Scalar assignments whose value no execution can read.

    Backward liveness at instruction granularity; call read effects come
    from the interprocedural USE summaries, formals and globals stay live
    at exits of non-entry procedures (callers may observe them through
    reference binding), and alias partners keep a store live.
    """
    proc_map = result.program.procedure_map()
    if proc not in proc_map or proc not in result.symbols:
        return []
    symbols = result.symbols[proc]
    globals_set = frozenset(result.program.global_names)
    build = build_cfg(proc_map[proc], symbols)

    if proc == result.pcg.entry:
        exit_live: Set[str] = set()
    else:
        exit_live = set(symbols.formals) | set(globals_set)

    def partners(name: str) -> Set[str]:
        return result.aliases.partners(proc, name)

    dead = dead_assignments(build.cfg, _call_uses_fn(result), exit_live, partners)
    rule = RULES["ICP003"]
    findings: List[Finding] = []
    for instr in dead:
        findings.append(
            Finding.at(
                rule,
                f"value assigned to '{instr.target}' is never read",
                proc=proc,
                pos=instr.stmt.pos if instr.stmt is not None else None,
            )
        )
    return findings


# ----------------------------------------------------------------------
# ICP004 — unreachable code / decided branches under propagated constants.
# ----------------------------------------------------------------------

def check_reachability(result, proc: str) -> List[Finding]:
    """Blocks the FS SCC solution never reached, branches it decided.

    Reads ``reached_blocks``/``executable_edges`` straight from the SCC
    engine detail — the paper's Figure 1 precision surfaced as a lint.  The
    simple engine records no detail; the check then reports nothing for the
    procedure rather than guessing.
    """
    intra = result.fs.intra.get(proc)
    if intra is None or proc not in result.fs.fs_reachable:
        return []
    detail = intra.detail
    if detail is None or not hasattr(detail, "reached_blocks"):
        return []
    cfg: CFG = detail.build.cfg
    current = result.program.procedure_map().get(proc)
    if current is not None and detail.build.proc is not current:
        # The solution was reused from an equal-text copy of the procedure
        # at another place (a session's clean copy or a cache hit): same
        # blocks, old positions.  Positions come from the current text.
        cfg = build_cfg(current, result.symbols[proc]).cfg
    reached: Set[int] = detail.reached_blocks
    edges = detail.executable_edges
    rule = RULES["ICP004"]
    findings: List[Finding] = []

    cfg_reachable = cfg.reachable_ids()
    seen_positions: Set[Tuple[int, int]] = set()

    def report(message: str, pos) -> None:
        if pos is not None:
            key = (pos.line, pos.column)
            if key in seen_positions:
                return
            seen_positions.add(key)
        findings.append(Finding.at(rule, message, proc=proc, pos=pos))

    # Structurally dead code (no control-flow path; e.g. after a return).
    reachable_set = set(cfg_reachable)
    for block in cfg.blocks:
        if block.id in reachable_set:
            continue
        pos = _block_pos(block)
        if pos is not None:
            report(
                "statement is unreachable (no control-flow path from "
                "procedure entry)",
                pos,
            )

    # Blocks the constant propagator proved dead.
    for block_id in cfg_reachable:
        if block_id in reached:
            continue
        pos = _block_pos(cfg.blocks[block_id])
        if pos is not None:
            report(
                "statement is unreachable under interprocedurally "
                "propagated constants",
                pos,
            )

    # Reached two-way branches with exactly one executable outgoing edge.
    for block_id in sorted(reached):
        if block_id >= len(cfg.blocks):
            continue
        term = cfg.blocks[block_id].terminator
        if not isinstance(term, Branch) or term.true_target == term.false_target:
            continue
        true_on = (block_id, term.true_target) in edges
        false_on = (block_id, term.false_target) in edges
        if true_on == false_on:
            continue
        direction = "true" if true_on else "false"
        stmt = getattr(term, "stmt", None)
        report(
            f"branch condition is always {direction} under "
            "interprocedurally propagated constants",
            stmt.pos if stmt is not None else None,
        )
    return findings


def _block_pos(block):
    """Source position of a block's first positioned instruction, if any."""
    for instr in block.instrs:
        stmt = getattr(instr, "stmt", None)
        if stmt is not None and stmt.pos is not None:
            return stmt.pos
    stmt = getattr(block.terminator, "stmt", None)
    return stmt.pos if stmt is not None else None


def check_dead_procedures(result) -> List[Finding]:
    """Program-level ICP004: whole procedures no execution can enter."""
    rule = RULES["ICP004"]
    findings: List[Finding] = []
    in_pcg = set(result.pcg.nodes)
    for proc in result.program.procedures:
        if proc.name in in_pcg:
            continue
        findings.append(
            Finding.at(
                rule,
                f"procedure '{proc.name}' is never called from "
                f"'{result.pcg.entry}'",
                proc=proc.name,
                pos=proc.pos,
                severity="note",
            )
        )
    for name in sorted(in_pcg - set(result.fs.fs_reachable)):
        proc = result.program.procedure_map().get(name)
        findings.append(
            Finding.at(
                rule,
                f"procedure '{name}' is unreachable: every call path to it "
                "is dead under interprocedurally propagated constants",
                proc=name,
                pos=proc.pos if proc is not None else None,
            )
        )
    return findings


# ----------------------------------------------------------------------
# ICP005 — call-site signature mismatches (structural pre-scan).
# ----------------------------------------------------------------------

def check_call_signatures(
    program: ast.Program,
    symbols: Dict[str, ProcedureSymbols],
    allow_missing: bool = False,
) -> List[Finding]:
    """Arity, value-position, undefined-callee, and kind mismatches.

    This is a *structural* scan over the raw program: the validator rejects
    the error-severity cases before the pipeline runs, so `check` runs this
    first and can lint programs the pipeline refuses.  Array/scalar kind
    mismatches pass validation (bare-variable arguments are usage-exempt
    there) and surface only here, as warnings.
    """
    rule = RULES["ICP005"]
    proc_map = program.procedure_map()
    findings: List[Finding] = []
    for proc in program.procedures:
        proc_symbols = symbols.get(proc.name)
        if proc_symbols is None:
            continue
        for site in proc_symbols.call_sites:
            pos = site.stmt.pos
            callee = site.callee
            if callee not in proc_map:
                findings.append(
                    Finding.at(
                        rule,
                        f"call to undefined procedure '{callee}'",
                        proc=proc.name,
                        pos=pos,
                        severity="warning" if allow_missing else "error",
                    )
                )
                continue
            callee_symbols = symbols[callee]
            formals = proc_map[callee].formals
            if len(site.args) != len(formals):
                findings.append(
                    Finding.at(
                        rule,
                        f"call to '{callee}' passes {len(site.args)} "
                        f"argument(s) but '{callee}' declares "
                        f"{len(formals)} formal(s)",
                        proc=proc.name,
                        pos=pos,
                    )
                )
                continue
            if site.is_value_call and not callee_symbols.has_value_return:
                findings.append(
                    Finding.at(
                        rule,
                        f"'{callee}' is called in value position but never "
                        "returns a value",
                        proc=proc.name,
                        pos=pos,
                    )
                )
            for i, arg in enumerate(site.args):
                formal = formals[i]
                formal_array = formal in callee_symbols.array_names
                formal_scalar = formal in callee_symbols.scalar_names
                if isinstance(arg, ast.Var):
                    arg_array = arg.name in proc_symbols.array_names
                    arg_scalar = arg.name in proc_symbols.scalar_names
                    if arg_array and not arg_scalar and formal_scalar and not formal_array:
                        mismatch = (
                            f"passes array '{arg.name}' to formal "
                            f"'{formal}', which '{callee}' uses as a scalar"
                        )
                    elif arg_scalar and not arg_array and formal_array and not formal_scalar:
                        mismatch = (
                            f"passes scalar '{arg.name}' to formal "
                            f"'{formal}', which '{callee}' uses as an array"
                        )
                    else:
                        continue
                elif formal_array and not formal_scalar:
                    mismatch = (
                        f"passes a scalar expression to formal '{formal}', "
                        f"which '{callee}' uses as an array"
                    )
                else:
                    continue
                findings.append(
                    Finding.at(
                        rule,
                        f"argument {i + 1} of the call to '{callee}' {mismatch}",
                        proc=proc.name,
                        pos=pos,
                        severity="warning",
                    )
                )
    return findings


def has_fatal_signature_errors(findings: List[Finding]) -> bool:
    """True when the structural scan found something the validator rejects
    (the pipeline cannot run on this program)."""
    return any(
        f.rule_id == "ICP005" and f.severity == "error" for f in findings
    )


# ----------------------------------------------------------------------
# ICP006 — recursion-fallback precision warnings.
# ----------------------------------------------------------------------

def check_fallback_precision(result) -> List[Finding]:
    """Call edges where the FS solution substituted the FI fallback.

    The edges come from the FS solution itself (``result.fs.fallback_edges``)
    rather than the PCG's structural back edges: under the default
    carini-hind traversal the two sets coincide (every back edge forces the
    paper's Section 3.2 fallback), while under ``context_mode =
    "value-contexts"`` only the edges the blowup guard degraded remain —
    edges the tabulation resolved carry genuine per-context entry facts and
    report nothing.

    The message names the *full recursion cycle* (sorted member
    procedures), not just the one fallback edge, so a finding's fingerprint
    is stable when the same cycle is entered from a different edge.
    """
    rule = RULES["ICP006"]
    scc_of: Dict[str, List[str]] = {}
    for component in result.pcg.sccs:
        for name in component:
            scc_of[name] = component
    self_recursive = {
        edge.callee for edge in result.pcg.edges if edge.caller == edge.callee
    }
    findings: List[Finding] = []
    ordered = sorted(
        result.fs.fallback_edges,
        key=lambda edge: (edge.caller, edge.site.index),
    )
    for edge in ordered:
        component = scc_of.get(edge.callee, [edge.callee])
        if len(component) > 1 or edge.callee in self_recursive:
            cycle = "recursion cycle through " + ", ".join(
                f"'{name}'" for name in sorted(component)
            )
        else:
            cycle = "back edge in the traversal order"
        findings.append(
            Finding.at(
                rule,
                f"call to '{edge.callee}' uses the flow-insensitive "
                f"fallback ({cycle}): entry facts for '{edge.callee}' on "
                "this path are the FI solution",
                proc=edge.caller,
                pos=edge.site.stmt.pos,
            )
        )
    return findings
