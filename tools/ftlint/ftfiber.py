"""ftfiber — fiber-readiness analysis layer for ftlint (FTL008-FTL010).

The top ROADMAP item is scaling the simulated runtime from thread-per-rank
to cooperatively-scheduled tasks (fibers).  That refactor is blocked by
thread-coupled state: code that blocks an OS thread outside a scheduler
yield point, `thread_local` storage that is per-rank only because each rank
owns a thread today, and shared globals that are safe only because OS
threads happen to serialize them.  This layer answers all three questions
statically, reusing ftmodel's recipe — per-function effect summaries
stitched through the name-based call graph — and feeds the
`--report=fiber` inventory the scheduler PR will consume:

  FTL008  blocking/yield discipline: a blocking primitive
          (`condition_variable::wait`/`wait_for`/`wait_until`,
          `sleep_for`, ...) may appear only inside a function marked
          FTR_YIELD — the designated suspension points (the mailbox wait
          loops, `detail::charge`).  A function is *may-yield* when it is
          FTR_YIELD, blocks directly, or transitively calls a may-yield
          function; holding a mutex guard across a may-yield call or a
          blocking primitive is a fiber deadlock (the suspended fiber keeps
          the lock; every rank sharing the worker thread stalls on it) —
          unless the guard is handed to the wait itself (the
          `cv.wait(lock)` idiom).
  FTL009  thread affinity: every `thread_local` reachable from rank
          context must be registered in the per-rank-storage registry via
          FTR_PER_RANK("<migration note>") directly above/on the
          declaration line.  The note is mandatory — the registry doubles
          as the fiber refactor's migration worklist.
  FTL010  shared mutable state: a namespace-scope mutable global (not
          const/constexpr, not an atomic, not itself a synchronization
          primitive) written from rank-reachable code without a lock guard
          held is flagged.  Today the write is serialized by accident of
          OS-thread scheduling or by virtual-clock ordering; under fibers
          neither holds by construction.  Justified virtual-clock
          serialization is exactly what an `ftlint:allow(FTL010 ...)`
          records — and what the vtsan runtime cross-check
          (`FTR_CHECK=vtsan`, src/ftmpi/vtsan.hpp) validates
          dynamically.

Approximations, stated: "reachable from rank context" is over-approximated
as *all linted code* — off-rank code (the driver thread, the real-time
async injector) carries justified suppressions, which is intentional: those
allows are the migration worklist.  The call graph is name-based and misses
member calls, like FTL003's.  Both directions are cross-checked at runtime
by vtsan's virtual-time happens-before tracker.
"""

from __future__ import annotations

import dataclasses
import re

import ftlint_lex
from ftlint_lex import Finding, SourceFile, _is_name
from ftmodel import _call_at

# Blocking primitives.  Member waits only count as members (`.wait(`): the
# free function ftmpi::wait(Request*) is a normal API call, not a primitive.
_MEMBER_WAITS = {"wait", "wait_for", "wait_until"}
_FREE_BLOCKERS = {"sleep_for", "sleep_until", "usleep", "nanosleep"}

# RAII mutex guards the held-across-yield tracking recognizes, plus the
# member calls that toggle a unique_lock's held state.
_GUARD_TYPES = {"lock_guard", "scoped_lock", "unique_lock", "shared_lock"}

# Member calls that mutate their object (write classification for FTL010).
_MUTATORS = {
    "insert", "erase", "push_back", "pop_back", "emplace", "emplace_back",
    "clear", "resize", "assign", "push", "pop", "store", "exchange",
    "fetch_add", "fetch_sub", "reset",
}

# Types that ARE synchronization: a global of one of these is the lock, not
# the state it protects.
_SYNC_TYPES = {
    "mutex", "recursive_mutex", "shared_mutex", "timed_mutex",
    "recursive_timed_mutex", "condition_variable", "condition_variable_any",
    "once_flag", "counting_semaphore", "binary_semaphore", "barrier", "latch",
}

# Statement keywords that disqualify a namespace-scope statement from being
# a mutable-global declaration.
_GLOBAL_SKIP_KW = {
    "const", "constexpr", "constinit", "consteval", "using", "typedef",
    "friend", "static_assert", "template", "operator", "thread_local",
    "extern", "namespace", "struct", "class", "union", "enum", "return",
    "goto", "asm",
}

# The FTR_PER_RANK note is a string literal, which the tokenizer drops, so
# FTL009 reads it back from the raw source lines kept on SourceFile.
_PER_RANK_RE = re.compile(r'FTR_PER_RANK\s*\(\s*"([^"]*)"\s*\)')
_PER_RANK_ANY_RE = re.compile(r"FTR_PER_RANK")


@dataclasses.dataclass
class _Global:
    name: str
    path: str
    line: int
    kind: str  # "plain" | "atomic" | "sync"
    readers: set = dataclasses.field(default_factory=set)
    writers: set = dataclasses.field(default_factory=set)
    guarded_writes: list = dataclasses.field(default_factory=list)
    lockfree_writes: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class _ThreadLocal:
    name: str
    path: str
    line: int
    has_marker: bool
    note: str


def _blocking_at(sf: SourceFile, i: int) -> str | None:
    """Primitive name if tokens[i] opens a blocking call, else None."""
    toks = sf.tokens
    t = toks[i].text
    if i + 1 >= len(toks) or toks[i + 1].text != "(":
        return None
    prev = toks[i - 1].text if i > 0 else None
    if t in _MEMBER_WAITS and prev in (".", "->"):
        return t
    if t in _FREE_BLOCKERS:
        return t
    return None


def _args_mention(sf: SourceFile, name_idx: int, names) -> bool:
    """True when the call at name_idx passes any of `names` as an argument
    (the `cv.wait(lock)` hand-off that releases the guard while suspended)."""
    toks = sf.tokens
    if name_idx + 1 >= len(toks) or toks[name_idx + 1].text != "(":
        return False
    close = sf.match_paren(name_idx + 1)
    return any(toks[k].text in names for k in range(name_idx + 2, close))


class _GuardTracker:
    """Brace-scoped RAII guard state for one function body.  Feed it every
    token index in order; `held()` is the list of currently-held guard
    variables.  unique_lock's `.unlock()`/`.lock()` toggling is modelled."""

    def __init__(self, sf: SourceFile):
        self.sf = sf
        self.depth = 0
        self.guards: list[list] = []  # [name, decl_depth, active]

    def step(self, i: int) -> int:
        """Process token i; returns the next index to visit (past the guard
        declaration when one starts here, i + 1 otherwise)."""
        toks = self.sf.tokens
        t = toks[i].text
        if t == "{":
            self.depth += 1
        elif t == "}":
            self.depth -= 1
            self.guards = [g for g in self.guards if g[1] <= self.depth]
        elif t in _GUARD_TYPES:
            k = i + 1
            if k < len(toks) and toks[k].text == "<":
                ang = 0
                while k < len(toks):
                    if toks[k].text == "<":
                        ang += 1
                    elif toks[k].text == ">":
                        ang -= 1
                        if ang == 0:
                            k += 1
                            break
                    elif toks[k].text in (";", "{"):
                        break
                    k += 1
            if (k + 1 < len(toks) and _is_name(toks[k].text)
                    and toks[k + 1].text == "("):
                self.guards.append([toks[k].text, self.depth, True])
                return self.sf.match_paren(k + 1) + 1
        elif (_is_name(t) and i + 3 < len(toks) and toks[i + 1].text == "."
              and toks[i + 2].text in ("unlock", "lock")
              and toks[i + 3].text == "("):
            for g in self.guards:
                if g[0] == t:
                    g[2] = toks[i + 2].text == "lock"
        return i + 1

    def held(self) -> list[str]:
        return [g[0] for g in self.guards if g[2]]


class FiberModel:
    """FTL008-010 effect summaries and findings over the engine's sources."""

    _ROUNDS = 16

    def __init__(self, engine: "ftlint_lex.Engine"):
        self.engine = engine
        self.functions: list[tuple[str, SourceFile, int, int]] = []
        for sf in engine.sources:
            for name, _ni, b0, b1 in ftlint_lex._iter_functions(sf):
                self.functions.append((name, sf, b0, b1))

        # Pre-scan: direct blocking primitives + the name-based call graph.
        self.direct_block: dict[str, str] = {}
        self.calls: dict[str, set[str]] = {}
        for fn, sf, b0, b1 in self.functions:
            callees = self.calls.setdefault(fn, set())
            for i in range(b0, b1):
                prim = _blocking_at(sf, i)
                if prim is not None:
                    self.direct_block.setdefault(fn, prim)
                callee = _call_at(sf, i)
                if callee is not None and callee != fn:
                    callees.add(callee)

        # may-yield fixed point, with a why-chain for diagnostics.
        self.why: dict[str, str] = {}
        for fn in engine.yield_fns:
            self.why[fn] = "FTR_YIELD"
        for fn, prim in self.direct_block.items():
            self.why.setdefault(fn, f"`{prim}`")
        changed, rounds = True, 0
        while changed and rounds < self._ROUNDS:
            changed, rounds = False, rounds + 1
            for fn, callees in self.calls.items():
                if fn in self.why:
                    continue
                for c in sorted(callees):
                    if c in self.why:
                        self.why[fn] = f"{c} -> {self.why[c]}"
                        changed = True
                        break
        self.may_yield = set(self.why)

        # Registries: namespace-scope mutable globals + thread_local sites.
        self.globals: dict[str, _Global] = {}
        self.thread_locals: list[_ThreadLocal] = []
        for sf in engine.sources:
            self._scan_globals(sf)
            self._scan_thread_locals(sf)

        # Main pass: findings + per-function read/write effects + the
        # blocking-site inventory for the fiber report.
        self.findings: list[Finding] = []
        self.blocking: list[dict] = []
        self.reads: dict[str, set[str]] = {}
        self.writes: dict[str, set[str]] = {}
        for fn, sf, b0, b1 in self.functions:
            self._scan_body(fn, sf, b0, b1)
        self._check_thread_locals()
        # Transitive effects (report only): callers inherit callee effects.
        for _ in range(4):
            changed = False
            for fn, callees in self.calls.items():
                for c in callees:
                    for eff in (self.reads, self.writes):
                        add = eff.get(c, set()) - eff.get(fn, set())
                        if add:
                            eff.setdefault(fn, set()).update(add)
                            changed = True
            if not changed:
                break

    # -- registries ----------------------------------------------------------
    def _match_brace(self, sf: SourceFile, open_idx: int) -> int:
        depth = 0
        toks = sf.tokens
        for k in range(open_idx, len(toks)):
            if toks[k].text == "{":
                depth += 1
            elif toks[k].text == "}":
                depth -= 1
                if depth == 0:
                    return k
        return len(toks) - 1

    def _scan_globals(self, sf: SourceFile) -> None:
        """Collect namespace-scope mutable variable declarations: statements
        outside every function body and class/enum body.  Namespaces (and
        `extern "C"` blocks) are transparent; a `{` inside a declaration is
        a brace initializer and is skipped; anything containing a `(` is a
        function declaration/definition, not a variable."""
        toks = sf.tokens
        body_end = {b0: b1 for _n, _ni, b0, b1 in ftlint_lex._iter_functions(sf)}
        stmt: list = []
        i, n = 0, len(toks)
        while i < n:
            if i in body_end:
                stmt = []
                i = body_end[i] + 1
                continue
            t = toks[i].text
            if t == "{":
                first = stmt[0].text if stmt else None
                if first in ("namespace", "extern") or not stmt:
                    stmt = []
                    i += 1
                    continue
                close = self._match_brace(sf, i)
                if any(tok.text in ("struct", "class", "union", "enum")
                       for tok in stmt):
                    # Class/enum body: skip it and its trailing declarator.
                    stmt = []
                    i = close + 1
                    while i < n and toks[i].text not in (";", "{", "}"):
                        i += 1
                    i += 1 if i < n and toks[i].text == ";" else 0
                    continue
                i = close + 1  # brace initializer: stays in this statement
                continue
            if t == "}":
                stmt = []
                i += 1
                continue
            if t == ";":
                self._global_from_stmt(sf, stmt)
                stmt = []
                i += 1
                continue
            stmt.append(toks[i])
            i += 1

    def _global_from_stmt(self, sf: SourceFile, stmt: list) -> None:
        texts = [t.text for t in stmt]
        # Disqualifying keywords only count at angle-bracket depth 0: a
        # `const` inside a template argument (std::map<const void*, ...>)
        # does not make the declared variable immutable.
        top, ang = [], 0
        for t in texts:
            if t == "<":
                ang += 1
            elif t == ">":
                ang = max(0, ang - 1)
            elif ang == 0:
                top.append(t)
        if not stmt or "(" in texts or _GLOBAL_SKIP_KW & set(top):
            return
        if sum(1 for t in top if _is_name(t)) < 2:
            return  # need at least a type token and a name
        k = len(stmt) - 1
        if "=" in texts:
            k = texts.index("=") - 1
        while k >= 0 and stmt[k].text == "]":  # strip array extents
            depth = 0
            while k >= 0:
                if stmt[k].text == "]":
                    depth += 1
                elif stmt[k].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
        while k >= 0 and not _is_name(stmt[k].text):
            k -= 1
        if k <= 0:
            return  # no type token to the left: not a declaration
        name = stmt[k].text
        kind = "plain"
        if any(t in ("atomic", "atomic_flag", "atomic_bool", "atomic_int")
               for t in texts):
            kind = "atomic"
        elif _SYNC_TYPES & set(texts):
            kind = "sync"
        self.globals.setdefault(
            name, _Global(name, sf.path, stmt[k].line, kind))

    def _scan_thread_locals(self, sf: SourceFile) -> None:
        toks = sf.tokens
        for i, tok in enumerate(toks):
            if tok.text != "thread_local":
                continue
            # Variable name: token before the initializer/terminator,
            # stepping back over array extents.
            k, end = i + 1, min(i + 40, len(toks))
            while k < end and toks[k].text not in (";", "=", "{"):
                k += 1
            j = k - 1
            while j > i and toks[j].text == "]":
                depth = 0
                while j > i:
                    if toks[j].text == "]":
                        depth += 1
                    elif toks[j].text == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                j -= 1
            while j > i and not _is_name(toks[j].text):
                j -= 1
            name = toks[j].text if j > i else "<unknown>"
            # The registry marker lives on the declaration line or up to two
            # lines above it (raw text: the note string is not a token).
            line = tok.line
            has_marker, note = False, ""
            for ln in range(max(1, line - 2), line + 1):
                raw = sf.lines[ln - 1] if ln - 1 < len(sf.lines) else ""
                if _PER_RANK_ANY_RE.search(raw):
                    has_marker = True
                    m = _PER_RANK_RE.search(raw)
                    if m:
                        note = m.group(1).strip()
            self.thread_locals.append(
                _ThreadLocal(name, sf.path, line, has_marker, note))

    # -- findings ------------------------------------------------------------
    def _emit(self, sf: SourceFile, rule: str, line: int, msg: str) -> None:
        if not self.engine._suppressed(sf, rule, line):
            self.findings.append(Finding(sf.path, line, rule, msg))

    def _access_kind(self, sf: SourceFile, i: int) -> str:
        """'w' when the registry-global at token i is written, else 'r'."""
        toks = sf.tokens

        def at(k):
            return toks[k].text if 0 <= k < len(toks) else None

        nxt, nx2 = at(i + 1), at(i + 2)
        if nxt == "=" and nx2 != "=":
            return "w"
        if nxt in ("+", "-", "*", "/", "%", "&", "|", "^") and nx2 == "=":
            return "w"
        if (nxt, nx2) in (("+", "+"), ("-", "-")):
            return "w"
        if (at(i - 1), at(i - 2)) in (("+", "+"), ("-", "-")):
            return "w"
        if nxt in (".", "->") and nx2 in _MUTATORS and at(i + 3) == "(":
            return "w"
        if nxt == "[":
            return "w"  # map/array element access: operator[] may insert
        return "r"

    def _scan_body(self, fn: str, sf: SourceFile, b0: int, b1: int) -> None:
        toks = sf.tokens
        tracker = _GuardTracker(sf)
        sanctioned = fn in self.engine.yield_fns
        i = b0 + 1
        while i < b1:
            nxt_i = tracker.step(i)
            if nxt_i > i + 1:  # consumed a guard declaration
                i = nxt_i
                continue
            line = toks[i].line

            prim = _blocking_at(sf, i)
            if prim is not None:
                held = tracker.held()
                self.blocking.append({
                    "function": fn, "file": sf.path, "line": line,
                    "primitive": prim, "sanctioned": sanctioned})
                if not sanctioned:
                    self._emit(
                        sf, "FTL008", line,
                        f"`{fn}` blocks on `{prim}` but is not a designated "
                        "yield point; under the fiber scheduler this parks "
                        "the whole worker thread — route the wait through an "
                        "FTR_YIELD wait loop (or detail::charge), or mark "
                        "the function FTR_YIELD")
                if held and not _args_mention(sf, i, set(held)):
                    self._emit(
                        sf, "FTL008", line,
                        f"`{held[-1]}` is held across the blocking `{prim}`; "
                        "a fiber suspending here keeps the mutex locked and "
                        "deadlocks every rank sharing its worker thread — "
                        "release the guard first or hand it to the wait")
                i += 1
                continue

            callee = _call_at(sf, i)
            if callee is not None and callee != fn and callee in self.may_yield:
                held = tracker.held()
                if held and not _args_mention(sf, i, set(held)):
                    self._emit(
                        sf, "FTL008", line,
                        f"`{held[-1]}` is held across the call to `{callee}`,"
                        f" which may suspend ({self.why[callee]}); a fiber "
                        "parking inside it keeps the mutex locked — fiber "
                        "deadlock")

            t = toks[i].text
            g = self.globals.get(t)
            if (g is not None and _is_name(t)
                    and (i == 0 or toks[i - 1].text not in (".", "->", "::"))):
                kind = self._access_kind(sf, i)
                if kind == "w":
                    g.writers.add(fn)
                    self.writes.setdefault(fn, set()).add(t)
                    if tracker.held():
                        g.guarded_writes.append((sf.path, line))
                    else:
                        g.lockfree_writes.append((sf.path, line))
                        if g.kind == "plain":
                            self._emit(
                                sf, "FTL010", line,
                                f"runtime-global `{t}` is written without a "
                                "lock held; today OS-thread scheduling "
                                "serializes this, under fibers nothing does "
                                "— guard it, make it atomic, or justify "
                                "virtual-clock serialization with "
                                "ftlint:allow(FTL010 ...)")
                else:
                    g.readers.add(fn)
                    self.reads.setdefault(fn, set()).add(t)
            i += 1

    def _check_thread_locals(self) -> None:
        by_path = {sf.path: sf for sf in self.engine.sources}
        for tl in self.thread_locals:
            sf = by_path[tl.path]
            if not tl.has_marker:
                self._emit(
                    sf, "FTL009", tl.line,
                    f"`thread_local` `{tl.name}` is per-rank state only "
                    "while each rank owns an OS thread; under fibers ranks "
                    "share threads and this storage cross-talks — register "
                    'it with FTR_PER_RANK("<migration note>") or move it '
                    "onto ProcessState")
            elif not tl.note:
                self._emit(
                    sf, "FTL009", tl.line,
                    f"FTR_PER_RANK on `{tl.name}` carries no migration "
                    "note; the registry doubles as the fiber-refactor "
                    "worklist, so an empty note registers nothing")

    # -- report --------------------------------------------------------------
    def report(self) -> dict:
        """The blocking/affinity/shared-state map for `--report=fiber`."""
        yield_points = sorted(self.engine.yield_fns)
        suppressions = []
        for sf in self.engine.sources:
            for sup in sf.suppressions:
                if sup.rule in ("FTL008", "FTL009", "FTL010") and sup.reason:
                    suppressions.append({
                        "rule": sup.rule, "file": sf.path, "line": sup.line,
                        "reason": sup.reason})
        return {
            "schema": 1,
            "yield_points": yield_points,
            "blocking_sites": sorted(
                self.blocking,
                key=lambda b: (b["file"], b["line"])),
            "may_yield": {fn: self.why[fn] for fn in sorted(self.may_yield)},
            "per_rank_storage": [
                {"name": t.name, "file": t.path, "line": t.line,
                 "registered": t.has_marker and bool(t.note), "note": t.note}
                for t in sorted(self.thread_locals,
                                key=lambda t: (t.path, t.line))],
            "shared_state": [
                {"name": g.name, "file": g.path, "line": g.line,
                 "kind": g.kind,
                 "readers": sorted(g.readers), "writers": sorted(g.writers),
                 "guarded_writes": [
                     {"file": p, "line": l} for p, l in g.guarded_writes],
                 "lockfree_writes": [
                     {"file": p, "line": l} for p, l in g.lockfree_writes]}
                for g in sorted(self.globals.values(),
                                key=lambda g: (g.path, g.line))],
            "migration_worklist": sorted(
                suppressions, key=lambda s: (s["file"], s["line"])),
        }


def build_and_check(engine: "ftlint_lex.Engine",
                    rules: set[str]) -> list[Finding]:
    """Entry point used by ftlint_lex.Engine.run."""
    model = FiberModel(engine)
    return [f for f in model.findings if f.rule in rules]


def fiber_report(engine: "ftlint_lex.Engine") -> dict:
    """Entry point used by ftlint.py --report=fiber."""
    return FiberModel(engine).report()
