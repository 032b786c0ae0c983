"""ftmodel — interprocedural effect-summary layer for ftlint (FTL005/FTL006).

Where ftlint_lex's FTL001-FTL004 are single-site rules, this layer extracts a
per-function *effect summary* from the token stream — the ftmpi collective
calls a function (transitively) performs, and what it does to each Comm-typed
parameter (revoke / free / unsanctioned use) — and stitches the summaries
through the same name-based call graph FTL003 walks.  Two whole-call-chain
rules are enforced on top:

  FTL005  collective matching: a collective (`agree`/`bcast`/`allreduce`/
          `barrier`/`scatter`/... or any local function that transitively
          reaches one) that executes only under a rank-dependent branch,
          while the other ranks take a collective-free path, deadlocks the
          ranks that did enter the collective.  Both guard shapes are
          modelled: `if (rank-cond) { ...collective... }` with a
          collective-free else/fall-through, and the early-exit idiom
          `if (rank-cond) return;` followed by collectives the exiting
          ranks never reach.
  FTL006  communicator lifecycle: each handle moves created -> active ->
          revoked -> freed.  After a revoke (direct, or via a callee whose
          summary revokes that parameter) only the sanctioned salvage and
          repair operations (`comm_shrink`/`comm_agree`/`comm_free`/
          `iprobe_buffered`/`recv_buffered`/failure-ack) may touch the
          handle; `comm_free` twice on the same handle is a double-free; a
          handle populated by a creator (`comm_split`/`comm_dup`/
          `comm_shrink`/`comm_spawn_multiple`/`intercomm_merge`) must leave
          the function with an owner — freed, guard-scoped, returned,
          stored, or handed to another function.

The analysis is deliberately path-insensitive except for one idiom the
repair protocol uses everywhere: a revoke/free inside a conditional block
that exits (`return`/`break`/`continue`/`throw`/abort) before the block
closes is confined to that block — the fall-through path still holds an
active handle.  A braceless conditional jump (`if (c) return f(h);`) is
the same idiom without the braces.  A conditional revoke that *falls
through* poisons the rest of the function (any later unsanctioned use may
run on a revoked comm).
"""

from __future__ import annotations

import dataclasses

import ftlint_lex
from ftlint_lex import Finding, SourceFile, _is_name

# -- registries (names mirror src/ftmpi/api.hpp + mpi_compat.hpp) -----------

#: Operations in which every rank of the communicator must participate.
COLLECTIVES = {
    "barrier", "bcast", "bcast_bytes", "gather", "gather_bytes", "gatherv",
    "reduce", "allreduce", "scatter", "scatter_bytes", "scatterv_bytes",
    "comm_agree", "comm_shrink", "comm_split", "comm_dup",
    "comm_spawn_multiple", "intercomm_merge",
    "MPI_Barrier", "MPI_Bcast", "MPI_Allreduce", "MPI_Gather", "MPI_Gatherv",
    "MPI_Scatter", "MPI_Comm_split", "MPI_Comm_dup",
    "MPI_Comm_spawn_multiple", "MPI_Intercomm_merge",
    "OMPI_Comm_agree", "OMPI_Comm_shrink",
}

#: Operations that are legal on a revoked communicator: the ULFM repair set
#: plus the buffered salvage paths (PR 2) and pure local accessors.
SANCTIONED = {
    "comm_revoke", "comm_shrink", "comm_agree", "comm_free",
    "comm_failure_ack", "comm_failure_get_acked", "comm_set_errhandler",
    "iprobe_buffered", "recv_buffered", "finish", "error_string",
    "set_parent",
    "OMPI_Comm_revoke", "OMPI_Comm_shrink", "OMPI_Comm_agree",
    "OMPI_Comm_failure_ack", "OMPI_Comm_failure_get_acked",
    "MPI_Comm_free", "MPI_Comm_rank", "MPI_Comm_size", "MPI_Comm_group",
    "MPI_Comm_set_errhandler", "MPI_Error_string",
}

#: Non-sanctioned communicator operations: using a revoked/freed handle in
#: any of these is an FTL006 finding.
COMM_OPS = {
    "send", "recv", "send_bytes", "recv_bytes", "isend", "irecv",
    "sendrecv_bytes", "iprobe", "probe",
    "MPI_Send", "MPI_Recv", "MPI_Isend", "MPI_Irecv", "MPI_Sendrecv",
    "MPI_Iprobe", "MPI_Probe",
} | COLLECTIVES

REVOKERS = {"comm_revoke", "OMPI_Comm_revoke"}
FREERS = {"comm_free", "MPI_Comm_free"}

#: Out-parameter creators: `&h` passed here puts `h` in the `created` state,
#: which demands an owner before the function ends.
CREATORS = {
    "comm_split", "comm_dup", "comm_shrink", "comm_spawn_multiple",
    "intercomm_merge",
    "MPI_Comm_split", "MPI_Comm_dup", "OMPI_Comm_shrink",
    "MPI_Comm_spawn_multiple", "MPI_Intercomm_merge",
}

#: RAII owners: handing `&h` to one of these counts as ownership.
GUARDS = {"CommGuard"}

_COMM_TYPES = {"Comm", "MPI_Comm"}
_JUMPS = {"return", "break", "continue", "throw", "goto"}


def _rank_dependent(tokens) -> bool:
    """A condition is rank-dependent when any identifier in it names a rank
    (`rank`, `wrank`, `new_rank`, a `.rank()` member call, ...)."""
    return any(_is_name(t.text) and "rank" in t.text.lower() for t in tokens)


def _chain_at(toks, i: int) -> tuple[str, int]:
    """Parse a dotted handle expression `a.b->c` starting at identifier i;
    return (normalized "a.b.c", index just past the chain)."""
    parts = [toks[i].text]
    k = i + 1
    while (k + 1 < len(toks) and toks[k].text in (".", "->")
           and _is_name(toks[k + 1].text)):
        parts.append(toks[k + 1].text)
        k += 2
    return ".".join(parts), k


def _arg_segments(sf: SourceFile, open_idx: int) -> list[tuple[int, int]]:
    """Token ranges [start, end) of the top-level arguments of the call whose
    `(` is at open_idx."""
    toks = sf.tokens
    close = sf.match_paren(open_idx)
    segs, depth, start = [], 0, open_idx + 1
    for k in range(open_idx + 1, close):
        t = toks[k].text
        if t in ("(", "[", "{"):
            depth += 1
        elif t in (")", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            segs.append((start, k))
            start = k + 1
    if close > open_idx + 1:
        segs.append((start, close))
    return segs


def _seg_chain(toks, seg: tuple[int, int]) -> str | None:
    """The handle expression of an argument, if the argument is one: strips a
    leading `&`/`*` and requires the rest to be a pure dotted chain."""
    a, b = seg
    if a < b and toks[a].text in ("&", "*"):
        a += 1
    if a >= b or not _is_name(toks[a].text):
        return None
    chain, end = _chain_at(toks, a)
    return chain if end == b else None


def _call_at(sf: SourceFile, i: int) -> str | None:
    """Name of the free-function call at token i (member calls excluded)."""
    toks = sf.tokens
    if (i + 1 < len(toks) and toks[i + 1].text == "("
            and _is_name(toks[i].text)
            and (i == 0 or toks[i - 1].text not in (".", "->"))):
        return toks[i].text
    return None


def _stmt_first_token(toks, j: int, lo: int) -> str | None:
    """First token of the statement that ends at toks[j] (a `;`)."""
    k = j - 1
    while k >= lo and toks[k].text not in (";", "{", "}"):
        k -= 1
    return toks[k + 1].text if k + 1 <= j - 1 else None


def _block_exits(sf: SourceFile, open_idx: int, close_idx: int) -> bool:
    """True when the block's last statement is a jump (or an abort call), so
    the fall-through path never sees the block's effects."""
    toks = sf.tokens
    k = close_idx - 1
    if k <= open_idx or toks[k].text != ";":
        return False
    first = _stmt_first_token(toks, k, open_idx)
    if first in _JUMPS:
        return True
    # abort_self(); / std::abort(); / abort();
    s = k - 1
    while s > open_idx and toks[s].text not in (";", "{", "}"):
        if toks[s].text in ("abort", "abort_self"):
            return True
        s -= 1
    return False


def _prev_cond_kind(sf: SourceFile, brace_idx: int) -> bool:
    """True when the `{` at brace_idx opens an `if`/`else` body."""
    toks = sf.tokens
    p = brace_idx - 1
    if p >= 0 and toks[p].text == "else":
        return True
    if p < 0 or toks[p].text != ")":
        return False
    depth = 0
    for k in range(p, -1, -1):
        t = toks[k].text
        if t == ")":
            depth += 1
        elif t == "(":
            depth -= 1
            if depth == 0:
                return k > 0 and toks[k - 1].text == "if"
    return False


def _stmt_end(sf: SourceFile, i: int) -> int:
    """Index just past the statement starting at token i.  Handles brace
    blocks, `if`/`else` chains and plain `...;` statements."""
    toks = sf.tokens
    n = len(toks)
    if i >= n:
        return n
    t = toks[i].text
    if t == "{":
        depth = 0
        for k in range(i, n):
            if toks[k].text == "{":
                depth += 1
            elif toks[k].text == "}":
                depth -= 1
                if depth == 0:
                    return k + 1
        return n
    if t in ("if", "while", "for", "switch"):
        k = i + 1
        if k < n and toks[k].text == "(":
            k = sf.match_paren(k) + 1
        end = _stmt_end(sf, k)
        if t == "if" and end < n and toks[end].text == "else":
            return _stmt_end(sf, end + 1)
        return end
    if t == "else":
        return _stmt_end(sf, i + 1)
    if t == "do":
        end = _stmt_end(sf, i + 1)  # body
        while end < n and toks[end].text != ";":
            end += 1
        return end + 1
    depth = 0
    for k in range(i, n):
        tk = toks[k].text
        if tk in ("(", "[", "{"):
            depth += 1
        elif tk in (")", "]", "}"):
            depth -= 1
        elif tk == ";" and depth == 0:
            return k + 1
    return n


# -- per-function effect summaries ------------------------------------------

@dataclasses.dataclass
class FnSummary:
    """What calling this function does, as seen from a call site."""
    comm_params: dict[int, str] = dataclasses.field(default_factory=dict)
    revokes: set[int] = dataclasses.field(default_factory=set)   # arg positions
    frees: set[int] = dataclasses.field(default_factory=set)
    uses: dict[int, str] = dataclasses.field(default_factory=dict)  # pos -> op
    collective: str | None = None  # call chain ending in a collective


class Model:
    """Effect summaries for every function definition the engine loaded,
    iterated to a fixed point over the call graph."""

    _ROUNDS = 4  # call-chain depth the repo needs is 3 (reconstruct->repair->repair_once)

    def __init__(self, engine: "ftlint_lex.Engine"):
        self.engine = engine
        # (name, sf, name_idx, b0, b1) for every definition, in file order.
        self.functions: list[tuple[str, SourceFile, int, int, int]] = []
        for sf in engine.sources:
            for name, name_idx, b0, b1 in ftlint_lex._iter_functions(sf):
                self.functions.append((name, sf, name_idx, b0, b1))
        self.summaries: dict[str, FnSummary] = {}
        for _ in range(self._ROUNDS):
            nxt: dict[str, FnSummary] = {}
            for name, sf, name_idx, b0, b1 in self.functions:
                s, _ = self._scan(name, sf, name_idx, b0, b1, emit=False)
                if name in nxt:  # overloads: merge conservatively
                    prev = nxt[name]
                    prev.revokes |= s.revokes
                    prev.frees |= s.frees
                    for p, op in s.uses.items():
                        prev.uses.setdefault(p, op)
                    prev.collective = prev.collective or s.collective
                    prev.comm_params.update(s.comm_params)
                else:
                    nxt[name] = s
            if self._stable(nxt):
                self.summaries = nxt
                break
            self.summaries = nxt

    def _stable(self, nxt: dict[str, FnSummary]) -> bool:
        if set(nxt) != set(self.summaries):
            return False
        for name, s in nxt.items():
            o = self.summaries[name]
            if (s.revokes, s.frees, s.collective) != (o.revokes, o.frees, o.collective):
                return False
            if set(s.uses) != set(o.uses):
                return False
        return True

    def _comm_params(self, sf: SourceFile, name_idx: int) -> dict[int, str]:
        """Positions and names of Comm-typed parameters (by value, reference
        or pointer — `CommContext` etc. do not match: exact token match)."""
        toks = sf.tokens
        out: dict[int, str] = {}
        for pos, (a, b) in enumerate(_arg_segments(sf, name_idx + 1)):
            if not any(toks[k].text in _COMM_TYPES for k in range(a, b)):
                continue
            name = None
            for k in range(b - 1, a - 1, -1):
                if _is_name(toks[k].text):
                    name = toks[k].text
                    break
            if name and name not in _COMM_TYPES:
                out[pos] = name
        return out

    # -- the one scanner behind both the summaries and the FTL006 findings --
    def _scan(self, fn_name: str, sf: SourceFile, name_idx: int, b0: int,
              b1: int, emit: bool) -> tuple[FnSummary, list[Finding]]:
        toks = sf.tokens
        summary = FnSummary(comm_params=self._comm_params(sf, name_idx))
        param_pos = {v: k for k, v in summary.comm_params.items()}
        findings: list[Finding] = []

        # chain -> ("revoked"|"freed", line, via-note)
        states: dict[str, tuple[str, int, str]] = {}
        block_stack: list[tuple[int, dict | None]] = []
        # (end index, snapshot) of braceless conditional jumps being scanned.
        jump_stack: list[tuple[int, dict]] = []
        locals_decl: dict[str, int] = {}
        created: dict[str, int] = {}
        owned: set[str] = set()

        def note_param_effect(chain: str, kind: str, op: str) -> None:
            pos = param_pos.get(chain)
            if pos is None:
                return
            if kind == "revoke":
                summary.revokes.add(pos)
            elif kind == "free":
                summary.frees.add(pos)
            elif kind == "use" and pos not in summary.uses and chain not in states:
                # Only a use of a still-active param is a caller-visible
                # effect; a use after the function's own revoke is the
                # function's own finding, reported in its body.
                summary.uses[pos] = op

        def report(line: int, msg: str) -> None:
            if emit and not self.engine._suppressed(sf, "FTL006", line):
                findings.append(Finding(sf.path, line, "FTL006", msg))

        def check_use(chain: str, op: str, line: int, via: str = "") -> None:
            st = states.get(chain)
            note_param_effect(chain, "use", op)
            if st is None:
                return
            kind, at, how = st
            via_note = f" (via `{via}`)" if via else ""
            if kind == "revoked":
                report(line,
                       f"`{chain}` is used by `{op}`{via_note} after being "
                       f"revoked at line {at}{how}; only the sanctioned "
                       "salvage/repair operations (comm_shrink, comm_agree, "
                       "comm_free, iprobe_buffered, recv_buffered) may touch "
                       "a revoked communicator")
            else:
                report(line,
                       f"`{chain}` is used by `{op}`{via_note} after being "
                       f"freed at line {at}{how}")

        def do_revoke(chain: str, line: int, how: str = "") -> None:
            note_param_effect(chain, "revoke", "comm_revoke")
            states[chain] = ("revoked", line, how)

        def do_free(chain: str, line: int, how: str = "") -> None:
            note_param_effect(chain, "free", "comm_free")
            st = states.get(chain)
            if st is not None and st[0] == "freed":
                report(line,
                       f"`{chain}` is freed twice (first free at line "
                       f"{st[1]}{st[2]}); the second free releases a handle "
                       "this function no longer owns")
            states[chain] = ("freed", line, how)
            owned.add(chain)

        i = b0 + 1
        while i < b1:
            t = toks[i].text
            while jump_stack and i >= jump_stack[-1][0]:
                # The jump left the function/loop: its effects never reach
                # the fall-through path.
                states.clear()
                states.update(jump_stack.pop()[1])

            if t in ("if", "else"):
                body = i + 1
                if t == "if":
                    body = sf.match_paren(body) + 1 if toks[body].text == "(" else b1
                if body < b1 and toks[body].text not in ("{", "if"):
                    end = _stmt_end(sf, body)
                    if _guard_exits(sf, body, end):
                        jump_stack.append((end, dict(states)))

            if t == "{":
                snap = dict(states) if _prev_cond_kind(sf, i) else None
                block_stack.append((i, snap))
                i += 1
                continue
            if t == "}":
                if block_stack:
                    open_idx, snap = block_stack.pop()
                    if snap is not None and _block_exits(sf, open_idx, i):
                        # The divergent path exits the function/loop before
                        # the block closes: its revokes/frees never reach
                        # the fall-through path.
                        states.clear()
                        states.update(snap)
                i += 1
                continue

            # Local handle declaration: `Comm h;` / `MPI_Comm h = ...`.
            if (t in _COMM_TYPES and i + 2 < b1 and _is_name(toks[i + 1].text)
                    and toks[i + 2].text in (";", "=", "{")):
                locals_decl[toks[i + 1].text] = toks[i + 1].line
                states.pop(toks[i + 1].text, None)
                i += 2
                continue

            callee = _call_at(sf, i)
            if callee is not None:
                line = toks[i].line
                segs = _arg_segments(sf, i + 1)
                chains = [_seg_chain(toks, s) for s in segs]

                if callee in REVOKERS:
                    if chains and chains[0]:
                        do_revoke(chains[0], line)
                elif callee in FREERS:
                    if chains and chains[0]:
                        do_free(chains[0], line)
                elif callee in GUARDS:
                    for c in chains:
                        if c:
                            owned.add(c)
                elif callee in SANCTIONED:
                    # Repair/salvage set: legal on any handle.  Creators in
                    # this set (comm_shrink) still populate their out-arg.
                    if callee in CREATORS:
                        for s_, c in zip(segs, chains):
                            if c and toks[s_[0]].text == "&":
                                created.setdefault(c, line)
                                states.pop(c, None)
                elif callee in COMM_OPS:
                    for c in chains:
                        if c:
                            check_use(c, callee, line)
                    if callee in CREATORS:
                        for s_, c in zip(segs, chains):
                            if c and toks[s_[0]].text == "&":
                                created.setdefault(c, line)
                                states.pop(c, None)
                elif callee in self.summaries and self.summaries[callee].comm_params:
                    cs = self.summaries[callee]
                    for pos, c in enumerate(chains):
                        if c is None:
                            continue
                        if pos in cs.uses:
                            check_use(c, cs.uses[pos], line, via=callee)
                        if pos in cs.revokes:
                            do_revoke(c, line, f" (inside `{callee}`)")
                        if pos in cs.frees:
                            do_free(c, line, f" (inside `{callee}`)")
                        owned.add(c)  # callee received the handle: it has an owner
                else:
                    # Unknown call: any handle argument escapes (the callee
                    # may store or free it) — by value or by address.
                    for c in chains:
                        if c:
                            owned.add(c)

            # Statement-level reassignment / escape via assignment & return.
            # `*out = h` (store through an out-pointer) counts too.
            prev = toks[i - 1].text if i > b0 else "{"
            if (prev == "*" and i >= b0 + 2
                    and toks[i - 2].text in (";", "{", "}")):
                prev = toks[i - 2].text
            if _is_name(t) and prev in (";", "{", "}"):
                chain, end = _chain_at(toks, i)
                if (end < b1 and toks[end].text == "="
                        and (end + 1 >= b1 or toks[end + 1].text != "=")):
                    states.pop(chain, None)  # reassigned: fresh handle
                    stop = end + 1
                    while stop < b1 and toks[stop].text != ";":
                        if _is_name(toks[stop].text):
                            c2, stop2 = _chain_at(toks, stop)
                            if c2 in created or c2 in locals_decl:
                                owned.add(c2)  # stored somewhere: has an owner
                            stop = stop2
                            continue
                        stop += 1
            if t == "return":
                k = i + 1
                while k < b1 and toks[k].text != ";":
                    if _is_name(toks[k].text):
                        c2, k = _chain_at(toks, k)
                        owned.add(c2)
                        continue
                    k += 1
            i += 1

        if emit:
            for chain, line in created.items():
                if chain in owned:
                    continue
                if not self.engine._suppressed(sf, "FTL006", line):
                    findings.append(Finding(
                        sf.path, line, "FTL006",
                        f"communicator `{chain}` created here escapes "
                        f"`{fn_name}` without an owner: free it, scope it "
                        "with CommGuard, return it, or store it"))
        return summary, findings


# -- FTL005 ------------------------------------------------------------------

def _collectives_in(model: Model, sf: SourceFile, lo: int, hi: int):
    """(line, callee, chain-note) for every collective-reaching free-function
    call in tokens [lo, hi)."""
    out = []
    for k in range(lo, hi):
        callee = _call_at(sf, k)
        if callee is None:
            continue
        if callee in COLLECTIVES:
            out.append((sf.tokens[k].line, callee, None))
        else:
            s = model.summaries.get(callee)
            if s is not None and s.collective:
                out.append((sf.tokens[k].line, callee, s.collective))
    return out


def check_ftl005(model: Model) -> list[Finding]:
    engine = model.engine
    findings: list[Finding] = []
    seen: set[tuple[str, int]] = set()

    def emit(sf, line, callee, chain, cond_line, why):
        if (sf.path, line) in seen:
            return
        seen.add((sf.path, line))
        if engine._suppressed(sf, "FTL005", line):
            return
        via = f" (reaches a collective via {callee} -> {chain})" if chain else ""
        findings.append(Finding(
            sf.path, line, "FTL005",
            f"collective `{callee}`{via} executes only under the "
            f"rank-dependent branch at line {cond_line}; {why} — every rank "
            "of the communicator must make the same collective calls"))

    for _fn_name, sf, _name_idx, b0, b1 in model.functions:
        toks = sf.tokens
        # Enclosing-block map so guard-style early exits know how far the
        # divergent remainder extends.
        brace_close: dict[int, int] = {}
        stack = []
        for k in range(b0, b1 + 1):
            if toks[k].text == "{":
                stack.append(k)
            elif toks[k].text == "}" and stack:
                brace_close[stack.pop()] = k
        enclosing: list[int] = []
        i = b0
        while i < b1:
            t = toks[i].text
            if t == "{":
                enclosing.append(brace_close.get(i, b1))
            elif t == "}":
                if enclosing:
                    enclosing.pop()
            elif t == "if" and i + 1 < b1 and toks[i + 1].text == "(":
                close = sf.match_paren(i + 1)
                if _rank_dependent(toks[i + 2:close]):
                    cond_line = toks[i].line
                    then_lo = close + 1
                    then_hi = _stmt_end(sf, then_lo)
                    else_lo = else_hi = None
                    if then_hi < b1 and toks[then_hi].text == "else":
                        else_lo = then_hi + 1
                        else_hi = _stmt_end(sf, else_lo)
                    then_c = _collectives_in(model, sf, then_lo, then_hi)
                    else_c = (_collectives_in(model, sf, else_lo, else_hi)
                              if else_lo is not None else [])
                    if then_c and not else_c:
                        for line, callee, chain in then_c:
                            emit(sf, line, callee, chain, cond_line,
                                 "ranks for which the condition is false "
                                 "take a collective-free path")
                    elif else_c and not then_c:
                        for line, callee, chain in else_c:
                            emit(sf, line, callee, chain, cond_line,
                                 "ranks for which the condition is true "
                                 "take a collective-free path")
                    # Early-exit guard: `if (rank-cond) return;` — the
                    # exiting ranks never reach the remainder of the block.
                    if (not then_c and else_lo is None
                            and _guard_exits(sf, then_lo, then_hi)):
                        rem_hi = enclosing[-1] if enclosing else b1
                        for line, callee, chain in _collectives_in(
                                model, sf, then_hi, rem_hi):
                            emit(sf, line, callee, chain, cond_line,
                                 "ranks for which the condition is true "
                                 "exit early and never reach it")
            i += 1
    return findings


def _guard_exits(sf: SourceFile, lo: int, hi: int) -> bool:
    """True when the statement range [lo, hi) is a jump-only guard body:
    `return ...;` / `break;` / `{ return ...; }` / abort — nothing else."""
    toks = sf.tokens
    if lo >= hi:
        return False
    a, b = lo, hi
    if toks[a].text == "{":
        a, b = a + 1, b - 1
    if a >= b:
        return False
    if toks[a].text in _JUMPS or toks[a].text in ("abort", "abort_self"):
        # Single statement only: exactly one top-level `;` (the last token).
        depth = 0
        for k in range(a, b - 1):
            t = toks[k].text
            if t in ("(", "[", "{"):
                depth += 1
            elif t in (")", "]", "}"):
                depth -= 1
            elif t == ";" and depth == 0:
                return False
        return toks[b - 1].text == ";"
    return False


def check_ftl006(model: Model) -> list[Finding]:
    findings: list[Finding] = []
    for name, sf, name_idx, b0, b1 in model.functions:
        _, fs = model._scan(name, sf, name_idx, b0, b1, emit=True)
        findings.extend(fs)
    return findings


def build_and_check(engine: "ftlint_lex.Engine", rules: set[str]) -> list[Finding]:
    """Entry point used by ftlint_lex.Engine.run."""
    model = Model(engine)
    # Seed collective summaries: direct collective calls, then propagate
    # through the call graph so a rank-guarded call to a helper that calls
    # `bcast` three frames down is still a finding at the guard.
    changed = True
    rounds = 0
    while changed and rounds < 16:
        changed = False
        rounds += 1
        for fn_name, sf, _ni, b0, b1 in model.functions:
            s = model.summaries.get(fn_name)
            if s is None or s.collective:
                continue
            for k in range(b0, b1):
                callee = _call_at(sf, k)
                if callee is None or callee == fn_name:
                    continue
                if callee in COLLECTIVES:
                    s.collective = callee
                    changed = True
                    break
                cs = model.summaries.get(callee)
                if cs is not None and cs.collective:
                    s.collective = f"{callee} -> {cs.collective}"
                    changed = True
                    break
    out: list[Finding] = []
    if "FTL005" in rules:
        out.extend(check_ftl005(model))
    if "FTL006" in rules:
        out.extend(check_ftl006(model))
    return out
