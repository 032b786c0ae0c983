#!/usr/bin/env python3
"""End-to-end benchmark of the fault-tolerant combination solver.

    python3 e2ebench/run.py --workload repair-mix --seed 1 --seconds 30 --trace 0

Builds the repository's libraries and the scenario runner (scenario.cpp)
under .bench_build/, generates the workload's scenario list from --seed,
runs scenarios back to back (closed loop, one thread, one fresh
process per scenario) for --seconds, checks every combined solution against
the serial reference, and prints a report.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (plus a span file Perfetto opens offline).  See README.md.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUNNER = BUILD / "e2ebench" / "e2e_scenario"

# Gated workloads are listed in BENCHMARK.json; the diagnostic ones run the
# protocols with known baseline failures (README.md, "Baseline defects").
WORKLOADS = ("wide-ff", "deep-ff", "repair-mix", "repair-mix-any", "overlap-1f")
# Set-up is repeated at least SETUP_REPS times, and up to SETUP_MAX_REPS while
# the repetitions have taken less than SETUP_MIN_S (short set-ups are noisy).
SETUP_REPS = 5
SETUP_MAX_REPS = 21
SETUP_MIN_S = 1.0
SCENARIO_LIMIT_S = 10.0
# Oracle: the CR technique restores exactly; every other path may lose
# accuracy.  The repo's Fig. 10 table reaches ~100x the failure-free error for
# RC and AC, so approximate paths get twice that.
EXACT_RTOL = 1e-9
APPROX_BOUND = 200.0
# The FTR_* knobs that override AppConfig / Runtime::Options at construction.
ENV_KNOBS = ("FTR_AGREE", "FTR_BUDDY_EVERY", "FTR_DETECTOR", "FTR_DOORBELL_POLL",
             "FTR_FAILURE_DIST", "FTR_FAILURE_SCALE", "FTR_FAILURE_SHAPE", "FTR_HB_PERIOD",
             "FTR_HB_SUSPECT", "FTR_HB_TIMEOUT", "FTR_LOG", "FTR_PROACTIVE", "FTR_RECOVERY",
             "FTR_TRACE")

E2E_UNITS = {"rank_steps_per_s": "1/s", "cpu_us_per_rank_step": "us", "peak_rss_mb": "MB",
             "setup_s": "s"}


class BenchError(Exception):
    pass


# --- arguments ----------------------------------------------------------------

def _int_in(lo, hi):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is outside [{lo}, {hi}]")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_int_in(0, 2**62))
    p.add_argument("--seconds", required=True, type=_int_in(1, 600))
    p.add_argument("--trace", required=True, type=_int_in(0, 1))
    return p.parse_args(argv)


# --- build --------------------------------------------------------------------

def _step(cmd, log):
    with open(log, "ab") as out:
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
            tail = Path(log).read_text(errors="replace")[-3000:]
            raise BenchError(f"build step failed: {' '.join(map(str, cmd))}\n{tail}")


def build():
    """Builds the repo's libraries with its own CMake, then the runner."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core" / "ft_app.hpp").is_file():
        raise BenchError(f"{ROOT} holds no solver sources to build")
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    repo = BUILD / "repo"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (repo / "CMakeCache.txt").is_file():
        _step(["cmake", "-S", ROOT, "-B", repo, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DFTR_SANITIZE=OFF"], log)
    _step(["cmake", "--build", repo, "--target", "ftr_core", "-j", jobs], log)
    runner = RUNNER.parent
    if not (runner / "CMakeCache.txt").is_file():
        _step(["cmake", "-S", HERE, "-B", runner, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               f"-DFTR_SRC_DIR={ROOT / 'src'}", f"-DFTR_LIB_DIR={repo / 'src'}"], log)
    _step(["cmake", "--build", runner, "-j", jobs], log)


def child_env():
    """The environment minus every FTR_* variable; returns (env, removed)."""
    removed = sorted(k for k in os.environ if k.startswith("FTR_"))
    return {k: v for k, v in os.environ.items() if k not in removed}, removed


# --- one child process ----------------------------------------------------------

class Outcome:
    """How one child process ended, read from outside it."""

    def __init__(self, status, start_mono, wall_s, rusage, expired, stdout, stderr):
        self.start_mono = start_mono
        self.wall_s = wall_s
        self.expired = expired
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.user_s = rusage.ru_utime
        self.sys_s = rusage.ru_stime
        self.stdout = stdout
        self.stderr = stderr

    def result(self):
        """The child's JSON result (its last stdout line), or None."""
        lines = self.stdout.strip().splitlines()
        if self.exit_code != 0 or self.expired or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            return None


def run_child(cmd, limit_s, env, scratch):
    """Runs cmd in a fresh process, SIGKILLs it after limit_s, reaps it with
    wait4 for its CPU usage and returns an Outcome."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    start = time.monotonic()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err, env=env)
    fd = os.pidfd_open(proc.pid)
    expired = True  # also when interrupted: the child is killed and reaped
    try:
        ready, _, _ = select.select([fd], [], [], limit_s)
        expired = not ready
    finally:
        if expired:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, rusage = os.wait4(proc.pid, 0)
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Outcome(status, start, time.monotonic() - start, rusage, expired,
                   out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def runner_args(spec, limit_s, trace):
    keys = ("id", "technique", "policy", "n", "l", "scale", "steps", "checkpoints",
            "buddy_every", "slots_per_host", "kills")
    return [RUNNER, "run"] + [f"--{k}={spec[k]}" for k in keys] + [
        f"--limit={limit_s:g}", f"--trace={trace}"]


# --- oracle -------------------------------------------------------------------

def planned_kills(spec):
    return len(spec["kills"].split(",")) if spec["kills"] else 0


def exact_path(spec):
    return spec["technique"] == "cr" and spec["policy"] == "technique"


def verdict(spec, outcome, ref_error):
    """(ok, reason) for one scenario: it must exit cleanly inside its limit,
    kill exactly its planned victims, and return a finite error within the
    bound of its recovery path."""
    if outcome.expired:
        return False, f"limit: no result after {outcome.wall_s:.1f} s"
    if outcome.exit_code != 0:
        sig = -outcome.exit_code
        how = f"signal {signal.Signals(sig).name}" if sig > 0 else f"exit {outcome.exit_code}"
        return False, f"aborted: {how}"
    res = outcome.result()
    if res is None:
        return False, "no result"
    if res["killed"] != planned_kills(spec):
        return False, f"killed {res['killed']} of {planned_kills(spec)} planned"
    err = res["blackboard"].get("error.l1", math.nan)
    if not math.isfinite(err):
        return False, f"error {err}"
    ratio = err / ref_error
    if exact_path(spec):
        if abs(ratio - 1.0) > EXACT_RTOL:
            return False, f"error {err:.4g} = {ratio:.6g}x reference, CR must be exact"
    elif ratio > APPROX_BOUND:
        return False, f"error {err:.4g} = {ratio:.4g}x reference > {APPROX_BOUND:g}x"
    return True, "ok"


# --- helpers ------------------------------------------------------------------

def median(xs, empty=0.0):
    return statistics.median(xs) if xs else empty


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[-1]


def rank_steps(spec, res):
    return res["procs"] * spec["steps"]


# --- setup --------------------------------------------------------------------

def setup(args, env, scratch):
    """Generates the scenario list and the serial reference several times
    (each in a fresh process) and checks the repetitions agree."""
    count = max(64, 40 * args.seconds)
    cmd = [RUNNER, "plan", f"--workload={args.workload}", f"--seed={args.seed}",
           f"--count={count}", f"--trace={args.trace}"]
    first, walls, serial_cpu, consistent = None, [], [], True
    while len(walls) < SETUP_REPS or (len(walls) < SETUP_MAX_REPS and sum(walls) < SETUP_MIN_S):
        o = run_child(cmd, 120.0, env, scratch)
        res = o.result()
        if res is None:
            raise BenchError(f"scenario generation failed: {o.stderr[-2000:]}")
        walls.append(o.wall_s)
        serial_cpu.append(res["reference"]["serial_cpu_s"])
        if first is None:
            first = res
            first["spans"].insert(0, {"name": "setup", "parent": "", "start_us": o.start_mono * 1e6,
                                      "end_us": (o.start_mono + o.wall_s) * 1e6})
        consistent = consistent and res["plans"] == first["plans"] and \
            res["reference"]["error"] == first["reference"]["error"]
    first["reference"]["serial_cpu_s"] = median(serial_cpu)
    return first, walls, consistent


# --- end-to-end metrics ---------------------------------------------------------

def launch_walls(runs):
    """Launch wall per scenario; a failed one counts with its capped process wall."""
    return [r["launch_wall_s"] if r is not None else o.wall_s for s, o, r, ok in runs]


def e2e_metrics(runs, setup_walls):
    """runs: list of (spec, outcome, result-or-None, ok)."""
    done = [(s, o, r) for s, o, r, ok in runs if r is not None]
    walls = launch_walls(runs)
    steps = sum(rank_steps(s, r) for s, o, r in done)
    cpu = sum(o.user_s + o.sys_s for s, o, r in done)
    return {
        "rank_steps_per_s": (steps / sum(walls), len(walls)),
        "cpu_us_per_rank_step": (1e6 * cpu / steps if steps else 0.0, len(done)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for s, o, r in done]), len(done)),
        "setup_s": (median(setup_walls), len(setup_walls)),
    }


def report_only_metrics(runs, ref_error):
    """End-to-end figures printed in the report but not gated (README.md)."""
    done = [(s, r) for s, o, r, ok in runs if r is not None]
    bb = [r["blackboard"] for s, r in done]
    failing = [r["blackboard"] for s, r in done if planned_kills(s) > 0]
    return {
        "scenario_wall_p90_s": ("s", p90(launch_walls(runs)), len(runs)),
        "vtime_s": ("virt_s", median([b.get("app.total_time", 0.0) for b in bb]), len(bb)),
        "vtime_recovery_s": ("virt_s", median([b.get("recon.total", 0.0) + b.get("recovery.time", 0.0)
                                               for b in failing]), len(failing)),
        "error_ratio": ("x", median([b.get("error.l1", math.nan) / ref_error for b in bb],
                                    math.nan), len(bb)),
        "fail_frac": ("share", sum(1 for *_, ok in runs if not ok) / len(runs), len(runs)),
    }


# --- per-layer metrics ----------------------------------------------------------

LAYER_UNITS = {
    "advection.serial_cpu_s": "s", "advection.cell_updates_per_s": "1/s",
    "advection.bytes_moved_computed": "B",
    "combination.combine_s": "s", "combination.gcp_solve_s": "s",
    "grid.axis_map_hit_ratio": "ratio", "common.crc32_s": "s",
    "ftmpi.messages_per_rank_step": "count", "ftmpi.bytes_per_rank_step": "B",
    "ftmpi.cross_host_frac": "share", "ftmpi.ctx_switches_per_rank_step": "count",
    "ftmpi.sys_cpu_frac": "share", "ftmpi.overhead_cpu_frac": "share",
    **{f"ftmpi.trace.{e}": "count" for e in ("kill", "spawn", "revoke", "shrink", "agree",
                                             "merge", "split")},
    "core.vt.solve_s": "virt_s", "core.vt.combine_s": "virt_s",
    **{f"core.reconstruct.vt.{p}_s": "virt_s" for p in ("failed_list", "shrink", "spawn",
                                                         "agree", "merge", "split")},
    "core.repairs": "count", "core.recon_attempts": "count",
    "core.recon_attempts_per_repair": "ratio", "core.repair_wall_s": "s",
    "core.overlap.handoffs": "count", "core.overlap.aborts": "count",
    "core.overlap.steps": "count", "core.overlap.handoff_ratio": "ratio",
    "core.overlap.steps_lost_per_failure": "steps",
    "recovery.ckpt_writes": "count", "recovery.vt.ckpt_write_s": "virt_s",
    "recovery.vt.restore_s": "virt_s", "recovery.bytes": "B",
    "recovery.buddy.repl_bytes": "B", "recovery.buddy.vt.repl_s": "virt_s",
    **{f"recovery.plan.{a}": "count" for a in ("rc_copy", "rc_resample", "buddy", "disk",
                                               "gcp", "idle")},
    "trace.overhead_frac": "share",
}


def layer_metrics(traced, untraced, ff_walls, reference, serial_cpu_s):
    """traced/untraced: lists of (spec, outcome, result) of completed runs.
    Counts, bytes and summed virtual costs are means per scenario; virtual
    phase times are medians over scenarios (recovery phases over the
    scenarios that plan failures)."""
    n = max(len(traced), 1)
    bbs = [r["blackboard"] for _, _, r in traced]
    failing = [r["blackboard"] for s, _, r in traced if planned_kills(s) > 0]
    steps = sum(rank_steps(s, r) for s, _, r in traced) or 1
    launch_cpu = [r["launch_user_s"] + r["launch_sys_s"] for _, _, r in traced]
    total = lambda key: sum(r[key] for _, _, r in traced)
    per = lambda key: sum(b.get(key, 0.0) for b in bbs) / n
    hits, misses = total("axis_hits"), total("axis_misses")
    msgs = total("messages")
    repairs, attempts = per("app.repairs"), per("recon.attempts")
    handoffs, aborts = per("recon.overlap.handoffs"), per("recon.overlap.aborts")
    lost_steps = [max(0.0, r["overlap_owed"] - r["blackboard"].get("recon.overlap.steps", 0.0) /
                      r["overlap_n_cont"]) for _, _, r in traced if r["overlap_n_cont"] > 0]
    repair_walls = [r["launch_wall_s"] - ff_walls[config_key(s)]
                    for s, _, r in traced if planned_kills(s) > 0 and config_key(s) in ff_walls]
    wall = lambda runs: median([o.wall_s for _, o, _ in runs])
    m = {
        "advection.serial_cpu_s": serial_cpu_s,
        "advection.cell_updates_per_s": reference["cell_updates"] / serial_cpu_s,
        "advection.bytes_moved_computed": reference["bytes_moved_computed"],
        "combination.combine_s": reference["combine_s"],
        "combination.gcp_solve_s": total("gcp_solve_s"),
        "grid.axis_map_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "common.crc32_s": reference["crc32_s"],
        "ftmpi.messages_per_rank_step": msgs / steps,
        "ftmpi.bytes_per_rank_step": total("bytes") / steps,
        "ftmpi.cross_host_frac": total("cross_host") / msgs if msgs else 0.0,
        "ftmpi.ctx_switches_per_rank_step": total("launch_csw") / steps,
        "ftmpi.sys_cpu_frac": total("launch_sys_s") / max(sum(launch_cpu), 1e-12),
        "ftmpi.overhead_cpu_frac": 1.0 - serial_cpu_s / median(launch_cpu, math.inf),
        **{f"ftmpi.trace.{e}": sum(r["trace"].get(e, 0.0) for _, _, r in traced) / n
           for e in ("kill", "spawn", "revoke", "shrink", "agree", "merge", "split")},
        "core.vt.solve_s": median([b.get("app.solve_time", 0.0) for b in bbs]),
        "core.vt.combine_s": median([b.get("combine.time", 0.0) for b in bbs]),
        **{f"core.reconstruct.vt.{p}_s": median([b.get(f"recon.{p}", 0.0) for b in failing])
           for p in ("failed_list", "shrink", "spawn", "agree", "merge", "split")},
        "core.repairs": repairs,
        "core.recon_attempts": attempts,
        "core.recon_attempts_per_repair": attempts / repairs if repairs else 0.0,
        "core.repair_wall_s": median(repair_walls),
        "core.overlap.handoffs": handoffs,
        "core.overlap.aborts": aborts,
        "core.overlap.steps": per("recon.overlap.steps"),
        "core.overlap.handoff_ratio": handoffs / (handoffs + aborts) if handoffs + aborts else 0.0,
        "core.overlap.steps_lost_per_failure": median(lost_steps),
        "recovery.ckpt_writes": per("ckpt.writes"),
        "recovery.vt.ckpt_write_s": per("ckpt.write_total"),
        "recovery.vt.restore_s": median([b.get("recovery.time", 0.0) for b in failing]),
        "recovery.bytes": per("recon.recovery_bytes"),
        "recovery.buddy.repl_bytes": per("recon.buddy.repl_bytes"),
        "recovery.buddy.vt.repl_s": per("recon.buddy.repl_time"),
        **{f"recovery.plan.{a}": per(f"recon.plan.{a}")
           for a in ("rc_copy", "rc_resample", "buddy", "disk", "gcp", "idle")},
        "trace.overhead_frac": wall(traced) / wall(untraced) - 1.0 if untraced else 0.0,
    }
    assert m.keys() == LAYER_UNITS.keys()
    return m


def config_key(spec):
    return (spec["technique"], spec["policy"], spec["buddy_every"])


# --- spans --------------------------------------------------------------------

def write_trace(path, scenario_spans, t0_us):
    """Chrome trace-event JSON (Perfetto opens it offline): one complete
    event per span, args carry the scenario id and the parent span."""
    events = []
    for sid, spans in scenario_spans:
        for sp in spans:
            events.append({"name": sp["name"], "ph": "X", "pid": 1, "tid": 1,
                           "ts": sp["start_us"] - t0_us,
                           "dur": sp["end_us"] - sp["start_us"],
                           "args": {"id": sid, "parent": sp["parent"]}})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def self_times(scenario_spans):
    """name -> (count, total_s, self_s); self = duration minus the children
    (spans naming it as parent) of the same scenario."""
    out = {}
    for _, spans in scenario_spans:
        for sp in spans:
            dur = sp["end_us"] - sp["start_us"]
            kids = sum(c["end_us"] - c["start_us"] for c in spans
                       if c["parent"] == sp["name"] and c is not sp)
            cnt, tot, slf = out.get(sp["name"], (0, 0.0, 0.0))
            out[sp["name"]] = (cnt + 1, tot + dur / 1e6, slf + (dur - kids) / 1e6)
    return out


# --- main ---------------------------------------------------------------------

def run_scenarios(args, plans, ref_error, env, scratch, say):
    """Closed loop: scenarios back to back until --seconds have passed.
    Traced runs execute every scenario twice, untraced then traced."""
    deadline = time.monotonic() + args.seconds
    runs, untraced, spans, records = [], [], [], []
    i = 0
    while time.monotonic() < deadline or not runs:
        spec = plans[i % len(plans)]
        i += 1
        if args.trace:
            o = run_child(runner_args(spec, SCENARIO_LIMIT_S, 0), SCENARIO_LIMIT_S + 5, env, scratch)
            if o.result() is not None:
                untraced.append((spec, o, o.result()))
        o = run_child(runner_args(spec, SCENARIO_LIMIT_S, args.trace), SCENARIO_LIMIT_S + 5,
                      env, scratch)
        ok, why = verdict(spec, o, ref_error)
        res = o.result()
        runs.append((spec, o, res, ok))
        if args.trace and res is not None:
            root = {"name": "scenario", "parent": "", "start_us": o.start_mono * 1e6,
                    "end_us": (o.start_mono + o.wall_s) * 1e6}
            spans.append((spec["id"], [root] + res["spans"]))
        records.append({"id": spec["id"], "ok": ok, "why": why, "wall_s": o.wall_s,
                        "user_s": o.user_s, "sys_s": o.sys_s,
                        "result": res})
        say(f"scenario {spec['id']} {spec['technique']}/{spec['policy']} kills={spec['kills'] or '-'} "
            f"{'ok' if ok else 'FAIL'} ({why}) wall={o.wall_s:.3f}s")
        if not ok:
            say(f"  replay: {' '.join(map(str, runner_args(spec, SCENARIO_LIMIT_S, 0)))}")
    dump = BUILD / "e2ebench" / f"scenarios-{args.workload}-{args.seed}-trace{args.trace}.jsonl"
    dump.write_text("".join(json.dumps(r) + "\n" for r in records))
    say(f"per-scenario records written: {dump}")
    return runs, untraced, spans


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    say = lambda line: print(line, flush=True)
    try:
        build()
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 2
    # Children write their output here; one directory per run.py process.
    scratch = BUILD / "e2ebench" / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, say, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, say, scratch):
    env, removed = child_env()
    say(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"scenario_limit={SCENARIO_LIMIT_S:g}s approx_bound={APPROX_BOUND:g}x")
    say(f"environment: removed {', '.join(removed) if removed else 'no FTR_* variables'}; "
        f"pinned knobs {', '.join(ENV_KNOBS)} (runner refuses any that is set)")

    t_start_us = time.monotonic() * 1e6
    try:
        plan, setup_walls, consistent = setup(args, env, scratch)
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    ref = plan["reference"]
    say(f"config {json.dumps({k: v for k, v in plan['plans'][0].items() if k not in ('id', 'kills')})}")
    say(f"reference error {ref['error']:.6e} (serial solver, failure-free); setup repeats agree: "
        f"{'yes' if consistent else 'NO'}")

    if args.trace:
        # Failure-free wall per distinct configuration, for core.repair_wall_s.
        ff_walls = {}
        for spec in plan["plans"][:4]:
            if planned_kills(spec) and config_key(spec) not in ff_walls:
                o = run_child(runner_args(dict(spec, kills=""), SCENARIO_LIMIT_S, 0),
                              SCENARIO_LIMIT_S + 5, env, scratch)
                if o.result() is not None:
                    ff_walls[config_key(spec)] = o.result()["launch_wall_s"]

    runs, untraced, spans = run_scenarios(args, plan["plans"], ref["error"], env, scratch, say)
    failed = sum(1 for *_, ok in runs if not ok)
    correct = failed == 0 and consistent

    if not args.trace:
        metrics = e2e_metrics(runs, setup_walls)
        for name, (value, n) in metrics.items():
            say(f"metric {name} = {value:.6g} {E2E_UNITS[name]} (n={n})")
        for name, (unit, value, n) in report_only_metrics(runs, ref["error"]).items():
            say(f"report {name} = {value:.6g} {unit} (n={n})")
        out = {name: {"value": v, "unit": E2E_UNITS[name]} for name, (v, _) in metrics.items()}
    else:
        traced = [(s, o, r) for s, o, r, _ in runs if r is not None]
        metrics = layer_metrics(traced, untraced, ff_walls, ref, ref["serial_cpu_s"])
        for name, value in metrics.items():
            say(f"layer {name} = {value:.6g} {LAYER_UNITS[name]} (n={len(traced)})")
        setup_spans = [(f"{args.workload}/{args.seed}/setup", plan["spans"])]
        for name, (cnt, tot, slf) in sorted(self_times(setup_spans + spans).items()):
            say(f"span {name}: n={cnt} total={tot:.6f}s self={slf:.6f}s")
        trace_path = BUILD / "e2ebench" / f"trace-{args.workload}-{args.seed}.json"
        write_trace(trace_path, setup_spans + spans, t_start_us)
        say(f"spans written: {trace_path} (Chrome trace-event JSON; open in Perfetto)")
        out = {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in metrics.items()}
    say(f"verdict: {len(runs) - failed} of {len(runs)} scenarios correct")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
