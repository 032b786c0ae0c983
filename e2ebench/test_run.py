"""Self-tests of run.py (no solver build needed).

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCRATCH = run.BUILD / "selftest"
CR = {"id": "t/0/0", "technique": "cr", "policy": "technique", "kills": "5:10,20:30"}
AC = dict(CR, technique="ac")
REF = 1e-4


def outcome(result=None, exit_code=0, expired=False):
    """An Outcome as run_child would build it for a child printing `result`."""
    usage = types.SimpleNamespace(ru_utime=0.1, ru_stime=0.1)
    status = exit_code << 8 if exit_code >= 0 else -exit_code
    stdout = json.dumps(result) + "\n" if result is not None else ""
    return run.Outcome(status, 0.0, 0.5, usage, expired, stdout, "")


def result(error, killed=2):
    return {"killed": killed, "blackboard": {"error.l1": error}}


class Oracle(unittest.TestCase):
    def test_exact_path_passes_only_the_reference_error(self):
        self.assertEqual(run.verdict(CR, outcome(result(REF)), REF), (True, "ok"))
        ok, why = run.verdict(CR, outcome(result(REF * 1.001)), REF)
        self.assertFalse(ok)
        self.assertIn("exact", why)

    def test_approximate_path_has_a_bound(self):
        self.assertTrue(run.verdict(AC, outcome(result(REF * 150)), REF)[0])
        # The overlap defect in README.md: 0.096 against a 1.213e-4 reference.
        self.assertFalse(run.verdict(AC, outcome(result(0.096)), 1.213e-4)[0])

    def test_non_finite_error_fails(self):
        for bad in (float("nan"), float("inf")):
            self.assertFalse(run.verdict(AC, outcome(result(bad)), REF)[0])

    def test_missing_error_fails(self):
        res = {"killed": 2, "blackboard": {}}
        self.assertFalse(run.verdict(AC, outcome(res), REF)[0])

    def test_kill_count_must_match_plan(self):
        ok, why = run.verdict(CR, outcome(result(REF, killed=1)), REF)
        self.assertFalse(ok)
        self.assertIn("killed 1 of 2", why)

    def test_nonzero_exit_fails(self):
        ok, why = run.verdict(CR, outcome(result(REF), exit_code=3), REF)
        self.assertFalse(ok)
        self.assertIn("exit 3", why)


class Children(unittest.TestCase):
    def setUp(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def test_killed_child_is_a_failed_scenario(self):
        cmd = [sys.executable, "-c", "import os, signal; os.kill(os.getpid(), signal.SIGKILL)"]
        o = run.run_child(cmd, 10.0, dict(os.environ), SCRATCH)
        self.assertFalse(o.expired)
        ok, why = run.verdict(CR, o, REF)
        self.assertFalse(ok)
        self.assertIn("SIGKILL", why)

    def test_expired_limit_is_a_failed_scenario_with_capped_wall(self):
        o = run.run_child(["sleep", "30"], 0.3, dict(os.environ), SCRATCH)
        self.assertTrue(o.expired)
        self.assertLess(o.wall_s, 5.0)
        ok, why = run.verdict(CR, o, REF)
        self.assertFalse(ok)
        self.assertIn("limit", why)

    def test_child_result_and_rusage_are_read(self):
        code = "import json; print('noise'); print(json.dumps({'killed': 0}))"
        o = run.run_child([sys.executable, "-c", code], 10.0, dict(os.environ), SCRATCH)
        self.assertEqual(o.result(), {"killed": 0})
        self.assertGreater(o.user_s + o.sys_s, 0)

    def test_environment_is_pinned(self):
        os.environ["FTR_RECOVERY"] = "overlap"
        try:
            env, removed = run.child_env()
        finally:
            del os.environ["FTR_RECOVERY"]
        self.assertNotIn("FTR_RECOVERY", env)
        self.assertIn("FTR_RECOVERY", removed)

    def test_runner_refuses_the_same_knobs(self):
        src = (Path(run.HERE) / "scenario.cpp").read_text()
        block = src[src.index("kEnvKnobs[] = {"):src.index("};", src.index("kEnvKnobs[] = {"))]
        self.assertEqual(tuple(re.findall(r'"(FTR_\w+)"', block)), run.ENV_KNOBS)


class Arguments(unittest.TestCase):
    GOOD = ["--workload", "wide-ff", "--seed", "3", "--seconds", "10", "--trace", "0"]

    def rejects(self, argv):
        with open(os.devnull, "w") as null:
            stderr, sys.stderr = sys.stderr, null
            try:
                with self.assertRaises(SystemExit) as ctx:
                    run.parse_args(argv)
            finally:
                sys.stderr = stderr
        self.assertNotEqual(ctx.exception.code, 0)

    def test_good_arguments_parse(self):
        a = run.parse_args(self.GOOD)
        self.assertEqual((a.workload, a.seed, a.seconds, a.trace), ("wide-ff", 3, 10, 0))

    def test_malformed_and_unknown_values_are_rejected(self):
        for i, bad in ((1, "nope"), (3, "x1"), (3, "1.5"), (5, "0"), (5, "-3"), (7, "2")):
            argv = list(self.GOOD)
            argv[i] = bad
            self.rejects(argv)
        self.rejects(self.GOOD + ["--extra", "1"])
        self.rejects(["--work", "wide-ff"] + self.GOOD[2:])
        self.rejects(self.GOOD[:6])


class Names(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({w["name"] for w in self.spec["workloads"]} - set(run.WORKLOADS), set())

    def test_per_layer_names_and_units_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.LAYER_UNITS)

    def test_metric_functions_print_exactly_those_names(self):
        spec = dict(CR, n=8, l=4, scale=1, steps=8, checkpoints=1, buddy_every=0,
                    slots_per_host=12, kills="")
        res = {"procs": 44, "killed": 0, "launch_wall_s": 0.2, "launch_user_s": 0.3,
               "launch_sys_s": 0.1, "launch_csw": 10, "messages": 100, "bytes": 800,
               "cross_host": 10, "axis_hits": 3, "axis_misses": 1, "gcp_solve_s": 1e-6,
               "overlap_n_cont": 0, "overlap_owed": 0, "peak_rss_mb": 40.0, "trace": {"kill": 0},
               "blackboard": {"error.l1": REF, "app.total_time": 1.0}}
        o = outcome(res)
        e2e = run.e2e_metrics([(spec, o, res, True)], [0.1, 0.2, 0.3])
        self.assertEqual(set(e2e), set(run.E2E_UNITS))
        ref = {"cell_updates": 1e6, "bytes_moved_computed": 1.6e7, "combine_s": 1e-3,
               "crc32_s": 1e-4}
        layers = run.layer_metrics([(spec, o, res)], [(spec, o, res)], {}, ref, 0.05)
        self.assertEqual(set(layers), set(run.LAYER_UNITS))


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        p = subprocess.run([sys.executable, str(bare / run.HERE.name / "run.py"), *Arguments.GOOD],
                           cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
