"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the
repository root.  It takes about ten seconds.

It checks that tracing leaves stdout byte-identical on one small case per
workload, that the traced runs record ``smith`` spans on stage-ladder and
``quillen_fiber`` spans on fiber-sweep, that a wrong expectation and a
timeout each count as a failed case without stopping the pass, and that the
independent expectations agree with the closed forms they stand for.
"""

import os
import shutil
import tempfile
import time
import unittest

import run
import tracer
import workloads

# index of a case of about a second or less in each workload's case list:
# the Z/n rung, the idempotent monoid, the refused nerve, report all
SMALL_CASES = {"stage-ladder": 3, "fiber-sweep": 1, "classify-sweep": 5, "report-all": 0}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        scratch = os.path.join(run.ROOT, ".fatbench")
        os.makedirs(scratch, exist_ok=True)
        cls.work = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
        cls.runner = run.Runner(cls.work, time.perf_counter())
        cls.plans = {}
        for name in workloads.WORKLOADS:
            out = os.path.join(cls.work, name)
            os.mkdir(out)
            cls.plans[name] = workloads.write_workload(name, 3, out)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(cls.work))
        except OSError:  # another run is using it
            pass

    def small_case(self, workload):
        return self.plans[workload]["cases"][SMALL_CASES[workload]]

    def traced_span_names(self, workload):
        case = self.small_case(workload)
        spans = os.path.join(self.work, workload + ".spans")
        plain = self.runner.cli(case)
        traced = self.runner.traced(case, spans)
        self.assertIsNone(run.failure(case, plain), case["name"])
        self.assertEqual(traced.code, plain.code, case["name"])
        self.assertEqual(traced.stdout, plain.stdout, case["name"])
        _, span_list = tracer.read_spans(spans)
        return {s[0] for s in span_list}

    def test_tracing_keeps_stdout_and_records_layers(self):
        names = {w: self.traced_span_names(w) for w in workloads.WORKLOADS}
        self.assertIn("intlinalg.smith", names["stage-ladder"])
        self.assertIn("comparison.fiber", names["fiber-sweep"])
        for workload, found in names.items():
            self.assertIn("cli.main", found, workload)

    def test_wrong_expectation_fails_the_case_and_the_pass_goes_on(self):
        good = self.small_case("fiber-sweep")
        wrong = dict(good["expect"], count=good["expect"]["count"] + 1)
        bad = dict(good, name="wrong", expect=wrong)
        tally = run.Tally()
        run.untraced_pass(self.runner, [bad, good], tally)
        self.assertEqual(tally.attempted, 2)
        self.assertEqual(len(tally.failures), 1)
        self.assertTrue(tally.failures[0].startswith("wrong: fibers_checked"))

    def test_timeout_is_killed_and_counted(self):
        case = dict(self.plans["stage-ladder"]["cases"][2], timeout=0.2)
        started = time.perf_counter()
        child = self.runner.cli(case)
        self.assertLess(time.perf_counter() - started, 5)
        self.assertTrue(child.timed_out)
        self.assertTrue(run.failure(case, child).startswith("timeout"))

    def test_expectations_match_closed_forms(self):
        from fatcat.fincat import ordinal

        # the ordinal [n] has C(n + k + 1, k + 1) composable k-chains
        self.assertEqual(workloads.nerve_cell_count(ordinal(2), 3), 3 + 6 + 10 + 15)
        g = workloads.cyclic_group(5, [9, 4, 7, 1, 3])
        self.assertEqual(workloads.nerve_cell_count(g.base, 2), 1 + 5 + 25)
        self.assertEqual(workloads.components([(0, 1), (2,), (3, 4)]), 3)
        self.assertEqual(run.checks.cyclic_group_homology(3, 1), (0, [3]))
        self.assertEqual(run.WORKLOADS, workloads.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
