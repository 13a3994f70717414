"""Self-test: a wrong answer must fail the benchmark.

    python3 perfbench/test_checker.py          (or: python3 -m pytest perfbench/test_checker.py)

Feeds the checker one corrupted answer, then runs the query-bulk
workload against an engine that corrupts one answer per batch and
expects the run to report ``correct: false`` and exit non-zero.
"""

import contextlib
import io
import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from oracle import Checker, Oracle  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        # A path 0-1-2 with a quality-1 edge and a quality-3 edge.
        self.oracle = Oracle(3, [(0, 1, 1.0), (1, 2, 3.0)], symmetric=True)
        self.queries = [(0, 2, 1.0), (0, 2, 2.0), (2, 1, 3.0), (1, 1, 5.5)]
        self.truth = [2.0, float("inf"), 1.0, 0.0]

    def test_true_answers_pass(self):
        checker = Checker()
        checker.against("truth", self.oracle, self.queries, self.truth)
        self.assertTrue(checker.ok)
        self.assertEqual(checker.checked, 4)

    def test_one_corrupted_answer_fails(self):
        corrupted = list(self.truth)
        corrupted[2] += 1.0
        checker = Checker()
        checker.against("corrupted", self.oracle, self.queries, corrupted)
        self.assertFalse(checker.ok)
        self.assertEqual(checker.mismatches, 1)

    def test_properties_catch_a_falling_distance(self):
        checker = Checker()
        checker.properties("falls", lambda queries: [3.0 - i for i in range(len(queries))],
                           [(0, 2)], (1.0, 2.0), symmetric=False)
        self.assertFalse(checker.ok)

    def test_unequal_totals_fail(self):
        checker = Checker()
        checker.equal_totals("answered", 10, 9)
        self.assertFalse(checker.ok)


class CorruptedRunTest(unittest.TestCase):
    def test_a_corrupted_answer_fails_the_run(self):
        from repro.core.frozen import FrozenWCIndex

        original = FrozenWCIndex.distance_many

        def corrupt(self, queries):
            answers = original(self, queries)
            if len(answers) > 5:
                answers[5] = answers[5] + 1.0
            return answers

        FrozenWCIndex.distance_many = corrupt
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "query-bulk", "--seed", "3",
                                 "--seconds", "0.5", "--trace", "0"])
        finally:
            FrozenWCIndex.distance_many = original
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
