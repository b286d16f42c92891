"""The benchmark's own test: every workload end to end at a seconds-long
scale, every registered metric reported with its unit, no failed request.

    python3 -m unittest perfbench/test_selftest.py
"""

import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class SelfTest(unittest.TestCase):
    def test_tiny_scale_run_reports_every_metric(self):
        done = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--selftest"],
            cwd=ROOT, capture_output=True, text=True, timeout=1800)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr[-4000:])
        self.assertNotIn("FAILED", done.stdout)


if __name__ == "__main__":
    unittest.main()
