#!/usr/bin/env python3
"""Check that the benchmark's correctness checks can fail.

    python3 perfbench/selftest.py

Runs the zoo workload (the quickest) three times through run.py: once
clean, which must pass, and once with each injected defect, which must be
reported as failed operations with a nonzero exit code:

  --perturb digest    flips one bit of a reference digest (seed 42);
  --perturb download  feeds the traced replay one download time that is one
                      ulp off what the entry-point call recorded.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CASES = [
    # (label, extra arguments, expect the run to fail)
    ("clean traced run", ["--seed", "42", "--trace", "1"], False),
    ("perturbed reference digest",
     ["--seed", "42", "--trace", "0", "--perturb", "digest"], True),
    ("perturbed replayed download",
     ["--seed", "7", "--trace", "1", "--perturb", "download"], True),
]


def run_case(extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "zoo",
           "--seconds", "1"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    ok = True
    for label, extra, expect_failure in CASES:
        rc, result = run_case(extra)
        if result is None:
            good = False
            detail = f"no result line (exit {rc})"
        elif expect_failure:
            good = rc != 0 and result["failed"] > 0 and not result["correct"]
            detail = f"exit {rc}, failed {result['failed']} of {result['attempted']}"
        else:
            good = rc == 0 and result["failed"] == 0 and result["correct"]
            detail = f"exit {rc}, failed {result['failed']} of {result['attempted']}"
        print(f"{'PASS' if good else 'FAIL'}: {label}: {detail}")
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
