#!/usr/bin/env python3
"""Self-test for check_invariants.py against the fixture trees in testdata/.

testdata/clean/ must produce zero findings; testdata/dirty/ must produce
exactly the expected (file, rule) -> count map below. Any drift — a rule
growing greedier (clean tree fails) or blinder (dirty tree passes) — fails
this test, which runs in ctest tier-1 as lint.selftest.
"""

import collections
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINTER = HERE / "check_invariants.py"

# (relative path, rule) -> expected finding count in testdata/dirty/.
EXPECTED_DIRTY = {
    ("src/core/bad_randomness.cc", "unseeded-randomness"): 3,
    ("src/simrank/bad_status.h", "nodiscard-status"): 3,
    ("src/graph/bad_thread.cc", "thread-primitives"): 1,
    ("src/graph/bad_thread.cc", "mutex-wrapper"): 1,
    ("src/core/bad_mutex.cc", "mutex-wrapper"): 3,
    ("src/core/bad_guarded.h", "guarded-by"): 2,
    ("src/core/bad_unordered.cc", "unordered-iteration"): 2,
    ("src/core/bad_fold.cc", "nondeterministic-fold"): 2,
    ("src/eval/bad_iostream.cc", "iostream-write"): 3,
    ("src/core/bad_trace.cc", "trace-span-literal"): 2,
    ("src/core/bad_failpoint.cc", "failpoint-catalog"): 2,
    ("src/core/bad_failpoint.cc", "status-exception-site"): 1,
    ("src/core/bad_exception_site.cc", "status-exception-site"): 2,
}

FINDING_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def run_linter(root):
    proc = subprocess.run(
        [sys.executable, str(LINTER), "--root", str(root)],
        capture_output=True, text=True)
    findings = collections.Counter()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings[(m.group("path"), m.group("rule"))] += 1
    return proc.returncode, findings, proc.stdout + proc.stderr


def main():
    failures = []

    rc, findings, out = run_linter(HERE / "testdata" / "clean")
    if rc != 0 or findings:
        failures.append("clean tree must lint clean, got rc=%d:\n%s"
                        % (rc, out))

    rc, findings, out = run_linter(HERE / "testdata" / "dirty")
    if rc != 1:
        failures.append("dirty tree must exit 1, got rc=%d:\n%s" % (rc, out))
    if dict(findings) != EXPECTED_DIRTY:
        failures.append(
            "dirty findings mismatch:\n  expected: %r\n  got:      %r\n%s"
            % (EXPECTED_DIRTY, dict(findings), out))

    if failures:
        print("lint_selftest: FAIL", file=sys.stderr)
        for f in failures:
            print("-- " + f, file=sys.stderr)
        return 1
    print("lint_selftest: OK (%d dirty findings verified)"
          % sum(EXPECTED_DIRTY.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
