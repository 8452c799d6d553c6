#!/usr/bin/env python3
"""Unit test for tools/lint_invariants.py, run via ctest.

Points the linter at the known-bad tree under tools/lint_fixtures/ and
asserts (a) it flags exactly the assert fixture's include and call,
(b) the clean fixture is never flagged, and (c) --list-rules names every
rule.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
LINT = TOOLS / "lint_invariants.py"
FIXTURES = TOOLS / "lint_fixtures"


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main() -> int:
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    # The assert rule fires on both the include and the call in
    # bad_assert.cc, and on nothing else.
    lint = run_lint("--root", str(FIXTURES))
    expect(lint.returncode == 1, "expected exit 1 on bad fixtures")
    findings = [line for line in lint.stdout.splitlines() if ": [" in line]
    expect(
        len(findings) == 2
        and all("bad_assert.cc" in f and "[assert]" in f for f in findings),
        f"expected 2 assert findings in bad_assert.cc, got:\n{lint.stdout}",
    )
    expect(
        "clean_ok.cc" not in lint.stdout,
        "the clean fixture must never be flagged",
    )

    # --list-rules: every rule.
    listing = run_lint("--list-rules")
    expect(listing.returncode == 0, "--list-rules: expected exit 0")
    expect(
        "assert" in listing.stdout,
        f"--list-rules output missing 'assert':\n{listing.stdout}",
    )

    if failures:
        print(f"lint_invariants_test: {len(failures)} failure(s)")
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print("lint_invariants_test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
