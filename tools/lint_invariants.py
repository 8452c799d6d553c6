#!/usr/bin/env python3
"""Repo-specific invariant lint — the grep tier.

The semantic invariants (lock discipline, page-borrow escapes, arena epoch
stamps) live in the clang-tidy plugin under tools/conn-tidy/, which tracks
aliases through the AST and is what CI's `lint` job enforces as a hard
error.  This script holds the rules the plugin cannot express: macro
hygiene is invisible to AST matchers once the preprocessor has run.

Run from anywhere:  python3 tools/lint_invariants.py  (exits non-zero and
prints file:line findings when an invariant is violated).  `--list-rules`
prints every rule and what it enforces.  `--root` points the scan at
another tree — the unit test aims it at known-bad fixtures under
tools/lint_fixtures/.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

CC_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}


@dataclass(frozen=True)
class Rule:
    name: str
    summary: str


RULES = [
    Rule(
        name="assert",
        summary=(
            "src/ uses CONN_CHECK / CONN_CHECK_MSG / CONN_DCHECK, never "
            "<cassert> assert(): assert vanishes under NDEBUG, so the "
            "release build (the config every benchmark and the paper's "
            "I/O accounting run under) would silently skip the invariant. "
            "A macro-level rule — conn-tidy sees only the post-preprocess "
            "AST, so this stays a grep."
        ),
    ),
]

ASSERT_RE = re.compile(
    r"(^|[^\w.])assert\s*\(|#\s*include\s*<(cassert|assert\.h)>"
)


def strip_comments(line: str) -> str:
    """Drops // comments (enough for these token-level rules)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def iter_sources(repo: Path, *roots: str):
    for root in roots:
        base = repo / root
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CC_SUFFIXES:
                yield path


def scan(repo: Path) -> list[str]:
    findings: list[str] = []
    for path in iter_sources(repo, "src"):
        rel = path.relative_to(repo)
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if ASSERT_RE.search(strip_comments(raw)):
                findings.append(f"{rel}:{lineno}: [assert] {raw.strip()}")
    return findings


def list_rules() -> None:
    for rule in RULES:
        print(rule.name)
        print(f"  {rule.summary}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repo invariant lint (grep tier; see module docstring)."
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule and what it enforces, then exit",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO,
        help="tree to scan (default: this repo; the unit test points it "
        "at tools/lint_fixtures/)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        list_rules()
        return 0

    findings = scan(args.root.resolve())
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)\n")
        for finding in findings:
            print(finding)
        print("\nRun with --list-rules for what each rule enforces.")
        return 1
    print("lint_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
