#!/usr/bin/env python3
"""Determinism lint for the heterolib tree.

The characterization library promises bit-identical results across runs,
thread counts, and SIMD backends. That contract is easy to break with one
innocuous line — an unseeded rand(), an unordered-container iteration
feeding a sum, a wall-clock read inside a kernel. This lint scans the
deterministic directories (src/core, src/linalg, src/simd, src/sched,
src/etcgen, src/sim, and reference/, the yardsticks those are tested
against) for the known footguns, plus one tree-wide rule: raw standard
mutexes outside src/support (everything else must use support::Mutex so it
participates in lock-rank checking and thread-safety analysis).

A finding can be waived in place when it is deliberate:

    std::getenv("HETERO_SIMD")  // det-waiver: wall-clock -- justification

The waiver names the rule it silences and must carry a justification after
`--`; it applies to its own line, or to the next line when it stands alone.

Exit codes: 0 clean, 1 findings, 2 internal/usage error.

Self-test: `lint_determinism.py --self-test` runs every rule against the
fixtures in tools/lint_fixtures/ (violation_<rule>.cpp must trip exactly
that rule; waived_<rule>.cpp must be clean).
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Directories whose numeric output must be a pure function of their inputs.
DETERMINISTIC_DIRS = (
    "src/core",
    "src/linalg",
    "src/simd",
    "src/sched",
    "src/etcgen",
    "src/sim",
    "reference",
)

# Trees the lint scans.
SCANNED_ROOTS = ("src", "reference")

SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}

WAIVER_RE = re.compile(
    r"//\s*det-waiver:\s*(?P<rule>[a-z0-9-]+)\s*--\s*(?P<why>\S.*)$"
)


class Rule:
    """One banned pattern: where it applies and what to say about it."""

    def __init__(self, name, pattern, message, dirs, exempt_files=()):
        self.name = name
        self.pattern = re.compile(pattern)
        self.message = message
        self.dirs = dirs  # relative prefixes the rule applies to
        self.exempt_files = frozenset(exempt_files)

    def applies_to(self, rel_path: str) -> bool:
        if rel_path in self.exempt_files:
            return False
        return any(rel_path.startswith(d + "/") for d in self.dirs)


RULES = [
    Rule(
        "rand",
        r"\b(?:std::)?s?rand\s*\(",
        "rand()/srand() is hidden global state; use etcgen::Rng with an "
        "explicit seed",
        DETERMINISTIC_DIRS,
    ),
    Rule(
        "random-device",
        r"\bstd::random_device\b",
        "std::random_device is nondeterministic by construction; thread a "
        "seed through etcgen/rng.hpp instead",
        DETERMINISTIC_DIRS,
        exempt_files=("src/etcgen/rng.hpp",),
    ),
    Rule(
        "unordered-container",
        r"\bstd::unordered_(?:multi)?(?:map|set)\b",
        "unordered-container iteration order varies with libstdc++ version "
        "and hash seeding; use a sorted container or waive with proof that "
        "iteration order never feeds a numeric result",
        DETERMINISTIC_DIRS,
    ),
    Rule(
        "wall-clock",
        r"\b(?:std::chrono::)?(?:system_clock|high_resolution_clock|"
        r"steady_clock)\b|\bstd::time\s*\(|\bclock\s*\(\s*\)|"
        r"\bgettimeofday\s*\(|\bclock_gettime\s*\(|\bstd::getenv\s*\(",
        "clocks and environment reads make results depend on when/where the "
        "code runs; compute from explicit inputs only",
        DETERMINISTIC_DIRS,
    ),
    Rule(
        "raw-mutex",
        r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
        r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?)\b",
        "raw standard mutexes bypass lock-rank checking and thread-safety "
        "annotations; use support::Mutex / support::CondVar",
        SCANNED_ROOTS,
        exempt_files=(),
    ),
]

# src/support implements the wrappers, so it is the one place allowed to
# name the standard primitives.
RAW_MUTEX_EXEMPT_PREFIX = "src/support/"


def strip_comments_and_strings(lines):
    """Per-line code text with comments and string/char literals blanked.

    Keeps line count and column positions stable (everything removed is
    replaced by spaces) so findings can report real locations. A lightweight
    scanner, not a lexer: raw strings are treated like plain strings, which
    is fine for pattern matching (their contents are blanked either way).
    """
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        in_string = None  # the quote char when inside a literal
        while i < len(line):
            c = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    buf.append("  ")
                    i += 2
                    continue
                buf.append(" ")
                i += 1
                continue
            if in_string:
                if c == "\\":
                    buf.append("  ")
                    i += 2
                    continue
                if c == in_string:
                    in_string = None
                buf.append(" ")
                i += 1
                continue
            if c == "/" and nxt == "/":
                buf.append(" " * (len(line) - i))
                break
            if c == "/" and nxt == "*":
                in_block = True
                buf.append("  ")
                i += 2
                continue
            if c in "\"'":
                in_string = c
                buf.append(" ")
                i += 1
                continue
            buf.append(c)
            i += 1
        out.append("".join(buf))
    return out


def collect_waivers(lines):
    """Maps 1-based line number -> set of waived rule names."""
    waivers = {}
    for idx, line in enumerate(lines, start=1):
        m = WAIVER_RE.search(line)
        if not m:
            continue
        target = idx
        # A standalone waiver comment covers the next code line (skipping
        # the rest of its own comment block, so justifications may wrap).
        if line.lstrip().startswith("//"):
            target = idx + 1
            while (target <= len(lines)
                   and lines[target - 1].lstrip().startswith("//")):
                target += 1
        waivers.setdefault(target, set()).add(m.group("rule"))
    return waivers


def scan_file(path, rel_path, rules):
    """Returns (findings, waiver_errors) for one file.

    findings: list of (rel_path, line_number, rule, code_line).
    waiver_errors: waivers naming unknown rules (typo protection).
    """
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        raise SystemExit(f"lint_determinism: cannot read {path}: {e}")
    lines = text.splitlines()
    code = strip_comments_and_strings(lines)
    waivers = collect_waivers(lines)

    known = {r.name for r in RULES}
    waiver_errors = []
    for lineno, names in waivers.items():
        for name in names - known:
            waiver_errors.append(
                (rel_path, min(lineno, len(lines)),
                 f"waiver names unknown rule '{name}'")
            )

    findings = []
    for rule in rules:
        for idx, stripped in enumerate(code, start=1):
            if not rule.pattern.search(stripped):
                continue
            if rule.name in waivers.get(idx, set()):
                continue
            findings.append((rel_path, idx, rule, lines[idx - 1].strip()))
    return findings, waiver_errors


def iter_source_files(root):
    for rel_dir in SCANNED_ROOTS:
        base = root / rel_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                yield path


def rules_for(rel_path):
    selected = []
    for rule in RULES:
        if rule.name == "raw-mutex" and rel_path.startswith(
                RAW_MUTEX_EXEMPT_PREFIX):
            continue
        if rule.applies_to(rel_path):
            selected.append(rule)
    return selected


def run_lint(root):
    findings = []
    errors = []
    for path in iter_source_files(root):
        rel_path = path.relative_to(root).as_posix()
        selected = rules_for(rel_path)
        got, waiver_errors = scan_file(path, rel_path, selected)
        findings.extend(got)
        errors.extend(waiver_errors)

    for rel_path, lineno, rule, code_line in findings:
        print(f"{rel_path}:{lineno}: [{rule.name}] {rule.message}")
        print(f"    {code_line}")
    for rel_path, lineno, message in errors:
        print(f"{rel_path}:{lineno}: [waiver] {message}")
    total = len(findings) + len(errors)
    if total:
        print(f"lint_determinism: {total} finding(s)")
        return 1
    print("lint_determinism: clean")
    return 0


def run_self_test(root):
    """Every rule must trip on its violation fixture and stay quiet on the
    waived twin; a missing fixture is itself a failure."""
    fixture_dir = root / "tools" / "lint_fixtures"
    failures = []
    for rule in RULES:
        for kind, expect_hit in (("violation", True), ("waived", False)):
            name = f"{kind}_{rule.name}.cpp"
            path = fixture_dir / name
            if not path.is_file():
                failures.append(f"missing fixture {name}")
                continue
            findings, waiver_errors = scan_file(path, name, [rule])
            if waiver_errors:
                failures.append(f"{name}: {waiver_errors}")
            hit = bool(findings)
            if hit != expect_hit:
                state = "tripped" if hit else "stayed quiet"
                failures.append(
                    f"{name}: rule '{rule.name}' {state}, expected the "
                    f"opposite"
                )
    # The waiver parser itself: an unknown rule name must be reported.
    bogus = fixture_dir / "bad_waiver.cpp"
    if bogus.is_file():
        _, waiver_errors = scan_file(bogus, "bad_waiver.cpp", [])
        if not waiver_errors:
            failures.append("bad_waiver.cpp: unknown-rule waiver not caught")
    else:
        failures.append("missing fixture bad_waiver.cpp")

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}")
        return 1
    print(f"self-test: {len(RULES) * 2 + 1} fixture checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo-root", type=pathlib.Path, default=REPO_ROOT)
    parser.add_argument(
        "--self-test", action="store_true",
        help="check the rules against tools/lint_fixtures/ and exit",
    )
    args = parser.parse_args(argv)
    root = args.repo_root.resolve()
    if args.self_test:
        return run_self_test(root)
    return run_lint(root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
