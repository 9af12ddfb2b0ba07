#!/usr/bin/env python3
"""Reachability lint: libhetero ships only what the binaries run.

Every member of the static library must be linked into at least one
shipped executable (examples/, tools/ and the non-perf_* bench
reproducers). A static link pulls in whole archive members, so a member is
linked exactly when one of its strong global definitions (nm types T, D, B,
R, G, S) appears in an executable's symbol table. A member no executable
pulls in is code the library carries for tests or benchmarks alone: move it
to reference/ (hetero_reference) or delete it.

A member may be exempted by an allowlist entry that gives the reason:

    src/support/lock_rank.cpp -- <why no executable links it>

Entries name the member's source file; the reason after `--` is required.
An entry whose member no longer exists in the library is itself an error,
so the allowlist cannot go stale.

Usage:
    lint_reachability.py --library build/src/libhetero.a \\
        [--nm nm] [--allowlist tools/reachability_allowlist.txt] EXE...

Exit codes: 0 clean, 1 findings, 2 usage or tool error.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_ALLOWLIST = REPO_ROOT / "tools" / "reachability_allowlist.txt"

# Strong definitions. Weak (W, V), unique (u) and common symbols can be
# defined by several objects, so seeing one in an executable does not say
# which member it came from.
STRONG_TYPES = set("TDBRGS")


def run_nm(nm, path, extern_only):
    args = [nm, "--defined-only"]
    if extern_only:
        args.append("--extern-only")
    try:
        out = subprocess.run(args + [str(path)], check=True,
                             capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"lint_reachability: {' '.join(args)} {path}: {e}")
    return out.splitlines()


def library_members(nm, library):
    """Maps member name -> set of its strong global definitions."""
    members = {}
    current = None
    for line in run_nm(nm, library, extern_only=True):
        if line.endswith(":") and " " not in line:
            current = members.setdefault(line[:-1], set())
            continue
        parts = line.split()
        if current is not None and len(parts) == 3 \
                and parts[1] in STRONG_TYPES:
            current.add(parts[2])
    return members


def executable_symbols(nm, exe):
    symbols = set()
    for line in run_nm(nm, exe, extern_only=False):
        parts = line.split()
        if len(parts) == 3:
            symbols.add(parts[2])
    return symbols


def read_allowlist(path):
    """Maps member name -> (source path, reason); exits on a bad entry."""
    entries = {}
    errors = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        source, sep, reason = line.partition("--")
        source, reason = source.strip(), reason.strip()
        if not sep or not source or not reason:
            errors.append(f"{path}:{lineno}: expected "
                          f"'<source> -- <reason>', got: {raw}")
            continue
        entries[pathlib.PurePosixPath(source).name + ".o"] = (source, reason)
    if errors:
        print("\n".join(errors))
        raise SystemExit(2)
    return entries


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--library", type=pathlib.Path, required=True)
    parser.add_argument("--nm", default="nm")
    parser.add_argument("--allowlist", type=pathlib.Path,
                        default=DEFAULT_ALLOWLIST)
    parser.add_argument("executables", nargs="+", type=pathlib.Path)
    args = parser.parse_args(argv)

    members = library_members(args.nm, args.library)
    if not members:
        print(f"lint_reachability: no members found in {args.library}")
        return 2
    linked = set()
    for exe in args.executables:
        linked |= executable_symbols(args.nm, exe)
    allowlist = read_allowlist(args.allowlist)

    findings = []
    for member, defined in sorted(members.items()):
        if member in allowlist or defined & linked:
            continue
        findings.append(f"{member}: linked by none of the "
                        f"{len(args.executables)} shipped executables "
                        f"({len(defined)} strong globals)")
    for member, (source, _) in sorted(allowlist.items()):
        if member not in members:
            findings.append(f"{args.allowlist.name}: entry {source} names "
                            f"no member of {args.library.name}")

    for f in findings:
        print(f"lint_reachability: {f}")
    if findings:
        print(f"lint_reachability: {len(findings)} finding(s)")
        return 1
    print(f"lint_reachability: clean ({len(members)} members, "
          f"{len(allowlist)} allowlisted, {len(args.executables)} "
          f"executables)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
