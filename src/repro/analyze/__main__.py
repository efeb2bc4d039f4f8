"""``python -m repro.analyze [paths]`` — run simlint from the shell.

Exit status: 0 when clean, 1 when findings exist, 2 on usage or parse
errors (including a nonexistent input path, validated up front so a CI
typo fails loudly instead of linting nothing).  CI runs ``python -m
repro.analyze --select SIM,PERF,DET --profile-json BENCH_profile.json
src examples tools`` and fails the build on any finding.

``--format json`` emits a machine-readable report (a JSON object with
``findings`` and ``errors`` arrays) for editor and CI integrations; the
default ``text`` format is one ``path:line:col: CODE message`` line per
finding, which ``.github/simlint-problem-matcher.json`` teaches GitHub
Actions to annotate inline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analyze.detrules import DET_RULE_CODES
from repro.analyze.linter import analyze_paths
from repro.analyze.perfrules import PERF_RULE_CODES
from repro.analyze.profilehot import HotSet
from repro.analyze.rules import RULE_CODES

# Every selectable rule: the SIM correctness rules (the default
# selection), the PERF hot-path rules and the DET environment rule
# (both opt-in via --select).
_ALL_CODES = {**RULE_CODES, **PERF_RULE_CODES, **DET_RULE_CODES}

# Rule families, in catalogue order.  --select/--ignore accept a bare
# family name as shorthand for every code in it.
_FAMILIES = {
    "SIM": (RULE_CODES, "correctness — silent DES bugs"),
    "PERF": (PERF_RULE_CODES, "hot-path waste, scoped by --profile-json"),
    "DET": (DET_RULE_CODES, "environment isolation for deterministic sweeps"),
}


def _expand_tokens(spec: str) -> tuple:
    """``"DET,SIM002"`` → (codes in spec order, unknown tokens)."""
    codes: List[str] = []
    unknown: List[str] = []
    for token in (t.strip().upper() for t in spec.split(",")):
        if not token:
            continue
        if token in _ALL_CODES:
            codes.append(token)
        elif token in _FAMILIES:
            codes.extend(sorted(_FAMILIES[token][0]))
        else:
            unknown.append(token)
    return codes, unknown


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="DES-aware static analysis (simlint) for this "
                    "reproduction's simulation code.",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes or families to run "
                             "(e.g. SIM002,PERF003 or DET); default: all "
                             "SIM rules")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes or families to "
                             "drop from the selection (e.g. PERF or SIM003)")
    parser.add_argument("--profile-json", metavar="PATH",
                        help="scope the PERF rules to the hot set of this "
                             "dump (python -m repro.analyze.profilehot "
                             "--write PATH)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for family, (codes, blurb) in _FAMILIES.items():
            print(f"{family} — {blurb}")
            for code in sorted(codes):
                doc = (codes[code].__doc__ or "").strip().splitlines()[0]
                print(f"  {code}  {doc}")
        return 0

    if args.select:
        selected, unknown = _expand_tokens(args.select)
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    else:
        selected = sorted(RULE_CODES)
    if args.ignore:
        dropped, unknown = _expand_tokens(args.ignore)
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        selected = [c for c in selected if c not in set(dropped)]
    seen = set()
    rules = [_ALL_CODES[c] for c in selected
             if not (c in seen or seen.add(c))]

    hotset = None
    if args.profile_json:
        if not os.path.exists(args.profile_json):
            print(f"error: no such profile: {args.profile_json}",
                  file=sys.stderr)
            return 2
        hotset = HotSet.load(args.profile_json)

    missing = [p for p in args.paths if not os.path.exists(p)]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}",
                  file=sys.stderr)
        return 2

    try:
        findings, errors = analyze_paths(args.paths, rules=rules,
                                         hotset=hotset)
    except FileNotFoundError as exc:  # raced away after the check above
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps({
            "findings": [
                {"path": f.path, "line": f.line, "col": f.col,
                 "code": f.code, "message": f.message}
                for f in findings
            ],
            "errors": errors,
        }, indent=2, sort_keys=True))
    else:
        for line in errors:
            print(f"error: {line}", file=sys.stderr)
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"simlint: {len(findings)} finding(s)", file=sys.stderr)
    if errors:
        return 2
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
