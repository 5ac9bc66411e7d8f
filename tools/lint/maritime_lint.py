#!/usr/bin/env python3
"""maritime-lint: project-specific static analysis for the maritime
surveillance engine (DESIGN.md §12).

Checks invariants the compiler cannot see:
  arena-escape     slide-arena memory must not outlive the slide
                   (copy-out-at-commit memory model, DESIGN.md §10)
  status-discard   Status/Result return values must be consumed
  lock-discipline  owned mutexes must guard something (-Wthread-safety
                   cannot check what is never annotated)
  determinism      commit/output paths must not depend on unordered
                   container iteration order (bit-identical recognition
                   and snapshot bytes, DESIGN.md §9/§10)

A dependency-free lexical model of the sources (source_model.py) feeds the
rule implementations (rules.py); the fixtures under tests/lint/ pin their
verdicts.

Usage:
  tools/lint/maritime_lint.py [paths...]          # default: src bench
  tools/lint/maritime_lint.py --verify tests/lint # expected-diagnostic mode
  tools/lint/maritime_lint.py --list-rules

Exit codes: 0 clean / verified, 1 diagnostics or verify mismatch,
2 configuration error (no sources, unknown rule).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rules import Diagnostic, Project, RULES, run_rules  # noqa: E402
from source_model import SourceFile  # noqa: E402

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp", ".cxx")


def collect_files(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isfile(p):
            out.append(p)
            continue
        for dirpath, dirnames, filenames in os.walk(p):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    out.append(os.path.join(dirpath, name))
    return out


def build_project(files: list[str]) -> Project:
    models = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"maritime-lint: cannot read {path}: {e}", file=sys.stderr)
            continue
        rel = os.path.relpath(path, REPO_ROOT)
        models.append(SourceFile(rel if not rel.startswith("..") else path,
                                 text))
    return Project(models)


def cmd_lint(args) -> int:
    files = collect_files(args.paths)
    if not files:
        print("maritime-lint: no source files found", file=sys.stderr)
        return 2
    project = build_project(files)
    names = args.rules.split(",") if args.rules else None
    if names:
        unknown = [n for n in names if n not in RULES]
        if unknown:
            print(f"maritime-lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    diags = run_rules(project, names)
    for d in diags:
        print(d)
    n_files = len(project.files)
    if diags:
        print(f"maritime-lint: {len(diags)} diagnostic(s) over "
              f"{n_files} files", file=sys.stderr)
        return 1
    print(f"maritime-lint: clean ({n_files} files, "
          f"{len(names) if names else len(RULES)} rules)")
    return 0


def cmd_verify(args) -> int:
    """clang -verify style harness: every `// lint-expect: rule` comment must
    be matched by a diagnostic with that rule on that line, and every emitted
    diagnostic must be expected."""
    files = collect_files([args.verify])
    if not files:
        print(f"maritime-lint: no fixtures under {args.verify}",
              file=sys.stderr)
        return 2
    project = build_project(files)
    diags = run_rules(project)
    expected = set()
    for sf in project.files:
        for line, rule in sf.expects:
            expected.add((sf.path, line, rule))
    got = {(d.path, d.line, d.rule) for d in diags}
    missing = sorted(expected - got)
    unexpected = sorted(got - expected)
    for path, line, rule in missing:
        print(f"{path}:{line}: expected [{rule}] diagnostic not emitted")
    for path, line, rule in unexpected:
        d = next(x for x in diags
                 if (x.path, x.line, x.rule) == (path, line, rule))
        print(f"{path}:{line}: unexpected diagnostic: [{rule}] {d.message}")
    total = len(expected)
    if missing or unexpected:
        print(f"maritime-lint: verify FAILED — {len(missing)} "
              f"missing, {len(unexpected)} unexpected "
              f"(of {total} expectations)", file=sys.stderr)
        return 1
    print(f"maritime-lint: verify OK — {total} expected diagnostics "
          f"matched, {len(project.files)} fixture files")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="maritime-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*",
                    default=[os.path.join(REPO_ROOT, "src"),
                             os.path.join(REPO_ROOT, "bench")],
                    help="files or directories to lint (default: src bench)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--verify", metavar="DIR", default=None,
                    help="expected-diagnostic mode over a fixture directory")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args(argv)
    if args.list_rules:
        for name, fn in sorted(RULES.items()):
            print(f"{name:16} {fn.rule_doc}")
        return 0
    if args.verify:
        return cmd_verify(args)
    return cmd_lint(args)


if __name__ == "__main__":
    sys.exit(main())
