#!/usr/bin/env python3
"""ftpim determinism & hygiene linter.

Machine-checks the repo rules that keep the paper's Monte-Carlo fault
statistics reproducible (see DESIGN.md "Invariants & determinism rules"):

  rng-source            std::rand/srand/std::random_device/time() are banned
                        everywhere except src/common/rng.cpp — all randomness
                        must flow through the seeded ftpim::Rng streams.
  unordered-output      std::unordered_{map,set} are banned in the
                        serialization and table-rendering layers: iteration
                        order would leak hash-table layout into checkpoints
                        and printed tables.
  raw-stdout            std::cout / std::cerr / printf / puts are banned in
                        src/ — library code reports through the logging layer
                        (line-atomic, sink-capturable) or returns strings
                        (TablePrinter::render); only bench/, examples/ and
                        tests/ may print.
  pragma-once           every header carries #pragma once.
  assert-in-header      raw assert()/<cassert> is banned in headers — use
                        FTPIM_CHECK* / FTPIM_DCHECK* (src/common/check.hpp),
                        which throw a typed, testable ContractViolation.
  serve-wall-clock      std::chrono::*_clock::now() is banned in src/serve/
                        outside clock.hpp — serving code reads time through
                        the injectable ServeClock so deadline/linger tests
                        can drive a ManualServeClock deterministically.
  raw-file-write        std::ofstream / fopen-for-write are banned in src/
                        outside AtomicFileWriter and the log sink — a direct
                        write can be killed mid-file and leave a torn
                        artifact; durable files go through AtomicFileWriter
                        (src/common/atomic_file.hpp: temp + fsync + rename).
  simd-intrinsics       raw SIMD intrinsics (<immintrin.h>, _mm*/__m256...)
                        are banned in src/ outside src/tensor/kernels/ —
                        vector code lives behind the kernel backend's runtime
                        dispatch (FTPIM_KERNEL) so every algorithm keeps a
                        portable scalar path and the scalar/AVX2 pair stays
                        testable against each other.
  test-temp-path        std::filesystem::temp_directory_path() and gtest's
                        ::testing::TempDir() are banned in tests/ outside
                        tests/test_util.hpp — ctest runs every test as its
                        own process, so a fixed temp path is shared by
                        concurrent tests; take a private directory from
                        testing::scratch_dir() instead.

Usage:
  ftpim_lint.py --root <repo>      lint the tree (exit 1 on any finding)
  ftpim_lint.py --self-test        run the rule engine against the known-bad
                                   fixtures in tools/lint_fixtures/ and fail
                                   unless every expected rule fires (and the
                                   known-good fixture stays clean)
Registered as ctest targets `lint.tree` and `lint.selftest`.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

CODE_DIRS = ("src", "bench", "tests", "examples")
HEADER_EXT = (".hpp", ".h")
SOURCE_EXT = (".cpp", ".cc") + HEADER_EXT


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    text: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.text}"


@dataclass
class Rule:
    name: str
    pattern: re.Pattern
    message: str
    # Relative-path predicates (posix separators, relative to the scan root).
    applies: "callable" = lambda rel: True
    allowed: "callable" = lambda rel: False


def _strip_comments(line: str) -> str:
    """Drops // comments so documentation may mention banned identifiers."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def in_src(rel: str) -> bool:
    return rel.startswith("src/")


def is_header(rel: str) -> bool:
    return rel.endswith(HEADER_EXT)


def is_output_path_file(rel: str) -> bool:
    base = os.path.basename(rel)
    return base.startswith(("serialize", "table_printer"))


RULES = [
    Rule(
        name="rng-source",
        pattern=re.compile(
            r"\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0|\))"
        ),
        message="nondeterministic randomness source; use the seeded ftpim::Rng "
        "(src/common/rng.hpp) so runs reproduce bit-for-bit",
        applies=in_src,
        allowed=lambda rel: rel == "src/common/rng.cpp",
    ),
    Rule(
        name="unordered-output",
        pattern=re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b|<unordered_map>|<unordered_set>"),
        message="unordered container in a serialization/rendering path; "
        "iteration order is hash-layout-dependent — use std::map/std::vector",
        applies=lambda rel: in_src(rel) and is_output_path_file(rel),
    ),
    Rule(
        name="raw-stdout",
        pattern=re.compile(r"\bstd::cout\b|\bstd::cerr\b|(?<![\w:])printf\s*\(|\bstd::puts\b|(?<![\w:])puts\s*\("),
        message="raw console output in library code; log through "
        "src/common/logging.hpp or return a string (TablePrinter::render)",
        applies=in_src,
        allowed=lambda rel: rel.startswith("src/common/logging."),
    ),
    Rule(
        name="assert-in-header",
        pattern=re.compile(r"(?<![\w_])assert\s*\(|<cassert>|\"cassert\""),
        message="raw assert in a header; use FTPIM_CHECK*/FTPIM_DCHECK* from "
        "src/common/check.hpp (typed, testable, Release-aware)",
        applies=lambda rel: in_src(rel) and is_header(rel),
    ),
    Rule(
        name="serve-wall-clock",
        pattern=re.compile(
            r"\bstd::chrono::(?:steady_clock|system_clock|high_resolution_clock)::now\s*\("
        ),
        message="direct wall-clock read in the serving layer; go through the "
        "injectable ServeClock (src/serve/clock.hpp) so deadline and linger "
        "behavior stays testable with ManualServeClock",
        applies=lambda rel: rel.startswith("src/serve/"),
        allowed=lambda rel: rel == "src/serve/clock.hpp",
    ),
    Rule(
        name="raw-file-write",
        pattern=re.compile(
            r"\bstd::ofstream\b|\bstd::fstream\b|(?<![\w:])ofstream\b|"
            r"\bfopen\s*\([^)\n]*\"[wa][b+t]*\""
        ),
        message="direct file write in library code; a crash mid-write leaves "
        "a torn file — write durable artifacts through AtomicFileWriter "
        "(src/common/atomic_file.hpp)",
        applies=in_src,
        allowed=lambda rel: rel == "src/common/atomic_file.cpp"
        or rel.startswith("src/common/logging."),
    ),
    Rule(
        name="simd-intrinsics",
        pattern=re.compile(
            r"<(?:immintrin|x86intrin|emmintrin|xmmintrin|smmintrin|avxintrin)\.h>|"
            r"\b_mm\d*_\w+|\b__m(?:128|256|512)[di]?\b"
        ),
        message="raw SIMD intrinsics outside the kernel backend; vector code "
        "lives in src/tensor/kernels/ behind the runtime dispatch "
        "(FTPIM_KERNEL) so every path keeps a portable scalar twin",
        applies=in_src,
        allowed=lambda rel: rel.startswith("src/tensor/kernels/"),
    ),
    Rule(
        name="test-temp-path",
        pattern=re.compile(r"\btemp_directory_path\b|\bTempDir\s*\("),
        message="shared temp path in a test; ctest -j runs tests as concurrent "
        "processes — use testing::scratch_dir() (tests/test_util.hpp), which "
        "is private to the test",
        applies=lambda rel: rel.startswith("tests/"),
        allowed=lambda rel: rel == "tests/test_util.hpp",
    ),
]

PRAGMA_ONCE_RULE = "pragma-once"


def iter_files(root: str):
    for top in CODE_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames if d not in ("CMakeFiles", ".git")]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXT):
                    full = os.path.join(dirpath, name)
                    rel = os.path.relpath(full, root).replace(os.sep, "/")
                    yield full, rel


def lint_tree(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for full, rel in iter_files(root):
        try:
            with open(full, encoding="utf-8", errors="replace") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            findings.append(Finding("io-error", rel, 0, str(exc)))
            continue

        if rel.endswith(HEADER_EXT) and not any("#pragma once" in ln for ln in lines):
            findings.append(
                Finding(PRAGMA_ONCE_RULE, rel, 1, "header is missing #pragma once")
            )

        active = [r for r in RULES if r.applies(rel) and not r.allowed(rel)]
        if not active:
            continue
        for lineno, raw in enumerate(lines, start=1):
            code = _strip_comments(raw)
            if not code.strip():
                continue
            for rule in active:
                if rule.pattern.search(code):
                    findings.append(Finding(rule.name, rel, lineno, rule.message))
    return findings


def self_test(fixture_root: str) -> int:
    """The linter must flag every seeded violation and keep the good file clean."""
    findings = lint_tree(fixture_root)
    by_file: dict[str, dict[str, int]] = {}
    for f in findings:
        rules = by_file.setdefault(f.path, {})
        rules[f.rule] = rules.get(f.rule, 0) + 1

    # path -> {rule: lines it must flag at least}
    expected = {
        "src/bad/determinism_violations.cpp": {"rng-source": 1, "raw-stdout": 1},
        "src/bad/bad_contract.hpp": {"assert-in-header": 1, PRAGMA_ONCE_RULE: 1},
        "src/common/serialize.cpp": {"unordered-output": 1},
        "src/serve/bad_wall_clock.cpp": {"serve-wall-clock": 1},
        "src/bad/raw_file_write.cpp": {"raw-file-write": 1},
        "src/bad/simd_leak.cpp": {"simd-intrinsics": 1},
        # temp_directory_path() and ::testing::TempDir(), one line each
        "tests/bad_temp_path.cpp": {"test-temp-path": 2},
    }
    good = "src/good/clean_module.hpp"

    failures = []
    for path, rules in expected.items():
        fired = by_file.get(path, {})
        for rule, count in sorted(rules.items()):
            if fired.get(rule, 0) < count:
                failures.append(
                    f"expected rule {rule} on {count} line(s) of {path}, "
                    f"it fired on {fired.get(rule, 0)}"
                )
    if good in by_file:
        failures.append(f"known-good fixture {good} was flagged: {sorted(by_file[good])}")

    if failures:
        print("ftpim_lint self-test FAILED:")
        for msg in failures:
            print("  " + msg)
        print("\nall findings on the fixture tree:")
        for f in findings:
            print("  " + str(f))
        return 1
    print(
        f"ftpim_lint self-test OK: {len(findings)} finding(s) on the bad fixtures, "
        "known-good fixture clean"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root to lint")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint tools/lint_fixtures/ and verify the known-bad files are flagged",
    )
    args = parser.parse_args()

    if args.self_test:
        fixture_root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "lint_fixtures")
        return self_test(fixture_root)

    findings = lint_tree(args.root)
    if findings:
        print(f"ftpim_lint: {len(findings)} finding(s):")
        for f in findings:
            print("  " + str(f))
        return 1
    print("ftpim_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
