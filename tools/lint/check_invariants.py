#!/usr/bin/env python3
"""Project-invariant linter: repo-specific rules clang-tidy cannot express.

Rules (see docs/STATIC_ANALYSIS.md for rationale and suppression policy):

  nodiscard-status     Every header declaration returning Status or
                       StatusOr<T> (including every Validate()) must carry
                       [[nodiscard]] — a dropped Status silently corrupts
                       the (epsilon, delta) guarantee. Applies to src/**/*.h.

  thread-primitives    Raw std::thread / std::jthread are confined to
                       src/util/parallel.* (the shared pool) and src/serve/
                       (accept/connection threads). Library code
                       parallelises through ParallelFor so thread ownership
                       stays in audited, TSan-hammered places.

  mutex-wrapper        The std mutex family (std::mutex and variants,
                       std::condition_variable*, std::lock_guard /
                       unique_lock / scoped_lock / shared_lock) is confined
                       to src/util/mutex.h. Everything else locks through
                       crashsim::Mutex / MutexLock / CondVar, whose
                       capability attributes are what lets the clang
                       -Wthread-safety CI lane prove lock discipline — a raw
                       std::mutex is invisible to that analysis.
                       std::once_flag / call_once are allowed (no guarded
                       state, no annotation story).

  guarded-by           A file that declares a crashsim::Mutex member must
                       annotate the protected state with
                       CRASHSIM_GUARDED_BY (an "// under mu_" comment alone
                       no longer counts), and raw __attribute__((guarded_by
                       / capability / ...)) spellings are confined to
                       src/util/thread_annotations.h so the GCC no-op path
                       stays uniform.

  unseeded-randomness  No rand()/srand()/time()/std::random_device in
                       src/core/ or src/simrank/: all randomness flows from
                       explicit seeds (util/rng.h) so results stay
                       bit-reproducible across runs and thread counts.

  unordered-iteration  No iteration over std::unordered_map/set (range-for
                       or .begin() family) in src/core/ or src/simrank/:
                       hash-table order is libstdc++-version- and
                       seed-dependent, so any fold, RNG draw, or output
                       ordering driven by it silently breaks the
                       bit-identity contract (DESIGN.md §3b). Point lookups
                       are fine; iterate a sorted copy or switch to
                       std::map/vector.

  nondeterministic-fold
                       No std::reduce / std::transform_reduce /
                       std::execution policies in src/core/ or src/simrank/:
                       their operand grouping is unspecified, so
                       floating-point sums change across runs. Accumulate
                       sequentially or through the PerWalkSeed fold
                       discipline.

  iostream-write       Library code (src/**) never writes to stdout/stderr:
                       no <iostream>, std::cout/cerr/clog, printf, or
                       fprintf(stdout/stderr). Errors travel as Status;
                       diagnostics go through util/logging.h (the one
                       exempted module, which owns the terminal sink).

  trace-span-literal   Every TRACE_SPAN(...) name must be a compile-time
                       string literal: the tracer (util/trace.h) stores the
                       char* without copying — a dynamic name dangles by
                       export time, and literal names are what the
                       aggregated self/total table keys on. Applies to
                       src/**.

  failpoint-catalog    Every CRASHSIM_FAILPOINT(...) /
                       CRASHSIM_FAILPOINT_THROW(...) name must be a string
                       literal registered in the kFailpointCatalog array in
                       src/util/failpoint.cc. ConfigureFailpoint rejects
                       unknown names at runtime; this rule closes the other
                       half — a site whose name never made it into the
                       catalog can never be armed, so the chaos tier would
                       silently skip it. Applies to src/**.

  status-exception-site
                       CRASHSIM_FAILPOINT_THROW(...) and
                       throw StatusException appear only in
                       src/util/parallel.cc, whose ParallelFor shard bodies
                       have no Status return channel, and at their
                       definitions in src/util/failpoint.h and
                       src/util/status.h. Everywhere else a failure travels
                       as a returned Status, so there is one error path to
                       check and no exception for a caller to miss.
                       Applies to src/**; preprocessor lines are out of
                       scope.

Suppression: append  // lint:allow(<rule-id>): <justification>  to the
offending line, or put it on a comment-only line immediately above. The
justification is mandatory — a bare allow is an error.

Exit code 0 when clean, 1 with one "path:line: [rule] message" per finding
otherwise. No dependencies beyond the Python 3 standard library.
"""

import argparse
import re
import sys
from pathlib import Path

HEADER_EXTS = {".h", ".hpp"}
SOURCE_EXTS = {".h", ".hpp", ".cc", ".cpp"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z-]+)\)(:?\s*(\S.*))?$")

# A declaration whose return type is Status or StatusOr<...> followed by a
# function name and an opening paren. Deliberately does not match:
#   Status status;                (member / local: no paren)
#   Status(StatusCode code, ...)  (constructor: no name between type and paren)
#   const Status& status() const  (reference accessors need no nodiscard)
STATUS_DECL_RE = re.compile(
    r"\b(?:Status|StatusOr<[^;=]*>)\s+(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\("
)

THREAD_PRIMITIVE_RE = re.compile(r"\bstd::(thread|jthread)\b")
# The pool owns its workers; the server owns its accept/connection threads
# (a TCP server cannot be expressed as a data-parallel loop). Both are
# TSan-covered. Mutexes and condition variables are governed separately by
# the mutex-wrapper rule: any module may lock, but only through the
# annotated wrappers.
THREAD_EXEMPT = ("src/util/parallel.", "src/serve/")

# The std lock vocabulary, legal only inside the annotated wrappers.
# std::once_flag / std::call_once are deliberately absent: call_once guards
# initialisation, not state, and has no capability-annotation story.
MUTEX_PRIMITIVE_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable|"
    r"condition_variable_any|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
MUTEX_EXEMPT = ("src/util/mutex.h",)

# guarded-by rule: a crashsim::Mutex member declaration (references are
# someone else's mutex and carry no guarded state of their own)...
MUTEX_MEMBER_RE = re.compile(r"\bMutex\s+(\w+)\s*;")
# ...and the annotation marker that must appear somewhere in the same file.
GUARD_MARKER_RE = re.compile(r"\bCRASHSIM_(?:PT_)?GUARDED_BY\s*\(")
# Raw thread-safety attribute spellings (format/printf attributes etc. are
# unrelated and stay legal).
RAW_TSA_ATTR_RE = re.compile(
    r"__attribute__\s*\(\(\s*(?:guarded_by|pt_guarded_by|capability|"
    r"lockable|scoped_lockable|requires_capability|acquire_capability|"
    r"release_capability|try_acquire_capability|locks_excluded|"
    r"exclusive_locks_required|shared_locks_required|assert_capability|"
    r"lock_returned|acquired_after|acquired_before|"
    r"no_thread_safety_analysis)\b"
)
GUARDED_EXEMPT = ("src/util/mutex.h", "src/util/thread_annotations.h")

# rand() takes no arguments and C time() is called as time(NULL / nullptr /
# 0 / &var), so matching those call shapes keeps members *named* time(...)
# out of scope.
RANDOMNESS_RE = re.compile(
    r"(?<![\w:])(?:std::)?rand\s*\(\s*\)|(?<![\w:])(?:std::)?srand\s*\(|"
    r"(?<![\w:.])(?:std::)?time\s*\(\s*(?:NULL\b|nullptr\b|0[,)]|&)|"
    r"\bstd::random_device\b"
)
RANDOMNESS_DIRS = ("src/core/", "src/simrank/")

# unordered-iteration: declarations are collected by _unordered_names (a
# bracket-matching scan, so multi-parameter templates parse); these match the
# iteration sites.
UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:multi)?(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?r?begin\s*\(")

NONDET_FOLD_RE = re.compile(
    r"\bstd::(reduce|transform_reduce|execution::\w+)\b")

IOSTREAM_RE = re.compile(
    r"#\s*include\s*<iostream>|\bstd::(cout|cerr|clog)\b|"
    r"(?<![\w.])(?:std::)?f?printf\s*\("
)
IOSTREAM_EXEMPT = ("src/util/logging.",)

# A TRACE_SPAN call and its argument list. strip_comments_and_strings blanks
# literal *contents* but keeps the quote characters, so a compliant call
# reduces to TRACE_SPAN("   ") — anything whose argument does not start with
# a double quote is a non-literal name. Preprocessor lines (the macro's own
# definition) are skipped by the caller.
TRACE_SPAN_RE = re.compile(r"\bTRACE_SPAN\s*\(\s*([^)]*)\)")

# A failpoint site and its argument; same literal-detection scheme as
# TRACE_SPAN (stripped code keeps the quote characters). The registered-name
# check reads the literal back out of the *raw* line.
FAILPOINT_RE = re.compile(r"\bCRASHSIM_FAILPOINT(?:_THROW)?\s*\(\s*([^)]*)\)")
FAILPOINT_NAME_RE = re.compile(
    r'\bCRASHSIM_FAILPOINT(?:_THROW)?\s*\(\s*"([^"]*)"')
# The catalog array in src/util/failpoint.cc — the source of truth for
# registered site names.
FAILPOINT_CATALOG_RE = re.compile(
    r"kFailpointCatalog\[\]\s*=\s*\{(.*?)\}", re.DOTALL)
FAILPOINT_CATALOG_FILE = "src/util/failpoint.cc"

# status-exception-site: the exception channel for a Status, and the one
# file that needs it plus the two that define it.
STATUS_EXCEPTION_RE = re.compile(
    r"\bCRASHSIM_FAILPOINT_THROW\b|\bthrow\s+(?:::)?(?:crashsim::)?"
    r"StatusException\b")
STATUS_EXCEPTION_EXEMPT = ("src/util/parallel.cc", "src/util/failpoint.h",
                           "src/util/status.h")


def strip_comments_and_strings(line):
    """Blanks out string/char literals and // comments so rule regexes never
    fire on quoted text or prose (block comments are handled line-wise by the
    caller). Keeps column positions stable."""
    out = []
    i, n = 0, len(line)
    quote = None
    while i < n:
        ch = line[i]
        if quote:
            if ch == "\\" and i + 1 < n:
                out.append("  ")
                i += 2
                continue
            out.append(" " if ch != quote else quote)
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in "\"'":
            quote = ch
            out.append(ch)
        elif ch == "/" and i + 1 < n and line[i + 1] == "/":
            break  # rest is a line comment
        else:
            out.append(ch)
        i += 1
    return "".join(out)


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.findings = []
        self.failpoint_catalog = self._load_failpoint_catalog()

    def _load_failpoint_catalog(self):
        """Registered failpoint names from src/util/failpoint.cc; empty when
        the file (or the array) is absent, in which case every site is
        unregistered by definition."""
        try:
            text = (self.root / FAILPOINT_CATALOG_FILE).read_text(
                encoding="utf-8", errors="replace")
        except OSError:
            return frozenset()
        m = FAILPOINT_CATALOG_RE.search(text)
        if not m:
            return frozenset()
        return frozenset(re.findall(r'"([^"]*)"', m.group(1)))

    def report(self, path, lineno, rule, message, raw_line, prev_raw=""):
        m = ALLOW_RE.search(raw_line)
        if not (m and m.group(1) == rule) and prev_raw.strip().startswith("//"):
            m = ALLOW_RE.search(prev_raw)
        if m and m.group(1) == rule:
            if not m.group(3):
                self.findings.append(
                    (path, lineno, rule,
                     "lint:allow without a justification — write "
                     "// lint:allow(%s): <why>" % rule))
            return
        self.findings.append((path, lineno, rule, message))

    @staticmethod
    def _collect_unordered_names(text):
        """Names of variables/members declared with an unordered container
        type: match the template-argument brackets, then take the next
        identifier. Function names sneak in when the container is a return
        type, but calls never look like iteration sites, so they are
        harmless."""
        names = set()
        for m in UNORDERED_DECL_RE.finditer(text):
            i, depth = m.end(), 1
            while i < len(text) and depth > 0:
                if text[i] == "<":
                    depth += 1
                elif text[i] == ">":
                    depth -= 1
                i += 1
            nm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", text[i:])
            if nm:
                names.add(nm.group(1))
        return names

    def lint_file(self, path):
        rel = path.relative_to(self.root).as_posix()
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as e:
            self.findings.append((rel, 0, "io", str(e)))
            return
        lines = text.splitlines()

        # Per-file state for the file-scoped rules. unordered-iteration needs
        # the declared container names — including members declared in the
        # sibling header of a .cc — before any line can be judged.
        self._unordered_names = frozenset()
        if rel.startswith(RANDOMNESS_DIRS):
            names = self._collect_unordered_names(text)
            if path.suffix in (".cc", ".cpp"):
                for ext in HEADER_EXTS:
                    sibling = path.with_suffix(ext)
                    if sibling.is_file():
                        names |= self._collect_unordered_names(
                            sibling.read_text(encoding="utf-8",
                                              errors="replace"))
            self._unordered_names = frozenset(names)
        self._has_guard_marker = bool(GUARD_MARKER_RE.search(text))

        in_block_comment = False
        prev_code = ""  # previous non-blank, non-comment stripped line
        for lineno, raw in enumerate(lines, start=1):
            line = raw
            if in_block_comment:
                end = line.find("*/")
                if end < 0:
                    continue
                line = " " * (end + 2) + line[end + 2:]
                in_block_comment = False
            # Strip any block comments opening (and possibly closing) here.
            while True:
                start = line.find("/*")
                if start < 0:
                    break
                end = line.find("*/", start + 2)
                if end < 0:
                    line = line[:start]
                    in_block_comment = True
                    break
                line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
            prev_raw = lines[lineno - 2] if lineno >= 2 else ""
            code = strip_comments_and_strings(line)
            if not code.strip():
                continue

            self._check_line(rel, lineno, code, raw, prev_code, prev_raw)
            prev_code = code.strip()

    def _check_line(self, rel, lineno, code, raw, prev_code, prev_raw):
        is_header = Path(rel).suffix in HEADER_EXTS

        if is_header and rel.startswith("src/"):
            m = STATUS_DECL_RE.search(code)
            if m:
                # using/typedef/macro lines and return statements are not
                # declarations.
                stripped = code.strip()
                # Friend declarations cannot legally carry an
                # attribute-specifier-seq ([dcl.attr.grammar]); the primary
                # declaration is what gets annotated.
                is_decl = not (
                    stripped.startswith(
                        ("return", "using", "typedef", "#", "friend"))
                    or "= " + m.group(0).rstrip("(") in stripped)
                annotated = ("[[nodiscard]]" in code
                             or prev_code.endswith("[[nodiscard]]"))
                if is_decl and not annotated:
                    self.report(
                        rel, lineno, "nodiscard-status",
                        "declaration returning Status/StatusOr must be "
                        "[[nodiscard]] (function %r)" % m.group(1), raw,
                        prev_raw)

        if rel.startswith("src/") and not rel.startswith(THREAD_EXEMPT):
            m = THREAD_PRIMITIVE_RE.search(code)
            if m:
                self.report(
                    rel, lineno, "thread-primitives",
                    "std::%s outside src/util/parallel.* and src/serve/ — "
                    "use ParallelFor" % m.group(1), raw, prev_raw)

        if rel.startswith("src/") and rel not in MUTEX_EXEMPT:
            m = MUTEX_PRIMITIVE_RE.search(code)
            if m:
                self.report(
                    rel, lineno, "mutex-wrapper",
                    "std::%s outside src/util/mutex.h — use crashsim::Mutex"
                    " / MutexLock / CondVar so the clang thread-safety lane "
                    "can see the acquisition" % m.group(1), raw, prev_raw)

        if rel.startswith("src/") and rel not in GUARDED_EXEMPT:
            if RAW_TSA_ATTR_RE.search(code):
                self.report(
                    rel, lineno, "guarded-by",
                    "raw thread-safety attribute spelling — use the "
                    "CRASHSIM_* macros from util/thread_annotations.h so "
                    "the GCC no-op path stays uniform", raw, prev_raw)
            m = MUTEX_MEMBER_RE.search(code)
            if m and not self._has_guard_marker:
                self.report(
                    rel, lineno, "guarded-by",
                    "Mutex member %r but no CRASHSIM_GUARDED_BY anywhere in "
                    "this file — annotate the state the mutex protects "
                    "(util/thread_annotations.h)" % m.group(1), raw,
                    prev_raw)

        if rel.startswith(RANDOMNESS_DIRS):
            m = NONDET_FOLD_RE.search(code)
            if m:
                self.report(
                    rel, lineno, "nondeterministic-fold",
                    "std::%s in the estimator core — operand grouping is "
                    "unspecified, breaking bit-identical folds; accumulate "
                    "sequentially" % m.group(1), raw, prev_raw)
            if self._unordered_names:
                for it_m in RANGE_FOR_RE.finditer(code):
                    if it_m.group(1) in self._unordered_names:
                        self.report(
                            rel, lineno, "unordered-iteration",
                            "iterating unordered container %r — hash order "
                            "is nondeterministic; iterate a sorted copy"
                            % it_m.group(1), raw, prev_raw)
                for it_m in BEGIN_CALL_RE.finditer(code):
                    if it_m.group(1) in self._unordered_names:
                        self.report(
                            rel, lineno, "unordered-iteration",
                            "%s.begin() on an unordered container — hash "
                            "order is nondeterministic; iterate a sorted "
                            "copy" % it_m.group(1), raw, prev_raw)

        if rel.startswith(RANDOMNESS_DIRS):
            m = RANDOMNESS_RE.search(code)
            if m:
                self.report(
                    rel, lineno, "unseeded-randomness",
                    "%r in the estimator core — all randomness must flow "
                    "from explicit seeds (util/rng.h)" % m.group(0).strip(),
                    raw, prev_raw)

        if rel.startswith("src/") and not rel.startswith(IOSTREAM_EXEMPT):
            m = IOSTREAM_RE.search(code)
            if m:
                self.report(
                    rel, lineno, "iostream-write",
                    "library code must not write to stdout/stderr (%r); "
                    "return Status or use util/logging.h"
                    % m.group(0).strip(), raw, prev_raw)

        if rel.startswith("src/") and not code.lstrip().startswith("#"):
            m = TRACE_SPAN_RE.search(code)
            if m and not m.group(1).strip().startswith('"'):
                self.report(
                    rel, lineno, "trace-span-literal",
                    "TRACE_SPAN name must be a string literal — the tracer "
                    "keeps the char* without copying (util/trace.h)", raw,
                    prev_raw)

        if rel.startswith("src/") and not code.lstrip().startswith("#"):
            m = FAILPOINT_RE.search(code)
            if m:
                if not m.group(1).strip().startswith('"'):
                    self.report(
                        rel, lineno, "failpoint-catalog",
                        "failpoint name must be a string literal so the "
                        "catalog check can see it (util/failpoint.h)", raw,
                        prev_raw)
                else:
                    name_m = FAILPOINT_NAME_RE.search(raw)
                    if name_m and name_m.group(1) not in \
                            self.failpoint_catalog:
                        self.report(
                            rel, lineno, "failpoint-catalog",
                            "failpoint %r is not registered in "
                            "kFailpointCatalog (%s) — an unregistered site "
                            "can never be armed" % (name_m.group(1),
                                                    FAILPOINT_CATALOG_FILE),
                            raw, prev_raw)

        if (rel.startswith("src/") and rel not in STATUS_EXCEPTION_EXEMPT
                and not code.lstrip().startswith("#")):
            m = STATUS_EXCEPTION_RE.search(code)
            if m:
                self.report(
                    rel, lineno, "status-exception-site",
                    "%r outside src/util/parallel.cc — return the Status "
                    "instead; exceptions carry a Status only out of "
                    "ParallelFor shard bodies" % m.group(0), raw, prev_raw)

    def run(self, paths=None):
        if paths:
            files = [Path(p) if Path(p).is_absolute() else self.root / p
                     for p in paths]
        else:
            files = sorted(p for p in (self.root / "src").rglob("*")
                           if p.suffix in SOURCE_EXTS)
        for f in files:
            self.lint_file(f)
        return self.findings


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("files", nargs="*",
                    help="specific files to lint (default: src/ tree); "
                         "paths must live under --root")
    args = ap.parse_args(argv)

    linter = Linter(Path(args.root).resolve())
    findings = linter.run(args.files or None)
    for path, lineno, rule, message in findings:
        print("%s:%d: [%s] %s" % (path, lineno, rule, message))
    if findings:
        print("check_invariants: %d finding(s)" % len(findings),
              file=sys.stderr)
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
