#!/usr/bin/env python3
"""Determinism lint for the squeezy simulator tree.

Every regression lock in this repo (policy_parity_test, the fig12 pending
121 / admitted 7297 constants, event_queue_determinism_test) depends on
simulation results being a pure function of (config, seed).  This lint
rejects the constructs that silently break that property:

  unordered-iteration  iteration over std::unordered_{map,set,...} —
                       hash-table order is implementation- and
                       insertion-order-defined, so anything it feeds
                       (event scheduling, metrics, BenchJson rows)
                       diverges across runs/toolchains.  Use std::map /
                       std::set or sort before iterating.
  wall-clock           std::chrono::{system,steady,high_resolution}_clock,
                       time(), clock_gettime(), gettimeofday(), clock() —
                       ambient time must never reach sim-visible state.
                       The one sanctioned use is bench wall-time
                       measurement (bench/bench_util.h WallTimer), carried
                       by the allowlist.
  raw-random           rand()/srand(), std::random_device,
                       std::default_random_engine, and default-seeded
                       std::mt19937 — all randomness must flow from the
                       experiment seed through src/sim/rng.h.
  pointer-order        ordering or hashing on pointer values (pointer-keyed
                       map/set/unordered containers, std::hash<T*>,
                       std::less<T*>, reinterpret_cast to an integer) —
                       allocator addresses differ run to run.
  address-format       "%p" in a format string or streaming a void* cast —
                       addresses in sim-visible output are nondeterminism
                       made visible.
  thread-primitive     std::thread/jthread/async, std::mutex (any
                       kind), std::atomic, std::condition_variable, or
                       one of their headers (<thread>, <mutex>,
                       <shared_mutex>, <atomic>, <condition_variable>,
                       <future>).  The simulator runs on one thread; that
                       is why no class guards its state with a lock.  A
                       thread would bring back both the races and the
                       run-to-run firing order they cause.
  unordered-mailbox    a cross-shard mailbox/inbox declared as an
                       unordered container — cross-shard events must
                       drain in (when, seq) order or sharded replays
                       diverge from the single-queue reference.  Use an
                       ordered structure (the sharded kernel's mailbox
                       is a full EventQueue for exactly this reason).
  index-container      a placement/candidate index declared as an
                       unordered container or keyed on pointer values —
                       an index's walk order IS decision order
                       (src/cluster/host_index.h picks hosts straight off
                       ordered-tree boundaries), so hash order or
                       allocator addresses anywhere in an *index*-named
                       structure (or any associative container inside an
                       *index*-named file) turn placement into a
                       nondeterministic function.  Flagged at the
                       DECLARATION, like unordered-mailbox: the shape is
                       wrong before anyone walks it.  Use ordered
                       containers over stable value keys (host id,
                       replica index).

Escape hatches (both require a written justification):
  * inline:     ... // NOLINT(determinism): <reason>   (same line)
  * checked in: tools/determinism_allowlist.txt, lines of
                "<path> <rule> <justification...>"; stale entries fail
                the lint so the allowlist can only shrink by itself.

Usage:
  python3 tools/determinism_lint.py [--root DIR] [--allowlist FILE] [paths...]

Defaults: root = repo root (parent of this script's directory), paths =
src bench tests.  Exit 0 when clean, 1 on findings, 2 on usage errors.
Stdlib only; no third-party dependencies.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")
DEFAULT_PATHS = ("src", "bench", "tests")

NOLINT_RE = re.compile(r"NOLINT\(determinism\)(?::\s*(?P<reason>\S.*))?")

# A declaration of an unordered container, capturing the variable name.
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<.*>\s+(\w+)\s*[;={(]"
)

WALL_CLOCK_RES = [
    re.compile(r"std::chrono::(?:system|steady|high_resolution)_clock"),
    re.compile(r"\b(?:gettimeofday|clock_gettime|timespec_get)\s*\("),
    re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
    re.compile(r"\bclock\s*\(\s*\)"),
]

RAW_RANDOM_RES = [
    re.compile(r"\b(?:rand|srand|rand_r|drand48|random)\s*\("),
    re.compile(r"std::random_device"),
    re.compile(r"\bdefault_random_engine\b"),
    # Default-constructed engine: deterministic per the standard, but the
    # implicit seed hides the stream from the experiment seed plumbing.
    re.compile(r"\bmt19937(?:_64)?\s+\w+\s*(?:;|\{\s*\}|\(\s*\))"),
]

POINTER_ORDER_RES = [
    re.compile(r"std::hash\s*<[^<>]*\*\s*>"),
    re.compile(r"std::less\s*<[^<>]*\*\s*>"),
    # Pointer-keyed associative containers: ordered ones iterate in
    # address order, unordered ones hash the address.
    re.compile(r"std::(?:map|set|unordered_map|unordered_set)\s*<\s*[^,<>]*\*[^,<>]*[,>]"),
    re.compile(r"reinterpret_cast\s*<\s*(?:std::)?(?:u?intptr_t|size_t|uint64_t)\s*>"),
]

ADDRESS_STREAM_RE = re.compile(r"<<\s*(?:static_cast\s*<\s*(?:const\s+)?void\s*\*\s*>|\(\s*(?:const\s+)?void\s*\*\s*\))")

THREAD_PRIMITIVE_RES = [
    re.compile(r"std::(?:thread|jthread|async|this_thread)\b"),
    re.compile(r"std::(?:recursive_|timed_|recursive_timed_|shared_|shared_timed_)?mutex\b"),
    re.compile(r"std::atomic\w*"),
    re.compile(r"std::condition_variable(?:_any)?\b"),
    re.compile(r"#\s*include\s*<(?:thread|mutex|shared_mutex|atomic|condition_variable|"
               r"future)>"),
]

# Cross-shard mail must be drained in deterministic order; an unordered
# container under a mailbox-ish name is flagged at the DECLARATION (the
# unordered-iteration rule only fires once someone iterates it — too late
# for a queue whose drain order IS the contract).
MAILBOX_NAME_RE = re.compile(r"mailbox|inbox|cross_shard", re.IGNORECASE)

# Placement/candidate indexes must walk in a deterministic order; flagged
# at the declaration (index-container) when the variable or the file is
# index-named and the container is unordered or pointer-keyed.
INDEX_NAME_RE = re.compile(r"index", re.IGNORECASE)
# Any associative container declaration: kind, template args, variable.
ASSOC_DECL_RE = re.compile(
    r"std::(?P<kind>(?:unordered_)?(?:map|set|multimap|multiset))"
    r"\s*<(?P<args>.*)>\s+(?P<name>\w+)\s*[;={(]"
)

STRING_LITERAL_RE = re.compile(r'"(?:\\.|[^"\\])*"')


def strip_code(line):
    """Returns (code, literals): the line with string literals blanked and
    // comments removed, plus the list of string literal bodies."""
    literals = STRING_LITERAL_RE.findall(line)
    code = STRING_LITERAL_RE.sub('""', line)
    cut = code.find("//")
    if cut >= 0:
        code = code[:cut]
    return code, literals


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.lineno, self.rule, self.message)


def collect_unordered_names(files):
    """First pass: every variable name declared as an unordered container
    anywhere in the tree (members live in headers, iteration in .cc)."""
    names = set()
    for _, lines in files:
        for raw in lines:
            code, _ = strip_code(raw)
            for m in UNORDERED_DECL_RE.finditer(code):
                names.add(m.group(1))
    return names


def lint_file(relpath, lines, unordered_names, findings):
    file_is_index = INDEX_NAME_RE.search(os.path.basename(relpath)) is not None
    iter_res = [
        re.compile(r"for\s*\(.*:\s*&?(?:this->)?(?:%s)\b" % "|".join(map(re.escape, sorted(unordered_names)))),
        re.compile(r"\b(?:%s)\s*\.\s*c?begin\s*\(" % "|".join(map(re.escape, sorted(unordered_names)))),
    ] if unordered_names else []

    in_block_comment = False
    for lineno, raw in enumerate(lines, start=1):
        # NOLINT directives are honored (and policed) even inside comments.
        nolint = NOLINT_RE.search(raw)
        if nolint and nolint.group("reason") is None:
            findings.append(Finding(
                relpath, lineno, "nolint-missing-reason",
                "NOLINT(determinism) requires a written justification: "
                "'// NOLINT(determinism): <reason>'"))
            continue

        code, literals = strip_code(raw)
        # Crude but sufficient /* ... */ handling for this codebase.
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        start = code.find("/*")
        if start >= 0:
            end = code.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                code = code[:start]
            else:
                code = code[:start] + code[end + 2:]

        line_findings = []

        for rx in iter_res:
            if rx.search(code):
                line_findings.append((
                    "unordered-iteration",
                    "iteration over an unordered container: hash order is "
                    "not deterministic; use std::map/std::set or sort first"))
                break
        for rx in WALL_CLOCK_RES:
            if rx.search(code):
                line_findings.append((
                    "wall-clock",
                    "ambient clock read: sim results must be a pure function "
                    "of (config, seed); use the EventQueue virtual clock "
                    "(bench wall-timing goes through bench_util.h WallTimer)"))
                break
        for rx in RAW_RANDOM_RES:
            if rx.search(code):
                line_findings.append((
                    "raw-random",
                    "unseeded/ambient randomness: draw from src/sim/rng.h "
                    "seeded by the experiment seed"))
                break
        for rx in POINTER_ORDER_RES:
            if rx.search(code):
                line_findings.append((
                    "pointer-order",
                    "ordering/hashing on a pointer value: allocator addresses "
                    "differ across runs; key on a stable id instead"))
                break
        if any("%p" in lit for lit in literals) or ADDRESS_STREAM_RE.search(code):
            line_findings.append((
                "address-format",
                "formatting a raw address: addresses differ across runs; "
                "print a stable id instead"))
        for rx in THREAD_PRIMITIVE_RES:
            if rx.search(code):
                line_findings.append((
                    "thread-primitive",
                    "thread primitive: the simulator runs on one thread and "
                    "its state carries no locks; run the work inline"))
                break
        for m in UNORDERED_DECL_RE.finditer(code):
            if MAILBOX_NAME_RE.search(m.group(1)):
                line_findings.append((
                    "unordered-mailbox",
                    "cross-shard mailbox declared unordered: cross-shard "
                    "events must drain in (when, seq) order; use an ordered "
                    "structure (an EventQueue, like the sharded kernel's "
                    "mailbox shard)"))
                break
        for m in ASSOC_DECL_RE.finditer(code):
            if not (file_is_index or INDEX_NAME_RE.search(m.group("name"))):
                continue
            unordered = m.group("kind").startswith("unordered_")
            # Crude first-template-argument split: the fixtures and the
            # real index keep key types comma-free.
            pointer_keyed = "*" in m.group("args").split(",")[0]
            if unordered or pointer_keyed:
                line_findings.append((
                    "index-container",
                    "placement/candidate index with a nondeterministic "
                    "shape: an index's walk order IS decision order; use an "
                    "ordered container over stable value keys (host id, "
                    "replica index — see src/cluster/host_index.h), never "
                    "hashes or pointer keys"))
                break

        for rule, message in line_findings:
            if nolint:  # Reason already verified non-empty above.
                continue
            findings.append(Finding(relpath, lineno, rule, message))


def load_allowlist(path):
    """Returns {(relpath, rule): justification}; raises ValueError on
    malformed entries (missing justification)."""
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                raise ValueError(
                    "%s:%d: allowlist entry needs '<path> <rule> "
                    "<justification...>'" % (path, lineno))
            entries[(parts[0], parts[1])] = parts[2]
    return entries


def gather_files(root, paths):
    files = []
    for p in paths:
        absolute = os.path.join(root, p)
        if os.path.isfile(absolute):
            if absolute.endswith(CXX_EXTENSIONS):
                files.append(os.path.relpath(absolute, root))
            continue
        for dirpath, _, names in os.walk(absolute):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(files)


def main(argv):
    parser = argparse.ArgumentParser(description="squeezy determinism lint")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: tools/determinism_allowlist.txt)")
    parser.add_argument("paths", nargs="*", default=[],
                        help="files/dirs relative to root (default: %s)"
                        % " ".join(DEFAULT_PATHS))
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or list(DEFAULT_PATHS)
    allowlist_path = args.allowlist or os.path.join(
        root, "tools", "determinism_allowlist.txt")

    try:
        allowlist = load_allowlist(allowlist_path)
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2

    relpaths = gather_files(root, paths)
    files = []
    for rel in relpaths:
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            files.append((rel, f.read().splitlines()))

    unordered_names = collect_unordered_names(files)
    findings = []
    for rel, lines in files:
        lint_file(rel, lines, unordered_names, findings)

    used_allowlist_keys = set()
    reported = []
    for finding in findings:
        key = (finding.path.replace(os.sep, "/"), finding.rule)
        if key in allowlist:
            used_allowlist_keys.add(key)
            continue
        reported.append(finding)

    # The allowlist may only shrink by itself: an entry that no longer
    # matches anything is an error, not a silent leftover.
    for key in sorted(allowlist):
        if key not in used_allowlist_keys:
            # Entries for paths outside the scanned set stay untouched
            # (partial runs, e.g. linting a single file).
            if key[0] in {f.replace(os.sep, "/") for f in relpaths}:
                reported.append(Finding(
                    key[0], 0, "stale-allowlist",
                    "allowlist entry for rule '%s' matches nothing; remove it"
                    % key[1]))

    for finding in reported:
        print(finding)
    if reported:
        print("\ndeterminism lint: %d finding(s) in %d file(s) scanned"
              % (len(reported), len(relpaths)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
