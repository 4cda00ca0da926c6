#!/usr/bin/env python3
"""Self-test for tools/determinism_lint.py against tools/testdata fixtures.

Run directly (python3 tools/determinism_lint_test.py) or through ctest
(registered as determinism_lint_selftest).  Stdlib only.
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import determinism_lint  # noqa: E402

TESTDATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")
EMPTY_ALLOWLIST = os.path.join(TESTDATA, "nonexistent_allowlist.txt")


def run_lint(*argv):
    """Runs the linter, returning (exit_code, stdout_lines)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = determinism_lint.main(list(argv))
    lines = [l for l in out.getvalue().splitlines() if l.strip()]
    return code, lines


def findings(lines):
    """Extracts (path, rule) pairs from 'path:line: [rule] message' output."""
    pairs = []
    for line in lines:
        head, _, rest = line.partition(": [")
        rule = rest.partition("]")[0]
        path = head.rsplit(":", 1)[0]
        pairs.append((path.replace(os.sep, "/"), rule))
    return pairs


class BadFixtures(unittest.TestCase):
    """Every rule fires on its dedicated bad fixture."""

    @classmethod
    def setUpClass(cls):
        cls.code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST, "bad")
        cls.found = findings(lines)

    def test_exit_nonzero(self):
        self.assertEqual(self.code, 1)

    def expect(self, path, rule, count):
        hits = [f for f in self.found if f == ("bad/" + path, rule)]
        self.assertEqual(len(hits), count,
                         "%s: wanted %d x %s, got %s" %
                         (path, count, rule, self.found))

    def test_unordered_iteration(self):
        # Range-for plus begin() in the single-file fixture.
        self.expect("bad_unordered_iteration.cc", "unordered-iteration", 2)

    def test_unordered_iteration_cross_file(self):
        # Declared in split_decl.h, iterated in split_iter.cc.
        self.expect("split_iter.cc", "unordered-iteration", 1)

    def test_wall_clock(self):
        # steady_clock::now, time(nullptr), clock_gettime.
        self.expect("bad_wall_clock.cc", "wall-clock", 3)

    def test_raw_random(self):
        # rand, srand, random_device, default-seeded mt19937.
        self.expect("bad_raw_random.cc", "raw-random", 4)

    def test_pointer_order(self):
        # Pointer-keyed map, std::hash<T*>, reinterpret_cast<uintptr_t>.
        self.expect("bad_pointer_order.cc", "pointer-order", 3)

    def test_address_format(self):
        # "%p" format string and streaming a void* cast.
        self.expect("bad_address_format.cc", "address-format", 2)

    def test_thread_primitive(self):
        # Five headers (<cstdint> stays clean), then atomic, mutex,
        # condition_variable, thread, jthread and async.
        self.expect("bad_thread_primitive.cc", "thread-primitive", 11)

    def test_unordered_mailbox(self):
        # Flagged at the declaration: no iteration anywhere in the fixture.
        self.expect("bad_unordered_mailbox.cc", "unordered-mailbox", 2)
        self.expect("bad_unordered_mailbox.cc", "unordered-iteration", 0)

    def test_index_container(self):
        # Unordered index-named map, unordered set in an index-named file,
        # pointer-keyed index-named map.  The ordered value-keyed map in
        # the same (index-named) file stays clean.
        self.expect("bad_index_container.cc", "index-container", 3)
        # The pointer-keyed declaration independently trips pointer-order.
        self.expect("bad_index_container.cc", "pointer-order", 1)

    def test_index_container_variable_name_trigger(self):
        # In a file whose name does not match, only the *index*-named
        # variable fires; the neutral-named twin declaration does not.
        self.expect("bad_candidate_tree.cc", "index-container", 1)

    def test_process_state(self):
        # The leaked function-local pool, two namespace-scope statics, a
        # function-local counter, a thread_local and three static data
        # members.
        self.expect("bad_process_state.cc", "process-state", 8)

    def test_nolint_without_reason_is_rejected(self):
        self.expect("bad_nolint_missing_reason.cc", "nolint-missing-reason", 1)
        # The bare directive must NOT suppress the underlying finding's
        # line silently: the missing-reason finding replaces it.
        self.expect("bad_nolint_missing_reason.cc", "raw-random", 0)


class GoodFixtures(unittest.TestCase):
    def test_clean_file_passes(self):
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_clean.cc")
        self.assertEqual(code, 0, lines)

    def test_thread_words_pass(self):
        # Comments, string literals and identifiers that merely contain
        # "thread", "mutex" or "atomic" are not thread primitives.
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_thread_words.cc")
        self.assertEqual(code, 0, lines)

    def test_const_statics_and_static_functions_pass(self):
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_process_state.cc")
        self.assertEqual(code, 0, lines)

    def test_ordered_mailbox_passes(self):
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_mailbox.cc")
        self.assertEqual(code, 0, lines)

    def test_ordered_index_passes(self):
        # Ordered value-keyed indexes in an index-named file are the
        # sanctioned shape (the real host_index.h passes the same way).
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_index_container.cc")
        self.assertEqual(code, 0, lines)

    def test_justified_nolint_suppresses(self):
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_nolint.cc")
        self.assertEqual(code, 0, lines)

    def test_allowlist_suppresses(self):
        code, lines = run_lint(
            "--root", TESTDATA,
            "--allowlist", os.path.join(TESTDATA, "allowlist_good.txt"),
            "good")
        self.assertEqual(code, 0, lines)

    def test_allowlisted_file_fails_without_allowlist(self):
        code, lines = run_lint(
            "--root", TESTDATA, "--allowlist", EMPTY_ALLOWLIST,
            "good/good_allowlisted.cc")
        self.assertEqual(code, 1)
        self.assertIn(("good/good_allowlisted.cc", "wall-clock"),
                      findings(lines))


class AllowlistPolicing(unittest.TestCase):
    def test_stale_entry_fails(self):
        code, lines = run_lint(
            "--root", TESTDATA,
            "--allowlist", os.path.join(TESTDATA, "allowlist_stale.txt"),
            "good/good_clean.cc")
        self.assertEqual(code, 1)
        self.assertIn(("good/good_clean.cc", "stale-allowlist"),
                      findings(lines))

    def test_stale_check_skips_unscanned_paths(self):
        # A partial run over bad/ must not flag good/ entries as stale.
        code, lines = run_lint(
            "--root", TESTDATA,
            "--allowlist", os.path.join(TESTDATA, "allowlist_good.txt"),
            "good/good_clean.cc")
        self.assertEqual(code, 0, lines)

    def test_malformed_entry_is_config_error(self):
        code, _ = run_lint(
            "--root", TESTDATA,
            "--allowlist", os.path.join(TESTDATA, "allowlist_malformed.txt"),
            "good")
        self.assertEqual(code, 2)


class RealTree(unittest.TestCase):
    def test_repo_is_lint_clean(self):
        """The checked-in tree must pass its own lint (default paths +
        checked-in allowlist)."""
        code, lines = run_lint()
        self.assertEqual(code, 0, "\n".join(lines))


if __name__ == "__main__":
    unittest.main()
