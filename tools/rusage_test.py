#!/usr/bin/env python3
"""Self-test for tools/rusage.py: a child that touches N fresh pages must
be charged at least N minor faults.

Run directly (python3 tools/rusage_test.py) or through ctest (registered
as rusage_selftest).  Stdlib only.
"""

import contextlib
import io
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import rusage  # noqa: E402

PAGES = 4096

# Maps PAGES fresh anonymous pages without huge pages, so each first
# write faults exactly one page in, and writes one byte to each.
TOUCH = """
import mmap
size = {pages} * mmap.PAGESIZE
m = mmap.mmap(-1, size)
if hasattr(mmap, "MADV_NOHUGEPAGE"):
    m.madvise(mmap.MADV_NOHUGEPAGE)
for off in range(0, size, mmap.PAGESIZE):
    m[off] = 1
""".format(pages=PAGES)


class Rusage(unittest.TestCase):
    def run_tool(self, *cmd):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rusage.main(["--"] + list(cmd))
        lines = out.getvalue().splitlines()
        self.assertEqual(len(lines), 1, out.getvalue())
        return code, json.loads(lines[0])

    def test_touched_pages_fault(self):
        code, usage = self.run_tool(sys.executable, "-c", TOUCH)
        self.assertEqual(code, 0)
        self.assertGreaterEqual(usage["minflt"], PAGES)
        self.assertGreaterEqual(usage["maxrss_mib"], PAGES * 4 / 1024)
        self.assertEqual(set(usage), {"minflt", "majflt", "utime_s", "stime_s",
                                      "maxrss_mib", "wall_s", "returncode"})

    def test_exit_status_passes_through(self):
        code, usage = self.run_tool(sys.executable, "-c", "import sys; sys.exit(3)")
        self.assertEqual(code, 3)
        self.assertEqual(usage["returncode"], 3)

    def test_usage_error(self):
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(rusage.main(["true"]), 2)


if __name__ == "__main__":
    unittest.main()
