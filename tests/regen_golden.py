"""Rewrite ``tests/golden_sha256.txt`` from the outputs of the current code.

Run from the repository root as ``PYTHONPATH=src python tests/regen_golden.py``
after a change that moves an output on purpose, and say in the change which
rows moved and why.  Rows that did not move keep their digests.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from test_golden import TABLE, format_table, golden_outputs, read_table

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        digests = golden_outputs(Path(root))
    old = read_table()[1] if TABLE.exists() else {}
    TABLE.write_text(format_table(digests))
    moved = [name for name, digest in digests.items() if old.get(name) != digest]
    print(f"wrote {len(digests)} rows to {TABLE}; {len(moved)} moved:")
    for name in moved:
        print(f"  {name}")
