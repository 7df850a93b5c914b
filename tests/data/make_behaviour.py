"""Regenerate `behaviour.json`, the digests `tests/test_behaviour.py` checks:
the `programs`, `carousel`, `search` and `multirate` suites of its
`compute`.

Run from the repository root, only when behaviour changes on purpose:

    PYTHONPATH=src python tests/data/make_behaviour.py

A change that adds a suite and must not change behaviour takes the new
digests from the kernel it started from: point `PYTHONPATH` at a checkout
of that commit's `src`, and check that every existing entry is unchanged.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_behaviour import DATA, compute  # noqa: E402

if __name__ == "__main__":
    DATA.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
