"""Regenerate ``golden_digests.json`` (run from the repo root).

    PYTHONPATH=src python3 -m tests.integration.gen_golden_digests [commit-label]

Only for an intended behaviour change: check out the commit whose answers
are the new reference, drop this file and ``test_golden_digests.py`` next
to each other there, and run it.  The scenarios use public API only, so
both files run unmodified on older checkouts.
"""

from __future__ import annotations

import json
import sys

from tests.integration.test_golden_digests import GOLDEN_PATH, SCENARIOS, digest


def main() -> None:
    label = sys.argv[1] if len(sys.argv) > 1 else "unknown"
    doc = {
        "generated_at_commit": label,
        "digests": {name: digest(name) for name in sorted(SCENARIOS)},
    }
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['digests'])} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
