"""Regenerate the golden fixtures: ``python -m tests.golden.refresh``.

Run this (and commit the resulting diff) after a change that
*deliberately* alters simulated numbers — new physics, a retuned
parameter, a schema bump. Never refresh to silence an unexpected
failure: an unexplained fixture diff is exactly the regression the
suite exists to catch.
"""

from __future__ import annotations

import json
import os

from repro.options import CHECK_ENV_VAR

from tests.golden.cases import FIXTURE_DIR, evaluate_all, fixture_path


def refresh() -> None:
    os.environ.setdefault(CHECK_ENV_VAR, "1")
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in evaluate_all().items():
        path = fixture_path(name)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    refresh()
