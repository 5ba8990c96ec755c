"""Known-good RPL005 fixture: a non-REPRO environment read."""

from __future__ import annotations

import os


def unrelated_variable() -> str:
    # Not a REPRO_* name: outside the rule's jurisdiction.
    return os.environ.get("HOME", "/")
