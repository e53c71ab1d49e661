"""Canonical JSON and its sha256 — the one way this package hashes a value.

Cache keys and checksums, checkpoint lines, store record ids, scenario ids
and service job ids are all :func:`digest` of a JSON value.  Leaf module:
it imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def canonical_json(obj: Any) -> str:
    """Sorted keys, no whitespace — byte-stable across processes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """sha256 hex of :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()
