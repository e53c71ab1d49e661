"""Persist experiment results as JSON artifacts.

Benchmarks call :func:`save_result` after each experiment so the numbers
behind EXPERIMENTS.md live in ``results/<name>.json`` alongside the text
output — machine-readable and diffable across runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
from typing import Any

from repro import durable


def _default_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def _jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses/tuples/sets into JSON-safe values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def save_result(name: str, payload: Any, directory: str | os.PathLike | None = None) -> pathlib.Path:
    """Write ``payload`` to ``<results dir>/<name>.json`` and return the path.

    The directory defaults to ``./results`` (override with the
    ``REPRO_RESULTS_DIR`` environment variable).
    """
    if not name or any(c in name for c in "/\\"):
        raise ValueError("result name must be a bare file stem")
    out_dir = pathlib.Path(directory) if directory else _default_dir()
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    return durable.replace_text(out_dir / f"{name}.json", text)


def load_result(name: str, directory: str | os.PathLike | None = None) -> Any:
    """Read back a previously saved result."""
    out_dir = pathlib.Path(directory) if directory else _default_dir()
    with (out_dir / f"{name}.json").open() as fh:
        return json.load(fh)
