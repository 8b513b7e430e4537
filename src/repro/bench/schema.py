"""The ``BENCH_<name>.json`` result schema.

Version ``repro-bench/2``.  A result document has exactly these
top-level keys:

``schema``
    The literal version string (bump on incompatible change).
``name``
    The registered benchmark name.
``quick``
    Whether the quick parameter set was used.
``params``
    The exact parameters (including seeds) the run used.
``virtual``
    Deterministic metrics — virtual-time measurements, counts, digests.
    Byte-identical across hosts and runs for the same parameters; the
    compare gate requires *exact* equality here.
``meta``
    Provenance: git sha, host fingerprint, tool name.  Never compared.

Canonical serialization (:func:`result_json`) sorts keys and pins
separators/indentation, so identical content is identical bytes.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

#: Current schema version tag.
SCHEMA_VERSION = "repro-bench/2"

#: Top-level keys every result document carries, in canonical order.
REQUIRED_KEYS = ("schema", "name", "quick", "params", "virtual", "meta")


class SchemaError(ValueError):
    """A result document violates the ``repro-bench/2`` schema."""


def git_sha(repo_root: Optional[Path] = None) -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_root) if repo_root else None,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> Dict[str, str]:
    """Where the numbers came from — recorded, never compared."""
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def build_result(
    name: str,
    params: Dict,
    metrics: Dict,
    quick: bool,
    repo_root: Optional[Path] = None,
) -> Dict:
    """Assemble a schema-valid result document from a benchmark run.

    ``metrics`` is what the benchmark function returned; its
    ``virtual`` section becomes the result's.
    """
    result = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "quick": quick,
        "params": _jsonify(params),
        "virtual": _jsonify(metrics["virtual"]),
        "meta": {
            "git_sha": git_sha(repo_root),
            "host": host_fingerprint(),
            "tool": "python -m repro.tools.bench",
        },
    }
    validate_result(result)
    return result


def validate_result(result: Dict) -> None:
    """Raise :class:`SchemaError` unless ``result`` is schema-valid."""
    if not isinstance(result, dict):
        raise SchemaError(f"result must be a dict, got {type(result).__name__}")
    missing = [k for k in REQUIRED_KEYS if k not in result]
    if missing:
        raise SchemaError(f"result is missing keys {missing}")
    extra = [k for k in result if k not in REQUIRED_KEYS]
    if extra:
        raise SchemaError(f"result has unknown keys {extra}")
    if result["schema"] != SCHEMA_VERSION:
        raise SchemaError(
            f"schema {result['schema']!r} != expected {SCHEMA_VERSION!r}")
    if not isinstance(result["name"], str) or not result["name"]:
        raise SchemaError("result name must be a non-empty string")
    if not isinstance(result["quick"], bool):
        raise SchemaError("quick flag must be a bool")
    for section in ("params", "virtual", "meta"):
        if not isinstance(result[section], dict):
            raise SchemaError(f"{section!r} section must be a dict")
    try:
        json.dumps(result, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"result is not JSON-serializable: {exc}") from None


def result_json(result: Dict) -> str:
    """Canonical encoding: identical content produces identical bytes."""
    return json.dumps(result, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def result_filename(name: str) -> str:
    """``BENCH_<name>.json`` (benchmark names are filename-safe slugs)."""
    return f"BENCH_{name}.json"


def _jsonify(value):
    """Round-trip-stable JSON shape: tuples become lists, keys strings."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    return value
