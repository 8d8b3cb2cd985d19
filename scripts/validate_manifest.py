#!/usr/bin/env python3
"""Validate telemetry artifacts produced by a sweep or run.

Usage:
    python scripts/validate_manifest.py ARTIFACT [ARTIFACT ...]

A ``.jsonl`` artifact is a flight-recorder dump (what ``--trace-out``
and ``--flightrec-out`` write); anything else is a run manifest
(``--metrics-out``).  Manifests are checked against the
repro-telemetry-manifest/1 schema; dumps against the recorder's header
accounting and record shape.  Prints a short summary and exits nonzero
on any problem — the CI telemetry-smoke job gates on this.
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.flightrec.recorder import HEADER_NAME, LAYERS  # noqa: E402
from repro.telemetry.manifest import (  # noqa: E402
    load_manifest,
    summarize_manifest,
    validate_manifest,
)


def check_trace(path: str) -> list:
    """Structural checks on a flight-recorder dump; returns error strings.

    The header must be the recorder's, with integer ``emitted``,
    ``evicted`` and ``capacity`` for every layer; each layer must retain
    exactly ``min(emitted, capacity)`` records; and every record needs a
    known ``layer``, a ``kind`` and a finite ``t``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return [f"{path}: empty trace file"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return [f"{path}: header is not JSON: {exc}"]
    if not isinstance(header, dict) or header.get("name") != HEADER_NAME:
        return [f"{path}: first line is not a {HEADER_NAME} line"]
    errors = []
    layers = header.get("layers")
    if not isinstance(layers, dict):
        layers = {}
        errors.append(f"{path}: header has no 'layers' table")
    for layer in LAYERS:
        counts = layers.get(layer)
        if not isinstance(counts, dict) or not all(
            isinstance(counts.get(key), int)
            for key in ("emitted", "evicted", "capacity")
        ):
            errors.append(
                f"{path}: header layer '{layer}' lacks integer "
                f"emitted/evicted/capacity"
            )
            layers.pop(layer, None)
    retained = {layer: 0 for layer in LAYERS}
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{number}: not JSON: {exc}")
            continue
        layer = record.get("layer")
        if layer not in retained:
            errors.append(f"{path}:{number}: unknown layer {layer!r}")
        else:
            retained[layer] += 1
        if "kind" not in record:
            errors.append(f"{path}:{number}: record lacks kind")
        t = record.get("t")
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
            errors.append(f"{path}:{number}: record lacks a finite t")
    for layer, counts in layers.items():
        if layer not in retained:
            continue
        expected = min(counts["emitted"], counts["capacity"])
        if retained[layer] != expected:
            errors.append(
                f"{path}: header promises {expected} {layer} record(s), "
                f"found {retained[layer]}"
            )
    return errors


def check_manifest(path: str, quiet: bool) -> list:
    """Schema checks on a run manifest; prints its summary unless quiet."""
    try:
        manifest = load_manifest(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    errors = validate_manifest(manifest)
    if not errors and not quiet:
        print(summarize_manifest(manifest))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "artifacts", nargs="+",
        help="manifest .json files and flight-recorder .jsonl dumps",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary on success"
    )
    args = parser.parse_args(argv)

    errors = []
    for path in args.artifacts:
        if path.endswith(".jsonl"):
            try:
                errors += check_trace(path)
            except OSError as exc:
                errors.append(f"{path}: {exc}")
        else:
            errors += check_manifest(path, args.quiet)
    if errors:
        for error in errors:
            print(f"FAIL {error}", file=sys.stderr)
        return 1
    print("OK " + " + ".join(args.artifacts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
