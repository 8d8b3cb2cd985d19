"""scripts/validate_manifest.py: accepts real artifacts, rejects damaged ones."""

import importlib.util
import json
import math
import os

import pytest

from repro.cli import main as cli_main
from repro.flightrec.recorder import LAYERS

_SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "scripts",
    "validate_manifest.py",
)


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("validate_manifest", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A real run's trace and manifest, written by the CLI."""
    out = tmp_path_factory.mktemp("artifacts")
    trace, manifest = str(out / "t.jsonl"), str(out / "m.json")
    assert cli_main(["cubic", "--duration", "3", "--seed", "2",
                     "--trace-out", trace, "--metrics-out", manifest]) == 0
    return trace, manifest


def _rewrite(src, dst, edit):
    with open(src, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write("\n".join(edit(lines)) + "\n")
    return dst


class TestCheckTrace:
    def test_accepts_a_real_dump(self, script, artifacts):
        assert script.check_trace(artifacts[0]) == []

    def test_rejects_a_dump_with_one_record_deleted(
        self, script, artifacts, tmp_path
    ):
        damaged = _rewrite(artifacts[0], str(tmp_path / "cut.jsonl"),
                           lambda lines: lines[:5] + lines[6:])
        errors = script.check_trace(damaged)
        assert len(errors) == 1
        assert "header promises" in errors[0]

    def test_rejects_a_foreign_header(self, script, artifacts, tmp_path):
        damaged = _rewrite(
            artifacts[0], str(tmp_path / "foreign.jsonl"),
            lambda lines: [json.dumps({"name": "trace.header", "kind": "header",
                                       "emitted": 0, "evicted": 0,
                                       "capacity": 1})] + lines[1:],
        )
        assert "flightrec.header" in script.check_trace(damaged)[0]

    def test_rejects_bad_records(self, script, tmp_path):
        header = {"name": "flightrec.header", "kind": "header",
                  "layers": {layer: {"emitted": 1, "evicted": 0, "capacity": 4}
                             for layer in LAYERS}}
        records = [
            {"layer": "simnet", "kind": "drop", "t": 1.0},
            {"layer": "transport", "t": 1.0},  # no kind
            {"layer": "phi", "kind": "rpc", "t": math.inf},
            {"layer": "system", "kind": "x", "t": 0.0},  # not a layer
        ]
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in [header] + records))
        errors = script.check_trace(str(path))
        assert any("lacks kind" in e for e in errors)
        assert any("finite t" in e for e in errors)
        assert any("unknown layer 'system'" in e for e in errors)
        assert any("promises 1 fault" in e for e in errors)


class TestMain:
    def test_accepts_manifest_and_trace_together(self, script, artifacts, capsys):
        assert script.main([artifacts[1], artifacts[0], "--quiet"]) == 0
        assert capsys.readouterr().out.startswith("OK ")

    def test_accepts_a_trace_alone(self, script, artifacts):
        assert script.main([artifacts[0]]) == 0

    def test_fails_on_a_damaged_trace(self, script, artifacts, tmp_path, capsys):
        damaged = _rewrite(artifacts[0], str(tmp_path / "cut.jsonl"),
                           lambda lines: lines[:-1])
        assert script.main([artifacts[1], damaged, "--quiet"]) == 1
        assert "FAIL" in capsys.readouterr().err
