"""Tests for ``repro.lint``: rules, suppression, CLI, clean tree.

Layers covered:

* every registered rule fails its ``tests/lint_fixtures/<code>_bad.py``
  fixture and passes its ``_good.py`` twin (parametrised over the registry,
  so adding a rule without fixtures fails here);
* the PR 2 ``hash()`` bug reconstruction is caught by DET001;
* inline ``# lint: ignore[RULE]`` suppression (the only exemption);
* the JSON output schema and the CLI's stable exit codes;
* the shipped tree itself lints clean (``check src`` exits 0) — the
  acceptance gate CI's static-analysis job re-runs;
* the DIG002 declarations match ``dataclasses.fields`` at runtime, so the
  AST view and the live classes cannot drift;
* mypy on the typed core, when mypy is installed (CI installs it; the
  offline dev container skips).
"""

from __future__ import annotations

import dataclasses
import json
import os
import textwrap

import pytest

from repro.lint import run_lint
from repro.lint.cli import main
from repro.lint.rules import RULES, FileRule, ProjectRule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")
SRC = os.path.join(REPO_ROOT, "src")


def codes(result, status="error"):
    return {f.rule for f in result.findings if f.status == status}


# ------------------------------------------------------------------ fixtures


@pytest.mark.parametrize("code", sorted(RULES))
def test_bad_fixture_fails(code):
    path = os.path.join(FIXTURES, f"{code.lower()}_bad.py")
    assert os.path.exists(path), f"rule {code} has no bad fixture"
    result = run_lint([path])
    assert code in codes(result), f"{code} did not fire on its bad fixture"


@pytest.mark.parametrize("code", sorted(RULES))
def test_good_fixture_passes(code):
    path = os.path.join(FIXTURES, f"{code.lower()}_good.py")
    assert os.path.exists(path), f"rule {code} has no good fixture"
    result = run_lint([path])
    assert code not in codes(result), (
        f"{code} fired on its good fixture: "
        + "; ".join(f.message for f in result.errors)
    )


def test_every_rule_has_kind_and_rationale():
    for code, rule in RULES.items():
        assert issubclass(rule, (FileRule, ProjectRule))
        assert rule.summary, f"{code} has no summary"
        assert "why this rule exists" in rule.rationale().lower(), (
            f"{code}'s docstring must explain why it exists"
        )


def test_pr2_hash_bug_reconstruction_caught():
    """The exact incident DET001 exists for: builtin hash() in the
    decentralized spawn-policy region stagger (shipped in PR 2, silently
    per-process-random until the serial-vs-pool A/B suite hit it)."""
    result = run_lint([os.path.join(FIXTURES, "det001_bad.py")])
    hash_findings = [
        f
        for f in result.errors
        if f.rule == "DET001" and "hash()" in f.message
    ]
    assert hash_findings, "the PR 2 hash() stagger was not caught"
    assert any("stagger" in f.snippet for f in hash_findings)


# ------------------------------------------------------------------ engine


def test_one_parse_many_rules(tmp_path):
    """A file violating several rules yields all of them from one scan."""
    path = tmp_path / "multi.py"
    path.write_text(
        textwrap.dedent(
            """
            import time

            def f(items):
                try:
                    started = time.time()
                except Exception:
                    pass
                return started
            """
        )
    )
    result = run_lint([str(path)])
    assert codes(result) == {"DET001", "EXC005"}


def test_syntax_error_is_a_finding_not_a_crash(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    result = run_lint([str(path)])
    assert codes(result) == {"SYNTAX"}


def test_inline_suppression_and_preceding_line(tmp_path):
    path = tmp_path / "suppressed.py"
    path.write_text(
        textwrap.dedent(
            """
            import time

            a = time.time()  # lint: ignore[DET001] host accounting
            # lint: ignore[DET001] justified on the line above
            b = time.time()
            c = time.time()
            """
        )
    )
    result = run_lint([str(path)])
    by_status = {f.status for f in result.findings}
    assert by_status == {"suppressed", "error"}
    assert len(result.errors) == 1  # only `c` still fires
    assert result.errors[0].snippet.startswith("c = ")


def test_suppression_is_rule_specific(tmp_path):
    path = tmp_path / "wrong_code.py"
    path.write_text("import time\na = time.time()  # lint: ignore[EXC005]\n")
    result = run_lint([str(path)])
    assert len(result.errors) == 1  # DET001 is not covered by EXC005's ignore


# ------------------------------------------------------------------ JSON + CLI


def test_json_output_schema(capsys):
    bad = os.path.join(FIXTURES, "mut004_bad.py")
    exit_code = main(["check", bad, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert exit_code == 1
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert payload["files_scanned"] == 1
    assert set(payload) == {"version", "ok", "files_scanned", "counts", "findings"}
    assert set(payload["counts"]) == {"error", "suppressed"}
    assert payload["counts"]["error"] == len(payload["findings"])
    for finding in payload["findings"]:
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "snippet", "status",
        }
        assert finding["rule"] == "MUT004"
        assert finding["line"] > 0


def test_cli_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["check", str(clean)]) == 0
    assert main(["check", os.path.join(FIXTURES, "det001_bad.py")]) == 1
    assert main(["check", str(clean), "--rules", "NOPE999"]) == 2
    # There is no baseline file: the old flag is a usage error like any other.
    assert main(["check", str(clean), "--baseline", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_cli_rules_listing(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES:
        assert code in out
    assert main(["rules", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {entry["code"] for entry in payload} == set(RULES)
    assert all(entry["rationale"] for entry in payload)


def test_cli_rule_selection(capsys):
    bad = os.path.join(FIXTURES, "det001_bad.py")
    # Restricting to another rule means the DET001 findings vanish.
    assert main(["check", bad, "--rules", "EXC005"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------------ the tree


def test_shipped_tree_is_clean():
    """The acceptance gate: ``python -m repro.lint check src/`` exits 0."""
    result = run_lint([SRC])
    messages = [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in result.errors
    ]
    assert not messages, "shipped tree has lint errors:\n" + "\n".join(messages)
    # The wall-clock accounting sites are suppressed with justifications,
    # not silently absent.
    assert result.counts()["suppressed"] >= 7


def test_dig002_declarations_match_runtime():
    """The AST-checked partitions equal ``dataclasses.fields`` live."""
    from repro.api.spec import (
        ADDRESSED_RUNSPEC_FIELDS,
        NON_ADDRESSED_RUNSPEC_FIELDS,
        RunSpec,
    )
    from repro.core.runner import SimulationResult
    from repro.sweep.serialization import HOST_SPEED_FIELDS, SIMULATED_RESULT_FIELDS

    spec_fields = {f.name for f in dataclasses.fields(RunSpec)}
    declared = set(ADDRESSED_RUNSPEC_FIELDS) | set(NON_ADDRESSED_RUNSPEC_FIELDS)
    assert spec_fields == declared
    assert not set(ADDRESSED_RUNSPEC_FIELDS) & set(NON_ADDRESSED_RUNSPEC_FIELDS)

    result_fields = {f.name for f in dataclasses.fields(SimulationResult)}
    declared = set(SIMULATED_RESULT_FIELDS) | set(HOST_SPEED_FIELDS)
    assert result_fields == declared
    assert not set(SIMULATED_RESULT_FIELDS) & set(HOST_SPEED_FIELDS)

    from repro.store.record import (
        ADDRESSED_RECORD_FIELDS,
        HOST_SIDE_RECORD_FIELDS,
        StoreRecord,
    )

    record_fields = {f.name for f in dataclasses.fields(StoreRecord)}
    declared = set(ADDRESSED_RECORD_FIELDS) | set(HOST_SIDE_RECORD_FIELDS)
    assert record_fields == declared
    assert not set(ADDRESSED_RECORD_FIELDS) & set(HOST_SIDE_RECORD_FIELDS)


def test_dig002_requires_whole_tree_context(tmp_path):
    """A RunSpec parsed without its declarations is an explicit finding,
    not a silent pass."""
    path = tmp_path / "orphan.py"
    path.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class RunSpec:\n"
        "    seed: int = 1\n"
    )
    result = run_lint([str(path)])
    assert codes(result) == {"DIG002"}
    assert "not in the scanned file set" in result.errors[0].message


# ------------------------------------------------------------------ mypy gate


def test_mypy_typed_core():
    """Run mypy over the typed core when available (CI installs it)."""
    mypy_api = pytest.importorskip("mypy.api", reason="mypy not installed")
    stdout, stderr, status = mypy_api.run(
        ["--config-file", os.path.join(REPO_ROOT, "mypy.ini")]
    )
    assert status == 0, f"mypy failed:\n{stdout}\n{stderr}"
