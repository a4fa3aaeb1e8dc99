"""Rerun the suite's kill list: every mutant in mutants.json must fail a test.

Each entry of the list names a source file, an exact text that occurs
exactly once in it, the text's replacement (the mutant), and the pytest
ids that must fail once the replacement is made. For each entry the
script copies src/, tests/ and pyproject.toml into a temporary
directory, applies the replacement there, and runs pytest on the named
ids with that copy's src/ first on the path. Before any mutant, the
named tests run once on an unmutated copy, where all of them must pass,
so a test that fails for another reason cannot count as a kill.

A mutant survives if any named test passes, is skipped or does not run.
The script uses only the standard library and pytest.

    python tools/mutants.py

Exit 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")


def _junit_key(test_id: str) -> tuple[str, str]:
    """(classname, name) of a pytest id in a --junitxml report."""
    path, _, rest = test_id.partition("::")
    parts = rest.split("::")
    module = path[:-len(".py")].replace("/", ".")
    return ".".join([module] + parts[:-1]), parts[-1]


def _copy_tree(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, os.path.join(dest, name))


def _outcomes(tree: str, test_ids: list[str]) -> dict[str, str]:
    """Run test_ids in the copy at tree: 'passed', 'failed' or 'skipped'
    per id that ran; an id that is missing did not run, and then pytest's
    last lines are printed."""
    report = os.path.join(tree, "report.xml")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"--junitxml={report}", *test_ids],
            cwd=tree, env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
            capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return {t: "failed" for t in test_ids}  # a hang is caught too
    seen = {}
    for case in (ET.parse(report).iter("testcase")
                 if os.path.exists(report) else ()):
        tags = {child.tag for child in case}
        seen[case.get("classname"), case.get("name")] = (
            "failed" if tags & {"failure", "error"} else
            "skipped" if "skipped" in tags else "passed")
    if any(_junit_key(t) not in seen for t in test_ids):
        print("\n".join((proc.stdout + proc.stderr).splitlines()[-5:]),
              file=sys.stderr)
    return {t: seen[_junit_key(t)] for t in test_ids
            if _junit_key(t) in seen}


def check(mutants: list[dict]) -> list[str]:
    """Return one line per problem; empty when every mutant is killed."""
    problems = []
    for m in mutants:
        with open(os.path.join(ROOT, m["file"]), encoding="utf-8") as fh:
            count = fh.read().count(m["text"])
        if count != 1:
            problems.append(f"{m['name']}: its text occurs {count} times "
                            f"in {m['file']}, not once")
        if not m["tests"]:
            problems.append(f"{m['name']}: names no test")
    if problems:
        return problems

    every_id = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        control = _outcomes(tree, every_id)
    for t in every_id:
        if control.get(t) != "passed":
            problems.append(f"unmutated: {t} {control.get(t, 'did not run')}")
    if problems:
        return problems

    for m in mutants:
        with tempfile.TemporaryDirectory() as tree:
            _copy_tree(tree)
            path = os.path.join(tree, m["file"])
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(m["text"], m["replacement"]))
            result = _outcomes(tree, m["tests"])
        survived = [f"{t} {result.get(t, 'did not run')}" for t in m["tests"]
                    if result.get(t) != "failed"]
        print(f"{'survived' if survived else 'killed':8}  {m['name']}")
        problems += [f"{m['name']}: {line}" for line in survived]
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "tools", "mutants.json"),
              encoding="utf-8") as fh:
        mutants = json.load(fh)
    problems = check(mutants)
    for line in problems:
        print(f"error: {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
