"""Golden digests: pipeline artifacts must not change between versions.

golden/pipeline_300_seed4.sha256 holds, in `sha256sum` format, the
digest of every file that `thermocc pipeline --frames 300 --seed 4`
writes. The determinism criterion compares two runs of the same code;
this fixture catches a change in any artifact from one version to the
next. A change that alters artifacts on purpose regenerates the
fixture from a run directory RUN, from the repository root, and
declares it in CHANGES.md:

    (cd RUN && find . -type f | sed 's|^\\./||' | LC_ALL=C sort \\
        | xargs sha256sum) > tests/golden/pipeline_300_seed4.sha256
"""

import hashlib
import os

import pytest

from thermocc.cli import main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden",
                       "pipeline_300_seed4.sha256")


def _expected() -> dict:
    digests = {}
    with open(FIXTURE, encoding="utf-8") as fh:
        for line in fh:
            digest, path = line.rstrip("\n").split("  ", 1)
            digests[path] = digest
    return digests


def _actual(root: str) -> dict:
    digests = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _check_golden_run(tmp_path, threads):
    out = str(tmp_path / "run")
    assert main(["pipeline", "--out", out, "--frames", "300", "--seed", "4",
                 "--threads", threads]) == 0
    expected = _expected()
    actual = _actual(out)
    assert sorted(actual) == sorted(expected)
    changed = sorted(path for path in expected
                     if actual[path] != expected[path])
    assert not changed, f"{len(changed)} artifacts changed: {changed[:5]}"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pipeline_artifacts_match_golden_digests(tmp_path, threads):
    _check_golden_run(tmp_path, threads)


def _no_read(*args, **kwargs):
    raise AssertionError("pipeline read back a file")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pipeline_reads_nothing_back(tmp_path, monkeypatch, threads):
    """pipeline passes values between its stages: with every reader of
    the files it writes disabled, also in forked workers, which inherit
    the patches, it still writes the golden bytes."""
    for site in ("thermocc.cli.load_samples", "thermocc.cli.detect_manifest",
                 "thermocc.cli.read_manifest", "thermocc.detect.read_frame",
                 "thermocc.metrics.read_text"):
        monkeypatch.setattr(site, _no_read)
    _check_golden_run(tmp_path, threads)
