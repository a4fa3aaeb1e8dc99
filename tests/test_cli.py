import json
import os
import subprocess
import sys

import numpy as np
import pytest

import thermocc
from thermocc.cli import main
from thermocc.errors import DataIOError, FrameIOError
from thermocc.frame import read_frame
from thermocc.manifest import read_manifest, resolve
from thermocc.synth import DatasetSpec, generate_dataset, occupied_count


def tree_bytes(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


@pytest.fixture
def frontal_dataset(tmp_path):
    """A small all-easy dataset the detector scores perfectly."""
    out = tmp_path / "data"
    rc = main(["synth", "--out", str(out), "--frames", "24", "--seed", "5",
               "--scenario", "frontal"])
    assert rc == 0
    return str(out / "manifest.jsonl")


def test_synth_takes_its_clock_and_noise_flags(tmp_path):
    """--start-ts and --period set each frame's ts, in the manifest and in
    the frame's `# ts=` line alike; --sigma 0 leaves a vacant frame one
    raw count, its drawn background."""
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--frames", "6", "--start-ts",
                 "100", "--period", "5", "--sigma", "0"]) == 0
    records = read_manifest(str(out / "manifest.jsonl"))
    assert [r.ts for r in records] == [100, 105, 110, 115, 120, 125]
    for rec in records:
        with open(out / rec.frame, "rb") as fh:
            assert fh.read().split(b"\n")[1] == f"# ts={rec.ts}".encode()
    vacant = [r for r in records if not r.occupied]
    assert vacant
    for rec in vacant:
        assert np.unique(read_frame(str(out / rec.frame)).temps).size == 1


def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = main(["synth", "--out", str(out), "--frames", "40", "--seed", "1"])
    assert rc == 0
    records = read_manifest(str(out / "manifest.jsonl"))
    assert len(records) == 40
    occupied = sum(r.occupied for r in records)
    assert occupied == occupied_count(40, 3.75 / 4.75)
    assert f"wrote 40 frames ({occupied} occupied" in capsys.readouterr().out


def test_split_writes_subsets(tmp_path, frontal_dataset):
    out = tmp_path / "splits"
    rc = main(["split", "--manifest", frontal_dataset, "--out", str(out),
               "--seed", "0"])
    assert rc == 0
    total = 0
    for name in ("train", "val", "test"):
        subset_path = str(out / f"{name}.jsonl")
        records = read_manifest(subset_path)
        total += len(records)
        for rec in records:
            assert os.path.exists(resolve(subset_path, rec.frame))
            assert os.path.exists(resolve(subset_path, rec.labels))
    assert total == 24
    report = json.loads((out / "ratio_report.json").read_text())
    assert set(report) == {"overall", "subsets"}
    assert report["overall"]["total"] == 24
    assert set(report["subsets"]) == {"train", "val", "test"}


def test_detect_writes_predictions(tmp_path, frontal_dataset):
    preds = tmp_path / "preds"
    rc = main(["detect", "--manifest", frontal_dataset, "--out", str(preds)])
    assert rc == 0
    records = read_manifest(frontal_dataset)
    for rec in records:
        stem = os.path.splitext(os.path.basename(rec.frame))[0]
        text = (preds / f"{stem}.txt").read_text()
        if rec.occupied:
            fields = text.splitlines()[0].split()
            assert len(fields) == 6
            assert float(fields[5]) >= 0.9
        else:
            assert text == ""


def test_eval_report(tmp_path, frontal_dataset, capsys):
    preds = tmp_path / "preds"
    main(["detect", "--manifest", frontal_dataset, "--out", str(preds)])
    report_path = tmp_path / "report.json"
    rc = main(["eval", "--manifest", frontal_dataset, "--preds", str(preds),
               "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert list(report) == ["precision", "recall", "map50", "map50_95",
                            "ap_per_iou", "counts", "operating_tau"]
    assert report["precision"] == 1.0
    assert report["recall"] == 1.0
    assert report["counts"]["images"] == 24
    assert "precision 1.000" in capsys.readouterr().out


def test_occupancy_outputs(tmp_path, frontal_dataset, capsys):
    preds = tmp_path / "preds"
    main(["detect", "--manifest", frontal_dataset, "--out", str(preds)])
    out = tmp_path / "occ"
    rc = main(["occupancy", "--manifest", frontal_dataset,
               "--preds", str(preds), "--out", str(out)])
    assert rc == 0
    timeline = (out / "timeline.csv").read_text()
    assert timeline.startswith("ts,actual,detected\n")
    assert len(timeline.splitlines()) == 25
    schedule = (out / "schedule.csv").read_text()
    assert schedule.startswith("ts,hvac_on\n")
    assert (out / "occupancy_timeline.svg").read_text().startswith("<svg ")
    assert "recall 1.000" in capsys.readouterr().out


def test_occupancy_on_an_empty_manifest_fails_cleanly(tmp_path, capsys):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    out = tmp_path / "occ"
    assert main(["occupancy", "--manifest", str(manifest),
                 "--preds", str(tmp_path), "--out", str(out)]) == 1
    assert "manifest holds no records" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_reproducible(tmp_path):
    args = ["pipeline", "--frames", "120", "--seed", "9"]
    rc = main(args + ["--out", str(tmp_path / "a"), "--threads", "1"])
    assert rc == 0
    rc = main(args + ["--out", str(tmp_path / "b"), "--threads", "2"])
    assert rc == 0
    a = tree_bytes(str(tmp_path / "a"))
    b = tree_bytes(str(tmp_path / "b"))
    assert sorted(a) == sorted(b)
    assert a == b
    assert "report.json" in a
    assert os.path.join("plots", "pr_curve.svg") in a
    assert os.path.join("occupancy", "schedule.csv") in a


def test_subcommands_reproduce_pipeline(tmp_path):
    """eval and occupancy over a pipeline's splits/ and preds/ rewrite
    its report, CSVs and timeline plot byte for byte."""
    run = tmp_path / "run"
    assert main(["pipeline", "--out", str(run), "--frames", "300",
                 "--seed", "4"]) == 0
    test_manifest = str(run / "splits" / "test.jsonl")
    report = tmp_path / "report.json"
    assert main(["eval", "--manifest", test_manifest,
                 "--preds", str(run / "preds"), "--out", str(report)]) == 0
    occ = tmp_path / "occ"
    assert main(["occupancy", "--manifest", test_manifest,
                 "--preds", str(run / "preds"), "--out", str(occ)]) == 0
    assert report.read_bytes() == (run / "report.json").read_bytes()
    for name in ("timeline.csv", "schedule.csv"):
        assert (occ / name).read_bytes() == \
            (run / "occupancy" / name).read_bytes()
    assert (occ / "occupancy_timeline.svg").read_bytes() == \
        (run / "plots" / "occupancy_timeline.svg").read_bytes()


def test_exit_codes(tmp_path, frontal_dataset, capsys, monkeypatch):
    assert main([]) == 1  # a subcommand is required
    assert main(["synth", "--bogus"]) == 1
    assert main(["--help"]) == 0
    assert main(["split", "--manifest", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "s")]) == 1
    assert main(["detect", "--manifest", str(tmp_path / "missing.jsonl"),
                 "--out", str(tmp_path / "p")]) == 1
    assert main(["synth", "--out", str(tmp_path / "nan"), "--frames", "4",
                 "--background", "nan"]) == 1
    # a negative split seed, from the flag or the environment
    split = ["split", "--manifest", frontal_dataset,
             "--out", str(tmp_path / "s")]
    capsys.readouterr()
    assert main(split + ["--seed", "-1"]) == 1
    monkeypatch.setenv("THERMOCC_SEED", "-1")
    assert main(split) == 1
    err = capsys.readouterr().err
    assert err.count("seed must be non-negative, got -1") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "s").exists()


def test_bad_fractions_fail_cleanly(tmp_path, frontal_dataset, capsys):
    out = str(tmp_path / "splits")
    assert main(["split", "--manifest", frontal_dataset, "--out", out,
                 "--fractions", "0.5,0.5"]) == 1
    assert main(["split", "--manifest", frontal_dataset, "--out", out,
                 "--fractions", "0.5,0.4,0.3"]) == 1
    capsys.readouterr()
    assert main(["split", "--manifest", frontal_dataset, "--out", out,
                 "--fractions", "a,b,c"]) == 1
    err = capsys.readouterr().err
    assert "fractions must be numeric, got 'a,b,c'" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


def test_synth_refuses_a_zero_period(tmp_path, capsys):
    out = tmp_path / "ds"
    assert main(["synth", "--out", str(out), "--frames", "4",
                 "--period", "0"]) == 1
    assert "frame period must be at least 1 s" in capsys.readouterr().err
    assert not out.exists()


def test_bad_tau_fails_cleanly(tmp_path, frontal_dataset):
    preds = tmp_path / "preds"
    main(["detect", "--manifest", frontal_dataset, "--out", str(preds)])
    assert main(["eval", "--manifest", frontal_dataset,
                 "--preds", str(preds), "--tau", "1.5"]) == 1


def test_bad_threads_fails_cleanly(tmp_path, frontal_dataset):
    assert main(["pipeline", "--frames", "40", "--out", str(tmp_path / "r"),
                 "--threads", "0"]) == 1
    # detect runs in the calling thread and has no --threads flag
    assert main(["detect", "--manifest", frontal_dataset,
                 "--out", str(tmp_path / "p"), "--threads", "2"]) == 1


@pytest.mark.parametrize("bad", [["--tau", "1.5"], ["--tau", "nan"],
                                 ["--on-delay", "nan"], ["--off-hold", "-1"],
                                 ["--threads", "0"],
                                 # an empty test subset, an infeasible split
                                 ["--frames", "3"],
                                 ["--fractions", "0.1,0.45,0.45"]])
def test_pipeline_checks_arguments_before_writing(tmp_path, capsys, bad):
    out = tmp_path / "run"
    assert main(["pipeline", "--frames", "40", "--out", str(out)] + bad) == 1
    assert not out.exists()
    assert not list(tmp_path.glob("*.partial"))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if bad[0] == "--threads":
        assert "--threads" in err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--tau", "2"], "tau must lie in [0, 1], got 2.0"),
    (["eval", "--out", ""], "--out must not be empty"),
    (["occupancy", "--tau", "nan"], "tau must lie in [0, 1], got nan"),
    (["occupancy", "--on-delay", "nan"],
     "policy delays must be non-negative numbers"),
    (["occupancy", "--out", ""], "--out must not be empty"),
    (["split", "--out", ""], "--out must not be empty"),
], ids=["eval-tau", "eval-out", "occupancy-tau", "occupancy-on-delay",
        "occupancy-out", "split-out"])
def test_stages_check_arguments_before_reading(tmp_path, frontal_dataset,
                                               capsys, argv, message):
    """A bad argument is reported before the manifest or the predictions
    are read: over a manifest with no prediction files nothing is printed,
    and a missing manifest is not what is reported."""
    preds = tmp_path / "preds"
    preds.mkdir()
    command, flags = argv[0], argv[1:]
    if command != "split":
        flags += ["--preds", str(preds)]
    if "--out" not in flags:
        flags += ["--out", str(tmp_path / "out")]
    for manifest in (frontal_dataset, str(tmp_path / "none.jsonl")):
        assert main([command, "--manifest", manifest] + flags) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_detect_refuses_a_bad_nms_iou_before_out(tmp_path, frontal_dataset,
                                                 capsys):
    out = tmp_path / "preds"
    assert main(["detect", "--manifest", frontal_dataset, "--out", str(out),
                 "--nms-iou", "1.5"]) == 1
    assert capsys.readouterr().err == (
        "error: nms_iou must lie in [0, 1], got 1.5\n")
    assert not out.exists() and not list(tmp_path.glob("*.partial"))


def test_detect_above_the_head_peak_finds_nothing(tmp_path, frontal_dataset):
    """Synthesized heads peak at 34 C, so a 40 C contour seeds no blob and
    every frame gets an empty prediction file."""
    out = tmp_path / "preds"
    assert main(["detect", "--manifest", frontal_dataset, "--out", str(out),
                 "--warm-threshold", "40"]) == 0
    records = read_manifest(frontal_dataset)
    assert any(rec.occupied for rec in records)
    texts = [(out / name).read_text() for name in sorted(os.listdir(out))]
    assert len(texts) == len(records) and set(texts) == {""}


def test_killed_synth_worker_fails_the_run(tmp_path):
    """A synth worker killed by a signal ends the run with exit 1; it
    must not leave the pipeline waiting forever."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thermocc.__file__)))
    code = ("import os, signal, sys\n"
            "import thermocc.synth\n"
            "from thermocc.cli import main\n"
            "def die(*args, **kwargs):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "thermocc.synth.render_frame = die\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "pipeline", "--frames", "40",
         "--threads", "2", "--out", str(tmp_path / "run")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "worker" in proc.stderr
    assert not (tmp_path / "run").exists()
    assert not list(tmp_path.glob("run.*.partial"))


def test_killed_worker_fails_synth(tmp_path):
    """synth's frames are written by forked workers too: one killed by a
    signal ends synth with exit 1 and leaves no --out."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thermocc.__file__)))
    code = ("import os, signal, sys\n"
            "import thermocc.synth\n"
            "from thermocc.cli import main\n"
            "def die(*args, **kwargs):\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "thermocc.synth.render_frame = die\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, "synth", "--frames", "40",
         "--out", str(tmp_path / "data")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "worker" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_late_pipeline_failure_leaves_nothing(tmp_path, capsys):
    """A run that fails after its first write, here because no frame is
    occupied and eval has nothing to score, leaves neither --out nor its
    staged directory."""
    assert main(["pipeline", "--frames", "50", "--occupied-fraction", "0",
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err == "error: no ground truths and no predictions to score\n"
    assert list(tmp_path.iterdir()) == []


def test_worker_write_error_reaches_caller(tmp_path, capsys, monkeypatch):
    """A frame that cannot be written fails the run with exit 1 and names
    the file, whichever process wrote it."""
    write_frame = thermocc.synth.write_frame

    def full_disk_for_frame_1(path, frame):
        if os.path.basename(path) == "frame_000001.pgm":
            raise FrameIOError(f"cannot write frame {path}: disk full")
        write_frame(path, frame)

    monkeypatch.setattr(thermocc.synth, "write_frame", full_disk_for_frame_1)
    for threads in ("1", "2"):
        assert main(["pipeline", "--frames", "40", "--threads", threads,
                     "--out", str(tmp_path / f"t{threads}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frame_000001.pgm" in err


def test_synth_write_error_reaches_caller(tmp_path, capsys, monkeypatch):
    """A frame synth cannot write fails it with exit 1, names the file and
    leaves no --out, whether it was written here or in a worker."""
    write_frame = thermocc.synth.write_frame

    def full_disk_for_frame_1(path, frame):
        if os.path.basename(path) == "frame_000001.pgm":
            raise FrameIOError(f"cannot write frame {path}: disk full")
        write_frame(path, frame)

    monkeypatch.setattr(thermocc.synth, "write_frame", full_disk_for_frame_1)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, n=cpus: set(range(n)), raising=False)
        assert main(["synth", "--frames", "40",
                     "--out", str(tmp_path / f"cpus{cpus}")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "frame_000001.pgm" in err
    assert list(tmp_path.iterdir()) == []


def test_rerun_into_used_out_is_refused(tmp_path, frontal_dataset, capsys,
                                        monkeypatch):
    """A run into an --out that holds anything exits 1 before it writes,
    so it never mixes with the files already there; an empty directory
    is fine, an empty --out is not, for eval's report file either."""
    runs = [["pipeline", "--frames", "40"],
            ["synth", "--frames", "6"],
            ["detect", "--manifest", frontal_dataset]]
    for k, argv in enumerate(runs):
        out = tmp_path / f"out{k}"
        out.mkdir()
        assert main(argv + ["--out", str(out)]) == 0
        first = tree_bytes(str(out))
        assert main(argv + ["--out", str(out)]) == 1
        assert tree_bytes(str(out)) == first
        assert "not an empty directory" in capsys.readouterr().err
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main(["synth", "--frames", "6", "--out", str(blocker)]) == 1
    assert blocker.read_text() == ""
    # each run renames its finished --out into place, which must not be
    # the directory it runs in, even an empty one
    here = tmp_path / "here"
    here.mkdir()
    monkeypatch.chdir(here)
    for argv in runs:
        assert main(argv + ["--out", "."]) == 1
        assert "is the current directory" in capsys.readouterr().err
        assert list(here.iterdir()) == []
    assert not list(tmp_path.glob("*.partial"))
    # os.path.lexists("") is False, yet "" would write into the current
    # directory
    (here / "kept.txt").write_text("kept")
    # eval, split and occupancy refuse it before they read the manifest,
    # which is missing here
    missing = str(tmp_path / "none.jsonl")
    for argv in runs + [["eval", "--manifest", missing, "--preds", str(tmp_path)],
                        ["split", "--manifest", missing],
                        ["occupancy", "--manifest", missing,
                         "--preds", str(tmp_path)]]:
        assert main(argv + ["--out", ""]) == 1
        assert "--out must not be empty" in capsys.readouterr().err
        assert [p.name for p in here.iterdir()] == ["kept.txt"]
        assert (here / "kept.txt").read_text() == "kept"


def test_failed_detect_leaves_no_out(tmp_path, frontal_dataset, capsys,
                                     monkeypatch):
    """A detect that fails at its 4th prediction file leaves no --out, so
    eval cannot score the first three as a run that missed the rest."""
    write_text, written = thermocc.cli.write_text, []

    def full_disk_at_4th(path, text):
        written.append(path)
        if len(written) == 4:
            raise DataIOError(f"cannot write {path}: disk full")
        write_text(path, text)

    monkeypatch.setattr(thermocc.cli, "write_text", full_disk_at_4th)
    preds = tmp_path / "preds"
    assert main(["detect", "--manifest", frontal_dataset,
                 "--out", str(preds)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert not preds.exists() and not list(tmp_path.glob("*.partial"))
    assert main(["eval", "--manifest", frontal_dataset,
                 "--preds", str(preds)]) == 1
    assert (f"predictions directory {preds} is missing"
            in capsys.readouterr().err)


def test_detect_refuses_duplicate_stems_before_it_detects(
        tmp_path, frontal_dataset, capsys, monkeypatch):
    """Duplicate frame stems are a ConfigError before any frame is read,
    so an unreadable frame in the same manifest is not what is reported,
    and no --out is made."""
    lines = open(frontal_dataset).read().splitlines()
    missing = dict(json.loads(lines[1]), frame="frames/absent.pgm")
    manifest = tmp_path / "data" / "dup.jsonl"
    manifest.write_text("\n".join([json.dumps(missing)] + lines[:1] * 2)
                        + "\n")
    calls = []
    monkeypatch.setattr(thermocc.cli, "detect_manifest",
                        lambda *a: calls.append(a) or iter(()))
    preds = tmp_path / "preds"
    assert main(["detect", "--manifest", str(manifest),
                 "--out", str(preds)]) == 1
    assert ("manifest contains duplicate frame stems"
            in capsys.readouterr().err)
    assert calls == []
    assert not preds.exists() and not list(tmp_path.glob("*.partial"))


def test_failed_synth_leaves_no_out(tmp_path, capsys, monkeypatch):
    """A synth that fails at its 10th frame leaves no --out, and so
    nothing that blocks the rerun."""
    write_frame = thermocc.synth.write_frame

    def full_disk_at_frame_9(path, frame):
        if os.path.basename(path) == "frame_000009.pgm":
            raise FrameIOError(f"cannot write frame {path}: disk full")
        write_frame(path, frame)

    monkeypatch.setattr(thermocc.synth, "write_frame", full_disk_at_frame_9)
    argv = ["synth", "--frames", "20", "--out", str(tmp_path / "ds")]
    assert main(argv) == 1
    assert "frame_000009.pgm" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    assert main(argv) == 0
    assert len(read_manifest(str(tmp_path / "ds" / "manifest.jsonl"))) == 20


def test_unwritable_out_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for argv in (["synth", "--frames", "6"],
                 ["pipeline", "--frames", "40", "--threads", "1"],
                 ["pipeline", "--frames", "40", "--threads", "2"]):
        rc = main(argv + ["--out", str(blocker / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_unreadable_inputs_fail_cleanly(tmp_path, frontal_dataset, capsys):
    preds = tmp_path / "preds"
    main(["detect", "--manifest", frontal_dataset, "--out", str(preds)])
    eval_argv = ["eval", "--manifest", frontal_dataset, "--preds", str(preds)]
    label = resolve(frontal_dataset, read_manifest(frontal_dataset)[0].labels)
    os.remove(label)
    assert main(eval_argv) == 1
    assert "cannot read" in capsys.readouterr().err
    with open(label, "wb") as fh:
        fh.write(b"\xff\xfe not utf-8")
    assert main(eval_argv) == 1
    assert "cannot read" in capsys.readouterr().err
    bad_manifest = tmp_path / "bad.jsonl"
    bad_manifest.write_bytes(b"\xff\n")
    assert main(["split", "--manifest", str(bad_manifest),
                 "--out", str(tmp_path / "s")]) == 1


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_nul_in_manifest_path_fails_cleanly(tmp_path, capsys, command):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"frame": "f\\u0000.pgm", '
                        '"labels": "l\\u0000.txt", "occupied": true, '
                        '"ts": 0}\n')
    preds = tmp_path / "preds"
    preds.mkdir()
    target = "--preds" if command == "eval" else "--out"
    assert main([command, "--manifest", str(manifest),
                 target, str(preds)]) == 1
    err = capsys.readouterr().err
    assert "NUL" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "occupancy"])
def test_missing_preds_dir_fails_cleanly(tmp_path, frontal_dataset, capsys,
                                         command):
    rc = main([command, "--manifest", frontal_dataset,
               "--preds", str(tmp_path / "nonexistent"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "predictions directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "occupancy"])
def test_missing_prediction_files_are_counted(tmp_path, frontal_dataset,
                                              capsys, command):
    preds = tmp_path / "preds"
    main(["detect", "--manifest", frontal_dataset, "--out", str(preds)])
    for name in sorted(os.listdir(preds))[:3]:
        os.remove(preds / name)
    capsys.readouterr()
    assert main([command, "--manifest", frontal_dataset,
                 "--preds", str(preds), "--out", str(tmp_path / "out")]) == 0
    assert "3 of 24 frames have no prediction file" in capsys.readouterr().out


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMOCC_SEED", "7")
    main(["synth", "--out", str(tmp_path / "a"), "--frames", "15",
          "--seed", "1"])
    main(["synth", "--out", str(tmp_path / "b"), "--frames", "15",
          "--seed", "2"])
    monkeypatch.delenv("THERMOCC_SEED")
    main(["synth", "--out", str(tmp_path / "c"), "--frames", "15",
          "--seed", "7"])
    a = tree_bytes(str(tmp_path / "a"))
    assert a == tree_bytes(str(tmp_path / "b"))
    assert a == tree_bytes(str(tmp_path / "c"))


def test_env_seed_invalid(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMOCC_SEED", "lots")
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--frames", "5"]) == 1
