import inspect
import os
import pickle

import pytest

from thermocc import errors, util


def test_every_error_pickles():
    """Worker processes hand errors back to the caller by pickling."""
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.ThermoccError)]
    assert errors.DataIOError in classes
    for cls in classes:
        copy = pickle.loads(pickle.dumps(cls("cannot write x: denied")))
        assert type(copy) is cls
        assert str(copy) == "cannot write x: denied"


def _fail_replace(src, dst):
    raise OSError(28, "No space left on device")


def _fail_mid_write(real_open):
    def fake_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        fh.write("partial")
        fh.flush()
        fh.close()
        raise OSError(28, "No space left on device")
    return fake_open


@pytest.mark.parametrize("failure", ["write", "replace", "target is a dir"])
def test_failed_atomic_write_keeps_old_file(tmp_path, monkeypatch, failure):
    """A summary write that fails raises DataIOError, leaves the file it
    would have replaced as it was and leaves no temporary behind."""
    target = tmp_path / "report.json"
    if failure == "target is a dir":
        target.mkdir()
    else:
        target.write_text("old\n")
    if failure == "write":
        monkeypatch.setattr(util, "open", _fail_mid_write(open),
                            raising=False)
    elif failure == "replace":
        monkeypatch.setattr(util.os, "replace", _fail_replace)
    with pytest.raises(errors.DataIOError):
        util.write_text_atomic(str(target), "new\n")
    assert os.listdir(tmp_path) == ["report.json"]
    if failure != "target is a dir":
        assert target.read_text() == "old\n"


def test_atomic_write_replaces_and_leaves_only_the_file(tmp_path):
    target = tmp_path / "timeline.csv"
    target.write_text("old\n")
    util.write_text_atomic(str(target), "ts,flag\r\n1,0\n")
    assert os.listdir(tmp_path) == ["timeline.csv"]
    assert target.read_bytes() == b"ts,flag\r\n1,0\n"
