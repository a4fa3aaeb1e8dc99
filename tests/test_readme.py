import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def test_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    """README's Library use block runs in an empty directory and scores
    every one of its 200 frames."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["missing"] == 0
    assert scope["report"].counts["images"] == 200
    assert capsys.readouterr().out == scope["report"].to_json() + "\n"
