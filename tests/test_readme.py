"""README's library sketch runs and prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sketch():
    """The ``python`` code block under README's "Library sketch"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def expected_lines(code):
    """For each ``print`` line, its trailing comment, or else the comment
    on the next line."""
    lines = code.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("print("):
            comment = line if "#" in line else lines[i + 1]
            out.append(comment.split("#", 1)[1].strip())
    return out


def test_library_sketch_prints_its_comments():
    code = sketch()
    expected = expected_lines(code)
    assert len(expected) == 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == expected
