"""The documented examples run as written: the demo scripts and the README quick start."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S).group(1)
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert printed == ["((5, 0, 2), 2)", "2", "1.0"]
    assert len(comments) == 3 and all(map(str.startswith, comments, printed)), comments
