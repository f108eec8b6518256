"""Importing the package loads numpy with one BLAS thread, and leaves the caller's settings alone.

Each case runs in a fresh interpreter whose environment has none of the
variables OpenBLAS reads its thread count from, apart from those the case
sets. A thread count is compared with 1 or with a baseline interpreter under
the same environment, never with a core count.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="counting threads needs /proc/self/task")


def threads_after(imports: str, **env_vars: str) -> tuple[int, dict]:
    """Thread count and thread variables of a fresh interpreter after `imports`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(env_vars)
    code = (f"{imports}; import os; print(len(os.listdir('/proc/self/task'))); "
            f"print({{k: v for k, v in os.environ.items() if k in {THREAD_VARS}}})")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, thread_vars = proc.stdout.splitlines()
    return int(count), ast.literal_eval(thread_vars)


def test_a_fresh_import_runs_one_thread_and_leaves_the_environment():
    assert threads_after("import simplexcode") == (1, {})
    assert threads_after("import simplexcode.cli") == (1, {})


@pytest.mark.parametrize("var", THREAD_VARS)
def test_a_callers_thread_count_is_kept(var):
    count, _ = threads_after("import numpy", **{var: "2"})
    assert threads_after("import simplexcode", **{var: "2"}) == (count, {var: "2"})


def test_numpy_loaded_first_keeps_its_threads():
    count, _ = threads_after("import numpy")
    assert threads_after("import numpy; import simplexcode") == (count, {})
