"""Fuzzed CLI input: every run ends with an exit status of the contract, never a traceback.

Each input starts valid and then has up to two fields replaced by the wrong
type, a negative or oversized number, or text, and sometimes one field
dropped; code files and configs are sometimes JSON nested deeper than the
decoder's recursion limit. Alphabets reach 1,501 symbols. Work stays
bounded: searches pass a point budget below 40, alphabets wider than 8
symbols come with ell <= 1 and radius at most 2, so a ball has at most one
point per symbol, and experiments run at most 20 trials of at most 3
events of each kind unless an event or trial count is oversized (above
2*10^6, up to 10^12), which the channel's event-work price refuses before
any work. Constructions ask for lengths up to 40, or for lengths whose code
would have more codewords than the construction budget, which is refused
before any codeword is built. Verification sometimes asks for a radius at
or above the verify id budget, on the drawn code or on the two-word code of
(1, 10^9), whose balls is_perfect reads off in closed form without a walk.
Sweeps run grids of at most 3 x 6 x 3 cells, or grids with a bound below 1
or with more cells than the sweep's limit, which are refused before any
cell is searched.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from simplexcode.channel import _ROW_CELLS, EVENT_WORK_BUDGET
from simplexcode.codes import CONSTRUCT_WORD_BUDGET, VERIFY_ID_BUDGET
from simplexcode.cli import main
from simplexcode.search import DEFAULT_POINT_BUDGET

FUZZ = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

HUGE = st.sampled_from([2**63, 2**64, 10**30, -(10**30)])
ARG_JUNK = st.one_of(
    st.sampled_from(["", "x", "1.5", "1e3", "-", "0x10", "nan", "--e"]),
    HUGE.map(str),
    st.integers(-3, -1).map(str),
)
# Positive oversized values stay out of the JSON junk: event and trial
# counts set the amount of work a run does, so only OVERSIZED ones are drawn.
JSON_JUNK = st.one_of(
    st.integers(-3, -1), st.just(-(10**30)), st.none(), st.booleans(),
    st.floats(allow_nan=False), st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
)

# Event and trial counts the event-work price refuses whatever the code: it
# prices an event pass at 512 counts or more and each of its rows at 50 or
# more, so more than 2*10**6 events, or trials, cost over 10**8 counts.
OVERSIZED = st.integers(EVENT_WORK_BUDGET // _ROW_CELLS + 1, 10**12)

# Radii at or above the verify id budget: on the two-word code of (1, 10^9)
# a ball alone holds more ids than the budget, which n = 1 does not price.
BIG_RADII = st.integers(VERIFY_ID_BUDGET, 10**30).map(str)

# Deeper than the JSON decoder's recursion limit: an array and an object.
NESTED = st.sampled_from(["[" * 200_000, '{"a": ' * 100_000 + "0" + "}" * 100_000])

# True about one draw in ten (a bare integers(0, 9) == 0 would favour 0).
RARELY = st.sampled_from([False] * 9 + [True])

# (n, ell): a small space, or a wide alphabet with ell <= 1.
SPACES = st.one_of(
    st.tuples(st.integers(0, 4), st.integers(0, 7)),
    st.tuples(st.integers(5, 1500), st.integers(0, 1)),
)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv this way
            status = exc.code
    return status, err.getvalue()


def assert_contract(argv):
    status, stderr = run(argv)
    assert status in (0, 1, 2, 3), (argv, status, stderr)
    assert "Traceback" not in stderr, (argv, stderr)


@st.composite
def corrupted(draw, valid: dict, junk):
    """`valid` with, sometimes, one or two values replaced by junk or one key dropped."""
    out = dict(valid)
    bad = draw(st.sampled_from([0] * 6 + [1] * 3 + [2]))
    for key in draw(st.lists(st.sampled_from(sorted(out)), min_size=bad, max_size=bad, unique=True)):
        out[key] = draw(junk)
    if draw(RARELY):
        del out[draw(st.sampled_from(sorted(out)))]
    return out


def radius(n):
    return st.integers(0, 3) if n <= 7 else st.integers(0, 2)


@st.composite
def search_argv(draw):
    n, ell = draw(SPACES)
    opts = {
        "--n": str(n),
        "--ell": str(ell),
        "--e": str(draw(radius(n))),
        "--max-solutions": str(draw(st.integers(0, 3))),
        "--format": draw(st.sampled_from(["text", "json"])),
    }
    argv = ["search"]
    for name, value in draw(corrupted(opts, ARG_JUNK)).items():
        argv += [name, value]
    budget = draw(st.sampled_from(["-1", "x"])) if draw(RARELY) else str(draw(st.integers(0, 39)))
    argv += ["--point-budget", budget]
    argv += draw(st.lists(st.sampled_from(["--count-only", "--orbits"]), max_size=2, unique=True))
    return argv


@st.composite
def code_file(draw):
    """A code file's JSON object and the alphabet size it was drawn for.

    Codewords come from a line of points (i, ell-i, 0, ...) of a small
    space, or from the unit vectors (times ell) of a wide one.
    """
    n, ell = draw(SPACES)
    wide = n > 7
    size = 1 if n == 0 or ell == 0 else (n + 1 if wide else ell + 1)
    picks = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=6, unique=True))
    if wide:
        words = [[ell if j == i else 0 for j in range(n + 1)] for i in picks]
    else:
        words = [[ell] if n == 0 else [i, ell - i] + [0] * (n - 1) for i in picks]
    obj = {"n": n, "ell": ell, "e": draw(st.one_of(st.none(), radius(n))), "codewords": words}
    return draw(corrupted(obj, st.one_of(JSON_JUNK, HUGE))), n


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    codes = {
        "t1.json": {"n": 2, "ell": 4, "e": 1, "codewords": [[3, 1, 0], [0, 3, 1], [1, 0, 3]]},
        "b8.json": {"n": 1, "ell": 8, "e": 1, "codewords": [[7, 1], [4, 4], [1, 7]]},
        "mono.json": {"n": 0, "ell": 3, "e": 0, "codewords": [[3]]},
        "empty.json": {"n": 2, "ell": 0, "e": 0, "codewords": [[0, 0, 0]]},
        "q5.json": {"n": 4, "ell": 2, "e": 1, "codewords": [[2, 0, 0, 0, 0], [0, 0, 0, 0, 2]]},
        "huge.json": {"n": 1, "ell": 10**9, "e": 1, "codewords": [[10**9, 0], [0, 10**9]]},
    }
    for name, obj in codes.items():
        (path / name).write_text(json.dumps(obj))
    (path / "junk.json").write_text("{oops")
    return path


# A small length, or one whose binary code has more codewords than the
# budget at every radius drawn (at most 5, a spacing of 11).
CONSTRUCT_ELLS = st.one_of(st.integers(0, 40), st.integers(11 * CONSTRUCT_WORD_BUDGET, 10**30))


@st.composite
def construct_argv(draw, out):
    opts = {
        "--alphabet": draw(st.sampled_from(["2", "3"])),
        "--ell": str(draw(CONSTRUCT_ELLS)),
        "--e": str(draw(st.integers(0, 5))),
        "--variant": str(draw(st.integers(0, 4))),
    }
    argv = ["construct"]
    for name, value in draw(corrupted(opts, ARG_JUNK)).items():
        argv += [name, value]
    # Sometimes the output path is a directory, which cannot be written.
    return argv + ["--out", str(out.parent if draw(RARELY) else out)]


@FUZZ
@given(data=st.data())
def test_construct_argv(workdir, data):
    assert_contract(data.draw(construct_argv(workdir / "built.json")))


@FUZZ
@given(argv=search_argv())
def test_search_argv(argv):
    assert_contract(argv)


@FUZZ
@given(
    code=code_file(), e=st.integers(0, 3).map(str), bad_e=RARELY, junk_e=ARG_JUNK,
    big=RARELY, big_e=BIG_RADII, huge=RARELY, nest=RARELY, nested=NESTED,
)
def test_verify_code_files(workdir, code, e, bad_e, junk_e, big, big_e, huge, nest, nested):
    obj, n = code
    if n > 7:
        e = str(min(int(e), 2))
    e = junk_e if bad_e else big_e if big else e
    path = workdir / "verify.json"
    path.write_text(nested if nest else json.dumps(obj))
    if huge:
        path = workdir / "huge.json"
    assert_contract(["verify", "--code", str(path), "--e", e])


@st.composite
def sweep_argv(draw):
    """A small grid, or one with a bound below 1 or more cells than the limit."""
    opts = {
        "--n-max": draw(st.integers(1, 3)),
        "--ell-max": draw(st.integers(1, 6)),
        "--e-max": draw(st.integers(1, 3)),
    }
    shape = draw(st.sampled_from(["small"] * 3 + ["negative", "oversized"]))
    if shape != "small":
        key = draw(st.sampled_from(sorted(opts)))
        if shape == "negative":
            opts[key] = draw(st.integers(-(10**30), 0))
        else:  # over the limit: the default point budget, as drawn budgets stay below 40
            opts[key] = draw(st.integers(DEFAULT_POINT_BUDGET + 1, 10**30))
    opts = {name: str(value) for name, value in opts.items()}
    opts["--format"] = draw(st.sampled_from(["text", "tsv", "json"]))
    argv = ["sweep"]
    for name, value in draw(corrupted(opts, ARG_JUNK)).items():
        argv += [name, value]
    if draw(st.booleans()):
        budget = draw(st.sampled_from(["-1", "x"])) if draw(RARELY) else str(draw(st.integers(0, 39)))
        argv += ["--point-budget", budget]
    return argv


@FUZZ
@given(argv=sweep_argv())
def test_sweep_argv(argv):
    assert_contract(argv)


@st.composite
def experiment_config(draw):
    cfg = {
        "code_file": draw(st.sampled_from(
            ["t1.json", "b8.json", "q5.json", "mono.json", "empty.json", "junk.json", "ghost.json"]
        )),
        "substitutions": draw(st.integers(0, 3)),
        "insertions": draw(st.integers(0, 3)),
        "deletions": draw(st.integers(0, 3)),
        "trials": draw(st.integers(1, 20)),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "exhaustive": draw(st.booleans()),
        "codeword_selection": draw(st.sampled_from(["uniform", "round-robin"])),
    }
    cfg = draw(corrupted(cfg, JSON_JUNK))
    if draw(RARELY):
        field = draw(st.sampled_from(["substitutions", "insertions", "deletions", "trials"]))
        cfg[field] = draw(OVERSIZED)
    if draw(RARELY):
        cfg["noise"] = 0.5
    if draw(RARELY):
        cfg["seed"] = draw(HUGE)
    return [cfg] if draw(RARELY) else cfg


@FUZZ
@given(cfg=experiment_config(), nest=RARELY, nested=NESTED)
def test_simulate_configs(workdir, cfg, nest, nested):
    path = workdir / "experiment.json"
    path.write_text(nested if nest else json.dumps(cfg))
    assert_contract(["simulate", "--config", str(path)])
