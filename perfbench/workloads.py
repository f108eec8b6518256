"""The benchmark's workloads: their inputs, their operations, and the answer checks.

Each workload is a fixed list of `simplexcode` CLI invocations. Set-up
writes the inputs some of them read (code files and experiment configs)
into a directory; the operation list then refers to those files. The
checks compare every answer with values that do not depend on how the
program computes them: closed-form counts, the explicit constructions,
exact integers from exhaustive enumeration, and exact binomial bounds.

Run as a script to perform one set-up, the step `setup_s` times:

    python3 perfbench/workloads.py <workload> <seed> <input-dir>
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("search", "channel")

SAMPLED_TRIALS = 20_000

# Sampled counts must lie inside the central 1 - 2e-9 of the exact binomial
# distribution, so a correct program fails a check about once in 10^8 checks.
BINOMIAL_TAIL = 1e-9

# Exhaustive-mode outcome counts on the ternary e=2 code (variant 2), keyed by
# (substitutions, insertions, deletions): (successes, ambiguous, errors,
# patterns). Exact integers, independent of the RNG and of how the channel
# enumerates patterns.
EXACT_TERNARY_E2 = {
    (3, 0, 0): (6342, 0, 1890, 8232),
    (2, 1, 1): (73206, 0, 13230, 86436),
    (4, 0, 0): (81588, 0, 33660, 115248),
}

PERFECT_TEXT = "perfect: codeword balls partition the space\n"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what a correct program answers to it.

    `check` gets the captured stdout of a run that exited with `expect_rc`
    and returns a description of what is wrong with it, or None.
    """

    label: str
    argv: tuple[str, ...]
    expect_rc: int
    check: Callable[[str], str | None]


def import_simplexcode(root: Path):
    """Import the package from `root/src`, refusing any other installed copy."""
    src = (root / "src").resolve()
    if not (src / "simplexcode" / "__init__.py").is_file():
        raise FileNotFoundError(f"no simplexcode sources under {src}")
    sys.path.insert(0, str(src))
    import simplexcode
    import simplexcode.cli

    if Path(simplexcode.__file__).resolve().parent != src / "simplexcode":
        raise ImportError(f"imported simplexcode from {simplexcode.__file__}, not {src}")
    return simplexcode


def expected_count(n: int, ell: int, e: int) -> int:
    """Nontrivial e-perfect codes in the simplex, by the classification theorem."""
    if e < 1 or n < 1:
        return 0
    if n == 1:
        if ell < 2 * e + 1:
            return 0
        r = ell % (2 * e + 1)
        return min(r + 1, 2 * e + 1 - r)
    if n == 2:
        return 2 if ell == 3 * e + 1 else 0
    return 0


def ternary_codes(e: int) -> set[frozenset]:
    """The two ternary e-perfect codes, as sets of codewords."""
    a = 2 * e + 1
    return {
        frozenset({(a, e, 0), (0, a, e), (e, 0, a)}),
        frozenset({(a, 0, e), (e, a, 0), (0, e, a)}),
    }


def binomial_bounds(trials: int, num: int, den: int) -> tuple[int, int]:
    """Central range of Binomial(trials, num/den) outside which each tail is below BINOMIAL_TAIL."""
    if num == 0:
        return 0, 0
    if num == den:
        return trials, trials
    log_p, log_q = math.log(num / den), math.log1p(-num / den)
    lg = math.lgamma(trials + 1)
    logs = [
        lg - math.lgamma(k + 1) - math.lgamma(trials - k + 1) + k * log_p + (trials - k) * log_q
        for k in range(trials + 1)
    ]
    top = max(logs)
    probs = [math.exp(x - top) for x in logs]
    total = sum(probs)
    lo, acc = 0, 0.0
    while (acc := acc + probs[lo] / total) <= BINOMIAL_TAIL:
        lo += 1
    hi, acc = trials, 0.0
    while (acc := acc + probs[hi] / total) <= BINOMIAL_TAIL:
        hi -= 1
    return lo, hi


# ---------------------------------------------------------------- inputs


def _config_specs(workload: str, seed: int) -> list[dict]:
    """Experiment configs of a workload, as written to its input directory."""
    rng = random.Random(seed)
    if workload == "channel":
        specs = [
            ("t2", 2, 0, 0, "uniform"),
            ("t2", 3, 0, 0, "uniform"),
            ("t2", 2, 1, 1, "uniform"),
            ("b64", 3, 0, 0, "round-robin"),
        ]
        return [
            {
                "code_file": f"{code}.json",
                "substitutions": s,
                "insertions": i,
                "deletions": d,
                "trials": SAMPLED_TRIALS,
                "seed": rng.getrandbits(63),
                "codeword_selection": sel,
            }
            for code, s, i, d, sel in specs
        ] + [
            {"code_file": "t2.json", "substitutions": 2, "insertions": 1, "deletions": 1,
             "exhaustive": True},
            {"code_file": "t2.json", "substitutions": 4, "exhaustive": True},
        ]
    return []


# Code files per workload: name -> `construct` arguments.
_CODE_FILES = {
    "search": {
        "b100k": ["--alphabet", "2", "--ell", "100000", "--e", "7"],
        "t30": ["--alphabet", "3", "--e", "30"],
    },
    "channel": {
        "t2": ["--alphabet", "3", "--e", "2", "--variant", "2"],
        "b64": ["--alphabet", "2", "--ell", "64", "--e", "3"],
    },
}

# Radius each code file was built for.
_CODE_RADIUS = {"t2": 2, "b64": 3}


def make_inputs(workload: str, seed: int, out_dir: Path, cli_main) -> None:
    """Write the workload's code files (through the CLI) and experiment configs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, args in _CODE_FILES.get(workload, {}).items():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(["construct", *args, "--out", str(out_dir / f"{name}.json")])
        if rc != 0:
            raise RuntimeError(f"construct {name} exited {rc}")
    for k, spec in enumerate(_config_specs(workload, seed)):
        (out_dir / f"config{k}.json").write_text(json.dumps(spec), encoding="utf-8")


# ---------------------------------------------------------------- checks


def _check_search(n: int, ell: int, e: int, orbits: bool):
    want = expected_count(n, ell, e)

    def check(stdout: str) -> str | None:
        rep = json.loads(stdout)
        if rep["solution_count"] != want:
            return f"solution_count {rep['solution_count']}, expected {want}"
        if orbits:
            found = {frozenset(tuple(w) for w in code) for code in rep["solutions"]}
            if found != ternary_codes(e):
                return "solutions differ from the two ternary constructions"
            if rep["orbit_count"] != 1:
                return f"orbit_count {rep['orbit_count']}, expected 1"
        return None

    return check


def _check_sweep(n_max: int, ell_max: int, e_max: int):
    grid = [
        (n, ell, e)
        for n in range(1, n_max + 1)
        for ell in range(1, ell_max + 1)
        for e in range(1, e_max + 1)
    ]

    def check(stdout: str) -> str | None:
        rep = json.loads(stdout)
        cells = [(c["n"], c["ell"], c["e"]) for c in rep["cells"]]
        if cells != grid:
            return f"sweep covered {len(cells)} cells, expected the {len(grid)}-cell grid"
        for c in rep["cells"]:
            want = expected_count(c["n"], c["ell"], c["e"])
            if c["found"] != want or c["predicted"] != want:
                return f"cell {c['n']},{c['ell']},{c['e']}: found {c['found']}, expected {want}"
        if not rep["all_agree"] or rep["any_skipped"]:
            return "sweep reports disagreement or skipped cells"
        return None

    return check


def _check_sampled(spec: dict):
    trials = spec["trials"]
    weight = spec["substitutions"] + spec["insertions"] + spec["deletions"]
    code = spec["code_file"].removesuffix(".json")
    if weight <= _CODE_RADIUS[code]:
        bounds = {"successes": (trials, trials), "ambiguous": (0, 0), "errors": (0, 0)}
    else:
        key = (spec["substitutions"], spec["insertions"], spec["deletions"])
        succ, amb, err, patterns = EXACT_TERNARY_E2[key]
        bounds = {
            name: binomial_bounds(trials, count, patterns)
            for name, count in (("successes", succ), ("ambiguous", amb), ("errors", err))
        }

    def check(stdout: str) -> str | None:
        stats = json.loads(stdout)
        if stats["trials"] != trials or stats["exhaustive"]:
            return f"ran {stats['trials']} trials (exhaustive={stats['exhaustive']})"
        if stats["successes"] + stats["ambiguous"] + stats["errors"] != trials:
            return "outcome counts do not add up to the trials"
        for name, (lo, hi) in bounds.items():
            if not lo <= stats[name] <= hi:
                return f"{name} {stats[name]} outside [{lo}, {hi}]"
        return None

    return check


def _check_exhaustive(spec: dict):
    key = (spec.get("substitutions", 0), spec.get("insertions", 0), spec.get("deletions", 0))
    succ, amb, err, patterns = EXACT_TERNARY_E2[key]

    def check(stdout: str) -> str | None:
        stats = json.loads(stdout)
        got = (stats["successes"], stats["ambiguous"], stats["errors"], stats["trials"])
        if got != (succ, amb, err, patterns) or not stats["exhaustive"]:
            return f"outcomes {got}, expected {(succ, amb, err, patterns)}"
        return None

    return check


def _check_text(want: str):
    def check(stdout: str) -> str | None:
        return None if stdout == want else f"printed {stdout!r}, expected {want!r}"

    return check


# ---------------------------------------------------------------- operations


def search_op(n: int, ell: int, e: int, orbits: bool) -> Op:
    mode = "--orbits" if orbits else "--count-only"
    argv = ("search", "--n", str(n), "--ell", str(ell), "--e", str(e), mode,
            "--format", "json", "--threads", "1")
    return Op(f"search {n},{ell},{e}", argv, 0, _check_search(n, ell, e, orbits))


def ops(workload: str, seed: int, in_dir: Path) -> list[Op]:
    """The workload's operations, in the order a pass runs them."""
    specs = _config_specs(workload, seed)
    configs = [str(in_dir / f"config{k}.json") for k in range(len(specs))]
    if workload == "search":
        sweep = ("sweep", "--n-max", "3", "--ell-max", "12", "--e-max", "3",
                 "--format", "json", "--threads", "1")
        b100k, t30 = str(in_dir / "b100k.json"), str(in_dir / "t30.json")
        out = [
            search_op(2, 22, 7, True),
            search_op(2, 31, 10, True),
            search_op(3, 12, 3, False),
            search_op(4, 8, 2, False),
            search_op(1, 1000, 1, False),
            Op("sweep 3,12,3", sweep, 0, _check_sweep(3, 12, 3)),
            Op("verify b100k e7", ("verify", "--code", b100k, "--e", "7"), 0,
               _check_text(PERFECT_TEXT)),
            Op("verify b100k e6", ("verify", "--code", b100k, "--e", "6"), 1,
               _check_text("not perfect: point [100000,0] is uncovered\n")),
            Op("verify t30 e30", ("verify", "--code", t30, "--e", "30"), 0,
               _check_text(PERFECT_TEXT)),
        ]
    elif workload == "channel":
        out = [
            Op(f"{'exhaustive' if spec.get('exhaustive') else 'simulate'} config{k}",
               ("simulate", "--config", path, "--threads", "1"), 0,
               _check_exhaustive(spec) if spec.get("exhaustive") else _check_sampled(spec))
            for k, (spec, path) in enumerate(zip(specs, configs))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


if __name__ == "__main__":
    name, seed_text, target = sys.argv[1:4]
    pkg = import_simplexcode(Path(__file__).resolve().parent.parent)
    make_inputs(name, int(seed_text), Path(target), pkg.cli.main)
