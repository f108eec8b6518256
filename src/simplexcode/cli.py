"""Command-line front end: construct, verify, search, sweep, simulate.

Exit status contract: 0 success/verified, 1 domain negative (not perfect,
sweep disagreement), 2 usage or format error, 3 resource budget exceeded.

The argument parser is built once per process, on the first call to main,
and reused: parsing keeps no state in it, as each call gets a fresh
namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .channel import ChannelConfig, run_experiment
from .codes import (
    _read_json,
    construct_binary_perfect,
    construct_ternary_perfect,
    is_perfect,
    load_code,
    save_code,
)
from .errors import BudgetExceededError
from .search import (
    DEFAULT_POINT_BUDGET,
    SearchProblem,
    enumerate_perfect_codes,
    verify_theorem_sweep,
)
from .simplex import SimplexSpace, _check_ints, format_point

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

THREADS_HELP = "accepted for compatibility and ignored: every command runs single-threaded"


def _cmd_construct(args) -> int:
    if args.alphabet == 2:
        if args.ell is None:
            raise ValueError("--ell is required for --alphabet 2")
        code = construct_binary_perfect(args.ell, args.e, args.variant)
    else:
        expected_ell = 3 * args.e + 1
        if args.ell is not None and args.ell != expected_ell:
            raise ValueError(
                f"ternary perfect codes need ell = 3e+1 = {expected_ell}, got {args.ell}"
            )
        code = construct_ternary_perfect(args.e, args.variant)
    save_code(code, args.out)
    print(f"wrote {len(code)} codewords to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    code = load_code(args.code)
    result = is_perfect(code, args.e)
    print(result.describe())
    return EXIT_OK if result.perfect else EXIT_DOMAIN


def _cmd_search(args) -> int:
    problem = SearchProblem(
        space=SimplexSpace(args.n, args.ell),
        e=args.e,
        max_solutions=args.max_solutions,
        count_only=args.count_only,
        symmetry_reduction=args.orbits,
        point_budget=args.point_budget,
    )
    report = enumerate_perfect_codes(problem)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        print(
            f"n={args.n} ell={args.ell} e={args.e}: "
            f"{report.solution_count} perfect code(s), "
            f"{report.nodes_explored} nodes"
        )
        if report.orbit_count is not None:
            print(f"orbits under coordinate permutation: {report.orbit_count}")
        if report.solutions is not None:
            for k, code in enumerate(report.solutions, start=1):
                words = " ".join(format_point(w) for w in code.codewords)
                print(f"  code {k}: {words}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    report = verify_theorem_sweep(
        args.n_max,
        args.ell_max,
        args.e_max,
        point_budget=args.point_budget,
    )
    if args.format == "tsv":
        sys.stdout.write(report.to_tsv())
    elif args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        for c in report.cells:
            found = "skipped" if c.skipped else str(c.found)
            agree = "skipped" if c.skipped else ("yes" if c.agree else "NO")
            print(
                f"n={c.n} ell={c.ell:2d} e={c.e}: predicted {c.predicted}, "
                f"found {found}, agree {agree}"
            )
        print(f"all cells agree: {'yes' if report.all_agree else 'NO'}")
    if not report.all_agree:
        return EXIT_DOMAIN
    if report.any_skipped:
        return EXIT_BUDGET
    return EXIT_OK


def _load_experiment_config(path: Path) -> dict:
    obj = _read_json(path, "config")
    if not isinstance(obj, dict):
        raise ValueError("experiment config must be a JSON object")
    return obj


def _cmd_simulate(args) -> int:
    path = Path(args.config)
    obj = _load_experiment_config(path)

    known = {
        "code_file",
        "substitutions",
        "insertions",
        "deletions",
        "trials",
        "seed",
        "exhaustive",
        "codeword_selection",
    }
    unknown = obj.keys() - known
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(sorted(unknown))}")
    if "code_file" not in obj:
        raise ValueError("config is missing code_file")
    if not isinstance(obj["code_file"], str):
        raise ValueError("code_file must be a string")
    exhaustive = obj.get("exhaustive", False)
    if not isinstance(exhaustive, bool):
        raise ValueError("exhaustive must be a boolean")
    _check_ints(**{name: obj.get(name, 0)
                   for name in ("substitutions", "insertions", "deletions", "trials", "seed")})
    if not exhaustive:
        # Randomized runs demand an explicit seed; there is no wall-clock default.
        if "seed" not in obj:
            raise ValueError("config is missing seed (required unless exhaustive is true)")
        if "trials" not in obj:
            raise ValueError("config is missing trials (required unless exhaustive is true)")

    code_path = Path(obj["code_file"])
    if not code_path.is_absolute():
        code_path = path.parent / code_path
    code = load_code(code_path)

    cfg = ChannelConfig(
        substitutions=obj.get("substitutions", 0),
        insertions=obj.get("insertions", 0),
        deletions=obj.get("deletions", 0),
        seed=obj.get("seed", 0),
    )
    stats = run_experiment(
        code,
        cfg,
        trials=obj.get("trials", 1),
        codeword_selection=obj.get("codeword_selection", "uniform"),
        exhaustive=exhaustive,
    )
    sys.stdout.write(json.dumps(stats.to_dict(), indent=2) + "\n")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplexcode",
        description="Perfect multiset codes in the discrete simplex: "
        "construction, verification, exhaustive search, and channel simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a perfect code and write it as JSON")
    p.add_argument("--alphabet", type=int, choices=(2, 3), required=True)
    p.add_argument("--ell", type=int, help="code length (required for --alphabet 2)")
    p.add_argument("--e", type=int, required=True, help="correction radius")
    p.add_argument("--variant", type=int, default=1, help="which code to build (default 1)")
    p.add_argument("--out", required=True, help="output code file path")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check that a code file is e-perfect")
    p.add_argument("--code", required=True, help="code file path")
    p.add_argument("--e", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="enumerate all perfect codes in one space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--max-solutions", type=int, default=0, help="0 = unbounded")
    p.add_argument("--orbits", action="store_true", help="also count permutation orbits")
    p.add_argument("--point-budget", type=int, default=DEFAULT_POINT_BUDGET)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("sweep", help="search a grid of (n, ell, e) cells against the classification")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--ell-max", type=int, required=True)
    p.add_argument("--e-max", type=int, required=True)
    p.add_argument("--point-budget", type=int, default=DEFAULT_POINT_BUDGET)
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("--format", choices=("text", "tsv", "json"), default="text")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="run a channel experiment from a JSON config")
    p.add_argument("--config", required=True, help="experiment config file path")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
