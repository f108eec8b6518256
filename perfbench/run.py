"""Benchmark of the simplexcode CLI: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload search --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

A run times `setup_s` over fresh interpreters, then calls
`simplexcode.cli.main(argv)` in this process on the workload's operations,
one at a time, pass after pass, for about `--seconds`. Times are CPU
seconds, so time the host gives to other tenants is not counted, and
`pass_norm_s` rescales each operation by a fixed reference loop timed
next to it, so the drift of a shared host's speed cancels. Every answer
is checked; an operation that raises, exits with an unexpected status
or answers wrong counts as failed and the run goes on. With `--trace 0`
the run reports the end-to-end metrics; with `--trace 1` it spends half
its time untraced and half traced, writes the spans to a trace file and
reports the per-layer metrics derived from it.
Result and trace files go to `.perfbench/` at the repository root. The
last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed per run; setup_s is their median.
SETUP_RUNS = 5

# CPU seconds of reference_cpu_s on the machine pass_norm_s is scaled to: a
# round figure near its time on a 2-vCPU x86-64 VM with Python 3.11.
REF_NOMINAL_S = 0.050

# Units of the end-to-end metrics.
END_TO_END = {"setup_s": "s", "pass_norm_s": "s", "peak_rss_mb": "MB"}


def reference_cpu_s() -> float:
    """CPU seconds of fixed pure-Python loops: how fast the machine runs Python just now.

    One loop is integer arithmetic, the other hashes small tuples into a set
    and a dict; together they follow the host's speed on both workloads
    better than either alone.
    """
    c0 = process_time()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    seen, repeats = set(), {}
    for i in range(60_000):
        key = (i % 97, i % 89, i & 7)
        if key in seen:
            repeats[key] = repeats.get(key, 0) + 1
        else:
            seen.add(key)
    return process_time() - c0


class Client:
    """Runs operations one after another and keeps the score."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.op_s: dict[str, list[float]] = {}

    def execute(self, op: workloads.Op) -> tuple[float, float]:
        """Run and check one operation; return the CPU and wall seconds of the call."""
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        crash = None
        c0, t0 = process_time(), perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crashing operation is scored, not fatal
            crash = f"raised {type(exc).__name__}: {exc}"
        cpu, wall = process_time() - c0, perf_counter() - t0
        self.op_s.setdefault(op.label, []).append(wall)
        if crash:
            self._fail(op, crash, wrong=False)
        elif rc != op.expect_rc:
            self._fail(op, f"exit {rc}, expected {op.expect_rc}: {err.getvalue().strip()}")
        else:
            try:
                problem = op.check(out.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                self._fail(op, problem)
        return cpu, wall

    def _fail(self, op: workloads.Op, problem: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(f"{op.label}: {problem}")

    def run_passes(self, ops, seconds: float, tracer=None) -> dict[str, list[float]]:
        """Run passes over `ops` for about `seconds`; return the times of each pass.

        A pass's time is the sum of its operations' times: CPU, wall, and
        normalised CPU, in which each operation's CPU time is scaled by
        REF_NOMINAL_S over the mean of the reference loops run just before
        and just after it. A pass starts only if, at the length of the last
        one, it would end less than half a pass after `seconds`, so runs
        last `seconds` on average.
        """
        times: dict[str, list[float]] = {"cpu": [], "wall": [], "norm": []}
        began = perf_counter()
        while True:
            gc.collect()
            ref = reference_cpu_s()
            cpu = wall = norm = 0.0
            t0 = perf_counter()
            with tracer.span(spans.PASS_SPAN) if tracer else contextlib.nullcontext():
                for op in ops:
                    if tracer:
                        tracer.op_id = self.attempted
                    op_cpu, op_wall = self.execute(op)
                    ref_before, ref = ref, reference_cpu_s()
                    cpu += op_cpu
                    wall += op_wall
                    norm += op_cpu * REF_NOMINAL_S * 2 / (ref_before + ref)
            times["cpu"].append(cpu)
            times["wall"].append(wall)
            times["norm"].append(norm)
            if perf_counter() - began + (perf_counter() - t0) / 2 > seconds:
                return times


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_setups(workload: str, seed: int, work: Path) -> tuple[list[float], Path]:
    """CPU seconds of SETUP_RUNS fresh interpreters that import simplexcode and write the inputs."""
    times = []
    for k in range(SETUP_RUNS):
        target = work / f"setup{k}"
        cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(target)]
        c0 = children_cpu_s()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        times.append(children_cpu_s() - c0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return times, target


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if n > 1 else (xs[0], xs[0], xs[0])
    out = {"median": statistics.median(xs), "q1": q1, "q3": q3, "samples": n}
    if n > 10:
        out[f"p{100 * (n - 10) // n}"] = xs[n - 11]
    return out


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "src_lines": src_lines(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{workload}-{os.getpid()}"
    try:
        setup_times, inputs = time_setups(workload, seed, work)
        package = workloads.import_simplexcode(ROOT)
        ops = workloads.ops(workload, seed, inputs)
        client = Client(package.cli.main)
        detail: dict = {"setup_s": summary(setup_times)}
        if not trace:
            times = client.run_passes(ops, seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for kind, values in times.items():
                detail[f"pass_{kind}_s"] = summary(values) | {"values": values}
            metrics = {
                "setup_s": detail["setup_s"]["median"],
                "pass_norm_s": detail["pass_norm_s"]["median"],
                "peak_rss_mb": rss_mb,
            }
            units = END_TO_END
        else:
            untraced = client.run_passes(ops, seconds / 2)["wall"]
            tracer = spans.Tracer()
            client.main = tracer.wrap("cli.main", package.cli.main)
            tracer.install(package)
            try:
                traced = client.run_passes(ops, seconds / 2, tracer)["wall"]
            finally:
                tracer.uninstall()
            trace_file = out_dir / f"trace-{workload}-seed{seed}.npz"
            tracer.save(trace_file, untraced, traced)
            metrics = spans.layer_metrics(trace_file)
            units = spans.LAYER_METRICS
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
            detail["trace_missing_patches"] = tracer.missing
        detail["fail_frac"] = {"value": client.failed / client.attempted, "samples": client.attempted}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": client.wrong == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_info(),
        "result": result,
        "detail": detail,
        "op_median_s": {k: statistics.median(v) for k, v in sorted(client.op_s.items())},
        "problems": client.problems,
    }
    (out_dir / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    return record


def print_record(record: dict) -> None:
    """Human-readable lines: each metric with its unit and, where measured, quartiles and samples."""
    w = record["workload"]
    detail = record["detail"]
    for name, m in record["result"]["metrics"].items():
        s = detail.get(name)
        extra = f"  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  samples {s['samples']}" if s else ""
        tail = "".join(f"  {k} {v:.4g}" for k, v in (s or {}).items() if k[0] == "p")
        print(f"{w:9s} {name:40s} {m['value']:12.6g} {m['unit']:6s}{extra}{tail}")
    for name in ("pass_cpu_s", "pass_wall_s"):
        if name in detail:
            s = detail[name]
            print(f"{w:9s} {name:40s} {s['median']:12.6g} {'s':6s}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
                  f"  samples {s['samples']}  (not gated)")
    ff = detail["fail_frac"]
    print(f"{w:9s} {'fail_frac':40s} {ff['value']:12.6g} {'ratio':6s}  samples {ff['samples']}")
    for problem in record["problems"]:
        print(f"{w:9s} FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "simplexcode" / "__init__.py").is_file():
        print(f"error: no simplexcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)

    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        print(json.dumps(record["result"]))
        return 0

    # Each workload in a fresh process, so peak RSS and caches are its own.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(proc.stdout.splitlines()[:-1]))
        res = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
