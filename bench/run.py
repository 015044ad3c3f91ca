"""Benchmark entry point for the gogmagog library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  NAME is one of sweep-bijection,
sweep-involution, cli-requests, or ``all`` for the three in turn.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics of a traced run.  The last stdout line
is one JSON object with the keys correct, attempted, failed and metrics.

set-up time (``setup_s``) is measured here, as the median over several
fresh interpreters of the time to import gogmagog and gogmagog.cli
(bench/setup_probe.py), in reference seconds (bench/refspeed.py).
The workload itself runs in one more fresh interpreter (bench/workload.py).
See bench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep-bijection", "sweep-involution", "cli-requests")
SETUP_IMPORTS = 6  # timed fresh-interpreter imports before and again after the workload
TIME_LIMIT = 170.0  # seconds a whole run may take
CHILD_PREFIX: list[str] = []  # command prefix for the fresh interpreters

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_p99_ms": "ms",
    "wall_ops_per_s": "1/s",
    "wall_req_p50_ms": "ms",
    "wall_req_p90_ms": "ms",
    "wall_req_p99_ms": "ms",
    "wall_setup_s": "s",
    "units": "count",
    "peak_rss_mb": "MB",
    "trace_overhead": "ratio",
    "unattributed_share": "fraction",
}
SUFFIX_UNITS = {".calls_per_op": "calls/op", ".us_per_call": "us", ".self_share": "fraction"}


class BenchError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    for suffix, unit in SUFFIX_UNITS.items():
        if name.endswith(suffix):
            return unit
    return UNITS[name]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fixed_layout_prefix() -> list[str]:
    """Address-space layout randomisation gives each interpreter another
    memory layout; on the tuning host that alone moved the request rate of
    a run by up to 15%.  Children run without it where setarch can turn
    it off."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    try:
        ok = subprocess.run([*prefix, "true"], capture_output=True, timeout=10).returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        ok = False
    return prefix if ok else []


def run_child(args: list[str], timeout: float) -> str:
    try:
        proc = subprocess.run(
            [*CHILD_PREFIX, sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{args[0]} exited with status {proc.returncode}")
    return proc.stdout


def measure_setup(deadline: float, warm_up: bool) -> list[dict]:
    """Import times in fresh interpreters, in reference seconds and wall
    seconds.  A warm-up import, which may write bytecode caches, is not
    counted."""
    times = []
    for i in range(SETUP_IMPORTS + warm_up):
        out = run_child([str(BENCH_DIR / "setup_probe.py")], deadline - time.monotonic())
        if i or not warm_up:
            times.append(json.loads(out.strip().splitlines()[-1]))
    return times


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted((SRC / "gogmagog").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    # set-up is sampled on both sides of the workload, so that its median
    # does not hang on the speed of the machine at a single moment
    setup = [] if trace else measure_setup(deadline, warm_up=True)
    out = run_child(
        [str(BENCH_DIR / "workload.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        deadline - time.monotonic(),
    )
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setup += measure_setup(deadline, warm_up=False)
        result["metrics"]["setup_s"] = statistics.median(t["ref"] for t in setup)
        result["info"]["ungated"]["wall_setup_s"] = statistics.median(t["raw"] for t in setup)
    return result


def show(name: str, seed: int, seconds: int, trace: int, result: dict, meta: dict) -> None:
    info = result["info"]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("  " + "  ".join(f"{k} {v}" for k, v in meta.items()))
    for metric, value in result["metrics"].items():
        print(f"  {metric:58s} {value:14.6g} {unit_of(metric)}")
    for metric, value in info.get("ungated", {}).items():
        print(f"  {metric:58s} {value:14.6g} {unit_of(metric)} (not gated)")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':58s} {rate:14.6g} fraction "
          f"({result['failed']} of {result['attempted']} failed)")
    for label in ("failures_known", "failures_unexpected"):
        for what, count in info.get(label, {}).items():
            tag = "known defect" if label == "failures_known" else "UNEXPECTED"
            print(f"  failed [{tag}] {what}: {count}")
    ok = info["digest"] == [info["digest_expected"]]
    print(f"  digest {'matches digests.json' if ok else 'DIFFERS from digests.json'}: {info['digest']}")
    if "expected_zero_nonzero" in info:
        bad = info["expected_zero_nonzero"]
        print(f"  expected-zero trace cells: {'all 0' if not bad else 'NONZERO ' + ', '.join(bad)}")
    print(f"  correct {result['correct']}")


def main() -> int:
    parser = argparse.ArgumentParser(description="gogmagog benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "gogmagog" / "__init__.py").is_file():
        print(f"no library sources under {SRC}; run from a full source tree", file=sys.stderr)
        return 2
    meta = provenance()
    global CHILD_PREFIX
    CHILD_PREFIX = fixed_layout_prefix()
    meta["aslr"] = "off" if CHILD_PREFIX else "on"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            show(name, args.seed, args.seconds, args.trace, result, meta)
            final[name] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in result["metrics"].items()},
            }
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final if args.workload == "all" else final[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
