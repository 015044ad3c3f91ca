"""Run one benchmark workload in this process and print its result.

Started by run.py in a fresh interpreter with a fixed PYTHONHASHSEED
and ``src`` on the path:

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics`` and ``info``.  The process starts no thread or
process of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import gogmagog
from gogmagog import (
    Family,
    FamilySpec,
    GtTriangle,
    asm_to_gog,
    format_asm,
    format_triangle,
    generate,
    gog_to_asm,
    gog_to_gogam_n2,
    gogam_to_gog_n2,
    is_gog,
    is_gogam,
    is_magog,
    parse_asm,
    schutzenberger_via_words,
    validate_gt,
)
from gogmagog.triangles import triangle_to_json

from refspeed import SpeedMeter
from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
CLI = importlib.import_module("gogmagog.cli")
# The package namespace binds the function `schutzenberger` over the
# submodule of the same name, so take the function from the module.
schutzenberger = importlib.import_module("gogmagog.schutzenberger").schutzenberger

# Output digests recorded at commit f83576b, timings left out.  A run
# whose digest differs counts as failed.
DIGESTS = json.loads((BENCH_DIR / "digests.json").read_text())

# seconds between reference-speed samples in an untraced run, and the
# reference chunk (refspeed.py) each kind of workload is measured against
SWEEP_METER = (0.005, "interpreter")
CLI_METER = (0.010, "argparse")


def _layer(layer: str) -> list[str]:
    return [f"{layer}.{name}" for name in LAYERS[layer]]


# Trace cells that must read exactly 0 on each workload.
EXPECTED_ZERO = {
    "sweep-bijection": _layer("tableaux") + _layer("cli"),
    "sweep-involution": _layer("bijection") + ["triangles.validate_gt"] + _layer("cli"),
    "cli-requests": _layer("tableaux"),
}


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(samples)
    return ordered[math.ceil(q * len(ordered)) - 1]


def _figures(times: list[float], ops_per_unit: int) -> dict:
    return {
        "ops_per_s": ops_per_unit * len(times) / sum(times),
        "req_p50_ms": statistics.median(times) * 1e3,
        "req_p90_ms": _quantile(times, 0.90) * 1e3,
        "req_p99_ms": _quantile(times, 0.99) * 1e3,
    }


def timing_metrics(ref: list[float], raw: list[float], ops_per_unit: int, window: int) -> tuple[dict, dict]:
    """Gated metrics from the reference-speed times of the units of work
    (one verify call, or one request), and the figures that are printed
    but not gated: the p90, and the wall-clock figures (see refspeed.py).

    With ``window`` > 1 each reference-speed figure is the median over
    the run's windows of ``window`` consecutive units, each window's
    figure taken on its own units, so that a burst of host interference
    moves one window, not the run."""
    if window == 1:
        figures = _figures(ref, ops_per_unit)
    else:
        windows = [_figures(ref[i:i + window], ops_per_unit)
                   for i in range(0, len(ref) - window + 1, window)]
        figures = {k: statistics.median(w[k] for w in windows) for k in windows[0]}
    ungated = {"req_p90_ms": figures.pop("req_p90_ms")}
    ungated.update((f"wall_{k}", v) for k, v in _figures(raw, ops_per_unit).items())
    ungated["units"] = len(ref)
    return figures, ungated


# --- the two verify sweeps -------------------------------------------------


@dataclass(frozen=True)
class Sweep:
    suite: str
    n_max: int
    objects: int  # known number of objects the suite checks up to n_max

    def count_objects(self, report) -> int:
        if self.suite == "bijection-n2":
            return sum(v for k, v in report.histogram.items() if k.startswith("trapezoids-"))
        return report.checks


SWEEPS = {
    # every (n,2) Gog trapezoid with n <= 6 through forward map, GOGAm
    # test, involution, inverse map and trace comparison
    "sweep-bijection": Sweep("bijection-n2", 6, 1858),
    # every GT triangle with n <= 4 and entries <= n+1, through both
    # involution routes
    "sweep-involution": Sweep("oracle", 4, 2896),
}


def report_digest(report) -> str:
    fields = {k: getattr(report, k) for k in ("suite", "n", "checks", "failures", "histogram")}
    return _sha256([json.dumps(fields, sort_keys=True).encode()])


def run_sweep(name: str, seconds: float, tracer: Tracer | None) -> dict:
    sweep = SWEEPS[name]
    want_digest = DIGESTS[name]
    plain: list[float] = []  # untraced call times in a traced run
    traced: list[float] = []
    attempted = failed = 0
    digests: set[str] = set()

    def call():
        return gogmagog.verify(sweep.suite, sweep.n_max)

    def check(report) -> None:
        nonlocal attempted, failed
        objects = sweep.count_objects(report)
        digest = report_digest(report)
        digests.add(digest)
        # a call with zero objects still counts as one failed attempt
        attempted += max(objects, 1)
        if not (report.ok and objects == sweep.objects and digest == want_digest):
            failed += max(objects, 1)

    check(call())  # warm-up: checked, not timed
    deadline = time.perf_counter() + seconds
    info = {}
    if tracer is None:
        with SpeedMeter(*SWEEP_METER) as meter:
            while time.perf_counter() < deadline or not meter.net:
                check(meter.timed(call))
        metrics, info["ungated"] = timing_metrics(
            meter.ref_times(), meter.raw_times(), sweep.objects, 1)
    else:
        # each call runs untraced, then traced
        while time.perf_counter() < deadline or not traced:
            start = time.perf_counter()
            report = call()
            plain.append(time.perf_counter() - start)
            check(report)
            report, dt = tracer.run(call)
            traced.append(dt)
            check(report)
        metrics = tracer.summary(sweep.objects * len(traced))
        metrics["trace_overhead"] = sum(traced) / sum(plain)
    info.update(digest=sorted(digests), digest_expected=want_digest)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


# --- single-object CLI requests ---------------------------------------------

POOL_SEED = 20110524  # the request pool is fixed; --seed orders the stream
SIZES = (3, 4, 5, 6, 7)
PER_CELL = 100  # requests per (kind, size); a tenth of them perturbed
PERTURBED_PER_CELL = 10
WARMUP_REQUESTS = 200
TRACE_BLOCK = 300  # requests per untraced/traced pair in a traced run

KINDS = {
    "gog-gogam": ["convert", "--from", "gog", "--to", "gogam", "--trapezoid", "2"],
    "gogam-gog": ["convert", "--from", "gogam", "--to", "gog", "--trapezoid", "2"],
    "gog-asm": ["convert", "--from", "gog", "--to", "asm"],
    "magog-gogam": ["convert", "--from", "magog", "--to", "gogam"],
    "validate-gog": ["validate", "--kind", "gog"],
    "validate-gogam": ["validate", "--kind", "gogam"],
}


@dataclass(frozen=True)
class Request:
    kind: str
    perturbed: bool
    argv: tuple[str, ...]
    expect: tuple[int, str]  # the documented exit status and stdout
    # the library's current wrong outcome on inputs that hit one of the
    # known input-handling defects listed in ROADMAP.md; still a failure
    known_defect: tuple[int, str] | None


def random_gog(rng: random.Random, n: int) -> GtTriangle:
    """Top row 1..n, then each row strictly increasing inside the
    interlacing interval; the interval is never empty."""
    rows = [tuple(range(1, n + 1))]
    for i in range(n - 1, 0, -1):
        above = rows[-1]
        row: list[int] = []
        for j in range(i):
            lo = max(above[j], row[-1] + 1) if row else above[j]
            row.append(rng.randint(lo, above[j + 1]))
        rows.append(tuple(row))
    return GtTriangle(tuple(rows))


def random_magog(rng: random.Random, n: int) -> GtTriangle:
    """Built bottom-up from x[1,1] = 1; row i+1 interlaces row i and its
    last entry stays <= i+1, which is always reachable."""
    rows = [(1,)]
    for i in range(1, n):
        below = rows[-1]
        row = [rng.randint(1, below[0])]
        row += [rng.randint(below[j - 1], below[j]) for j in range(1, i)]
        row.append(rng.randint(below[i - 1], i + 1))
        rows.append(tuple(row))
    return GtTriangle(tuple(reversed(rows)))


def perturb(rng: random.Random, t: GtTriangle) -> GtTriangle:
    """Move one entry by one so that the triangle is no longer GT."""
    while True:
        rows = [list(r) for r in t.rows]
        r = rng.randrange(len(rows))
        c = rng.randrange(len(rows[r]))
        rows[r][c] += rng.choice((-1, 1))
        bad = GtTriangle(tuple(tuple(x) for x in rows))
        if validate_gt(bad):
            return bad


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"set-up reference check failed: {what}")


def build_pool(workdir: Path) -> list[Request]:
    """Write every request's input file and compute its expected outcome
    through public library calls."""
    rng = random.Random(POOL_SEED)
    trapezoids = {n: list(generate(FamilySpec(Family.GOG, n, k=2))) for n in SIZES}
    pool: list[Request] = []
    for kind, argv in KINDS.items():
        for n in SIZES:
            for m in range(PER_CELL):
                if kind in ("gog-gogam", "gogam-gog"):
                    t = rng.choice(trapezoids[n])
                    image = gog_to_gogam_n2(t)[0]
                    _require(gogam_to_gog_n2(image)[0] == t, "gog -> gogam -> gog")
                    source, out = (t, image) if kind == "gog-gogam" else (image, t)
                    expect = format_triangle(out)
                elif kind in ("gog-asm", "validate-gog"):
                    source = random_gog(rng, n)
                    _require(is_gog(source), "random Gog triangle")
                    expect = format_asm(gog_to_asm(source)) if kind == "gog-asm" else ""
                    if kind == "gog-asm":
                        _require(asm_to_gog(parse_asm(expect)) == source, "asm reparse")
                else:
                    magog = random_magog(rng, n)
                    _require(is_magog(magog), "random Magog triangle")
                    image = schutzenberger(magog)
                    _require(image == schutzenberger_via_words(magog), "involution routes")
                    _require(is_gogam(image), "GOGAm image")
                    source = magog if kind == "magog-gogam" else image
                    expect = format_triangle(image) if kind == "magog-gogam" else ""
                perturbed = m < PERTURBED_PER_CELL
                known_defect = None
                if perturbed:
                    source = perturb(rng, source)
                    expect = ""
                    if kind == "gog-asm":
                        known_defect = (2, "")  # usage status instead of 1
                    elif kind == "magog-gogam":  # involution of an invalid input
                        known_defect = (0, format_triangle(schutzenberger(source)))
                path = workdir / f"r{len(pool)}"
                if m % 2:
                    path.write_text(triangle_to_json(source) + "\n")
                else:
                    path.write_text(format_triangle(source))
                status = 1 if perturbed else 0
                pool.append(Request(kind, perturbed, (*argv, str(path)), (status, expect), known_defect))
    return pool


def cli_call(argv: tuple[str, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = CLI.main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a wrong outcome, not a crash of the run
            status = -1
            print(f"{type(exc).__name__}: {exc}", file=err)
    return status, out.getvalue()


def run_cli(seed: int, seconds: float, tracer: Tracer | None) -> dict:
    workdir = BENCH_DIR / "out" / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = build_pool(workdir)
        return _cli_loop(pool, seed, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_loop(pool: list[Request], seed: int, seconds: float, tracer: Tracer | None) -> dict:
    """`attempted` and `failed` count the first run of each pool request,
    so that they do not depend on how many requests fit in the run.
    Every later run of a request must repeat its first outcome."""
    rng = random.Random(seed)
    first: dict[int, tuple[int, str]] = {}
    known: Counter[str] = Counter()  # failures that match a known defect
    unexpected: Counter[str] = Counter()
    attempted = failed = 0

    def execute(idx: int) -> None:
        nonlocal attempted, failed
        req = pool[idx]
        got = cli_call(req.argv)
        label = req.kind + (" perturbed" if req.perturbed else "")
        if idx in first:
            if first[idx] != got:
                unexpected[f"{label}: output differs from its first run"] += 1
            return
        first[idx] = got
        attempted += 1
        if got != req.expect:
            failed += 1
            tally = known if got == req.known_defect else unexpected
            tally[f"{label}: exit {got[0]}, documented {req.expect[0]}"] += 1

    def stream():
        """Endless seeded passes over the pool, each in a fresh order."""
        while True:
            order = list(range(len(pool)))
            rng.shuffle(order)
            yield from order

    def finished() -> bool:
        # at least one full pass, so that the digest covers the pool
        return time.perf_counter() >= deadline and len(first) == len(pool)

    plain: list[float] = []  # untraced block times in a traced run
    traced: list[float] = []
    traced_requests = 0
    requests = stream()
    deadline = time.perf_counter() + seconds
    if tracer is None:
        # closed loop, one client: the next request goes out when the
        # previous one returns
        with SpeedMeter(*CLI_METER) as meter:
            for idx in rng.sample(range(len(pool)), WARMUP_REQUESTS):
                execute(idx)
            # whole passes only, so that every window holds each pool
            # request once, whatever the seed
            while not meter.net or time.perf_counter() < deadline:
                for _ in pool:
                    meter.timed(execute, next(requests))
    else:
        # each block runs untraced, then traced
        while not finished():
            block = [next(requests) for _ in range(TRACE_BLOCK)]

            def unit() -> None:
                for idx in block:
                    execute(idx)

            start = time.perf_counter()
            unit()
            plain.append(time.perf_counter() - start)
            traced.append(tracer.run(unit)[1])
            traced_requests += len(block)

    documented = [
        f"{i}\t{pool[i].kind}\t{first[i][0]}\t".encode() + first[i][1].encode() + b"\0"
        for i in range(len(pool))
        if pool[i].known_defect is None
    ]
    digest = _sha256(documented)
    correct = not unexpected and digest == DIGESTS["cli-requests"]
    if digest != DIGESTS["cli-requests"]:
        failed = attempted
    info = {
        "digest": [digest],
        "digest_expected": DIGESTS["cli-requests"],
        "failures_known": dict(sorted(known.items())),
        "failures_unexpected": dict(sorted(unexpected.items())),
    }
    if tracer is not None:
        metrics = tracer.summary(traced_requests)
        metrics["trace_overhead"] = sum(traced) / sum(plain)
    else:
        metrics, info["ungated"] = timing_metrics(
            meter.ref_times(), meter.raw_times(), 1, len(pool))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted([*SWEEPS, "cli-requests"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if args.workload == "cli-requests":
        result = run_cli(args.seed, args.seconds, tracer)
    else:
        result = run_sweep(args.workload, args.seconds, tracer)
    if tracer is not None:
        nonzero = [
            name
            for name in EXPECTED_ZERO[args.workload]
            if result["metrics"][f"{name}.calls_per_op"] != 0
        ]
        result["info"]["expected_zero_nonzero"] = nonzero
        tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}.jsonl")
    else:
        result["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
