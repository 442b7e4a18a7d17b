"""hopfkit benchmark: cold-process workloads with exact-output gates.

    python3 bench/run.py --workload verify --seed 1 --seconds 55 --trace 0

Each repetition runs in its own fresh interpreter (bench/child.py), one
at a time, so every repetition starts with empty caches.  hopfkit's caches
live as long as the process, so in a shared process a suite's time would
depend on what ran before it (`hopf-axioms` took 10.9 s cold and 10.3 s
right after `cocycle`, measured once on a 2-core Xeon VM).

A run first measures set-up alone in a few children, then repeats the
workload until the next repetition would end after --seconds (at least
once).  With --trace 1 each repetition is followed by a traced one and
the per-layer metrics come from the traced children; end-to-end metrics
always come from untraced children.  Traced children write their spans
to bench/out/.  Workload and set-up times are rescaled to a reference
speed measured while they run (speed.py), because a shared host's own
speed changes more between runs than most changes to the program do.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The metric names and units are
those declared in BENCHMARK.json.  The exit code is 0 when that line was
printed, whatever the verdict, and non-zero when the benchmark could not
run at all (for example when src/hopfkit is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

import workloads  # noqa: E402  (bench/ is the script directory)

SETUP_RUNS = 5
# A run must end within 180 s; no child may outlive this budget.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure: no result line is printed."""


def _child(request, timeout):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-S", str(BENCH / "child.py"), json.dumps(request)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Linear-interpolated quantile q in [0, 1] of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(name, spec, seed, seconds, trace):
    """Run set-up children and closed-loop repetitions; return raw results."""
    start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    setup = [_child({"spec": {"kind": "setup"}, "seed": seed, "trace": False},
                    remaining()) for _ in range(SETUP_RUNS)]
    plain, traced = [], []
    while True:
        cycle_start = time.perf_counter()
        plain.append(_child({"spec": spec, "seed": seed, "trace": False},
                            remaining()))
        if trace:
            OUT.mkdir(exist_ok=True)
            out = OUT / f"{name}-seed{seed}-rep{len(traced)}.trace.json.gz"
            traced.append(_child({"spec": spec, "seed": seed, "trace": True,
                                  "trace_out": str(out)}, remaining()))
        cycle = time.perf_counter() - cycle_start
        if time.perf_counter() - start + cycle > seconds:
            break
    return setup, plain, traced


def item_medians(reps, key="item_ref_s"):
    """Each item's median time over the repetitions of one run."""
    return [statistics.median(times) for times in zip(*(r[key] for r in reps))]


def end_to_end(setup, plain):
    """End-to-end metrics from the untraced repetitions of one run.

    Times of the workload are rescaled to the reference speed (see
    speed.py); each item takes its median over the repetitions, wall_ref_s
    is their sum and the latency percentiles are taken over them.  Set-up
    is raw time: the median over every child of the run.
    """
    items = item_medians(plain)
    return {
        "wall_ref_s": sum(items),
        "setup_s": statistics.median(r["setup_s"] for r in setup + plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "expr_p50_ref_ms": percentile(items, 0.5) * 1e3,
        "expr_p90_ref_ms": percentile(items, 0.9) * 1e3,
    }


def per_layer(plain, traced, fail_ratio):
    """Medians over traced repetitions, plus the tracing overhead: traced
    minus untraced wall_ref_s."""
    out = {key: statistics.median(r["layers"][key] for r in traced)
           for key in traced[0]["layers"]}
    out["trace.overhead_s"] = sum(item_medians(traced)) - sum(item_medians(plain))
    out["fail_ratio"] = fail_ratio
    return out


def declared():
    """BENCHMARK.json: the workloads and the metric names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result(name, spec, seed, seconds, trace):
    """Measure one run and return the benchmark's result object."""
    if not (ROOT / "src" / "hopfkit" / "__init__.py").is_file():
        raise BenchError(f"no hopfkit sources under {ROOT / 'src'}")
    setup, plain, traced = measure(name, spec, seed, seconds, trace)
    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for problem in r["problems"]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
    if trace:
        measured = per_layer(plain, traced, failed / attempted)
    else:
        measured = end_to_end(setup, plain)
    rows = declared()["per_layer" if trace else "end_to_end"]
    metrics = {row["name"]: {"value": measured[row["name"]], "unit": row["unit"]}
               for row in rows}
    print(f"# {name} seed {seed}: {len(plain)} untraced and {len(traced)} "
          f"traced repetitions, {len(setup)} set-up runs, fail_ratio "
          f"{failed / attempted:g} ({failed} of {attempted})")
    print(f"# not rescaled: wall_s {sum(item_medians(plain, 'item_s')):.6g} s, "
          f"setup_s {statistics.median(r['raw_setup_s'] for r in setup + plain):.6g} s")
    for metric, m in metrics.items():
        print(f"# {metric} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    bench = declared()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    print(json.dumps(result(args.workload, workloads.WORKLOADS[args.workload],
                            args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
