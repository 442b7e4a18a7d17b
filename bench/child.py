"""One repetition of one workload, in a fresh interpreter.

    python3 -S bench/child.py '<json request>'

The request holds ``spec`` (a workload spec from workloads.py, or
``{"kind": "setup"}`` to measure set-up alone), ``seed``, ``trace`` and,
when traced, ``trace_out``, the file that receives the spans.  The last
line of standard output is one JSON object with the measurements: raw
and rescaled set-up time, and each item's raw and rescaled time (see
speed.py).

Set-up is everything before the first check: importing hopfkit,
building the four built-in presentations (with their termination and
confluence checks), the Galilei subgroup and the pairing engine.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import speed  # noqa: E402
import workloads  # noqa: E402


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup_result(probe, t0, t1):
    raw_setup_s, setup_s = probe.rescale(t0, t1)
    return {"setup_s": setup_s, "raw_setup_s": raw_setup_s}


def main(request):
    spec, seed, trace = request["spec"], request["seed"], request["trace"]
    inputs = [] if spec["kind"] == "setup" else workloads.items(spec, seed)

    probe = speed.SpeedProbe()
    probe.start()
    t_setup = time.perf_counter()
    import hopfkit
    import hopfkit.cli
    import hopfkit.coiso
    import hopfkit.hopf
    import hopfkit.pairing
    import hopfkit.parser
    import hopfkit.quasiinv
    tracer = None
    if trace:
        import tracing
        tracer = tracing.install(tracing.Tracer(), hopfkit)

    t_build = time.perf_counter()
    for name in hopfkit.hopf.BUILTIN_NAMES:
        hopfkit.hopf.algebra_presentation(name)
    build_s = time.perf_counter() - t_build
    hopfkit.coiso.galilei_subgroup()
    hopfkit.pairing.engine()
    t_setup_end = time.perf_counter()
    if spec["kind"] == "setup":
        probe.stop()
        return _setup_result(probe, t_setup, t_setup_end)

    if tracer:
        tracer.reset_counters()
        first_span = tracer.mark()
        run_call = tracer.span("workload.item", workloads.call)
    else:
        run_call = workloads.call
    outputs, spans = [], []
    for item in inputs:
        t0 = time.perf_counter()
        try:
            outputs.append(run_call(hopfkit, spec, item))
        except Exception:  # a crash is a failed verdict, not a lost run
            outputs.append(traceback.format_exc())
        spans.append((t0, time.perf_counter()))
    probe.stop()
    result = _setup_result(probe, t_setup, t_setup_end)
    item_s, item_ref_s = zip(*(probe.rescale(t0, t1) for t0, t1 in spans))
    result.update(item_s=item_s, item_ref_s=item_ref_s,
                  peak_rss_mb=_peak_rss_mb())

    attempted = failed = 0
    problems = []
    for item, output in zip(inputs, outputs):
        a, f, p = workloads.verdict(spec, item, output)
        attempted += a
        failed += f
        problems.extend(p)
    result.update(attempted=attempted, failed=failed, problems=problems[:5])

    if tracer:
        layers = tracer.layer_metrics(first_span)
        layers["hopf.build_s"] = build_s
        result["layers"] = layers
        tracer.write(request["trace_out"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
