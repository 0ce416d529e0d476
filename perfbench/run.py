"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search|replay|service \
        --seed N --seconds S --trace 0|1

``--seconds`` sizes the fixed work of the run (the inputs are a pure
function of seed and seconds); it is not a timer.  ``--trace 0`` prints
the end-to-end metrics, measured untraced.  ``--trace 1`` runs the same
work twice, untraced then with a span per layer call, and prints the
per-layer metrics; it also writes the spans as Chrome-trace JSON under
``perfbench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output passed its check.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform as _platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("search", "replay", "service")
#: Set-up (input generation + warm-up) is repeated this many times and
#: its median reported, so a slow first pass does not read as a change.
SETUP_REPEATS = 3

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "speedup.geomean": "ratio",
    "acceptance_rate": "ratio",
    "sustained_ops_per_s": "1/s",
    "recover_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def end_to_end(result, setup, stats):
    """The end-to-end metrics of an untraced pass: {name: (value, n, note)}.

    ``setup`` is (set-up seconds at the reference speed, as measured).
    The workload reports its timings at the reference speed; each note
    keeps the value as measured.
    """
    n = len(result.op_s)
    p_tail = stats.tail_percentile(n)
    ops_note = (
        "burst completion rate"
        if result.samples.get("ops_per_s")
        else "ops over op wall time"
    )
    out = {
        "setup_s": (setup[0], SETUP_REPEATS, "median set-up"),
        "ops_per_s": (
            result.ops_per_s, result.samples.get("ops_per_s", n), ops_note
        ),
        "op_ms.p50": (1e3 * stats.median(result.op_s), n, "p50"),
        "op_ms.tail": (
            1e3 * stats.percentile(result.op_s, p_tail), n, f"p{p_tail:g}"
        ),
        "ok_share": (result.ok_share, result.attempted, ""),
        "peak_rss_mb": (peak_rss_mb(), 1, ""),
    }
    for name in (
        "speedup.geomean", "acceptance_rate", "sustained_ops_per_s",
        "recover_s",
    ):
        if name in result.values:
            out[name] = (result.values[name], result.samples.get(name, 1), "")
    measured = dict(result.measured, setup_s=setup[1])
    for name, (value, count, note) in out.items():
        if name in measured:
            note = f"{note} (measured {measured[name]:.6g})".strip()
            out[name] = (value, count, note)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args):
    import numpy

    from repro.steady_state.backend import available_backends, resolve_backend

    return (
        f"# env workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} "
        f"backend={resolve_backend(None)} "
        f"available={','.join(available_backends())} "
        f"python={_platform.python_version()} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: program sources not found at {SRC}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from repro.obs import metrics, tracing

    import layers
    import stats
    import workloads

    import_s = perf_counter() - PROCESS_START
    metrics.disable()
    tracing.stop()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, workdir)
    try:
        # Set-up is scaled by the speed factor of samples taken around
        # its repetitions (imports ran just before the first).
        setup_probe = stats.SpeedProbe()
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_probe.sample()
            start = perf_counter()
            inputs = workload.prepare(args.seed, args.seconds)
            workload.warm()
            setups.append(perf_counter() - start)
        setup_probe.sample()
        setup_s = import_s + stats.median(setups)
        setup = (setup_s / setup_probe.factor, setup_s)
        print(environment(args))

        probe = stats.SpeedProbe()
        probe.sample()
        result = workload.run(inputs, check=True, probe=probe)
        errors = list(result.errors)
        failed = result.failed
        print(f"# digest {args.workload} {result.digest}")
        for line in result.lines:
            print(f"# {line}")
        if args.trace:
            rows, traced_digest = traced_pass(
                args, workload, inputs, result, layers, metrics
            )
            print(f"# digest {args.workload} traced {traced_digest}")
            if traced_digest != result.digest:
                errors.append("traced run made different decisions")
                failed = max(failed, 1)
        else:
            kernel = sorted(seconds for _t, seconds in probe.samples)
            print(
                f"# speed reference kernel n={len(kernel)} p10/p50/p90 "
                + "/".join(
                    f"{1e3 * stats.percentile(kernel, p):.4f}" for p in (10, 50, 90)
                )
                + f" ms, nominal {1e3 * stats.REFERENCE_KERNEL_S:g} ms: each "
                "timing divided by its local factor (run mean "
                f"{probe.factor:.4f})"
            )
            rows = end_to_end(result, setup, stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, n, note) in rows.items():
        if not math.isfinite(value):  # e.g. no request at all succeeded
            errors.append(f"{name} is not a finite number")
            rows[name] = (0.0, n, note)
    for message in errors:
        print(f"# CHECK FAILED: {message.strip()}")
    width = max(len(name) for name in rows)
    for name, (value, n, note) in rows.items():
        unit = UNITS.get(name) or layers.UNITS[name]
        print(f"# {name:<{width}} {value:14.6f} {unit:<6} n={n} {note}")
    correct = not errors and failed == 0
    metrics_out = {
        name: {"value": value, "unit": UNITS.get(name) or layers.UNITS[name]}
        for name, (value, _n, _note) in rows.items()
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": metrics_out,
            }
        )
    )
    return 0 if correct else 1


def traced_pass(args, workload, inputs, untraced, layers, metrics):
    """Re-run the same work with layer spans on; returns metric rows."""
    tracer = layers.LayerTracer().install()
    registry = metrics.enable(metrics.MetricsRegistry())
    try:
        traced = workload.run(inputs, check=False, tracer=tracer)
    finally:
        metrics.disable()
        tracer.uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.chrome_trace(trace_path)
    print(f"# trace {trace_path.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
    rows = layers.per_layer_metrics(tracer, registry, traced)
    rows["trace.overhead"] = (
        traced.ops_per_s / untraced.measured["ops_per_s"],
        2,
        "traced/untraced ops_per_s, as measured",
    )
    return rows, traced.digest


if __name__ == "__main__":
    sys.exit(main())
