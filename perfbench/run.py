#!/usr/bin/env python3
"""The repository benchmark: ``bulk``, ``interactive`` and ``relay-churn``.

Run from the repository root::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the workload with tracing off and reports every
end-to-end metric.  ``--trace 1`` measures it untraced for half the
time, then again on the same operations with spans around each layer's
entry points, and reports every per-layer metric; the spans are written
to ``.perfbench/`` in the repository root.  Human-readable lines come
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  An echo
or fan-out that differs from what was sent exits with status 1 before
any number is printed.

End-to-end metrics, defined on every workload (an operation is one
``bulk`` burst, one ``interactive`` request or one ``relay-churn``
routed payload):

* ``setup_s``: median over fresh interpreters of the time from launch
  to the first timed operation (imports, key, codec or hub, server,
  first handshake, one warm-up operation);
* ``peak_rss_mb``: the process's peak resident set at the end;
* ``goodput_mb_s``: plaintext bytes delivered byte-exact per second,
  each payload counted once;
* ``ops_per_s``: operations completed per second;
* ``op_p10_ms``: the 10th-percentile operation latency.

The shared 2-CPU host these were chosen on runs Python in phases some
seconds long that differ in speed by 20-40 %, and a whole 30 s run can
fall in a slow one: whole-run rates and medians of the same code moved
by up to 26 % between runs.  So the rates are taken over the faster
windows of a run (the 90th percentile over :data:`WINDOWS` windows of
equal op count) and latency at the 10th percentile.  Across ten seeds
these moved by 3-19 % (inter-quartile range over median), depending on
how busy the host was.  The whole-run rates, the medians, tail
percentiles and link set-up times (``connect`` to a link ready for
traffic; the JOIN acknowledgement on the relay) are printed too, with
sample counts.

The benchmark's own tests: ``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s``.
SETUP_PROBES = 5

#: Windows a run is cut into for ``goodput_mb_s`` and ``ops_per_s``.
WINDOWS = 24


def quantile(values: list, q: float) -> float:
    """The ``q``-quantile (``statistics.quantiles``' interpolation)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def percentile(samples: list, q: float) -> "tuple | None":
    """The ``q``-quantile and the sample count, or ``None`` unless at
    least ten samples lie beyond it."""
    if len(samples) * (1 - q) < 10:
        return None
    return quantile(samples, q), len(samples)


def host_lines() -> list:
    # Read from the package metadata: importing numpy would put its
    # footprint into peak_rss_mb, and the library does not import it.
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return [
        f"host: cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} platform={platform.platform()}",
        f"code: commit={commit} src_sha256={digest.hexdigest()[:16]}",
    ]


def measure_setup(workload: str, seed: int) -> list:
    """Launch-to-ready seconds of :data:`SETUP_PROBES` fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        begun = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        with child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - begun
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {child.returncode} before it was ready")
        times.append(elapsed)
    return times


def describe(run) -> list:
    engines = ", ".join(
        f"{role}={engine.name} ({type(engine).__module__}."
        f"{type(engine).__qualname__})"
        for role, engine in run.engines.items())
    share = run.failed / run.attempted if run.attempted else 0.0
    lines = [f"engines: {engines}", f"transport: {run.transport}",
             f"ops: {run.ops} in {run.wall_s:.3f} s; attempted "
             f"{run.attempted}, failed {run.failed}, "
             f"failed_share {share:.6f}"]
    op_name, rate_name = {"bulk": ("burst", None),
                          "interactive": ("rtt", "requests_per_s"),
                          "relay-churn": ("fanout", "routed_per_s")}[run.workload]
    samples = [(op_name, run.op_s), ("link_setup", run.link_s)]
    for mode in sorted(set(run.link_mode)):
        samples.append((f"link_setup[{mode}]",
                        [s for s, m in zip(run.link_s, run.link_mode)
                         if m == mode]))
    for name, values in samples:
        for q in (0.5, 0.99):
            found = percentile(values, q)
            label = f"{name}_p{round(q * 100)}_ms"
            lines.append(
                f"{label}: {found[0] * 1e3:.4f} (n={found[1]})" if found else
                f"{label}: not reported (n={len(values)}, fewer than ten "
                f"samples beyond it)")
    lines.append(f"whole run: goodput {run.bytes / run.wall_s / 1e6:.6f} "
                 f"MB/s, {run.ops / run.wall_s:.4f} ops/s")
    if rate_name:
        lines.append(f"{rate_name}: {run.ops / run.wall_s:.4f}")
    return lines


def fast_windows(run) -> tuple:
    """90th percentiles of the op and byte rates of :data:`WINDOWS`
    consecutive windows of equal op count, each timed from the end of
    the previous window, so that set-ups, rekeys and scrapes between
    operations count against the window they fall in."""
    windows = min(WINDOWS, run.ops)
    edges = [run.ops * k // windows for k in range(windows + 1)]
    ends = [run.started, *run.op_done]
    ops, rates = [], []
    for lo, hi in zip(edges, edges[1:]):
        seconds = ends[hi] - ends[lo]
        ops.append((hi - lo) / seconds)
        rates.append(sum(run.op_bytes[lo:hi]) / seconds)
    return quantile(ops, 0.9), quantile(rates, 0.9)


def end_to_end(run, setup: list) -> dict:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    ops_per_s, bytes_per_s = fast_windows(run)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
        "goodput_mb_s": (bytes_per_s / 1e6, "MB/s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p10_ms": (quantile(run.op_s, 0.1) * 1e3, "ms"),
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            handler=None) -> int:
    """Measure one workload and print its report; returns the exit code."""
    import tracing
    import workloads

    runner = workloads.RUNNERS[workload]
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    for line in host_lines():
        print(line)
    if not trace:
        setup = measure_setup(workload, seed)
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
        runs = [runner(seed, workloads.Clock(seconds, None, None), handler)]
    else:
        untraced = runner(seed, workloads.Clock(seconds / 2, None, None),
                          handler)
        tracer = tracing.Tracer()
        runs = [untraced]
        if not untraced.wrong:
            with tracing.instrument(tracer,
                                    workloads.engine_classes(workload)):
                runs.append(runner(
                    seed, workloads.Clock(math.inf, untraced.steps, tracer),
                    handler))
    for run in runs:
        if run.wrong:
            for problem in run.problems:
                print(f"perfbench: wrong output: {problem}", file=sys.stderr)
            return 1
    for line in describe(runs[0]):
        print(line)
    if not trace:
        metrics = end_to_end(runs[0], setup)
    else:
        traced = runs[1]
        metrics = tracing.layer_metrics(
            tracer, traced.wall_s, untraced.wall_s, traced.ops,
            traced.payloads, traced.shed, traced.series)
        if tracer.missing:
            print("entry points not found (time falls to the caller): "
                  + ", ".join(tracer.missing))
        spans = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.tsv.gz"
        tracer.dump(spans)
        print(f"spans: {len(tracer)} written to "
              f"{spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk", "interactive", "relay-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        def ready() -> bool:
            print("ready", flush=True)
            return True

        workloads.RUNNERS[args.workload](
            args.seed, workloads.Clock(0.0, None, None), on_ready=ready)
        return 0
    return execute(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
