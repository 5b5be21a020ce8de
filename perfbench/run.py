"""Benchmark of the fblfas CLI sweeps: seeded workloads, checked outputs, layer traces.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload analytic_bler --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one table
    python3 perfbench/run.py --workload mc_outage --size tiny --seconds 1 --trace 1

Workloads are defined in workloads.py. A run calls fblfas.cli.main(argv) in
this process, one pass of CLI calls after another, until the next pass would
end after --seconds; passes cost the same but share no inputs. Each call's
CSV is captured and checked (checks.py).

--trace 0 reports the end-to-end metrics:
    wall_s       median over the run's passes of the time of one pass of
                 CLI calls, scaled to the reference host speed of
                 hostclock.py (the raw times are in the run context)
    setup_s      median, over separate processes started between the
                 passes, of the time from process start to the first timed
                 call (imports, input generation and the warm-up pass),
                 scaled the same way
    peak_rss_mb  peak resident memory of this process
--trace 1 runs every pass untraced and then traced on the same inputs and
reports the per-layer metrics of tracing.py, per traced pass, plus the
tracing overhead against the untraced pass. Spans are written to
.bench_out/spans-<workload>-seed<seed>.csv.gz.

The last line of output is one JSON object: correct, attempted and failed
computed CSV cells, and the metrics with their units. The line before it is
the run context: commit, seed, versions, thread settings, the SHA-256
digest of every CSV per pass (runs with the same seed must repeat them),
and why cells failed. failed_frac (failed / attempted) is printed with the
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

STARTED = perf_counter()  # the run's --seconds count from here

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS_ENV = "FBLFAS_THREADS"


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny runs small inputs, for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def configure_environment():
    """One BLAS thread and one CLI worker: the run is a single busy thread.

    A second busy thread (a BLAS worker, even one spinning between calls)
    can slow the first twice over: on a 2-vCPU KVM guest, two processes
    busy on both vCPUs each took twice as long per call as one alone.
    """
    nproc = len(os.sched_getaffinity(0))
    blas = "1"
    for name in BLAS_ENV:
        os.environ[name] = blas
    os.environ.pop(THREADS_ENV, None)
    return {"nproc": nproc, "blas_threads": blas, THREADS_ENV: None}


def import_cli():
    """fblfas.cli from this checkout's src; exit nonzero without it."""
    sys.path.insert(0, str(SRC))
    try:
        from fblfas import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fblfas from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: fblfas was imported from {cli.__file__}, not from {SRC}")
    return cli


def commit():
    """HEAD of the checkout's git directory, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_calls(cli, calls, checks):
    """Run one pass; one record per call, with its start, end and cpu seconds."""
    records = []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            start, start_cpu = perf_counter(), process_time()
            try:
                code = cli.main(call.argv())
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing call fails its cells; the run goes on
                code = -1
                err.write(traceback.format_exc())
            end = perf_counter()
            cpu = process_time() - start_cpu
        if err.getvalue():
            sys.stderr.write(err.getvalue())
        texts = [str(w.message) for w in caught]
        text = out.getvalue()
        records.append({
            "argv": call.argv(),
            "start": start,
            "end": end,
            "cpu": cpu,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "check": checks.check_call(call, code, text, texts),
            "nonconverged": sum(checks.NONCONVERGED_TEXT in t for t in texts),
        })
    return records


def pass_seconds(records, field="cpu"):
    """Seconds of one pass: its calls' `field` summed ("wall" for end - start)."""
    if field == "wall":
        return sum(r["end"] - r["start"] for r in records)
    return sum(r[field] for r in records)


def measure(cli, workload, seconds, tracer, checks, clock=None, probe=None):
    """Run passes j = 0, 1, ... until the next one would end after `seconds`
    from the start of this process.

    With a tracer each pass runs untraced and then traced on the same calls;
    a traced CSV that differs from the untraced one fails. With a clock, the
    host's speed is sampled during the untraced calls. With a probe, one
    set-up sample is taken after each pass until SETUP_PROBES are taken, so
    that they meet the same host as the passes; returns (passes, samples).
    """
    passes, setup = [], []
    while True:
        calls = workload.calls(len(passes))
        entry = {"began": perf_counter()}
        if clock is not None:
            clock.start()
        try:
            entry["records"] = run_calls(cli, calls, checks)
        finally:
            if clock is not None:
                clock.stop()
        if tracer is not None:
            with tracer.active(len(passes)):
                traced = run_calls(cli, calls, checks)
            for plain, rec in zip(entry["records"], traced):
                check = rec["check"]
                if rec["sha256"] != plain["sha256"]:
                    check.failed = check.attempted
                    check.reasons["traced output differs"] += check.attempted
                tracer.counts["metrics.statistical_bler.nonconverged"] += rec["nonconverged"]
            entry["traced_records"] = traced
        passes.append(entry)
        if probe is not None and len(setup) < SETUP_PROBES:
            setup.append(probe())
        elapsed = perf_counter() - STARTED
        per_pass = (elapsed - sum(setup) - (passes[0]["began"] - STARTED)) / len(passes)
        pending = (SETUP_PROBES - len(setup)) * statistics.mean(setup) if setup else 0.0
        if elapsed + per_pass + pending > seconds:
            break
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return passes, setup


def probe_setup(args):
    """Seconds from starting a fresh process to its first timed call, scaled
    by the host speed the process sampled while setting up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            words = proc.stdout.readline().split()
            elapsed = perf_counter() - start
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if words[:1] != ["ready"] or len(words) != 3 or proc.returncode != 0:
        sys.exit(f"perfbench: set-up probe failed (exit code {proc.returncode})")
    probes, speed = map(float, words[1:])
    return (elapsed - probes) * speed


def layer_metrics(tracer, passes):
    from tracing import CALLBACKS, COUNTERS, TRACED

    n = len(passes)
    totals = tracer.per_name()
    values = {}
    for name in TRACED + CALLBACKS:
        calls, seconds, self_seconds = totals.get(name, (0, 0.0, 0.0))
        values.update({f"{name}.calls": calls / n, f"{name}.s": seconds / n,
                       f"{name}.self_s": self_seconds / n})
    values.update({name: tracer.counts[name] / n for name in COUNTERS})
    wall = statistics.median(pass_seconds(p["records"], "wall") for p in passes)
    traced_wall = statistics.median(pass_seconds(p["traced_records"], "wall") for p in passes)
    values["process.cpu_s"] = statistics.median(pass_seconds(p["records"]) for p in passes)
    values["process.wall_s"] = wall
    values["trace.overhead_frac"] = (traced_wall - wall) / wall
    return values


def run_one(args, context, clock):
    cli = import_cli()
    import checks
    from tracing import PER_LAYER, Tracer
    from workloads import Workload

    workload = Workload(args.workload, args.seed, args.size)
    # Warm-up: fixed small inputs, so set-up time does not depend on the seed.
    run_calls(cli, Workload(args.workload, 0, "tiny").calls(0), checks)
    if args.setup_probe:
        clock.stop()
        probes, speed = clock.speed(-math.inf, math.inf)
        print(f"ready {probes!r} {speed!r}", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    if args.trace:  # samples would land in the spans; traced times stay raw
        clock = probe = None
    else:
        probe = functools.partial(probe_setup, args)
    passes, setup = measure(cli, workload, args.seconds, tracer, checks, clock, probe)
    raw = [pass_seconds(p["records"], "wall") for p in passes]
    scaled = [sum(clock.scaled(r["start"], r["end"]) for r in p["records"])
              for p in passes] if clock else []

    records = [r for p in passes for r in p["records"] + p.get("traced_records", [])]
    attempted = sum(r["check"].attempted for r in records)
    failed = sum(r["check"].failed for r in records)
    reasons = sum((r["check"].reasons for r in records), Counter())
    if tracer is None:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
        values = {
            "wall_s": statistics.median(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        units = PER_LAYER
        values = layer_metrics(tracer, passes)
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    import numpy
    import scipy

    context.update({
        "commit": commit(), "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "passes": len(passes),
        "pass_wall_s": raw, "pass_scaled_s": scaled,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "setup_samples_s": setup,
        "max_analytic_mc_gap": max(r["check"].mc_gap for r in records),
        "failure_reasons": dict(reasons),
        "csv_sha256": [[r["sha256"] for r in p["records"]] for p in passes],
    })
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} ({failed} of {attempted} cells)")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; a table of the end-to-end metrics."""
    from workloads import WORKLOADS

    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    print("\nsummary")
    for name, result in rows:
        parts = [f"failed_frac {result['failed'] / result['attempted']:.6g}"]
        parts += [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        print(f"  {name:<14} " + ", ".join(parts))
    return 0


def main(argv=None):
    context = configure_environment()  # before anything imports numpy
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    from hostclock import HostClock

    clock = HostClock()
    if args.setup_probe:  # sample the host from here to the first timed call
        clock.start()
    return run_one(args, context, clock)


if __name__ == "__main__":
    sys.exit(main())
