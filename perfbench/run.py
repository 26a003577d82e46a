"""Run one workload of the cobforge benchmark and print its metrics.

    python3 perfbench/run.py --workload {reproduce,plan_sweep,apply_plan} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ``src/``.
One client, one thread, closed loop: each job starts when the previous one
ends.  Set-up (import cobforge, generate the seeded inputs, write the input
documents) is repeated a few times and its median reported; then whole
passes over the workload's jobs run until the next pass would overrun
``--seconds``.  Every job's output is checked after its pass, outside the
timed region.  Times are in nominal seconds: corrected for the host's speed
by reference units run between the program's bytecodes (``reference.py``).
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  The last line of stdout is
the JSON result; the names and units of its metrics are the ones listed in
``BENCHMARK.json``.  Run records and span files go to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import COUNTERS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
# Pinned explicitly: an unset or tiny COBFORGE_MAX_N changes what reproduce does.
os.environ["COBFORGE_MAX_N"] = str(checks.REPRODUCE_MAX_N)

def import_cobforge():
    """Import cobforge afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "cobforge" or m.startswith("cobforge.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("cobforge")
    for layer in LAYERS:
        importlib.import_module(f"cobforge.{layer}")
    if SRC not in Path(package.__file__).resolve().parents:
        raise ImportError(f"cobforge imported from {package.__file__}, not from {SRC}")
    return package


def environment(args, package) -> dict:
    head = ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref.removeprefix("ref: ")
        revision = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "cobforge").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "cobforge_version": package.__version__,
        "COBFORGE_MAX_N": os.environ["COBFORGE_MAX_N"],
    }


def run_pass(jobs, tracer: Tracer | None, pacer: reference.Pacer) -> dict:
    """Run every job once, then check every output.

    An untraced pass runs under the pacer: the reference units are taken out
    of each job's latency, and ``main`` scales the job to nominal seconds by
    the units run around it (see reference.py).  A traced pass runs without
    the pacer, so that no unit lands inside a span.
    """
    lo = tracer.mark() if tracer else 0
    if tracer:
        tracer.counters.clear()
    latencies, spans, errors = [], [], []
    gc.collect()  # every pass starts from the same collector state
    first = time.perf_counter()
    with pacer if tracer is None else contextlib.nullcontext():
        for job in jobs:
            t0 = pacer.clock()
            try:
                if tracer:
                    with tracer.span(f"harness.{job.kind}"):
                        job.result = job.run()
                else:
                    job.result = job.run()
                errors.append(None)
            except (Exception, SystemExit) as exc:  # a failing job is counted, never fatal
                job.result = None
                errors.append(exc)
            t1 = pacer.clock()
            latencies.append(t1 - t0)
            spans.append((t0, t1))
    elapsed = time.perf_counter() - first
    wall = sum(latencies)
    problems = []
    for job, err in zip(jobs, errors):
        if err is not None:
            problems.append([f"{job.kind} raised {err!r}"])
            continue
        try:
            problems.append(job.check(job.result))
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed check
            problems.append([f"{job.kind} check raised {exc!r}"])
    out = {
        "traced": tracer is not None,
        "host_wall_s": wall,
        "elapsed_s": elapsed,
        "host_latencies_s": latencies,
        "clock_spans": spans,
        "failed": sum(1 for p in problems if p),
        "problems": [p for p in problems if p][:5],
        "output_bytes": sum(p.stat().st_size for job in jobs for p in job.outputs if p.exists()),
    }
    if tracer:
        out["layers"] = layer_metrics(tracer, lo, wall, out["output_bytes"])
    return out


def layer_metrics(tracer: Tracer, lo: int, wall: float, output_bytes: int) -> dict:
    calls, self_s = tracer.self_times(lo, tracer.mark())
    values = {}
    for name in tracer.traced_names:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    values.update({name: tracer.counters[name] for name in COUNTERS})
    represent = calls["frobenius.represent"]
    values["frobenius.represent.success_ratio"] = (
        tracer.counters["frobenius.represent.returns"] / represent if represent else 0.0
    )
    values["cli.output_bytes"] = output_bytes
    for layer in LAYERS + ("harness",):
        values[f"{layer}.self_share"] = (
            sum(t for name, t in self_s.items() if name.startswith(layer + ".")) / wall
        )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    setup = WORKLOADS[args.workload]
    workdir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    results = WORK / "results"
    pacer = reference.Pacer()
    try:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            with pacer:
                t0 = pacer.clock()
                package = import_cobforge()
                jobs = setup(package, args.seed, workdir)
                t1 = pacer.clock()
            setup_spans.append((t0, t1))
        env = environment(args, package)

        tracer = Tracer() if args.trace else None
        passes = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install(package)
            try:
                passes.append(run_pass(jobs, tracer if traced else None, pacer))
            finally:
                if traced:
                    tracer.uninstall()
            both_kinds = tracer is None or len(passes) >= 2
            next_pass = max(p["elapsed_s"] for p in passes[-2:])
            if both_kinds and time.perf_counter() + next_pass > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["host_latencies_s"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    # Times are in nominal seconds: a job of an untraced pass, and a set-up, is
    # scaled by the reference units run around it, a traced pass by all units.
    run_scale = pacer.scale()
    for p in passes:
        p["latencies_s"] = [
            t * (run_scale if p["traced"] else pacer.scale(*span))
            for t, span in zip(p["host_latencies_s"], p["clock_spans"])
        ]
        p["wall_s"] = sum(p["latencies_s"])
    setup_times = [(t1 - t0) * pacer.scale(t0, t1) for t0, t1 in setup_spans]
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        # A pass's median job; its median over passes is steadier than the median
        # of all jobs, which on plan_sweep falls in the gap between two n's.
        "job_p50_ms": 1000 * statistics.median(
            statistics.median(p["latencies_s"]) for p in plain
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(p["layers"][name] for p in traced)
            if name.endswith(".self_s"):
                values[name] *= run_scale
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["wall_s"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "setup_s_all": setup_times,
        "run_scale": run_scale,
        "passes": passes,
        "reference_units": {"at": list(pacer.at), "took": list(pacer.took)},
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(results / f"{stem}.spans.tsv.gz")

    print("env " + json.dumps(env, sort_keys=True))
    for p in passes:
        for problem in p["problems"]:
            print(f"FAILED {problem}")
    print(f"passes {len(plain)} untraced, {len(traced)} traced; jobs {attempted}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"nominal seconds per host second: {run_scale:.4f} over the run")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        status = main()
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        status = 2
    sys.exit(status)
