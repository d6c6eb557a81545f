"""Outside-in benchmark of ggmlearn.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mc-sweep --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all

A run imports ggmlearn from the checkout's ``src`` and sets up several
times, each time starting a fresh interpreter that imports ggmlearn and
building the workload's inputs from ``--seed``; ``setup_s`` is the median
of those set-up times.  It then runs the workload's op list again and again
for about ``--seconds`` seconds, checking every op's output.  ``--trace 0``
reports the end-to-end metrics; the gated time is ``wall_cal``, the op
list's time in runs of a fixed calibration kernel timed between ops
(``calibration.py``), because the raw ``wall_s`` printed beside it drifts
with the shared host's speed.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics of the traced ones.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run also writes a result
file, with an environment fingerprint, under ``bench/out/results``.

An op that raises, or whose output fails its check, counts as failed.  An
op that raises the exception of a documented defect (``Op.known_defect``
in ``workloads.py``) counts as a known defect instead: the summary's
``failed_frac`` includes it, the final line's ``failed`` does not.

``--workload all`` runs each workload in its own process, so one
workload's peak memory cannot show in another's, and prints them together.

The benchmark sets no thread or BLAS setting: it measures what a user gets
with the defaults, and records the setting in the result file.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("mc-sweep", "learn-cli", "oracle-bp")

# Setup is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed in the summary and result file but not gated: wall_s drifts with
# the host's speed (cal_s shows how fast the host ran), failed_frac is 0 on
# healthy workloads, and trials_per_s is mc-sweep's trials over wall_s.
SUMMARY_UNITS = {"wall_s": "s", "cal_s": "s", "failed_frac": "ratio", "trials_per_s": "1/s"}
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0, help="workload seed; every input is built from it")
    ap.add_argument("--seconds", type=float, default=35.0, help="how long the measured loop runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_program():
    """Import ggmlearn from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import ggmlearn
    except ImportError as exc:
        sys.exit(f"cannot import ggmlearn from {SRC}: {exc}")
    if SRC.resolve() not in Path(ggmlearn.__file__).resolve().parents:
        sys.exit(f"ggmlearn was imported from {ggmlearn.__file__}, not from {SRC}")


def time_import() -> float:
    """Seconds for a fresh interpreter to start and import ggmlearn from
    this checkout, as a user's first call pays them.

    The child reads the system-wide monotonic clock once ggmlearn is
    imported, so its exit is not timed, nor the wait for it, which
    ``subprocess`` polls in steps of up to 50 ms when given a timeout."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import ggmlearn; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                          stdout=subprocess.PIPE, text=True)
    return float(done.stdout) - start


def fingerprint() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    head = None
    try:
        # The ceiling stops git from reporting an enclosing repository.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            head = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_head": head,
    }


def run_op(op, tracer, op_id, kernel):
    """Run one op, then the calibration kernel; returns (seconds, kernel
    seconds, status, problem).  The check runs outside both timed intervals."""
    tracer.op = op_id
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # every op failure is counted, none stops the run
        elapsed = time.perf_counter() - start
        cal = kernel.run()
        if op.known_defect is not None and isinstance(exc, op.known_defect):
            return elapsed, cal, "known_defect", f"{type(exc).__name__}: {exc}"
        return elapsed, cal, "failed", "".join(traceback.format_exception(exc)).strip()
    elapsed = time.perf_counter() - start
    cal = kernel.run()
    try:
        problem = op.check(out)
    except Exception as exc:  # an output the check cannot read is a wrong output
        problem = "".join(traceback.format_exception(exc)).strip()
    return elapsed, cal, ("ok" if problem is None else "failed"), problem


def measure(workload, seconds: float, trace: bool, tracing, calibration):
    """Repeat the op list for about ``seconds``; with ``trace``, every other
    pass is traced.  Returns the pass records.

    Each op's time is also divided by the mean of the calibration kernel's
    times just before and just after it, which takes the host's speed drift
    out of ``wall_cal`` (see ``calibration.py``)."""
    tracer = tracing.Tracer()
    kernel = calibration.Kernel()
    passes = []
    start = time.perf_counter()
    op_id = 0
    cal_before = kernel.run()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        record = {"traced": traced, "wall_s": 0.0, "wall_cal": 0.0, "ops": []}
        # The CLI's progress lines are program output, not benchmark output.
        with tracer.installed() if traced else nullcontext(), redirect_stdout(StringIO()):
            for op in workload.ops:
                elapsed, cal_after, status, problem = run_op(op, tracer, op_id, kernel)
                op_id += 1
                cal = (cal_before + cal_after) / 2
                cal_before = cal_after
                record["wall_s"] += elapsed
                record["wall_cal"] += elapsed / cal
                record["ops"].append({"name": op.name, "s": elapsed, "cal_s": cal, "status": status,
                                      "problem": problem})
                if status == "failed":
                    print(f"op {op.name} failed: {problem}", file=sys.stderr)
        if traced:
            spans = tracer.take()
            record["layers"], record["absent"] = tracing.layer_metrics(spans, tracer.present_groups, record["wall_s"])
            record["missing"] = list(tracer.missing)
            record["spans"] = tracing.spans_to_json(spans)
        passes.append(record)
        now = time.perf_counter()
        enough = len(passes) >= (2 if trace else 1)
        if enough and now - start + (now - pass_start) > seconds:
            return passes


def summarize(workload, passes, setup_times, trace: bool):
    plain = [p for p in passes if not p["traced"]]
    statuses = [op["status"] for p in passes for op in p["ops"]]
    attempted = len(statuses)
    failed = statuses.count("failed")
    known = statuses.count("known_defect")
    wall = statistics.median(p["wall_s"] for p in plain)
    trials = sum(op.trials for op in workload.ops)
    summary = {
        "wall_cal": statistics.median(p["wall_cal"] for p in plain),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": wall,
        "cal_s": statistics.median(op["cal_s"] for p in plain for op in p["ops"]),
        "failed_frac": (failed + known) / attempted,
    }
    if trials:
        summary["trials_per_s"] = trials / wall
    layers, absent = {}, []
    if trace:
        # All layer metrics come from the traced pass of median wall time, so
        # that its self times still add up to its wall time.
        traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
        middle = traced[(len(traced) - 1) // 2]
        absent = middle["absent"]
        layers = dict(middle["layers"])
        layers["trace.overhead_s"] = middle["wall_s"] - wall
    counts = {"attempted": attempted, "failed": failed, "known_defect": known}
    return summary, layers, absent, counts


def run_one(args) -> int:
    import_program()
    import calibration
    import tracing
    import workloads

    workdir = OUT / f"work-{os.getpid()}"
    try:
        import_times, build_times = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            import_times.append(time_import())
            t0 = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, args.size, workdir)
            build_times.append(time.perf_counter() - t0)
        passes = measure(workload, args.seconds, bool(args.trace), tracing, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_times = [a + b for a, b in zip(import_times, build_times)]
    summary, layers, absent, counts = summarize(workload, passes, setup_times, bool(args.trace))
    label = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans = [p.pop("spans") for p in passes if "spans" in p]
    by_op = {}
    for p in passes:
        for op in p["ops"]:
            entry = by_op.setdefault(op["name"], {"status": {}, "seconds": [], "cal_s": [], "problem": None})
            entry["status"][op["status"]] = entry["status"].get(op["status"], 0) + 1
            entry["seconds"].append(op["s"])
            entry["cal_s"].append(op["cal_s"])
            entry["problem"] = entry["problem"] or op["problem"]
    result = {
        "args": vars(args),
        "environment": fingerprint(),
        "import_times_s": import_times,
        "build_times_s": build_times,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "wall_cal": p["wall_cal"]} for p in passes],
        "ops": by_op,
        "counts": counts,
        "summary": summary,
        "layers": layers,
        "absent": absent,
        "missing_functions": sorted({m for p in passes for m in p.get("missing", [])}),
        "notes": workload.notes,
    }
    (results / f"{label}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if spans:
        (results / f"{label}-spans.json").write_text(json.dumps(spans) + "\n")

    plain = sum(not p["traced"] for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes ({plain} untraced), "
          f"{counts['attempted']} ops attempted, {counts['failed']} failed, "
          f"{counts['known_defect']} hit a known defect")
    units = {**END_TO_END_UNITS, **SUMMARY_UNITS}
    for name, value in summary.items():
        print(f"  {name:<16} {value:.6g} {units[name]}")
    for name, value in layers.items():
        print(f"  {name:<32} {value:.6g} {tracing.unit_of(name)}")
    if absent:
        print(f"  absent: {', '.join(absent)}")
    print(f"result file: {(results / f'{label}.json').relative_to(ROOT)}")
    if args.trace:
        metrics = {n: {"value": v, "unit": tracing.unit_of(n)} for n, v in layers.items()}
    else:
        metrics = {n: {"value": summary[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a child process and print their metrics together."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode
        last = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
