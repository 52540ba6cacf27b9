"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload ptf-gowalla --seed 1 --seconds 20 --trace 0

Workloads (see ``README.md`` beside this file for why each exists, the
layer shares it is predicted to show and the layers it bypasses):

* ``ptf-gowalla`` — PTF-FedRec at the paper defaults on gowalla-mini;
* ``fcf-churn``   — the FCF FedAvg baseline under churn and async stragglers;
* ``serve-swap``  — a serving gateway under closed-loop load, users drawn
  by their training activity, with checkpoint hot swaps.

Every worker is a fresh process (``worker.py``), so set-up time and peak
memory never inherit a warm process; a worker sets up once and then
performs the workload's fixed work several times, each time one *run*.
Before the measured window an oracle process computes the reference
outputs, and every run must reproduce them.  Workers run back to back
until ``--seconds`` have passed (at least three untraced ones).
``setup_s`` is the median over workers, every other figure the median
over runs.

``--trace 0`` prints the end-to-end metrics of untraced workers.
``--trace 1`` alternates traced and untraced workers and prints the
per-layer metrics of the traced runs, plus the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A human-readable report (all
figures by name, with units and sample counts) precedes it, and the full
result, stamped with the revision, machine and library settings, is
written to ``.perfbench-out/``.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run must end within this many seconds; workers are killed past it.
DEADLINE_S = 170
#: Fewest untraced worker processes behind a median.
MIN_PROCESSES = 3


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        fail(f"{job['mode']} worker did not finish within the {DEADLINE_S}s deadline")
    if proc.returncode != 0:
        fail(f"{job['mode']} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{job['mode']} worker printed no result")
    return json.loads(lines[-1])


def stamps(args) -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    revision = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=str(ROOT),
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        revision = lines[1]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "skipped": (
            "the multiprocess scheduler and the cohort x workers sweep need "
            ">= 4 cores; repro.sweep orchestrates whole runs and is on no "
            "round path"
        ),
    }


def median(values):
    return float(statistics.median(values)) if values else 0.0


def aggregate(workload: str, per_layer: dict, oracle: dict, timed: list,
              traced: list) -> dict:
    """Medians over processes (set-up, memory) and over runs (the rest).

    Every run is checked: a training run whose history, final metrics or
    ledger totals differ from the oracle counts all its client updates as
    failed; serving runs count their own shed and wrong answers.
    """
    processes = timed + traced
    runs = [run for process in processes for run in process["runs"]]
    timed_runs = [run for process in timed for run in process["runs"]]
    traced_runs = [run for process in traced for run in process["runs"]]
    failed = 0
    for run in runs:
        failed += run["failed"]
        if "outputs" in run and run["outputs"] != oracle["outputs"]:
            failed += run["attempted"] - run["failed"]
    attempted = sum(run["attempted"] for run in runs)
    checks = {
        "all_operations_correct": failed == 0,
        "swaps_applied": all(
            run["swaps_applied"] == run["swaps_issued"] > 0
            for run in runs if "swaps_issued" in run
        ),
        # Otherwise the version checks of serving answers would be vacuous.
        "swap_versions_differ": oracle.get("versions_distinct_share", 1.0) > 0.0,
        # Traced run and round frames agree with the run's own clocks.
        "trace_frames_match_clocks": all(
            run["trace"]["clock_gap"] < 0.01
            for run in traced_runs if "clock_gap" in run["trace"]
        ),
    }
    end_to_end = {"setup_s": median([p["setup_s"] for p in timed])}
    for name in ("run_s", "latency_ms", "kb_per_client_round", "peak_rss_mb"):
        end_to_end[name] = median([run[name] for run in timed_runs])
    if workload == "serve-swap":
        derived = {
            "serve_qps": (median([run["qps"] for run in timed_runs]), "1/s"),
            "serve_p50_ms": (end_to_end["latency_ms"], "ms"),
            "serve_p99_ms": (median([run["p99_ms"] for run in timed_runs]), "ms"),
            "latency_samples_per_run": (timed_runs[0]["requests"] if timed_runs else 0, "count"),
        }
    else:
        walls = [wall for run in timed_runs for wall in run["round_walls"]]
        derived = {"round_s": (median(walls), "s"), "round_samples": (len(walls), "count")}
    derived["setup_peak_rss_mb"] = (median([p["setup_peak_rss_mb"] for p in timed]), "MB")
    report = {
        "end_to_end": end_to_end,
        "derived": derived,
        "samples": {
            "processes_untraced": len(timed), "runs_untraced": len(timed_runs),
            "processes_traced": len(traced), "runs_traced": len(traced_runs),
        },
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "checks": checks,
        "oracle": {k: v for k, v in oracle.items() if k != "outputs"},
        "processes": [
            dict({k: v for k, v in p.items() if k != "runs"}, runs=[
                {k: v for k, v in run.items() if k not in ("outputs", "round_walls")}
                for run in p["runs"]
            ])
            for p in processes
        ],
    }
    if traced:
        layers = {
            name: median([run["trace"]["metrics"].get(name, 0.0) for run in traced_runs])
            for name in per_layer
        }
        layers["trace.overhead_s"] = (
            median([run["run_s"] for run in traced_runs]) - end_to_end["run_s"]
        )
        layers["failed_ratio"] = report["failed_ratio"]
        report["per_layer"] = layers
    return report


def print_report(result: dict, units: dict) -> None:
    stamp = result["stamps"]
    print(f"== perfbench {stamp['workload']} seed={stamp['seed']} "
          f"trace={stamp['trace']} rev={stamp['git_revision'] or 'n/a'} "
          f"src={stamp['source_sha256'][:12]} nproc={stamp['nproc']} "
          f"python={stamp['python']} numpy={stamp['numpy']} blas={stamp['blas']}")
    print(f"   skipped: {stamp['skipped']}")
    print(f"   samples: {result['samples']}")
    for name, unit in units["end_to_end"].items():
        print(f"   {name:<36} {result['end_to_end'][name]:.6g} {unit}")
    for name, (value, unit) in result["derived"].items():
        print(f"   {name:<36} {value:.6g} {unit}")
    print(f"   {'failed_ratio':<36} {result['failed_ratio']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for name, value in result.get("per_layer", {}).items():
        if name != "failed_ratio":
            print(f"   {name:<36} {value:.6g} {units['per_layer'][name]}")
    print(f"   checks: {result['checks']}")


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        kind: {metric["name"]: metric["unit"] for metric in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no package source under {ROOT / 'src'}")
    out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    job = {"workload": args.workload, "seed": args.seed, "out": str(out)}

    deadline = time.monotonic() + DEADLINE_S
    oracle = run_worker(dict(job, mode="oracle", index=0), deadline)
    timed, traced = [], []
    started = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        if args.trace:
            minimum = timed and traced
            mode = "traced" if len(traced) <= len(timed) else "timed"
        else:
            minimum = len(timed) >= MIN_PROCESSES
            mode = "timed"
        if minimum and (now - started >= args.seconds or now + longest > deadline):
            break
        worker = run_worker(dict(job, mode=mode, index=len(timed) + len(traced) + 1), deadline)
        longest = max(longest, time.monotonic() - now)
        (traced if mode == "traced" else timed).append(worker)

    for payload in out.glob("*.npz"):
        payload.unlink()  # oracle answers; large and only needed by the workers
    result = aggregate(args.workload, units["per_layer"], oracle, timed, traced)
    result["stamps"] = stamps(args)
    (out / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    print_report(result, units)

    kind = "per_layer" if args.trace else "end_to_end"
    names, source = units[kind], result[kind]
    print(json.dumps({
        "correct": all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": source[name], "unit": unit} for name, unit in names.items()
        },
    }))


if __name__ == "__main__":
    main()
