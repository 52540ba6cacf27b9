"""One worker process of one workload (spawned by ``run.py``).

Usage: ``python3 perfbench/worker.py '<json job>'`` where the job names the
``workload``, ``seed``, ``mode``, ``index`` and ``out`` directory.  Modes:

* ``timed``  — set up once, then perform the workload's fixed work several
  times untraced; each time is one *run*;
* ``traced`` — the same with layer spans recorded (see ``tracing.py``);
* ``oracle`` — the reference the other modes are checked against: a
  serial-scheduler ``repro.run`` of the same spec for training workloads,
  and direct (gateway-free, cache-free) top-k answers of both checkpoint
  versions for the serving workload.

The result is printed as one JSON object on the last line of stdout.
"""

import time

# Started before the imports: importing the package is part of set-up.
_T0 = time.perf_counter()

import gc
import json
import shutil
import statistics
import sys
import threading
from collections import deque
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

import repro
from repro import artifacts
from repro.data import MINI_SPECS, debug_dataset, generate_dataset
from repro.eval.ranking import RankingEvaluator
from repro.experiments import ExperimentSpec, create_trainer
from repro.experiments.callbacks import Callback
from repro.serve import Recommender, Rejected, ServingGateway
from repro.utils import RngFactory

from tracing import Tracer, account, under

IMPORT_S = time.perf_counter() - _T0

# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
#: The mini-scale settings the paper-table benchmarks use (``mini_spec``):
#: the server batch and learning rate are adapted to 200-user datasets,
#: every protocol hyper-parameter stays at the paper's value.
MINI = dict(
    client_local_epochs=3, server_epochs=3, client_batch_size=64,
    server_batch_size=128, learning_rate=0.01, embedding_dim=16,
    client_mlp_layers=(32, 16, 8), server_num_layers=3, alpha=30, k=20,
)

TRAINING = {
    "ptf-gowalla": dict(
        trainer="ptf", backend="numpy", rounds=2, instances=2,
        overrides=dict(scheduler="batched"),
    ),
    "fcf-churn": dict(
        trainer="fcf", backend="numpy32", rounds=8, instances=3,
        overrides=dict(
            scheduler="batched", payload="sparse",
            client_local_epochs=2, local_learning_rate=0.05,
            dropout=0.1, deadline=1.0, latency_range=(0.2, 2.5),
            aggregation="async",
        ),
    ),
}

SERVE = dict(
    num_users=10_000, num_items=2_000, num_interactions=30_000, dim=32,
    client_fraction=0.005, k=20, requests=20_000, windows=5,
    swaps=1, warmup=2_000, concurrency=128,
    gateway=dict(max_batch=128, max_wait_ms=2.0, deadline_ms=250.0),
)


def training_spec(workload: str, seed: int) -> ExperimentSpec:
    config = TRAINING[workload]
    settings = dict(MINI, rounds=config["rounds"], **config["overrides"])
    return ExperimentSpec.from_flat(
        trainer=config["trainer"], seed=seed, backend=config["backend"], **settings
    )


def gowalla_mini(seed: int):
    return generate_dataset(
        MINI_SPECS["gowalla-mini"],
        rng=RngFactory(seed).spawn("dataset-gowalla-mini"),
    )


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark (Linux), so
    the next :func:`peak_rss_mb` covers only what runs after set-up."""
    gc.collect()
    Path("/proc/self/clear_refs").write_text("5", encoding="ascii")


def peak_rss_mb() -> float:
    """Resident-memory high-water mark since start or the last reset."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
class RoundClock(Callback):
    """Times every round and keeps its logs; opens ``round`` spans if traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.walls = []
        self.logs = []
        self._start = None
        self._span = None

    def on_round_start(self, trainer, round_index):
        if self.tracer is not None:
            self._span = self.tracer.begin("round")
        self._start = time.perf_counter()

    def on_round_end(self, trainer, round_index, logs):
        self.walls.append(time.perf_counter() - self._start)
        if self.tracer is not None:
            self.tracer.end(self._span)
        self.logs.append(dict(logs))


def count_operations(system, ops):
    """Count client updates attempted and lost to engine failures.

    Plain counters on two engine calls per round; they run in untraced
    runs too, because failures count against every run.
    """
    engine = system.engine
    name = "train_ptf_clients" if hasattr(system, "server") else "train_fedavg_clients"
    train, pop_failed = getattr(engine, name), engine.pop_failed

    def counted_train(*args, **kwargs):
        ops["attempted"] += len(args[1])
        return train(*args, **kwargs)

    def counted_pop_failed():
        failed = pop_failed()
        ops["engine_failed"] += len(failed)
        return failed

    setattr(engine, name, counted_train)
    engine.pop_failed = counted_pop_failed


def trace_training(tracer: Tracer, system) -> None:
    """Wrap each layer's public entry points on this system."""
    engine = system.engine
    if hasattr(system, "server"):
        server = system.server
        tracer.wrap(engine, "train_ptf_clients", "engine.client_train")
        tracer.wrap(engine, "build_ptf_uploads", "engine.upload")
        tracer.wrap(
            engine, "build_ptf_dispersals", "engine.dispersal",
            on_call=lambda t, result: t.count("dispersals", len(result)),
        )
        tracer.wrap(server, "train_on_uploads", "core.server_train")
        tracer.wrap(server.optimizer, "step", "optim.server_step")
        tracer.wrap(server.model, "propagate", "models.propagate")
    else:
        tracer.wrap(engine, "train_fedavg_clients", "engine.client_train")
    tracer.wrap(system.scenario, "plan_round", "scenario.plan")
    tracer.wrap(
        RankingEvaluator, "evaluate", "eval.evaluate",
        on_call=lambda t, result: t.count("eval.users", result.num_users_evaluated),
    )


def warm_up(spec: ExperimentSpec) -> None:
    """One round plus an evaluation on a tiny dataset, so first-call costs
    (lazy imports, BLAS start-up, the first stacked cohort) are paid before
    anything is timed."""
    tiny = debug_dataset(RngFactory(0).spawn("perfbench-warmup"))
    adapter = create_trainer(spec.replace(rounds=1), tiny)
    adapter.fit()
    adapter.evaluate()


def outputs(history, final, summary) -> dict:
    """What a training run must reproduce exactly."""
    return {
        "history": history,
        "final": asdict(final),
        "communication": {
            "total_bytes": summary.total_bytes,
            "num_transfers": summary.num_transfers,
            "kb_per_client_round": summary.average_client_round_kilobytes,
        },
    }


def oracle_outputs(spec: ExperimentSpec, dataset) -> dict:
    """The reference: a serial-scheduler run through ``repro.run``."""
    result = repro.run(spec.replace(scheduler="serial"), dataset)
    history = [record.metrics for record in result.history]
    return outputs(history, result.final, result.communication)


def run_training(job: dict) -> dict:
    """Warm up, then build and run the workload ``instances`` times.

    The first build is the cold set-up; every instance's fixed work (its
    rounds plus the final evaluation) is one timed run.  The previous
    instance is released before the next is built, and the memory
    high-water mark restarts after each build, so a run's peak covers that
    run alone.
    """
    workload, seed = job["workload"], job["seed"]
    spec = training_spec(workload, seed)
    if job["mode"] == "oracle":
        return {"outputs": oracle_outputs(spec, gowalla_mini(seed))}

    start = time.perf_counter()
    warm_up(spec)
    warmup_s = time.perf_counter() - start
    runs, build_walls, setup_peak = [], [], None
    for instance in range(TRAINING[workload]["instances"]):
        start = time.perf_counter()
        adapter = create_trainer(spec, gowalla_mini(seed))
        build_walls.append(time.perf_counter() - start)
        if setup_peak is None:
            setup_peak = peak_rss_mb()
        reset_peak_rss()
        runs.append(train_once(adapter, job, instance))
        del adapter
    return {
        "import_s": IMPORT_S,
        "warmup_s": warmup_s,
        "build_s": build_walls[0],
        "setup_s": IMPORT_S + build_walls[0],
        "setup_peak_rss_mb": setup_peak,
        "runs": runs,
    }


def train_once(adapter, job: dict, instance: int) -> dict:
    system = adapter.system
    ops = {"attempted": 0, "engine_failed": 0}
    count_operations(system, ops)
    tracer = Tracer() if job["mode"] == "traced" else None
    if tracer is not None:
        trace_training(tracer, system)
    clock = RoundClock(tracer)

    run_span = tracer.begin("run") if tracer is not None else None
    start = time.perf_counter()
    adapter.fit(callbacks=[clock])
    final = adapter.evaluate()
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end(run_span)
        tracer.restore()
    peak = peak_rss_mb()

    summary = adapter.communication_summary()
    run = {
        "run_s": run_s,
        # Every selected client waits for its whole round, and rounds of
        # one run differ by design (churn), so a run's figure is the mean.
        "latency_ms": statistics.fmean(clock.walls) * 1000.0,
        "round_walls": clock.walls,
        "kb_per_client_round": summary.average_client_round_kilobytes,
        "peak_rss_mb": peak,
        "attempted": ops["attempted"],
        "failed": ops["engine_failed"],
        "outputs": outputs(clock.logs, final, summary),
    }
    if tracer is not None:
        run["trace"] = training_trace(tracer, run_span, clock, run_s, adapter.ledger)
        write_spans(tracer, job, instance)
    return run


def training_trace(tracer: Tracer, run_span, clock: RoundClock, run_s: float,
                   ledger) -> dict:
    """Layer figures for one traced run.

    ``clock_gap`` compares the traced frame with the run's own clocks:
    the run span against ``run_s`` and each round span against the round's
    wall time, as a share of ``run_s``.  It is large when a round span is
    lost or left open.
    """
    spans, logs = tracer.spans, clock.logs
    by_id = {span.id: span for span in spans}
    acc = account(spans, run_span.start, run_span.end, run_span.thread)
    layers = acc["layers"]
    propagations = [span for span in spans if span.name == "models.propagate"]
    in_dispersal = sum(under(span, "engine.dispersal", by_id) for span in propagations)
    dispersals = tracer.counts.get("dispersals", 0)
    steps = [span for span in spans if span.name == "optim.server_step"]
    transfers = {"upload": 0, "download": 0}
    for record in ledger.records:
        transfers[record.direction] += record.num_bytes

    rounds = [span.end - span.start for span in spans if span.name == "round"]
    gap = abs((run_span.end - run_span.start) - run_s)
    gap += sum(abs(a - b) for a, b in zip(rounds, clock.walls))
    if len(rounds) != len(clock.walls):
        gap = run_s

    def total(key):
        return sum(entry.get(key, 0) for entry in logs)

    metrics = {
        "engine.client_train_s": layers.get("engine.client_train", 0.0),
        "engine.upload_s": layers.get("engine.upload", 0.0),
        "engine.dispersal_s": layers.get("engine.dispersal", 0.0),
        "core.server_train_s": layers.get("core.server_train", 0.0),
        "core.records_up": total("uploaded_records"),
        "core.records_down": total("dispersed_records"),
        "models.propagations": len(propagations),
        "models.propagate_s": layers.get("models.propagate", 0.0),
        "models.propagations_per_dispersal": in_dispersal / dispersals if dispersals else 0.0,
        "optim.server_steps": len(steps),
        "optim.server_step_s": layers.get("optim.server_step", 0.0),
        "eval.evaluate_s": layers.get("eval.evaluate", 0.0),
        "eval.users": tracer.counts.get("eval.users", 0),
        "federated.upload_bytes": transfers["upload"],
        "federated.download_bytes": transfers["download"],
        "scenario.plan_s": layers.get("scenario.plan", 0.0),
        "scenario.dropped": total("dropped"),
        "scenario.straggled": total("straggled"),
        "scenario.stale_applied": total("stale_applied"),
        "unattributed_s": acc["unattributed_s"],
    }
    return {"metrics": metrics, "clock_gap": gap / run_s}


def write_spans(tracer: Tracer, job: dict, run: int) -> None:
    path = Path(job["out"]) / f"spans-{job['index']}-{run}.json"
    path.write_text(json.dumps(tracer.export()), encoding="utf-8")


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def serve_spec(seed: int) -> ExperimentSpec:
    return ExperimentSpec.from_flat(
        trainer="metamf", seed=seed, backend="numpy", rounds=2,
        embedding_dim=SERVE["dim"], client_fraction=SERVE["client_fraction"],
        client_local_epochs=2, local_learning_rate=0.05, scheduler="serial",
    )


def serve_dataset(seed: int):
    """The gowalla twin's item long tail and per-user activity, at serving size."""
    spec = replace(
        MINI_SPECS["gowalla-mini"], name="gowalla-serve", num_users=SERVE["num_users"],
        num_items=SERVE["num_items"], num_interactions=SERVE["num_interactions"],
    )
    return generate_dataset(spec, rng=RngFactory(seed).spawn("perfbench-serve-data"))


def build_checkpoints(seed: int, dataset, workdir: Path):
    """Train one MetaMF federation and checkpoint it after rounds 1 and 2."""
    adapter = create_trainer(serve_spec(seed), dataset)
    paths, save_walls = [], []
    for version in ("a", "b"):
        adapter.fit(rounds=1)
        path = workdir / f"ckpt-{version}"
        start = time.perf_counter()
        artifacts.save_checkpoint(path, adapter)
        save_walls.append(time.perf_counter() - start)
        paths.append(path)
    size = sum(entry.stat().st_size for entry in paths[0].iterdir())
    return paths, save_walls, size


def request_stream(dataset, seed: int, count: int, tag: int) -> np.ndarray:
    """User ids drawn in proportion to each user's training interactions:
    users who interact more ask for recommendations more."""
    activity = np.bincount(dataset.train_pairs[:, 0], minlength=dataset.num_users)
    rng = np.random.default_rng([seed, tag])
    return rng.choice(dataset.num_users, size=count, p=activity / activity.sum())


def closed_loop(gateway, users, swaps=None, version=0):
    """Drive ``len(users)`` requests with ``concurrency`` tickets in flight.

    One thread holds every ticket, reaps the oldest (ticks resolve in
    submission order) and submits the next request as each completes.
    ``swaps`` (paths, every) swaps the gateway to the other checkpoint
    version every ``every`` submissions, starting from the live ``version``
    (a swap still loading delays the next one).  Each request records the
    version it must see: the live one, or ``-1`` (either) when a swap was in
    flight at any time between its submission and its observed completion.
    """
    k = SERVE["k"]
    total = len(users)
    latencies = np.zeros(total)
    answers = [None] * total
    required = np.full(total, 0, dtype=np.int64)
    outstanding = deque()
    state = {"version": version, "pending": None, "issued": 0}
    swap_log = []
    submitted = 0

    def submit(index):
        required[index] = state["version"] if state["pending"] is None else -1
        outstanding.append(
            (index, state["issued"], time.perf_counter(), gateway.submit(int(users[index]), k=k))
        )

    started = time.perf_counter()
    while submitted < min(SERVE["concurrency"], total):
        submit(submitted)
        submitted += 1
    while outstanding:
        index, issued, sent, ticket = outstanding.popleft()
        try:
            answers[index] = ticket.result(timeout=60)
        except TimeoutError:
            answers[index] = Rejected("timeout")
        except Exception:  # a failed scoring group is a failed request
            answers[index] = Rejected("error")
        latencies[index] = time.perf_counter() - sent
        if state["issued"] > issued:
            required[index] = -1  # a swap was issued while this request was in flight
        pending = state["pending"]
        if pending is not None and pending[0].is_set():
            swap_log.append(time.perf_counter() - pending[1])
            state["version"], state["pending"] = pending[2], None
        if submitted < total:
            due = swaps is not None and submitted >= swaps[1] * (state["issued"] + 1)
            if due and state["pending"] is None:
                target = 1 - state["version"]
                state["pending"] = (
                    gateway.swap(swaps[0][target], block=False),
                    time.perf_counter(), target,
                )
                state["issued"] += 1
            submit(submitted)
            submitted += 1
    wall = time.perf_counter() - started
    pending = state["pending"]
    if pending is not None and pending[0].wait(60):
        swap_log.append(time.perf_counter() - pending[1])
        state["version"] = pending[2]
    return {"started": started, "wall": wall, "latencies": latencies, "answers": answers,
            "required": required, "swap_walls": swap_log, "issued": state["issued"],
            "version": state["version"]}


def run_serve(job: dict) -> dict:
    seed, mode = job["seed"], job["mode"]
    out = Path(job["out"])
    workdir = out / f"work-{job['index']}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if mode == "oracle":
            return serve_oracle(seed, workdir, out)
        return serve_worker(job, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def serve_oracle(seed: int, workdir: Path, out: Path) -> dict:
    paths, _, _ = build_checkpoints(seed, serve_dataset(seed), workdir)
    expected = []
    users = np.arange(SERVE["num_users"])
    for path in paths:
        service = Recommender.from_checkpoint(path, cache_size=0)
        expected.append(np.concatenate([
            service.recommend(chunk, k=SERVE["k"]) for chunk in np.array_split(users, 20)
        ]))
    np.savez(out / "expected.npz", a=expected[0], b=expected[1])
    distinct = float(np.mean(np.any(expected[0] != expected[1], axis=1)))
    return {"versions_distinct_share": distinct}


def serve_worker(job: dict, workdir: Path) -> dict:
    """Set up, then serve the fixed request stream ``windows`` times.

    Each window is one timed run and issues ``swaps`` hot swaps at even
    intervals, alternating between the two checkpoint versions.  The
    memory high-water mark restarts before each window.
    """
    seed = job["seed"]
    tracer = Tracer() if job["mode"] == "traced" else None
    if tracer is not None:
        tracer.wrap(Recommender, "recommend", "serve.score")
        tracer.wrap(artifacts, "load_checkpoint", "artifacts.load")

    start = time.perf_counter()
    dataset = serve_dataset(seed)
    paths, save_walls, ckpt_bytes = build_checkpoints(seed, dataset, workdir)
    gateway = ServingGateway.from_checkpoint(paths[0], **SERVE["gateway"])
    gateway.start()
    users = request_stream(dataset, seed, SERVE["requests"], tag=2)
    warmup = request_stream(dataset, seed, SERVE["warmup"], tag=1)
    swap_every = -(-len(users) // (SERVE["swaps"] + 1))
    windows, version = [], 0
    try:
        closed_loop(gateway, warmup)
        build_s = time.perf_counter() - start
        setup_peak = peak_rss_mb()
        for _ in range(SERVE["windows"]):
            gateway.reset_stats()
            reset_peak_rss()
            window = closed_loop(gateway, users, (paths, swap_every), version)
            window["peak_rss_mb"] = peak_rss_mb()
            window["stats"] = gateway.stats()
            version = window["version"]
            windows.append(window)
    finally:
        gateway.stop()
    if tracer is not None:
        tracer.restore()

    with np.load(Path(job["out"]) / "expected.npz") as payload:
        expected = (payload["a"], payload["b"])
    runs = []
    for window in windows:
        run = check_window(window, users, expected)
        run["save_walls"] = save_walls
        run["checkpoint_bytes"] = ckpt_bytes
        if tracer is not None:
            run["trace"] = serve_trace(tracer, window, run)
        runs.append(run)
    if tracer is not None:
        write_spans(tracer, job, 0)
    return {
        "import_s": IMPORT_S,
        "build_s": build_s,
        "setup_s": IMPORT_S + build_s,
        "setup_peak_rss_mb": setup_peak,
        "runs": runs,
    }


def check_window(window: dict, users: np.ndarray, expected) -> dict:
    """One window's figures; a shed, timed-out, errored or wrong answer is
    a failed request."""
    rejected = wrong = returned_bytes = 0
    for user, answer, version in zip(users, window["answers"], window["required"]):
        if isinstance(answer, Rejected):
            rejected += 1
            continue
        returned_bytes += answer.nbytes
        options = expected if version < 0 else (expected[version],)
        if not any(np.array_equal(answer, option[user]) for option in options):
            wrong += 1
    stats = window["stats"]
    lookups = stats.cache_hits + stats.cache_misses
    latencies = window["latencies"] * 1000.0
    return {
        "run_s": window["wall"],
        "latency_ms": float(np.percentile(latencies, 50)),
        "p99_ms": float(np.percentile(latencies, 99)),
        "qps": len(users) / window["wall"],
        "requests": len(users),
        "kb_per_client_round": returned_bytes / max(len(users) - rejected, 1) / 1024.0,
        "peak_rss_mb": window["peak_rss_mb"],
        "attempted": len(users),
        "failed": rejected + wrong,
        "rejected": rejected,
        "wrong": wrong,
        "swaps_issued": window["issued"],
        "swaps_applied": stats.swaps,
        "swap_walls": window["swap_walls"],
        "cache_hit_ratio": stats.cache_hits / lookups if lookups else 0.0,
        "mean_batch": stats.mean_batch,
        "shed": stats.shed_deadline + stats.shed_queue_full + stats.shed_shutdown,
    }


def serve_trace(tracer: Tracer, window: dict, run: dict) -> dict:
    """Layer figures for one serving window.

    Scoring runs on the gateway's dispatcher thread, which is the thread
    the window's time is accounted on; checkpoint loads run on the swap
    loader thread beside it.
    """
    lo, hi = window["started"], window["started"] + window["wall"]
    spans = [span for span in tracer.spans if span.end >= lo and span.start <= hi]
    scoring = [span for span in spans if span.name == "serve.score"]
    dispatcher = scoring[0].thread if scoring else threading.get_ident()
    acc = account(spans, lo, hi, dispatcher)
    loads = [span.end - span.start for span in spans if span.name == "artifacts.load"]
    metrics = {
        "serve.score_s": acc["layers"].get("serve.score", 0.0),
        "serve.cache_hit_ratio": run["cache_hit_ratio"],
        "serve.mean_batch": run["mean_batch"],
        "serve.shed": run["shed"],
        "serve.swap_s": statistics.median(run["swap_walls"]) if run["swap_walls"] else 0.0,
        "serve.p99_ms": run["p99_ms"],
        "artifacts.load_s": statistics.median(loads) if loads else 0.0,
        "artifacts.save_s": statistics.median(run["save_walls"]),
        "artifacts.bytes": run["checkpoint_bytes"],
        "unattributed_s": acc["unattributed_s"],
    }
    return {"metrics": metrics}


def main() -> None:
    job = json.loads(sys.argv[1])
    runner = run_serve if job["workload"] == "serve-swap" else run_training
    result = runner(job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
