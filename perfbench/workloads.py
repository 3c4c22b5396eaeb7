"""The four benchmark workloads.

Each workload builds its inputs from the run seed, repeats its unit of
work (one whole simulation, or one served job) until ``seconds`` have
passed, and checks outputs outside the timed window against the
sequential reference of the same code.  Sizes come from :data:`SIZES`:
``full`` is what the benchmark reports, ``tiny`` keeps the self-tests
fast.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import os
import shutil
import statistics
import tempfile
import threading
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: Per-size workload parameters.  ``focal_*`` drives seq_focal and
#: dist_focal (one problem), ``ens_*`` ensemble_dense, ``serve_*``
#: serve_miss.  The ``*_guard`` levels are the regime guards on the
#: final non-healthy fraction.
SIZES = {
    "full": dict(
        focal_dim=768, focal_steps=150, foi_jitter=24, focal_guard_max=0.01,
        panel=4, dist_checks=2,
        ens_config="medium_2d", ens_batch=16, ens_guard_min=0.2,
        serve_config="medium_2d", serve_steps=60, serve_min_jobs=100,
        serve_checks=3, min_runs=3,
    ),
    "tiny": dict(
        focal_dim=64, focal_steps=30, foi_jitter=4, focal_guard_max=0.05,
        panel=2, dist_checks=1,
        ens_config="small_2d", ens_batch=4, ens_guard_min=0.01,
        serve_config="small_2d", serve_steps=10, serve_min_jobs=4,
        serve_checks=2, min_runs=1,
    ),
}

#: Worker processes / client threads: one per usable core (``nproc``).
NPROC = len(os.sched_getaffinity(0))

#: Cold starts per serve_miss run; set-up time is their median.  Seeds
#: ``seed * 1e6 + 999000 + i`` never collide with the workload's jobs.
SERVE_SETUPS = 3


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    guard_failures: list = field(default_factory=list)
    #: Per unit of work: wall seconds of setup, of the work, and latency.
    setup_s: list = field(default_factory=list)
    work_s: list = field(default_factory=list)
    latency_s: list = field(default_factory=list)
    #: Engine steps and member-steps per unit of work.
    steps_per_unit: int = 0
    members: int = 1
    #: Serve: closed-loop wall seconds and completed jobs.
    loop_s: float = 0.0
    completed: int = 0
    peak_rss_mb: float = 0.0
    #: Inputs of the per-layer report.
    active_frac: list = field(default_factory=list)
    dist: dict = field(default_factory=dict)
    serve: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def _hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _reset_peak() -> None:
    """Restart this process's VmHWM, so that the next :func:`_peak_mb`
    covers only what ran after this call."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_mb() -> float:
    """Peak RSS of this process plus its live children (the dist workers)."""
    import multiprocessing as mp

    return _hwm_mb() + sum(_hwm_mb(c.pid) for c in mp.active_children())


def _series_array(series) -> np.ndarray:
    return np.array([dataclasses.astuple(series[i]) for i in range(len(series))])


def _snapshot(sim, member: int | None = None) -> dict:
    """Final series and every state field of a run (or ensemble member)."""
    from repro.core.state import VoxelBlock

    if member is None:
        series, gather = sim.series, sim.gather_field
    else:
        series = sim.member_series[member]
        gather = functools.partial(sim.gather_field, member=member)
    snap = {n: gather(n) for n in VoxelBlock.STATE_FIELDS}
    snap["series"] = _series_array(series)
    return snap


def _digest(snap: dict) -> str:
    """SHA-256 over a snapshot's names, dtypes, shapes and bytes: equal
    digests mean bitwise-equal snapshots, and a run keeps 32 bytes
    instead of the arrays while its window goes on."""
    h = hashlib.sha256()
    for name in sorted(snap):
        a = np.ascontiguousarray(snap[name])
        h.update(f"{name}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _nonhealthy(stats, voxels: int) -> float:
    return 1.0 - stats.healthy / voxels


def _repeat(seconds: float, min_runs: int, once, trace=None,
            multiple: int = 1) -> None:
    """The timed window: ``once()`` until ``seconds`` passed, at least
    ``min_runs`` ran, and the run count is a multiple of ``multiple``
    (whole passes over a problem panel).  Only calls inside it reach the
    layer trace."""
    start = perf_counter()
    runs = 0
    if trace is not None:
        trace.recording = True
    try:
        while (runs < min_runs or runs % multiple
               or perf_counter() - start < seconds):
            once()
            runs += 1
    finally:
        if trace is not None:
            trace.recording = False


# -- seq_focal / dist_focal ---------------------------------------------------


def focal_problem(seed: int, index: int, size: dict):
    """Focal problem ``index`` of the run's panel: one FOI on the centre
    row of a large grid, which is also the cut between the two dist
    ranks, so each rank holds half the infection.  ``(seed, index)``
    moves the site along that row (within ``foi_jitter`` voxels of the
    centre) and picks the model seed.  Returns ``(params, gids, seed)``.
    """
    from repro.core.params import SimCovParams

    n = size["focal_dim"]
    params = SimCovParams.fast_test(
        dim=(n, n), num_infections=1, num_steps=size["focal_steps"]
    )
    rng = np.random.default_rng([seed, index])
    model_seed = int(rng.integers(2**31))
    j = size["foi_jitter"]
    col = int(rng.integers(n // 2 - j, n // 2 + j + 1))
    return params, np.array([(n // 2) * n + col], dtype=np.int64), model_seed


def _focal_guard(out: Outcome, sim, name: str, limit: float) -> None:
    frac = _nonhealthy(sim.series[-1], sim.params.num_voxels)
    if frac >= limit:
        out.guard_failures.append(
            f"{name}: final non-healthy fraction {frac:.4f} >= {limit} "
            "(the infection must stay focal)"
        )


def _close(sim) -> None:
    """Release a simulation's workers and shared memory (dist only)."""
    close = getattr(sim, "close", None)
    if close is not None:
        close()


def _warm(make, steps: int = 3) -> None:
    """Untimed short run: lazy imports and first-call caches."""
    sim = make()
    try:
        sim.run(steps)
    finally:
        _close(sim)


def _focal_runs(name, seed, seconds, size, trace, make, after_run):
    """Time whole runs of the focal panel's problems, in turn, over
    whole passes of the panel so every window weighs each problem alike.

    ``make(problem)`` builds the simulation; ``after_run(out, k, sim)`` reads
    what it needs from the finished run of problem ``k``, outside the
    timing.  Returns ``(out, problems)``.
    """
    problems = [focal_problem(seed, k, size) for k in range(size["panel"])]
    steps = size["focal_steps"]
    out = Outcome(steps_per_unit=steps)
    _warm(lambda: make(problems[0]))

    def once():
        k = out.attempted % len(problems)
        out.attempted += 1
        sim = None
        try:
            _reset_peak()
            t0 = perf_counter()
            sim = make(problems[k])
            t1 = perf_counter()
            sim.run(steps)
            t2 = perf_counter()
            out.peak_rss_mb = max(out.peak_rss_mb, _peak_mb())
            out.setup_s.append(t1 - t0)
            out.work_s.append(t2 - t1)
            out.latency_s.append(t2 - t0)
            _focal_guard(out, sim, name, size["focal_guard_max"])
            after_run(out, k, sim)
        except Exception as err:
            out.fail(f"{name} run raised {err!r}")
        finally:
            _close(sim)

    _repeat(seconds, size["min_runs"], once, trace, multiple=len(problems))
    return out, problems


def _seq_make(problem):
    from repro.core.model import SequentialSimCov

    params, gids, model_seed = problem
    return SequentialSimCov(params, seed=model_seed, seed_gids=gids)


def seq_focal(seed: int, seconds: float, size: dict, trace=None) -> Outcome:
    first: list = []

    def after_run(out, k, sim):
        if k == 0 and not first:
            first.append(_digest(_snapshot(sim)))
        out.active_frac.extend(
            r["active_voxels"] / sim.params.num_voxels for r in sim.step_work
        )

    out, problems = _focal_runs(
        "seq_focal", seed, seconds, size, trace, _seq_make, after_run
    )
    # Determinism: problem 0 again, outside the window.
    if first:
        again = _seq_make(problems[0])
        again.run(size["focal_steps"])
        if _digest(_snapshot(again)) != first[0]:
            out.fail("seq_focal: a repeat of the same problem diverged")
    return out


def dist_focal(seed: int, seconds: float, size: dict, trace=None) -> Outcome:
    from repro.dist import DistSimCov

    checked: dict[int, str] = {}
    waits: dict[str, list] = {}
    busy_max, busy_mean, imbalance, pulled, skipped = [], [], [], [], []

    def make(problem):
        params, gids, model_seed = problem
        return DistSimCov(
            params, nranks=NPROC, seed=model_seed, seed_gids=gids
        )

    def after_run(out, k, sim):
        runtime = sim.backend.runtime
        for name, per_rank in runtime.per_rank_wait_seconds().items():
            waits.setdefault(name, []).append(max(per_rank))
        busy = _rank_busy(runtime)
        busy_max.append(max(busy))
        busy_mean.append(statistics.fmean(busy))
        imbalance.append(max(busy) / statistics.fmean(busy) - 1.0)
        p, s = runtime.strip_counts()
        pulled.append(p)
        skipped.append(s)
        out.active_frac.extend(
            sum(r["active_per_rank"]) / sim.params.num_voxels
            for r in sim.step_work
        )
        if k < size["dist_checks"] and k not in checked:
            checked[k] = _digest(_snapshot(sim))

    out, problems = _focal_runs(
        "dist_focal", seed, seconds, size, trace, make, after_run
    )
    # Sequential references, after the window so that neither their run
    # nor their data counts in the coordinator's peak RSS.
    for k, digest in sorted(checked.items()):
        ref = _seq_make(problems[k])
        ref.run(size["focal_steps"])
        if _digest(_snapshot(ref)) != digest:
            out.fail(f"dist_focal: problem {k} differs from the sequential run")
    out.dist = {
        "waits": {k: statistics.fmean(v) for k, v in waits.items()},
        "busy_max": _mean(busy_max),
        "busy_mean": _mean(busy_mean),
        "imbalance": _mean(imbalance),
        "pulled": _mean(pulled),
        "skipped": _mean(skipped),
    }
    return out


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _rank_busy(runtime) -> list[float]:
    """Per-rank busy seconds: phase time minus in-phase barrier waits."""
    waits = runtime.per_rank_wait_seconds()
    busy = []
    for rank, metrics in enumerate(runtime.per_rank_metrics()):
        in_phase = sum(waits[name][rank] for name in runtime.phase_names)
        busy.append(sum(metrics.seconds.values()) - in_phase)
    return busy


# -- ensemble_dense -----------------------------------------------------------


def ensemble_dense(seed: int, seconds: float, size: dict,
                   trace=None) -> Outcome:
    from repro.core.model import SequentialSimCov
    from repro.engine.ensemble import EnsembleSimCov
    from repro.experiments.configs import get_run_config

    config = get_run_config(size["ens_config"])
    params = config.params()
    batch = size["ens_batch"]
    seeds = seed * 1000 + np.arange(batch, dtype=np.int64)
    steps = config.steps
    out = Outcome(steps_per_unit=steps, members=batch)
    make = lambda: EnsembleSimCov(params, seeds=seeds)
    _warm(make)
    # Members checked against their solo runs after the window.
    picks = np.random.default_rng(seed).choice(batch, 2, replace=False)
    #: From the first run: series digest, checked member digests, and the
    #: lowest final non-healthy fraction over members.
    first: dict = {}
    voxels = params.num_voxels

    def once():
        out.attempted += 1
        try:
            _reset_peak()
            t0 = perf_counter()
            sim = make()
            t1 = perf_counter()
            sim.run(steps)
            t2 = perf_counter()
        except Exception as err:
            out.fail(f"ensemble_dense run raised {err!r}")
            return
        out.peak_rss_mb = max(out.peak_rss_mb, _peak_mb())
        out.setup_s.append(t1 - t0)
        out.work_s.append(t2 - t1)
        out.latency_s.append(t2 - t0)
        series = _digest(
            {str(b): _series_array(s) for b, s in enumerate(sim.member_series)}
        )
        if not first:
            first.update(
                series=series,
                members={int(b): _digest(_snapshot(sim, member=int(b)))
                         for b in picks},
                lowest=min(_nonhealthy(s[-1], voxels)
                           for s in sim.member_series),
            )
        elif series != first["series"]:
            out.fail("ensemble_dense: a repeat of the same seeds diverged")
        out.active_frac.extend(
            r["active_voxels"] / (voxels * batch) for r in sim.step_work
        )

    _repeat(seconds, size["min_runs"], once, trace)
    if first:
        lowest = first["lowest"]
        if lowest <= size["ens_guard_min"]:
            out.guard_failures.append(
                f"ensemble_dense: a member's final non-healthy fraction "
                f"{lowest:.3f} <= {size['ens_guard_min']} (must stay dense)"
            )
        for b, digest in first["members"].items():
            solo = SequentialSimCov(params, seed=int(seeds[b]))
            solo.run(steps)
            if _digest(_snapshot(solo)) != digest:
                out.fail(f"ensemble_dense: member {b} differs from its solo run")
    return out


# -- serve_miss ---------------------------------------------------------------


def serve_miss(seed: int, seconds: float, size: dict, trace=None) -> Outcome:
    import logging

    from repro.core.model import SequentialSimCov
    from repro.serve.jobs import JobSpec, stats_rows
    from repro.serve.server import BackgroundServer, ServeApp

    # Clients drop SSE sockets once a job is done; the loop logs that.
    logging.getLogger("asyncio").setLevel(logging.CRITICAL)
    steps = size["serve_steps"]
    out = Outcome(steps_per_unit=steps)
    root = tempfile.mkdtemp(prefix="serve_", dir=os.environ.get("TMPDIR"))
    try:
        for i in range(SERVE_SETUPS):
            spec = {
                "config": size["serve_config"], "steps": size["serve_steps"],
                "seed": seed * 1_000_000 + 999_000 + i, "client": "setup",
            }
            out.setup_s.append(
                _first_result(os.path.join(root, f"journal{i}"), spec)
            )
        _reset_peak()
        app = ServeApp(
            port=0, max_workers=NPROC, journal_dir=os.path.join(root, "serve")
        )
        server = BackgroundServer(app)
        server.__enter__()
        try:
            _serve_loop(app, seed, seconds, size, out, trace)
            metrics = dict(app.metrics)
        finally:
            server.__exit__(None, None, None)
        out.peak_rss_mb = _peak_mb()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out.serve["counts"] = metrics
    if metrics["cache_hits"] or metrics["coalesced"]:
        out.guard_failures.append(
            f"serve_miss: {metrics['cache_hits']} cache hits and "
            f"{metrics['coalesced']} joins (every job must be a miss)"
        )
    # Sampled results against in-process runs of the same spec.
    done = out.serve.pop("results")
    rng = np.random.default_rng(seed)
    for i in rng.choice(len(done), min(size["serve_checks"], len(done)),
                        replace=False):
        spec, rows = done[int(i)]
        params, nsteps = JobSpec.from_json(spec).resolve_params()
        sim = SequentialSimCov(params, seed=spec["seed"])
        sim.run(nsteps)
        if stats_rows(sim.series) != rows:
            out.fail(f"serve_miss: job seed {spec['seed']} differs from "
                     "an in-process run")
    return out


def _first_result(journal_dir: str, spec: dict) -> float:
    """Seconds from a cold start of a journaled server until a client
    holds its first result: the set-up a serving user waits through."""
    from repro.serve.client import ServeClient
    from repro.serve.server import BackgroundServer, ServeApp

    app = ServeApp(port=0, max_workers=NPROC, journal_dir=journal_dir)
    t0 = perf_counter()
    with BackgroundServer(app):
        client = ServeClient(port=app.port, timeout=120.0)
        job = client.submit(spec)["job"]
        for _ in client.iter_events(job["id"]):
            pass
        client.result(job["id"])
        return perf_counter() - t0


def _serve_loop(app, seed, seconds, size, out, trace) -> None:
    """Closed loop: NPROC client threads, each submit -> SSE done -> GET."""
    from repro.serve.client import ServeClient

    lock = threading.Lock()
    next_job = [0]
    results: list = []
    first_event: list = []
    tails: list = []
    min_jobs = size["serve_min_jobs"]
    start = perf_counter()
    last_done = [start]

    def more() -> bool:
        with lock:
            return (perf_counter() - start < seconds
                    or next_job[0] < min_jobs) and out.failed < 5

    def client_main(cid: int) -> None:
        client = ServeClient(port=app.port, timeout=120.0)
        while more():
            with lock:
                n = next_job[0]
                next_job[0] += 1
                out.attempted += 1
            spec = {
                "config": size["serve_config"], "steps": size["serve_steps"],
                "seed": seed * 1_000_000 + n, "client": f"bench-{cid}",
            }
            t0 = perf_counter()
            try:
                job = client.submit(spec)["job"]
                t_sub = perf_counter()
                t_first = None
                state = None
                for event, data in client.iter_events(job["id"]):
                    if t_first is None:
                        t_first = perf_counter()
                    if event == "done":
                        state = data["state"]
                if state != "done":
                    raise RuntimeError(f"job ended {state!r}")
                rows = client.result(job["id"])["result"]["rows"]
                t1 = perf_counter()
            except Exception as err:  # a failed job, never a dead client
                with lock:
                    out.fail(f"serve_miss job {n}: {err!r}")
                continue
            with lock:
                out.latency_s.append(t1 - t0)
                results.append((spec, rows))
                first_event.append(t_first - t_sub)
                last_done[0] = max(last_done[0], t1)
                if trace is not None:
                    stamps = trace.job_times.get(job["id"], {})
                    if "segment_out" in stamps:
                        tails.append(t1 - stamps["segment_out"])

    threads = [
        threading.Thread(target=client_main, args=(i,), name=f"bench-client-{i}")
        for i in range(NPROC)
    ]
    if trace is not None:
        trace.recording = True
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        if trace is not None:
            trace.recording = False
    out.loop_s = last_done[0] - start
    out.completed = len(results)
    out.serve.update(results=results, first_event=first_event, tails=tails)


WORKLOADS = {
    "seq_focal": seq_focal,
    "dist_focal": dist_focal,
    "ensemble_dense": ensemble_dense,
    "serve_miss": serve_miss,
}
