"""The repository's benchmark: the sweep, service and fleet paths, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Workloads (inputs are generated from ``--seed``; the program only sees the
generated specs and submission sequences):

``sweep-serial``
    Each iteration starts a fresh interpreter (``sweep_child.py``) that runs
    ``run_sweep(executor="serial")`` over {opt-6.7b, llama2-7b, llama3-8b} x
    {rtn, gptq, microscopiq} x W{4,2} plus {llava1.5-7b, resnet50, vmamba-s}
    x {rtn, microscopiq} x W4 against an empty cache, then re-runs it warm.
``serve-overlap``
    A ``repro-serve`` daemon (``--executor serial --max-sweeps 2``) whose cache
    is pre-warmed with microscopiq W{2,4} quant stages for {opt-6.7b,
    llama2-7b}. Two closed-loop ``ServeClient`` threads submit a seeded plan
    in lockstep rounds: hw grids (2 LM families x 4 systolic archs x one
    prefill) and codesign grids (pre-warmed settings x {microscopiq-v1,
    microscopiq-v2} x one n_recon). Concurrent submissions share their last
    cells, so the scheduler's in-flight dedup is exercised; later rounds
    reuse cached cells. Every pass of the plan repeats the same structure on
    a new prefill, so its counters must repeat exactly, and they are checked.
    After each pass, the whole pass is re-submitted as one warm sweep, a few
    times.
``dist-hw``
    A ``repro-dist`` coordinator and two workers on loopback; hw sweeps (the
    6 LM families x the 7 systolic archs x a new prefill each) run with
    ``executor="remote"``, each followed by warm re-runs that the
    coordinator answers without running a job again. Latencies move in steps
    of the remote executor's 0.1 s collect poll; 42-job sweeps keep one step
    a small share of a sweep's latency.

End-to-end metrics (``--trace 0``): ``setup_s`` (spawn until the program is
ready, median of several set-ups), ``jobs_per_s`` (benchmark clock, the
median round: a sweep-serial iteration, a serve pass or a dist sweep),
``result_latency_p50_s`` / ``result_latency_tail_s`` (per sweep, from submit
to the result in hand; the tail is the highest percentile with ten samples
beyond it, or the maximum below eleven samples), ``warm_sweep_s`` (a fully
cached re-run; the fastest of its repeats, see ``end_to_end``) and
``peak_rss_mb`` (the largest program process).

Outputs are checked on every run: each job must be ok with finite metrics,
cached replays must equal the first results, and the served and remote
results must equal an in-process serial run of the same job hashes (every job
of the first and the last serve pass and dist sweep; the other passes and
sweeps repeat them on another prefill). Failed checks, failed or refused
requests and failed sweeps are reported as ``failed`` out of ``attempted``;
the run goes on after them.

``--trace 1`` runs the workload untraced for half the time and then traced
(``layers.install`` in every program process, the program's own spans on) and
prints the per-layer metrics. The full report of every run, with the
environment fingerprint and a host-speed probe at its start and end
(``common.host_probe``), is the line before the result; traced runs also
write it to ``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from common import (
    HERE,
    HW_LM_FAMILIES,
    OUT,
    ROOT,
    SYSTOLIC_ARCHS,
    TOY_SHAPE,
    all_finite,
    as_json,
    environment,
    host_probe,
    median,
    run_perf_helpers,
    tail,
    use_source_tree,
)

#: Set-ups measured per run; the median is reported.
SETUP_REPEATS = 5
#: Seconds of ``--seconds`` per round of each workload; a run makes
#: ``--seconds // ROUND_S`` rounds, at least one. On a 2-CPU host a round
#: takes about: a sweep-serial iteration 13-18 s (10-15 s cold, 3 s warm), a
#: serve pass 2.5-3.5 s and a dist sweep with its warm re-runs 1 s. The
#: serve rounds are the shortest for their share, so its run is the longest
#: and most of its figures are medians over ten passes. A fixed count, not a
#: deadline, keeps the sample counts, and with them the latency percentiles
#: and the daemons' peak RSS, the same from run to run.
ROUND_S = {"sweep-serial": 10.0, "serve-overlap": 2.0, "dist-hw": 0.85}
#: Program counters a serve pass must reproduce exactly.
PASS_COUNTERS = (
    "result_cache.puts",
    "result_cache.hits",
    "pipeline.jobs_computed",
    "pipeline.quant_stage_hits",
    "pipeline.hw_stage_hits",
    "pipeline.inflight_dedup",
)
CODESIGN_ARCHS = ("microscopiq-v1", "microscopiq-v2")
PREWARM_SETTINGS = (("opt-6.7b", 2), ("opt-6.7b", 4), ("llama2-7b", 2), ("llama2-7b", 4))
#: Warm re-runs of each serve pass and each dist sweep: enough that the
#: fastest (``end_to_end``) meets the fast mode of a noisy host.
WARM_REPEATS = 6
#: What a failed or refused request raises (``ServeError``, ``URLError``, a
#: remote sweep's ``TimeoutError``, a malformed reply); each counts as a
#: failed check instead of ending the run.
REQUEST_ERRORS = (RuntimeError, OSError, ValueError)


def rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_S[workload]))


class Phase:
    """What one timed phase of a workload measured."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.jobs = 0
        self.rates: List[float] = []  # jobs per benchmark-clock second, per round
        self.latency_s: List[float] = []
        self.warm_s: List[float] = []
        self.checks = 0
        self.failed = 0
        self.counters: Dict[str, float] = {}
        self.spans: Dict[str, Any] = {}
        self.notes: Dict[str, Any] = {}

    def check(self, ok: bool) -> None:
        self.checks += 1
        self.failed += not ok

    def add_counters(self, delta: Dict[str, float]) -> None:
        for name, value in delta.items():
            self.counters[name] = self.counters.get(name, 0.0) + value

    def add_round(self, jobs: int, seconds: float) -> None:
        self.jobs += jobs
        self.rates.append(jobs / seconds)

    @property
    def jobs_per_s(self) -> float:
        """The median round's throughput: a stall on a shared host slows a
        few rounds, not the figure."""
        return median(self.rates) if self.rates else 0.0


# ------------------------------------------------------------------ processes


class Workdir:
    """A run's scratch directory and the daemons started in it."""

    def __init__(self, workload: str) -> None:
        OUT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
        self.daemons: List[Daemon] = []

    def spawn(self, role: str, argv: List[str], traced: bool) -> "Daemon":
        daemon = Daemon(self.path, f"{role}-{len(self.daemons)}", role, argv, traced)
        self.daemons.append(daemon)
        return daemon

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.stop()
        shutil.rmtree(self.path, ignore_errors=True)


class Daemon:
    """One program daemon started through ``launch.py``, output in a log."""

    def __init__(self, workdir: Path, tag: str, role: str, argv: List[str], traced: bool):
        self.tag = tag
        self.log = workdir / f"{self.tag}.log"
        self.dump = workdir / f"{self.tag}.json"
        cmd = [sys.executable, "-u", str(HERE / "launch.py"), "--dump", str(self.dump)]
        if traced:
            cmd.append("--trace")
        cmd += [role, "--", *argv]
        self._out = open(self.log, "w")
        self.spawned = time.time()
        self.proc = subprocess.Popen(cmd, stdout=self._out, stderr=subprocess.STDOUT, cwd=ROOT)

    def wait_for(self, pattern: str, timeout: float = 60.0) -> re.Match:
        """Block until the daemon's output matches ``pattern``."""
        deadline = time.monotonic() + timeout
        while True:
            match = re.search(pattern, self.log.read_text())
            if match:
                return match
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"{self.tag} did not start:\n{self.log.read_text()[-2000:]}")
            time.sleep(0.002)

    def stop(self) -> Dict[str, float]:
        """SIGTERM, wait, and return the process's final METRICS snapshot."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if not self._out.closed:
            self._out.close()
        try:
            return json.loads(self.dump.read_text())
        except (OSError, ValueError):
            return {}


def wait_healthy(url: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
                if resp.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError):
            if time.monotonic() > deadline:
                raise
        time.sleep(0.002)


def text_metrics(url: str) -> Dict[str, float]:
    """A daemon's ``/metrics`` text as a dict."""
    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        rows = (line.split() for line in resp.read().decode().splitlines())
        return {row[0]: float(row[1]) for row in rows if len(row) == 2}


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


def check_outcomes(phase: Phase, sweeps: List[Any], served: Dict[str, Any],
                   reference: Dict[str, Any]) -> None:
    """Every job of ``sweeps`` served ok and finite, and equal to the
    in-process serial result."""
    for job_hash in {job.job_hash for sweep in sweeps for job in sweep.jobs()}:
        metrics = served.get(job_hash)
        ok = metrics is not None and all_finite(metrics)
        phase.check(ok and metrics == reference.get(job_hash))


def union_sweep(sweeps: List[Any]):
    """One sweep over every distinct job of ``sweeps`` (same seed)."""
    from repro.pipeline.spec import SweepSpec

    specs, seen = [], set()
    for sweep in sweeps:
        for job in sweep.jobs():
            if job.job_hash not in seen:
                seen.add(job.job_hash)
                specs.append(job.spec)
    return SweepSpec.from_specs(specs, seed=sweeps[0].seed)


def serial_reference(sweeps: List[Any]) -> Dict[str, Any]:
    """Metrics of every job in ``sweeps`` from an in-process serial run."""
    from repro.pipeline.runner import run_sweep

    result = run_sweep(union_sweep(sweeps), cache_dir=None, executor="serial", trace=False)
    return as_json(result.metrics_by_hash())


# ------------------------------------------------------------ sweep workloads


def sweep_serial(work: Workdir, seed: int, seconds: float, traced: bool, toy: bool) -> Phase:
    phase = Phase()
    child = [sys.executable, str(HERE / "sweep_child.py")]
    for _ in range(SETUP_REPEATS):
        spawned = time.time()
        out = subprocess.run(child + ["--setup-only"], capture_output=True, text=True,
                             cwd=ROOT, timeout=120, check=True)
        phase.setup_s.append(json.loads(out.stdout.splitlines()[-1])["ready_at"] - spawned)
    for _ in range(rounds("sweep-serial", seconds)):
        cache = tempfile.mkdtemp(prefix="cache-", dir=work.path)
        argv = ["--seed", str(seed), "--cache-dir", cache, "--trace", str(int(traced))]
        spawned = time.time()
        try:
            out = subprocess.run(child + argv + (["--toy"] if toy else []), capture_output=True,
                                 text=True, cwd=ROOT, timeout=170)
            data = json.loads(out.stdout.splitlines()[-1]) if out.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            data = None
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if data is None:  # a failed sweep counts against error_rate
            phase.check(False)
            continue
        phase.setup_s.append(data["ready_at"] - spawned)
        phase.add_round(data["jobs"], data["cold_s"])
        phase.latency_s.append(data["cold_s"])
        phase.warm_s += data["warm_s"]
        phase.checks += data["checks"]
        phase.failed += data["failed"]
        phase.add_counters(data["counters"])
        if data["spans"]:
            phase.spans = data["spans"]
    return phase


# ------------------------------------------------------------- serve-overlap


def _hw_sweep(families, archs, prefill, seed):
    """An hw grid with its cells in arch-major order (shared archs last)."""
    from repro.pipeline.spec import SweepSpec

    specs = [
        spec
        for arch in archs
        for family in families
        for spec in SweepSpec(families=(family,), methods=(), archs=(arch,),
                              prefills=(prefill,), kind="hw", seed=seed).specs()
    ]
    return SweepSpec.from_specs(specs, seed=seed)


def _codesign_sweep(settings, n_recon, prefill, seed, shape):
    from repro.pipeline.spec import SweepSpec

    specs = [
        spec
        for family, bits in settings
        for arch in CODESIGN_ARCHS
        for spec in SweepSpec(families=(family,), methods=("microscopiq",), w_bits=(bits,),
                              archs=(arch,), n_recons=(n_recon,), prefills=(prefill,),
                              kind="codesign", seed=seed, **shape).specs()
    ]
    return SweepSpec.from_specs(specs, seed=seed)


def serve_plan(seed: int, prefill: int, shape: Dict[str, int]):
    """One pass: six rounds of (client A sweep, client B sweep).

    The structure is fixed and the seed only permutes families, archs and
    settings, so every pass and every seed does the same amount of work.
    In each round the two concurrent sweeps share their last cells; the
    cells before those are new to one client only, which gives the second
    submission time to attach to the first one's claims.
    """
    rng = random.Random(seed)
    f = rng.sample(HW_LM_FAMILIES, len(HW_LM_FAMILIES))
    a = rng.sample(SYSTOLIC_ARCHS, len(SYSTOLIC_ARCHS))
    s = rng.sample(PREWARM_SETTINGS, len(PREWARM_SETTINGS))
    left, right = (a[0], a[1], a[2], a[3]), (a[4], a[5], a[6], a[3])

    def hw(families, archs):
        return _hw_sweep(families, archs, prefill, seed)

    def cd(settings, n_recon):
        return _codesign_sweep(settings, n_recon, prefill, seed, shape)

    return [
        (hw((f[0], f[1]), left), hw((f[0], f[1]), right)),
        (hw((f[2], f[3]), left), hw((f[2], f[3]), right)),
        (cd((s[0], s[1], s[2]), 1), cd((s[3], s[2]), 1)),
        (hw((f[0], f[4]), left), hw((f[1], f[4]), right)),
        (hw((f[2], f[5]), left), hw((f[3], f[5]), right)),
        (cd((s[2], s[3], s[1]), 2), cd((s[0], s[1]), 2)),
    ]


def _submit(client, sweep) -> Optional[Dict[str, Any]]:
    """Submit, wait and fetch the result; ``None`` if a request failed."""
    try:
        sweep_id = client.submit(sweep)["sweep_id"]
        for _ in client.events(sweep_id):
            pass
        return client.result(sweep_id)
    except REQUEST_ERRORS:
        return None


def _served_metrics(phase: Phase, result: Optional[Dict[str, Any]],
                    cached: bool = False) -> Dict[str, Any]:
    """A submission's metrics by job hash; the submission is one check."""
    phase.check(result is not None and result.get("state") == "done")
    records = (result or {}).get("records", [])
    if cached:
        phase.check(all(r.get("from_cache") for r in records))
    return {r["hash"]: r.get("metrics") if r.get("error") is None else None for r in records}


def serve_overlap(work: Workdir, seed: int, seconds: float, traced: bool, toy: bool) -> Phase:
    from repro.obs.metrics import METRICS
    from repro.pipeline.spec import SweepSpec
    from repro.serve.client import ServeClient

    phase = Phase()
    shape = TOY_SHAPE if toy else {}
    cache = tempfile.mkdtemp(prefix="serve-", dir=work.path)
    argv = ["--cache-dir", cache, "--port", "0", "--executor", "serial", "--max-sweeps", "2"]
    if traced:
        argv.append("--trace")
    for attempt in range(SETUP_REPEATS):
        daemon = work.spawn("serve", argv, traced)
        url = daemon.wait_for(r"listening on (http://\S+)").group(1)
        wait_healthy(url)
        phase.setup_s.append(time.time() - daemon.spawned)
        if attempt < SETUP_REPEATS - 1:
            daemon.stop()
    try:
        clients = (ServeClient(url), ServeClient(url))
        prewarm = SweepSpec(families=("opt-6.7b", "llama2-7b"), methods=("microscopiq",),
                            w_bits=(2, 4), seed=seed, **shape)
        prewarmed = _served_metrics(phase, _submit(clients[0], prewarm))
        phase.check(all(m is not None and all_finite(m) for m in prewarmed.values()))

        passes: List[tuple] = []  # (sweeps, served metrics by job hash)
        run_ids: List[str] = []
        pass_counts: List[Dict[str, float]] = []
        errors: List[BaseException] = []
        base = random.Random(seed).randrange(64, 80)
        daemon_before = clients[0].metrics()["counters"]
        local_before = METRICS.snapshot()
        for index in range(rounds("serve-overlap", seconds)):
            plan = serve_plan(seed, base + index, shape)
            barrier = threading.Barrier(2)
            results: List[List[Any]] = [[], []]

            def client_loop(side: int) -> None:
                try:
                    for pair in plan:
                        barrier.wait()
                        t0 = time.perf_counter()
                        result = _submit(clients[side], pair[side])
                        results[side].append((time.perf_counter() - t0, result))
                except BaseException as exc:  # not a request failure: a fault, raised below
                    errors.append(exc)
                    barrier.abort()

            before = clients[0].metrics()["counters"]
            threads = [threading.Thread(target=client_loop, args=(side,)) for side in (0, 1)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            pass_s = time.perf_counter() - t0
            if errors:
                raise errors[0]
            after = clients[0].metrics()["counters"]
            pass_counts.append({k: after.get(k, 0) - before.get(k, 0) for k in PASS_COUNTERS})
            pass_served: Dict[str, Any] = {}
            pass_jobs = 0
            for side in (0, 1):
                for latency, result in results[side]:
                    served = _served_metrics(phase, result)
                    if result is None:  # failed, so no latency and no jobs
                        continue
                    phase.latency_s.append(latency)
                    pass_jobs += len(served)
                    pass_served.update(served)
                    run_ids.append(result.get("telemetry", {}).get("run_id", ""))
            phase.add_round(pass_jobs, pass_s)
            pass_sweeps = [pair[side] for pair in plan for side in (0, 1)]
            passes.append((pass_sweeps, pass_served))
            # The whole pass again as one fully cached submission, a few times.
            for _ in range(WARM_REPEATS):
                t0 = time.perf_counter()
                warm = _submit(clients[0], union_sweep(pass_sweeps))
                if warm is not None:
                    phase.warm_s.append(time.perf_counter() - t0)
                phase.check(_served_metrics(phase, warm, cached=True) == pass_served)
        phase.add_counters(delta(clients[0].metrics()["counters"], daemon_before))
        phase.add_counters(delta(METRICS.snapshot(), local_before))
        for counts in pass_counts:
            phase.check(counts == pass_counts[0])
        phase.notes["pass_counters"] = pass_counts[0]
        phase.notes["passes"] = len(pass_counts)
        if traced:
            phase.spans = _ledger_spans(clients[0], run_ids)
    finally:
        daemon.stop()
    # Passes differ only in their prefill: the first and the last one are
    # checked against the serial reference job by job.
    checked = passes[:1] + passes[1:][-1:]
    reference = serial_reference([sweep for sweeps, _ in checked for sweep in sweeps])
    for sweeps, served in checked:
        check_outcomes(phase, sweeps, served, reference)
    shutil.rmtree(cache, ignore_errors=True)
    return phase


def _ledger_spans(client, run_ids: List[str]) -> Dict[str, Any]:
    """Span totals of the traced submissions, from the daemon's run ledger."""
    _, by_name = run_perf_helpers()
    trees = [client.run(run_id).get("spans") for run_id in run_ids if run_id]
    root = {"name": "bench:serve", "seconds": 0.0, "children": [t for t in trees if t]}
    return by_name(root)


# ------------------------------------------------------------------- dist-hw


def dist_sweep(seed: int, index: int, toy: bool):
    """The ``index``-th sweep: the LM families x the 7 systolic archs on a
    new prefill, in a seeded order."""
    from repro.pipeline.spec import SweepSpec

    rng = random.Random(seed)
    families = rng.sample(HW_LM_FAMILIES, 2 if toy else len(HW_LM_FAMILIES))
    archs = rng.sample(SYSTOLIC_ARCHS, 3 if toy else len(SYSTOLIC_ARCHS))
    return SweepSpec(families=tuple(families), methods=(), archs=tuple(archs),
                     prefills=(rng.randrange(64, 80) + index,), kind="hw", seed=seed)


def dist_hw(work: Workdir, seed: int, seconds: float, traced: bool, toy: bool) -> Phase:
    from repro.dist.remote import DIST_URL_ENV
    from repro.obs.metrics import METRICS
    from repro.pipeline.runner import run_sweep

    phase = Phase()
    fleet: List[Daemon] = []
    for attempt in range(SETUP_REPEATS):
        cache = tempfile.mkdtemp(prefix="coordinator-", dir=work.path)
        coordinator = work.spawn("coordinator", ["--cache-dir", cache, "--port", "0"], traced)
        fleet = [coordinator]
        url = coordinator.wait_for(r"coordinator on (http://\S+)").group(1)
        wait_healthy(url)
        fleet += [work.spawn("worker", ["--coordinator", url, "--quiet"], traced) for _ in range(2)]
        for worker in fleet[1:]:
            worker.wait_for(r"pulling from")
        phase.setup_s.append(time.time() - coordinator.spawned)
        if attempt < SETUP_REPEATS - 1:
            for daemon in fleet:
                daemon.stop()
    os.environ[DIST_URL_ENV] = url
    served: List[Dict[str, Any]] = []
    sweeps: List[Any] = []
    outcome_spans: List[Dict[str, Any]] = []
    try:
        coordinator_before = text_metrics(url)
        local_before = METRICS.snapshot()
        for index in range(rounds("dist-hw", seconds)):
            sweep = dist_sweep(seed, index, toy)
            sweeps.append(sweep)
            t0 = time.perf_counter()
            try:
                result = run_sweep(sweep, executor="remote", cache_dir=None, trace=traced)
            except REQUEST_ERRORS:  # a failed remote sweep counts against error_rate
                phase.check(False)
                served.append({})
                continue
            latency = time.perf_counter() - t0
            phase.add_round(len(result.outcomes), latency)
            phase.latency_s.append(latency)
            fresh = as_json(result.metrics_by_hash())
            served.append(fresh)
            phase.check(result.ok and not any(o.from_cache for o in result.outcomes))
            outcome_spans += [o.spans for o in result.outcomes if o.spans]
            for _ in range(WARM_REPEATS):
                t0 = time.perf_counter()
                try:
                    warm = run_sweep(sweep, executor="remote", cache_dir=None, trace=traced)
                except REQUEST_ERRORS:
                    phase.check(False)
                    continue
                phase.warm_s.append(time.perf_counter() - t0)
                phase.check(warm.ok and as_json(warm.metrics_by_hash()) == fresh)
        coordinator = delta(text_metrics(url), coordinator_before)
        # The coordinator answers the warm re-runs from its task table: no
        # job may run twice.
        phase.check(coordinator.get("dist.coordinator.tasks_completed") == phase.jobs)
        phase.add_counters(coordinator)
        phase.add_counters(delta(METRICS.snapshot(), local_before))
    finally:
        for worker in fleet[1:]:
            # Worker-side counters, wire time included, from the exit dumps.
            dump = worker.stop()
            if traced:
                phase.add_counters(dump)
        fleet[0].stop()
    if traced:
        _, by_name = run_perf_helpers()
        phase.spans = by_name({"name": "bench:dist", "seconds": 0.0, "children": outcome_spans})
    # The first and the last sweep are checked against the serial reference
    # job by job; the others repeat them on another prefill.
    picked = sorted({0, len(sweeps) - 1})
    reference = serial_reference([sweeps[i] for i in picked])
    for i in picked:
        check_outcomes(phase, [sweeps[i]], served[i], reference)
    return phase


WORKLOADS: Dict[str, Callable[..., Phase]] = {
    "sweep-serial": sweep_serial,
    "serve-overlap": serve_overlap,
    "dist-hw": dist_hw,
}


# ------------------------------------------------------------------- metrics


def end_to_end(phase: Phase, peak_rss_mb: float) -> Dict[str, tuple]:
    # A run whose every sweep failed has no samples; it reports 0 beside its
    # failed checks.
    p_tail, pct = tail(phase.latency_s) if phase.latency_s else (0.0, 100.0)
    phase.notes["tail_percentile"] = pct
    return {
        "setup_s": (median(phase.setup_s), "s"),
        "jobs_per_s": (phase.jobs_per_s, "1/s"),
        "result_latency_p50_s": (median(phase.latency_s or [0.0]), "s"),
        "result_latency_tail_s": (p_tail, "s"),
        # The fastest warm re-run, as timeit reports: they take milliseconds,
        # and on a shared host the same code switches between a fast and a
        # slow mode (6.5 and 11.5 ms for the sweep-serial warm sweep on a
        # 2-CPU host) within seconds, a pure-Python loop timed beside it
        # slowing in step. The share of slow samples differs from run to run
        # and a median follows it: over ten sweep-serial runs the median
        # spread 0.37 of itself, the 10th percentile 0.12, the minimum 0.05.
        "warm_sweep_s": (min(phase.warm_s or [0.0]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(traced: Phase, untraced: Phase) -> Dict[str, tuple]:
    c = traced.counters

    def g(name: str) -> float:
        return float(c.get(name, 0.0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hessian_hits = g("hessian.store.hits") + g("hessian.store.disk_hits")
    sim_s, sim_calls = g("bench.hw.simulate.self_s"), g("bench.hw.simulate.calls")
    return {
        "eval.corpus_s": (g("bench.eval.corpus.self_s"), "s"),
        "eval.corpus_calls": (g("bench.eval.corpus.calls"), "count"),
        "models.build_s": (g("bench.models.build.self_s"), "s"),
        "models.build_calls": (g("bench.models.build.calls"), "count"),
        "eval.evaluate_s": (g("bench.eval.evaluate.self_s"), "s"),
        "quant.engine_s": (g("bench.quant.engine.self_s"), "s"),
        "quant.kernel_s": (g("bench.quant.kernel.self_s"), "s"),
        "quant.kernel_calls": (g("bench.quant.kernel.calls"), "count"),
        "engine.layer_batches": (g("engine.layer_batches"), "count"),
        "methods.hessian_s": (g("bench.methods.hessian.self_s"), "s"),
        "hessian.store.factorizations": (g("hessian.store.factorizations"), "count"),
        "hessian.store.hit_ratio": (
            ratio(hessian_hits, hessian_hits + g("hessian.store.misses")), "ratio"),
        "hw.simulate_s": (sim_s, "s"),
        "hw.simulate_calls": (sim_calls, "count"),
        "hw.s_per_simulate": (ratio(sim_s, sim_calls), "s"),
        "cache.read_s": (g("bench.cache.read.self_s"), "s"),
        "cache.write_s": (g("bench.cache.write.self_s"), "s"),
        "result_cache.hits": (g("result_cache.hits"), "count"),
        "result_cache.puts": (g("result_cache.puts"), "count"),
        "cache.hit_ratio": (
            ratio(g("result_cache.hits"), g("result_cache.hits") + g("result_cache.misses")),
            "ratio"),
        "pipeline.overhead_s": (g("bench.pipeline.s") - g("bench.executor.s"), "s"),
        "pipeline.jobs_computed": (g("pipeline.jobs_computed"), "count"),
        "pipeline.quant_stage_hits": (g("pipeline.quant_stage_hits"), "count"),
        "pipeline.hw_stage_hits": (g("pipeline.hw_stage_hits"), "count"),
        "pipeline.inflight_dedup": (g("pipeline.inflight_dedup"), "count"),
        "executor.idle_s": (g("bench.executor.capacity_s") - g("bench.executor.busy_s"), "s"),
        "serve.submit_s": (g("bench.serve.submit.s"), "s"),
        "serve.wait_s": (g("bench.serve.wait.s"), "s"),
        "serve.result_s": (g("bench.serve.result.s"), "s"),
        "dist.overhead_s": (g("bench.dist.wire.s"), "s"),
        "dist.coordinator.tasks_completed": (g("dist.coordinator.tasks_completed"), "count"),
        "dist.coordinator.cache_hits": (g("dist.coordinator.cache_hits"), "count"),
        "dist.coordinator.dedup_hits": (g("dist.coordinator.dedup_hits"), "count"),
        "dist.coordinator.leases_expired": (g("dist.coordinator.leases_expired"), "count"),
        "obs.trace_overhead_ratio": (ratio(traced.jobs_per_s, untraced.jobs_per_s), "ratio"),
        "unattributed_ratio": (ratio(g("bench.job.self_s"), g("bench.job.s")), "ratio"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> Dict[str, Any]:
    """Run one workload; returns the result object and the full report."""
    use_source_tree()
    probes = [host_probe()]
    work = Workdir(workload)
    run = WORKLOADS[workload]
    try:
        if trace:
            untraced = run(work, seed, seconds / 2, False, toy)
            import layers

            layers.install(fleet=2)
            traced = run(work, seed, seconds / 2, True, toy)
            phases = [untraced, traced]
            metrics = per_layer(traced, untraced)
        else:
            phases = [run(work, seed, seconds, False, toy)]
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics = end_to_end(phases[0], peak_kb / 1024.0)
    finally:
        work.close()
    attempted = sum(p.checks for p in phases)
    failed = sum(p.failed for p in phases)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "host_probe_s": probes + [host_probe()],
        "error_rate": failed / attempted if attempted else 0.0,
        "samples": {
            "setup": len(phases[-1].setup_s),
            "jobs": phases[-1].jobs,
            "latency": len(phases[-1].latency_s),
            "warm": len(phases[-1].warm_s),
        },
        "notes": phases[-1].notes,
    }
    if trace:
        report["counters"] = phases[-1].counters
        report["spans"] = phases[-1].spans
        report["metrics"] = {k: v for k, (v, _) in metrics.items()}
        path = OUT / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"result": result, "report": report}


def smoke() -> int:
    """Every workload at toy size, traced and untraced; every printed metric
    must be declared in BENCHMARK.json with the same unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = measure(workload, seed=1, seconds=1.0, trace=bool(trace), toy=True)["result"]
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != units[trace]:
                problems.append(
                    f"{workload} trace={trace}: printed {printed}, declared {units[trace]}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed checks")
            print(f"smoke {workload} trace={trace}: {result['attempted']} checks, "
                  f"{result['failed']} failed", flush=True)
    for problem in problems:
        print("smoke FAILED:", problem)
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the metric names")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace), toy=False)
    print(json.dumps(out["report"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
