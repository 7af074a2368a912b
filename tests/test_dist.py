"""Multi-host work-stealing execution: coordinator, workers, remote executor.

The load-bearing properties, mirroring the serve-stack tests one level up:

* the wire format is identity-preserving — a decoded task re-derives the
  submitter's job hash, which is the whole bit-identity argument;
* the coordinator's queue is a fleet-wide in-flight book: duplicate
  submissions attach, cached jobs resolve without queueing, leases expire
  back into the queue so a killed worker loses at most its in-flight task;
* epochs fence restarts — a push from before a coordinator restart is
  rejected (410), never silently absorbed into the new queue;
* ``--executor remote`` through real worker subprocesses is bit-identical
  to serial, with fleet-wide Hessian work coalesced (zero duplicate
  factorizations across hosts, asserted via merged counters);
* the run ledger (schema 2) attributes computed jobs to fleet workers.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path

import pytest

import repro
from repro.dist import (
    Coordinator,
    CoordinatorClient,
    DistWorker,
    decode_outcome,
    decode_task,
    encode_outcome,
    encode_task,
    start_in_thread,
    task_key,
)
from repro.dist.cli import main as dist_cli_main
from repro.dist.remote import DIST_URL_ENV, run_remote
from repro.obs import METRICS, RunLedger
from repro.obs.ledger import validate_record
from repro.pipeline import SweepSpec, run_sweep
from repro.pipeline.cache import ResultCache
from repro.pipeline.executor import JobOutcome
from repro.pipeline.runner import execute_job
from repro.serve.client import ServeClient, ServeError
from tests.conftest import send_with_length

SMALL = dict(eval_sequences=6, eval_seq_len=16)


def small_spec(**overrides) -> SweepSpec:
    kw = dict(families=("opt-6.7b",), methods=("rtn",), w_bits=(4,), **SMALL)
    kw.update(overrides)
    return SweepSpec(**kw)


def entry(job, traced: bool = False) -> dict:
    return {"key": task_key(job), "task": encode_task(job), "traced": traced}


@pytest.fixture(autouse=True)
def _no_ambient_dist_env(monkeypatch):
    monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
    monkeypatch.delenv(DIST_URL_ENV, raising=False)
    # Workers export the advertised tier; restore whatever was there.
    monkeypatch.delenv("REPRO_HESSIAN_DIR", raising=False)


@pytest.fixture
def server():
    srv, _thread = start_in_thread(port=0, cache_dir=None, lease_s=30.0)
    yield srv
    srv.shutdown()


# ------------------------------------------------------------------- wire


class TestWire:
    def test_job_round_trip_preserves_hash(self):
        job = small_spec(w_bits=(3,)).jobs()[0]
        decoded = decode_task(encode_task(job))
        assert decoded.job_hash == job.job_hash
        assert decoded.spawn_seed == job.spawn_seed
        assert task_key(decoded) == task_key(job)

    def test_hw_stage_round_trip(self):
        from repro.pipeline.runner import _HwStageTask

        job = small_spec(
            methods=("microscopiq",), archs=("microscopiq-v2",), kind="codesign"
        ).jobs()[0]
        task = _HwStageTask(
            job=job,
            stage_hash="f" * 16,
            layers=_HwStageTask.pack_layers(
                {"l0": {"d_out": 8, "d_in": 16, "w_bits": 4}}
            ),
        )
        decoded = decode_task(encode_task(task))
        assert decoded == task
        assert task_key(decoded) == f"hw:{'f' * 16}"

    def test_outcome_round_trip(self):
        job = small_spec().jobs()[0]
        outcome = JobOutcome(
            job, metrics={"ppl": 2.0}, seconds=1.5,
            worker="host:pid-7", counters={"engine.layers": 3.0},
        )
        back = decode_outcome(encode_outcome(outcome), job)
        assert back.job is job  # the collector's own object
        assert back.metrics == {"ppl": 2.0}
        assert back.worker == "host:pid-7"
        assert back.counters == {"engine.layers": 3.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            decode_task({"kind": "shell", "cmd": "rm -rf /"})


# ------------------------------------------------------------- coordinator


class TestCoordinatorCore:
    def test_submit_pull_push_collect(self):
        core = Coordinator(cache_dir=None)
        job = small_spec().jobs()[0]
        reply = core.submit([entry(job)])
        assert reply["states"] == {job.job_hash: "queued"}
        pulled = core.pull("w1")
        assert pulled["key"] == job.job_hash and pulled["lease_id"]
        code, _ = core.push(
            job.job_hash, pulled["lease_id"], core.epoch,
            {"metrics": {"ppl": 1.0}, "error": None, "seconds": 0.1},
        )
        assert code == 200
        collected = core.collect([job.job_hash])
        assert collected["pending"] == []
        assert collected["done"][job.job_hash]["metrics"] == {"ppl": 1.0}

    def test_duplicate_submission_attaches(self):
        core = Coordinator(cache_dir=None)
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        before = METRICS.snapshot()
        reply = core.submit([entry(job)])
        assert reply["states"] == {job.job_hash: "queued"}
        assert METRICS.delta(before).get("dist.coordinator.dedup_hits") == 1
        core.pull("w1")
        assert core.pull("w2")["key"] is None  # one entry, not two

    def test_cached_job_resolves_without_queueing(self, tmp_path):
        job = small_spec().jobs()[0]
        ResultCache(tmp_path).put(
            job.job_hash, {"metrics": {"ppl": 3.0}, "seconds": 0.2}
        )
        core = Coordinator(cache_dir=str(tmp_path))
        reply = core.submit([entry(job)])
        assert reply["states"] == {job.job_hash: "done"}
        done = core.collect([job.job_hash])["done"][job.job_hash]
        assert done["from_cache"] is True and done["metrics"] == {"ppl": 3.0}
        assert core.pull("w1")["key"] is None

    def test_successful_push_lands_in_cache(self, tmp_path):
        core = Coordinator(cache_dir=str(tmp_path))
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        pulled = core.pull("w1")
        core.push(
            job.job_hash, pulled["lease_id"], core.epoch,
            {"metrics": {"ppl": 1.5}, "error": None, "seconds": 0.1},
            record={"metrics": {"ppl": 1.5}, "seconds": 0.1, "label": "x"},
        )
        # A second coordinator incarnation over the same cache serves it.
        reborn = Coordinator(cache_dir=str(tmp_path))
        assert reborn.submit([entry(job)])["states"] == {job.job_hash: "done"}

    def test_failed_push_is_not_cached(self, tmp_path):
        core = Coordinator(cache_dir=str(tmp_path))
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        pulled = core.pull("w1")
        core.push(
            job.job_hash, pulled["lease_id"], core.epoch,
            {"metrics": None, "error": {"type": "Boom"}, "seconds": 0.1},
            record={"metrics": None, "error": {"type": "Boom"}},
        )
        assert ResultCache(tmp_path).get(job.job_hash) is None

    def test_expired_lease_requeues(self):
        core = Coordinator(cache_dir=None, lease_s=0.05)
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        first = core.pull("doomed")
        assert first["key"] == job.job_hash
        assert core.pull("w2")["key"] is None  # still leased
        time.sleep(0.1)
        before = METRICS.snapshot()
        second = core.pull("rescuer")
        assert second["key"] == job.job_hash
        assert second["lease_id"] != first["lease_id"]
        assert METRICS.delta(before).get("dist.coordinator.leases_expired") == 1

    def test_renew_extends_and_guards(self):
        core = Coordinator(cache_dir=None, lease_s=0.2)
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        pulled = core.pull("w1")
        for _ in range(3):  # renewals carry the lease far past lease_s
            time.sleep(0.1)
            code, _ = core.renew(job.job_hash, pulled["lease_id"], core.epoch)
            assert code == 200
        assert core.pull("w2")["key"] is None
        assert core.renew(job.job_hash, "wrong-lease", core.epoch)[0] == 409
        assert core.renew(job.job_hash, pulled["lease_id"], "old-epoch")[0] == 410

    def test_first_push_wins_late_duplicate_superseded(self):
        core = Coordinator(cache_dir=None, lease_s=0.05)
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        slow = core.pull("slow")
        time.sleep(0.1)  # slow's lease expires...
        fast = core.pull("fast")  # ...and fast re-runs the task
        code, payload = core.push(
            job.job_hash, fast["lease_id"], core.epoch,
            {"metrics": {"ppl": 1.0}, "error": None, "seconds": 0.1},
        )
        assert (code, payload["superseded"]) == (200, False)
        code, payload = core.push(  # the zombie's late result
            job.job_hash, slow["lease_id"], core.epoch,
            {"metrics": {"ppl": 1.0}, "error": None, "seconds": 9.9},
        )
        assert (code, payload["superseded"]) == (200, True)
        assert core.collect([job.job_hash])["done"][job.job_hash]["seconds"] == 0.1

    def test_stale_epoch_push_rejected(self):
        core = Coordinator(cache_dir=None)
        job = small_spec().jobs()[0]
        core.submit([entry(job)])
        pulled = core.pull("w1")
        before = METRICS.snapshot()
        code, payload = core.push(
            job.job_hash, pulled["lease_id"], "dead-epoch",
            {"metrics": {"ppl": 1.0}, "error": None, "seconds": 0.1},
        )
        assert code == 410 and "restarted" in payload["error"]
        assert METRICS.delta(before).get("dist.coordinator.stale_pushes") == 1
        assert core.collect([job.job_hash])["pending"] == [job.job_hash]


class TestCoordinatorHTTP:
    def test_health_and_task_flow_over_http(self, server):
        client = CoordinatorClient(server.url)
        health = client.health()
        assert health["ok"] and health["epoch"] == server.core.epoch
        job = small_spec().jobs()[0]
        client.submit_tasks([entry(job)])
        pulled = client.pull("w1")
        assert pulled["key"] == job.job_hash
        assert pulled["hessian_tier"] == server.url  # the built-in blob relay
        client.push(
            job.job_hash, pulled["lease_id"], pulled["epoch"],
            {"metrics": {"ppl": 1.0}, "error": None, "seconds": 0.1},
        )
        assert client.collect([job.job_hash])["pending"] == []

    def test_restart_rejects_stale_push_over_http(self, server):
        client = CoordinatorClient(server.url)
        job = small_spec().jobs()[0]
        client.submit_tasks([entry(job)])
        pulled = client.pull("w1")
        server.core = Coordinator(cache_dir=None)  # the restart
        client.submit_tasks([entry(job)])  # re-queued by the new incarnation
        with pytest.raises(ServeError) as err:
            client.push(
                job.job_hash, pulled["lease_id"], pulled["epoch"],
                {"metrics": {"ppl": 1.0}, "error": None, "seconds": 0.1},
            )
        assert err.value.status == 410
        # The new incarnation's queue is untouched by the stale result.
        assert client.collect([job.job_hash])["pending"] == [job.job_hash]

    def test_blob_relay_round_trip(self, server):
        from repro.dist.client import HttpBlobStore

        store = HttpBlobStore(server.url)
        assert store.get("ab" * 8) is None
        store.put("ab" * 8, b"\x00\x01")
        assert store.get("ab" * 8) == b"\x00\x01"
        assert store.claim("ab:h") is True
        assert store.claim("ab:h") is False
        store.release("ab:h")
        assert store.claim("ab:h") is True
        assert store.clean() >= 1

    @pytest.mark.parametrize("length", ["-1", "abc"])
    @pytest.mark.parametrize(
        "method,path", [("POST", "/api/tasks/pull"), ("PUT", "/api/blobs/" + "ab" * 8)]
    )
    def test_bad_content_length_is_400(self, server, method, path, length):
        assert send_with_length(server.url, method, path, length) == 400

    def test_mutations_require_token(self):
        srv, _ = start_in_thread(port=0, cache_dir=None, token="sekrit")
        try:
            with pytest.raises(ServeError) as err:
                CoordinatorClient(srv.url, token=None).pull("w1")
            assert err.value.status == 401
            ok = CoordinatorClient(srv.url, token="sekrit").pull("w1")
            assert ok["key"] is None  # authorized, empty queue
        finally:
            srv.shutdown()

    def test_non_loopback_bind_requires_token(self):
        with pytest.raises(RuntimeError, match="refusing to bind"):
            start_in_thread(host="0.0.0.0", port=0, cache_dir=None)


# ------------------------------------------------------------------ worker


class TestWorker:
    def test_worker_executes_and_pushes(self, server):
        job = small_spec().jobs()[0]
        CoordinatorClient(server.url).submit_tasks([entry(job)])
        worker = DistWorker(CoordinatorClient(server.url), poll=0.02)
        assert worker.run_forever(max_jobs=1, max_idle_s=5.0) == 1
        done = CoordinatorClient(server.url).collect([job.job_hash])["done"]
        payload = done[job.job_hash]
        assert payload["error"] is None
        assert payload["worker"] == worker.worker_id
        assert ":pid-" in payload["worker"]
        assert payload["counters"]  # captured even though untraced
        # Bit identity with a plain local execution of the same job.
        assert payload["metrics"] == execute_job(job)

    def test_worker_rejects_mismatched_payload(self, server):
        a, b = small_spec(w_bits=(3, 4)).jobs()
        worker = DistWorker(CoordinatorClient(server.url))
        with pytest.raises(ValueError, match="hashes to"):
            worker.run_one(
                {"key": a.job_hash, "task": encode_task(b), "traced": False}
            )

    def test_killed_worker_job_reruns_elsewhere_bit_identically(self):
        srv, _ = start_in_thread(port=0, cache_dir=None, lease_s=0.3)
        try:
            job = small_spec().jobs()[0]
            client = CoordinatorClient(srv.url)
            client.submit_tasks([entry(job)])
            ghost = client.pull("ghost:pid-1")  # pulls, then "dies"
            assert ghost["key"] == job.job_hash
            worker = DistWorker(CoordinatorClient(srv.url), poll=0.05)
            assert worker.run_forever(max_jobs=1, max_idle_s=5.0) == 1
            done = client.collect([job.job_hash])["done"][job.job_hash]
            assert done["worker"] == worker.worker_id
            assert done["metrics"] == execute_job(job)
        finally:
            srv.shutdown()


# ----------------------------------------------------------- remote executor


class TestRemoteExecutor:
    def test_arbitrary_kernels_refused(self, server):
        with pytest.raises(ValueError, match="canonical kernels"):
            list(run_remote(len, small_spec().jobs(), url=server.url))

    def test_missing_url_is_an_error(self):
        with pytest.raises(RuntimeError, match=DIST_URL_ENV):
            list(run_remote(execute_job, small_spec().jobs()))

    def test_dead_fleet_times_out(self, server):
        with pytest.raises(TimeoutError, match="are workers running"):
            list(
                run_remote(
                    execute_job, small_spec().jobs(),
                    url=server.url, poll=0.02, timeout=0.3,
                )
            )

    def test_remote_sweep_bit_identical_in_thread(self, tmp_path, server, monkeypatch):
        worker = DistWorker(CoordinatorClient(server.url), poll=0.02)
        thread = threading.Thread(
            target=lambda: worker.run_forever(max_idle_s=30.0), daemon=True
        )
        thread.start()
        monkeypatch.setenv(DIST_URL_ENV, server.url)
        spec = small_spec(w_bits=(3, 4))
        remote = run_sweep(spec, cache_dir=tmp_path / "r", executor="remote")
        serial = run_sweep(spec, cache_dir=tmp_path / "s", executor="serial")
        assert [o.metrics for o in remote.outcomes] == [
            o.metrics for o in serial.outcomes
        ]
        assert all(o.worker == worker.worker_id for o in remote.outcomes)
        # The ledger attributes the fleet's work (schema 2).
        record = RunLedger((tmp_path / "r") / "runs").runs(limit=1)[0]
        assert validate_record(record) == []
        assert record["schema"] == 2 and record["hostname"]
        assert {j["worker"] for j in record["jobs"]} == {worker.worker_id}


# --------------------------------------------------- two-worker fleet smoke


def _spawn_worker(url: str, cwd: Path) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TRACE", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.dist.cli", "worker",
            "--coordinator", url, "--max-idle-s", "5", "--poll", "0.05",
            "--quiet",
        ],
        cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


class TestTwoWorkerFleet:
    def test_cold_sweep_bit_identical_zero_duplicate_factorizations(
        self, tmp_path, monkeypatch
    ):
        """The acceptance sweep: a Hessian-heavy grid on a two-worker fleet
        matches serial bit-for-bit, and the merged fleet counters show the
        Hessian build/factorization happened once *across both workers*."""
        from repro.methods import resources

        # A fresh process-wide store: the serial baseline must actually
        # build (not memory-hit fingerprints earlier tests populated), and
        # its bundles must not leak into later tests' stores.
        monkeypatch.setattr(resources, "_DEFAULT_STORE", resources.HessianStore())
        spec = small_spec(methods=("gptq",), w_bits=(3, 4))
        serial = run_sweep(spec, cache_dir=tmp_path / "serial", executor="serial")
        s_counters = serial.telemetry["counters"]
        # Serial builds each distinct layer fingerprint exactly once — that
        # count is the fleet's zero-duplicates yardstick below.
        assert s_counters.get("hessian.store.h_builds", 0) >= 1

        srv, _ = start_in_thread(
            port=0, cache_dir=str(tmp_path / "coord"), lease_s=30.0
        )
        workers = []
        try:
            workers = [_spawn_worker(srv.url, tmp_path) for _ in range(2)]
            monkeypatch.setenv(DIST_URL_ENV, srv.url)
            remote = run_sweep(
                spec, cache_dir=tmp_path / "remote", executor="remote"
            )
        finally:
            for proc in workers:
                proc.terminate()
            srv.shutdown()
        out = [proc.communicate(timeout=30)[0] for proc in workers]

        assert [o.metrics for o in remote.outcomes] == [
            o.metrics for o in serial.outcomes
        ], out
        r_counters = remote.telemetry["counters"]
        # Fleet-wide duplicate Hessian work == 0: the merged counters show
        # exactly the serial run's single build and single factorization,
        # even though the two jobs ran on two separate worker processes
        # coalescing through the coordinator's blob relay.
        for key in ("hessian.store.h_builds", "hessian.store.factorizations"):
            assert r_counters.get(key, 0) == s_counters.get(key, 0), (key, out)


# ------------------------------------------------------------------ clients


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestServeClientRetry:
    def test_get_retries_connection_errors(self, monkeypatch):
        calls = []

        def flaky(req, timeout=None):
            calls.append(req.full_url)
            if len(calls) < 3:
                raise urllib.error.URLError(ConnectionRefusedError("refused"))
            return _FakeResponse(json.dumps({"ok": True}).encode())

        monkeypatch.setattr("urllib.request.urlopen", flaky)
        before = METRICS.snapshot()
        client = ServeClient("http://127.0.0.1:1", retries=2, backoff=0.0)
        assert client.health() == {"ok": True}
        assert len(calls) == 3
        assert METRICS.delta(before).get("serve.client.retries") == 2

    def test_retries_exhausted_reports_attempts(self, monkeypatch):
        def dead(req, timeout=None):
            raise urllib.error.URLError(ConnectionRefusedError("refused"))

        monkeypatch.setattr("urllib.request.urlopen", dead)
        client = ServeClient("http://127.0.0.1:1", retries=2, backoff=0.0)
        with pytest.raises(ServeError, match="after 3 attempts"):
            client.health()

    def test_post_does_not_retry_non_connection_errors(self, monkeypatch):
        calls = []

        def timing_out(req, timeout=None):
            calls.append(req)
            raise urllib.error.URLError(TimeoutError("slow"))

        monkeypatch.setattr("urllib.request.urlopen", timing_out)
        client = ServeClient("http://127.0.0.1:1", retries=2, backoff=0.0)
        with pytest.raises(ServeError):
            client.shutdown()  # a POST
        assert len(calls) == 1

    def test_post_retries_refused_connections(self, monkeypatch):
        calls = []

        def flaky(req, timeout=None):
            calls.append(req)
            if len(calls) < 2:
                raise urllib.error.URLError(ConnectionRefusedError("refused"))
            return _FakeResponse(json.dumps({"ok": True}).encode())

        monkeypatch.setattr("urllib.request.urlopen", flaky)
        client = ServeClient("http://127.0.0.1:1", retries=2, backoff=0.0)
        assert client.shutdown() == {"ok": True}
        assert len(calls) == 2


# --------------------------------------------------------------------- CLI


class TestDistCLI:
    def test_worker_subcommand_drains_and_exits(self, server, capsys):
        job = small_spec().jobs()[0]
        CoordinatorClient(server.url).submit_tasks([entry(job)])
        code = dist_cli_main([
            "worker", "--coordinator", server.url,
            "--max-jobs", "1", "--max-idle-s", "1", "--poll", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 task(s) executed" in out
        assert CoordinatorClient(server.url).collect([job.job_hash])["pending"] == []

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            dist_cli_main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


# ------------------------------------------------------------------ ledger


class TestLedgerSchema:
    def _base(self) -> dict:
        return {
            "schema": 1,
            "run_id": "r1",
            "started_at": 1.0,
            "wall_s": 1.0,
            "spec_digest": "d" * 16,
            "executor": "serial",
            "n_jobs": 1,
            "cache_hits": 0,
            "failures": 0,
            "traced": False,
            "counters": {},
            "jobs": [
                {
                    "hash": "a" * 16, "label": "x", "kind": "accuracy",
                    "ok": True, "from_cache": False, "seconds": 0.1,
                }
            ],
        }

    def test_schema_1_records_still_validate(self):
        assert validate_record(self._base()) == []

    def test_schema_2_fields_validate(self):
        rec = self._base()
        rec.update(schema=2, hostname="host-a")
        rec["jobs"][0]["worker"] = "host-a:pid-7"
        assert validate_record(rec) == []

    def test_wrong_types_rejected(self):
        rec = self._base()
        rec["hostname"] = 7
        assert any("hostname" in e for e in validate_record(rec))
        rec = self._base()
        rec["jobs"][0]["worker"] = 7
        assert any("worker" in e for e in validate_record(rec))

    def test_unknown_schema_rejected(self):
        rec = self._base()
        rec["schema"] = 99
        assert any("unknown schema" in e for e in validate_record(rec))
