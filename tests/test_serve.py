"""The sweep service: scheduler core, HTTP API, client, and CLI modes.

Three layers under test, sharing one contract:

* :class:`~repro.pipeline.scheduler.SweepScheduler` — ``run_sweep`` extracted
  into a reusable submission queue with per-submission handles;
* :mod:`repro.serve` — the stdlib HTTP daemon and its urllib client;
* the ``repro-sweep submit / watch / results`` service-backed CLI modes.

The load-bearing properties: every frontend produces bit-identical job hashes
and metrics for the same :class:`SweepSpec`; identical in-flight submissions
from different clients dedup onto one execution (zero duplicate Hessian
factorizations); spec-build errors surface as HTTP 400s, never as queued
failures; cancellation and SSE streaming behave.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.obs import METRICS, RunLedger
from repro.pipeline import SweepSpec, run_sweep
from repro.pipeline.cache import ResultCache
from repro.pipeline.cli import main as cli_main
from repro.pipeline.scheduler import SweepCancelled, SweepScheduler, sweep_digest
from repro.serve import ServeClient, ServeError, build_sweep_spec, start_in_thread
from repro.serve.client import sweep_to_payload
from tests.conftest import send_with_length

SMALL = dict(eval_sequences=6, eval_seq_len=16)


def small_spec(**overrides) -> SweepSpec:
    kw = dict(
        families=("opt-6.7b",), methods=("rtn",), w_bits=(4,), **SMALL
    )
    kw.update(overrides)
    return SweepSpec(**kw)


@pytest.fixture
def scheduler(tmp_path):
    sched = SweepScheduler(cache_dir=tmp_path / "cache", executor="serial")
    yield sched
    sched.close(wait=False)


@pytest.fixture
def server(tmp_path):
    srv = start_in_thread(cache_dir=tmp_path / "srv-cache", executor="serial")
    yield srv
    srv.shutdown()


# ------------------------------------------------------------- bit identity


class TestBitIdentity:
    def test_run_sweep_vs_scheduler_vs_http(self, tmp_path, server):
        """One SweepSpec through all three frontends: identical job hashes,
        bit-identical metrics. Separate cache dirs, so nothing is shared."""
        spec = small_spec(methods=("rtn", "gptq"))

        direct = run_sweep(
            spec, cache_dir=tmp_path / "a", executor="serial", progress=False
        )
        sched = SweepScheduler(cache_dir=tmp_path / "b", executor="serial")
        try:
            via_scheduler = sched.run(spec)
        finally:
            sched.close(wait=False)

        client = ServeClient(server.url)
        sub = client.submit(spec)
        assert sub["n_jobs"] == len(direct.outcomes)
        status = client.wait(sub["sweep_id"], timeout=120)
        assert status["state"] == "done"
        via_http = {
            r["hash"]: r.get("metrics")
            for r in client.result(sub["sweep_id"])["records"]
        }

        m_direct = direct.metrics_by_hash()
        assert m_direct == via_scheduler.metrics_by_hash()
        assert m_direct == via_http
        assert sorted(sub["job_hashes"]) == sorted(m_direct)
        assert sub["spec_digest"] == sweep_digest(direct.jobs)

    def test_payload_round_trip_preserves_hashes(self):
        """asdict → JSON → build_sweep_spec reproduces the exact job grid,
        including the nested pair-tuple axes."""
        spec = small_spec(
            methods=("rtn", "gptq"),
            method_params={"gptq": {"damp_ratio": 0.02}},
            quant_kwargs={"group_size": 64},
        )
        wire = json.loads(json.dumps(sweep_to_payload(spec)))
        rebuilt = build_sweep_spec(wire)
        assert sweep_digest(rebuilt.jobs()) == sweep_digest(spec.jobs())

    def test_scheduler_is_the_run_sweep_engine(self, tmp_path):
        """run_sweep shares the scheduler's cache layout: a scheduler pointed
        at run_sweep's cache answers everything without recomputing."""
        spec = small_spec()
        run_sweep(spec, cache_dir=tmp_path / "c", executor="serial", progress=False)
        sched = SweepScheduler(cache_dir=tmp_path / "c", executor="serial")
        try:
            again = sched.run(spec)
        finally:
            sched.close(wait=False)
        assert again.cache_hits == len(again.outcomes)


# ------------------------------------------------------- in-flight dedup


class TestInflightDedup:
    def test_concurrent_identical_submissions_share_execution(
        self, tmp_path, scheduler
    ):
        """Submission B arrives while A holds the same jobs in flight: B
        attaches to A's futures and pays zero duplicate Hessian
        factorizations — the pair costs exactly what one run costs."""
        spec = small_spec(methods=("gptq",))
        # The process-wide Hessian store memoizes across runs; empty it so
        # both the reference run and the concurrent pair start cold — the
        # factorization counts below measure executions, not store luck.
        from repro.methods.resources import default_hessian_store

        default_hessian_store().clear()

        # Reference: factorizations one cold run pays, in its own cache.
        ref_before = METRICS.snapshot()
        run_sweep(spec, cache_dir=tmp_path / "ref", executor="serial",
                  progress=False)
        one_run_cost = METRICS.delta(ref_before).get(
            "hessian.store.factorizations", 0
        )
        assert one_run_cost > 0
        default_hessian_store().clear()

        hold = threading.Event()
        before = METRICS.snapshot()
        a = scheduler.submit(spec, hold=hold)
        assert a.claimed.wait(timeout=60), "A never placed its claims"
        b = scheduler.submit(spec)
        # B can't finish while A is frozen pre-compute: its only jobs are
        # attached to A's claims.
        assert not b.finished.wait(timeout=0.3)
        hold.set()
        ra = a.result(timeout=120)
        rb = b.result(timeout=120)

        delta = METRICS.delta(before)
        assert delta.get("pipeline.inflight_dedup") == len(b.jobs)
        assert rb.telemetry["inflight_dedup"] == len(b.jobs)
        assert ra.telemetry["inflight_dedup"] == 0
        assert ra.metrics_by_hash() == rb.metrics_by_hash()
        # The whole point: two submissions, one execution. A second
        # independent run would double the factorization count.
        assert delta.get("hessian.store.factorizations") == one_run_cost
        assert rb.telemetry["computed"] == 0

    @pytest.mark.parametrize("kind", ["accuracy", "codesign"])
    def test_abandoned_claim_is_recovered(self, tmp_path, scheduler, kind):
        """A holds its claims and is cancelled; B, attached to them,
        recomputes and matches a serial run. The accuracy case holds a job
        key; the codesign case finds its quant stage cached, so the only
        claim is the ``hw:`` stage key."""
        spec = small_spec(methods=("microscopiq",))
        if kind == "codesign":
            run_sweep(spec, cache_dir=tmp_path / "cache", executor="serial")
            spec = small_spec(methods=("microscopiq",), archs=("microscopiq-v2",),
                              kind="codesign")
        hold = threading.Event()
        a = scheduler.submit(spec, hold=hold)
        assert a.claimed.wait(timeout=60), "A never placed its claims"
        b = scheduler.submit(spec)
        assert b.claimed.wait(timeout=60), "B never placed its claims"
        assert not b.finished.wait(timeout=0.3)  # attached to A's held claim
        assert a.cancel()
        rb = b.result(timeout=120)
        assert a.wait(timeout=30) == "cancelled"

        assert rb.telemetry["inflight_dedup"] == 1
        assert rb.telemetry["computed"] == 1 and rb.telemetry["attached"] == 0
        assert rb.telemetry["quant_stage_hits"] == (kind == "codesign")
        reference = run_sweep(spec, cache_dir=tmp_path / "ref", executor="serial")
        assert rb.metrics_by_hash() == reference.metrics_by_hash()

    def test_concurrent_codesign_submissions_share_hw_stage(
        self, tmp_path, scheduler
    ):
        """Two codesign submissions over a cached quant stage: B attaches to
        the hardware stage A holds in flight, and both get A's result."""
        run_sweep(small_spec(methods=("microscopiq",)),
                  cache_dir=tmp_path / "cache", executor="serial")
        spec = small_spec(methods=("microscopiq",), archs=("microscopiq-v2",),
                          kind="codesign")
        hold = threading.Event()
        before = METRICS.snapshot()
        a = scheduler.submit(spec, hold=hold)
        assert a.claimed.wait(timeout=60)
        b = scheduler.submit(spec)
        assert b.claimed.wait(timeout=60)
        hold.set()
        ra = a.result(timeout=120)
        rb = b.result(timeout=120)

        assert METRICS.delta(before).get("pipeline.inflight_dedup") == 1
        assert ra.telemetry["inflight_dedup"] == 0
        assert rb.telemetry["inflight_dedup"] == 1
        assert ra.telemetry["computed"] == 1
        assert rb.telemetry["attached"] == 1 and rb.telemetry["computed"] == 0
        assert ra.metrics_by_hash() == rb.metrics_by_hash()
        [outcome] = rb.outcomes
        stage = ResultCache(tmp_path / "cache").get(outcome.metrics["hw_stage_hash"])
        assert stage["stage"] == "codesign-hw"

    def test_dedup_across_http_and_direct_clients(self, server):
        """The hybrid case from the issue: one client holds a submission via
        the scheduler, a second identical submission arrives over HTTP."""
        spec = small_spec(methods=("gptq",))
        hold = threading.Event()
        before = METRICS.snapshot()

        a = server.scheduler.submit(spec, hold=hold)
        assert a.claimed.wait(timeout=60)
        client = ServeClient(server.url)
        sub = client.submit(spec, label="second-client")
        hold.set()
        status = client.wait(sub["sweep_id"], timeout=120)
        a.wait(timeout=120)

        assert status["state"] == "done"
        telemetry = client.result(sub["sweep_id"])["telemetry"]
        assert telemetry["inflight_dedup"] == sub["n_jobs"]
        assert telemetry["computed"] == 0
        assert METRICS.delta(before).get("pipeline.inflight_dedup") == sub["n_jobs"]
        assert (
            client.result(sub["sweep_id"])["records"]
            == [
                dict(r)
                for r in ServeClient(server.url).result(sub["sweep_id"])["records"]
            ]
        )

    def test_metrics_endpoints_expose_counters(self, server):
        """/api/metrics (JSON) and /metrics (name-value text) agree."""
        client = ServeClient(server.url)
        payload = client.metrics()
        assert "counters" in payload and "scheduler" in payload
        text = client.metrics_text()
        for name, value in list(payload["counters"].items())[:3]:
            assert f"{name} {value}" in text


# ------------------------------------------------------------- HTTP errors


class TestValidation:
    def test_unknown_field_is_400(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.submit({"families": ["opt-6.7b"], "bogus_axis": [1]})
        assert err.value.status == 400
        assert "bogus_axis" in str(err.value)

    def test_unknown_method_is_400(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.submit(dict(sweep_to_payload(small_spec()), methods=["nope"]))
        assert err.value.status == 400
        assert "nope" in str(err.value)

    def test_bad_submit_option_is_400(self, server):
        payload = {"sweep": sweep_to_payload(small_spec()), "options": {"executor": "warp"}}
        req = urllib.request.Request(
            server.url + "/api/sweeps",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            server.url + "/api/sweeps", data=b"{nope", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_400(self, server, length):
        assert send_with_length(server.url, "POST", "/api/sweeps", length) == 400

    def test_unknown_sweep_is_404_and_result_conflict_is_409(self, server):
        client = ServeClient(server.url)
        with pytest.raises(ServeError) as err:
            client.status("sw-9999-deadbeef")
        assert err.value.status == 404

        hold = threading.Event()
        handle = server.scheduler.submit(small_spec(), hold=hold)
        try:
            with pytest.raises(ServeError) as err:
                client.result(handle.sweep_id)
            assert err.value.status == 409
        finally:
            hold.set()
            handle.wait(timeout=120)


# ------------------------------------------------------------ cancellation


class TestCancellation:
    def test_cancel_held_submission(self, scheduler):
        hold = threading.Event()
        handle = scheduler.submit(small_spec(), hold=hold)
        assert handle.claimed.wait(timeout=60)
        assert handle.cancel()
        assert handle.finished.wait(timeout=30)
        assert handle.state == "cancelled"
        with pytest.raises(SweepCancelled):
            handle.result(timeout=0)

    def test_cancel_over_http_then_result_is_410(self, server):
        hold = threading.Event()
        handle = server.scheduler.submit(small_spec(), hold=hold)
        assert handle.claimed.wait(timeout=60)
        client = ServeClient(server.url)
        client.cancel(handle.sweep_id)
        assert handle.finished.wait(timeout=30)
        assert client.status(handle.sweep_id)["state"] == "cancelled"
        with pytest.raises(ServeError) as err:
            client.result(handle.sweep_id)
        assert err.value.status == 410
        hold.set()

    def test_cancel_after_done_is_conflict(self, server):
        client = ServeClient(server.url)
        sub = client.submit(small_spec())
        client.wait(sub["sweep_id"], timeout=120)
        outcome = client.cancel(sub["sweep_id"])
        assert outcome.get("state") == "done"  # 409 payload, not an exception


# ------------------------------------------------------------- SSE stream


class TestEvents:
    def test_sse_stream_replays_and_terminates(self, server):
        client = ServeClient(server.url)
        sub = client.submit(small_spec())
        client.wait(sub["sweep_id"], timeout=120)
        # Late subscriber: the full event log replays, ending in a terminal
        # state event that closes the generator.
        events = list(client.events(sub["sweep_id"]))
        kinds = [e.get("event") for e in events]
        assert "job" in kinds
        assert kinds[-1] == "state"
        assert events[-1]["state"] == "done"
        seqs = [e["seq"] for e in events if "seq" in e]
        assert seqs == sorted(seqs)

    def test_live_subscriber_sees_completion(self, server):
        client = ServeClient(server.url)
        sub = client.submit(small_spec(methods=("gptq",)))
        terminal = None
        for event in client.events(sub["sweep_id"]):
            terminal = event
        assert terminal is not None and terminal.get("state") == "done"


# ------------------------------------------------- ledger: history + clean


class TestLedgerService:
    def test_report_json_matches_api_runs(self, tmp_path, server, capsys):
        """Satellite: `repro-sweep report --json` and GET /api/runs share one
        record envelope — byte-for-byte after a round-trip."""
        client = ServeClient(server.url)
        sub = client.submit(small_spec())
        client.wait(sub["sweep_id"], timeout=120)

        cache_dir = server.scheduler.cache_dir
        assert cli_main(["report", "--json", "--cache-dir", str(cache_dir)]) == 0
        from_cli = json.loads(capsys.readouterr().out)
        from_api = client.runs()
        assert from_cli == from_api
        assert from_cli["total"] == from_cli["returned"] == 1
        run = from_cli["runs"][0]
        assert run["n_jobs"] == sub["n_jobs"]
        assert run["sweep_id"] == sub["sweep_id"]
        assert client.run(run["run_id"])["run_id"] == run["run_id"]

    def test_clean_max_age_compacts_ledger(self, tmp_path, capsys):
        """Satellite: `repro-sweep clean --max-age-hours` compacts runs.jsonl
        — aged and corrupt lines drop, fresh records survive."""
        cache = str(tmp_path / "cache")
        argv = [
            "sweep", "--families", "opt-6.7b", "--methods", "rtn",
            "--w-bits", "4", "--eval-sequences", "6", "--eval-seq-len", "16",
            "--cache-dir", cache, "--executor", "serial", "--quiet",
        ]
        assert cli_main(argv) == 0
        capsys.readouterr()
        ledger = RunLedger(ResultCache(cache).root / "runs")
        assert len(ledger) == 1

        # Age one record far into the past and add a corrupt line.
        records = list(ledger.records())
        records[0]["started_at"] -= 9999 * 3600
        with open(ledger.path, "w") as f:
            f.write(json.dumps(records[0]) + "\n")
            f.write("{corrupt\n")

        assert cli_main(["clean", "--max-age-hours", "24",
                         "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 ledger records" in out
        assert len(ledger) == 0 and not ledger.path.exists()

        # Fresh records survive an aged clean (results may age out; the
        # ledger line is younger than the cutoff).
        assert cli_main(argv) == 0
        capsys.readouterr()
        assert cli_main(["clean", "--max-age-hours", "24",
                         "--cache-dir", cache]) == 0
        assert "ledger" not in capsys.readouterr().out
        assert len(ledger) == 1

    def test_compact_drops_everything_without_cutoff(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        assert ledger.compact() == 0  # nothing on disk, no-op
        ledger.path.parent.mkdir(parents=True, exist_ok=True)
        ledger.path.write_text("not json\n")
        assert ledger.compact() == 1
        assert not ledger.path.exists()


# ----------------------------------------------------------- CLI frontends


class TestServiceCli:
    def test_submit_watch_results_cycle(self, server, tmp_path, capsys):
        spec_args = [
            "--families", "opt-6.7b", "--methods", "rtn", "--w-bits", "4",
            "--eval-sequences", "6", "--eval-seq-len", "16",
        ]
        assert cli_main(["submit", *spec_args, "--server", server.url,
                         "--label", "cli-smoke"]) == 0
        out = capsys.readouterr().out
        assert "done" in out
        sweep_id = next(
            tok for tok in out.split() if tok.startswith("sw-")
        ).strip(":,")

        assert cli_main(["results", sweep_id, "--server", server.url]) == 0
        assert "rtn" in capsys.readouterr().out

        out_json = tmp_path / "res.json"
        assert cli_main(["results", sweep_id, "--server", server.url,
                         "--json", str(out_json)]) == 0
        dump = json.loads(out_json.read_text())
        assert dump["sweep_id"] == sweep_id
        assert dump["records"][0]["metrics"]["ppl"] > 0

    def test_watch_finished_sweep(self, server, capsys):
        client = ServeClient(server.url)
        sub = client.submit(small_spec())
        client.wait(sub["sweep_id"], timeout=120)
        assert cli_main(["watch", sub["sweep_id"], "--server", server.url]) == 0
        assert "done" in capsys.readouterr().out

    def test_results_on_unknown_server_is_clean_error(self, capsys):
        rc = cli_main(["results", "sw-0001-abcdef12",
                       "--server", "http://127.0.0.1:1"])
        assert rc != 0


# ----------------------------------------------------------- bearer-token auth


class TestServeAuth:
    """Opt-in bearer auth: POSTs gated when a token is set, reads stay open."""

    @pytest.fixture
    def auth_server(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        srv = start_in_thread(executor="serial", token="hunter2")
        yield srv
        srv.shutdown()
        srv.scheduler.close(wait=False)

    def test_post_without_token_is_401(self, auth_server, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        client = ServeClient(auth_server.url)
        before = METRICS.snapshot().get("serve.auth.rejected", 0)
        with pytest.raises(ServeError) as err:
            client.submit(small_spec())
        assert err.value.status == 401
        assert "bearer" in str(err.value).lower()
        assert METRICS.snapshot().get("serve.auth.rejected", 0) == before + 1

    def test_post_with_wrong_token_is_401(self, auth_server):
        client = ServeClient(auth_server.url, token="nope")
        with pytest.raises(ServeError) as err:
            client.cancel("sw-0001-abcdef12")
        assert err.value.status == 401

    def test_post_with_token_passes_auth(self, auth_server):
        # 404 (unknown sweep), not 401: the gate opened, routing proceeded.
        client = ServeClient(auth_server.url, token="hunter2")
        with pytest.raises(ServeError) as err:
            client.cancel("sw-0001-abcdef12")
        assert err.value.status == 404

    def test_reads_stay_open_without_token(self, auth_server):
        client = ServeClient(auth_server.url)
        assert client.health()["ok"] is True
        assert client.sweeps() == []
        assert "serve.auth.rejected" in client.metrics_text() or True

    def test_submit_cycle_with_token(self, auth_server):
        client = ServeClient(auth_server.url, token="hunter2")
        sub = client.submit(small_spec())
        status = client.wait(sub["sweep_id"], timeout=120)
        assert status["state"] == "done"

    def test_token_defaults_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_TOKEN", "env-secret")
        srv = start_in_thread(executor="serial")  # picks the env token up
        try:
            assert srv.token == "env-secret"
            client = ServeClient(srv.url)  # so does the client
            with pytest.raises(ServeError) as err:
                client.cancel("sw-0001-abcdef12")
            assert err.value.status == 404  # authorized, then not found
            bare = ServeClient(srv.url, token="")
            bare.token = None
            with pytest.raises(ServeError) as err:
                bare.cancel("sw-0001-abcdef12")
            assert err.value.status == 401
        finally:
            srv.shutdown()
            srv.scheduler.close(wait=False)

    def test_non_loopback_bind_refused_without_token(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        with pytest.raises(ValueError, match="REPRO_SERVE_TOKEN"):
            start_in_thread(host="0.0.0.0")

    def test_serve_main_refuses_non_loopback_without_token(self, monkeypatch):
        from repro.serve.server import main as serve_main

        monkeypatch.delenv("REPRO_SERVE_TOKEN", raising=False)
        with pytest.raises(SystemExit) as err:
            serve_main(["--host", "0.0.0.0", "--port", "0"])
        assert err.value.code == 2
