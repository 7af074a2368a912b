"""The ``repro-dist coordinator``: fleet-wide queue, claims, and blob relay.

One stdlib :class:`~http.server.ThreadingHTTPServer` owning three things:

* the **task queue** — submitted tasks (jobs / hw stages, already in wire
  form) waiting for a worker to pull them;
* the **fleet-wide in-flight book** — the distributed generalization of the
  scheduler's process-wide ``_InflightBook``: a task key is *queued*,
  *leased* (a worker is computing it, under a lease that expires if the
  worker dies), or *done*. Submitting an already-known key attaches to the
  existing entry instead of queuing duplicate work, and the coordinator's
  own :class:`~repro.pipeline.cache.ResultCache` answers keys whole past
  runs already computed;
* the **blob relay** — an HTTP face over the coordinator's Hessian blob
  tier (:class:`~repro.pipeline.cache.BlobStore` protocol, including the
  claim primitive), so workers without shared disk still coalesce on one
  Hessian build per fingerprint fleet-wide.

Work-stealing is pull-based: workers ask for the next task, so a fast host
simply pulls more often — no placement logic, no static sharding. A killed
worker loses at most its in-flight task: when its lease expires the task
returns to the queue and the next pull re-runs it (bit-identical, since
per-job RNG seeds spawn from job hashes).

Restart safety: every coordinator process mints a random **epoch**; pulls
hand it out and pushes must echo it. A worker that pulled from a previous
incarnation gets HTTP 410 on push — stale results from before a restart
can never corrupt the new queue's bookkeeping.

Auth and conventions are ``repro.serve``'s: JSON bodies, ``{"error": …}``
payloads, ``Authorization: Bearer`` checked on every mutating request when
``REPRO_SERVE_TOKEN`` is set, and a refusal to bind beyond loopback without
a token.
"""

from __future__ import annotations

import argparse
import hmac
import json
import os
import secrets
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import unquote, urlparse

from .. import __version__
from ..obs.metrics import METRICS
from ..pipeline.cache import ResultCache, make_blob_store
from ..serve.server import LOOPBACK_HOSTS, TOKEN_ENV, read_body

__all__ = [
    "Coordinator",
    "CoordinatorServer",
    "DEFAULT_PORT",
    "main",
    "start_in_thread",
]

DEFAULT_PORT = 8643

#: Default seconds a worker may hold a pulled task without renewing.
DEFAULT_LEASE_S = 30.0


class _MemoryBlobStore:
    """In-memory :class:`BlobStore` for cache-less coordinators (tests)."""

    name = "memory"

    def __init__(self) -> None:
        self._blobs: Dict[str, bytes] = {}
        self._claims: Dict[str, float] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> Optional[bytes]:
        with self._lock:
            return self._blobs.get(key)

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            self._blobs[key] = bytes(data)

    def claim(self, key: str, ttl: float = 60.0) -> bool:
        now = time.time()
        with self._lock:
            held = self._claims.get(key)
            if held is not None and now - held <= ttl:
                return False
            self._claims[key] = now
            return True

    def release(self, key: str) -> None:
        with self._lock:
            self._claims.pop(key, None)

    def clean(self, older_than: Optional[float] = None) -> int:
        now = time.time()
        with self._lock:
            if older_than is None:
                removed = len(self._blobs)
                self._blobs.clear()
                self._claims.clear()
                return removed
            # Memory blobs carry no timestamps; age-based clean keeps them.
            _ = now
            return 0


class _TaskEntry:
    """One task's fleet-wide lifecycle: queued → leased → done."""

    __slots__ = (
        "key", "payload", "traced", "state", "lease_id", "worker",
        "expires_at", "outcome",
    )

    def __init__(self, key: str, payload: Dict[str, Any], traced: bool):
        self.key = key
        self.payload = payload
        self.traced = traced
        self.state = "queued"
        self.lease_id = ""
        self.worker = ""
        self.expires_at = 0.0
        self.outcome: Optional[Dict[str, Any]] = None


class Coordinator:
    """The queue/claims/outcomes core, HTTP-free for direct testing."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        lease_s: float = DEFAULT_LEASE_S,
        cache_backend: Optional[str] = None,
        hessian_tier: str = "",
    ):
        self.epoch = secrets.token_hex(8)
        self.lease_s = float(lease_s)
        self.cache = (
            ResultCache(cache_dir, backend=cache_backend)
            if cache_dir is not None
            else None
        )
        self.blobs = (
            make_blob_store(self.cache.hessian_tier_target())
            if self.cache is not None
            else _MemoryBlobStore()
        )
        #: Tier target advertised to workers on pull. Empty means "this
        #: coordinator's blob relay" — the server fills in its own URL.
        self.hessian_tier = hessian_tier
        self._lock = threading.Lock()
        self._tasks: Dict[str, _TaskEntry] = {}
        self._queue: deque = deque()
        self.started_at = time.time()

    # --------------------------------------------------------------- leases
    def _expire_leases_locked(self, now: float) -> None:
        for entry in self._tasks.values():
            if entry.state == "leased" and now > entry.expires_at:
                entry.state = "queued"
                entry.lease_id = ""
                entry.worker = ""
                self._queue.append(entry.key)
                METRICS.incr("dist.coordinator.leases_expired")

    # --------------------------------------------------------------- intake
    def submit(self, entries: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Queue new tasks; known keys attach, cached keys resolve at once."""
        states: Dict[str, str] = {}
        now = time.time()
        with self._lock:
            self._expire_leases_locked(now)
            for item in entries:
                key = str(item["key"])
                existing = self._tasks.get(key)
                if existing is not None:
                    states[key] = existing.state
                    METRICS.incr("dist.coordinator.dedup_hits")
                    continue
                entry = _TaskEntry(
                    key, item["task"], bool(item.get("traced", False))
                )
                # Jobs a past run already computed resolve from the
                # coordinator's result cache without touching the queue
                # (hw-stage keys are claim-book-only and always run).
                record = None
                if self.cache is not None and not key.startswith("hw:"):
                    record = self.cache.get(key)
                if record is not None and record.get("metrics") is not None:
                    entry.state = "done"
                    entry.outcome = {
                        "metrics": record["metrics"],
                        "error": None,
                        "seconds": float(record.get("seconds", 0.0)),
                        "from_cache": True,
                        "worker": "",
                        "spans": None,
                        "counters": None,
                    }
                    METRICS.incr("dist.coordinator.cache_hits")
                else:
                    self._queue.append(key)
                    METRICS.incr("dist.coordinator.tasks_queued")
                self._tasks[key] = entry
                states[key] = entry.state
        return {"epoch": self.epoch, "states": states}

    # ---------------------------------------------------------------- workers
    def pull(self, worker: str) -> Dict[str, Any]:
        now = time.time()
        with self._lock:
            self._expire_leases_locked(now)
            while self._queue:
                key = self._queue.popleft()
                entry = self._tasks.get(key)
                if entry is None or entry.state != "queued":
                    continue  # satisfied or re-leased while queued
                entry.state = "leased"
                entry.lease_id = secrets.token_hex(8)
                entry.worker = worker
                entry.expires_at = now + self.lease_s
                return {
                    "epoch": self.epoch,
                    "key": key,
                    "task": entry.payload,
                    "traced": entry.traced,
                    "lease_id": entry.lease_id,
                    "lease_s": self.lease_s,
                    "hessian_tier": self.hessian_tier,
                }
            return {"epoch": self.epoch, "key": None, "task": None}

    def renew(self, key: str, lease_id: str, epoch: str) -> Tuple[int, Dict[str, Any]]:
        if epoch != self.epoch:
            return 410, {"error": f"stale epoch {epoch!r}"}
        now = time.time()
        with self._lock:
            entry = self._tasks.get(key)
            if entry is None:
                return 404, {"error": f"unknown task {key!r}"}
            if entry.state != "leased" or entry.lease_id != lease_id:
                return 409, {"error": "lease lost", "state": entry.state}
            entry.expires_at = now + self.lease_s
            return 200, {"ok": True, "lease_s": self.lease_s}

    def push(
        self,
        key: str,
        lease_id: str,
        epoch: str,
        outcome: Dict[str, Any],
        record: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        """Accept one worker's finished task.

        An epoch mismatch (the coordinator restarted since the pull) is
        rejected outright. A lost lease is *not*: the kernels are
        deterministic, so the first result to arrive settles the task and a
        late duplicate is simply reported as superseded.
        """
        if epoch != self.epoch:
            METRICS.incr("dist.coordinator.stale_pushes")
            return 410, {
                "error": f"stale epoch {epoch!r} (coordinator restarted; re-pull)"
            }
        with self._lock:
            self._expire_leases_locked(time.time())
            entry = self._tasks.get(key)
            if entry is None:
                return 404, {"error": f"unknown task {key!r}"}
            if entry.state == "done":
                return 200, {"ok": True, "superseded": True}
            entry.state = "done"
            entry.lease_id = ""
            entry.outcome = dict(outcome)
            METRICS.incr("dist.coordinator.tasks_completed")
        ok = outcome.get("error") is None
        if (
            ok
            and record is not None
            and self.cache is not None
            and not key.startswith("hw:")
        ):
            self.cache.put(key, record)
        return 200, {"ok": True, "superseded": False}

    # ---------------------------------------------------------------- clients
    def collect(self, keys: List[str]) -> Dict[str, Any]:
        done: Dict[str, Any] = {}
        pending: List[str] = []
        with self._lock:
            self._expire_leases_locked(time.time())
            for key in keys:
                entry = self._tasks.get(key)
                if entry is not None and entry.state == "done":
                    done[key] = entry.outcome
                else:
                    pending.append(key)
        return {"epoch": self.epoch, "done": done, "pending": pending}

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            self._expire_leases_locked(time.time())
            by_state: Dict[str, int] = {"queued": 0, "leased": 0, "done": 0}
            for entry in self._tasks.values():
                by_state[entry.state] = by_state.get(entry.state, 0) + 1
            leased = [
                {"key": e.key, "worker": e.worker}
                for e in self._tasks.values()
                if e.state == "leased"
            ]
        return {
            "tasks": by_state,
            "leased": leased,
            "lease_s": self.lease_s,
            "uptime_s": round(time.time() - self.started_at, 3),
        }


class CoordinatorServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        core: Coordinator,
        quiet: bool = True,
        token: Optional[str] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.core = core
        self.quiet = quiet
        self.token = token or None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def advertised_tier(self) -> str:
        """What workers should export as ``REPRO_HESSIAN_DIR``: an explicit
        override, else this coordinator's own blob relay."""
        return self.core.hessian_tier or self.url


class _Handler(BaseHTTPRequestHandler):
    server: CoordinatorServer
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------- plumbing
    def _send(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, code: int, payload: Any) -> None:
        self._send(code, json.dumps(payload, default=str).encode(), "application/json")

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _fail(self, exc: Exception) -> None:
        """Answer a request that raised — 400 for bad input, else 500; one
        bad request must not kill the handler thread."""
        try:
            if isinstance(exc, ValueError):
                self._error(400, str(exc))
            else:
                self._error(500, f"{type(exc).__name__}: {exc}")
        except OSError:
            pass

    def _read_json(self) -> Any:
        raw = read_body(self)
        if not raw:
            return {}
        try:
            return json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None

    def _authorized(self) -> bool:
        """The serve-stack bearer check: no configured token = open."""
        token = self.server.token
        if not token:
            return True
        header = self.headers.get("Authorization") or ""
        scheme, _, presented = header.partition(" ")
        if scheme.lower() == "bearer" and hmac.compare_digest(
            presented.strip(), token
        ):
            return True
        METRICS.incr("serve.auth.rejected")
        self._error(401, f"missing or invalid bearer token (set {TOKEN_ENV})")
        return False

    def _parts(self) -> List[str]:
        return [unquote(p) for p in urlparse(self.path).path.split("/") if p]

    # --------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            parts = self._parts()
            if parts == ["healthz"]:
                return self._json(200, {
                    "ok": True,
                    "version": __version__,
                    "epoch": self.server.core.epoch,
                    "hessian_tier": self.server.advertised_tier(),
                    **self.server.core.stats(),
                })
            if parts == ["metrics"]:
                lines = [
                    f"{name} {value:g}"
                    for name, value in sorted(METRICS.snapshot().items())
                ]
                return self._send(
                    200, ("\n".join(lines) + "\n").encode(), "text/plain; charset=utf-8"
                )
            if len(parts) == 3 and parts[:2] == ["api", "blobs"]:
                data = self.server.core.blobs.get(parts[2])
                if data is None:
                    return self._error(404, f"no blob {parts[2]!r}")
                return self._send(200, data, "application/octet-stream")
            return self._error(404, f"unknown path {self.path!r}")
        except Exception as exc:
            self._fail(exc)

    def do_PUT(self) -> None:  # noqa: N802
        try:
            parts = self._parts()
            if len(parts) == 3 and parts[:2] == ["api", "blobs"]:
                if not self._authorized():
                    return
                self.server.core.blobs.put(parts[2], read_body(self))
                return self._json(200, {"ok": True})
            return self._error(404, f"unknown path {self.path!r}")
        except Exception as exc:
            self._fail(exc)

    def do_POST(self) -> None:  # noqa: N802
        try:
            parts = self._parts()
            if not self._authorized():
                return
            core = self.server.core
            if parts[:2] == ["api", "tasks"]:
                action = parts[2] if len(parts) > 2 else ""
                body = self._read_json()
                if action == "" or action == "submit":
                    tasks = body.get("tasks")
                    if not isinstance(tasks, list):
                        return self._error(400, "body needs a 'tasks' list")
                    return self._json(200, core.submit(tasks))
                if action == "pull":
                    reply = core.pull(str(body.get("worker", "")))
                    if reply.get("key") is not None and not reply.get("hessian_tier"):
                        # No explicit tier override: advertise this
                        # coordinator's own blob relay so every worker
                        # coalesces on one shared Hessian tier.
                        reply["hessian_tier"] = self.server.advertised_tier()
                    return self._json(200, reply)
                if action == "renew":
                    code, payload = core.renew(
                        str(body.get("key", "")),
                        str(body.get("lease_id", "")),
                        str(body.get("epoch", "")),
                    )
                    return self._json(code, payload)
                if action == "push":
                    outcome = body.get("outcome")
                    if not isinstance(outcome, dict):
                        return self._error(400, "body needs an 'outcome' object")
                    code, payload = core.push(
                        str(body.get("key", "")),
                        str(body.get("lease_id", "")),
                        str(body.get("epoch", "")),
                        outcome,
                        record=body.get("record"),
                    )
                    return self._json(code, payload)
                if action == "collect":
                    keys = body.get("keys")
                    if not isinstance(keys, list):
                        return self._error(400, "body needs a 'keys' list")
                    return self._json(200, core.collect([str(k) for k in keys]))
                return self._error(404, f"unknown task action {action!r}")
            if parts[:2] == ["api", "blobs"] and len(parts) == 4:
                key, action = parts[2], parts[3]
                body = self._read_json()
                if action == "claim":
                    ttl = float(body.get("ttl", 60.0))
                    return self._json(
                        200, {"owner": bool(core.blobs.claim(key, ttl))}
                    )
                if action == "release":
                    core.blobs.release(key)
                    return self._json(200, {"ok": True})
                return self._error(404, f"unknown blob action {action!r}")
            if parts == ["api", "blobs", "clean"]:
                body = self._read_json()
                removed = core.blobs.clean(body.get("older_than"))
                return self._json(200, {"removed": removed})
            if parts == ["api", "shutdown"]:
                self._json(200, {"ok": True})
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return
            return self._error(404, f"unknown path {self.path!r}")
        except Exception as exc:
            self._fail(exc)


def start_in_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir: Optional[str] = None,
    lease_s: float = DEFAULT_LEASE_S,
    cache_backend: Optional[str] = None,
    hessian_tier: str = "",
    token: Optional[str] = None,
    quiet: bool = True,
) -> Tuple[CoordinatorServer, threading.Thread]:
    """A coordinator on a daemon thread; ``port=0`` picks a free port."""
    if token is None:
        token = os.environ.get(TOKEN_ENV) or None
    if host not in LOOPBACK_HOSTS and not token:
        raise RuntimeError(
            f"refusing to bind {host!r} without authentication; set "
            f"{TOKEN_ENV} (or pass token=) to expose the coordinator beyond "
            f"loopback"
        )
    core = Coordinator(
        cache_dir=cache_dir,
        lease_s=lease_s,
        cache_backend=cache_backend,
        hessian_tier=hessian_tier,
    )
    server = CoordinatorServer((host, port), core, quiet=quiet, token=token)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-dist-coordinator", daemon=True
    )
    thread.start()
    return server, thread


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dist coordinator",
        description="Work-stealing sweep coordinator (queue + claims + blob relay).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--cache-dir", default=".repro-cache",
        help="result cache answering and persisting completed jobs",
    )
    parser.add_argument(
        "--cache-backend", default=None, choices=["auto", "dir", "sqlite"],
        help="record store backend (default: auto-detect / REPRO_CACHE_BACKEND)",
    )
    parser.add_argument(
        "--lease-s", type=float, default=DEFAULT_LEASE_S,
        help="seconds a worker may hold a task without renewing",
    )
    parser.add_argument(
        "--hessian-tier", default="",
        help="tier target advertised to workers (path or sqlite:///http:// "
             "URL); default: this coordinator's own blob relay",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    token = os.environ.get(TOKEN_ENV) or None
    if args.host not in LOOPBACK_HOSTS and not token:
        parser.error(
            f"refusing to bind {args.host!r} without authentication; set "
            f"{TOKEN_ENV} to expose the coordinator beyond loopback"
        )
    core = Coordinator(
        cache_dir=args.cache_dir,
        lease_s=args.lease_s,
        cache_backend=args.cache_backend,
        hessian_tier=args.hessian_tier,
    )
    server = CoordinatorServer(
        (args.host, args.port), core, quiet=not args.verbose, token=token
    )
    print(
        f"repro-dist coordinator on {server.url} "
        f"(cache={args.cache_dir}, lease={args.lease_s:g}s, "
        f"auth={'on' if token else 'off'})"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0
