"""Per-layer timers that the traced benchmark run installs into a repro process.

:func:`install` wraps the public entry point of each layer — model build, eval
corpus, evaluate, quant engine and kernel, Hessian store, ``hw.simulate``,
result cache, scheduler, executor, serve client and dist wire — so that every
call publishes three counters into the program's own ``METRICS`` registry::

    bench.<layer>.s       seconds of the outermost call of that layer
    bench.<layer>.self_s  the part not inside another wrapped layer
    bench.<layer>.calls   outermost calls

Publishing into ``METRICS`` is what carries the numbers home: dist workers
already ship each job's counter delta back on its ``JobOutcome``, and
the daemons expose the registry on ``/api/metrics`` and ``/metrics``. The
program's source is not modified; everything happens by replacing module and
class attributes before the program runs.

A ``job`` frame marks each job kernel. Its self time — job time that no named
layer covers — is what ``unattributed_ratio`` reports.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading
import time
from typing import Any, Callable, List

_local = threading.local()
_installed = False
#: Job hashes whose outcome was already delivered in this process.
_delivered: set = set()


def _stack() -> List[list]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _publish(layer: str, seconds: float, self_seconds: float) -> None:
    from repro.obs.metrics import METRICS

    METRICS.incr(f"bench.{layer}.s", seconds)
    METRICS.incr(f"bench.{layer}.self_s", self_seconds)
    METRICS.incr(f"bench.{layer}.calls")


class _Frame:
    """One open layer call on the calling thread's stack."""

    __slots__ = ("layer", "start", "children", "nested")

    def __init__(self, layer: str) -> None:
        stack = _stack()
        self.layer = layer
        # A layer re-entering itself (hinv -> h, lm build -> build_model)
        # counts once, at its outermost call.
        self.nested = any(f.layer == layer for f in stack)
        self.children = 0.0
        self.start = time.perf_counter()
        stack.append(self)

    def close(self, publish: bool = True) -> float:
        seconds = time.perf_counter() - self.start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        if self.nested:
            return seconds
        if stack:
            stack[-1].children += seconds
        if publish:
            _publish(self.layer, seconds, max(0.0, seconds - self.children))
        return seconds


def timed(layer: str, fn: Callable) -> Callable:
    """``fn`` with each call counted under ``layer``."""
    if getattr(fn, "__perfbench_layer__", None):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = _Frame(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            frame.close()

    wrapper.__perfbench_layer__ = layer
    return wrapper


def timed_stream(layer: str, fn: Callable) -> Callable:
    """A generator function ``fn`` with its whole iteration counted under
    ``layer`` (the caller drains it without calling other layers)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = _Frame(layer)
        try:
            yield from fn(*args, **kwargs)
        finally:
            frame.close()

    return wrapper


def _replace_everywhere(original: Any, replacement: Any) -> None:
    """Rebind every ``repro`` module attribute that refers to ``original``
    (modules import helpers by name, so patching the defining module alone
    would miss their copies)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(module: Any, name: str, layer: str) -> None:
    original = getattr(module, name)
    _replace_everywhere(original, timed(layer, original))


def _wrap_method(cls: type, name: str, layer: str) -> None:
    setattr(cls, name, timed(layer, cls.__dict__[name]))


def _wrap_property(cls: type, name: str, layer: str) -> None:
    prop = cls.__dict__[name]
    setattr(cls, name, property(timed(layer, prop.fget), prop.fset, prop.fdel, prop.__doc__))


def _timed_dispatch(executor: Any, fleet: int) -> Any:
    """Time the executor's outcome stream: each ``next()`` is an ``executor``
    frame, so serial jobs nest inside it and remote waits are counted."""
    from repro.obs.metrics import METRICS

    inner = executor.run

    def run(fn, jobs):
        # The benchmark runs the serial executor and the remote one.
        width = fleet if executor.name == "remote" else 1
        stream = iter(inner(fn, jobs))
        while True:
            frame = _Frame("executor")
            try:
                outcome = next(stream)
            except StopIteration:
                METRICS.incr("bench.executor.capacity_s", width * frame.close())
                return
            except BaseException:
                frame.close()
                raise
            METRICS.incr("bench.executor.capacity_s", width * frame.close())
            # A remote re-run answered from the coordinator's task table
            # repeats the first outcome's seconds but took no worker time.
            job_hash = getattr(outcome.job, "job_hash", None)
            if job_hash is None or job_hash not in _delivered:
                _delivered.add(job_hash)
                METRICS.incr("bench.executor.busy_s", outcome.seconds)
            yield outcome

    executor.run = run
    return executor


def install(fleet: int = 1) -> None:
    """Wrap every layer's entry point in this process (idempotent).

    ``fleet`` is the worker count behind a ``remote`` executor, used for the
    executor's idle time.
    """
    global _installed
    if _installed:
        return
    _installed = True
    import repro.core.substrate as substrate
    import repro.dist.client as dist_client
    import repro.dist.remote  # noqa: F401  (binds executor helpers by name)
    import repro.dist.worker  # noqa: F401
    import repro.eval.corpus as corpus
    import repro.eval.harness  # noqa: F401
    import repro.hw.sim as hw_sim
    import repro.methods as methods
    import repro.methods.resources as resources
    import repro.models.transformer as transformer
    import repro.pipeline.cache as cache
    import repro.pipeline.executor as executor
    import repro.pipeline.scheduler as scheduler
    import repro.quant.engine as engine
    import repro.serve.client as serve_client

    _wrap_function(transformer, "build_model", "models.build")
    _wrap_function(corpus, "eval_corpus", "eval.corpus")
    _wrap_function(corpus, "calibration_tokens", "eval.corpus")
    for name, spec in list(substrate.SUBSTRATES.items()):
        substrate.SUBSTRATES[name] = dataclasses.replace(
            spec,
            build=timed("models.build", spec.build),
            evaluate=timed("eval.evaluate", spec.evaluate),
        )
    _wrap_function(engine, "quantize_model", "quant.engine")
    for cls in {type(spec.make()) for spec in methods.METHODS.values()}:
        if "quantize_layer" in cls.__dict__:
            _wrap_method(cls, "quantize_layer", "quant.kernel")
    _wrap_method(resources.HessianStore, "bundle", "methods.hessian")
    for prop in ("h", "hinv", "u_factor"):
        _wrap_property(resources.HessianBundle, prop, "methods.hessian")
    _wrap_function(hw_sim, "simulate", "hw.simulate")
    _wrap_method(cache.ResultCache, "get", "cache.read")
    _wrap_method(cache.ResultCache, "put", "cache.write")
    _wrap_method(scheduler.SweepScheduler, "_execute", "pipeline")

    make_executor = executor.make_executor

    @functools.wraps(make_executor)
    def timed_make_executor(name: str = "auto", workers=None):
        return _timed_dispatch(make_executor(name, workers), fleet)

    _replace_everywhere(make_executor, timed_make_executor)

    call = executor._call

    @functools.wraps(call)
    def timed_call(fn, job):
        return call(timed("job", fn), job)

    _replace_everywhere(call, timed_call)

    _wrap_method(serve_client.ServeClient, "submit", "serve.submit")
    serve_client.ServeClient.events = timed_stream("serve.wait", serve_client.ServeClient.events)
    _wrap_method(serve_client.ServeClient, "result", "serve.result")
    for name in ("submit_tasks", "collect", "push", "renew"):
        _wrap_method(dist_client.CoordinatorClient, name, "dist.wire")
    pull = dist_client.CoordinatorClient.pull

    @functools.wraps(pull)
    def timed_pull(self, worker: str):
        frame = _Frame("dist.wire")
        reply = None
        try:
            reply = pull(self, worker)
            return reply
        finally:
            # Idle polls of an empty queue are waiting, not wire work.
            frame.close(publish=bool(reply and reply.get("key") is not None))

    dist_client.CoordinatorClient.pull = timed_pull
