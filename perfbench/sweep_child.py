"""One iteration of a sweep workload, in a fresh interpreter.

Started by ``run.py`` for every iteration of ``sweep-serial``: sets up the program the way the ``repro-sweep`` CLI
does (``import repro`` and the plugin load), runs the sweep cold against an
empty cache directory, re-runs it warm, checks the outputs, and prints one
JSON line for the parent. ``--setup-only`` stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import TOY_SHAPE, all_finite, as_json, run_perf_helpers, use_source_tree

#: The warm sweep re-runs this long (and at least ``WARM_MIN_RUNS`` times), so
#: its fastest run (``run.end_to_end``) finds the fast mode of a noisy host.
WARM_SECONDS = 6.0
WARM_MIN_RUNS = 15


def sweep_specs(seed: int, toy: bool):
    """The workload's experiments, in a fixed order."""
    from repro.pipeline.spec import SweepSpec

    shape = TOY_SHAPE if toy else {}
    if toy:
        grids = [SweepSpec(families=("opt-6.7b",), methods=("rtn", "microscopiq"),
                           w_bits=(4,), seed=seed, **shape)]
    else:
        grids = [
            SweepSpec(families=("opt-6.7b", "llama2-7b", "llama3-8b"),
                      methods=("rtn", "gptq", "microscopiq"), w_bits=(4, 2), seed=seed),
            SweepSpec(families=("llava1.5-7b", "resnet50", "vmamba-s"),
                      substrates=("vlm", "cnn", "ssm"), methods=("rtn", "microscopiq"),
                      w_bits=(4,), seed=seed),
        ]
    specs = [spec for grid in grids for spec in grid.specs()]
    return SweepSpec.from_specs(specs, seed=seed, **shape)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default="")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    use_source_tree()
    import repro  # noqa: F401
    from repro.plugins import load_plugins

    load_plugins()
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    if args.trace:
        import layers

        layers.install()
    from repro.obs.metrics import METRICS
    from repro.pipeline.runner import run_sweep

    sweep = sweep_specs(args.seed, args.toy)
    traced = bool(args.trace)
    before = METRICS.snapshot()

    def cold_run():
        return run_sweep(sweep, cache_dir=args.cache_dir, executor="serial", trace=traced)

    spans = None
    t0 = time.perf_counter()
    if traced:
        capture, by_name = run_perf_helpers()
        box = {}
        tree = capture("bench:sweep", lambda: box.setdefault("cold", cold_run()))
        cold = box["cold"]
    else:
        cold = cold_run()
    cold_s = time.perf_counter() - t0

    warm_s = []
    checks = failed = 0
    cold_metrics = as_json(cold.metrics_by_hash())
    warm_until = time.perf_counter() + WARM_SECONDS
    while len(warm_s) < WARM_MIN_RUNS or time.perf_counter() < warm_until:
        t0 = time.perf_counter()
        warm = run_sweep(sweep, cache_dir=args.cache_dir, executor="serial", trace=traced)
        warm_s.append(time.perf_counter() - t0)
        checks += 1
        if warm.cache_hits != len(warm.outcomes) or as_json(warm.metrics_by_hash()) != cold_metrics:
            failed += 1

    counters = METRICS.delta(before)
    if traced:
        tree["children"].extend(o.spans for o in cold.outcomes if o.spans)
        spans = by_name(tree)

    for outcome in cold.outcomes:
        checks += 1
        if not outcome.ok or outcome.from_cache or not all_finite(outcome.metrics):
            failed += 1

    print(json.dumps({
        "ready_at": ready_at,
        "jobs": len(cold.outcomes),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "checks": checks,
        "failed": failed,
        "counters": counters,
        "spans": spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
