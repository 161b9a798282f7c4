"""Benchmark for frobstab: one workload per process, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
The process imports the package, generates the workload's inputs from
the seed, sets up (loads and validates the inputs, as every CLI command
does) several times, makes one untimed pass, then repeats the workload's
query list, in an order drawn from the seed, for S seconds on one thread.  Every answer is
checked.  The last line of stdout is one JSON object: `correct`,
`attempted`, `failed` (query runs) and `metrics`, whose names and units
come from BENCHMARK.json.

Times are scaled to a fixed machine speed.  On a shared cloud VM (2 vCPUs
of a 2.1 GHz Xeon, measured) the speed of pure-Python code drifts by up to
about 1.7x over tens of seconds, so raw wall times of one run say as much
about the neighbours as about the code.  A short reference slice (exact
row reduction in the benchmark's own code, which no change to the package
can touch) runs before and after every query and every set-up; each query
or set-up time is multiplied by REF_SECONDS / (the mean time of the two
slices around it).  The result reads as seconds on a machine where the
slice takes REF_SECONDS.  Raw wall times go to stderr.

--trace 0 reports the end-to-end metrics: the median scaled pass time,
the median scaled set-up time and the memory high-water mark after the
untimed pass (each process runs one workload, so no other workload's peak
leaks in).  --trace 1 spends a third of the time on untraced passes, then
traces one set-up and the remaining passes (see spans.py) and reports the
per-layer metrics: the median over traced passes of one set-up plus one
pass, and the tracing overhead.

Other modes: `--size tiny` runs small instances (the smoke test uses
it), and `--record-digests` rewrites digests.json from the current code.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up repeats at least SETUP_REPS times and for at least SETUP_SECONDS,
# so that millisecond set-ups still give a steady median.
SETUP_REPS = 5
SETUP_SECONDS = 1.5
# Nominal duration of one reference slice (about its time on a quiet
# 2-vCPU 2.1 GHz Xeon VM under CPython 3.11).
REF_SECONDS = 0.02

import inputs as I  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

_REF_RNG = random.Random(20180123)
_REF_GF = [[_REF_RNG.randrange(7) for _ in range(48)] for _ in range(48)]
_REF_Q = [[_REF_RNG.randrange(-3, 4) for _ in range(11)] for _ in range(11)]


def reference_slice() -> float:
    """Wall time of a fixed exact row reduction over GF(7) and over Q.

    The garbage collector is paused so that a collection of the workload's
    heap is never charged to the slice.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        I.rref(_REF_GF, 48, 7)
        I.rref(_REF_Q, 11, 0)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_load(impl, pkg, gen):
    """One set-up between two reference slices: the loaded inputs, the
    wall time and the scaled time."""
    before = reference_slice()
    t0 = time.perf_counter()
    loaded = impl.load(pkg, gen)
    wall = time.perf_counter() - t0
    return loaded, wall, 2 * REF_SECONDS * wall / (before + reference_slice())


class Tally:
    """Query runs attempted and failed over a whole run, with failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []


class Passes:
    """Per-pass times: `wall` in seconds, `scaled` to the reference speed,
    and, when traced, the span stats of each pass."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.stats: list[dict] = []


def run_passes(queries, seconds: float, tally: Tally, tracer=None) -> Passes:
    """Run passes over the query list until `seconds` have passed (at
    least one pass).  Every answer is checked into `tally`.  A pass's time
    covers the query calls only, not the checks or reference slices.
    """
    out = Passes()
    deadline = time.perf_counter() + seconds
    while not out.wall or time.perf_counter() < deadline:
        gc.collect()
        walls, slices = [], [reference_slice()]
        for q in queries:
            t0 = time.perf_counter()
            try:
                res = tracer.run(q.call) if tracer else q.call()
            except Exception as e:  # counted as a failed query
                res = e
            walls.append(time.perf_counter() - t0)
            slices.append(reference_slice())
            bad = q.failures(res)
            tally.attempted += 1
            tally.failed += bool(bad)
            tally.messages += bad
        out.wall.append(sum(walls))
        out.scaled.append(sum(2 * REF_SECONDS * w / (slices[i] + slices[i + 1])
                              for i, w in enumerate(walls)))
        if tracer:
            out.stats.append(tracer.reset())
    return out


def layer_metrics(names, setup, traced: Passes, untraced: Passes) -> dict:
    """Per-layer values for one set-up plus one pass, medians over traced
    passes.  `setup` is the set-up's span stats and time scale; span times
    are scaled like the set-up or pass they fall in."""
    per_pass = []
    for ps, wall, scaled in zip(traced.stats, traced.wall, traced.scaled):
        vals = {}
        for name in names:
            span, stat = name.rsplit(".", 1)
            if span == "trace":
                continue

            def total(key):
                return sum(st.get(span, {}).get(key, 0.0) * (f if key.endswith("_s") else 1)
                           for st, f in (setup, (ps, scaled / wall)))

            if stat == "rank_frac":
                rows = total("rows")
                vals[name] = total("rank") / rows if rows else 0.0
            else:
                vals[name] = total(stat)
        root = ps[spans.ROOT]
        vals["trace.attributed_frac"] = 1.0 - root["self_s"] / root["total_s"]
        per_pass.append(vals)
    out = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    out["trace.solve_s"] = statistics.median(traced.scaled)
    out["trace.overhead_s"] = out["trace.solve_s"] - statistics.median(untraced.scaled)
    return {name: out[name] for name in names}


def run(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    impl = W.WORKLOADS[args.workload]()
    digests = W.read_digests().get(args.size, {}).get(args.workload, {})

    pkg = importlib.import_module("frobstab")
    gen = impl.generate(pkg, args.seed, args.size)
    setup_wall, setup_scaled = [], []
    deadline = time.perf_counter() + SETUP_SECONDS
    while len(setup_wall) < SETUP_REPS or time.perf_counter() < deadline:
        gc.collect()
        loaded, wall, scaled = timed_load(impl, pkg, gen)
        setup_wall.append(wall)
        setup_scaled.append(scaled)
    queries = impl.queries(pkg, loaded, gen, digests)
    # One untimed pass in the workload's own order fixes the memory
    # high-water mark: later passes, in the seed's order, only add heap
    # fragmentation that varies with the order and the number of passes.
    tally = Tally()
    run_passes(queries, 0.0, tally)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    random.Random(args.seed).shuffle(queries)

    if not args.trace:
        passes = run_passes(queries, args.seconds, tally)
        values = {
            "solve_s": statistics.median(passes.scaled),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = spec["end_to_end"]
        summary = (f"solve_s {values['solve_s']:.4f} (scaled), wall per pass "
                   f"{[round(t, 3) for t in passes.wall]}")
    else:
        untraced = run_passes(queries, args.seconds / 3, tally)
        tracer = spans.Tracer()
        tracer.install()
        try:
            _, wall, scaled = timed_load(impl, pkg, gen)
            setup = (tracer.reset(), scaled / wall)
            passes = run_passes(queries, args.seconds * 2 / 3, tally, tracer)
        finally:
            tracer.uninstall()
        metrics = spec["per_layer"]
        values = layer_metrics([m["name"] for m in metrics], setup, passes, untraced)
        summary = (f"{len(untraced.wall)} untraced; traced solve_s "
                   f"{values['trace.solve_s']:.4f} (scaled), overhead "
                   f"{values['trace.overhead_s']:.4f}, attributed "
                   f"{values['trace.attributed_frac']:.3f}")
    print(f"{args.workload} seed={args.seed} size={args.size}: {len(passes.wall)} passes of "
          f"{len(queries)} queries, {summary}; {len(setup_wall)} set-ups, median "
          f"{statistics.median(setup_wall):.4f} s wall, {statistics.median(setup_scaled):.4f} "
          f"scaled; {tally.failed} failed", file=sys.stderr)
    for msg in tally.messages[:10]:
        print(f"  FAIL {msg}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def record_digests() -> None:
    """Write digests.json from one pass of every workload at every size."""
    out = {}
    for size in ("full", "tiny"):
        for name, cls in W.WORKLOADS.items():
            impl = cls()
            pkg = importlib.import_module("frobstab")
            gen = impl.generate(pkg, 0, size)
            recorded = {}
            for q in impl.queries(pkg, impl.load(pkg, gen), gen, {}):
                res = q.call()
                if "digest" in q.want:
                    recorded[q.qid] = q.observe(res)["digest"]
                    del q.want["digest"]
                for msg in q.failures(res):
                    print(f"warning: {msg}", file=sys.stderr)
            out.setdefault(size, {})[name] = dict(sorted(recorded.items()))
    with open(W.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "frobstab", "__init__.py")):
        print(f"error: no frobstab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
