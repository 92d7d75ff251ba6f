"""Worker process: loads one workload's inputs and runs its timed jobs.

``run.py`` starts it after writing the inputs, so this process holds the
inputs it loads but none of the generator's state, and its peak RSS is
the workload's.  It caps its own address space, so an out-of-memory
input fails as a MemoryError here and cannot exhaust the machine.  Its
last line of output is one JSON object for ``run.py``.

The closed loop has one caller.  Jobs run in a seeded order, in whole
passes over the pool, so every run measures the same job mix; a new pass
starts while the time so far plus half a pass is short of ``--seconds``,
and always until ``--min-jobs`` jobs have run.  Throughput is bytes over
the time of every job run; the percentiles are over the pool's jobs,
each job's latency its mean over the passes (a pool has at least 100
jobs, so that ten lie beyond the 90th percentile).  With ``--trace 1``
jobs alternate between the null and the recording tracer, each job once
each way per pair of passes, so the tracing overhead is measured on the
same jobs; the pairs fill half of ``--seconds`` and the recorded half
gives the per-layer metrics.  The traced run makes its one-off measurements (the parallel
comparison, the tracemalloc peaks and the depth probe) before its loop.

The worker must end within ``--budget`` seconds of its start.  If the
jobs are so slow that the loop would overrun it, the loop stops after
the job that crosses its hard stop, mid-pass if need be, and the figures
measured so far are reported with ``truncated`` set in the detail.  The
hard stop leaves room for one more job at the per-job limit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

import jobs
import probe
from spans import NullTracer, Tracer, durations, self_times

ADDRESS_SPACE_CAP = 3 << 30
SETUP_REPS = 3  # set-ups per run; setup_s is their median
# The loop's hard stop leaves this much of the budget: one more job at the
# per-job limit, then summing up and writing the result.
RESERVE_S = jobs.JOB_LIMIT_S + 5.0
# Per part of a workload (pools.PARTS).
WARMUP_JOBS = {"docs": 4, "dialects": 4, "edits": 4, "cli": 2}
MAIN_MODULE = {"docs": "core", "dialects": "codec", "edits": "differ", "cli": "cli"}
LABEL = {"docs": "shape", "dialects": "kind", "edits": "mode", "cli": "cmd"}
PROBED_MODULES = {"docs": ("core",), "dialects": ("codec", "grammar"), "edits": ("differ",), "cli": ()}

SELF_S = (
    "core.parse", "core.serialize", "core.eq", "core.clone", "core.walk", "core.edit",
    "core.parse_parallel", "grammar.check_parallel",
    "codec.from_json_typed", "codec.to_json_typed", "codec.to_map", "codec.from_map",
    "grammar.check", "grammar.compile_doc", "grammar.autofix", "grammar.load_grammar",
    "differ.diff", "differ.apply_patch",
)
MODULES = ("core", "codec", "grammar", "differ", "cli")
CLI_COMMANDS = ("version", "fmt", "stats", "from-json", "to-json", "diff", "patch", "check", "compile")


def cap_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


class Run:
    """Counts of one timed phase."""

    def __init__(self):
        self.latencies: "list[float]" = []
        self.bytes = 0
        self.failed = Counter()  # by module
        self.failures: "list[str]" = []
        self.mix: "dict[str, list]" = {}  # label -> [jobs, bytes, seconds]

    def job(self, ctx, item, tr):
        tr.failed_call = None
        start = perf_counter()
        timed = None
        try:
            with jobs.time_limit(jobs.JOB_LIMIT_S):
                timed = tr.call("job", jobs.run, ctx, item, tr)
        except Exception as exc:  # every failure is counted, none stops the run
            module = getattr(exc, "module", None)
            if module is None:
                call = tr.failed_call if tr.failed_call not in (None, "job") else MAIN_MODULE[item["part"]]
                module = call.split(".")[0]
            self.failed[module] += 1
            if len(self.failures) < 10:
                self.failures.append(f"{module}: {type(exc).__name__}: {str(exc)[:300]}")
        elapsed = timed if timed is not None else perf_counter() - start
        self.latencies.append(elapsed)
        self.bytes += item["nbytes"]
        part = item["part"]
        row = self.mix.setdefault(f"{part}:{item[LABEL[part]]}", [0, 0, 0.0])
        row[0] += 1
        row[1] += item["nbytes"]
        row[2] += elapsed
        return elapsed


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def timed_run(ctx, order, seconds, min_jobs, stop_at):
    run, tr = Run(), NullTracer()
    per_item: "dict[int, list[float]]" = {}
    begin = perf_counter()
    passes, truncated = 0, False
    while not truncated:
        start = perf_counter()
        for k in order:
            per_item.setdefault(k, []).append(run.job(ctx, ctx.items[k], tr))
            if perf_counter() >= stop_at:
                truncated = True
                break
        else:
            passes += 1
            now = perf_counter()
            if len(run.latencies) >= min_jobs and now - begin + (now - start) / 2 >= seconds:
                break
    if "cli" in ctx.parts:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # the largest child
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # A job's latency is its mean over the passes, so that the percentiles,
    # like the throughput, average over the host's slow and fast spells
    # rather than jump between them.
    lat = [statistics.fmean(per_item[k]) for k in order if k in per_item]
    metrics = {
        "throughput_mb_s": run.bytes / 1e6 / sum(run.latencies),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_p90_ms": _quantile(lat, 90) * 1e3,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
        "success_rate": 1 - sum(run.failed.values()) / len(run.latencies),
    }
    detail = {"passes": passes, "truncated": truncated, "jobs": len(run.latencies), "distinct_jobs": len(lat),
              "p90_samples_beyond": sum(x > metrics["job_p90_ms"] / 1e3 for x in lat),
              "job_max_ms": max(run.latencies) * 1e3, "bytes": run.bytes, "timed_s": sum(run.latencies),
              "wall_s": perf_counter() - begin, "mix": run.mix}
    return run, metrics, detail


def traced_run(ctx, order, seconds, stop_at):
    run, null, rec = Run(), NullTracer(), Tracer()
    plain = traced = 0.0
    begin = perf_counter()
    passes, truncated = 0, False
    while not truncated:
        start = perf_counter()
        for j, k in enumerate(order):
            if (j + passes) % 2:
                rec.job += 1
                traced += run.job(ctx, ctx.items[k], rec)
            else:
                plain += run.job(ctx, ctx.items[k], null)
            if j and perf_counter() >= stop_at:  # j: at least one job each way
                truncated = True
                break
        else:
            passes += 1
            now = perf_counter()
            # Pairs of passes fill half of --seconds; the one-off
            # measurements before the loop take some of the rest.
            if passes % 2 == 0 and now - begin + 2 * (now - start) > seconds / 2:
                break
    pairs = rec.job / len(order)  # each job runs recorded once per pair of passes
    self_s = self_times(rec.spans)
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) / pairs for name in SELF_S}
    parse_s = self_s.get("core.parse", 0.0)
    metrics["core.parse.mb_s"] = rec.counts["core.parse.bytes"] / 1e6 / parse_s if parse_s else 0.0
    metrics["grammar.check.errors"] = rec.counts["grammar.check.errors"] / pairs
    metrics["differ.diff.patch_lines"] = rec.counts["differ.diff.patch_lines"] / pairs
    for command in CLI_COMMANDS:
        times = durations(rec.spans, "cli." + command)
        metrics[f"cli.{command}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    for module in MODULES:
        metrics[f"{module}.failed"] = run.failed[module]
    metrics["trace.overhead"] = traced / plain - 1
    detail = {"passes": passes, "truncated": truncated, "jobs": len(run.latencies), "spans": len(rec.spans),
              "recorded_s": traced, "plain_s": plain, "mix": run.mix}
    return run, rec, metrics, detail


def compare_parallel(ctx):
    """Time each *_parallel call against its sequential call on the same input."""
    tt, maps = ctx.tt, [it for it in ctx.items if it.get("kind") == "maptl"]
    if not maps:
        return {"core.parse_parallel.vs_parse": 0.0, "grammar.check_parallel.vs_check": 0.0}, {}
    grammar, workers = ctx.grammars["maptl"], ctx.workers
    t = Counter()
    for _ in range(3):
        for item in maps:
            a = perf_counter()
            doc = tt.parse(item["text"])
            b = perf_counter()
            tt.parse_parallel(item["text"], workers)
            c = perf_counter()
            tt.check(doc, grammar)
            d = perf_counter()
            tt.check_parallel(doc, grammar, workers)
            e = perf_counter()
            t["parse"] += b - a
            t["parse_parallel"] += c - b
            t["check"] += d - c
            t["check_parallel"] += e - d
    return ({"core.parse_parallel.vs_parse": t["parse_parallel"] / t["parse"],
             "grammar.check_parallel.vs_check": t["check_parallel"] / t["check"]},
            {"max_workers": workers, "seconds": dict(t)})


def peak_memory(ctx):
    """tracemalloc peak of parse and diff on the workload's largest input to each."""
    tt = ctx.tt
    texts = [it["text"] for it in ctx.items if it["part"] in ("docs", "dialects")]
    pairs = [it for it in ctx.items if it["part"] == "edits"]
    calls = {}
    if pairs:
        big = max(pairs, key=lambda it: it["nbytes"])
        texts = texts or [big["a"]]
        calls["differ.diff"] = (tt.diff, big["doc_a"], big["doc_b"])
    if texts:
        calls["core.parse"] = (tt.parse, max(texts, key=len))
    metrics = {"core.parse.peak_mb": 0.0, "differ.diff.peak_mb": 0.0}
    tracemalloc.start()
    try:
        for name, (fn, *args) in calls.items():
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            metrics[name + ".peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
            del result
    finally:
        tracemalloc.stop()
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds this process may take")
    ap.add_argument("--spans", required=True)
    ap.add_argument("--probe-depth", type=int, required=True)
    ap.add_argument("--min-jobs", type=int, required=True)
    args = ap.parse_args(argv)
    stop_at = perf_counter() + args.budget - RESERVE_S

    cap_address_space()
    sys.path.insert(0, os.path.abspath("src"))
    import treetext as tt

    setup_s, warm = [], Run()
    setup_tracer = Tracer() if args.trace else NullTracer()
    for _ in range(SETUP_REPS):
        ctx = None
        gc.collect()
        start = perf_counter()
        with open(os.path.join(args.workdir, "inputs.json"), encoding="utf-8") as handle:
            items = json.load(handle)
        ctx = jobs.Context(tt, args.workdir, items, setup_tracer)
        smallest = sorted(range(len(items)), key=lambda k: items[k]["nbytes"])
        for part in ctx.parts:
            for k in [k for k in smallest if items[k]["part"] == part][: WARMUP_JOBS[part]]:
                warm.job(ctx, items[k], NullTracer())
        setup_s.append(perf_counter() - start)

    order = list(range(len(ctx.items)))
    random.Random(f"order:{args.seed}").shuffle(order)
    # The loaded inputs are the benchmark's, not the program's: keep them out
    # of the collections the jobs trigger.  Scanning them took about a quarter
    # of the library workload's job time.
    gc.collect()
    gc.freeze()
    out = {"setup_s": setup_s, "warmup_failed": sum(warm.failed.values()), "warmup_failures": warm.failures}
    if args.trace == 0:
        run, metrics, detail = timed_run(ctx, order, args.seconds, args.min_jobs, stop_at)
    else:
        vs, parallel = compare_parallel(ctx)
        peaks = peak_memory(ctx)
        modules = {m for part in ctx.parts for m in PROBED_MODULES[part]}
        names = [n for n in probe.FUNCTIONS if n.split(".")[0] in modules]
        found = probe.run(tt, names, args.probe_depth)
        gc.collect()
        run, rec, metrics, detail = traced_run(ctx, order, args.seconds, stop_at)
        detail.update(parallel=parallel, probe=found)
        load_s = self_times(setup_tracer.spans).get("grammar.load_grammar", 0.0)
        metrics["grammar.load_grammar.self_s"] = load_s / SETUP_REPS
        metrics.update(vs)
        metrics.update(peaks)
        for name in probe.FUNCTIONS:
            metrics[f"{name}.max_ok_depth"] = found[name]["max_ok_depth"] if name in names else 0
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "setup_spans": setup_tracer.spans, "spans": rec.spans}, handle)
    out.update(jobs=len(run.latencies), failed=sum(run.failed.values()), failures=run.failures,
               metrics=metrics, detail=detail)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
