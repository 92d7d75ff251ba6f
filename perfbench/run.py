"""The treetext benchmark.

    python3 perfbench/run.py --workload <library|cli|docs|dialects|edits|all>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a treetext checkout; it imports the library
from ``src`` and writes only under ``.perfbench_out/``.  The inputs come
from ``--seed`` alone, and treetext sees nothing but those inputs.

Workloads (each a closed loop with one caller; a job is one user-level
unit of work):

* ``docs``: one document per job through parse, a ``serialize == text``
  check, node_count/max_depth, four path edits, serialize, clone, ``==``
  and a re-parse.  Heavy-tailed sizes (20 to 100k lines) and shapes
  (mixed depth, wide-flat, ragged with blank lines, surplus indent, tabs
  and CR, and deep up to 300 levels).  Core only: the bypass for codec,
  grammar and differ changes.
* ``dialects``: JsonTL values through from_json_typed, serialize, parse,
  check, compile_doc and to_json_typed (a share with injected tag typos
  goes through autofix instead, a share with escaped and multi-line
  strings through the codec only), plus a minority of MapTL maps through
  parse_parallel, check_parallel, to_map, from_map and compile_doc.
* ``edits``: one (a, b) pair per job through diff, serialize and re-parse
  of the patch, and apply_patch; identical pairs, few edits and heavy
  rewrites, sibling lists up to 2000 nodes.
* ``library``: the docs, dialects and edits jobs together in one loop,
  so every library module is measured in one long run.
* ``cli``: one ``python -m treetext.cli`` subprocess per job over a fixed
  mix of all nine commands, files up to ~100 KB and stdin.

``BENCHMARK.json`` gates on ``library`` and ``cli`` only.  On a shared
2-core host the CPU speed drifts by tens of percent over minutes, so the
gate needs the longest runs its time allows, and two workloads allow
about twice the run length of four.  The per-module workloads stay for
looking at one module alone, and ``all`` runs every workload.

End-to-end metrics (``--trace 0``), per workload: ``throughput_mb_s``
(input bytes per second of timed job time), ``job_p50_ms`` and
``job_p90_ms`` (over the pool's jobs, each job's latency its mean over
the passes), ``peak_rss_mb`` (the worker that runs the jobs; for
``cli`` its largest child), ``success_rate`` (1 - error_rate; the error
rate and its base are printed too) and ``setup_s`` (median of three
set-ups: input generation and writing, loading, grammar loading and
warm-up).

The traced run (``--trace 1``) alternates recorded and unrecorded jobs
and reports per-layer metrics from the spans: self time per pass over
the pool for each public call, parse MB/s, error and patch-line counts,
failures per module, per-command CLI medians, the ``*_parallel`` time
ratios, tracemalloc peaks, each function's deepest working chain
(``max_ok_depth``) and ``trace.overhead``.  A metric of a module the
workload does not call reads 0.  Spans, shape profile, machine facts and
per-class job split go to ``.perfbench_out/``.

The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import gen
import jobs
import pools
import probe
import worker

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
# A workload ends within max(DEADLINE_S, --seconds + 60 s) plus GRACE_S.
DEADLINE_S = 165.0
GRACE_S = 10.0  # beyond its budget before a worker that has not stopped itself is killed

END_TO_END = {
    "throughput_mb_s": "MB/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "setup_s": "s",
}


def per_layer_names() -> "list[str]":
    names = [f"{n}.self_s" for n in worker.SELF_S]
    names += ["core.parse.mb_s", "core.parse_parallel.vs_parse", "grammar.check_parallel.vs_check",
              "grammar.check.errors", "differ.diff.patch_lines", "core.parse.peak_mb", "differ.diff.peak_mb"]
    names += [f"{m}.failed" for m in worker.MODULES]
    names += [f"cli.{c}.p50_ms" for c in worker.CLI_COMMANDS]
    names += [f"{n}.max_ok_depth" for n in probe.FUNCTIONS]
    names.append("trace.overhead")
    return names


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "mb_s": "MB/s", "peak_mb": "MB", "p50_ms": "ms", "vs_parse": "ratio",
            "vs_check": "ratio", "overhead": "ratio", "max_ok_depth": "levels"}.get(suffix, "count")


class BenchError(Exception):
    pass


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _texts(items, files):
    texts = list(files.values())
    for it in items:
        if it["part"] == "edits":
            texts += [it["a"], it["b"]]
        elif it["part"] != "cli":
            texts.append(it.get("typo_text", it["text"]))
    return texts


def machine() -> dict:
    return {"nproc": jobs.nproc(), "cpu_count": os.cpu_count(), "max_workers": jobs.nproc(),
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def run_workload(name, seed, seconds, trace, tiny=False):
    began = perf_counter()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{name}-{seed}-{trace}-{os.getpid()}")
    spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.json")
    generate_s, digests = [], set()
    try:
        for _ in range(worker.SETUP_REPS):
            start = perf_counter()
            items, files = pools.build(name, seed, tiny)
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            for fname, text in files.items():
                _write(os.path.join(workdir, fname), text)
            blob = json.dumps(items, ensure_ascii=False)
            _write(os.path.join(workdir, "inputs.json"), blob)
            generate_s.append(perf_counter() - start)
            digests.add(hashlib.sha256(blob.encode("utf-8")).hexdigest())
        shape = gen.profile(_texts(items, files))
        shape["jobs"] = len(items)
        del items, files, blob
        # The worker stops its own loop in time to end within its budget.
        budget = max(DEADLINE_S, seconds + 60.0) - (perf_counter() - began)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--budget", str(budget), "--spans", spans_path,
               "--probe-depth", str(1500 if tiny else probe.MAX_DEPTH), "--min-jobs", str(10 if tiny else 100)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget + GRACE_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker did not stop within {budget + GRACE_S:.0f} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        out = json.loads(lines[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(out["metrics"])
    names = list(END_TO_END) if trace == 0 else per_layer_names()
    if trace == 0:
        metrics["setup_s"] = statistics.median(g + w for g, w in zip(generate_s, out["setup_s"]))
    result = {
        "correct": out["failed"] == 0 and out["warmup_failed"] == 0 and len(digests) == 1,
        "attempted": out["jobs"],
        "failed": out["failed"],
        "metrics": {n: {"value": metrics[n], "unit": unit(n)} for n in names},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine(),
              "shape": shape, "setup": {"generate_s": generate_s, "load_s": out["setup_s"]},
              "deterministic_inputs": len(digests) == 1, "failures": out["failures"],
              "warmup_failures": out["warmup_failures"], "detail": out["detail"], "result": result}
    _write(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{trace}.json"), json.dumps(record, indent=1))
    return result, record


def report(name, result, record):
    print(f"{name:9s} machine {json.dumps(record['machine'])}")
    print(f"{name:9s} shape   {json.dumps(record['shape'])}")
    for metric, m in result["metrics"].items():
        print(f"{name:9s} {metric:34s} {m['value']:14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name:9s} {'error_rate':34s} {failed / attempted:14.6g} ratio ({failed} of {attempted} jobs)")
    if record["trace"] == 0:
        print(f"{name:9s} {'p90 samples':34s} {record['detail']['p90_samples_beyond']:14d} jobs beyond p90")
    if record["detail"]["truncated"]:
        print(f"{name:9s} loop stopped early to end within the time limit; figures cover the jobs run")
    for fn, found in record["detail"].get("probe", {}).items():
        if not found["complete"]:
            print(f"{name:9s} probe of {fn} ran out of time; max_ok_depth is the depth proven so far")
    for failure in record["failures"] + record["warmup_failures"]:
        print(f"{name:9s} FAILED {failure}")


def selftest() -> int:
    """Tiny sizes: all workloads, plain and traced, and a shallow probe."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in pools.WORKLOADS:
        for trace in (0, 1):
            result, record = run_workload(name, 1, 0.5, trace, tiny=True)
            report(name, result, record)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: error_rate {result['failed']}/{result['attempted']}")
            if trace and not os.path.getsize(os.path.join(OUT_DIR, f"{name}-seed1-spans.json")):
                problems.append(f"{name}: no spans written")
    for problem in problems:
        print("selftest:", problem)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="treetext benchmark")
    ap.add_argument("--workload", default="all", choices=pools.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true", help="run every workload at tiny sizes and check the output")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "treetext", "__init__.py")):
        print("perfbench: src/treetext not found; run from the root of a treetext checkout", file=sys.stderr)
        return 2
    try:
        if args.selftest:
            return selftest()
        names = pools.WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, args.trace)
            report(name, result, record)
            results.append((name, result))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
