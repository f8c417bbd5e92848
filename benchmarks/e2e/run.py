#!/usr/bin/env python3
"""The repo benchmark: five workloads, end-to-end metrics, a traced run.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this (fresh) process.  Prints every metric by name
    with its unit, then one JSON object as the last line: the
    ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, the
    ``per_layer`` metrics with ``--trace 1``.  Exits non-zero when an
    output check fails.  With ``--setup-only`` it prints its set-up time
    and exits: the run's own way to time set-up in more fresh processes.

``run.py [--workloads a,b] [--seed N] [--trace] [--check] [--list]``
    Runs each workload in its own subprocess, prints the table and
    writes ``out/e2e-seed<N>.json`` (and ``out/trace-<workload>.json``
    with ``--trace``).  ``--check`` runs the set twice in alternating
    order and compares the two against the bounds in ``BENCHMARK.json``.

All loops are closed-loop and single-process; the only concurrency is
the program's own worker pool, at ``min(2, nproc)`` workers.
"""

from __future__ import annotations

import os

# Before numpy loads: serial training showed cpu > wall from BLAS threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")

#: fresh processes whose set-up is timed: this one and SETUP_REPS - 1 more
SETUP_REPS = 3
MIN_PASSES = 3
#: passes before and after switching spans on, in a traced run
TRACE_PASSES = 2


def load_spec() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def _summary(values: list[float], unit: str) -> dict:
    """Median with quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit,
            "n": len(values), "q1": q1, "q3": q3, "samples": values}


def timed_pass(workload, tracer) -> dict:
    gc.collect()                      # between passes; GC stays on inside
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    result = workload.run_pass(tracer)
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": _cpu_seconds() - cpu0, "result": result}


# -- one workload, in this process -----------------------------------------------------

@contextlib.contextmanager
def prepared(name: str, seed: int):
    """The workload after set-up and how long ``prepare`` took, in a
    temp dir that goes away on exit."""
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"tmp-{name}-", dir=OUT)
    # Anything the program writes by default lands here, never in ~/.cache.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    os.environ["REPRO_FAILURES_DIR"] = os.path.join(tmp, "failures")
    workload = WORKLOADS[name](seed, min(2, os.cpu_count() or 1), tmp)
    try:
        t0 = time.perf_counter()
        workload.prepare()
        yield workload, time.perf_counter() - t0
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)


def fresh_setup_s(name: str, seed: int, src: str) -> float:
    """Set-up time (import + prepare) of one more fresh process, so
    every sample is as cold as the first."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--src", src, "--setup-only"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return float(proc.stdout)


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float, src: str) -> dict:
    """Set up, run and check one workload; returns its document."""
    from layers import Tracer

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    with prepared(name, seed) as (workload, prepare_s):
        # GC stays on, but what imports and set-up left alive is taken
        # out of its reach: a full collection over that heap takes 5 ms,
        # is memory-bound, and 21 of them a pass made run medians of
        # grid-warm (and sim-manyflow) drift 3-5 % with the host's cache
        # load.
        gc.collect()
        gc.freeze()
        off = Tracer(name, enabled=False)
        count = TRACE_PASSES if trace else \
            max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
        passes = [timed_pass(workload, off) for _ in range(count)]
        doc = {"workload": name, "op": workload.op, "seed": seed,
               "workers": workload.workers, "passes": count}
        results = [p["result"] for p in passes]

        if trace:
            tracer = Tracer(name)
            traced = [timed_pass(workload, tracer)
                      for _ in range(TRACE_PASSES)]
            results += [p["result"] for p in traced]
            doc["layers"] = layer_metrics(spec, workload, passes, traced,
                                          tracer.spans)
            with open(os.path.join(OUT, f"trace-{name}.json"), "w") as fh:
                json.dump({"workload": name, "seed": seed,
                           "spans": tracer.spans}, fh)

        errors = [e for r in results for e in r.errors]
        errors += workload.verify(results)
        peak_rss_mb = _peak_rss_mb()      # before the set-up children
    # Only the untraced run reports set-up, so only it repeats it.
    setup = [import_s + prepare_s] + [
        fresh_setup_s(name, seed, src)
        for _ in range(0 if trace else SETUP_REPS - 1)]
    attempted = sum(r.attempted for r in results)
    # A failed operation also leaves a line in ``errors``; a failed
    # cross-pass check leaves only the line.
    failed = min(max(sum(r.failed for r in results), len(errors)), attempted)
    doc.update(
        attempted=attempted, failed=failed, checks_failed=errors,
        digest=results[0].fingerprint,
        metrics={
            "wall_s": _summary([p["wall"] for p in passes], units["wall_s"]),
            "ops_per_s": _summary(
                [p["result"].ops / p["wall"] for p in passes],
                units["ops_per_s"]),
            "cpu_us_per_op": _summary(
                [p["cpu"] * 1e6 / max(p["result"].ops, 1) for p in passes],
                units["cpu_us_per_op"]),
            "peak_rss_mb": _summary([peak_rss_mb], units["peak_rss_mb"]),
            "setup_s": _summary(setup, units["setup_s"]),
            # Not in BENCHMARK.json: a bounded metric may never read 0.
            "fail_ratio": _summary([failed / attempted], "ratio"),
        })
    return doc


def layer_metrics(spec, workload, untraced, traced, spans) -> dict:
    """Every ``per_layer`` metric: the battery's unit costs, this
    workload's counts and shares, and 0 for layers it never enters."""
    from layers import probe_all

    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    wall = statistics.median(p["wall"] for p in traced)
    cpu = statistics.median(p["cpu"] for p in traced)
    values = probe_all(workload.seed, workload.workers, workload.tmp)
    values.update(workload.attribute(values, traced[-1]["result"], cpu, wall,
                                     spans))
    values["unattributed_share"] = max(
        1.0 - sum(v for k, v in values.items() if k.startswith("share.")),
        0.0)
    values["trace_overhead_ratio"] = \
        wall / statistics.median(p["wall"] for p in untraced)
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"layer metrics not in BENCHMARK.json: {unknown}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()}


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(args.src, "repro")):
        print(f"no program to measure: {args.src}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments.harness  # noqa: F401
    import repro.netio  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.scale  # noqa: F401
    import repro.train  # noqa: F401
    import_s = time.perf_counter() - t0

    if args.setup_only:
        with prepared(args.workload, args.seed) as (_, prepare_s):
            print(import_s + prepare_s)
        return 0
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  import_s, args.src)
    shown = doc["layers"] if args.trace else doc["metrics"]
    print(f"{doc['workload']}  seed={doc['seed']}  passes={doc['passes']}  "
          f"op={doc['op']}  digest={doc['digest'][:16]}")
    for name, m in shown.items():
        spread = f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}" \
            if "n" in m else ""
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}{spread}")
    for line in doc["checks_failed"]:
        print(f"  CHECK FAILED: {line}")
    if args.doc:
        with open(args.doc, "w") as fh:
            json.dump(doc, fh, indent=1)
    wanted = load_spec()["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": {m["name"]: {"value": shown[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if doc["failed"] == 0 else 1


# -- the whole set, one subprocess per workload ------------------------------------------

def run_child(name: str, args, trace: int, src: str) -> dict:
    fd, path = tempfile.mkstemp(prefix=f"doc-{name}-", suffix=".json",
                                dir=OUT)
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(trace), "--src", src, "--doc", path],
            stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stdout.flush()
        with open(path) as fh:
            text = fh.read()
        if not text:
            raise RuntimeError(f"{name} exited {proc.returncode} "
                               f"without a result")
        return json.loads(text)
    finally:
        os.remove(path)


def run_set(names, args, src: str) -> dict:
    docs = {}
    for name in names:
        docs[name] = run_child(name, args, 0, src)
        if args.trace:
            docs[name]["layers"] = run_child(name, args, 1, src)["layers"]
    return docs


def worsening(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` reads than ``a``, as a share of ``a``."""
    delta = (b - a) if metric["better"] == "lower" else (a - b)
    return delta / a


def check(names, args, spec) -> int:
    """Two sets of runs, alternating order, judged by the bounds.

    Without ``--against`` both sets run this tree, so a difference in
    either direction counts; with it, set A runs the other tree and only
    a worsening from A to B counts.
    """
    first = run_set(names, args, args.against or args.src)
    second = run_set(list(reversed(names)), args, args.src)
    failed = False
    print(f"\n{'workload':14s} {'metric':15s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'bound':>6s}  verdict")
    for name in names:
        for metric in spec["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]
            b = second[name]["metrics"][metric["name"]]
            worse = worsening(metric, a["value"], b["value"])
            if not args.against:
                worse = abs(worse)
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
            if worse <= metric["bound"]:
                verdict = "pass"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict, failed = "FAIL", True
            print(f"{name:14s} {metric['name']:15s} {a['value']:12.5g} "
                  f"{b['value']:12.5g} {worse:8.1%} {metric['bound']:6.0%}  "
                  f"{verdict}")
        for label, docs in (("A", first), ("B", second)):
            if docs[name]["failed"]:
                failed = True
                print(f"{name:14s} fail_ratio      set {label}: "
                      f"{docs[name]['failed']}/{docs[name]['attempted']}  FAIL")
    return 1 if failed else 0


def run_all(args) -> int:
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.list:
        for w in spec["workloads"]:
            print(f"{w['name']:14s} {w['why']}")
        return 0
    names = args.workloads.split(",") if args.workloads else known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    load = os.getloadavg()[0]
    if load > (os.cpu_count() or 1):
        print(f"load average {load:.2f} exceeds the core count; timings "
              f"would measure the neighbours", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.check:
        return check(names, args, spec)
    docs = run_set(names, args, args.src)
    path = os.path.join(OUT, f"e2e-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "workloads": docs}, fh, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    return 1 if any(d["failed"] for d in docs.values()) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="per-layer metrics from a traced run")
    parser.add_argument("--check", action="store_true",
                        help="run the set twice and compare to the bounds")
    parser.add_argument("--against", metavar="SRC",
                        help="with --check: set A measures this source tree")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="source tree holding the repro package")
    parser.add_argument("--doc", help="also write the workload document here")
    parser.add_argument("--setup-only", action="store_true",
                        help="with --workload: print the set-up time and exit")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
