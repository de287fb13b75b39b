"""pairstate benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from ./src; nothing
is installed. The workload's inputs are made from --seed during set-up
(repeated SETUPS times, timed), then operations run back to back while the
next one would end no more than half an operation after --seconds (at
least one runs). Each operation's outputs are checked; a failed check
counts the operation as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
alternates untraced and traced operations: traced ones run with span
wrappers installed around pairstate's public functions (spans.py) and give
the per-layer metrics; the untraced ones give the tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}. The
line before it is the full record: environment, seeds, every metric with
quartiles and sample count, and the failures; the same record is written
to .bench_out/. Scratch data goes to .bench_work/ and is removed on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3


def _pin_blas_threads() -> int:
    """At most one BLAS thread per usable CPU; set before numpy loads."""
    usable = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(asked) if asked.isdigit() and int(asked) > 0 else usable, usable)
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return threads


def _blas_threads_in_effect() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps", encoding="utf-8") as f:
        for line in f:
            path = line.split()[-1]
            if "openblas" in path.lower() and path.startswith("/"):
                libs.add(path)
    found = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment(threads: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads_requested": threads,
                 "threads_in_effect": _blas_threads_in_effect()},
        "jobs": 1,
    }


def summary(values, unit) -> dict:
    """Median ("value"), quartiles and sample count."""
    if not values:
        return {"value": 0.0, "unit": unit, "q1": 0.0, "q3": 0.0, "n": 0}
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def run_ops(workload, work: Path, seconds: float, tracer=None) -> list:
    """Closed loop of operations; with a tracer, rounds of one untraced and
    one traced operation.

    Returns one record per operation: main and follow-up seconds, wall
    seconds, whether traced, and the error if it failed.
    """
    records = []
    start = perf_counter()
    rounds = 0
    while True:
        # alternate which half of a traced round goes first, so drift
        # within the run does not bias the overhead estimate
        order = (False,) if tracer is None else \
            (False, True) if rounds % 2 == 0 else (True, False)
        for traced in order:
            k = len(records)
            out = work / f"op{k}"
            rec = {"op": k, "traced": traced, "error": None}
            gc.collect()
            t0 = perf_counter()
            if traced:
                tracer.install()
                span = tracer.begin_op(k)
            try:
                rec["main"], rec["follow"] = workload.op(out)
            except Exception as e:        # counted as a failed operation
                rec["error"] = f"{type(e).__name__}: {e}"
            finally:
                if traced:
                    tracer.end_op(span)
                    tracer.uninstall()
            rec["wall"] = perf_counter() - t0
            if rec["error"] is None:
                try:
                    workload.check(out)
                except Exception as e:
                    rec["error"] = f"{type(e).__name__}: {e}"
            records.append(rec)
        rounds += 1
        elapsed = perf_counter() - start
        # stop when the next round would end more than half a round late
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pairstate" / "__init__.py").is_file():
        print(f"error: no pairstate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    # a terminated run still removes its scratch directory (finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    records_doc = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setup_s = []
        for k in range(SETUPS):
            workload = workloads.WORKLOADS[args.workload](args.seed)
            t0 = perf_counter()
            workload.setup(work / "setup")
            setup_s.append(perf_counter() - t0)
        tracer = spans.Tracer() if args.trace else None
        ops = run_ops(workload, work / "ops", args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [{"op": r["op"], "error": r["error"]} for r in ops if r["error"]]
    good = [r for r in ops if not r["error"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(threads),
        "seeds": workload.seeds(), "workload_record": records_doc[args.workload],
        "readouts": workload.readouts, "output_sha256": workload.reference,
    }
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    if args.trace:
        plain = [r["wall"] for r in good if not r["traced"]]
        traced = [r for r in good if r["traced"]]
        breakdowns = [tracer.breakdown(r["op"]) for r in traced]
        per_op = [spans.layer_metrics(b) for b in breakdowns]
        for r, m in zip(traced[1:], per_op[1:]):   # computed counts repeat exactly
            varied = [n for n in spans.COMPUTED if m[n] != per_op[0][n]]
            if varied:
                failures.append({"op": r["op"], "error": f"computed counts {varied} "
                                 "differ from the first traced operation"})
        overhead = (statistics.median(r["wall"] for r in traced) - statistics.median(plain)
                    if traced and plain else 0.0)
        names = list(per_op[0]) if per_op else [n for n in units if n != "trace.overhead_s"]
        metrics = {name: summary([m[name] for m in per_op], units[name]) for name in names}
        metrics["trace.overhead_s"] = summary([overhead], "s")
        record["computed"] = list(spans.COMPUTED)
        record["self_s"] = {name: statistics.median(b["self"].get(name, 0.0)
                                                    for b in breakdowns)
                            for name in sorted({s[0] for s in tracer.spans})} if traced else {}
        results.mkdir(exist_ok=True)
        tracer.dump(results / f"{tag}-spans.csv")
    else:
        mains = [r["main"] for r in good]
        follows = [r["follow"] for r in good]
        totals = [m + f for m, f in zip(mains, follows)]
        op_s = summary(totals, "s")
        # the gated value is the mean: a run that spans a slow and a fast
        # phase of a shared host reads between the two, where the median
        # jumps to whichever phase held more operations
        op_s.update(value=statistics.fmean(totals) if totals else 0.0,
                    median=op_s["value"])
        metrics = {
            "op_s": op_s,
            "setup_s": summary(setup_s, "s"),
            "peak_rss_mb": summary(
                [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MB"),
        }
        record["named"] = {name: summary(vals, unit) for name, (vals, unit)
                           in workload.named_samples(mains, follows).items()}
        record["named"]["failed_frac"] = summary([len(failures) / len(ops)], "fraction")

    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise SystemExit(f"metrics disagree with BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}")
    record.update(metrics=metrics, attempted=len(ops), failures=failures,
                  ops=[{k: r.get(k) for k in ("op", "traced", "main", "follow", "wall")}
                       for r in ops])
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": len(ops), "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
