#!/usr/bin/env python3
"""Repository benchmark: epoch time, traffic and serving latency.

Run one workload (the form BENCHMARK.json's "command" names):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record DIR]

It builds perfbench/ (the library sources of this checkout plus the driver
in perfbench/driver/) into .bench_build/ at Release, runs the workload once
and prints a human-readable report followed, as the last line of standard
output, by one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 is a separate traced replay reporting the per-layer metrics.
--record DIR also saves the full record (outcome, report, provenance).
The exit code is 0 only when every correctness check held.

Repeat runs over seeds, optionally alternating two checkouts, and print the
spread of each end-to-end metric against its bound:

    python3 perfbench/run.py sweep --out DIR [--checkout PATH]... [--workloads a,b]
                                   [--seeds 1-10] [--seconds S] [--trace 0]

Compare a parent and a change result set (directories of --record files,
such as the side0/ and side1/ of a two-checkout sweep):

    python3 perfbench/run.py compare PARENT_DIR CHANGE_DIR

perfbench/metrics.json says what each workload and metric measures and
which end-to-end metric each per-layer metric should move, on which
workload.
"""

import argparse
import hashlib
import json
import math
import os
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
RUN_LIMIT_S = 170  # the whole run must end within 180 s


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then build incrementally; quiet unless it fails."""
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, nproc()))])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), code=1)


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return done.stdout.strip() or None


def provenance(outcome, seed):
    b = outcome["build"]
    threads = max(b["pool_threads"], b["ranks"])
    return {
        "host": socket.gethostname(),
        "nproc": nproc(),
        "compiler": b["compiler"],
        "build_type": b["build_type"],
        "cxx_flags": b["cxx_flags"].strip(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "seed": seed,
        "pool_threads": b["pool_threads"],
        "ranks": b["ranks"],
        "oversubscribed": threads > nproc(),
    }


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    docs = load_json(HERE / "metrics.json")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    started = time.monotonic()
    build()

    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_file = out_dir / f"{tag}.json"
    out_file.unlink(missing_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_file)]
    if args.trace:
        cmd += ["--trace-file", str(out_dir / f"{tag}.trace.json")]
    budget = max(10.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        code = subprocess.run(cmd, timeout=budget).returncode
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {budget:.0f} s", code=1)
    if code == 3 or not out_file.exists():
        fail(f"driver exited {code} without a result", code=1)
    outcome = load_json(out_file)
    prov = provenance(outcome, args.seed)

    failures = list(outcome["failures"])
    if args.trace:
        declared = spec["per_layer"]
        emitted = outcome["layers"]
        unknown = sorted(set(emitted) - {m["name"] for m in declared})
        if unknown:
            failures.append(f"driver emitted undeclared metrics {unknown}")
    else:
        declared = spec["end_to_end"]
        emitted = outcome["e2e"]
    metrics = {}
    for m in declared:
        value = emitted.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value) or (not args.trace and value <= 0):
            failures.append(f"metric {m['name']} has no usable value ({value})")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = max(1, outcome["attempted"])
    failed = outcome["failed"] + (len(failures) - len(outcome["failures"]))
    correct = failed == 0 and code == 0

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print("provenance: " + json.dumps(prov))
    if prov["oversubscribed"]:
        print(f"WARNING: {max(prov['pool_threads'], prov['ranks'])} threads exceed "
              f"nproc={prov['nproc']}")
    if not args.trace:
        print("end-to-end figures (n/a where the workload has no such path):")
        report = dict(outcome["e2e"], **outcome["report"], failed_frac=failed / attempted)
        for m in docs["report_metrics"]:
            print(f"  {m['name']:<24} {fmt(report.get(m['name'])):>14} {m['unit']}")
    print(f"metrics ({'per-layer' if args.trace else 'end-to-end'}):")
    for name, v in metrics.items():
        shown = "0 (layer idle here)" if args.trace and name not in emitted else fmt(v["value"])
        print(f"  {name:<40} {shown:>14} {v['unit']}")
    for key, note in sorted(outcome["notes"].items()):
        print(f"  note {key}: {note}")
    for why in failures:
        print(f"FAILED: {why}")
    print(f"attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        record_dir = Path(args.record)
        record_dir.mkdir(parents=True, exist_ok=True)
        with open(record_dir / f"{tag}.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "result": result, "outcome": outcome, "provenance": prov}, f,
                      indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_records(directory, trace):
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        r = load_json(path)
        if r.get("trace") == trace:
            records[(r["workload"], r["seed"])] = r
    return records


def spread_table(records, spec):
    """Per (workload, metric): median, quartiles and IQR/median vs the bound."""
    for w in sorted({w for w, _ in records}):
        runs = [r for (rw, _), r in sorted(records.items()) if rw == w]
        print(f"{w}: {len(runs)} runs")
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2 if q2 else math.inf
            steady = spread <= m["bound"] / 3 or m["name"] == "setup_s"
            print(f"  {m['name']:<14} median {q2:.6g} {m['unit']}  quartiles "
                  f"[{q1:.6g}, {q3:.6g}]  spread {spread:.4f}  bound {m['bound']}"
                  f"{'' if steady else '  <-- spread above bound/3'}")


def sweep(args):
    spec = load_json(ROOT / "BENCHMARK.json")
    checkouts = [Path(c).resolve() for c in (args.checkout or [str(ROOT)])]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    out = Path(args.out)
    seconds = args.seconds or spec["run_seconds"]
    failures = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = list(enumerate(checkouts))
        if i % 2:
            order.reverse()  # alternate which side runs first
        for w in workloads:
            for side, checkout in order:
                record = out / (f"side{side}" if len(checkouts) > 1 else "")
                cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
                       "--workload", w, "--seed", str(seed), "--seconds",
                       str(seconds), "--trace", str(args.trace),
                       "--record", str(record.resolve())]
                done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
                last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"[{checkout.name}] {w} seed={seed}: exit {done.returncode} {last[0]}",
                      flush=True)
                failures += done.returncode != 0
    if args.trace == 0:
        for side in range(len(checkouts)):
            directory = out / (f"side{side}" if len(checkouts) > 1 else "")
            print(f"\nspread of {directory}:")
            spread_table(load_records(directory, 0), spec)
    sys.exit(1 if failures else 0)


def compare(args):
    """Verdict per (workload, metric) by the paired rule: a gain needs at
    least ten pairs (same seed on both sides), the change winning nine
    tenths of them (ties count for neither) and a median shift larger than
    the parent's interquartile distance; a parent spread wider than the
    bound leaves the metric unresolved unless every change run beats every
    parent run; otherwise a median worse by more than the bound is a
    regression. The report's wall-clock figures follow with no bound: they
    can only read better or unresolved."""
    spec = load_json(ROOT / "BENCHMARK.json")
    docs = load_json(HERE / "metrics.json")
    parent = load_records(args.parent, 0)
    change = load_records(args.change, 0)
    gated = [(m, lambda r, n=m["name"]: r["result"]["metrics"][n]["value"])
             for m in spec["end_to_end"]]
    report = [(dict(m, bound=None), lambda r, n=m["name"]: r["outcome"]["report"].get(n))
              for m in docs["report_metrics"] if m["name"] != "failed_frac"]
    for w in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for (pw, s) in parent if pw == w and (w, s) in change)
        if not seeds:
            continue
        print(f"\n{w}: {len(seeds)} pairs")
        print(f"  {'metric':<14} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32}"
              f" {'change/parent':>14} {'won':>6}  verdict")
        for m, read in gated + report:
            p = [read(parent[(w, s)]) for s in seeds]
            c = [read(change[(w, s)]) for s in seeds]
            if None in p or None in c:
                continue  # a report figure this workload does not have
            print(compare_row(m, p, c))


def compare_row(m, p, c):
    lower, bound = m["better"] == "lower", m["bound"]
    pq1, pq2, pq3 = quartiles(p)
    cq1, cq2, cq3 = quartiles(c)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    won = sum(better(cv, pv) for cv, pv in zip(c, p))
    spread = (pq3 - pq1) / pq2 if pq2 else math.inf
    worse_by = ((cq2 - pq2) if lower else (pq2 - cq2)) / pq2 if pq2 else 0.0
    all_better = all(better(cv, pv) for cv in c for pv in p)
    if len(p) >= 10 and won >= 0.9 * len(p) and abs(cq2 - pq2) > pq3 - pq1:
        verdict = "better"
    elif bound is None:
        verdict = "no claim (not gated)"
    elif spread > bound and not all_better:
        verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
    elif worse_by > bound:
        verdict = f"worse by {worse_by:.3f} > bound {bound}"
    else:
        verdict = f"no change (within bound {bound})"
    return (f"  {m['name']:<14} {pq2:>12.6g} [{pq1:.5g}, {pq3:.5g}] {cq2:>12.6g} "
            f"[{cq1:.5g}, {cq3:.5g}] {cq2 / pq2 if pq2 else math.nan:>8.4f} of "
            f"{pq2:.5g} {m['unit']} {won:>3}/{len(p)}  {verdict}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("sweep", "compare"):
        parser = argparse.ArgumentParser(prog="run.py " + sys.argv[1])
        if sys.argv[1] == "sweep":
            parser.add_argument("--out", required=True)
            parser.add_argument("--checkout", action="append")
            parser.add_argument("--workloads")
            parser.add_argument("--seeds", default="1-10")
            parser.add_argument("--seconds", type=int)
            parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
            sweep(parser.parse_args(sys.argv[2:]))
        else:
            parser.add_argument("parent")
            parser.add_argument("change")
            compare(parser.parse_args(sys.argv[2:]))
        return
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record")
    run_one(parser.parse_args())


if __name__ == "__main__":
    main()
