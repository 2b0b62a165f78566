"""sheetsmith benchmark: one workload per run, outputs checked, metrics printed.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare before.json after.json

A run first times SETUPS fresh set-ups (a new interpreter imports sheetsmith
from ./src and does one warm-up operation), then builds the workload's inputs
from the seed and runs whole rounds of operations in this process (in fresh
child processes for ``cli``, one at a time) until ``--seconds`` have passed.
Every output is checked against the benchmark's own computation. The last line
of stdout is one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json lists, end-to-end ones with ``--trace 0`` and per-layer ones
with ``--trace 1``. The run is also appended to a result file (``--out``) and
a traced run writes its spans to perfbench/out/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS = 9  # fresh set-ups per run; setup_s is their median


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def timed(call):
    """(result, seconds at reference speed, raw seconds) of ``call()``."""
    before = calibrate.kernel()
    started = perf_counter()
    result = call()
    took = perf_counter() - started
    return result, took / calibrate.speed(before, calibrate.kernel()), took


def fresh_setup(workload: str, seed: int, workdir: str, importtime: bool):
    """(setup seconds, sheetsmith import ms, numpy import ms) of a new interpreter."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.join(HERE, "child.py"), "setup", workload, str(seed), workdir, SRC]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    cumulative = {}
    for line in proc.stderr.splitlines():
        fields = line[len("import time:"):].split("|")
        if line.startswith("import time:") and fields[1].strip().isdigit():
            ms = int(fields[1]) / 1e3 / report["import_speed"]
            cumulative.setdefault(fields[2].strip(), ms)
    return report["setup_s"], cumulative.get("sheetsmith", 0.0), cumulative.get("numpy", 0.0)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads

    setups = [fresh_setup(name, seed, workdir, trace) for _ in range(SETUPS)]
    workload = workloads.build(name, seed, workdir, SRC)
    if name != "cli":
        workloads.warm_up(workload)
    recorder = tracing.Tracer() if trace else None
    if recorder and name != "cli":
        recorder.install()
    stats_path = os.path.join(workdir, "child-stats.json")

    latencies, raw, child_rss, problems = [], [], [], []
    attempted = failed = 0
    first = None
    started = perf_counter()
    while True:
        item = workload.item(attempted)
        if recorder:
            recorder.op = attempted
        try:
            if name == "cli":  # the child calibrates itself
                out = workload.run(item, stats_path if recorder else None)
                scaled, took = out[3:]
            else:
                out, scaled, took = timed(lambda: workload.run(item))
        except Exception:  # an operation that raises is a failed operation
            failed += 1
            traceback.print_exc()
            out = None
        else:
            latencies.append(scaled)
            raw.append(took)
            first = out if first is None else first
            try:
                problems += workload.check(item, out)
            except Exception as exc:  # a malformed output is a wrong output
                problems.append(f"check raised {exc!r}")
        attempted += 1
        if name == "cli" and out is not None:
            child_rss.append(out[2])
            if recorder:
                with open(stats_path, encoding="utf-8") as handle:
                    recorder.merge(json.load(handle), attempted <= workload.ROUND)
        if recorder and attempted == workload.ROUND:
            recorder.first_round = False
        if attempted % workload.ROUND == 0 and perf_counter() - started >= seconds:
            break

    if name == "synth" and first is not None:
        again = workload.run(workload.item(0))
        if (again.rendered, again.candidates_explored) != (first.rendered, first.candidates_explored):
            problems.append("synthesize is not deterministic on the first example set")

    ops = len(latencies)
    ordered = sorted(latencies)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "correct": not problems and ops > 0, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "ops": ops,
        "ops_per_s": ops / sum(latencies) if ops else 0.0,
        "latency_p50_ms": statistics.median(latencies) * 1e3 if ops else 0.0,
        # a tail needs ten samples beyond it
        "latency_p90_ms": ordered[int(ops * 0.9)] * 1e3 if ops >= 100 else None,
        "raw_latency_p50_ms": statistics.median(raw) * 1e3 if ops else 0.0,
        "speed": statistics.median(r / s for r, s in zip(raw, latencies)) if ops else 1.0,
        "setups_s": [s for s, _, _ in setups],
    }
    if trace:
        record["metrics"] = tracing.layer_metrics(
            recorder,
            statistics.median(i for _, i, _ in setups),
            statistics.median(n for _, _, n in setups),
            record["speed"],
        )
        write_trace(record, recorder, started)
    else:
        rss_kib = max(child_rss) if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        record["metrics"] = {
            "setup_s": statistics.median(record["setups_s"]),
            "ops_per_s": record["ops_per_s"],
            "latency_p50_ms": record["latency_p50_ms"],
            "peak_rss_mb": rss_kib / 1024,
        }
    return record


def write_trace(record: dict, recorder, started: float) -> None:
    """Spans of the first round (times in µs from the run's start) and totals."""
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    path = os.path.join(OUT, "traces", f"{record['workload']}-seed{record['seed']}.json")
    spans = [
        {"id": i, "parent": p, "op": op, "name": n,
         "start_us": round((s - started) * 1e6, 1), "dur_us": round((e - s) * 1e6, 1)}
        for i, p, op, n, s, e in recorder.spans
    ]
    layers = {n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in recorder.stats.items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": record["workload"], "seed": record["seed"],
                   "layers": layers, "first_round_counts": recorder.counts,
                   "spans": spans}, handle)


def append_result(path: str, record: dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
    runs.append(record)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1)
    os.replace(path + ".tmp", path)


# ----- compare ----------------------------------------------------------------


def compare(before_path: str, after_path: str) -> int:
    """Median delta of every metric per workload; counts must match per seed."""
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    files = []
    for path in (before_path, after_path):
        with open(path, encoding="utf-8") as handle:
            runs = json.load(handle)["runs"]
        machines = sorted({(r["python"], r["cpu_count"]) for r in runs})
        print(f"{path}: " + ", ".join(f"Python {p} on {c} CPUs" for p, c in machines))
        files.append(runs)
    before, after = files
    bad = 0
    for name in sorted({r["workload"] for r in before} & {r["workload"] for r in after}):
        for trace in (0, 1):
            a = [r for r in before if r["workload"] == name and r["trace"] == trace]
            b = [r for r in after if r["workload"] == name and r["trace"] == trace]
            if not a or not b:
                continue
            print(f"\n{name} ({'traced' if trace else 'untraced'}; {len(a)} vs {len(b)} runs)")
            for metric in a[0]["metrics"]:
                info = metrics[metric]
                ma = statistics.median(r["metrics"][metric] for r in a)
                mb = statistics.median(r["metrics"][metric] for r in b)
                delta = (mb - ma) / ma if ma else 0.0 if mb == ma else float("inf")
                verdict = ""
                if info["unit"] == "count":
                    by_seed = {r["seed"]: r["metrics"][metric] for r in a}
                    differ = [r["seed"] for r in b if r["seed"] in by_seed
                              and r["metrics"][metric] != by_seed[r["seed"]]]
                    verdict = f"differs at seeds {differ}" if differ else "same per seed"
                    bad += bool(differ)
                elif "bound" in info:
                    worse = delta if info["better"] == "lower" else -delta
                    verdict = f"WORSE than bound {info['bound']:.0%}" if worse > info["bound"] else "within bound"
                    bad += worse > info["bound"]
                print(f"  {metric:<36} {ma:>12.4f} -> {mb:>12.4f} {info['unit']:<6} "
                      f"{delta:+8.1%}  {verdict}")
    for path, runs in dict(zip((before_path, after_path), files)).items():
        for name in sorted({r["workload"] for r in runs}):
            plain = [r["latency_p50_ms"] for r in runs if r["workload"] == name and not r["trace"]]
            traced = [r["latency_p50_ms"] for r in runs if r["workload"] == name and r["trace"]]
            if plain and traced:
                overhead = statistics.median(traced) / statistics.median(plain) - 1
                print(f"{path}: tracing adds {overhead:+.1%} to {name} latency_p50_ms")
    return 1 if bad else 0


# ----- main -------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("scan", "synth", "equiv", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT, "results.json"),
                        help="result file the run is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two result files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "sheetsmith", "__init__.py")):
        print(f"error: no sheetsmith source under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    append_result(args.out, record)
    for problem in record["problems"]:
        print(f"check: {problem}", file=sys.stderr)
    p90 = record["latency_p90_ms"]
    print(f"{args.workload}: {record['ops']} operations, p50 {record['latency_p50_ms']:.3f} ms"
          + (f", p90 {p90:.3f} ms" if p90 else ""), file=sys.stderr)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
