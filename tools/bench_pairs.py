"""Run the benchmark on two revisions in alternating pairs and compare them.

    PYTHONDONTWRITEBYTECODE=1 python tools/bench_pairs.py PARENT CHANGE \
        --workload synth --pairs 10 --seconds 10 --seeds 1 3 --out BENCH_N.json

Pair i runs perfbench/run.py (untraced) once on each revision, on seed
seeds[i // 2 % len(seeds)]; the parent runs first in even pairs and the
change first in odd ones, so every seed is run in both orders. Before every run the revision is extracted afresh with
git archive into a new directory, so no run reads a tree, bytecode or result
file that another run left. The runs are appended to --out as
{"runs": [change records], "parent_runs": [parent records]}, pair i of the
file being runs[i] and parent_runs[i], so several workloads can share one
file. The script prints each pair's ratio, the change's wins and the
parent's quartile spread of ops_per_s, and records the Python version and
the PYTHONDONTWRITEBYTECODE setting it ran under. It changes nothing in the
benchmark: each run is the revision's own perfbench/run.py. Stdlib only;
run it from inside the repository. The trees go under TMPDIR when it is set.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(commit: str, directory: str) -> None:
    """The files of commit, as git archive gives them, under directory."""
    with subprocess.Popen(["git", "archive", "--format=tar", commit],
                          stdout=subprocess.PIPE) as archive:
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(directory, filter="data")
            else:  # Python before the extraction filters
                tar.extractall(directory)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {commit} failed")


def run_once(commit: str, workload: str, seed: int, seconds: float, scratch: str) -> dict:
    """The record perfbench/run.py writes for one run in a fresh tree of commit."""
    tree = tempfile.mkdtemp(prefix="tree-", dir=scratch)
    try:
        extract(commit, tree)
        out = os.path.join(tree, "pairs-result.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--out", out],
            cwd=tree, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{commit[:12]} {workload} seed {seed}:\n{proc.stderr}")
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)["runs"][-1]
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    record["commit"] = commit
    return record


def summarize(workload: str, change: list, parent: list) -> None:
    """Print each pair's ratios, the wins, the medians and the parent's spread."""
    ops = [(c["ops_per_s"], p["ops_per_s"]) for c, p in zip(change, parent)]
    p50 = [(c["latency_p50_ms"], p["latency_p50_ms"]) for c, p in zip(change, parent)]
    for i, ((c_ops, p_ops), (c_p50, p_p50)) in enumerate(zip(ops, p50)):
        print(f"pair {i}: seed {change[i]['seed']}, ops_per_s {p_ops:.2f} -> {c_ops:.2f}"
              f" (x{c_ops / p_ops:.4f}), latency_p50_ms {p_p50:.4f} -> {c_p50:.4f}"
              f" (x{c_p50 / p_p50:.4f})")
    wins = sum(c > p for c, p in ops)
    med_change = statistics.median(c for c, _ in ops)
    med_parent = statistics.median(p for _, p in ops)
    print(f"{workload}: ops_per_s median {med_parent:.2f} -> {med_change:.2f}"
          f" ({med_change / med_parent - 1:+.1%}), change better in {wins}/{len(ops)} pairs")
    if len(ops) >= 2:
        for side, values in (("change", [c for c, _ in ops]), ("parent", [p for _, p in ops])):
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{workload}: {side} ops_per_s quartiles {q1:.2f} and {q3:.2f}")
        print(f"{workload}: median gain {med_change - med_parent:+.2f} against the"
              f" parent's quartile spread {q3 - q1:.2f}")
    bad = [r for r in change + parent if not r["correct"] or r["failed"]]
    print(f"{workload}: {len(bad)} runs incorrect or with failed operations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="revision of the parent")
    parser.add_argument("change", help="revision of the change")
    parser.add_argument("--workload", required=True, choices=("scan", "synth", "equiv", "cli"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 3])
    parser.add_argument("--out", required=True, help="JSON file the pairs are appended to")
    args = parser.parse_args(argv)
    parent, change = git("rev-parse", args.parent), git("rev-parse", args.change)
    out = os.path.abspath(args.out)
    os.chdir(git("rev-parse", "--show-toplevel"))
    data = {"runs": [], "parent_runs": []}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            data = json.load(handle)
    described = {
        "workload": args.workload, "seconds": args.seconds, "seeds": args.seeds,
        "parent": parent, "change": change, "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "first_pair": len(data["runs"]),
    }
    added_change, added_parent = [], []
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")  # under TMPDIR if set
    try:
        for i in range(args.pairs):
            seed = args.seeds[i // 2 % len(args.seeds)]
            order = ["parent", "change"][:: 1 if i % 2 == 0 else -1]
            runs = {side: run_once(parent if side == "parent" else change,
                                   args.workload, seed, args.seconds, scratch)
                    for side in order}
            added_parent.append(runs["parent"])
            added_change.append(runs["change"])
            print(f"pair {i} done: seed {seed}, the {order[0]} ran first", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # the pairs run so far are kept, even when a run failed
        described["pairs"] = len(added_change)
        data.setdefault("sets", []).append(described)
        data["runs"] += added_change
        data["parent_runs"] += added_parent
        with open(out + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1)
        os.replace(out + ".tmp", out)
    summarize(args.workload, added_change, added_parent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
