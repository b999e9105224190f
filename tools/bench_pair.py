"""Paired benchmark runs of a parent revision and the working tree.

    python3 tools/bench_pair.py --parent <rev> --pr <n>

Run from the repository root.  Exports <rev> with `git archive` into a
temporary directory (no worktree is registered, nothing in the repository
changes), then runs `perfbench/run.py --workload W --seed 1 --seconds 15`
on each of the four workloads, once on the parent and once on the working
tree per pair, ten pairs, alternating which side goes first from one run to
the next.
Each side runs its own perfbench/ and its own src/.

Writes BENCH_<n>.json at the repository root: every run's accuracy line
(the first JSON line run.py prints: failed operations and the worst error
against the mpmath references) next to its metrics, and per workload the
median of each end-to-end metric on either side.  For each end-to-end
metric that BENCHMARK.json declares, the summary also gives the two rules a
change is judged by: the pairs the change won, by the metric's `better`
with ties counting for neither side, and the parent's interquartile range
(a claimed gain must win nine pairs of ten, its median ahead by more than
that range); and whether the change's median is worse than the parent's by
more than the metric's `bound`, a fraction of the parent's median (a
regression).  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("eval-strip", "eval-tall", "scan-grid", "verify")
SEED = 1
PAIRS = 10       # a claimed gain must win nine pairs of ten
SECONDS = 15.0   # run.py --seconds


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """Write the tree of rev into dest; return the full commit id."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(dest, **kwargs)
    return sha


def run_once(tree: str, workload: str) -> dict:
    """One run.py invocation in tree; its accuracy line and result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", repr(SECONDS)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    return {"accuracy_line": json.loads(lines[0]), "result": json.loads(lines[-1]),
            "stderr": proc.stderr.splitlines(), "wall_s": round(wall, 1)}


def summarize(runs: list[dict]) -> dict:
    """Per workload and metric: median, min and max on each side."""
    out: dict = {}
    for run in runs:
        for name, m in run["result"]["metrics"].items():
            out.setdefault(run["workload"], {}).setdefault(name, {}).setdefault(
                run["side"], []).append(m["value"])
    for metrics in out.values():
        for name, sides in metrics.items():
            metrics[name] = {side: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                             for side, v in sides.items()}
    return out


def judge(runs: list[dict], summary: dict, end_to_end: list[dict]) -> None:
    """Add to summary[workload][metric], for each end-to-end metric of
    BENCHMARK.json that the workload reports: won_pairs (pairs whose change
    run reads better than its parent run), parent_iqr (the distance
    between the quartiles of the parent's runs) and worse_than_bound."""
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        for workload, metrics in summary.items():
            if name not in metrics:
                continue
            by_pair: dict = {}
            for run in runs:
                m = run["result"]["metrics"].get(name)
                if run["workload"] == workload and m is not None:
                    by_pair.setdefault(run["pair"], {})[run["side"]] = m["value"]
            won = sum(1 for v in by_pair.values() if len(v) == 2 and v["change"] != v["parent"]
                      and (v["change"] < v["parent"]) == lower)
            parent = [v["parent"] for v in by_pair.values() if "parent" in v]
            q1, _, q3 = statistics.quantiles(parent, n=4)
            was, now = metrics[name]["parent"]["median"], metrics[name]["change"]["median"]
            limit = was * (1.0 + spec["bound"] if lower else 1.0 - spec["bound"])
            metrics[name].update(won_pairs=won, parent_iqr=q3 - q1,
                                 worse_than_bound=now > limit if lower else now < limit)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--pr", required=True, help="suffix of the output file BENCH_<pr>.json")
    args = p.parse_args(argv)
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        sha = export(args.parent, tmp)
        head = _git("rev-parse", "HEAD").decode().strip()
        dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench").strip())
        trees = {"parent": tmp, "change": ROOT}
        for pair in range(PAIRS):
            for i, workload in enumerate(WORKLOADS):
                # each workload swaps which side goes first from pair to pair
                order = ("parent", "change") if (pair + i) % 2 == 0 else ("change", "parent")
                for side in order:
                    rec = run_once(trees[side], workload)
                    runs.append({"workload": workload, "side": side, "pair": pair,
                                 "first": side == order[0], **rec})
                    print(f"{workload} {side} pair {pair}: "
                          f"{json.dumps(rec['result']['metrics'].get('ops_per_s'))}", file=sys.stderr)
    summary = summarize(runs)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        judge(runs, summary, json.load(fh)["end_to_end"])
    doc = {
        "parent": sha,
        "change": f"working tree at {head}" + (" with changes under src/ or perfbench/" if dirty else ""),
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS!r}",
        "pairs": PAIRS,
        "machine": {"python": platform.python_version(), "system": platform.platform(),
                    "cpus": os.cpu_count()},
        "summary": summary,
        "runs": runs,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
