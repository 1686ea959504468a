#!/usr/bin/env python3
"""Compare this tree's end-to-end benchmark metrics with a git revision's.

    scripts/bench_pairs.py <rev> <pairs> <first_seed> [<record.json>]

The revision is checked out with `git worktree add --detach` into a
temporary directory that is removed on exit.  For each workload of
BENCHMARK.json, pair i runs

    python3 pipebench/run.py --workload <w> --seed <first_seed + i> --seconds <run_seconds> --trace 0

once in each tree, from that tree's root; the revision runs first in
even pairs and this tree first in odd ones.  BENCHMARK.json and
pipebench/ are only read.  For each end-to-end metric the script prints
the revision's and this tree's medians, the interquartile range of the
revision's runs, the pairs this tree won and whether this tree's median
is within the metric's bound (a relative worsening of at most `bound`).
After the pairs of a workload, each tree also makes one

    python3 pipebench/run.py --workload <w> --seed <first_seed> --seconds <run_seconds> --trace 1

run, and the script prints both trees' value of each per-layer metric
of BENCHMARK.json.  These single runs carry no verdict.

With a fourth argument the script also writes there, as JSON, every
run's value (null for a failed run), the two medians, the revision's
interquartile range, the wins and the verdict of each metric on each
workload, each tree's per-layer values under `per_layer` (null for a
failed run), with both trees' git shas, this tree's uncommitted changes
when the runs began (`git status --porcelain`), `os.cpu_count()` and
numpy's BLAS.

Exit 0 when every run, the traced ones included, is correct with 0
failed operations and every median is within its bound; 1 otherwise; 2
on a usage error.  Standard library and numpy only; not part of the
test suite.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def usage(message: str) -> int:
    print(f"{sys.argv[0]}: {message}\nusage: {sys.argv[0]} <rev> <pairs> <first_seed> [<record.json>]", file=sys.stderr)
    return 2


def run_once(tree: Path, flags: list) -> dict | None:
    """The metrics of one `pipebench/run.py <flags>` run, or None unless it
    exits 0 correct with 0 failed operations."""
    what = f"{' '.join(map(str, flags))} in {tree}"
    try:
        proc = subprocess.run(
            ["python3", "pipebench/run.py", *map(str, flags)],
            cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"  {what}: timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        print(f"  {what}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"  {what}: correct={result.get('correct')} failed={result.get('failed')}", file=sys.stderr)
        return None
    return result["metrics"]


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(bench: dict, base: Path, pairs: int, first_seed: int) -> tuple[bool, dict]:
    """(ok, record): the verdict, and per workload each metric's runs and summary."""
    ok = True
    record = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"rev": [], "this": []}
        for i in range(pairs):
            seed = first_seed + i
            order = (("rev", base), ("this", ROOT)) if i % 2 == 0 else (("this", ROOT), ("rev", base))
            for side, tree in order:
                metrics = run_once(tree, ["--workload", workload, "--seed", seed, "--seconds", bench["run_seconds"], "--trace", 0])
                ok &= metrics is not None
                runs[side].append(metrics)
                status = "FAILED"
                if metrics is not None:
                    status = " ".join(f"{m['name']}={metrics[m['name']]['value']:.4g}" for m in bench["end_to_end"])
                print(f"  {workload} seed {seed} {side}: {status}", file=sys.stderr)
        complete = [k for k in range(pairs) if runs["rev"][k] is not None and runs["this"][k] is not None]
        record[workload] = {"complete_pairs": len(complete), "metrics": {}}
        print(f"{workload}: {len(complete)} of {pairs} pairs complete, seeds {first_seed}-{first_seed + pairs - 1}")
        print(f"  {'metric':<14}{'rev median':>12}{'this median':>13}{'rev IQR':>10}{'wins':>7}{'bound':>7}  verdict")
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            entry = record[workload]["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                **{side: [r[name]["value"] if r else None for r in runs[side]] for side in runs},
            }
            if not complete:
                print(f"  {name:<14}{'no complete pair':>42}  FAIL")
                entry["verdict"] = "FAIL"
                ok = False
                continue
            rev = [runs["rev"][k][name]["value"] for k in complete]
            this = [runs["this"][k][name]["value"] for k in complete]
            wins = sum((b < a) if lower else (b > a) for a, b in zip(rev, this))
            rev_med, this_med = statistics.median(rev), statistics.median(this)
            limit = rev_med * (1 + metric["bound"]) if lower else rev_med * (1 - metric["bound"])
            within = this_med <= limit if lower else this_med >= limit
            ok &= within
            entry.update(
                rev_median=rev_med, this_median=this_med, rev_iqr=iqr(rev), wins=wins,
                verdict="ok" if within else "WORSE",
            )
            print(
                f"  {name:<14}{rev_med:>12.4g}{this_med:>13.4g}{iqr(rev):>10.3g}"
                f"{f'{wins}/{len(complete)}':>7}{metric['bound']:>7.0%}  {entry['verdict']}"
            )
        traced = {}
        for side, tree in (("rev", base), ("this", ROOT)):
            traced[side] = run_once(tree, ["--workload", workload, "--seed", first_seed, "--seconds", bench["run_seconds"], "--trace", 1])
            ok &= traced[side] is not None
        per_layer = record[workload]["per_layer"] = {}
        print(f"  {'per-layer metric, one traced run at seed ' + str(first_seed):<46}{'rev':>11}{'this':>11}")
        for metric in bench["per_layer"]:
            name = metric["name"]
            values = {side: m[name]["value"] if m and name in m else None for side, m in traced.items()}
            per_layer[name] = {"unit": metric["unit"], "better": metric["better"], **values}
            shown = ["FAILED" if v is None else f"{v:.4g}" for v in values.values()]
            print(f"  {name:<46}{shown[0]:>11}{shown[1]:>11}")
    return ok, record


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout.strip()


def blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas.get('version', '')}".strip()


def main(argv) -> int:
    if len(argv) not in (3, 4):
        return usage("expected three or four arguments")
    rev, pairs, first_seed = argv[:3]
    out = Path(argv[3]) if len(argv) == 4 else None
    try:
        pairs, first_seed = int(pairs), int(first_seed)
    except ValueError:
        return usage("<pairs> and <first_seed> must be integers")
    if pairs < 1:
        return usage("<pairs> must be at least 1")
    if out is not None and not out.resolve().parent.is_dir():
        return usage(f"no directory for {out}")
    resolved = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if resolved.returncode != 0:
        return usage(f"not a revision: {rev}")
    rev_sha = resolved.stdout.strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    this = {"sha": git("rev-parse", "HEAD"), "uncommitted": git("status", "--porcelain").splitlines()}

    # a signal ends the run through the finally below, which removes the worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(130))
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(base), rev_sha], check=True)
        try:
            ok, workloads = compare(bench, base, pairs, first_seed)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)], capture_output=True)
            subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)
    if out is not None:
        record = {
            "rev": {"name": rev, "sha": rev_sha},
            "this": this,
            "cpu_count": os.cpu_count(),
            "blas": blas_name(),
            "pairs": pairs,
            "seeds": [first_seed, first_seed + pairs - 1],
            "run_seconds": bench["run_seconds"],
            "command": "python3 pipebench/run.py --workload <w> --seed <s> --seconds <run_seconds> --trace 0",
            "per_layer_command": "python3 pipebench/run.py --workload <w> --seed <first_seed> --seconds <run_seconds> --trace 1",
            "workloads": workloads,
            "within_every_bound": ok,
        }
        out.write_text(json.dumps(record, indent=2) + "\n")
    print("within every bound" if ok else "a run failed or a median is outside its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
