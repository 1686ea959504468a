#!/bin/sh
# Check that this tree writes the same pipeline outputs as a git revision.
# The revision's files are exported with `git archive` into a temporary
# directory that is removed on exit.  For each workload of
# pipebench/workloads.py (imported from this tree, read-only), both trees
# write run.cfg at seed 3 and run the eight STAGES with
# OPENBLAS_NUM_THREADS=1; then the output directories are compared with
# `diff -r` and each stage's stdout is compared.  Not part of the test
# suite; the whole comparison took 12 s on a 2-core machine.
#
#   scripts/outputs_identical.sh <rev>
#
# Exit 0 when every file and every stdout is identical; 1 when something
# differs or a stage fails (each difference is listed); 2 on a usage error
# (no revision, or one git cannot resolve).
set -eu
if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
if ! rev=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}"); then
    echo "$0: not a revision: $1" >&2
    exit 2
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' HUP INT TERM
mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"

python3 - "$root" "$tmp/rev" "$tmp" <<'PY'
import os
import subprocess
import sys
from pathlib import Path

root, rev_tree, tmp = map(Path, sys.argv[1:4])
sys.path.insert(0, str(root / "pipebench"))
from workloads import STAGES, WORKLOADS, cfg_text, config

differences = []
for workload in WORKLOADS:
    stdout = {}
    for side, tree in (("rev", rev_tree), ("this", root)):
        d = tmp / "out" / side / workload
        d.mkdir(parents=True)
        (d / "run.cfg").write_text(cfg_text(config(workload, 3)))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
        for stage, argv in STAGES:
            proc = subprocess.run(
                [sys.executable, "-m", "regnets.cli", *argv, "--config", "run.cfg"],
                cwd=d, env=env, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                differences.append(f"{workload}: {stage} exited {proc.returncode} on {side}: {proc.stderr.strip()}")
            stdout[side, stage] = proc.stdout
    differences += [
        f"{workload}: stdout of {stage}" for stage, _ in STAGES if stdout["rev", stage] != stdout["this", stage]
    ]
    diff = subprocess.run(
        ["diff", "-rq", f"rev/{workload}", f"this/{workload}"], cwd=tmp / "out", capture_output=True, text=True
    )
    differences += [f"{workload}: {line}" for line in diff.stdout.splitlines()]
    files = sum(f.is_file() for f in (tmp / "out" / "this" / workload).rglob("*"))
    print(f"{workload}: {files} files and {len(STAGES)} stdouts compared", flush=True)

for line in differences:
    print(line)
print("outputs identical" if not differences else f"{len(differences)} difference(s)")
sys.exit(1 if differences else 0)
PY
