#!/bin/sh
# Assemble and factor the paper-scale operator (128 x 128 grid, 30 angles x
# 200 offsets, a 6000 x 16384 matrix) under a ~6 GB address-space cap, and
# print the stage's exit code, wall time and peak RSS, then, outside the
# timed part, the sha256 of the operator file, so that one run per source
# tree compares two trees' operators without keeping either.  The geometry
# is set by its keys in a paper.cfg written beside the operator.  Not part
# of the test suite; it takes tens of seconds and writes a 1.9 GB operator
# file.
#
#   scripts/paper_scale_assemble.sh [out_dir]
#
# Without out_dir the operator goes to a temporary directory that is removed
# at the end.  The cap (ulimit -v, in KiB) applies to this script's own
# subshell only, so an overrun fails the run, not the machine.  Set
# OPENBLAS_NUM_THREADS to fix the BLAS thread count.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -ge 1 ]; then
    out=$1
    mkdir -p "$out"
else
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
fi
cd "$out"
printf 'grid_n=128\nn_angles=30\nn_detectors=200\n' > paper.cfg
(
    ulimit -v 6000000
    PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" exec python3 - <<'PY'
import resource
import sys
import time

start = time.perf_counter()
from regnets.cli import main

code = 1  # an exception that main does not map, such as MemoryError
try:
    code = main(["assemble", "--config", "paper.cfg"])
finally:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"paper-scale assemble: exit {code}, wall {time.perf_counter() - start:.1f} s, peak RSS {peak:.0f} MB")
sys.exit(code)
PY
)
echo "paper-scale operator: sha256 $(sha256sum operator.rgn1 | cut -d ' ' -f 1)"
