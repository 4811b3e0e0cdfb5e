#!/bin/sh
# Every workload at one seed: end-to-end metrics (untraced), then per-layer
# metrics (traced).  Run from the repository root; exits non-zero as soon as
# a run does (a wrong output or a failure to run).
#
#   sh perfbench/all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-30}
for workload in train-fast train-pool serve; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
