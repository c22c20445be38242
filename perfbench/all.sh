#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced then traced, and prints
# each result line under its workload and mode. Run from the repository
# root:
#
#     bash perfbench/all.sh [seed] [seconds]
#
# Exits non-zero if any run fails or reports a failed job.
set -euo pipefail

seed="${1:-1}"
seconds="${2:-30}"
status=0
for workload in cell_mixed_rate zoo_tournament campus_roam; do
    for trace in 0 1; do
        line=$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
        echo "$workload trace=$trace $line"
        case "$line" in
            *'"correct": true'*) ;;
            *) status=1 ;;
        esac
    done
done
exit "$status"
