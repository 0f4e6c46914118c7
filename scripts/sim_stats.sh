#!/usr/bin/env sh
# Speed-ups leave sim_stats alone: one short run of every workload of the
# benchmark must reproduce, byte for byte, the deterministic outputs
# recorded in benchmark/baseline.json (event, timer and stale-pop counts,
# per-protocol control packets, reception and telemetry fingerprints; on
# fig2_trees the per-degree flow means, the delay ratio and the results
# fingerprint). sim_stats are per repetition, so one second (at least one
# repetition) says what the 15 s baseline run said.
# Run from anywhere: ./scripts/sim_stats.sh
set -eu

cd "$(dirname "$0")/.."

for w in stream_data hier_ctrl hier_ctrl_par fault_campaign fig2_trees; do
    out=$(bash benchmark/run.sh --workload "$w" --seed 1994 --seconds 1 --trace 0) ||
        { echo "$w: benchmark run failed"; exit 1; }
    detail=$(printf '%s\n' "$out" | grep '^#detail ')
    case $detail in
    *'"correct":false'*) echo "$w: output check failed"; exit 1 ;;
    esac
    stats=$(printf '%s\n' "$detail" | sed -n 's/.*"sim_stats":\({[^}]*}\).*/\1/p')
    [ -n "$stats" ] || { echo "$w: no sim_stats in the #detail line"; exit 1; }
    grep -qF -- "$stats" benchmark/baseline.json ||
        { echo "$w: sim_stats differ from benchmark/baseline.json:"; echo "$stats"; exit 1; }
    echo "$w: sim_stats match benchmark/baseline.json"
done
