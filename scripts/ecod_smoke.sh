#!/usr/bin/env sh
# ecod smoke: a 3-node real-process cluster on loopback runs a short
# protocol day twice from the same seed; the runs must converge (node 0
# exits cleanly with a merged summary), be bit-reproducible (the merged
# CSVs diff clean) and match the expected data rows checked in next to this
# script. Per-node shard CSVs are left in $OUT/run{1,2} for CI to upload as
# artifacts.
#
# Env: GO (go binary), OUT (work dir, default out-ecod), ECOD_PORT_BASE
# (first of three consecutive loopback ports, default 7131).
set -eu

GO=${GO:-go}
OUT=${OUT:-out-ecod}
BASE=${ECOD_PORT_BASE:-7131}
EXPECTED=$(dirname "$0")/ecod_smoke_expected

mkdir -p "$OUT"
"$GO" build -o "$OUT/ecod" ./cmd/ecod

cat > "$OUT/cluster.conf" <<EOF
# 3-node smoke cluster: 24 servers over three shards.
seed = 7
servers = 24
horizon = 2h
initial_vms = 80
arrival_per_hour = 80
mean_lifetime = 45m
scan_interval = 5m
node = 0 127.0.0.1:$BASE 0:8
node = 1 127.0.0.1:$((BASE + 1)) 8:16
node = 2 127.0.0.1:$((BASE + 2)) 16:24
EOF

run_once() {
    dir=$1
    "$OUT/ecod" -config "$OUT/cluster.conf" -node 1 -out "$dir" &
    p1=$!
    "$OUT/ecod" -config "$OUT/cluster.conf" -node 2 -out "$dir" &
    p2=$!
    "$OUT/ecod" -config "$OUT/cluster.conf" -node 0 -out "$dir"
    wait "$p1" "$p2"
}

run_once "$OUT/run1"
run_once "$OUT/run2"

# Convergence: every node wrote its shard summary, node 0 the merged figure.
for n in 0 1 2; do
    test -s "$OUT/run1/ecod_node$n.csv"
done
test -s "$OUT/run1/ecod.csv"

# Reproducibility: same seed, same merged summary — byte for byte — and the
# same shard summaries.
diff "$OUT/run1/ecod.csv" "$OUT/run2/ecod.csv"
for n in 0 1 2; do
    diff "$OUT/run1/ecod_node$n.csv" "$OUT/run2/ecod_node$n.csv"
done

# Absolute outputs: run1's data rows equal the checked-in ones. The "#"
# notes are left out because they carry the config hash, which covers the
# ports.
for f in ecod ecod_node0 ecod_node1 ecod_node2; do
    grep -v '^#' "$OUT/run1/$f.csv" | diff "$EXPECTED/$f.csv" -
done

echo "ecod smoke: 3-node cluster converged, is bit-reproducible and matches $EXPECTED"
