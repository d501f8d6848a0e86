# Proves through the real binary that unit-size schedules do not depend on
# how many solves run in parallel: `sharedres_cli batch --algorithm=unit`
# output is byte-identical (cmp) across SHAREDRES_THREADS=1/2/8, and each
# record's schedule equals a one-shot `solve --algorithm=unit` of the same
# instance. The stream mixes heavy-regime instances (m=128, every window
# heavy: the prefix-regime engine runs) with light ones (m=4: the walk
# runs); --metrics-json confirms one prefix run per heavy record. Run by
# ctest as cli_parallel_identity (label tier1).
#
#   usage: test_unit_identity.sh <path-to-sharedres_cli>
set -u

CLI=${1:?usage: test_unit_identity.sh <path-to-sharedres_cli>}
TMP=$(mktemp -d) || exit 1
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

SEED=9
COUNT=3
# gen <machines> <out> [--count=N --format=ndjson]: unit-size uniform
# instances; record k of a stream is the one-shot instance of seed SEED+k.
gen() {
  m=$1
  out=$2
  shift 2
  "$CLI" gen --family=uniform --machines="$m" --jobs=4000 --max-size=1 \
    --seed=$SEED --out="$out" "$@" > /dev/null || fail "gen (m=$m) exited $?"
}

gen 128 "$TMP/heavy.ndjson" --count=$COUNT --format=ndjson
gen 4 "$TMP/light.ndjson" --count=$COUNT --format=ndjson
cat "$TMP/heavy.ndjson" "$TMP/light.ndjson" > "$TMP/stream.ndjson"

for threads in 1 2 8; do
  SHAREDRES_THREADS=$threads "$CLI" batch --in="$TMP/stream.ndjson" \
    --algorithm=unit --emit-schedules \
    --metrics-json="$TMP/metrics$threads.json" > "$TMP/t$threads.ndjson" \
    || fail "batch (threads=$threads) exited $?"
done
for threads in 2 8; do
  cmp -s "$TMP/t1.ndjson" "$TMP/t$threads.ndjson" \
    || fail "unit batch output differs between SHAREDRES_THREADS=1 and $threads"
done

# Record 0 of each half against a one-shot solve of the seed-SEED instance.
gen 128 "$TMP/heavy.txt"
gen 4 "$TMP/light.txt"
for inst in heavy light; do
  "$CLI" solve --instance="$TMP/$inst.txt" --algorithm=unit \
    --out="$TMP/$inst.sched" > /dev/null \
    || fail "solve ($inst) exited $?"
done

python3 - "$TMP/t1.ndjson" "$TMP/heavy.sched" "$TMP/light.sched" \
  "$TMP/metrics1.json" $COUNT <<'PY' || exit 1
import json, sys
batch_path, heavy_path, light_path, metrics_path, count = sys.argv[1:6]
count = int(count)

records = [json.loads(line) for line in open(batch_path)]
summary = records[-1]
if summary.get("summary") is not True or summary["failed"] != 0:
    sys.exit(f"FAIL: bad summary line: {summary}")
for index, path in ((0, heavy_path), (count, light_path)):
    record = records[index]
    if not record["ok"] or record["schedule"] != open(path).read():
        sys.exit(f"FAIL: batch record {index} differs from the one-shot solve")

metrics = json.load(open(metrics_path))
if metrics["obs_enabled"]:
    counters = metrics["deterministic"]["counters"]
    runs = counters.get("engine.unit.prefix_runs", 0)
    if runs != count:
        sys.exit(f"FAIL: expected {count} prefix-regime runs (one per heavy "
                 f"record), got {runs}")
PY

echo "OK: unit schedules byte-identical across thread counts and to one-shot solves"
